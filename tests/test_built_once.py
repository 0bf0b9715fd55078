"""Objects that exist once: the poset's chain complex, and the initial
diagonal pages, which are the face ring quotient's presentations."""

import pytest

from torushom.fields import GF, QQ
from torushom.generator import polygon_with_holes
from torushom.posets import SimplicialPoset


@pytest.fixture
def manifold():
    return polygon_with_holes((6, 4, 3), seed=3).manifold


def test_poset_complex_is_built_once(manifold, monkeypatch):
    unsigned = []
    original = SimplicialPoset.simplex_chain_complex

    def counting(self, *args, **kwargs):
        if (args[0] if args else kwargs.get("signs")) is None:
            unsigned.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialPoset, "simplex_chain_complex", counting)
    first = manifold.poset.h_prime_vector(QQ)
    assert manifold.poset.h_prime_vector(QQ) == first
    assert manifold.corner.consistency_violations(QQ) == []
    assert all(ok for _, ok, _ in manifold.consistency_report(QQ))
    assert unsigned == [manifold.poset]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_initial_page_is_the_ring_presentation(manifold, field):
    quotient = manifold.quotient(field)
    for q in range(manifold.n + 1):
        page = manifold.diagonal_page(q, field, "initial")
        assert page is quotient.presentation(manifold.n - q)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_limit_page_extends_the_initial_page(manifold, field):
    for q in range(manifold.n + 1):
        initial = manifold.diagonal_page(q, field, "initial")
        limit = manifold.diagonal_page(q, field, "limit")
        if q > manifold.n - 2:
            assert limit is initial
            continue
        first = len(initial.rows)
        assert limit.rows[:first] == initial.rows
        assert limit.row_labels[:first] == [("face",) + label
                                            for label in initial.row_labels]
        assert {label[0] for label in limit.row_labels[first:]} == {"pair"}
        assert limit.generators == initial.generators
        assert manifold.diagonal_page(q, field, "limit") is limit
