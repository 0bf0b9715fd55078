"""Field homology read rank first, against the algorithm it replaced.

``ChainComplex`` computes dim H_k over a field as dim C_k - rank d_k -
rank d_{k+1} and builds the representative cycles only when
``free_generators`` is read.  The reference here is the old algorithm:
the kernel of d_k from the ``Fraction`` loop (``fraction_nullspace``),
then a greedy span over the columns of d_{k+1}, keeping each kernel
vector that is independent of the columns and of the vectors kept
before it.  Rank and every representative vector must agree.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary_matrix, dense_complex, sparsify
from test_echelon import FractionEchelon, fraction_nullspace
from test_sparse_snf import rp2, rp2_wedge_mod3
from torushom import chains
from torushom.fields import GF, QQ
from torushom.fixtures import resolve_fixture
from torushom.generator import polygon_with_holes

FIELDS = [QQ, GF(2), GF(5)]


def reference_generators(c, k, field):
    n = c.dim(k)
    if c.dim(k - 1):
        kernel = fraction_nullspace(boundary_matrix(c, k), field)
    else:
        kernel = [[field.one if i == j else field.zero for i in range(n)]
                  for j in range(n)]
    span = FractionEchelon(field, zip(*boundary_matrix(c, k + 1)))
    return [v for v in kernel if span.add(v)]


def assert_matches_reference(c, field):
    for k in c.degrees():
        group = c.homology(k, field)
        expected = reference_generators(c, k, field)
        assert group.rank == len(expected)
        assert group.free_generators == list(map(sparsify, expected))


def _matmul(a, b):
    return [[sum(x * b[t][j] for t, x in enumerate(row))
             for j in range(len(b[0]))] for row in a]


@st.composite
def integer_complexes(draw):
    """A complex with d d = 0 in degrees 0..top: a sum of pieces Z (no
    boundary) and Z --m--> Z, with m in {1, 2, 3, 5, 10} up to sign, so
    the homology over GF(2) and GF(5) can differ from that over Q; then
    each degree's basis is changed by a few elementary integer moves,
    d_k -> A_{k-1} d_k A_k^-1, which keeps d d = 0."""
    top = draw(st.integers(min_value=1, max_value=3))
    free = [draw(st.integers(min_value=0, max_value=3))
            for _ in range(top + 1)]
    # arrows[k]: the multipliers of the pieces from degree k to k-1
    arrows = [[]] + [draw(st.lists(st.sampled_from((1, -1, 2, -2, 3, 5, 10)),
                                   max_size=3)) for _ in range(top)]
    dims = [free[k] + len(arrows[k]) + (len(arrows[k + 1]) if k < top else 0)
            for k in range(top + 1)]
    # basis of degree k: free cells, then sources of arrows[k], then
    # targets of arrows[k+1]
    boundaries = {}
    for k in range(1, top + 1):
        mat = [[0] * dims[k] for _ in range(dims[k - 1])]
        row0 = free[k - 1] + len(arrows[k - 1])
        for i, m in enumerate(arrows[k]):
            mat[row0 + i][free[k] + i] = m
        boundaries[k] = mat
    changes, inverses = [], []
    for k in range(top + 1):
        n = dims[k]
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        a_inv = [row[:] for row in a]
        if n > 1:
            moves = draw(st.lists(st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from((1, -1, 2))), max_size=4))
            for i, j, q in moves:
                if i == j:
                    continue
                # row i += q * row j on A, column j -= q * column i on A^-1
                a[i] = [x + q * y for x, y in zip(a[i], a[j])]
                for row in a_inv:
                    row[j] -= q * row[i]
        changes.append(a)
        inverses.append(a_inv)
    for k, mat in boundaries.items():
        if dims[k] and dims[k - 1]:
            boundaries[k] = _matmul(_matmul(changes[k - 1], mat), inverses[k])
    bases = {k: ["c%d_%d" % (k, i) for i in range(dims[k])]
             for k in range(top + 1)}
    return dense_complex(bases, boundaries)


@settings(max_examples=80, deadline=None)
@given(integer_complexes(), st.sampled_from(FIELDS))
def test_random_complexes_match_the_reference(c, field):
    assert_matches_reference(c, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("build", [rp2, lambda: rp2_wedge_mod3(3),
                                   lambda: rp2_wedge_mod3(12)],
                         ids=["rp2", "rp2-wedge-3", "rp2-wedge-12"])
def test_projective_planes_match_the_reference(build, field):
    assert_matches_reference(build(), field)


def test_generators_are_built_on_first_read_only(monkeypatch):
    built = []

    def counting(*args):
        built.append(args[-1])
        return original(*args)

    original = chains._field_generators
    monkeypatch.setattr(chains, "_field_generators", counting)
    group = rp2().homology(1, GF(2))
    assert (group.rank, group.describe(), group.is_trivial()) == (
        1, "F2", False)
    assert built == []
    first = group.free_generators
    assert group.free_generators is first
    assert built == [1]


@pytest.fixture(params=["square_hole", "polygon"])
def manifold(request):
    if request.param == "square_hole":
        return resolve_fixture("square_hole").manifold
    return polygon_with_holes((8, 4, 4), seed=3).manifold


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rank_readers_build_no_representatives(manifold, field,
                                               monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return original(*args)

    original = chains._field_generators
    monkeypatch.setattr(chains, "_field_generators", counting)
    corner, poset = manifold.corner, manifold.poset
    assert poset.buchsbaum_check(field)[0]
    poset.reduced_betti(field)
    for selector in ("boundary", "space", "pair"):
        for k in range(manifold.n + 1):
            corner.homology(selector, k, field).rank
    assert corner._euler_violations(field) == []
    assert built == []
    # the connecting map reads representatives, built by the same function
    corner.delta_image(0, field)
    assert built


def test_a_dropped_complex_is_freed_by_refcounting():
    """A group refers to no complex, so dropping the complex frees it
    and its groups without the cycle collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c = rp2_wedge_mod3(3)
        groups = [c.homology(k, field) for field in FIELDS
                  for k in c.degrees()]
        assert any(g.rank for g in groups)
        ref = weakref.ref(c)
        del c, groups
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
