"""Integral homology read rank first, against the algorithm it replaced.

``ChainComplex`` reads rank H_k over Z as dim C_k - rank d_k - rank
d_{k+1} and the torsion as the invariant factors of d_{k+1} above 1, off
one kept Smith form per boundary, and builds the free generators only
when ``free_generators`` is read.  The reference here is the old
algorithm, two Smith forms per degree: the Smith form of d_{k+1} gives
the torsion and the basis W = U^-1, and the integer kernel of d_k on the
columns of W past the factors gives the free part.  Free rank, torsion
and every generator vector must agree.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings

from conftest import boundary_matrix, sparsify
from test_chains import klein_bottle_cw, projective_plane, torus_cw
from test_field_homology import integer_complexes
from test_integral_path import _counting
from test_sparse_snf import rp2, rp2_wedge_mod3
from torushom import chains, snf
from torushom.fields import ZZ
from torushom.fixtures import resolve_fixture
from torushom.generator import polygon_with_holes


def reference_homology(c, k):
    """(free generators, torsion generators) of H_k(c; Z), each torsion
    generator an (order, vector) pair, by two Smith forms."""
    n = c.dim(k)
    if k + 1 in c.boundaries:
        factors, _, _, basis = snf.smith_normal_form(boundary_matrix(c, k + 1))
    else:
        factors, basis = [], [{i: 1} for i in range(n)]
    s = len(factors)

    def chain(weights, columns):
        out = [0] * n
        for q, col in zip(weights, columns):
            for i, x in col.items():
                out[i] += q * x
        return out

    lower = c.boundaries.get(k)
    if lower is None:
        free_gens = [chain([1], [w]) for w in basis[s:]]
    else:
        images = [[0] * n for _ in range(c.dim(k - 1))]
        for t, w in enumerate(basis):
            for j, q in w.items():
                for i, x in lower[j].items():
                    images[i][t] += q * x
        assert not any(any(row[:s]) for row in images)
        kernel = snf.int_kernel([row[s:] for row in images])
        free_gens = [chain(kv, basis[s:]) for kv in kernel]
    torsion_gens = [(f, chain([1], [basis[i]]))
                    for i, f in enumerate(factors) if f > 1]
    return free_gens, torsion_gens


def assert_matches_reference(c):
    for k in c.degrees():
        group = c.homology(k)
        free_gens, torsion_gens = reference_homology(c, k)
        assert group.free_rank == len(free_gens)
        assert group.torsion == [f for f, _ in torsion_gens]
        assert group.torsion_generators == [(f, sparsify(v))
                                            for f, v in torsion_gens]
        assert group.free_generators == list(map(sparsify, free_gens))


@settings(max_examples=80, deadline=None)
@given(integer_complexes())
def test_random_complexes_match_the_reference(c):
    assert_matches_reference(c)


@pytest.mark.parametrize("build", [
    projective_plane, klein_bottle_cw, torus_cw, rp2,
    lambda: rp2_wedge_mod3(3), lambda: rp2_wedge_mod3(12)],
    ids=["rp2-cw", "klein-bottle", "torus", "rp2", "rp2-wedge-3",
         "rp2-wedge-12"])
def test_known_complexes_match_the_reference(build):
    assert_matches_reference(build())


def test_generators_are_built_on_first_read_only(monkeypatch):
    built = _counting(monkeypatch, chains, "_int_generators")
    kernels = _counting(monkeypatch, snf, "int_kernel")
    group = torus_cw().homology(1)
    assert (group.rank, group.torsion, group.describe()) == (2, [], "Z^2")
    assert built == [] and kernels == []
    first = group.free_generators
    assert group.free_generators is first
    assert len(built) == 1 and len(kernels) == 1


@pytest.fixture(params=["square_hole", "polygon"])
def manifold(request):
    if request.param == "square_hole":
        return resolve_fixture("square_hole").manifold
    return polygon_with_holes((8, 4, 4), seed=3).manifold


def test_rank_readers_take_no_integer_kernel(manifold, monkeypatch):
    kernels = _counting(monkeypatch, snf, "int_kernel")
    corner = manifold.corner
    for selector in ("boundary", "space", "pair"):
        for q in range(manifold.n + 1):
            group = corner.homology(selector, q, ZZ)
            group.describe(), group.rank, group.torsion
    manifold.bigraded_table(ZZ)
    manifold.total_betti(ZZ)
    assert kernels == []


def test_each_boundary_is_smith_formed_once(monkeypatch):
    smiths = _counting(monkeypatch, snf, "smith_normal_form")
    c = rp2_wedge_mod3(3)
    for _ in range(2):
        for k in c.degrees():
            group = c.homology(k)
            group.describe(), group.torsion_generators
    boundaries = [boundary_matrix(c, k) for k in c.boundaries]
    assert sorted(map(repr, (args[0] for args in smiths))) == sorted(
        map(repr, boundaries))


def test_a_dropped_complex_is_freed_by_refcounting():
    """A group refers to no complex, so dropping the complex frees it
    and its groups without the cycle collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c = torus_cw()
        groups = [c.homology(k) for k in c.degrees()]
        assert [g.rank for g in groups] == [1, 2, 1]
        gens = groups[1].free_generators
        ref = weakref.ref(c)
        del c, groups
        assert ref() is None
        assert len(gens) == 2
    finally:
        if enabled:
            gc.enable()
