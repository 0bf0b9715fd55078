"""The sparse Smith normal form against the dense elimination it replaced,
and against sympy.

``DenseSmithReference`` is the dense loop that ``snf.smith_normal_form``
used before its rows were kept sparse: it rescans the whole working block
for the entry of least magnitude and swaps it into place.  It lives here
only as the reference.  Every comparison checks the whole contract of the
sparse form, made dense by ``conftest.dense_smith``: U @ m @ V = D, W @ U = U @ W = I, |det U| = |det V| = 1,
d_1 | d_2 | ..., and the same diagonal as the reference and as sympy's
invariant factors.

The sparse form takes its unit pivots by a sweep over the rows and
scans the whole matrix (``snf._pivot``) only for what the sweep leaves.
Matrices that mix units with larger entries reach that scan; the
torsion-free boundary matrices of ``TestUnitSweep`` never do.
"""

from contextlib import contextmanager
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy import ZZ as SYMPY_ZZ
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from conftest import (assert_sparse_cycle, boundary_matrix,
                      build_cross_polytope, dense_complex, dense_smith,
                      densify, int_identity, int_mat_mul)
from torushom import snf
from torushom.chains import ChainComplex
from torushom.fields import ZZ
from torushom.fixtures import resolve_fixture
from torushom.generator import polygon_with_holes


class DenseSmithReference:
    """U @ m @ V = D by dense elimination, with W = U^-1 kept alongside;
    the result is in ``u``, ``d``, ``v`` and ``w``."""

    def __init__(self, m):
        nrows = len(m)
        ncols = len(m[0]) if m else 0
        a = [list(row) for row in m]
        u = int_identity(nrows)
        v = int_identity(ncols)
        wt = int_identity(nrows)  # wt[i] is column i of W

        def swap_rows(i, j):
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]
            wt[i], wt[j] = wt[j], wt[i]

        def swap_cols(i, j):
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

        def add_row(dst, src, q):
            a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
            wt[src] = [x - q * y for x, y in zip(wt[src], wt[dst])]

        def add_col(dst, src, q):
            for row in a:
                row[dst] += q * row[src]
            for row in v:
                row[dst] += q * row[src]

        def negate_row(i):
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
            wt[i] = [-x for x in wt[i]]

        t = 0
        while t < min(nrows, ncols):
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    x = a[i][j]
                    if x and (best is None
                              or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            if a[t][t] < 0:
                negate_row(t)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // pivot))
                    dirty = dirty or bool(a[i][t])
            for j in range(t + 1, ncols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // pivot))
                    dirty = dirty or bool(a[t][j])
            if dirty:
                continue
            offender = next((i for i in range(t + 1, nrows)
                             if any(a[i][j] % pivot
                                    for j in range(t + 1, ncols))), None)
            if offender is not None:
                add_row(t, offender, 1)
                continue
            t += 1
        self.u, self.d, self.v = u, a, v
        self.w = [list(row) for row in zip(*wt)]


def sympy_factors(m):
    """Nonzero invariant factors of m by sympy, positive."""
    if not m or not m[0]:
        return []
    return [abs(int(f)) for f in invariant_factors(Matrix(m), domain=SYMPY_ZZ)
            if f]


def nonzero_diagonal(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))
            if d[i][i]]


def assert_smith_contract(m, result):
    """Checks the sparse Smith form ``result`` of m through its dense
    (U, D, V, W), and returns its invariant factors."""
    factors = result[0]
    u, d, v, w = dense_smith(result)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    assert [len(row) for row in u] == [nrows] * nrows
    assert [len(row) for row in w] == [nrows] * nrows
    assert [len(row) for row in v] == [ncols] * ncols
    assert [len(row) for row in d] == [ncols] * nrows
    assert int_mat_mul(int_mat_mul(u, m), v) == d
    identity = int_identity(nrows)
    assert int_mat_mul(w, u) == identity == int_mat_mul(u, w)
    assert abs(Matrix(u).det()) == 1
    assert abs(Matrix(v).det()) == 1
    diag = [d[i][i] for i in range(min(nrows, ncols))]
    assert all(d[i][j] == 0 for i in range(nrows) for j in range(ncols)
               if i != j)
    assert factors == nonzero_diagonal(d)
    assert diag == factors + [0] * (len(diag) - len(factors))
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    reference = DenseSmithReference(m)
    assert factors == nonzero_diagonal(reference.d)
    assert factors == sympy_factors(m)
    return factors


@st.composite
def small_matrices(draw):
    """0..8 x 0..8 matrices with entries in -9..9; some rows and columns
    are zeroed, so zero rows and columns turn up often."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    m = [draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
         for _ in range(nrows)]
    zeroed = st.lists(st.sampled_from([False, False, False, True]))
    for i, gone in enumerate(draw(zeroed)[:nrows]):
        if gone:
            m[i] = [0] * ncols
    for j, gone in enumerate(draw(zeroed)[:ncols]):
        if gone:
            for row in m:
                row[j] = 0
    return m


@st.composite
def boundary_matrices(draw):
    """Sparse matrices shaped like cellular boundaries: up to 24 x 24,
    every column with at most three entries, each +1 or -1."""
    nrows = draw(st.integers(1, 24))
    ncols = draw(st.integers(1, 24))
    m = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        rows = draw(st.sets(st.integers(0, nrows - 1),
                            max_size=min(3, nrows)))
        for i in sorted(rows):
            m[i][j] = draw(st.sampled_from([1, -1]))
    return m


@st.composite
def unit_and_residual_matrices(draw):
    """A block of up to 7 x 7 with entries in {0, ±1, ±2, ±3, 4} beside a
    diagonal block of one or two entries in {±2, ±3, 4}, the rows and
    columns shuffled.  The diagonal block shares no row or column with the
    rest and holds no unit, so the unit sweep never reaches it and the
    whole-matrix scan always has a residual to take."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3, 4])
    block = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
             for _ in range(nrows)]
    diagonal = draw(st.lists(st.sampled_from([2, -2, 3, -3, 4]),
                             min_size=1, max_size=2))
    m = [row + [0] * len(diagonal) for row in block]
    m += [[0] * ncols + [x if j == i else 0 for j in range(len(diagonal))]
          for i, x in enumerate(diagonal)]
    row_order = draw(st.permutations(range(len(m))))
    col_order = draw(st.permutations(range(len(m[0]))))
    return [[m[i][j] for j in col_order] for i in row_order]


@contextmanager
def scan_choices():
    """The positions the whole-matrix scan ``snf._pivot`` picks while the
    block runs, listed as they come; a scan that finds nothing adds none."""
    scan = snf._pivot
    chosen = []

    def recording(a, cols):
        found = scan(a, cols)
        if found is not None:
            chosen.append(found)
        return found

    snf._pivot = recording
    try:
        yield chosen
    finally:
        snf._pivot = scan


@st.composite
def block_matrices(draw):
    """[[B, X], [0, P]] with each block up to 4 x 4 and entries in {0, ±1,
    ±2, 3, 6}, as (matrix, rows of B, columns of B): B has non-unit
    pivots and the whole has torsion often."""
    nb, cb = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    np_, cx = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.sampled_from([0, 0, 1, -1, 2, -2, 3, 6])
    m = [draw(st.lists(entries, min_size=cb + cx, max_size=cb + cx))
         for _ in range(nb)]
    m += [[0] * cb + draw(st.lists(entries, min_size=cx, max_size=cx))
          for _ in range(np_)]
    return m, nb, cb


def block_complexes(m, nb, cb):
    """The complex whose only boundary d_1 is m, built on the subcomplex
    of its first nb rows and cb columns, and the same complex built
    alone, as (resumed, fresh)."""
    rows = ["r%d" % i for i in range(len(m))]
    cols = ["c%d" % j for j in range(len(m[0]) if m else 0)]
    terms = {c: [(r, row[j]) for r, row in zip(rows, m) if row[j]]
             for j, c in enumerate(cols)}
    base = ChainComplex({0: rows[:nb], 1: cols[:cb]}, terms.get)
    return (ChainComplex({0: rows, 1: cols}, terms.get, base),
            ChainComplex({0: rows, 1: cols}, terms.get))


class TestResumedForms:
    """A complex built on a subcomplex resumes its Smith form: the base's
    unit pivots are kept and only the residual is eliminated."""

    @settings(deadline=None, max_examples=300)
    @given(block_matrices())
    # a non-unit pivot of B with an entry of X in its row
    @example(([[2, 1], [0, 3]], 1, 1))
    # units of B clear X's entries in their rows; P holds torsion
    @example(([[1, 0, 2, 1], [0, 1, 1, 1], [0, 0, 2, 0]], 2, 2))
    def test_resumed_form_is_a_smith_form(self, block):
        """The factors are sympy's and those of a fresh form, W is
        unimodular, and {d_i w_i} spans the lattice of the columns."""
        m, nb, cb = block
        resumed, fresh = block_complexes(m, nb, cb)
        factors, w, _, _ = resumed._smith(1)
        assert factors == fresh._smith(1)[0] == sympy_factors(m)
        n = len(m)
        dense_w = [[w[t].get(i, 0) for t in range(n)] for i in range(n)]
        assert abs(Matrix(dense_w).det()) == 1
        images = [[f * w[t].get(i, 0) for t, f in enumerate(factors)]
                  for i in range(n)]
        columns = [list(c) for c in zip(*m)]
        if factors:
            assert all(snf.int_solve(images, c) is not None
                       for c in columns)
            assert all(snf.int_solve(m, list(c)) is not None
                       for c in zip(*images))
        else:
            assert not any(map(any, columns))


class TestAgainstDenseReference:
    @settings(deadline=None, max_examples=200)
    @given(small_matrices())
    def test_small_matrices(self, m):
        assert_smith_contract(m, snf.smith_normal_form(m))

    @settings(deadline=None, max_examples=100)
    @given(boundary_matrices())
    def test_boundary_shaped_matrices(self, m):
        assert_smith_contract(m, snf.smith_normal_form(m))

    @pytest.mark.parametrize("m", [[], [[]], [[], [], []],
                                   [[0, 0, 0]], [[0], [0]]])
    def test_empty_and_zero_shapes(self, m):
        assert assert_smith_contract(m, snf.smith_normal_form(m)) == []

    @pytest.mark.parametrize("m,factors", [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[4, 0], [0, 6]], [2, 12]),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 2, 6]),
        # two unit pivots leave -2, 3 and 4 to the scan
        ([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 3, 0], [0, 1, 0, 4]],
         [1, 1, 1, 24]),
    ])
    def test_divisibility_fixup(self, m, factors):
        assert assert_smith_contract(m, snf.smith_normal_form(m)) == factors

    @settings(deadline=None, max_examples=150)
    @given(unit_and_residual_matrices())
    # after its two unit pivots the sweep leaves diag(-2, 3), which the
    # divisibility fix-up turns into the factors 1, 6
    @example([[1, 1, 0], [1, -1, 0], [0, 0, 3]])
    def test_units_then_a_residual(self, m):
        with scan_choices() as chosen:
            result = snf.smith_normal_form(m)
        assert chosen
        assert_smith_contract(m, result)

    def test_polygon_boundaries(self):
        corner = polygon_with_holes((6, 4, 3), seed=3).manifold.corner
        seen = 0
        for selector in ("boundary", "space", "pair"):
            cx = corner.complex_for(selector)
            for k in cx.boundaries:
                mat = boundary_matrix(cx, k)
                assert_smith_contract(mat, snf.smith_normal_form(mat))
                seen += 1
        assert seen >= 4


@contextmanager
def replays():
    """The transforms replayed from a step log while the block runs, by
    kind ("u", "v" or "w"), listed as they are built."""
    replay = snf._replay
    built = []

    def recording(kind, log, order):
        built.append(kind)
        return replay(kind, log, order)

    snf._replay = recording
    try:
        yield built
    finally:
        snf._replay = replay


SELECTORS = ("boundary", "space", "pair")


class TestReplayOnDemand:
    """U, V and W are replayed from the step log when first read, each
    once; reading only factors or ranks builds none of them."""

    def test_factors_and_ranks_build_no_transform(self):
        complexes = resolve_fixture("square_hole").manifold.corner
        seen = 0
        with replays() as built:
            for selector in SELECTORS:
                cx = complexes.complex_for(selector)
                for k in cx.boundaries:
                    snf.invariant_factors(boundary_matrix(cx, k))
                for k in cx.degrees():
                    cx.homology(k, ZZ).describe()
                    seen += 1
        assert seen >= 6
        assert built == []

    def test_torsion_generators_on_first_read(self):
        """On the projective plane H_1 = Z/2 is described from the factors
        alone; its generator replays W of the second boundary once."""
        c = rp2()
        with replays() as built:
            assert [c.homology(k).describe() for k in range(3)] == [
                "Z", "Z/2", "0"]
            assert built == []
            group = c.homology(1)
            [(order, _)] = group.torsion_generators
            assert group.torsion_generators is group.torsion_generators
        assert order == 2
        assert built == ["w"]

    @settings(deadline=None, max_examples=100)
    @given(small_matrices(), st.permutations(["u", "v", "w"]),
           st.integers(0, 3))
    # W read before U
    @example([[2, 4], [6, 8]], ["w", "u", "v"], 2)
    # V alone
    @example([[1, 2, 3], [4, 5, 6]], ["v", "u", "w"], 1)
    def test_any_read_order(self, m, order, reads):
        """Reading the first ``reads`` transforms of ``order`` replays
        exactly those, once each, whatever the order; the contract then
        holds with the rest replayed as they are read."""
        result = snf.smith_normal_form(m)
        position = {"u": 1, "v": 2, "w": 3}
        with replays() as built:
            for kind in order[:reads]:
                for _ in range(2):
                    list(result[position[kind]])
            assert built == order[:reads]
            assert_smith_contract(m, result)
        assert sorted(built) == ["u", "v", "w"]
        assert built[:reads] == order[:reads]

    def test_length_needs_no_replay(self):
        with replays() as built:
            _, u, v, w = snf.smith_normal_form([[1, 2, 3], [4, 5, 6]])
            assert (len(u), len(v), len(w)) == (2, 3, 2)
        assert built == []

SWEPT = {
    "square_hole": lambda: [
        resolve_fixture("square_hole").manifold.corner.complex_for(selector)
        for selector in SELECTORS],
    "polygon_6_4_3": lambda: [
        polygon_with_holes((6, 4, 3), seed=3).manifold.corner.complex_for(
            selector) for selector in SELECTORS],
    "cross5": lambda: [build_cross_polytope(5)[0].simplex_chain_complex()],
}


class TestUnitSweep:
    """Torsion-free boundary matrices are eliminated by the unit sweep
    alone: the whole-matrix scan, which cost a pass over every live
    entry per pivot, selects nothing."""

    @pytest.mark.parametrize("name", sorted(SWEPT))
    def test_boundaries_need_no_scan(self, name):
        seen = 0
        for cx in SWEPT[name]():
            for k in cx.boundaries:
                mat = boundary_matrix(cx, k)
                with scan_choices() as chosen:
                    factors = snf.invariant_factors(mat)
                assert chosen == []
                assert factors == [1] * len(factors)
                seen += 1
        assert seen >= 3

    def test_seven_cross_polytope(self):
        """The boundary of the 7-dimensional cross-polytope, a 6-sphere
        with 2,186 faces: reduced integral homology 0, ..., 0, Z, read off
        seven Smith forms, the largest 560 x 672, with no scan."""
        cx = build_cross_polytope(7)[0].simplex_chain_complex()
        with scan_choices() as chosen:
            groups = [cx.homology(k, ZZ).describe() for k in range(-1, 7)]
        assert groups == ["0"] * 7 + ["Z"]
        assert chosen == []


# --- torsion that outlives the unit pivots ------------------------------

# The six-vertex triangulation of the real projective plane.
RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


def cw_complex(edges, faces):
    """A 2-complex from oriented edges (tail, head) and faces given as
    {edge index: coefficient}; ChainComplex checks that the boundary
    squares to zero."""
    vertices = sorted({x for edge in edges for x in edge}, key=str)
    index = {x: i for i, x in enumerate(vertices)}
    d1 = [[0] * len(edges) for _ in vertices]
    for j, (tail, head) in enumerate(edges):
        d1[index[tail]][j] -= 1
        d1[index[head]][j] += 1
    d2 = [[face.get(i, 0) for face in faces] for i in range(len(edges))]
    return dense_complex({0: ["v%s" % x for x in vertices],
                          1: ["e%d" % j for j in range(len(edges))],
                          2: ["f%d" % j for j in range(len(faces))]},
                         {1: d1, 2: d2})


def rp2_cells():
    edges = sorted({pair for a, b, c in RP2_TRIANGLES
                    for pair in ((a, b), (a, c), (b, c))})
    index = {edge: i for i, edge in enumerate(edges)}
    faces = [{index[(b, c)]: 1, index[(a, c)]: -1, index[(a, b)]: 1}
             for a, b, c in RP2_TRIANGLES]
    return edges, faces


def rp2():
    return cw_complex(*rp2_cells())


def rp2_wedge_mod3(k):
    """RP^2 wedged at vertex 1 with a circle of k edges that bounds a
    2-cell three times: H_1 = Z/2 + Z/3 = Z/6, and the Smith form of the
    second boundary needs the divisibility fix-up after its unit pivots."""
    edges, faces = rp2_cells()
    loop = [1] + ["c%d" % i for i in range(1, k)] + [1]
    first = len(edges)
    edges = edges + list(zip(loop, loop[1:]))
    faces = faces + [{first + i: 3 for i in range(k)}]
    return cw_complex(edges, faces)


def _sympy_diagonal(mat):
    if not mat or not mat[0]:
        return [], None
    d, s, _ = smith_normal_decomp(Matrix(mat), domain=SYMPY_ZZ)
    return [abs(int(d[i, i])) for i in range(min(d.rows, d.cols))], s


def _is_boundary(mat, vec):
    diag, s = _sympy_diagonal(mat)
    if s is None:
        return not any(vec)
    y = s * Matrix(vec)
    return all((yi % diag[i] if i < len(diag) and diag[i] else yi) == 0
               for i, yi in enumerate(y))


def boundary_order(mat, vec):
    """The least t >= 1 with t * vec an integer combination of the
    columns of ``mat``, None when there is none, read off sympy's Smith
    form S @ mat @ T = D: each entry y_i of S @ vec needs d_i | t y_i."""
    diag, s = _sympy_diagonal(mat)
    if s is None:
        return None if any(vec) else 1
    order = 1
    for i, yi in enumerate(s * Matrix(vec)):
        di = diag[i] if i < len(diag) else 0
        if di:
            order = lcm(order, di // gcd(int(yi), di))
        elif yi:
            return None
    return order


def assert_group_matches_sympy(c, k):
    group = c.homology(k)
    lower, upper = boundary_matrix(c, k), boundary_matrix(c, k + 1)
    lower_rank = sum(1 for x in _sympy_diagonal(lower)[0] if x)
    upper_diag = [x for x in _sympy_diagonal(upper)[0] if x]
    assert group.free_rank == len(c.basis(k)) - lower_rank - len(upper_diag)
    assert group.torsion == [x for x in upper_diag if x > 1]
    for gen in group.free_generators:
        assert_sparse_cycle(c, k, gen)
    for order, gen in group.torsion_generators:
        assert_sparse_cycle(c, k, gen)
        dense = densify(gen, c.dim(k))
        assert _is_boundary(upper, [order * x for x in dense])
        assert not _is_boundary(upper, dense)
        assert boundary_order(upper, dense) == order
    return group


class TestTorsionAtSize:
    def test_projective_plane(self):
        c = rp2()
        groups = [assert_group_matches_sympy(c, k) for k in range(3)]
        assert [g.describe() for g in groups] == ["Z", "Z/2", "0"]
        assert snf.invariant_factors(boundary_matrix(c, 2)) == [1] * 9 + [2]

    @pytest.mark.parametrize("k", [3, 12, 40])
    def test_wedge_with_mod_three_moore_space(self, k):
        c = rp2_wedge_mod3(k)
        groups = [assert_group_matches_sympy(c, q) for q in range(3)]
        assert [(g.free_rank, g.torsion) for g in groups] == [
            (1, []), (0, [6]), (0, [])]
        bdry = boundary_matrix(c, 2)
        factors = assert_smith_contract(bdry, snf.smith_normal_form(bdry))
        assert factors == [1] * 10 + [6]
