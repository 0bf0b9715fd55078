"""Integer matrix routines: Smith normal form with transform tracking,
integer kernels and solves, exact determinants (``int_det``, whose one
caller in the package tabulates the minors of the wall rows).

``smith_normal_form`` is one sparse elimination loop, the integer
counterpart of ``fields.Echelon``.  Its working rows are dicts
{column: value}, and a column index lists the rows with an entry in each
column, so a row or column step touches only nonzero entries.  The unit
pivots come first, with no search (Kaczynski, Mrozek and Ślusarek 1998;
Dumas, Heckenbach, Saunders and Welker 2003): the rows are visited
once, shortest first, and each takes the ±1 entry whose column is
shortest.  Its column is cleared by row steps, after which the column
holds only the pivot, so the column steps that clear its row touch that
row alone.  Only the block left when the units run out is scanned whole
for an entry of least magnitude and least fill-in; on boundary and
relation matrices it is usually empty.  A remainder left by the integer
quotients becomes the next pivot (Euclid's step); once a pivot's row and
column are clear it must divide every entry left, or a row holding an
offending entry is added to its row.  Pivot positions are recorded
rather than swapped into place, and the permutation is applied once at
the end.

The elimination changes only its working rows.  Each row step, column
step and pivot sign flip is appended to a step log, and the transforms
are replayed from that log when a caller first reads them: the rows of
U, the columns of V, and W = U^-1 by columns, each row step on U
mirrored by its inverse column step on W.  Each is a ``Transform``, a
sequence of sparse vectors built once on its first read, so a caller
that needs only the invariant factors (``invariant_factors``, homology
ranks) builds none of them, and no dense matrix is built.  The image of
m is spanned by d_1 w_1, d_2 w_2, ... over the columns w_i of W, and its
kernel by the columns of V past the rank.

Solving factors once: ``int_solve_all`` reads every right-hand side of
one matrix off a single Smith form, ``int_solve`` is its one-vector case,
and ``int_inverse`` takes the inverse and its existence from one form.

Matrices passed in, and those the other routines return, are lists of
row lists of Python ints.
"""

from collections.abc import Sequence
from itertools import compress


def int_mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if x:
                row_b = b[t]
                row_o = out[i]
                for j in range(m):
                    row_o[j] += x * row_b[j]
    return out


def int_det(m):
    """Determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m):
    """Decompose an integer matrix as U @ m @ V = D, D diagonal.

    Returns (factors, U, V, W) with W = U^-1: ``factors`` is the nonzero
    diagonal [d_1, ..., d_r] of D, positive with d_1 | d_2 | ...; U (by
    rows), V and W (by columns) are unimodular, each row or column a
    sparse {index: value} dict, in pivot order: the first r belong to
    d_1, ..., d_r, and the columns of V past r span the kernel of m.
    U, V and W are ``Transform`` sequences, built on their first read.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    a = [dict(zip(compress(range(ncols), row), compress(row, row)))
         for row in m]
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)
    log = []  # (kind, dst, src, q) per step, replayed by ``_replay``

    def add_row(dst, src, q):
        # row dst += q * row src
        row = a[dst]
        for j, x in a[src].items():
            y = row.get(j, 0) + q * x
            if y:
                row[j] = y
                cols[j].add(dst)
            else:
                del row[j]
                cols[j].discard(dst)
        log.append(("row", dst, src, q))

    def add_col(dst, src, q):
        # column dst += q * column src
        for i in cols[src]:
            row = a[i]
            y = row.get(dst, 0) + q * row[src]
            if y:
                row[dst] = y
                cols[dst].add(i)
            else:
                del row[dst]
                cols[dst].discard(i)
        log.append(("col", dst, src, q))

    pivots = []
    units = _units(a, cols)
    found = next(units, None) or _pivot(a, cols)
    while found is not None:
        r, c = found
        if a[r][c] < 0:
            row = a[r]
            for j in row:
                row[j] = -row[j]
            log.append(("neg", r, r, -1))
        p = a[r][c]
        for i in [i for i in cols[c] if i != r]:
            q = a[i][c] // p
            if q:
                add_row(i, r, -q)
        for j in [j for j in a[r] if j != c]:
            q = a[r][j] // p
            if q:
                add_col(j, c, -q)
        # a unit pivot divides exactly: its row and column are clear
        if p > 1:
            # Euclid step: a remainder left in the pivot's row or column
            # is smaller than p and becomes the pivot
            rest = [(abs(a[i][c]), i, c) for i in cols[c] if i != r]
            rest += [(abs(x), r, j) for j, x in a[r].items() if j != c]
            if rest:
                found = min(rest)[1:]
                continue
            # row and column are clear; p must divide every entry left
            offender = next((i for i, row in enumerate(a) if i != r
                             and any(x % p for x in row.values())), None)
            if offender is not None:
                add_row(r, offender, 1)
                continue
        pivots.append((r, c, p))
        cols[c].discard(r)
        a[r] = {}
        found = next(units, None) or _pivot(a, cols)

    row_order = _order([r for r, _, _ in pivots], nrows)
    col_order = _order([c for _, c, _ in pivots], ncols)
    return ([p for _, _, p in pivots], Transform("u", log, row_order),
            Transform("v", log, col_order), Transform("w", log, row_order))


class Transform(Sequence):
    """U, V or W of one Smith form: its sparse vectors in pivot order,
    replayed from the step log (``_replay``) on the first read of any of
    them and kept.  Its length is known without the replay."""

    def __init__(self, kind, log, order):
        self._replay_args = kind, log, order
        self._vectors = None
        self._len = len(order)

    def _built(self):
        if self._vectors is None:
            self._vectors = _replay(*self._replay_args)
            self._replay_args = None
        return self._vectors

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())


def _replay(kind, log, order):
    """The vectors of transform ``kind`` of a Smith form, from the
    identity through the logged steps: "u" takes each row step and sign
    flip on its rows, "w" the inverse of each on its columns, and "v"
    each column step on its columns.  Listed in ``order``."""
    vecs = [{i: 1} for i in range(len(order))]
    if kind == "v":
        for step, dst, src, q in log:
            if step == "col":
                _axpy(vecs[dst], vecs[src], q)
    else:
        inverse = kind == "w"
        for step, dst, src, q in log:
            if step == "row":
                if inverse:
                    _axpy(vecs[src], vecs[dst], -q)
                else:
                    _axpy(vecs[dst], vecs[src], q)
            elif step == "neg":
                vec = vecs[dst]
                for k in vec:
                    vec[k] = -vec[k]
    return [vecs[i] for i in order]


def _units(a, cols):
    """Unit pivot positions, taken as the elimination goes: the rows in
    order of their starting length, then index, each that still holds a
    ±1 entry when it is reached; of those entries the one whose column
    has fewest live entries, the lowest column on a tie."""
    lengths = list(map(len, a))
    for i in sorted(range(len(a)), key=lengths.__getitem__):
        best = None
        for j, x in a[i].items():
            if x == 1 or x == -1:
                key = len(cols[j]), j
                if best is None or key < best:
                    best = key
        if best:
            yield i, best[1]


def _pivot(a, cols):
    """Position of a live entry of least magnitude, and among those of
    least fill-in (other entries in its row x other entries in its
    column), the first such in row order, by a scan of every live entry.
    It runs only on the block the unit pivots leave, where a unit is
    born of a Euclid step or of fill-in.  None when every row is
    empty."""
    best = None
    for i, row in enumerate(a):
        others = len(row) - 1
        for j, x in row.items():
            mag = x if x > 0 else -x
            if best is not None and mag > best[0]:
                continue
            fill = others * (len(cols[j]) - 1)
            if best is None or (mag, fill) < best[:2]:
                best = (mag, fill, i, j)
    return best and best[2:]


def _axpy(dst, src, q):
    """dst += q * src for sparse vectors {index: value}."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _order(first, n):
    """``first`` followed by the rest of range(n) in order."""
    taken = set(first)
    return first + [k for k in range(n) if k not in taken]


def invariant_factors(m):
    """Nonzero diagonal of the Smith form: d_1 | d_2 | ... ."""
    return smith_normal_form(m)[0]


def int_kernel(m):
    """Basis of {x : m @ x = 0} over Z, as a list of column vectors: the
    columns of V past the rank.

    The basis spans a saturated sublattice: any integer solution is an
    integer combination of it.
    """
    if not m:
        return []
    factors, _, v, _ = smith_normal_form(m)
    return [[col.get(j, 0) for j in range(len(m[0]))]
            for col in v[len(factors):]]


def int_solve_all(m, bs):
    """Integer solutions x of m @ x = b for every b in ``bs``, each None
    when there is none, read off one Smith form U @ m @ V = D: with
    y = U @ b, x = V @ (y_t / d_t)_t when y is zero past the rank and d_t
    divides y_t.  U @ b goes through the columns of U at the nonzero
    entries of b only, which is cheap for sparse right-hand sides.
    """
    nrows = len(m)
    if any(len(b) != nrows for b in bs):
        raise ValueError("dimension mismatch")
    if not bs:
        return []
    ncols = len(m[0]) if m else 0
    factors, u, v, _ = smith_normal_form(m)
    u_cols = [{} for _ in range(nrows)]  # u_cols[j] is column j of U
    for t, row in enumerate(u):
        for j, x in row.items():
            u_cols[j][t] = x
    out = []
    for b in bs:
        y = {}
        for j, bj in enumerate(b):
            if bj:
                _axpy(y, u_cols[j], bj)
        if any(t >= len(factors) or yt % factors[t] for t, yt in y.items()):
            out.append(None)
            continue
        x = {}
        for t, yt in y.items():
            _axpy(x, v[t], yt // factors[t])
        out.append([x.get(i, 0) for i in range(ncols)])
    return out


def int_solve(m, b):
    """One integer solution x of m @ x = b, or None when there is none."""
    return int_solve_all(m, [b])[0]


def int_inverse(m):
    """Inverse of a unimodular integer matrix: with U @ m @ V = D from one
    Smith form, m is unimodular exactly when D = I, and then the inverse
    is V @ U."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    factors, u, v, _ = smith_normal_form(m)
    bad = [f for f in factors if f != 1] + [0] * (n - len(factors))
    if bad:
        raise ValueError("matrix is not unimodular (invariant factors %s "
                         "are not 1)" % ", ".join(map(str, bad)))
    out = [[0] * n for _ in range(n)]
    for col, row in zip(v, u):
        for i, x in col.items():
            target = out[i]
            for j, y in row.items():
                target[j] += x * y
    return out
