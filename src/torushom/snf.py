"""Integer matrix routines: Smith normal form with transform tracking,
integer kernels and solves, exact determinants.

``smith_normal_form`` also keeps W = U^-1, mirroring each row operation
on U by its inverse column operation on W: the image of m is spanned by
d_1 w_1, d_2 w_2, ... over the columns w_i of W.

Solving factors once: ``int_solve_all`` reads every right-hand side of
one matrix off a single Smith form, ``int_solve`` is its one-vector case,
and ``int_inverse`` takes the inverse and its existence from one form.

All matrices are lists of row lists of Python ints.
"""


def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def int_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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
    """Decompose an integer matrix as U @ m @ V = D.

    U and V are unimodular; D is diagonal with nonnegative entries
    d_1 | d_2 | ... .  Returns (U, D, V, W) with W = U^-1.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    a = [list(row) for row in m]
    u = int_identity(nrows)
    v = int_identity(ncols)
    # W kept by columns: wt[i] is column i of W
    wt = int_identity(nrows)

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
        # row[dst] += q * row[src]
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
    bound = min(nrows, ncols)
    while t < bound:
        # locate the nonzero entry of least magnitude in the working block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if a[t][t] < 0:
            negate_row(t)
        pivot = a[t][t]

        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                add_row(i, t, -(a[i][t] // pivot))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                add_col(j, t, -(a[t][j] // pivot))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue

        # row and column are clear; enforce divisibility of the tail block
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    return u, a, v, [list(row) for row in zip(*wt)]


def diagonal_entries(d):
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


def invariant_factors(m):
    """Nonzero diagonal of the Smith form: d_1 | d_2 | ... ."""
    return diagonal_entries(smith_normal_form(m)[1])


def int_kernel(m):
    """Basis of {x : m @ x = 0} over Z, as a list of column vectors.

    The basis spans a saturated sublattice: any integer solution is an
    integer combination of it.
    """
    ncols = len(m[0]) if m else 0
    if not m:
        return [[0] * 0 for _ in range(0)]
    _, d, v, _ = smith_normal_form(m)
    r = len(diagonal_entries(d))
    basis = []
    for j in range(r, ncols):
        basis.append([v[i][j] for i in range(ncols)])
    return basis


def int_solve_all(m, bs):
    """Integer solutions x of m @ x = b for every b in ``bs``, each None
    when there is none, read off one Smith form U @ m @ V = D.

    U @ b is accumulated over the nonzero entries of b only, which keeps
    the per-vector cost low for sparse right-hand sides such as boundary
    columns.
    """
    nrows = len(m)
    if any(len(b) != nrows for b in bs):
        raise ValueError("dimension mismatch")
    if not bs:
        return []
    ncols = len(m[0]) if m else 0
    u, d, v, _ = smith_normal_form(m)
    diag = [d[i][i] if i < ncols else 0 for i in range(nrows)]
    u_cols = list(zip(*u))
    out = []
    for b in bs:
        y = [0] * nrows
        for j, bj in enumerate(b):
            if bj:
                for i, x in enumerate(u_cols[j]):
                    if x:
                        y[i] += x * bj
        out.append(_solve_diagonal(diag, y, v))
    return out


def _solve_diagonal(diag, y, v):
    """V @ x' for the integer x' with D @ x' = y, or None when there is
    none; ``diag`` is the diagonal of D, padded with zeros to len(y)."""
    x_prime = []
    for i, (yi, di) in enumerate(zip(y, diag)):
        if di:
            q, rest = divmod(yi, di)
            if rest:
                return None
            if q:
                x_prime.append((i, q))
        elif yi:
            return None
    return [sum(row[i] * q for i, q in x_prime) for row in v]


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
    u, d, v, _ = smith_normal_form(m)
    bad = [d[i][i] for i in range(n) if d[i][i] != 1]
    if bad:
        raise ValueError("matrix is not unimodular (invariant factors %s "
                         "are not 1)" % ", ".join(map(str, bad)))
    return int_mat_mul(v, u)
