"""Characteristic matrices: one integer row of length n per vertex of a
rank-n simplicial poset.  The rows attached to the vertices of any maximal
cell must form an invertible matrix over the chosen coefficients; that is
what makes the associated quotient space a manifold.

``push`` carries chains over the rank-k elements along the axes: a chain
paired with an axis subset A of size n-k goes to the row whose g-entry is
chain[g] * c(g, A), with c the signed complementary minor.  Both kinds of
relation rows and the socle-placement vectors are such pushes, of
different chains, each a {position: value}.  The minors of a rank are
tabulated once on the matrix (``_minor_table``), the one place the sign
of c is written; the rank-n table holds the top-cell determinants, which
``check_star`` reads, and ``c_coefficient`` is the validating reader of
a single entry, for the bordism search and the vertex-matrix inverses.
"""

from itertools import combinations

from . import snf
from .errors import StarConditionError, ValidationError
from .fields import ZZ, is_int, plain


class CharacteristicMatrix:
    def __init__(self, poset, rows):
        self.poset = poset
        self.n = poset.top_rank
        self.rows = {}
        self._minors = {}  # k -> ``_minor_table(k)``
        self._positions = {}  # k -> {rank-k element: its table column}
        self._unimodular = False  # set once check_star(ZZ) passes
        for v in poset.vertices():
            if v not in rows:
                raise ValidationError("no row for vertex %r" % (v,))
            row = rows[v]
            if (not isinstance(row, (list, tuple))
                    or not all(is_int(x) for x in row)):
                raise ValidationError(
                    "row for vertex %r must be a list of integers, got %r"
                    % (v, row))
            row = tuple(row)
            if len(row) != self.n:
                raise ValidationError(
                    "row for vertex %r has length %d, expected %d"
                    % (v, len(row), self.n))
            self.rows[v] = row
        extra = set(rows) - set(self.rows)
        if extra:
            raise ValidationError("rows for unknown vertices %r" % (sorted(extra, key=repr),))
        if not poset.is_pure():
            raise ValidationError(
                "characteristic data needs a pure poset")

    def row(self, v):
        return self.rows[v]

    def check_star(self, coeffs=ZZ):
        """Verify that every maximal cell carries an invertible vertex
        matrix: determinant +-1 over Z, nonzero over a field.  Cells of
        lower rank inherit the property, so only maximal ones are checked.
        The determinants are the rank-n minor table, as c(g, {}) = det
        (its sign exponent n(n+1) is even), so each is computed once per
        matrix.  A pass over Z is kept, as +-1 is a unit in every field.
        Raises StarConditionError naming the first offending cell."""
        if self._unimodular:
            return True
        [(_, dets)] = self._minor_table(self.n)
        for top, det in zip(self.poset.elements_of_rank(self.n), dets):
            if coeffs is ZZ:
                bad = det not in (1, -1)
            else:
                bad = coeffs.is_zero(coeffs.from_int(det))
            if bad:
                raise StarConditionError(
                    "cell %r has vertex matrix determinant %d, not invertible "
                    "over %r" % (top, det, coeffs))
        self._unimodular = coeffs is ZZ
        return True

    def c_coefficient(self, element, axes):
        """Signed complementary minor c(element, axes), read from the minor
        table of the element's rank (``_minor_table``) once the arguments
        are checked.

        ``axes`` is a subset of {1..n} with |axes| = n - rank(element); the
        minor uses the columns outside ``axes`` and the vertices of the
        element in increasing order.
        """
        m = self.poset.rank(element)
        axes = frozenset(axes)
        if not axes <= set(range(1, self.n + 1)):
            raise ValidationError("axes %r are not inside 1..%d"
                                  % (sorted(axes), self.n))
        if len(axes) != self.n - m:
            raise ValidationError(
                "element of rank %d needs %d axes, got %d"
                % (m, self.n - m, len(axes)))
        minors = dict(self._minor_table(m))[tuple(sorted(axes))]
        return minors[self._positions[m][element]]

    def theta(self, j):
        """Coefficients of the j-th linear parameter: vertex -> its j-th
        row entry (zeros dropped)."""
        if not 1 <= j <= self.n:
            raise ValidationError("column index %d out of range" % j)
        return {v: self.rows[v][j - 1] for v in self.poset.vertices()
                if self.rows[v][j - 1]}

    def axis_subsets(self, size):
        """All subsets of {1..n} of the given size, sorted."""
        return [frozenset(c) for c in combinations(range(1, self.n + 1), size)]

    def push(self, k, chains, coeffs=ZZ):
        """Rows of ``chains`` pushed along the axes.

        ``chains`` holds (label, chain) pairs, each chain a {position:
        nonzero value} over the rank-k elements in
        ``poset.elements_of_rank(k)`` order.  Each chain gives one row per
        axis subset A of size n-k, in ``axis_subsets`` order: {g:
        chain[g] * c(g, A) in ``coeffs``}, with no entry zero in
        ``coeffs`` (over GF(p) a nonzero minor can vanish), labelled
        (label, sorted A).  The integers c(g, A) are read from the rank-k
        minor table (``_minor_table``), built once per k on the matrix.
        Integral entries stay plain ints, so over Q integer chains give
        int rows.  Returns the rows and labels.
        """
        table = self._minor_table(k)
        rows, labels = [], []
        for label, chain in chains:
            support = [(g, plain(z)) for g, z in chain.items()]
            for axes, minors in table:
                row = {}
                for g, z in support:
                    x = coeffs.mul(z, minors[g])
                    if not coeffs.is_zero(x):
                        row[g] = x
                rows.append(row)
                labels.append((label, axes))
        return rows, labels

    def _minor_table(self, k):
        """[(sorted A, [c(g, A) per g])] over the axis subsets A of size
        n-k in ``axis_subsets`` order and the rank-k elements g in
        ``elements_of_rank`` order, built once per k: one sign per A, and
        one determinant per (g, kept columns) (``_cell_minors``)."""
        table = self._minors.get(k)
        if table is None:
            elements = self.poset.elements_of_rank(k)
            self._positions[k] = {g: i for i, g in enumerate(elements)}
            subsets = [tuple(sorted(axes))
                       for axes in self.axis_subsets(self.n - k)]
            kept_sets = [[j for j in range(self.n) if j + 1 not in axes]
                         for axes in subsets]
            # the exponent is k(k+1)/2 + the sum of the kept columns,
            # counted from 1
            signs = [(-1) ** (k * (k + 3) // 2 + sum(kept))
                     for kept in kept_sets]
            dets = self._cell_minors(elements, kept_sets)
            table = self._minors[k] = [
                (axes, [sign * d for d in minors])
                for axes, sign, minors in zip(subsets, signs, dets)]
        return table

    def _cell_minors(self, elements, kept_sets):
        """Per set of kept columns (counted from 0), the determinant of
        each element's vertex rows, in sorted vertex order, on those
        columns.  Each vertex row is cut to the kept columns once per set;
        at the top rank, which ``check_star`` reads at load, every column
        is kept and the rows are used whole."""
        cells = [sorted(self.poset.ver(g)) for g in elements]
        out = []
        for kept in kept_sets:
            cut = self.rows if len(kept) == self.n else {
                v: [row[j] for j in kept] for v, row in self.rows.items()}
            out.append([snf.int_det([cut[v] for v in cell])
                        for cell in cells])
        return out

    def __repr__(self):
        return "<CharacteristicMatrix n=%d on %d vertices>" % (
            self.n, len(self.rows))
