"""Characteristic matrices: one integer row of length n per vertex of a
rank-n simplicial poset.  The rows attached to the vertices of any maximal
cell must form an invertible matrix over the chosen coefficients; that is
what makes the associated quotient space a manifold.

``push`` carries chains over the rank-k elements along the axes: a chain
paired with an axis subset A of size n-k goes to the row whose g-entry is
chain[g] * c(g, A), with c the signed complementary minor.  Both kinds of
relation rows and the socle-placement vectors are such pushes, of
different chains, each a {position: value}.  The minors of a rank are
tabulated once on the matrix (``_minor_table``), each by cofactor
expansion over the table of the rank below, so no determinant is taken
and the expansion is the one place the sign of c is written.  The
rank-n table holds the top-cell determinants, which ``check_star``
reads, and ``c_coefficient`` is the validating reader of a single
entry, for the bordism search and the vertex-matrix inverses.
"""

from itertools import combinations

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
        The determinants are the rank-n minor table, as c(g, {}) = det,
        so each is computed once per matrix.  A pass over Z is kept, as
        +-1 is a unit in every field.
        Raises StarConditionError naming the first offending cell."""
        if self._unimodular:
            return True
        [dets] = self._minor_table(self.n).values()
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
        minors = self._minor_table(m)[tuple(sorted(axes))]
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

        Each chain is a {position: nonzero value} over the rank-k
        elements in ``poset.elements_of_rank(k)`` order, and gives one row
        per axis subset A of size n-k: {g: chain[g] * c(g, A) in
        ``coeffs``}, with no entry zero in ``coeffs`` (over GF(p) a
        nonzero minor can vanish).  A row's chain and axes are its
        position: the chains in order, and ``axis_subsets`` order within
        each.  The integers c(g, A) are read from the rank-k minor table
        (``_minor_table``), built once per k on the matrix.  Integral
        entries stay plain ints, so over Q integer chains give int rows.
        """
        table = self._minor_table(k).values()
        rows = []
        for chain in chains:
            support = [(g, plain(z)) for g, z in chain.items()]
            for minors in table:
                row = {}
                for g, z in support:
                    x = coeffs.mul(z, minors[g])
                    if not coeffs.is_zero(x):
                        row[g] = x
                rows.append(row)
        return rows

    def _minor_table(self, k):
        """{sorted A: [c(g, A) per g]} over the axis subsets A of size n-k
        in ``axis_subsets`` order and the rank-k elements g in
        ``elements_of_rank`` order, built once per k from the rank-(k-1)
        table by expanding along the row of the largest vertex w of g:

            c(g, A) = sum over t of (-1)^(a_t + t + 1) * row(w)[a_t]
                      * c(g - w, A + {a_t}),

        a_0 < a_1 < ... the axes outside A, t counted from 0, and g - w
        the face of g without w.  The expansion starts from c(bottom,
        {1..n}) = 1, and a vertex's face without it is the bottom, so
        rank 1 reads the rows alone."""
        table = self._minors.get(k)
        if table is None:
            elements = self.poset.elements_of_rank(k)
            self._positions[k] = {g: i for i, g in enumerate(elements)}
            axes_all = range(1, self.n + 1)
            if k == 0:
                table = {tuple(axes_all): [1]}
            else:
                below = self._minor_table(k - 1)
                if k == 1:
                    steps = [(0, self.rows[v]) for v in elements]
                else:
                    at, face, ver = (self._positions[k - 1], self.poset.face,
                                     self.poset.ver)
                    steps = []
                    for g in elements:
                        w = max(ver(g))
                        steps.append((at[face(g, ver(g) - {w})],
                                      self.rows[w]))
                table = {}
                for axes in self.axis_subsets(self.n - k):
                    values = [0] * len(steps)
                    outside = [a for a in axes_all if a not in axes]
                    for t, a in enumerate(outside):
                        sign = (-1) ** (a + t + 1)
                        minors = below[tuple(sorted(axes | {a}))]
                        values = [x + sign * row[a - 1] * minors[f]
                                  for x, (f, row) in zip(values, steps)]
                    table[tuple(sorted(axes))] = values
            self._minors[k] = table
        return table

    def __repr__(self):
        return "<CharacteristicMatrix n=%d on %d vertices>" % (
            self.n, len(self.rows))
