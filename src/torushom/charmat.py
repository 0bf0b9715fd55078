"""Characteristic matrices: one integer row of length n per vertex of a
rank-n simplicial poset.  The rows attached to the vertices of any maximal
cell must form an invertible matrix over the chosen coefficients; that is
what makes the associated quotient space a manifold.

``push`` carries chains over the rank-k elements along the axes: a chain
paired with an axis subset A of size n-k goes to the row whose g-entry is
chain[g] * c(g, A), with c the signed complementary minor
(``c_coefficient``).  Both kinds of relation rows and the socle-placement
vectors are such pushes, of different chains.
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
        self._minors = {}  # k -> [(sorted axes, [c(g, axes) per g])]
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

    def minor(self, element):
        """The rows of the vertices of an element, in sorted vertex order:
        a square matrix on a maximal cell."""
        return [list(self.rows[v]) for v in sorted(self.poset.ver(element))]

    def check_star(self, coeffs=ZZ):
        """Verify that every maximal cell carries an invertible vertex
        matrix: determinant +-1 over Z, nonzero over a field.  Cells of
        lower rank inherit the property, so only maximal ones are checked.
        A pass over Z is kept, as +-1 is a unit in every field.  Raises
        StarConditionError naming the first offending cell."""
        if self._unimodular:
            return True
        for top in self.poset.elements_of_rank(self.n):
            det = snf.int_det(self.minor(top))
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
        """Signed complementary minor of an element.

        ``axes`` is a subset of {1..n} with |axes| = n - rank(element); the
        minor uses the columns outside ``axes`` and the vertices of the
        element in increasing order.  The sign alternates with the sum of
        the retained column indices.
        """
        verts = sorted(self.poset.ver(element))
        m = len(verts)
        axes = frozenset(axes)
        if not axes <= set(range(1, self.n + 1)):
            raise ValidationError("axes %r are not inside 1..%d"
                                  % (sorted(axes), self.n))
        if len(axes) != self.n - m:
            raise ValidationError(
                "element of rank %d needs %d axes, got %d"
                % (m, self.n - m, len(axes)))
        kept = [j for j in range(1, self.n + 1) if j not in axes]
        det = snf.int_det([[self.rows[v][j - 1] for j in kept] for v in verts])
        exponent = m * (m + 1) // 2 + sum(kept)
        return (-1) ** exponent * det

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

        ``chains`` holds (label, vector) pairs, each vector running over
        the rank-k elements in ``poset.elements_of_rank(k)`` order.  Each
        chain gives one row per axis subset A of size n-k, in
        ``axis_subsets`` order, whose g-entry is chain[g] * c(g, A) in
        ``coeffs``; its label is (label, sorted A).  Only nonzero chain
        entries are visited, and the integers c(g, A) are kept per k on
        the matrix, which does not change.  Integral entries stay plain
        ints, so over Q integer chains give int rows.  Returns the rows
        and labels.
        """
        if k not in self._minors:
            gens = self.poset.elements_of_rank(k)
            self._minors[k] = [(tuple(sorted(axes)),
                                [self.c_coefficient(g, axes) for g in gens])
                               for axes in self.axis_subsets(self.n - k)]
        rows, labels = [], []
        for label, chain in chains:
            support = [(g, plain(z)) for g, z in enumerate(chain) if z]
            for axes, minors in self._minors[k]:
                row = [0] * len(minors)
                for g, z in support:
                    row[g] = coeffs.mul(z, minors[g])
                rows.append(row)
                labels.append((label, axes))
        return rows, labels

    def __repr__(self):
        return "<CharacteristicMatrix n=%d on %d vertices>" % (
            self.n, len(self.rows))
