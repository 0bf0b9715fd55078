"""Chain complexes of free Z-modules with labeled bases, and their homology
over Z, Q, or a prime field.  Integer homology comes with representative
cycles for both free and torsion generators.

Every boundary of the package is built here, in one form: a complex takes
its bases and the boundary terms of each cell, and keeps each boundary as
sparse columns {row index: int}, since cellular boundaries are mostly
zeros (as in Dumas, Heckenbach, Saunders and Welker, 2003).  The echelons,
the cycle check d_k d_{k+1} = 0 (once per degree, by ``validate`` or the
first homology read over any ring), and the images of the Smith basis
read the columns; the Smith form takes the dense ``boundary_matrix``.

Homology is read rank first: rank H_k = dim C_k - rank d_k - rank d_{k+1},
each rank off one elimination of d_k kept per degree and shared by degrees
k and k-1.  Over Z that is a Smith form, of which the factors above 1 of
d_{k+1} are the torsion and W = U^-1 gives the generators; over a field,
a ``fields.Echelon`` of the columns, kept per (k, field), whose rows span
the boundaries in degree k-1: the free generators of degree k-1 and the
connecting map (``orbit``) extend copies of it.  Free generators are
built on the first read (``_int_generators``, ``_field_generators``).

A complex is not changed after construction, so ``ChainComplex.homology``
computes each (degree, coefficients) group once and hands the same
``HomologyGroup`` to every later caller: treat groups and their generator
lists as read-only.
"""

from functools import partial
from itertools import islice

from . import fields, snf
from .errors import ValidationError
from .fields import ZZ


class HomologyGroup:
    """Homology in a single degree.

    Over Z: ``free_rank`` copies of Z plus cyclic summands of the orders in
    ``torsion`` (each dividing the next).  Over a field the group is a vector
    space, ``torsion`` is empty and ``free_rank`` is its dimension.
    Generator vectors are coordinate lists over the degree basis, readable
    through ``labels``.  ``free_generators`` may be given as a function,
    called on the first read and never by ``rank``, ``describe`` or
    ``is_trivial``.  Groups are shared through the homology cache of
    their complex, so callers must not modify them.
    """

    def __init__(self, free_rank, torsion, free_generators, torsion_generators,
                 labels, coeffs):
        self.free_rank = free_rank
        self.torsion = list(torsion)
        self._free_generators = free_generators
        self.torsion_generators = torsion_generators
        self.labels = labels
        self.coeffs = coeffs

    @property
    def free_generators(self):
        if callable(self._free_generators):
            self._free_generators = self._free_generators()
        return self._free_generators

    @property
    def rank(self):
        return self.free_rank

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def describe(self):
        name = "Z" if self.coeffs is ZZ else self.coeffs.name
        parts = []
        if self.free_rank == 1:
            parts.append(name)
        elif self.free_rank > 1:
            parts.append("%s^%d" % (name, self.free_rank))
        for t in self.torsion:
            parts.append("Z/%d" % t)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "<HomologyGroup %s>" % self.describe()


def _chain(weights, columns, n):
    """The dense combination of the sparse ``columns`` with ``weights``."""
    out = [0] * n
    for q, column in zip(weights, columns):
        for i, x in column.items():
            out[i] += q * x
    return out


def _int_generators(rest, lower, n, m):
    """The kernel of d_k, given by its columns ``lower`` into a degree of
    dimension m, on ``rest``, the columns of W past the factors of d_{k+1}
    (all of ``rest`` when there is no d_k).  It takes no complex."""
    if lower is None:
        return [_chain((1,), (w,), n) for w in rest]
    images = [[0] * len(rest) for _ in range(m)]
    for t, w in enumerate(rest):
        for j, q in w.items():
            for i, x in lower[j].items():
                images[i][t] += q * x
    return [_chain(kv, rest, n) for kv in snf.int_kernel(images)]


def _field_generators(lower, upper, n, rank):
    """The first ``rank`` kernel vectors of d_k, given by its columns
    ``lower``, independent of each other and of ``upper``, the kept
    echelon of d_{k+1}, which a copy extends.  The row echelon of d_k is
    built here and dropped.  Taking no complex, a group never refers to
    its complex, and refcounting alone frees a dropped one."""
    rows = {}
    for j, column in enumerate(lower):
        for i, x in column.items():
            rows.setdefault(i, {})[j] = x
    echelon = fields.Echelon(upper.field)
    for i in sorted(rows):
        echelon.add_sparse(rows[i])
    span = upper.copy()
    return list(islice((echelon.dense(w, d, n) for w, d in echelon.kernel(n)
                        if span.add_sparse(w)), rank))


class ChainComplex:
    """A bounded complex of finitely generated free Z-modules.

    ``bases`` maps a degree to the list of labels of its basis elements,
    and ``terms(cell)`` gives the boundary of a cell as (cell, integer
    coefficient) pairs.  Terms on cells outside the basis one degree down
    are dropped, so a quotient (a pair, a link) is given by the bases of
    the cells it keeps.  Degrees may be any integers (degree -1 is used
    for augmented complexes).

    ``boundaries`` maps each degree k whose bases k and k-1 are nonempty
    to d_k as sparse columns, one {row index: nonzero int} per k-cell
    with its rows in increasing order, so equal boundaries have equal
    reprs.  ``boundary_matrix`` is the dense view.
    """

    def __init__(self, bases, terms):
        self.bases = {k: list(v) for k, v in bases.items() if v}
        self.boundaries = {}
        for k, cells in self.bases.items():
            if k - 1 not in self.bases:
                continue
            index = {c: i for i, c in enumerate(self.bases[k - 1])}
            columns = []
            for cell in cells:
                column = {}
                for ref, x in terms(cell):
                    i = index.get(ref)
                    if i is not None:
                        column[i] = column.get(i, 0) + x
                columns.append({i: column[i] for i in sorted(column)
                                if column[i]})
            self.boundaries[k] = columns
        self._homology = {}
        self._smiths = {}
        self._echelons = {}
        self._cycles_checked = set()

    def degrees(self):
        return sorted(self.bases)

    def basis(self, k):
        return self.bases.get(k, [])

    def dim(self, k):
        return len(self.bases.get(k, []))

    def boundary_matrix(self, k):
        """Matrix of the boundary from degree k to degree k-1, dense: a
        fresh list of rows indexed by the (k-1)-basis."""
        mat = [[0] * self.dim(k) for _ in range(self.dim(k - 1))]
        for j, column in enumerate(self.boundaries.get(k, ())):
            for i, x in column.items():
                mat[i][j] = x
        return mat

    def validate(self):
        """Raises unless the boundary squares to zero."""
        for k in self.boundaries:
            self._check_cycles(k)
        return self

    def _check_cycles(self, k):
        """Raises unless d_k d_{k+1} = 0, column by column; once per degree."""
        lower = self.boundaries.get(k)
        if k in self._cycles_checked or lower is None:
            return
        for column in self.boundaries.get(k + 1, ()):
            out = {}
            for i, x in column.items():
                for h, y in lower[i].items():
                    out[h] = out.get(h, 0) + x * y
            if any(out.values()):
                raise ValidationError(
                    "boundary column is not a cycle in degree %d" % k)
        self._cycles_checked.add(k)

    def boundary_of(self, k, vec, coeffs=ZZ):
        """The boundary of the degree-k chain ``vec``, a coordinate list
        over ``basis(k)`` with values in ``coeffs``, as a coordinate list
        over ``basis(k - 1)``."""
        out = [coeffs.zero] * self.dim(k - 1)
        for value, column in zip(vec, self.boundaries.get(k, ())):
            if value:
                for i, x in column.items():
                    out[i] = coeffs.add(out[i], coeffs.mul(value, x))
        return out

    def homology(self, k, coeffs=ZZ):
        """Homology in degree k, computed once per (k, coeffs) and shared
        by every later call."""
        key = (k, coeffs)
        group = self._homology.get(key)
        if group is None:
            self._check_cycles(k)
            if coeffs is ZZ:
                group = self._homology_int(k)
            else:
                fields.require_field(coeffs)
                group = self._homology_field(k, coeffs)
            self._homology[key] = group
        return group

    def _smith(self, k):
        """The factors of d_k and the columns of W = U^-1 of its Smith form,
        kept (no factors and W = 1 when there is no d_k)."""
        if k not in self._smiths:
            if k in self.boundaries:
                factors, _, _, basis = snf.smith_normal_form(
                    self.boundary_matrix(k))
            else:
                factors, basis = [], [{i: 1} for i in range(self.dim(k - 1))]
            self._smiths[k] = factors, basis
        return self._smiths[k]

    def _homology_int(self, k):
        """In the basis W of the Smith form of d_{k+1}, the boundaries are
        spanned by d_1 w_1, ..., d_s w_s; those w_i are cycles, the ones
        with d_i > 1 generate the torsion, and the free part is the kernel
        of d_k on w_{s+1}, ... ."""
        n = self.dim(k)
        factors, basis = self._smith(k + 1)
        s = len(factors)
        rank = n - len(self._smith(k)[0]) - s
        gens = partial(_int_generators, basis[s:], self.boundaries.get(k),
                       n, self.dim(k - 1)) if rank else []
        torsion_gens = [(f, _chain((1,), (basis[i],), n))
                        for i, f in enumerate(factors) if f > 1]
        return HomologyGroup(rank, [f for f, _ in torsion_gens], gens,
                             torsion_gens, self.basis(k), ZZ)

    def _echelon(self, k, field):
        """The columns of d_k in echelon form over ``field``, kept: its
        length is rank d_k; its rows span the boundaries in degree k-1."""
        key = (k, field)
        if key not in self._echelons:
            echelon = self._echelons[key] = fields.Echelon(field)
            for column in self.boundaries.get(k, ()):
                echelon.add_sparse(column)
        return self._echelons[key]

    def _homology_field(self, k, field):
        n = self.dim(k)
        upper = self._echelon(k + 1, field)
        rank = n - len(self._echelon(k, field)) - len(upper)
        gens = partial(_field_generators, self.boundaries.get(k, ()), upper,
                       n, rank) if rank else []
        return HomologyGroup(rank, [], gens, [], self.basis(k), field)
