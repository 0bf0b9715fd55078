"""Chain complexes of free Z-modules with labeled bases, and their homology
over Z, Q, or a prime field.  Integer homology comes with representative
cycles for both free and torsion generators.

Every boundary of the package is built here, in one form: a complex takes
its bases and the boundary terms of each cell, and keeps each boundary as
sparse columns {row index: int}, since cellular boundaries are mostly
zeros (as in Dumas, Heckenbach, Saunders and Welker, 2003).  The echelons,
the cycle test, the images of the Smith basis and ``validate`` read the
columns; the Smith form takes the dense ``boundary_matrix``.

Over Z a group takes two Smith forms: the one of the boundary into the
degree gives the torsion, and the kernel of the boundary out of it on the
rest of that form's basis gives the free part (see ``_homology_int``).

Over a field dim H_k = dim C_k - rank d_k - rank d_{k+1}, each rank read
off one ``fields.Echelon`` of the rows of d_k, kept per (k, field) and
shared by degrees k and k-1.  Representatives are built from the kernel
of that echelon on the first read (``_field_generators``).

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


def _field_generators(lower, upper, n, field, rank):
    """The first ``rank`` kernel vectors of ``lower``, the echelon of d_k,
    independent of ``upper``, the columns of d_{k+1}, and of each other.
    It takes no complex, so a group never refers to its complex, and
    refcounting alone frees a dropped one."""
    span = fields.Echelon(field)
    for column in upper:
        span.add_sparse(column)
    return list(islice((lower.dense(w, d, n) for w, d in lower.kernel(n)
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

    def __init__(self, bases, terms, check=True):
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
        self._echelons = {}
        if check:
            self.validate()

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
        """Raises unless the boundary squares to zero, composed column by
        column."""
        for k, columns in self.boundaries.items():
            lower = self.boundaries.get(k - 1)
            if lower is None:
                continue
            for column in columns:
                out = {}
                for i, x in column.items():
                    for h, y in lower[i].items():
                        out[h] = out.get(h, 0) + x * y
                if any(out.values()):
                    raise ValidationError(
                        "boundary squared is nonzero between degrees %d and %d"
                        % (k, k - 2))
        return self

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
            if coeffs is ZZ:
                group = self._homology_int(k)
            else:
                fields.require_field(coeffs)
                group = self._homology_field(k, coeffs)
            self._homology[key] = group
        return group

    def _homology_int(self, k):
        """In the basis W = U^-1 of the Smith form of the boundary into
        degree k, the boundaries are spanned by d_1 w_1, ..., d_s w_s; those
        w_i are cycles, the ones with d_i > 1 generate the torsion, and the
        free part is the kernel of the boundary on w_{s+1}, ... .  The
        sparse w_i go through the sparse columns of the boundary."""
        labels = self.basis(k)
        n = len(labels)
        if k + 1 in self.boundaries:
            factors, _, _, basis = snf.smith_normal_form(
                self.boundary_matrix(k + 1))
        else:
            factors, basis = [], [{i: 1} for i in range(n)]
        s = len(factors)

        def chain(weights, columns):
            out = [0] * n
            for q, col in zip(weights, columns):
                for i, x in col.items():
                    out[i] += q * x
            return out

        lower = self.boundaries.get(k)
        if lower is None:
            free_gens = [chain([1], [w]) for w in basis[s:]]
        else:
            images = [[0] * n for _ in range(self.dim(k - 1))]
            for t, w in enumerate(basis):
                for j, q in w.items():
                    for i, x in lower[j].items():
                        images[i][t] += q * x
            if any(any(row[:s]) for row in images):
                raise ValidationError(
                    "boundary column is not a cycle in degree %d" % k)
            kernel = snf.int_kernel([row[s:] for row in images])
            free_gens = [chain(kv, basis[s:]) for kv in kernel]
        torsion_gens = [(f, chain([1], [basis[i]]))
                        for i, f in enumerate(factors) if f > 1]
        return HomologyGroup(len(free_gens), [f for f, _ in torsion_gens],
                             free_gens, torsion_gens, labels, ZZ)

    def _echelon(self, k, field):
        """The rows of d_k in echelon form over ``field``, kept: the
        columns are transposed once into sparse rows."""
        key = (k, field)
        if key not in self._echelons:
            rows = [{} for _ in range(self.dim(k - 1))]
            for j, column in enumerate(self.boundaries.get(k, ())):
                for i, x in column.items():
                    rows[i][j] = x
            echelon = self._echelons[key] = fields.Echelon(field)
            for row in rows:
                echelon.add_sparse(row)
        return self._echelons[key]

    def _homology_field(self, k, field):
        n = self.dim(k)
        lower = self._echelon(k, field)
        rank = n - len(lower) - len(self._echelon(k + 1, field))
        upper = self.boundaries.get(k + 1, ())
        gens = partial(_field_generators, lower, upper, n, field,
                       rank) if rank else []
        return HomologyGroup(rank, [], gens, [], self.basis(k), field)
