"""Chain complexes of free Z-modules with labeled bases, and their homology
over Z, Q, or a prime field.  Integer homology comes with representative
cycles for both free and torsion generators.

Every boundary of the package is built here, in one form: a complex takes
its bases and the boundary terms of each cell, and keeps each boundary as
sparse columns {row index: int}, since cellular boundaries are mostly
zeros (as in Dumas, Heckenbach, Saunders and Welker, 2003).  A chain has
the same form, {basis index: nonzero value}: ``boundary_of`` and the
generators keep it.  The echelons, the cycle check d_k d_{k+1} = 0 (once
per degree, by ``validate`` or the first homology read over any ring), and
the images of the Smith basis read the columns; the Smith form takes a
dense matrix.

A complex built on a subcomplex (``base``, the boundary of a space inside
the space) keeps the base's columns, the same objects, and resumes its
eliminations: its echelons extend copies of the base's, and its Smith
forms eliminate only what the base's unit pivots leave (``_smith``).

Homology is read rank first: rank H_k = dim C_k - rank d_k - rank d_{k+1},
each rank off one elimination of d_k kept per degree and shared by degrees
k and k-1.  Over Z that is a Smith form, kept per degree as its factors
and its W = U^-1: the factors give the ranks, and those above 1 of
d_{k+1} are the torsion.  W is replayed from the form's step log only
when a generator is first read, so ranks and ``describe`` build no
transform.  Over a field it is a ``fields.Echelon`` of the columns, kept
per (k, field), whose rows span the boundaries in degree k-1: the free
generators of degree k-1 and the connecting map (``orbit``) extend
copies of it.  Generators are built on the first read: W columns or
their integer kernel combinations (``_int_generators``), or an echelon's
kernel vectors (``_field_generators``).

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
    Generators are {index: nonzero value} over the degree basis, readable
    through ``labels``.  ``free_generators`` and ``torsion_generators``
    may each be given as a function, called on the first read and never
    by ``rank``, ``describe`` or ``is_trivial``.  Groups are shared
    through the homology cache of their complex, so callers must not
    modify them.
    """

    def __init__(self, free_rank, torsion, free_generators, torsion_generators,
                 labels, coeffs):
        self.free_rank = free_rank
        self.torsion = list(torsion)
        self._free_generators = free_generators
        self._torsion_generators = torsion_generators
        self.labels = labels
        self.coeffs = coeffs

    @property
    def free_generators(self):
        if callable(self._free_generators):
            self._free_generators = self._free_generators()
        return self._free_generators

    @property
    def torsion_generators(self):
        if callable(self._torsion_generators):
            self._torsion_generators = self._torsion_generators()
        return self._torsion_generators

    @property
    def rank(self):
        return self.free_rank

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def describe(self):
        name = self.coeffs.name
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


def _chain(weights, columns):
    """The int combination of the sparse ``columns`` with ``weights``."""
    out = {}
    for q, column in zip(weights, columns):
        if q:
            fields.add_scaled(ZZ, out, q, column)
    return out


def _int_generators(basis, s, lower, m):
    """The kernel of d_k, given by its columns ``lower`` into a degree of
    dimension m, on ``rest``, the columns of W in ``basis`` past the s
    factors of d_{k+1} (all of ``rest`` when there is no d_k).  W is
    sliced here, so it is replayed on this first read only.  It takes no
    complex."""
    rest = basis[s:]
    if lower is None:
        return rest
    images = [[0] * len(rest) for _ in range(m)]
    for t, w in enumerate(rest):
        for j, q in w.items():
            for i, x in lower[j].items():
                images[i][t] += q * x
    return [_chain(kv, rest) for kv in snf.int_kernel(images)]


def _torsion_generators(basis, factors):
    """(d_i, w_i) for each factor d_i > 1 of d_{k+1}, w_i its column of W
    in ``basis``."""
    return [(f, basis[i]) for i, f in enumerate(factors) if f > 1]


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
    return list(islice((echelon.values(w, d) for w, d in echelon.kernel(n)
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
    reprs.

    ``base`` is an optional subcomplex: its basis a prefix of ``bases``
    in every degree, its cells' boundaries inside it.  Its columns are
    kept as they are, and ``terms`` is read for the new cells only.
    """

    def __init__(self, bases, terms, base=None):
        self.bases = {k: list(v) for k, v in bases.items() if v}
        self._base, self._starts = base, {}  # base cells per degree
        for k, cells in base.bases.items() if base else ():
            if self.basis(k)[:len(cells)] != cells:
                raise ValueError("the base's basis in degree %d is not a "
                                 "prefix of the basis" % k)
            self._starts[k] = len(cells)
        self.boundaries = {}
        for k, cells in self.bases.items():
            if k - 1 not in self.bases:
                continue
            index = {c: i for i, c in enumerate(self.bases[k - 1])}
            start = self._starts.get(k, 0)
            columns = (list(base.boundaries.get(k, [{}] * start)) if start
                       else [])
            for cell in cells[start:]:
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
        """The boundary of ``vec``, an {index into basis(k): nonzero value
        in ``coeffs``}, in the same form over ``basis(k - 1)``."""
        out = {}
        columns = self.boundaries.get(k)
        for j, value in vec.items() if columns else ():
            fields.add_scaled(coeffs, out, value, columns[j])
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
        """The Smith form of d_k, kept, as (factors, W, log, pivots): the
        columns of W = U^-1, the row steps and sign flips W replays, and
        the (row, column) of each factor; with no d_k, no factors and
        W = 1.  It resumes the base's form of d_k, which leaves the base's
        columns diagonal: the new columns go through the base's row steps,
        and the base's unit pivots are kept, since the column steps that
        clear their rows touch nothing else.  Only the residual goes to
        ``snf.smith_normal_form``: the other rows, on the non-unit pivots'
        columns and the new ones, if it has any columns.  W replays both
        logs on its first read.  With no base the residual is all of d_k."""
        if k not in self._smiths:
            self._smiths[k] = self._resume(k) if k in self.boundaries else (
                [], [{i: 1} for i in range(self.dim(k - 1))], [], [])
        return self._smiths[k]

    def _resume(self, k):
        factors, _, log, pivots = (self._base._smith(k) if self._base
                                   else ([], None, [], []))
        start, units = self._starts.get(k, 0), factors.count(1)
        shift = len(pivots) - units
        dropped = {r for r, _ in pivots[:units]}
        rest = [i for i in range(self.dim(k - 1)) if i not in dropped]
        width = shift + self.dim(k) - start
        if not width:  # the base's unit pivots are the whole form
            return (factors, snf.Transform(
                "w", log, [r for r, _ in pivots] + rest), log, pivots)
        new = [{} for _ in range(self.dim(k - 1))]  # rows of the new columns
        for j, column in enumerate(self.boundaries[k][start:], shift):
            for i, x in column.items():
                new[i][j] = x
        for step, dst, src, q in log:
            if step == "neg":
                new[dst] = {j: -x for j, x in new[dst].items()}
            elif new[src]:
                fields.add_scaled(ZZ, new[dst], q, new[src])
        for t, (r, _) in enumerate(pivots[units:]):
            new[r][t] = factors[units + t]
        residual = [[0] * width for _ in rest]
        for row, i in zip(residual, rest):
            for j, x in new[i].items():
                row[j] = x
        more, _, v, w = snf.smith_normal_form(residual)
        columns = [c for _, c in pivots[units:]] + list(
            range(start, self.dim(k)))
        log = log + [(step, rest[dst], rest[src], q)
                     for step, dst, src, q in w.log if step != "col"]
        pivots = pivots[:units] + [(rest[r], columns[c]) for r, c in
                                   zip(w.order, v.order[:len(more)])]
        order = [r for r, _ in pivots] + [rest[i] for i in w.order[len(more):]]
        return (factors[:units] + more, snf.Transform("w", log, order), log,
                pivots)

    def _homology_int(self, k):
        """In the basis W of the Smith form of d_{k+1}, the boundaries are
        spanned by d_1 w_1, ..., d_s w_s; those w_i are cycles, the ones
        with d_i > 1 generate the torsion, and the free part is the kernel
        of d_k on w_{s+1}, ... ."""
        n = self.dim(k)
        factors, basis, _, _ = self._smith(k + 1)
        s = len(factors)
        rank = n - len(self._smith(k)[0]) - s
        gens = partial(_int_generators, basis, s, self.boundaries.get(k),
                       self.dim(k - 1)) if rank else []
        torsion = [f for f in factors if f > 1]
        torsion_gens = partial(_torsion_generators, basis,
                               factors) if torsion else []
        return HomologyGroup(rank, torsion, gens, torsion_gens,
                             self.basis(k), ZZ)

    def _echelon(self, k, field):
        """The columns of d_k in echelon form over ``field``, kept: its
        length is rank d_k; its rows span the boundaries in degree k-1.
        It extends a copy of the base's by the new columns alone."""
        key = (k, field)
        if key not in self._echelons:
            echelon = (self._base._echelon(k, field).copy() if self._base
                       else fields.Echelon(field))
            for column in self.boundaries.get(k, ())[self._starts.get(k, 0):]:
                echelon.add_sparse(column)
            self._echelons[key] = echelon
        return self._echelons[key]

    def _homology_field(self, k, field):
        n = self.dim(k)
        upper = self._echelon(k + 1, field)
        rank = n - len(self._echelon(k, field)) - len(upper)
        gens = partial(_field_generators, self.boundaries.get(k, ()), upper,
                       n, rank) if rank else []
        return HomologyGroup(rank, [], gens, [], self.basis(k), field)
