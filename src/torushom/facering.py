"""The face ring of a simplicial poset and its quotient by the linear system.

The ring is spanned by multichain monomials v_{I_1}...v_{I_t} with
I_1 <= ... <= I_t in the poset.  A product of two generators straightens by
the meet-join law

    v_I * v_J = v_{I ^ J} * sum of v_K over the minimal upper bounds K,

where an empty set of upper bounds kills the term and a bottom meet drops
out of the monomial.  Structure constants are all +1, so the ring is built
over the integers and coefficients are mapped into a field only at the
linear-algebra boundary.

Degrees are algebraic throughout this module: a monomial has weight equal
to its rank sum, which is half its topological degree.
"""

from math import comb

from .errors import ValidationError
from .fields import (QQ, Echelon, lift, nullspace, row_space_contains,
                     solve_all)
from .posets import BOTTOM


def _sort_key(poset, e):
    return (poset.rank(e), repr(e))


class FaceRing:
    """Multiplication and monomial bookkeeping for one simplicial poset.

    Elements of the ring are plain dicts mapping monomials (tuples of poset
    element ids, sorted by rank) to integer coefficients.
    """

    def __init__(self, poset):
        self.poset = poset
        self._straightened = {}

    def one(self):
        return {(): 1}

    def generator(self, e):
        if e is BOTTOM:
            return self.one()
        return {(e,): 1}

    def monomial(self, parts):
        """Canonical form of a product of generators (not yet straightened)."""
        return tuple(sorted(parts, key=lambda e: _sort_key(self.poset, e)))

    def weight(self, mono):
        return sum(self.poset.rank(e) for e in mono)

    def _straighten(self, mono):
        """Express a monomial in the multichain basis; returns a dict."""
        mono = self.monomial(mono)
        cached = self._straightened.get(mono)
        if cached is not None:
            return cached
        pair = None
        for i in range(len(mono)):
            for j in range(i + 1, len(mono)):
                a, b = mono[i], mono[j]
                if not (self.poset.le(a, b) or self.poset.le(b, a)):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            result = {mono: 1}
        else:
            i, j = pair
            a, b = mono[i], mono[j]
            rest = [mono[t] for t in range(len(mono)) if t not in (i, j)]
            joins = self.poset.join_set(a, b)
            result = {}
            if joins:
                meet = self.poset.meet(a, b)
                base = rest if meet is BOTTOM else rest + [meet]
                for k in joins:
                    for m, c in self._straighten(base + [k]).items():
                        result[m] = result.get(m, 0) + c
                result = {m: c for m, c in result.items() if c}
        self._straightened[mono] = result
        return result

    def mul(self, x, y):
        out = {}
        for ma, ca in x.items():
            for mb, cb in y.items():
                for m, c in self._straighten(ma + mb).items():
                    out[m] = out.get(m, 0) + ca * cb * c
        return {m: c for m, c in out.items() if c}

    def add(self, x, y):
        out = dict(x)
        for m, c in y.items():
            out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def scale(self, c, x):
        if not c:
            return {}
        return {m: c * v for m, v in x.items()}

    def monomials_of_weight(self, w):
        """All multichain monomials of the given rank sum, canonically
        ordered."""
        elems = sorted((e for e in self.poset.elements()),
                       key=lambda e: _sort_key(self.poset, e))
        out = []

        def extend(prefix, total):
            if total == w:
                out.append(tuple(prefix))
                return
            last = prefix[-1] if prefix else None
            for e in elems:
                r = self.poset.rank(e)
                if total + r > w:
                    continue
                if last is not None:
                    if _sort_key(self.poset, e) < _sort_key(self.poset, last):
                        continue
                    if not self.poset.le(last, e):
                        continue
                prefix.append(e)
                extend(prefix, total + r)
                prefix.pop()

        extend([], 0)
        out.sort()
        return out


def _add_scaled(field, target, coeff, vec):
    """target += coeff·vec for vectors kept as {column: nonzero field
    value}; coeff is a nonzero field element."""
    for c, x in vec.items():
        y = field.add(target.get(c, field.zero), field.mul(coeff, x))
        if field.is_zero(y):
            del target[c]
        else:
            target[c] = y


def hilbert_series(poset, maxdeg):
    """Dimensions of the graded pieces of the face ring, by algebraic degree
    0..maxdeg.  The count of multichains with rank sum j has the closed form
    sum_i f_{i-1} * C(j-1, i-1)."""
    f = poset.f_vector()
    dims = [1]
    for j in range(1, maxdeg + 1):
        total = 0
        for i in range(1, len(f)):
            total += f[i] * comb(j - 1, i - 1)
        dims.append(total)
    return dims


def linear_relations(poset, charmat, signs, k):
    """Integer relation rows among the rank-k elements, one per pair of a
    rank-(k-1) element J and an axis subset A of size n-k.  The chain of
    J is its cell boundary, sum of signs[(I, J)] * e_I over the covers I
    of J; its rows are that chain pushed along the axes
    (``CharacteristicMatrix.push``), so the entry of a cover I is its
    incidence sign times its complementary minor c(I, A).  Returns the
    rows and their (J, A) labels."""
    if k < 1:
        return [], []
    gens = poset.elements_of_rank(k)
    col = {g: i for i, g in enumerate(gens)}
    chains = []
    for j_elt in poset.elements_of_rank(k - 1):
        chain = [0] * len(gens)
        for i_elt in poset.upper_covers(j_elt):
            chain[col[i_elt]] += signs[(i_elt, j_elt)]
        chains.append((j_elt, chain))
    return charmat.push(k, chains)


class GradedPresentation:
    """One graded piece of a module given by labelled generators and
    relation rows over a field.

    The relation matrix is row reduced once; pivot generators are
    eliminated and the surviving generators form the reduction basis.
    """

    def __init__(self, degree, generators, rows, field, row_labels=None):
        self.degree = degree
        self.generators = list(generators)
        self.field = field
        self.rows = [[lift(x, field) if x else field.zero for x in r]
                     for r in rows]
        self.row_labels = list(row_labels) if row_labels is not None else None
        if self.row_labels is not None and len(self.row_labels) != len(self.rows):
            raise ValidationError("row labels do not match relation rows")
        self._echelon = Echelon(field, self.rows)
        pivot_set = set(self._echelon.pivots)
        self._basis_cols = [i for i in range(len(self.generators))
                            if i not in pivot_set]
        self.basis = [self.generators[i] for i in self._basis_cols]
        self._col = {repr(g): i for i, g in enumerate(self.generators)}

    @property
    def dimension(self):
        return len(self.basis)

    def column(self, generator):
        try:
            return self._col[repr(generator)]
        except KeyError:
            raise ValidationError(
                "%r is not a degree-%d generator" % (generator, self.degree))

    def unit(self, generator):
        v = [self.field.zero] * len(self.generators)
        v[self.column(generator)] = self.field.one
        return v

    def reduce(self, vec):
        """Eliminate the pivot generators from a coordinate vector."""
        if len(vec) != len(self.generators):
            raise ValidationError(
                "vector of length %d against %d generators"
                % (len(vec), len(self.generators)))
        return self._echelon.reduce(vec)

    def coordinates(self, vec):
        """Coordinates of a vector over the surviving basis."""
        v = self.reduce(vec)
        return [v[i] for i in self._basis_cols]

    def lift(self, coords):
        """Full coordinate vector of a basis combination."""
        if len(coords) != len(self.basis):
            raise ValidationError("expected %d basis coordinates"
                                  % len(self.basis))
        v = [self.field.zero] * len(self.generators)
        for i, c in zip(self._basis_cols, coords):
            v[i] = lift(c, self.field)
        return v

    def reduce_sparse(self, vec):
        """``reduce`` of a vector given as {column: nonzero field value},
        answered in the same form."""
        return self._echelon.reduce_sparse(vec)

    def __repr__(self):
        return "<GradedPresentation deg %d: %d generators, dim %d>" % (
            self.degree, len(self.generators), self.dimension)


class FaceRingQuotient:
    """The face ring modulo the linear system read off a characteristic
    matrix, presented degree by degree on the single-element generators.

    Degree k is generated by the rank-k elements; the relations come from
    one row per pair (J, A) with J of rank k-1 and A a coordinate subset of
    the complementary size.  Vertex multiplication descends to these
    presentations and its kernel across all vertices is the socle.

    Every multiplication by a vertex goes through one product path: the
    product x_i·x_g of a vertex i and a rank-k generator g is built on
    first use and kept per (i, k, g), unreduced, as {rank-(k+1) column:
    field value}.  It is nonzero only for the vertices on a maximal cell
    above g.  When i lies below g, x_i is first eliminated through the
    inverse of the vertex matrix of the maximal cell chosen above g
    (``simplex_above``), inverted once per cell.  ``vertex_action``,
    ``action_matrix`` and ``in_socle`` sum the kept products over the
    nonzero coordinates of their input and reduce each sum once.
    """

    def __init__(self, poset, charmat, field=QQ, signs=None,
                 simplex_choice=None):
        self.poset = poset
        self.charmat = charmat
        self.field = field
        self.ring = FaceRing(poset)
        if signs is None:
            signs = poset.default_sign_convention()
        else:
            poset.validate_sign_convention(signs)
        self.signs = dict(signs)
        self._orientation = self._build_orientation()
        self._choice = simplex_choice
        charmat.check_star(field)
        self._presentations = {}
        self._substitutions = {}
        self._reaches = {}
        self._products = {}
        self._actions = {}

    def _build_orientation(self):
        """How each element is oriented against the vertex-order convention.
        Any valid sign table flips some set of elements; the flips conjugate
        the multiplication, so they are recovered here once."""
        default = self.poset.default_sign_convention()
        orientation = {}
        for e in self.poset.elements():
            if self.poset.rank(e) == 1:
                orientation[e] = self.signs[(e, BOTTOM)] * default[(e, BOTTOM)]
                continue
            value = None
            for f in set(self.poset.lower_covers(e)):
                lower = 1 if f is BOTTOM else orientation[f]
                cand = self.signs[(e, f)] * default[(e, f)] * lower
                if value is None:
                    value = cand
                elif value != cand:
                    raise ValidationError(
                        "sign table is not an orientation change of the "
                        "vertex-order convention at %r" % (e,))
            orientation[e] = value
        return orientation

    def _orient(self, e):
        return 1 if e is BOTTOM else self._orientation[e]

    @property
    def n(self):
        return self.charmat.n

    def presentation(self, k):
        pres = self._presentations.get(k)
        if pres is None:
            pres = self._build_presentation(k)
            self._presentations[k] = pres
        return pres

    def _build_presentation(self, k):
        if k < 0 or k > self.n:
            return GradedPresentation(k, [], [], self.field)
        rows, labels = linear_relations(self.poset, self.charmat,
                                        self.signs, k)
        return GradedPresentation(k, self.poset.elements_of_rank(k), rows,
                                  self.field, row_labels=labels)

    # --- theta elimination ---------------------------------------------

    def simplex_above(self, e):
        """The maximal cell used to eliminate vertices of e: least by vertex
        set unless a custom chooser was supplied."""
        tops = self.poset.tops_above(e)
        if not tops:
            raise ValidationError("no maximal cell above %r" % (e,))
        if self._choice is not None:
            m = self._choice(e, tops)
            if m not in tops:
                raise ValidationError(
                    "simplex choice returned %r, not above %r" % (m, e))
            return m
        return min(tops, key=lambda m: (sorted(map(repr, self.poset.ver(m))),
                                        repr(m)))

    def _substitution(self, top):
        """The inverse of the vertex matrix of a maximal cell (rows the
        axes, columns its vertices in sorted order), from one solve
        against the n unit vectors, kept per cell.  Modulo the linear
        system, x_w = -Σ_u (Σ_j inv[w][j]·λ_u[j])·x_u over the vertices u
        outside the cell.  Returns (vertex → its row, inverse)."""
        cached = self._substitutions.get(repr(top))
        if cached is not None:
            return cached
        field = self.field
        inside = sorted(self.poset.ver(top))
        matrix = [[field.from_int(self.charmat.row(w)[j]) for w in inside]
                  for j in range(self.n)]
        units = [[field.one if r == j else field.zero for r in range(self.n)]
                 for j in range(self.n)]
        columns = solve_all(matrix, units, field)
        if any(x is None for x in columns):
            raise ValidationError(
                "vertex matrix of %r is singular over %r" % (top, field))
        position = {w: r for r, w in enumerate(inside)}
        inverse = [[columns[j][r] for j in range(self.n)]
                   for r in range(len(inside))]
        self._substitutions[repr(top)] = position, inverse
        return position, inverse

    def _reach(self, g):
        """The vertices on some maximal cell above g: x_i·x_g is zero for
        every other vertex i, since i and g then span no common cell."""
        reach = self._reaches.get(g)
        if reach is None:
            reach = sorted(set().union(*(self.poset.ver(m)
                                         for m in self.poset.tops_above(g))))
            self._reaches[g] = reach
        return reach

    def _product(self, i, k, col):
        """x_i·x_g for the rank-k generator g in column ``col``, unreduced,
        as {rank-(k+1) column: nonzero field value}; built on first use
        and kept.  Callers must not modify it."""
        key = (i, k, col)
        product = self._products.get(key)
        if product is not None:
            return product
        field = self.field
        dst = self.presentation(k + 1)
        g = self.presentation(k).generators[col]
        product = {}
        base = self._orient(i) * self._orient(g)

        def add_joins(a, coeff):
            _add_scaled(field, product, coeff,
                        {dst.column(j): field.from_int(base * self._orient(j))
                         for j in self.poset.join_set(a, g)})

        if g is BOTTOM:
            product[dst.column(i)] = field.one
        elif not self.poset.le(i, g):
            add_joins(i, field.one)
        else:
            top = self.simplex_above(g)
            position, inverse = self._substitution(top)
            row = inverse[position[i]]
            inside = position.keys()
            for u in self._reach(g):
                if u in inside:
                    continue
                cu = field.zero
                for r, x in zip(row, self.charmat.row(u)):
                    if x:
                        cu = field.add(cu, field.mul(r, field.from_int(x)))
                if not field.is_zero(cu):
                    add_joins(u, field.neg(cu))
        self._products[key] = product
        return product

    def _check_vertex(self, i):
        try:
            ok = self.poset.ver(i) == {i}
        except KeyError:
            ok = False
        if not ok:
            raise ValidationError("%r is not a vertex" % (i,))

    def vertex_action(self, i, vec, k):
        """Multiplication by a vertex: coordinates over the rank-k
        generators go to reduced coordinates over the rank-(k+1) ones.
        The kept products x_i·x_g are summed over the nonzero coordinates
        of the input, and the sum is reduced once."""
        src = self.presentation(k)
        dst = self.presentation(k + 1)
        self._check_vertex(i)
        if len(vec) != len(src.generators):
            raise ValidationError("vector does not match degree-%d generators"
                                  % k)
        out = {}
        for col, coeff in enumerate(vec):
            if not coeff:
                continue
            coeff = lift(coeff, self.field)
            if not self.field.is_zero(coeff):
                _add_scaled(self.field, out, coeff, self._product(i, k, col))
        image = [self.field.zero] * len(dst.generators)
        for c, x in dst.reduce_sparse(out).items():
            image[c] = x
        return image

    def action_matrix(self, i, k):
        """Matrix of multiplication by vertex i from the degree-k basis to
        the degree-(k+1) basis (rows index the target).  A basis generator
        is its own reduction, so column g is the reduced product x_i·x_g."""
        key = (repr(i), k)
        cached = self._actions.get(key)
        if cached is not None:
            return cached
        self._check_vertex(i)
        src = self.presentation(k)
        dst = self.presentation(k + 1)
        cols = []
        for col in src._basis_cols:
            image = dst.reduce_sparse(self._product(i, k, col))
            cols.append([image.get(c, self.field.zero)
                         for c in dst._basis_cols])
        matrix = [[cols[j][r] for j in range(len(cols))]
                  for r in range(len(dst.basis))]
        self._actions[key] = matrix
        return matrix

    def socle_basis(self, k):
        """Vectors of the degree-k piece killed by every vertex, as full
        coordinate vectors over the rank-k generators."""
        src = self.presentation(k)
        if src.dimension == 0:
            return []
        stacked = []
        for i in self.poset.vertices():
            stacked.extend(self.action_matrix(i, k))
        if not stacked:
            coords_list = [[self.field.one if i == j else self.field.zero
                            for j in range(src.dimension)]
                           for i in range(src.dimension)]
        else:
            coords_list = nullspace(stacked, self.field)
        return [src.lift(coords) for coords in coords_list]

    def in_socle(self, vec, k):
        """Whether every vertex kills a degree-k vector.  The vector is
        reduced once; the image under a vertex is the sum of the kept
        products over its nonzero coordinates, and only a nonempty image
        is reduced."""
        src = self.presentation(k)
        dst = self.presentation(k + 1)
        images = {}
        for col, coeff in enumerate(src.reduce(vec)):
            if self.field.is_zero(coeff):
                continue
            for i in self._reach(src.generators[col]):
                _add_scaled(self.field, images.setdefault(i, {}), coeff,
                            self._product(i, k, col))
        return not any(image and dst.reduce_sparse(image)
                       for image in images.values())

    # --- membership in the parameter ideal -----------------------------

    def theta_rows(self, k):
        """Products of each linear parameter with each monomial of weight
        k-1, as integer vectors over the weight-k monomial basis."""
        monos = self.ring.monomials_of_weight(k)
        col = {m: i for i, m in enumerate(monos)}
        rows = []
        for j in range(1, self.n + 1):
            theta = {(v,): c for v, c in self.charmat.theta(j).items()}
            for m in self.ring.monomials_of_weight(k - 1):
                product = self.ring.mul(theta, {m: 1})
                row = [0] * len(monos)
                for mono, c in product.items():
                    row[col[mono]] += c
                rows.append(row)
        return monos, rows

    def theta_span_contains(self, element_coeffs, k):
        """Whether a combination of rank-k generators lies in the span of
        the degree-k part of the parameter ideal."""
        monos, rows = self.theta_rows(k)
        col = {m: i for i, m in enumerate(monos)}
        vec = [0] * len(monos)
        for e, c in element_coeffs.items():
            vec[col[(e,)]] += c * self._orient(e)
        field_rows = [[self.field.from_int(x) for x in r] for r in rows]
        field_vec = [self.field.from_int(x) for x in vec]
        return row_space_contains(field_rows, field_vec, self.field)

    def __repr__(self):
        return "<FaceRingQuotient n=%d over %r>" % (self.n, self.field)
