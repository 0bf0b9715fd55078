"""The face ring of a simplicial poset and its quotient by the linear system.

The face ring is generated by one x_e per poset element, with x_bottom = 1
and the meet-join law (Stanley, "f-vectors and h-vectors of simplicial
posets", 1991)

    x_a * x_b = x_{a ^ b} * sum of x_r over the minimal upper bounds r,

where an empty set of upper bounds kills the product.  The quotient by the
linear system is presented degree by degree on the single-element
generators (``FaceRingQuotient``).  A product of two faces in it is
straightened by this law, and what remains is multiplied by vertices
through the kept products of a vertex and a generator.

Degrees are algebraic throughout this module: x_e has the rank of e as
its degree, half its topological degree.
"""

from math import comb

from .errors import ValidationError
from .fields import QQ, ZZ, Echelon, add_scaled, lift, nullspace, plain
from .posets import BOTTOM


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


def linear_relations(poset, charmat, signs, k, coeffs=ZZ):
    """Relation rows among the rank-k elements over ``coeffs``, one per
    pair of a rank-(k-1) element J and an axis subset A of size n-k.  The
    chain of J is its cell boundary, {column of I: signs[(I, J)]} over the
    covers I of J; its rows are that chain pushed along the axes
    (``CharacteristicMatrix.push``), so the entry of a cover I is its
    incidence sign times its complementary minor c(I, A), and a row is a
    {column: value} with no entry zero in ``coeffs``.  A row's (J, A) is
    its position: J in ``elements_of_rank`` order, then A in
    ``axis_subsets`` order."""
    if k < 1:
        return []
    col = {g: i for i, g in enumerate(poset.elements_of_rank(k))}
    chains = [{col[i_elt]: signs[(i_elt, j_elt)]
               for i_elt in poset.upper_covers(j_elt)}
              for j_elt in poset.elements_of_rank(k - 1)]
    return charmat.push(k, chains, coeffs)


class GradedPresentation:
    """One graded piece of a module given by generators and relation rows
    over a field.

    Each relation row, a {column: nonzero value} of ints or field values,
    goes straight into ``echelon``, which keeps the row space in reduced
    echelon form; the rows themselves are not kept, only ``row_count``.
    Pivot generators are eliminated and the surviving generators form the
    reduction basis.  With ``base``, a presentation of the same
    generators, its kept echelon is copied and extended by ``rows``
    rather than built again, and its rows are counted first.  Sparse
    vectors are reduced and tested on ``echelon`` itself.
    """

    def __init__(self, degree, generators, rows, field, base=None):
        self.degree = degree
        self.generators = list(generators)
        self.field = field
        self.echelon = base.echelon.copy() if base else Echelon(field)
        self.row_count = base.row_count if base else 0
        for row in rows:
            self.echelon.add_sparse(row)
            self.row_count += 1
        pivot_set = set(self.echelon.pivots)
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

    def reduce(self, vec):
        """Eliminate the pivot generators from a coordinate vector."""
        if len(vec) != len(self.generators):
            raise ValidationError(
                "vector of length %d against %d generators"
                % (len(vec), len(self.generators)))
        v = self.echelon.reduce_sparse({j: x for j, x in enumerate(vec) if x})
        return [v.get(j, self.field.zero) for j in range(len(vec))]

    def coordinates(self, vec):
        """Coordinates over the surviving basis of a vector given as
        {column: nonzero value}."""
        v = self.echelon.reduce_sparse(vec)
        return [v.get(i, self.field.zero) for i in self._basis_cols]

    def lift(self, coords):
        """Full coordinate vector of a basis combination."""
        if len(coords) != len(self.basis):
            raise ValidationError("expected %d basis coordinates"
                                  % len(self.basis))
        v = [self.field.zero] * len(self.generators)
        for i, c in zip(self._basis_cols, coords):
            v[i] = lift(c, self.field)
        return v

    def __repr__(self):
        return "<GradedPresentation deg %d: %d generators, dim %d>" % (
            self.degree, len(self.generators), self.dimension)


class FaceRingQuotient:
    """The face ring modulo the linear system read off a characteristic
    matrix, presented degree by degree on the single-element generators.

    Degree k is generated by the rank-k elements; the relations come from
    one row per pair (J, A) with J of rank k-1 and A a coordinate subset of
    the complementary size, signed by ``poset.sign_convention(flips)``; the
    generator of a face in ``flips`` is its reversed class (``_orient``).
    Vertex multiplication descends to these presentations and its kernel
    across all vertices is the socle.

    Every multiplication by a vertex goes through one product path: the
    product x_i·x_g of a vertex i and a rank-k generator g is built on
    first use and kept per (i, k, g), unreduced, as {rank-(k+1) column:
    field value}.  It is nonzero only for the vertices on a maximal cell
    above g.  When i lies below g, x_i is first eliminated through the
    inverse of the vertex matrix of the maximal cell chosen above g
    (``simplex_above``), read off the minor tables once per cell.
    ``vertex_action``, ``action_matrix`` and ``in_socle`` sum the kept
    products over the nonzero coordinates of their input and reduce each
    sum once.  ``face_product`` multiplies two faces by straightening
    them in the face ring and multiplying by the shared vertices through
    the kept products, reducing once.
    """

    def __init__(self, poset, charmat, field=QQ, flips=()):
        self.poset = poset
        self.charmat = charmat
        self.field = field
        self.flips = frozenset(flips)
        self.signs = poset.sign_convention(self.flips)
        charmat.check_star(field)
        self._presentations = {}
        self._substitutions = {}
        self._reaches = {}
        self._products = {}
        self._actions = {}

    def _orient(self, e):
        return -1 if e in self.flips else 1

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
        rows = linear_relations(self.poset, self.charmat, self.signs, k,
                                self.field)
        return GradedPresentation(k, self.poset.elements_of_rank(k), rows,
                                  self.field)

    # --- theta elimination ---------------------------------------------

    def simplex_above(self, e):
        """The maximal cell used to eliminate vertices of e: the least by
        vertex set."""
        tops = self.poset.tops_above(e)
        if not tops:
            raise ValidationError("no maximal cell above %r" % (e,))
        return min(tops, key=lambda m: (sorted(map(repr, self.poset.ver(m))),
                                        repr(m)))

    def _substitution(self, top):
        """The inverse of the vertex matrix M of a maximal cell (rows the
        axes, columns its vertices in sorted order), adj(M)·det(M)⁻¹, kept
        per cell; plain ints when det(M) = ±1.  Both are read off the
        minor tables of the characteristic matrix (``c_coefficient``):
        det M = c(top, ∅), and row r of adj M, r counted from 0, is
        (−1)^(r+n+1)·[c(F_r, {1}), …, c(F_r, {n})], F_r the face of top
        without its r-th vertex.  Modulo the linear system, x_w = -Σ_u
        (Σ_j inv[w][j]·λ_u[j])·x_u over the vertices u outside the cell.
        Returns (vertex → its row, inverse)."""
        cached = self._substitutions.get(repr(top))
        if cached is not None:
            return cached
        field = self.field
        c = self.charmat.c_coefficient
        det = c(top, ())
        scale = det if det in (1, -1) else field.inv(field.from_int(det))
        inverse = [[plain(field.mul(scale, (-1) ** (r + self.n + 1)
                                    * c(face, (j,))))
                    for j in range(1, self.n + 1)]
                   for r, face in enumerate(self.poset.lower_covers(top))]
        position = {w: r for r, w in enumerate(sorted(self.poset.ver(top)))}
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
        as {rank-(k+1) column: nonzero field value}, plain ints where the
        values are integers; built on first use and kept.  Callers must
        not modify it."""
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
            add_scaled(field, product, coeff,
                       {dst.column(j): base * self._orient(j)
                        for j in self.poset.join_set(a, g)})

        if g is BOTTOM:
            product[dst.column(i)] = 1
        elif not self.poset.le(i, g):
            add_joins(i, 1)
        else:
            top = self.simplex_above(g)
            position, inverse = self._substitution(top)
            row = inverse[position[i]]
            inside = position.keys()
            for u in self._reach(g):
                if u in inside:
                    continue
                cu = 0
                for r, x in zip(row, self.charmat.row(u)):
                    if x:
                        cu = field.add(cu, field.mul(r, x))
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
            coeff = plain(coeff)
            if not self.field.is_zero(coeff):
                add_scaled(self.field, out, coeff, self._product(i, k, col))
        image = [self.field.zero] * len(dst.generators)
        for c, x in dst.echelon.reduce_sparse(out).items():
            image[c] = x
        return image

    def face_product(self, a, b):
        """Reduced coordinates of x_a·x_b over the generators of rank
        rank(a) + rank(b).  The meet-join law writes x_a·x_b as
        x_m·Σ x_ρ over the elements ρ of ``join_set(a, b)`` (none when a
        and b span no common cell), m being the face of ρ on the shared
        vertices.  For m ≤ ρ, x_m·x_ρ is x_ρ times each shared vertex in
        turn: their product is the sum of the faces on that vertex set,
        and every such face other than m multiplies x_ρ to zero.  In the
        oriented generators of the presentations the sign of each step is
        o(a)·o(b)·o(ρ)·Π o(v) over the shared vertices v; the signs of m
        and of the faces between cancel."""
        field = self.field
        poset = self.poset
        dst = self.presentation(poset.rank(a) + poset.rank(b))
        out = {}
        shared = sorted(poset.ver(a) & poset.ver(b))
        sign = self._orient(a) * self._orient(b)
        for v in shared:
            sign *= self._orient(v)
        for rho in poset.join_set(a, b):
            k = poset.rank(rho)
            vec = {self.presentation(k).column(rho): 1}
            for v in shared:
                step = {}
                for col, coeff in vec.items():
                    add_scaled(field, step, coeff, self._product(v, k, col))
                vec = step
                k += 1
            add_scaled(field, out, sign * self._orient(rho), vec)
        # dense on purpose: handing {column: value} to ``_face_face`` cut
        # the products benchmark's call_s from 25.2 to 17.7 µs (medians of
        # three 30 s runs, Xeon, Python 3.11), but that benchmark keeps
        # every latency sample, so the extra calls raised its peak RSS
        # from 37.4 to 42.9 MB, past its 10% bound (ROADMAP item 2)
        image = [field.zero] * len(dst.generators)
        if out:
            for c, x in dst.echelon.reduce_sparse(out).items():
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
            image = dst.echelon.reduce_sparse(self._product(i, k, col))
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
        """Whether every vertex kills a degree-k vector, given as {column:
        nonzero value} over the rank-k generators.  The vector is reduced
        once; the image under a vertex is the sum of the kept products
        over its nonzero coordinates, and only a nonempty image is
        reduced.  With no generators in degree k+1 every image is zero."""
        dst = self.presentation(k + 1)
        if not dst.generators:
            return True
        src = self.presentation(k)
        images = {}
        for col, coeff in src.echelon.reduce_sparse(vec).items():
            coeff = plain(coeff)
            for i in self._reach(src.generators[col]):
                add_scaled(self.field, images.setdefault(i, {}), coeff,
                           self._product(i, k, col))
        return all(not image or dst.echelon.contains_sparse(image)
                   for image in images.values())

    def __repr__(self):
        return "<FaceRingQuotient n=%d over %r>" % (self.n, self.field)
