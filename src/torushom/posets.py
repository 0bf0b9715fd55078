"""Finite simplicial posets.

A simplicial poset has a least element and every lower interval is a
boolean lattice.  Unlike a simplicial complex, two elements may share the
same vertex set (a digon has two edges on the same pair of vertices), so
elements carry explicit ids and, where necessary, explicit face lists.

The least element is represented by the constant ``BOTTOM`` and is never
listed among the cells.

Incidence signs are the vertex-order table with a set of faces reversed
(``sign_convention``).  The face complex (``face_complex``), kept per
set of reversed faces, is the augmented chain complex with the bottom
dropped and every incidence matrix transposed: the reduced Betti numbers
read its ranks, and it is the boundary complex of the quotient space
(``orbit``).  A link's chains are the local complex of its element: the
elements above it plus their signed lower covers (``_local_complex``).
``chains.ChainComplex`` builds and keeps the boundaries as sparse
columns.
"""

from math import comb

from .chains import ChainComplex
from .errors import ValidationError
from .fields import QQ

BOTTOM = None


class SimplicialPoset:
    """Built from a list of vertex ids and a list of cell dicts.

    Each cell dict has an ``id``, its ``vertices``, and optionally
    ``faces``: the ids of its codimension-one faces.  When several cells
    share a vertex set the face lists of anything above them are required;
    otherwise they are inferred.
    """

    def __init__(self, vertices, cells):
        self._sorted = None
        self._tops_above = None
        self._ver = {BOTTOM: frozenset()}
        self._faces = {BOTTOM: {}}
        self._on_vertices = {frozenset(): [BOTTOM]}
        for v in vertices:
            if v in self._ver or v is BOTTOM:
                raise ValidationError("duplicate or reserved vertex id %r" % (v,))
            self._ver[v] = frozenset([v])
            self._faces[v] = {frozenset(): BOTTOM, frozenset([v]): v}
            self._on_vertices[frozenset([v])] = [v]
        try:
            sorted(vertices)
        except TypeError:
            raise ValidationError("vertex ids must be mutually sortable")
        for cell in sorted(cells, key=lambda c: len(c["vertices"])):
            self._add_cell(cell)
        self._by_rank = {}
        for e, vs in self._ver.items():
            if e is BOTTOM:
                continue
            self._by_rank.setdefault(len(vs), []).append(e)
        for k in self._by_rank:
            self._by_rank[k].sort(key=lambda e: repr(e))
        for same in self._on_vertices.values():
            same.sort(key=repr)
        # order relations, built once: the faces below each element and
        # the covers above it (in elements_of_rank order)
        self._below = {e: frozenset(fmap.values())
                       for e, fmap in self._faces.items()}
        self._covers = {e: [] for e in self._ver}
        for e in self.elements():
            for f in self.lower_covers(e):
                self._covers[f].append(e)
        self._face_complexes = {}
        self._default_signs = None
        self.validate()

    def _add_cell(self, cell):
        eid = cell["id"]
        vs = frozenset(cell["vertices"])
        if eid in self._ver or eid is BOTTOM:
            raise ValidationError("duplicate or reserved cell id %r" % (eid,))
        if len(vs) < 2:
            raise ValidationError(
                "cell %r must have at least two vertices" % (eid,))
        if len(vs) != len(cell["vertices"]):
            raise ValidationError("cell %r repeats a vertex" % (eid,))
        missing = [v for v in vs if v not in self._ver or len(self._ver[v]) != 1]
        if missing:
            raise ValidationError(
                "cell %r uses undeclared vertices %r" % (eid, missing))
        if "faces" in cell:
            face_ids = list(cell["faces"])
        else:
            face_ids = []
            for v in sorted(vs):
                sub = vs - {v}
                cands = self._on_vertices.get(sub, [])
                if len(cands) != 1:
                    raise ValidationError(
                        "cell %r: face with vertices %r is %s; list faces "
                        "explicitly" % (eid, sorted(sub),
                                        "absent" if not cands else "ambiguous"))
                face_ids.append(cands[0])
        # assemble the full boolean face map from the codimension-one faces
        fmap = {vs: eid}
        seen_subsets = set()
        for f in face_ids:
            if f not in self._ver:
                raise ValidationError("cell %r lists unknown face %r" % (eid, f))
            fvs = self._ver[f]
            if len(fvs) != len(vs) - 1 or not fvs <= vs:
                raise ValidationError(
                    "cell %r: %r is not a codimension-one face" % (eid, f))
            if fvs in seen_subsets:
                raise ValidationError(
                    "cell %r has two faces on vertices %r" % (eid, sorted(fvs)))
            seen_subsets.add(fvs)
            for sub, e in self._faces[f].items():
                if sub in fmap and fmap[sub] != e:
                    raise ValidationError(
                        "cell %r: faces disagree on the sub-face with "
                        "vertices %r" % (eid, sorted(sub)))
                fmap[sub] = e
        if len(seen_subsets) != len(vs):
            raise ValidationError("cell %r is missing a face" % (eid,))
        self._ver[eid] = vs
        self._faces[eid] = fmap
        self._on_vertices.setdefault(vs, []).append(eid)

    # --- basic queries -------------------------------------------------

    def elements(self, include_bottom=False):
        """The elements by rank, then by repr; sorted on first use and
        kept, and handed out as a fresh list."""
        if self._sorted is None:
            self._sorted = sorted((e for e in self._ver if e is not BOTTOM),
                                  key=lambda e: (len(self._ver[e]), repr(e)))
        if include_bottom:
            return [BOTTOM] + self._sorted
        return list(self._sorted)

    def vertices(self):
        return sorted(self._by_rank.get(1, []))

    def elements_of_rank(self, k):
        if k == 0:
            return [BOTTOM]
        return list(self._by_rank.get(k, []))

    def rank(self, e):
        return len(self._ver[e])

    def ver(self, e):
        return self._ver[e]

    @property
    def top_rank(self):
        return max(self._by_rank) if self._by_rank else 0

    def face(self, e, subset):
        """The unique face of e whose vertex set is the given subset."""
        sub = frozenset(subset)
        try:
            return self._faces[e][sub]
        except KeyError:
            raise ValidationError(
                "%r has no face on vertices %r" % (e, sorted(sub)))

    def le(self, a, b):
        if a is BOTTOM or a == b:
            return True
        return a in self._below[b]

    def lower_covers(self, e):
        if e is BOTTOM:
            return []
        vs = self._ver[e]
        return [self._faces[e][vs - {v}] for v in sorted(vs)]

    def upper_covers(self, e):
        return list(self._covers[e])

    def tops_above(self, e):
        """The elements of top rank above e (e itself if it has top rank),
        in ``elements_of_rank`` order.  They are found for every element
        at once on first use, from the faces of each top element, and
        kept."""
        if self._tops_above is None:
            above = {f: [] for f in self._ver}
            for m in self.elements_of_rank(self.top_rank):
                for f in self._below[m]:
                    above[f].append(m)
            self._tops_above = above
        return list(self._tops_above[e])

    def is_pure(self):
        """Whether every element with no cover has top rank."""
        n = self.top_rank
        return all(self._covers[e] or self.rank(e) == n
                   for e in self.elements())

    def join_set(self, a, b):
        """Elements that are minimal upper bounds of a and b with vertex set
        ver(a) | ver(b).  Empty when a and b span no common cell."""
        target = self._ver[a] | self._ver[b]
        return [e for e in self._on_vertices.get(target, ())
                if self.le(a, e) and self.le(b, e)]

    # --- validation ----------------------------------------------------

    def validate(self):
        for e in self.elements():
            vs = self._ver[e]
            fmap = self._faces[e]
            if len(fmap) != 2 ** len(vs):
                raise ValidationError(
                    "lower interval of %r is not boolean" % (e,))
            for sub in fmap:
                if not sub <= vs:
                    raise ValidationError(
                        "face map of %r mentions foreign vertices" % (e,))
                if self._ver[fmap[sub]] != sub:
                    raise ValidationError(
                        "face map of %r is inconsistent at %r" % (e, sorted(sub)))
        return self

    # --- sign conventions ----------------------------------------------

    def sign_convention(self, flips=()):
        """Incidence signs on the cover pairs, {(e, f): +-1}: the
        vertex-order table, where removing the t-th smallest vertex of a
        cell gives (-1)**t and each vertex meets the bottom with +1, with
        the sign of (e, f) negated when exactly one of e, f is in
        ``flips``.  Every +-1 table on the cover pairs with ∂∂ = 0 is one
        of these.  Each call hands out a new dict.  Raises
        ValidationError naming a flip that is not a face above the
        bottom."""
        if self._default_signs is None:
            self._default_signs = {
                (e, self._faces[e][self._ver[e] - {v}]): (-1) ** t
                for e in self.elements()
                for t, v in enumerate(sorted(self._ver[e]))}
        signs = dict(self._default_signs)
        for e in frozenset(flips):
            if e is BOTTOM or e not in self._ver:
                raise ValidationError(
                    "cannot reverse %r: it is not a face above the bottom"
                    % (e,))
            # a pair between two flipped faces is negated twice
            for pair in ([(e, f) for f in self.lower_covers(e)]
                         + [(g, e) for g in self._covers[e]]):
                signs[pair] = -signs[pair]
        return signs

    # --- chain complexes and counting ----------------------------------

    def face_complex(self, flips=()):
        """A rank-k element as a cell of dimension n - k, n the top rank,
        bounded by its upper covers under ``sign_convention(flips)``;
        built once per flip set and kept, so its eliminations serve every
        reader.  ∂∂ = 0 is checked once per degree, on the first homology
        read or by ``validate``."""
        key = frozenset(flips)
        cx = self._face_complexes.get(key)
        if cx is None:
            signs, n = self.sign_convention(key), self.top_rank
            cx = ChainComplex(
                {n - k: self.elements_of_rank(k) for k in range(1, n + 1)},
                lambda e: [(g, signs[(g, e)]) for g in self._covers[e]])
            self._face_complexes[key] = cx
        return cx

    def reduced_betti(self, field=QQ):
        """Reduced Betti numbers over a field, indexed -1 .. top_rank-1:
        β̃_j = dim H_{n-1-j} - [j = 0] of ``face_complex()``, the dropped
        bottom giving the [j = 0].  β̃_{-1} = 1 only with no vertices,
        the empty link of a top cell."""
        n, cx = self.top_rank, self.face_complex()
        betti = {-1: int(not self._by_rank)}
        for j in range(n):
            betti[j] = cx.homology(n - 1 - j, field).rank - (j == 0)
        return betti

    def f_vector(self):
        """(f_-1, f_0, ..., f_{n-1}) with f_-1 = 1 counting the bottom."""
        n = self.top_rank
        return tuple([1] + [len(self.elements_of_rank(k))
                            for k in range(1, n + 1)])

    def h_vector(self):
        f = self.f_vector()
        n = self.top_rank
        h = []
        for k in range(n + 1):
            total = 0
            for i in range(k + 1):
                total += (-1) ** (k - i) * comb(n - i, k - i) * f[i]
            h.append(total)
        return tuple(h)

    def h_prime_vector(self, field=QQ):
        """The h-vector corrected by lower reduced Betti numbers; these are
        the diagonal dimensions that survive in quotient constructions."""
        h = self.h_vector()
        n = self.top_rank
        betti = self.reduced_betti(field)
        out = [h[0]]
        for k in range(1, n + 1):
            corr = 0
            for j in range(1, k):
                corr += (-1) ** (k - j - 1) * betti[j - 1]
            out.append(h[k] + comb(n, k) * corr)
        return tuple(out)

    # --- local acyclicity ----------------------------------------------

    def _local_complex(self, e, signs):
        """The chains of the elements above e, reached rank by rank through
        the covers: e spans degree -1 and an element of rank r sits in
        degree r - rank(e) - 1.  The elements above e are closed upward, so
        this is a quotient of the augmented complex, ∂∂ = 0 holds as it
        does there, and its homology is the reduced homology of the link of e:
        the lower covers not above e fall outside the bases and drop out."""
        bases, level = {-1: [e]}, [e]
        while level:
            level = sorted({x for y in level for x in self._covers[y]},
                           key=repr)
            bases[len(bases) - 1] = level
        return ChainComplex(bases, lambda x: [(f, signs[(x, f)])
                                              for f in self.lower_covers(x)])

    def buchsbaum_check(self, field=QQ):
        """Purity plus vanishing reduced homology of every proper link below
        its top degree.  Returns (ok, list of failures).

        Degree -1 of a link is nonzero exactly when its element has no
        cover, which is also what makes a poset impure, and then its link
        has no other degree: both are read off the covers.  The degrees
        0 .. top-2, top being the corank of the element, are read from its
        local complex under the vertex-order signs, built only at corank
        2 and more."""
        failures, signs = [], None
        n = self.top_rank
        for e in self.elements():
            top = n - self.rank(e)
            if top and not self._covers[e]:
                failures.append((e, -1))
            elif top >= 2:
                signs = signs or self.sign_convention()
                chains = self._local_complex(e, signs)
                failures += [(e, j) for j in range(top - 1)
                             if chains.homology(j, field).rank]
        if not self.is_pure():
            failures.insert(0, ("purity", None))
        return (not failures, failures)

    def __repr__(self):
        return "<SimplicialPoset rank %d, f=%s>" % (self.top_rank,
                                                    self.f_vector())
