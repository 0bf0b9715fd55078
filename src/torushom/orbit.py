"""Cell structure of the quotient space of a torus manifold.

The poset describes the corner stratification: every proper face of rank k
becomes a cell of dimension n - k, and the incidence signs of the poset,
read upside down, give the boundary maps: the vertex-order signs with a
set of reversed faces, ``flips`` (``SimplicialPoset.sign_convention``).
Together these cells form the boundary of the quotient.  The user
supplies the remaining cells (those meeting the interior) explicitly,
with integer boundary coefficients.

Three chain complexes live here: the face cells alone ("boundary"), the
full cell structure ("space"), and the quotient by the face cells ("pair").
The boundary complex is the poset's face complex
(``SimplicialPoset.face_complex``); the other two are their cell bases
plus the interior cells' given terms, ``_cell_boundary``, and
``chains.ChainComplex`` keeps the boundaries as sparse columns.  The
space complex is built on the boundary complex, face cells first: it
keeps the face columns and resumes the boundary complex's eliminations,
so the face block is eliminated once per ring and the space's Smith
forms run only on the residual the face block's unit pivots leave.
The connecting map of the long exact sequence is computed once per degree
and coefficient system on explicit cellular representatives: ``delta_image``
lifts each pair cycle into the space basis by an index shift and returns
its boundary over the face cells with its coordinates over the boundary
homology generators, each {index: value}.  Both the coordinates and the
kernel of the inclusion are read off the kept echelon of the target's
boundary columns tracking the generators (``_tracked_echelon``, by
``Echelon.tracked``, the kernel reader the socle placement shares).  Over
Z that is the Q echelon, with the integral generators, which the torsion
guards make a basis over Z and Q alike.  Relation rows are built from the
chains; the socle and exactness checks read the coordinates as they come,
and give their verdicts by ``Echelon.kernel_spans``.
"""

from . import fields
from .chains import ChainComplex
from .errors import CoefficientError, ValidationError
from .fields import QQ, ZZ
from .posets import BOTTOM


# Which cells span each complex: (face cells, interior cells).
_SELECTORS = {
    "boundary": (True, False),
    "space": (True, True),
    "pair": (False, True),
}


def canonical_selector(name):
    key = str(name).strip().lower()
    if key not in _SELECTORS:
        raise ValidationError(
            "unknown homology selector %r; use boundary, space, or pair"
            % (name,))
    return key


class InteriorCell:
    """A cell of the quotient that is not a face cell.  The boundary is a
    list of (reference, coefficient) pairs; references name either poset
    elements (face cells) or other interior cells by id."""

    def __init__(self, cell_id, dim, boundary):
        self.id = cell_id
        self.dim = dim
        self.boundary = list(boundary)

    @classmethod
    def from_data(cls, data, index):
        """A cell from a dict with ``id``, ``dim`` and ``boundary``, entry
        ``index`` of a list of cells."""
        if isinstance(data, InteriorCell):
            return data
        if not isinstance(data, dict):
            raise ValidationError(
                "interior cell %r is not an object with id, dim and boundary"
                % (data,))
        try:
            cell_id, dim = data["id"], data["dim"]
        except KeyError as bad:
            named = " (id %r)" % (data["id"],) if "id" in data else ""
            raise ValidationError("interior cell %d%s is missing key %s"
                                  % (index, named, bad)) from None
        boundary = data.get("boundary", [])
        if not fields.is_id(cell_id):
            raise ValidationError(
                "interior cell id %r is not a string or integer" % (cell_id,))
        if not isinstance(boundary, (list, tuple)):
            raise ValidationError(
                "boundary of cell %r must be a list, got %r"
                % (cell_id, boundary))
        pairs = []
        for index, entry in enumerate(boundary):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValidationError(
                    "boundary entry %d of cell %r must be a [reference, "
                    "coefficient] pair, got %r" % (index, cell_id, entry))
            ref, coeff = entry
            if not fields.is_id(ref):
                raise ValidationError(
                    "boundary entry %d of cell %r has reference %r, which is "
                    "not a string or integer" % (index, cell_id, ref))
            if not fields.is_int(coeff):
                raise ValidationError(
                    "boundary coefficient %r of cell %r is not an integer"
                    % (coeff, cell_id))
            if coeff:
                pairs.append((ref, coeff))
        if not fields.is_int(dim) or dim < 0:
            raise ValidationError(
                "interior cell %r has bad dimension %r" % (cell_id, dim))
        return cls(cell_id, dim, pairs)


class CornerComplex:
    """Cellular model of the quotient space over a simplicial poset.  The
    face cells are oriented by ``poset.sign_convention(flips)``; interior
    boundaries are taken as given: a flip does not rewrite them."""

    def __init__(self, poset, interior_cells=(), orientable=True, flips=()):
        self.poset = poset
        self.n = poset.top_rank
        self.orientable = bool(orientable)
        self.flips = frozenset(flips)
        self.signs = poset.sign_convention(self.flips)
        self._face_dim = {}
        for e in poset.elements():
            self._face_dim[e] = self.n - poset.rank(e)
        self.interior = []
        self._interior = {}
        for index, data in enumerate(interior_cells):
            cell = InteriorCell.from_data(data, index)
            if cell.id in self._face_dim or cell.id is BOTTOM:
                raise ValidationError(
                    "interior cell id %r collides with a poset element" % (cell.id,))
            if cell.id in self._interior:
                raise ValidationError("duplicate interior cell id %r" % (cell.id,))
            if cell.dim > self.n:
                raise ValidationError(
                    "interior cell %r has dimension %d above the space dimension %d"
                    % (cell.id, cell.dim, self.n))
            self.interior.append(cell)
            self._interior[cell.id] = cell
        self._check_references()
        self._cache = {}
        self._delta = {}

    def _check_references(self):
        for cell in self.interior:
            if cell.dim == 0 and cell.boundary:
                raise ValidationError(
                    "zero-dimensional cell %r has a nonempty boundary" % (cell.id,))
            for ref, _ in cell.boundary:
                if ref in self._face_dim:
                    d = self._face_dim[ref]
                elif ref in self._interior:
                    d = self._interior[ref].dim
                else:
                    raise ValidationError(
                        "cell %r references unknown cell %r" % (cell.id, ref))
                if d != cell.dim - 1:
                    raise ValidationError(
                        "cell %r of dimension %d references %r of dimension %d"
                        % (cell.id, cell.dim, ref, d))

    # --- cell bookkeeping ----------------------------------------------

    def face_cells(self, dim):
        """Face cells of a given dimension, in poset element order."""
        if dim < 0 or dim > self.n - 1:
            return []
        return list(self.poset.elements_of_rank(self.n - dim))

    def interior_cells(self, dim):
        return sorted((c.id for c in self.interior if c.dim == dim), key=repr)

    def euler_characteristic(self):
        total = 0
        for e in self._face_dim:
            total += (-1) ** self._face_dim[e]
        for cell in self.interior:
            total += (-1) ** cell.dim
        return total

    # --- the three chain complexes -------------------------------------

    def complex_for(self, selector):
        key = canonical_selector(selector)
        if key not in self._cache:
            self._cache[key] = self._build(*_SELECTORS[key])
        return self._cache[key]

    def boundary_complex(self):
        return self.complex_for("boundary")

    def space_complex(self):
        return self.complex_for("space")

    def pair_complex(self):
        return self.complex_for("pair")

    def _cell_boundary(self, cell):
        """(cell, coefficient) terms of the boundary of an interior cell,
        as given."""
        return self._interior[cell].boundary

    def _build(self, face, interior):
        """The chain complex spanned by the face cells (the poset's face
        complex), the interior cells or both, the space built on the face
        complex.  ``ChainComplex`` drops the boundary terms on cells
        outside the basis, which is the quotient by the face cells for
        the pair."""
        if not interior:
            return self.poset.face_complex(self.flips)
        bases = {dim: ((self.face_cells(dim) if face else [])
                       + self.interior_cells(dim))
                 for dim in range(self.n + 1)}
        base = self.boundary_complex() if face else None
        return ChainComplex(bases, self._cell_boundary, base)

    # --- homology ------------------------------------------------------

    def homology(self, selector, degree=None, coeffs=ZZ):
        cx = self.complex_for(selector)
        if degree is None:
            return {k: cx.homology(k, coeffs)
                    for k in range(0, self.n + 1)}
        return cx.homology(degree, coeffs)

    # --- the connecting map --------------------------------------------

    def delta_image(self, q, coeffs=ZZ):
        """The image of the connecting map from the pair homology one degree
        up, as ``(chains, coords)``: ``chains`` are boundary-complex cycles,
        {index into ``boundary_complex().basis(q)``: value}, spanning the
        image, and ``coords`` their coordinates, {j: value} over the free
        generators g_j of ``boundary_complex().homology(q, coeffs)``.
        Computed once per (q, coeffs) and shared by every later call, so
        treat both lists as read-only.

        Over a field the coordinates kept are independent, so their count
        is the rank of the image.  Over the integers both groups involved
        must be torsion free, and every chain with a nonzero coordinate is
        kept: the chains generate the image lattice but need not be a basis
        of it.  A chain dropped there is a sum of face boundaries, whose
        pushes are sums of first-kind rows."""
        if q < 0 or q > self.n - 1:
            raise ValidationError(
                "connecting map lands in degrees 0..%d, not %d" % (self.n - 1, q))
        key = (q, coeffs)
        image = self._delta.get(key)
        if image is None:
            image = self._delta_image(q, coeffs)
            self._delta[key] = image
        return image

    def _delta_image(self, q, coeffs):
        pair = self.pair_complex()
        space = self.space_complex()
        face = self.boundary_complex()
        hpair = pair.homology(q + 1, coeffs)
        if hpair.torsion:
            raise CoefficientError(
                "pair homology in degree %d has torsion %r; use field coefficients"
                % (q + 1, hpair.torsion))
        hface = face.homology(q, coeffs)
        if hface.torsion:
            raise CoefficientError(
                "boundary homology in degree %d has torsion %r; use field "
                "coefficients" % (q, hface.torsion))
        if not hpair.free_generators or not hface.free_generators:
            return [], []

        # a pair cycle is a space chain on the interior cells, which follow
        # the face cells in the space basis
        shift = space.dim(q + 1) - pair.dim(q + 1)
        nface = face.dim(q)
        chains = []
        for rep in hpair.free_generators:
            chain = space.boundary_of(
                q + 1, {shift + i: x for i, x in rep.items()}, coeffs)
            if chain and max(chain) >= nface:
                raise ValidationError(
                    "pair cycle leaks onto interior cells in degree %d" % q)
            chains.append(chain)

        # H_q(∂Q; Z) is free, so its integral generators are a basis over
        # Q too: the rational coordinates of an integral cycle are integers
        field = QQ if coeffs is ZZ else coeffs
        echelon, m = self._tracked_echelon(hface, face, q, field)
        span = fields.Echelon(field)
        kept, coords = [], []
        for chain in chains:
            rest = echelon.reduce_sparse(chain)
            coord = {j - m: fields.plain(x) if coeffs is ZZ else x
                     for j, x in rest.items() if j >= m}
            if len(coord) < len(rest) or coeffs is ZZ and not all(
                    type(x) is int for x in coord.values()):
                raise ValidationError(
                    "connecting-map chain is not a cycle of the boundary "
                    "complex in degree %d" % q)
            # over Z every chain with a nonzero coordinate is kept: a
            # greedy choice over Q would drop [3] after [2]
            if coord if coeffs is ZZ else span.add_sparse(coord):
                kept.append(chain)
                coords.append(coord)
        return kept, coords

    @staticmethod
    def _tracked_echelon(hface, target, q, field):
        """The kept echelon over ``field`` of the boundary columns of
        ``target`` from degree q+1, tracking the free generators g_j of
        ``hface`` (the degree-q boundary homology) past its m cells of
        degree q (``Echelon.tracked``); face cells come first, so g_j keeps
        its indices.  A cycle c_j g_j + (a boundary) reduces to (0, c), and
        each combination of the g_j that bounds in ``target`` leaves a row
        past column m.  Returns it, m."""
        m = target.dim(q)
        echelon = target._echelon(q + 1, field)
        return echelon.tracked(hface.free_generators, m), m

    # --- validation ----------------------------------------------------

    def validate(self):
        """Structural soundness report; an empty list means the complex is
        usable.  Checks the boundary square on all three complexes and,
        when the orientability flag is set, the expected top pair class."""
        problems = []
        for selector in ("boundary", "space", "pair"):
            try:
                self.complex_for(selector).validate()
            except ValidationError as bad:
                problems.append("%s complex: %s" % (selector, bad))
        if not problems and self.orientable:
            top = self.pair_complex().homology(self.n, QQ)
            if top.rank != 1:
                problems.append(
                    "orientable flag set but the pair homology in degree %d "
                    "has rank %d, not 1" % (self.n, top.rank))
        return problems

    def consistency_violations(self, field=QQ):
        """Cross-checks between independently computed quantities: the cell
        count against homology, and the connecting map against the kernel
        of the inclusion, both read off tracked echelons."""
        problems = []
        problems.extend(self._euler_violations(field))
        problems.extend(self._exactness_violations(field))
        return problems

    def _euler_violations(self, field):
        by_cells = self.euler_characteristic()
        by_ranks = sum((-1) ** k * self.homology("space", k, field).rank
                       for k in range(self.n + 1))
        if by_cells != by_ranks:
            return ["cell count gives Euler characteristic %d but homology "
                    "gives %d" % (by_cells, by_ranks)]
        return []

    def _exactness_violations(self, field):
        """The image of the connecting map must agree with the kernel of
        the map induced by inclusion, degree by degree: the tail of the
        space complex's echelon tracking the boundary homology generators
        must be spanned by exactly the coordinates, tagged as they are."""
        problems = []
        for q in range(self.n):
            _, coords = self.delta_image(q, field)
            hface = self.boundary_complex().homology(q, field)
            echelon, m = self._tracked_echelon(hface, self.space_complex(),
                                               q, field)
            if not echelon.kernel_spans(m, coords):
                problems.append(
                    "connecting-map image and inclusion kernel differ in "
                    "degree %d" % q)
        return problems
