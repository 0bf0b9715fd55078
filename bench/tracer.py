"""Spans around the public functions of each torushom module.

``Tracer.install`` replaces each traced function or method by a wrapper
that records a span, and rebinds the wrapper in every ``torushom``
module that imported the name directly (``facering`` imports ``rref``,
``rank``, ``nullspace``, ``solve`` and ``row_space_contains`` from
``fields``, so patching ``fields`` alone would miss those calls).
``uninstall`` puts the originals back.

Each span records its name, start, end and parent; spans stay in memory
(up to ``MAX_SPANS``, after which only the aggregates are kept) and are
written out by ``dump``.  Aggregates per name: calls, inclusive time
(outermost activation only, so recursion is not counted twice), self
time (duration minus the time covered by child spans) and, for matrix
kernels, ``cells`` = rows x columns of the input matrix.
"""

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path, cells argument or None)
TARGETS = [
    ("fields.rref", "fields", "rref", 0),
    ("fields.rank", "fields", "rank", None),
    ("fields.solve", "fields", "solve", None),
    ("fields.nullspace", "fields", "nullspace", None),
    ("fields.row_space_contains", "fields", "row_space_contains", None),
    ("snf.smith_normal_form", "snf", "smith_normal_form", 0),
    ("snf.int_solve", "snf", "int_solve", None),
    ("snf.int_inverse", "snf", "int_inverse", None),
    ("snf.int_kernel", "snf", "int_kernel", None),
    ("chains.homology", "chains", "ChainComplex.homology", None),
    ("orbit.homology", "orbit", "CornerComplex.homology", None),
    ("orbit.delta_image", "orbit", "CornerComplex.delta_image", None),
    ("orbit.consistency_violations", "orbit",
     "CornerComplex.consistency_violations", None),
    ("orbit.validate", "orbit", "CornerComplex.validate", None),
    ("manifold.first_kind_rows", "manifold", "TorusManifold.first_kind_rows",
     None),
    ("manifold.second_kind_rows", "manifold",
     "TorusManifold.second_kind_rows", None),
    ("manifold.diagonal_page", "manifold", "TorusManifold.diagonal_page",
     None),
    ("manifold.kernel_of_g", "manifold", "TorusManifold.kernel_of_g", None),
    ("manifold.novik_swartz_check", "manifold",
     "TorusManifold.novik_swartz_check", None),
    ("manifold.consistency_report", "manifold",
     "TorusManifold.consistency_report", None),
    ("manifold.bigraded_table", "manifold", "TorusManifold.bigraded_table",
     None),
    ("manifold.total_betti", "manifold", "TorusManifold.total_betti", None),
    ("facering.vertex_action", "facering", "FaceRingQuotient.vertex_action",
     None),
    ("facering.reduce", "facering", "GradedPresentation.reduce", None),
    ("facering.GradedPresentation", "facering",
     "GradedPresentation.__init__", None),
    ("facering.in_socle", "facering", "FaceRingQuotient.in_socle", None),
    ("facering.socle_basis", "facering", "FaceRingQuotient.socle_basis",
     None),
    ("posets.join_set", "posets", "SimplicialPoset.join_set", None),
    ("posets.le", "posets", "SimplicialPoset.le", None),
    ("posets.upper_covers", "posets", "SimplicialPoset.upper_covers", None),
    ("posets.h_prime_vector", "posets", "SimplicialPoset.h_prime_vector",
     None),
    ("posets.buchsbaum_check", "posets", "SimplicialPoset.buchsbaum_check",
     None),
    ("charmat.c_coefficient", "charmat", "CharacteristicMatrix.c_coefficient",
     None),
    ("cycles.intersect", "cycles", "IntersectionCalculator.intersect", None),
    ("cycles.reduced_faces", "cycles", "IntersectionCalculator.reduced_faces",
     None),
    ("cycles.bordism_moves", "cycles", "BordismDatum.face_part", None),
    ("cycles.oracle_lookups", "cycles", "GeometryOracle.pairing", None),
    ("fixtures.parse_fixture", "fixtures", "parse_fixture", None),
]


def _homology_key(args, kwargs):
    """Content key of a ``ChainComplex.homology`` call: the degree, the
    coefficients and the two boundary matrices around the degree."""
    cx, k = args[0], args[1]
    coeffs = args[2] if len(args) > 2 else kwargs.get("coeffs")
    name = getattr(coeffs, "name", "Z")
    return (k, name, repr(cx.basis(k)), repr(cx.basis(k - 1)),
            repr(cx.basis(k + 1)), repr(cx.boundaries.get(k)),
            repr(cx.boundaries.get(k + 1)))


MAX_SPANS = 200000


class Tracer:
    """Records spans for the functions in ``TARGETS``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.cells = {}
        self.homology_keys = set()
        self._active = {}
        self._stack = []  # [name, start, child time, span id, name id, parent]
        self._patches = []

    # --- spans -----------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.total, self.self_time):
                table[name] = 0
        return nid

    def _open(self, name):
        nid = self._name_id(name)
        parent = self._stack[-1][3] if self._stack else -1
        span_id = self._next_id
        self._next_id += 1
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0, span_id, nid,
                            parent])

    def _close(self):
        end = time.perf_counter()
        name, start, child, span_id, nid, parent = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        depth = self._active[name] - 1
        self._active[name] = depth
        if depth == 0:
            self.total[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.span_id) < MAX_SPANS:
            self.span_id.append(span_id)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(end)
        else:
            self.dropped += 1

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    # --- patching --------------------------------------------------------

    def install(self):
        for name, module, path, cells_arg in TARGETS:
            mod = importlib.import_module("torushom." + module)
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, cells_arg)
            self._patch(owner, attr, original, wrapper)
            if owner is mod:
                for other in list(sys.modules.values()):
                    if (other is not mod and other is not None
                            and getattr(other, "__name__", "").startswith(
                                "torushom")
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, original, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, cells_arg):
        tracer = self
        if name == "chains.homology":
            def wrapper(*args, **kwargs):
                tracer.homology_keys.add(_homology_key(args, kwargs))
                tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()
        elif cells_arg is not None:
            def wrapper(*args, **kwargs):
                rows = args[cells_arg]
                ncells = len(rows) * (len(rows[0]) if rows else 0)
                tracer.cells[name] = tracer.cells.get(name, 0) + ncells
                tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()
        else:
            def wrapper(*args, **kwargs):
                tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- output ----------------------------------------------------------

    def stat(self, name, kind):
        if kind == "calls":
            return self.calls.get(name, 0)
        if kind == "total_s":
            return self.total.get(name, 0.0)
        if kind == "self_s":
            return self.self_time.get(name, 0.0)
        if kind == "cells":
            return self.cells.get(name, 0)
        raise ValueError(kind)

    def dump(self, path):
        """Write the recorded spans and aggregates as one JSON file."""
        payload = {
            "names": self.names,
            "spans": {"id": list(self.span_id),
                      "name": list(self.span_name),
                      "parent": list(self.span_parent),
                      "start": list(self.span_start),
                      "end": list(self.span_end)},
            "dropped_spans": self.dropped,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "cells": self.cells,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close()
        return False
