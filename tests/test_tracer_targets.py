"""Every function the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` looks each target up in the owner's ``__dict__``, so
renaming a traced function would crash a traced benchmark run; this test
catches it first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name,module,path,cells_arg", _targets())
def test_target_resolves(name, module, path, cells_arg):
    owner = importlib.import_module("torushom." + module)
    attr = path
    if "." in path:
        cls_name, attr = path.split(".")
        owner = owner.__dict__[cls_name]
    assert callable(owner.__dict__[attr]), name



def test_traced_smith_forms_match_a_plain_count():
    """The tracer's ``snf.smith_normal_form`` calls and cells (rows x
    columns of the dense input) over every Z homology group of
    square_hole equal a count taken by a plain wrapper of the module
    attribute, which every caller in the package goes through.  A Smith
    form reached around that name (which the tracer would still count
    through the names it rebinds), or one handed a matrix that is not a
    dense list of equal rows, fails here instead of silently changing
    what the per-layer metric counts."""
    from torushom import snf
    from torushom.fields import ZZ
    from torushom.fixtures import resolve_fixture

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    plain = {"calls": 0, "cells": 0}

    tracer = tracer_module.Tracer().install()
    traced = snf.smith_normal_form

    def counted(m):
        assert isinstance(m, list)
        assert all(isinstance(row, list) for row in m)
        ncols = len(m[0]) if m else 0
        assert all(len(row) == ncols for row in m)
        plain["calls"] += 1
        plain["cells"] += len(m) * ncols
        return traced(m)

    snf.smith_normal_form = counted
    try:
        manifold = resolve_fixture("square_hole").manifold
        for selector in ("boundary", "space", "pair"):
            manifold.corner.homology(selector, coeffs=ZZ)
        manifold.bigraded_table(ZZ)
    finally:
        snf.smith_normal_form = traced
        tracer.uninstall()
    assert plain["calls"] > 0
    assert tracer.stat("snf.smith_normal_form", "calls") == plain["calls"]
    assert tracer.stat("snf.smith_normal_form", "cells") == plain["cells"]
