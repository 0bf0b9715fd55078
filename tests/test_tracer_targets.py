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
