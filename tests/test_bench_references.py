"""The benchmark's recorded output digests, checked in the test suite.

Runs pass 0 of every workload at seed 1 through ``bench/run.py``'s own
``FixtureFiles``, ``Tally`` and ``run_ops``, against
``bench/references.json``, so an output change that the benchmark would
count as a failed operation fails here first.  The fixture files go to a
temporary directory; nothing under ``bench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench_run():
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_run",
                                                      BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_pass_zero_matches_the_recorded_digests(bench_run, name, tmp_path):
    workloads = bench_run.workloads
    files = bench_run.FixtureFiles(tmp_path, workloads.SHAPES[name])
    tally = bench_run.Tally(name)
    bench_run.run_ops(tally, workloads.WORKLOADS[name](files, 1, [0]), None,
                      bench_run.load_references(name))
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems
