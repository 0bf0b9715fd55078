"""Smoke tests of the benchmark itself, on tiny shapes.

    python3 bench/smoke.py

Records reference digests for the tiny shapes in memory, then checks
that

1. every workload's result carries exactly the end-to-end metrics of
   BENCHMARK.json with their units, and its report lines name every
   metric of that workload with a sample count;
2. a corrupted reference digest is counted as a failed operation;
3. a traced run carries exactly the per-layer metrics of BENCHMARK.json,
   and two traced runs, in separate processes with different hash
   seeds, give identical counts (calls, cells, distinct keys).

Exits 0 when every check passes and 1 otherwise.  Takes well under a
minute.
"""

import json
import os
import shutil
import subprocess
import sys

from record import record_workload
from run import BENCH, ROOT, run_workload
from workloads import SMOKE_SHAPES, WORKLOADS

SEED = 3
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end lines each workload must print, besides the JSON result.
NAMED = {
    "polygons_q": ["setup_s", "report_check_s", "report_s", "check_s",
                   "failed_ratio", "peak_rss_mb"],
    "integral_z": ["setup_s", "homology_z_s", "failed_ratio",
                   "peak_rss_mb"],
    "products": ["setup_s", "product_s", "product_p90_s", "intersect_s",
                 "failed_ratio", "peak_rss_mb"],
}


def _workdir(tag):
    return BENCH / "_work" / ("smoke-%s-%d" % (tag, os.getpid()))


def _references(name):
    workdir = _workdir("record-" + name)
    try:
        return record_workload(name, workdir, SMOKE_SHAPES[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, references, seconds=0.5, trace=False):
    workdir = _workdir(name)
    try:
        return run_workload(name, SEED, seconds, trace, workdir, references,
                            shapes=SMOKE_SHAPES[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_metrics(name, references):
    result, lines = _run(name, references)
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append("%s: clean run reported failures: %s"
                        % (name, [l for l in lines if "failure" in l]))
    problems += _names_and_units(name, result, "end_to_end")
    for key, m in result["metrics"].items():
        if not isinstance(m["value"], float) or m["value"] <= 0:
            problems.append("%s: %s = %r" % (name, key, m["value"]))
    for metric in NAMED[name]:
        found = [l for l in lines if l.split()[:1] == [metric]]
        if not found:
            problems.append("%s: no %s line" % (name, metric))
        elif metric.endswith("_s") and "(n=" not in found[0]:
            problems.append("%s: %s has no sample count" % (name, metric))
    return problems


def check_corruption(name, references):
    """Corrupt the first recorded digest of every op group."""
    corrupted = {group: ("00000000" if digest[:8] != "00000000"
                         else "11111111") + digest[8:]
                 for group, digest in references.items()}
    result, _ = _run(name, corrupted)
    if result["failed"] < 1 or result["correct"]:
        return ["%s: corrupted digests not counted as failed (%d of %d)"
                % (name, result["failed"], result["attempted"])]
    return []


def _names_and_units(name, result, section):
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    if got != expected:
        return ["%s: %s metrics %r, BENCHMARK.json has %r"
                % (name, section, got, expected)]
    return []


def traced_result(name):
    result, _ = _run(name, _references(name), trace=True)
    return result


def check_trace_counts(name):
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, __file__, "--traced", name], env=env,
            capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            return ["%s: traced run failed: %s" % (name, proc.stderr[-500:])]
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    problems = _names_and_units(name, results[0], "per_layer")
    counts = [{key: m["value"] for key, m in r["metrics"].items()
               if m["unit"] == "count"} for r in results]
    if not counts[0] or counts[0] != counts[1]:
        diff = {k: (counts[0].get(k), counts[1].get(k))
                for k in set(counts[0]) | set(counts[1])
                if counts[0].get(k) != counts[1].get(k)}
        problems.append("%s: traced counts differ: %r" % (name, diff))
    return problems


def main(argv):
    if argv[:1] == ["--traced"]:
        print(json.dumps(traced_result(argv[1]), sort_keys=True))
        return 0
    problems = []
    for name in sorted(WORKLOADS):
        references = _references(name)
        problems += check_metrics(name, references)
        problems += check_corruption(name, references)
        problems += check_trace_counts(name)
        print("%s: %s" % (name, "ok" if not problems else "FAILED"),
              flush=True)
    for p in problems:
        print("problem: %s" % p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
