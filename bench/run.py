"""Run one benchmark workload against the torushom sources in ``src/``.

    python3 bench/run.py --workload polygons_q --seed 1 --seconds 30 --trace 0

The run writes its seeded fixture files under ``bench/_work/``, measures
set-up (fixture loading), then calls the program in a closed loop for
``--seconds`` seconds, checking every result against its invariants and
against the digest recorded in ``bench/references.json``.  It prints the
metrics one per line, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are in reference seconds: wall time scaled by the
host's speed on a fixed kernel sampled between calls throughout the run
(see ``hostspeed.py``).  The raw wall times are printed as ``*_wall_s``.

With ``--trace 1`` it instead runs one fixed pass untraced and the same
pass again with spans around the public functions of every module (see
``tracer.py``), reports the per-layer metrics and the tracing overhead
(in wall seconds), and writes the spans to ``bench/_out/``.  Call and
``cells`` counts of a traced run depend only on the seed.
"""

import argparse
import gc
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 3
SETUP_INTERVAL = 1.0

END_TO_END = [("setup_s", "s"), ("call_s", "s"), ("peak_rss_mb", "MB")]

# Statistics of the traced run, by span name; each is printed as the
# metric ``<span>.<statistic>``.
_STATS = {
    "fields.rref": ("calls", "self_s", "cells"),
    "fields.rank": ("calls",),
    "fields.solve": ("calls",),
    "fields.nullspace": ("calls",),
    "snf.smith_normal_form": ("calls", "self_s", "cells"),
    "snf.int_solve": ("calls",),
    "snf.int_inverse": ("calls",),
    "chains.homology": ("calls", "self_s", "total_s"),
    "orbit.homology": ("calls",),
    "orbit.delta_image": ("calls", "total_s"),
    "orbit.consistency_violations": ("total_s",),
    "manifold.first_kind_rows": ("total_s",),
    "manifold.second_kind_rows": ("total_s",),
    "manifold.diagonal_page": ("calls", "total_s"),
    "manifold.kernel_of_g": ("total_s",),
    "manifold.novik_swartz_check": ("total_s",),
    "manifold.consistency_report": ("total_s",),
    "manifold.bigraded_table": ("total_s",),
    "facering.vertex_action": ("calls", "self_s"),
    "facering.reduce": ("calls", "self_s"),
    "facering.GradedPresentation": ("calls", "self_s"),
    "facering.in_socle": ("total_s",),
    "facering.socle_basis": ("total_s",),
    "posets.join_set": ("calls", "self_s"),
    "posets.le": ("calls", "self_s"),
    "posets.upper_covers": ("calls", "self_s"),
    "posets.h_prime_vector": ("total_s",),
    "posets.buchsbaum_check": ("total_s",),
    "charmat.c_coefficient": ("calls", "self_s"),
    "cycles.intersect": ("calls", "total_s"),
    "cycles.reduced_faces": ("total_s",),
    "cycles.bordism_moves": ("calls",),
    "cycles.oracle_lookups": ("calls",),
    "fixtures.parse_fixture": ("total_s",),
}
_UNITS = {"calls": "count", "cells": "count", "self_s": "s", "total_s": "s"}

# The per-layer metrics of the JSON result, as listed in BENCHMARK.json:
# every count, and the times that are nonzero on all three workloads.  A
# time that one workload never exercises reads 0 on every run there, so
# the rest are printed in the report lines only.
RESULT_PER_LAYER = [
    "fields.rref.calls", "fields.rref.cells", "fields.rank.calls",
    "fields.solve.calls", "fields.nullspace.calls",
    "snf.smith_normal_form.calls", "snf.smith_normal_form.cells",
    "snf.int_solve.calls", "snf.int_inverse.calls",
    "chains.homology.calls", "chains.homology.distinct",
    "chains.homology.distinct_ratio", "chains.homology.self_s",
    "chains.homology.total_s",
    "orbit.homology.calls", "orbit.delta_image.calls",
    "orbit.delta_image.total_s",
    "manifold.diagonal_page.calls", "manifold.first_kind_rows.total_s",
    "manifold.second_kind_rows.total_s",
    "facering.vertex_action.calls", "facering.reduce.calls",
    "facering.GradedPresentation.calls",
    "posets.join_set.calls", "posets.le.calls", "posets.upper_covers.calls",
    "posets.upper_covers.self_s",
    "charmat.c_coefficient.calls", "charmat.c_coefficient.self_s",
    "cycles.intersect.calls", "cycles.bordism_moves.calls",
    "cycles.oracle_lookups.calls",
    "fixtures.parse_fixture.total_s",
    "trace.overhead_s",
]


def per_layer_metrics(tracer):
    """Every per-layer metric of a traced pass, as {name: (value, unit)}."""
    out = {}
    for span, stats in _STATS.items():
        for stat in stats:
            out["%s.%s" % (span, stat)] = (tracer.stat(span, stat),
                                           _UNITS[stat])
    calls = tracer.stat("chains.homology", "calls")
    distinct = len(tracer.homology_keys)
    out["chains.homology.distinct"] = (distinct, "count")
    out["chains.homology.distinct_ratio"] = (
        distinct / calls if calls else 0.0, "1")
    return out


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


class FixtureFiles:
    """The seeded fixture files of one run, written before any timing."""

    def __init__(self, directory, shapes):
        self.shapes = list(shapes)
        directory.mkdir(parents=True, exist_ok=True)
        self._files = {(shape, variant): fixturegen.write_fixture(
                           directory, shape, variant)
                       for shape in self.shapes
                       for variant in range(fixturegen.POOL)}

    def get(self, shape, variant):
        return self._files[(shape, variant)]

    def paths(self):
        return [path for path, _ in self._files.values()]


class SetupSampler:
    """Times set-up: loading one fixture file into a ``Fixture``.

    A round loads every file of the run once.  ``SETUP_ROUNDS`` rounds run
    before the calls start, and one more after each ``SETUP_INTERVAL``
    seconds of the run, so that the median spans the whole run rather
    than whatever the host was doing in its first fraction of a second.
    """

    def __init__(self, files):
        self.files = files
        self.samples = []
        self.due = None
        for path in files.paths():
            if resolve_fixture(str(path)).corner.validate():
                raise RuntimeError("generated fixture %s does not validate"
                                   % path)
        for _ in range(SETUP_ROUNDS):
            self.round()

    def round(self):
        # The cyclic collector is off while a load is timed, as timeit
        # does: its pauses scale with whatever the workload holds live at
        # that moment, not with the cost of loading.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for path in self.files.paths():
                start = time.perf_counter()
                resolve_fixture(str(path))
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.due = time.perf_counter() + SETUP_INTERVAL

    def tick(self):
        if time.perf_counter() >= self.due:
            self.round()

    def median(self):
        return statistics.median(self.samples)


class Tally:
    """Latency samples per kind of call and per shape, and the failure
    count."""

    def __init__(self, name):
        self.name = name
        self.samples = {kind: {} for kind in workloads.KINDS[name]}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._report_time = {}

    def add(self, op, seconds):
        self.samples[op.kind].setdefault(op.shape, []).append(seconds)
        if op.kind == "report":
            self._report_time[op.group] = seconds
        elif op.kind == "check" and op.group in self._report_time:
            self.samples["report_check"].setdefault(op.shape, []).append(
                self._report_time.pop(op.group) + seconds)

    def fail(self, op, problem):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append("%s %s[%d]: %s"
                                 % (op.kind, op.group, op.index, problem))

    def values(self, kind):
        return [v for values in self.samples[kind].values() for v in values]

    def median(self, kind):
        """The median time of one call of a kind, averaged over shapes.

        Shapes differ several-fold in cost, so a median over all of a
        run's calls would be the median of whichever shape sits in the
        middle; averaging the per-shape medians uses every call."""
        series = [values for values in self.samples[kind].values() if values]
        if not series:
            return None
        return statistics.mean(statistics.median(v) for v in series)


def run_ops(tally, ops, deadline, references, record=None, samplers=(),
            tracer=None):
    """Time each op, then check its result.  Stops at the first end of a
    pass (a ``None`` in ``ops``) after the deadline, or when the ops run
    out.  With ``record`` given, store each result's digest there instead
    of comparing it; each of ``samplers`` takes its samples between ops;
    with ``tracer`` given, open a root span ``bench.<kind>`` around each
    op, whose id identifies the request in the span dump."""
    for op in ops:
        for sampler in samplers:
            sampler.tick()
        if op is None:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            continue
        tally.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.span("bench." + op.kind):
                    result = op.call()
        except Exception as exc:  # a raising call is a failed operation
            tally.add(op, time.perf_counter() - start)
            tally.fail(op, "raised %s: %s" % (type(exc).__name__, exc))
            continue
        elapsed = time.perf_counter() - start
        tally.add(op, elapsed)
        try:
            problems = op.verify(result)
            got = digest(workloads.canonical(op, result))
        except Exception as exc:  # malformed output fails the operation
            tally.fail(op, "check raised %s: %s" % (type(exc).__name__, exc))
            continue
        if record is not None:
            record.setdefault(op.group, {})[op.index] = got
        else:
            recorded = references.get(op.group, "")[8 * op.index:
                                                    8 * op.index + 8]
            if got != recorded:
                problems = problems + ["output digest %s, recorded %r"
                                       % (got, recorded)]
        if problems:
            tally.fail(op, "; ".join(problems))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, workdir, references,
                 shapes=None, out_dir=None):
    """Run one workload; returns (result object, report lines)."""
    shapes = shapes or workloads.SHAPES[name]
    files = FixtureFiles(workdir, shapes)
    clock = HostClock()
    setup = SetupSampler(files)
    make_ops = workloads.WORKLOADS[name]
    lines = ["workload %s, seed %d, shapes %s"
             % (name, seed, " ".join(fixturegen.shape_key(s)
                                     for s in shapes))]

    kind = workloads.KINDS[name][0]
    plain = Tally(name)
    if not trace:
        deadline = time.perf_counter() + seconds
        run_ops(plain, make_ops(files, seed, itertools.count()), deadline,
                references, samplers=(setup, clock))
        metrics = {
            "setup_s": setup.median() * clock.scale(),
            "call_s": plain.median(kind) * clock.scale(),
            "peak_rss_mb": peak_rss_mb(),
        }
        lines.extend(_kind_lines(plain, clock.scale()))
        lines.append(_line("peak_rss_mb", metrics["peak_rss_mb"], "MB"))
        units = dict(END_TO_END)
    else:
        run_ops(plain, make_ops(files, seed, [0]), None, references,
                samplers=(clock,))
        traced = Tally(name)
        tracer = Tracer()
        tracer.install()
        try:
            run_ops(traced, make_ops(files, seed, [0]), None, references,
                    samplers=(clock,), tracer=tracer)
        finally:
            tracer.uninstall()
        layer = per_layer_metrics(tracer)
        layer["trace.overhead_s"] = (traced.median(kind) - plain.median(kind),
                                     "s")
        metrics = {key: layer[key][0] for key in RESULT_PER_LAYER}
        units = {key: layer[key][1] for key in RESULT_PER_LAYER}
        lines.append("untraced pass:")
        lines.extend(_kind_lines(plain, clock.scale()))
        lines.append("traced pass:")
        lines.extend(_kind_lines(traced, clock.scale()))
        for each in workloads.KINDS[name]:
            a, b = plain.median(each), traced.median(each)
            if a is not None and b is not None:
                lines.append(_line("trace overhead %s" % each, b - a, "s")
                             + " (%.1f%%)" % (100.0 * (b - a) / a))
        for key in sorted(layer):
            lines.append(_line(key, *layer[key]))
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            dump = out_dir / ("trace-%s-seed%d.json" % (name, seed))
            tracer.dump(dump)
            lines.append("spans written to %s (%d kept, %d dropped)"
                         % (dump.relative_to(ROOT), len(tracer.span_id),
                            tracer.dropped))
        plain.attempted += traced.attempted
        plain.failed += traced.failed
        plain.problems += traced.problems

    lines[1:1] = [
        _line("host kernel", statistics.median(clock.samples), "s",
              len(clock.samples)) + " (scale %.4f)" % clock.scale(),
        _line("setup_s", setup.median() * clock.scale(), "s",
              len(setup.samples)),
        _line("setup_wall_s", setup.median(), "s", len(setup.samples)),
    ]
    ratio = plain.failed / plain.attempted if plain.attempted else 1.0
    lines.append("failed_ratio %.6g (1)  %d failed of %d attempted"
                 % (ratio, plain.failed, plain.attempted))
    lines.extend("failure: %s" % p for p in plain.problems)
    result = {
        "correct": plain.failed == 0 and plain.attempted > 0,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    return result, lines


def _kind_lines(tally, scale):
    """Median and, with enough samples, 90th percentile of each kind of
    call, in reference seconds and in wall seconds."""
    lines = []
    for kind in tally.samples:
        values = tally.values(kind)
        if not values:
            continue
        stats = [("", tally.median(kind))]
        if len(values) >= 100:
            stats.append(("_p90", statistics.quantiles(values, n=10)[-1]))
        for suffix, value in stats:
            lines.append(_line("%s%s_s" % (kind, suffix), value * scale, "s",
                               len(values)))
            lines.append(_line("%s%s_wall_s" % (kind, suffix), value, "s",
                               len(values)))
    return lines


def _line(name, value, unit, count=None):
    text = "%-40s %.6g %s" % (name, value, unit)
    if count is not None:
        text += "  (n=%d)" % count
    return text


def load_references(name):
    path = BENCH / "references.json"
    return json.loads(path.read_text()).get(name, {})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = BENCH / "_work" / ("%s-%d" % (args.workload, args.seed))
    try:
        result, lines = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, load_references(args.workload),
            out_dir=BENCH / "_out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if not (SRC / "torushom" / "__init__.py").is_file():
    sys.exit("bench: no torushom sources at %s; run from a checkout of the "
             "repository" % SRC)
sys.path[:0] = [str(SRC), str(BENCH)]

import fixturegen  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

from torushom.fixtures import resolve_fixture  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
