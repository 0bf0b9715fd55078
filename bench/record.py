"""Record the output digests that ``run.py`` checks results against.

    python3 bench/record.py

Runs every op of every workload on every row assignment of the fixture
pool once, and writes ``bench/references.json``: for each workload, a map
from op group to the concatenated 8-hex-digit digests of the group's
results in op order.  Re-run it only when the program's output is meant
to change; the digests are what ties a later commit's results to the
commit that recorded them.
"""

import json
import shutil
import sys

from run import BENCH, FixtureFiles, Tally, run_ops

from fixturegen import POOL
from workloads import SHAPES, WORKLOADS


def record_workload(name, workdir, shapes=None):
    """Digest strings by op group for one workload over the whole pool;
    raises when any op fails its invariants."""
    files = FixtureFiles(workdir, shapes or SHAPES[name])
    digests = {}
    tally = Tally(name)
    run_ops(tally, WORKLOADS[name](files, 0, range(POOL)), None, {}, digests)
    if tally.failed:
        raise RuntimeError("%s: %d of %d ops failed: %s"
                           % (name, tally.failed, tally.attempted,
                              tally.problems))
    return {group: "".join(found[i] for i in range(len(found)))
            for group, found in sorted(digests.items())}


def main():
    names = sys.argv[1:] or sorted(WORKLOADS)
    path = BENCH / "references.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        workdir = BENCH / "_work" / ("record-" + name)
        try:
            references[name] = record_workload(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("%s: %d groups" % (name, len(references[name])), flush=True)
    path.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
