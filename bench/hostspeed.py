"""The host's speed, measured throughout a run on a fixed reference kernel.

The benchmark runs on a shared host whose speed drifts by tens of
percent over tens of seconds.  So that a run reports the program's cost
rather than the host's, the runner takes a sample of a reference kernel
between calls, at least every ``INTERVAL`` seconds, and reports each
time scaled by

    NOMINAL_S / (median kernel time of the run)

that is, in *reference seconds*: the time the call would take on a host
that runs the kernel in ``NOMINAL_S``.  The kernel is plain Python, in
this directory, and calls nothing from ``torushom``, so a change to the
program does not change it.  It is integer elimination of a sparse
200 x 280 matrix held in Python lists.  The host's drift does not move
all code alike; on the 2-core VM the benchmark was defined on, this
kernel followed report, check, the integral calls and the warm products
more closely than exact Fraction elimination or a smaller matrix did
(see design.json).  The raw wall times are printed beside the scaled
ones.
"""

import gc
import statistics
import time

# Time of one kernel call on the host the benchmark was defined on (2-core
# VM, Python 3.11.7).  A constant: it only sets the scale of the reported
# times.
NOMINAL_S = 0.08
INTERVAL = 1.0

# The kernel's matrix: ROWS x COLS with three entries +-1 in each column,
# like the boundary matrices the program reduces, of which the kernel
# eliminates the first PIVOTS columns.  On this kind of host, code with a
# small working set speeds up and slows down with the host by more than
# the program does, so the matrix is large.
ROWS, COLS, PIVOTS = 200, 280, 15


def _matrix():
    state = 12345
    rows = [[0] * COLS for _ in range(ROWS)]
    for col in range(COLS):
        placed = 0
        while placed < 3:
            state = (1103515245 * state + 12345) % 2 ** 31
            row = (state >> 8) % ROWS
            if not rows[row][col]:
                rows[row][col] = 1 if (state >> 4) & 1 else -1
                placed += 1
    return rows


_MATRIX = _matrix()


def kernel():
    """Fixed work: fraction-free (Bareiss) elimination of the first
    ``PIVOTS`` pivot columns of the kernel's matrix over Z.  Returns the
    number of pivots."""
    rows = [list(row) for row in _MATRIX]
    previous, rank = 1, 0
    for col in range(COLS):
        pivot = next((r for r in range(rank, ROWS) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, ROWS):
            factor = rows[r][col]
            rows[r] = [(lead * a - factor * b) // previous
                       for a, b in zip(rows[r], rows[rank])]
        previous = lead
        rank += 1
        if rank == PIVOTS:
            break
    return rank


class HostClock:
    """Kernel samples taken between calls; ``scale`` turns wall seconds
    into reference seconds."""

    def __init__(self):
        self.samples = []
        self.due = 0.0
        self.sample()

    def sample(self):
        # The cyclic collector is off while the kernel is timed, as
        # timeit does, so that its pauses over whatever the program holds
        # live are not counted as host speed.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(end - start)
        self.due = end + INTERVAL

    def tick(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self):
        return NOMINAL_S / statistics.median(self.samples)
