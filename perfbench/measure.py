"""Timing at a reference speed, statistics, output checks and the run environment."""

from __future__ import annotations

import bisect
import math
import os
import platform
import resource
import signal
import statistics
import sys
from time import perf_counter

import numpy as np

# Percentiles the tail may be reported at, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """(percentile, value) of the highest ladder percentile with enough samples beyond it.

    A percentile p qualifies when at least `min_beyond` samples lie strictly
    above its nearest-rank position, i.e. n - ceil(p/100 * n) >= min_beyond.
    Returns None when not even the median qualifies.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))  # nearest rank
        if n - rank >= min_beyond:
            best = (p, ordered[rank - 1])
    return best


def median(samples) -> float:
    return float(statistics.median(samples))


def reference_kernel() -> float:
    """A fixed mix of the two kinds of work the program does, in about equal time.

    The first half is interpreter work with small numpy calls, like the
    pattern scan; the second is one bulk numpy sweep over a gathered array,
    like an s3 step or MLP training. A shared machine's slow spells slow the
    two kinds by different amounts, so the kernel holds both. It uses no code
    of the program, so a change to the program cannot change how long it
    takes; only the machine's speed can.
    """
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(192):
        row = _REFERENCE_ROWS[i % len(_REFERENCE_ROWS)]
        acc += float(np.sum(row * row)) + float(np.max(np.abs(row)))
        counts[i % 11] = counts.get(i % 11, 0) + 1
    acts = _REFERENCE_BIAS[None, :] + _REFERENCE_WEIGHTS[::3]
    return acc + float(np.logaddexp(0.0, acts).sum()) + len(counts)


_REFERENCE_ROWS = np.random.default_rng(0).standard_normal((48, 32))
_REFERENCE_WEIGHTS = np.random.default_rng(1).standard_normal((2704, 64))
_REFERENCE_BIAS = np.random.default_rng(2).standard_normal(64)
# What reference_kernel takes at the reference speed: its median on the
# 2-core box the benchmark was built on. A time "at the reference speed" is
# what the interval would have taken had the machine run at that speed.
REFERENCE_S = 0.0042
# The reference is sampled this often, costing about 2% of a run; a spell of
# the machine's speed lasts a second or more.
PERIOD_S = 0.2
# How far back before an interval its speed is read from, so that a call
# shorter than the period still has samples.
LOOKBACK_S = 0.5


class ReferenceClock:
    """Interval times rescaled to a fixed machine speed.

    On a shared machine the same code runs up to twice as fast at one
    moment as at another, in spells of a second to more than a minute, and
    CPU time slows as wall time does. While the clock runs, a timer signal
    every `PERIOD_S` interrupts the single benchmark thread between
    bytecodes and times `reference_kernel`. An interval's time, less the
    time those interruptions took, is then multiplied by the mean speed of
    the reference samples taken during it and in the `LOOKBACK_S` before
    it, relative to `REFERENCE_S`. The program's work and the reference
    slow down together, so the rescaled time follows the code, not the
    machine's spell. With the clock stopped and no samples, times are plain
    wall time.
    """

    def __init__(self):
        self.starts: list[float] = []  # reference sample start times, ascending
        self.speeds: list[float] = []  # REFERENCE_S / sample duration
        self.spent = 0.0  # wall time spent in the timer handler
        self._busy = False

    def __enter__(self):
        self.starts, self.speeds, self.spent = [], [], 0.0
        reference_kernel()  # warm the kernel before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.record(t0, t1 - t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def record(self, start: float, duration: float):
        self.starts.append(start)
        self.speeds.append(REFERENCE_S / duration)

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.spent

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Time between two marks, without handler time, at the reference speed."""
        work = (end[0] - start[0]) - (end[1] - start[1])
        lo = bisect.bisect_left(self.starts, start[0] - LOOKBACK_S)
        hi = bisect.bisect_right(self.starts, end[0])
        if lo == hi:
            return work
        return work * statistics.fmean(self.speeds[lo:hi])


clock = ReferenceClock()


def timed(fn, *args, **kwargs):
    """(fn's result, its time in seconds at the reference speed)."""
    start = clock.mark()
    out = fn(*args, **kwargs)
    return out, clock.seconds(start, clock.mark())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Counts output checks attempted and failed.

    A call that raises or exits non-zero aborts the run instead, so only
    checks, which can fail without stopping the run, are counted.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def check(self, ok: bool, text: str) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.lines.append(f"{'pass' if ok else 'FAIL'}: {text}")
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _git_commit(root: str) -> str:
    """HEAD commit read from the .git directory, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str, seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
