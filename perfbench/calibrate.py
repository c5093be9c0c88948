"""Scale measured times by how fast the machine runs while they are measured.

On a shared machine the speed of one core moves by tens of percent from
one second to the next (on a 2-vCPU VM, one 3 s classify took 2.2 s to
3.7 s within a minute), and every operation running then is slowed.
SpeedSampler runs a frozen reference chunk of about two milliseconds from a
SIGALRM handler every INTERVAL_S while an operation runs.  An operation's
time is then its wall time minus the time spent in the handler, scaled by
REFERENCE_S / (the mean chunk time seen during the operation): the time it
would take on a machine where a chunk takes REFERENCE_S.  The garbage
collector is off while a chunk runs, so a collection the program's own
allocations call for is never charged to the machine's speed.

Kinds of work do not slow alike: interpreted Fraction arithmetic slows more
than numpy loops over arrays of a thousand entries.  So each family of
operations is sampled with a chunk of its own kind of work (CHUNKS):
Fraction linear algebra for order classification, fixed-precision complex
multiply-adds for theta sums, both for central values, and numpy series
passes for the oracle.  The chunks touch no global state (no mpmath
context), so the interrupted code cannot notice them, and call no splitcm
code, so a change to the program cannot move the scale.  Do not edit this
file between two sets of runs that are to be compared.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np
from mpmath.libmp import from_int, from_rational, fzero, mpc_add, mpc_mul, round_nearest

REFERENCE_S = 0.002
INTERVAL_S = 0.025
MIN_SAMPLES = 4

_BITS = 330  # about the 95 digits theta sums run at
_Z = (from_rational(1, 3, _BITS, round_nearest), from_rational(1, 7, _BITS, round_nearest))
_ONE = (from_int(1), fzero)
_GRAM = [[Fraction(i * j + 1, i + j + 3) for j in range(4)] for i in range(4)]
_CHARS = np.array([(i * i) % 7 - 3 for i in range(211)], dtype=np.float64)


def _fraction_inverse(m):
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _multiply_adds(count):
    # libmp calls take their precision as an argument and touch no context
    t = _ONE
    for _ in range(count):
        t = mpc_add(mpc_mul(t, _Z, _BITS, round_nearest), _ONE, _BITS, round_nearest)
    return t


def _exact():
    for _ in range(3):
        _fraction_inverse(_GRAM)


def _theta():
    _multiply_adds(130)


def _central():
    _fraction_inverse(_GRAM)
    _multiply_adds(70)


def _series():
    total = 0.0
    for v in range(400, 417):
        u = np.arange(-v, v + 1, dtype=np.int64)
        n = u * u - u * v + 3 * v * v
        keep = (n > 0) & (np.gcd(np.abs(u), v) == 1)
        u, nf = u[keep], n[keep].astype(np.float64)
        w = _CHARS[(u + 5 * v) % 211] * np.exp(-nf / 1.0e5) / nf
        total += float(np.sum(w * (u - v / 2.0))) + float(np.sum(w))
    return total


CHUNKS = {"setup": _exact, "table": _exact, "lvalue": _central, "oracle": _series, "crosscheck": _theta}


def chunk(kind):
    """Run the reference chunk of one kind once, collector off; returns its duration in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        CHUNKS[kind]()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def timed(fn, *args):
    """(result or raised exception, wall seconds) of fn(*args)."""
    start = time.perf_counter()
    try:
        outcome = fn(*args)
    except Exception as exc:  # noqa: BLE001 - handed back to the caller to count
        outcome = exc
    return outcome, time.perf_counter() - start


class SpeedSampler:
    """Samples the machine's speed during a with-block (main thread only)."""

    def __init__(self):
        self.samples = {kind: [chunk(kind) for _ in range(MIN_SAMPLES)] for kind in CHUNKS}
        self.busy = sum(map(sum, self.samples.values()))  # seconds spent sampling
        self.kind = "setup"
        self._previous = None

    def _on_alarm(self, signum, frame):
        elapsed = chunk(self.kind)
        self.samples[self.kind].append(elapsed)
        self.busy += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, kind, first):
        """REFERENCE_S over the mean chunk time of a kind since its sample `first`.

        The window reaches back far enough to hold MIN_SAMPLES samples, so
        an operation shorter than a few intervals is scaled by the speed
        seen just before it.
        """
        samples = self.samples[kind]
        return REFERENCE_S / statistics.fmean(samples[min(first, len(samples) - MIN_SAMPLES):])

    def timed(self, kind, fn, *args):
        """(result or raised exception, wall seconds, scaled seconds) of fn(*args)."""
        self.kind = kind
        first, busy = len(self.samples[kind]), self.busy
        outcome, wall = timed(fn, *args)
        wall -= self.busy - busy
        return outcome, wall, wall * self.scale(kind, first)
