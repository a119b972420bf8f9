"""Field-layer probes and the host-speed yardstick.

The probes time seeded operand batches through the public ``FieldElement``
API only (``+``, ``*``, ``sign()``, ``inverse()``), one batch per field
size, and report microseconds per operation as the median over repeats.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

PROBE_RADICANDS = {"q": [], "q2": [2], "q23": [2, 3], "q2357": [2, 3, 5, 7]}
PROBE_BATCH = 48
PROBE_REPEATS = 5
# median yardstick() time on the reference host (2-vCPU Xeon VM, Python 3.11)
YARDSTICK_REF_S = 1.0e-3
# a yardstick sample (a warm-up call and a timed call) every quarter second
# costs under 1% of the run; the host's speed holds for about a second
SAMPLE_EVERY_S = 0.25
SCALE_MARGIN_S = 1.0
SCALE_MIN_SAMPLES = 5
# an op long enough to hold this many samples is scaled by their mean
SCALE_MEAN_SAMPLES = 8


def _operand(rng, fld):
    while True:
        coeffs = {mask: Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                  for mask in range(fld.size) if rng.random() < 0.8}
        x = fld.element(coeffs)
        if not x.is_zero():
            return x


def _per_op_us(fn, items) -> float:
    t0 = time.perf_counter()
    for args in items:
        fn(*args)
    return (time.perf_counter() - t0) / len(items) * 1e6


def field_probes(zt, seed: int) -> dict[str, float]:
    """``field.<size>.<op>_us`` for every probe field and operation."""
    out = {}
    for index, (label, radicands) in enumerate(PROBE_RADICANDS.items()):
        rng = random.Random(seed * 16 + index)
        fld = zt.Field(radicands)
        a = [_operand(rng, fld) for _ in range(PROBE_BATCH)]
        b = [_operand(rng, fld) for _ in range(PROBE_BATCH)]
        pairs = list(zip(a, b))
        runs = {"add": [], "mul": [], "sign": [], "inverse": []}
        for _ in range(PROBE_REPEATS):
            runs["add"].append(_per_op_us(lambda x, y: x + y, pairs))
            runs["mul"].append(_per_op_us(lambda x, y: x * y, pairs))
            # sign() caches its result on the element, so each repeat
            # signs freshly built differences
            fresh = [(x - y,) for x, y in pairs]
            runs["sign"].append(_per_op_us(lambda d: d.sign(), fresh))
            runs["inverse"].append(_per_op_us(lambda x: x.inverse(), [(x,) for x in a]))
        for op, values in runs.items():
            out[f"field.{label}.{op}_us"] = statistics.median(values)
    return out


class _Sparse:
    """A sparse element of Q(sqrt 2, sqrt 3): a dict from a monomial mask to
    a Fraction, like the program's field elements but written here."""

    __slots__ = ("c",)
    RADICAND = (1, 2, 3, 6)  # (sqrt r_a)(sqrt r_b) = RADICAND[a & b] sqrt(r_(a ^ b))

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        c = dict(self.c)
        for k, v in other.c.items():
            c[k] = c.get(k, 0) + v
        return _Sparse({k: v for k, v in c.items() if v})

    def __mul__(self, other):
        c = {}
        for a, x in self.c.items():
            for b, y in other.c.items():
                c[a ^ b] = c.get(a ^ b, 0) + x * y * self.RADICAND[a & b]
        return _Sparse({k: v for k, v in c.items() if v})


def yardstick() -> float:
    """Seconds of one fixed piece of pure-Python work that runs no zonotile
    code: an integer loop and exact arithmetic on sparse Fraction dicts, the
    two kinds of work the program does.  Its time moves with the speed the
    host gives this process, and not with the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(7_000):
        acc += i * i % 7
    y = _Sparse({0: Fraction(1)})
    for i in range(6):
        x = _Sparse({m: Fraction((7 * i + 3 * m) % 11 - 5, (i + m) % 6 + 1) for m in range(4)})
        y = y * x + x
        # keep the numbers the same size on every step
        y = _Sparse({k: Fraction(v.numerator % 1_000_003, v.denominator % 997 + 1) for k, v in y.c.items()})
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the yardstick every SAMPLE_EVERY_S seconds of wall time, from
    a SIGALRM handler, so that samples fall inside long ops too.

    ``clock()`` is ``time.perf_counter()`` less the time spent in samples,
    so an op timed with it does not include them.  ``scale(t0, t1)`` turns a
    time measured over the interval [t0, t1] into one on a host where the
    yardstick takes YARDSTICK_REF_S.  If the interval holds at least
    SCALE_MEAN_SAMPLES samples, it divides by their mean: an op's time is
    the sum of its slices, each slowed as much as the yardstick then.  A
    shorter interval holds too few samples for a mean; it divides by the
    median sample of the interval widened by SCALE_MARGIN_S on each side,
    and by at least SCALE_MIN_SAMPLES samples.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        yardstick()  # warms the caches the interrupted op had filled
        self.took.append(yardstick())
        self.at.append(t0)
        self.paused += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        inside = self.took[bisect.bisect_left(self.at, t0):bisect.bisect_right(self.at, t1)]
        if len(inside) >= SCALE_MEAN_SAMPLES:
            return YARDSTICK_REF_S / statistics.fmean(inside)
        lo = bisect.bisect_left(self.at, t0 - SCALE_MARGIN_S)
        hi = bisect.bisect_right(self.at, t1 + SCALE_MARGIN_S)
        while hi - lo < SCALE_MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return YARDSTICK_REF_S / statistics.median(self.took[lo:hi])


def calibrate(repeats: int = 9) -> float:
    """Median seconds of the yardstick, for the report."""
    return statistics.median(yardstick() for _ in range(repeats))
