"""A fixed reference loop that reads the host's current speed.

On a shared machine the speed of one core drifts by up to 2x over
seconds to minutes, and a whole run can sit in a slow phase.  Every
child times this loop next to the work it measures, in the same
process, and scales each time by ``NOMINAL_S / reference``: the time
the work would have taken on a core where the loop takes ``NOMINAL_S``.
The drift cancels because it slows the loop and the work alike.

The loop uses only the standard library, in the mix blockmod itself
spends its time on (``Fraction`` products and sums, tuple-keyed dicts,
small-int arithmetic), so no change to blockmod can change its speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.1
ROUNDS = 240
SEGMENT_S = 1.0

_VALUES = [Fraction((7 * i) % 101 - 50, (11 * i) % 29 + 1) for i in range(64)]


def _loop(rounds: int) -> Fraction:
    total = Fraction(0)
    for r in range(rounds):
        acc = Fraction(0)
        table = {}
        for i, x in enumerate(_VALUES):
            acc = acc * _VALUES[i - 1] + x
            table[(i % 13, r % 3)] = acc
        total += sum(table.values(), Fraction(0)) / (r + 1)
    return total


def reference_s() -> float:
    """Wall time of one fixed round of the reference loop, after a short warm-up."""
    _loop(2)
    start = time.perf_counter()
    _loop(ROUNDS)
    return time.perf_counter() - start


class SpeedClock:
    """Times a phase in segments and scales each to nominal host speed.

    The phase calls :meth:`tick` often; the first tick at least
    ``SEGMENT_S`` after a segment opened closes it.  The clock is paused
    while the reference loop runs at every segment end, and each
    segment is scaled by the mean of the two reference times around it.
    A segment is short enough that the host rarely changes speed within
    it, which a reference timed only at the ends of a long pass misses.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.wall_s = 0.0       # unscaled, reference loops excluded
        self.norm_s = 0.0       # scaled to NOMINAL_S

    def start(self) -> None:
        self.refs.append(reference_s())
        self._opened = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._opened >= SEGMENT_S:
            self.stop()
            self._opened = time.perf_counter()

    def stop(self) -> None:
        segment = time.perf_counter() - self._opened
        self.refs.append(reference_s())
        self.wall_s += segment
        self.norm_s += segment * 2 * NOMINAL_S / (self.refs[-2] + self.refs[-1])
