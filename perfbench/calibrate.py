"""Reference speed: every reported time is scaled to a fixed machine speed.

The benchmark shares its processor with other machines' work, and how fast
the same code runs drifts by a third within minutes.  A probe, a fixed piece
of pure-Python work in the style of hyperzero's exact path (``Fraction``
sums, a float loop, big-integer products) that never touches hyperzero, runs
between the timed calls and, from a timer signal, every INTERVAL_S inside
them, so that a long call is judged by the speed during the call.  The time
the probes take inside a call is taken out of the call's time.  A time ``t``
measured while the probe takes ``p`` seconds is reported as
``t * REFERENCE_PROBE_S / p``: the time it would take on a machine where the
probe takes REFERENCE_PROBE_S.  A change to hyperzero moves the scaled times;
a change in how fast the shared machine runs moves the probe as well and
cancels out.  Raw wall-clock values are reported next to the scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction
from typing import Iterator, List

# about the probe time on the 2-vCPU cloud VM the bounds were set on
REFERENCE_PROBE_S = 1.2e-3
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds that the fixed reference work takes right now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, 3 * k + 1)
    s = 0.0
    for i in range(4000):
        s += i * 0.5
    x, m = 3 ** 3000 + 1, 7 ** 1500 + 3
    for _ in range(6):
        x = x * x % m
    return time.perf_counter() - t0


def scale(probes) -> float:
    """Factor that maps times measured next to these probe times to the reference."""
    return REFERENCE_PROBE_S / statistics.median(probes)


class Sampler:
    """Probes taken from a timer signal while a timed call runs."""

    def __init__(self):
        self.probes: List[float] = []
        self.spent = 0.0

    def _on_timer(self, signum, frame) -> None:
        p = probe()
        self.probes.append(p)
        self.spent += p

    @contextlib.contextmanager
    def running(self) -> Iterator["Sampler"]:
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
