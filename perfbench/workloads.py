"""Seeded inputs for the benchmark workloads.

Every workload is an endless stream of rounds.  A round has a fixed shape
(its degrees, templates and grid kinds never change) and draws only the
parameter values and the order of its operations from the seed, so every
seed puts the same mix of work in front of the program.  Points whose cost
has a heavy tail (the exact-evaluation rescue fires for some values and not
for others) take their values from a stream that is the same for every seed:
a run holds only a few dozen of them, and a seeded draw would move the
metrics by more than the program does.  Runs stop at round boundaries, which
keeps the mix of a run equal to the mix of a round.  No input repeats within
a run, so a cache inside the program only helps where inputs really share
work.

How many rounds a run holds follows from its seconds and a fixed rate per
workload, never from a clock: the same seed and seconds give the same
operations, and with them the same attempted and failed counts, on every
run.  The rates were set so that a run's timed calls take about its
seconds at the reference speed of ``calibrate.py``; a faster program
finishes sooner.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Op:
    """One `hyperzero` command line and what the checks need to know of it."""

    argv: Tuple[str, ...]
    n: int
    exact: bool
    points: int = 1  # grid points answered by a sweep, 1 for verify


@dataclass(frozen=True)
class Workload:
    """A workload of BENCHMARK.json, which also records why it was chosen."""

    name: str
    warmup: Tuple[str, ...]
    # (seeded stream, fixed stream) -> the operations of one round
    draw_round: Callable[[random.Random, random.Random], List[Op]]
    # rounds per second of timed calls at the reference speed
    rounds_per_s: float


# ---------------------------------------------------------------------------
# verify workloads

# Degrees of one verify-exact round, weighted toward low n.  The median of
# the round lies among the n = 8 points and its top 5% among the n = 35
# points, which keeps latency_ms.p50 and .p95 off the jumps between degrees.
# 5, 20 and 50 are rungs of the per-degree table.  Points from HEAVY_DEGREE
# up take up about two thirds of the time and draw from the fixed stream.
EXACT_DEGREES = (
    3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 7, 7, 8, 8, 8, 8,
    8, 8, 10, 10, 12, 12, 15, 15, 18, 20, 20, 20, 25, 25, 30, 35, 35, 35, 35, 50,
)
# Round positions (into EXACT_DEGREES) that sit on a quadratic template.
EXACT_TEMPLATES = {6: "c=2b", 16: "c=1/2", 24: "c=-2n", 30: "c=2b"}

# Degrees of one verify-float round.  The known false mismatches sit at
# n = 15..24.
FLOAT_DEGREES = (
    4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 8, 9, 10, 10, 10, 10, 10,
    10, 11, 12, 12, 14, 14, 16, 16, 18, 18, 20, 20, 22, 24, 26, 28, 30, 30, 30, 30,
)

HEAVY_DEGREE = 25

HIGH_DEGREES = (60, 80, 100)


def _off_lattice(b: Fraction, c: Fraction) -> bool:
    return b.denominator > 1 and c.denominator > 1 and (c - b).denominator > 1


def _general_rational(rng: random.Random, n: int) -> Fraction:
    """A non-integer rational in the box |x| <= 2n + 2 that holds every window."""
    den = rng.randint(2, 12)
    bound = (2 * n + 2) * den
    while True:
        v = Fraction(rng.randint(-bound, bound), den)
        if v.denominator > 1:
            return v


def _exact_point(rng: random.Random, n: int, template: Optional[str]) -> Op:
    while True:
        b = _general_rational(rng, n)
        if template == "c=2b":
            c = 2 * b
        elif template == "c=1/2":
            c = Fraction(1, 2)
        elif template == "c=-2n":
            c = Fraction(-2 * n)
        else:
            c = _general_rational(rng, n)
        # template points keep b and c - b off the lattice; c = -2n is an
        # integer on purpose
        if template == "c=-2n" and b.denominator > 1 and (c - b).denominator > 1:
            break
        if template != "c=-2n" and _off_lattice(b, c):
            break
    argv = ("verify", "-n", str(n), "-b", str(b), "-c", str(c), "--format", "json")
    return Op(argv, n, exact=True)


def _exact_round(seeded: random.Random, fixed: random.Random) -> List[Op]:
    return [_exact_point(fixed if n >= HEAVY_DEGREE else seeded, n, EXACT_TEMPLATES.get(i))
            for i, n in enumerate(EXACT_DEGREES)]


def _decimal(rng: random.Random, n: int) -> int:
    """Thousandths of a decimal in |x| <= 2n + 2 that is not an integer."""
    bound = (2 * n + 2) * 1000
    while True:
        k = rng.randint(-bound, bound)
        if k % 1000:
            return k


def _float_round(rng: random.Random, fixed: random.Random) -> List[Op]:
    ops = []
    for n in FLOAT_DEGREES:
        while True:
            kb, kc = _decimal(rng, n), _decimal(rng, n)
            if (kc - kb) % 1000:
                break
        argv = ("verify", "-n", str(n), "-b", "%.3f" % (kb / 1000), "-c", "%.3f" % (kc / 1000),
                "--format", "json")
        ops.append(Op(argv, n, exact=False))
    return ops


def _high_round(seeded: random.Random, fixed: random.Random) -> List[Op]:
    # The family of the roadmap's baseline table (b = n + 1.234, c = -7/3),
    # with fresh thousandths of b in every round.  Whether a point at n = 60
    # crashes depends on b, so all values come from the fixed stream.
    ops = []
    for n in HIGH_DEGREES:
        b = n + 1 + Fraction(fixed.randrange(1, 1000), 1000)
        argv = ("verify", "-n", str(n), "-b", str(b), "-c", "-7/3", "--format", "json")
        ops.append(Op(argv, n, exact=True))
    return ops


# ---------------------------------------------------------------------------
# sweep-grid

# (degree, half-width of the square box centred on 0, b steps, c steps).
# Unequal step counts keep c - b off the integers along whole grid
# diagonals.  The three exact grids cost about the same, so that the median
# call lies among them and not on a jump between grid kinds; the seed moves
# only the margin, since moving the box changes the mix of regions and with
# it the cost.
DENSE = (8, 8, 95, 89)  # about 16 points per lattice cell
MEDIUM = (20, 20, 81, 75)  # about 2 points per cell
SPARSE = (40, 37, 75, 71)  # about one point per unit square
DECIMAL = (8, 8, 151, 139)  # in float mode, a third of the cost per point

MARGIN_DENOMINATORS = (7, 11, 13, 17, 19, 23)


def _sweep_op(n: int, lo: str, hi: str, b_steps: int, c_steps: int, margin: str,
              exact: bool) -> Op:
    argv = ("sweep", "-n", str(n), "--b-range", f"{lo}:{hi}:{b_steps}",
            "--c-range", f"{lo}:{hi}:{c_steps}", "--margin", margin)
    return Op(argv, n, exact=exact, points=b_steps * c_steps)


def _sweep_round(rng: random.Random, fixed: random.Random) -> List[Op]:
    ops = []
    for n, half, b_steps, c_steps in (DENSE, MEDIUM, SPARSE):
        margin = f"{rng.randint(1, 3)}/{rng.choice(MARGIN_DENOMINATORS)}"
        ops.append(_sweep_op(n, str(-half), str(half), b_steps, c_steps, margin, exact=True))
    n, half, b_steps, c_steps = DECIMAL
    margin = "%.3f" % (rng.randint(5, 995) / 1000)
    ops.append(_sweep_op(n, "%.1f" % -half, "%.1f" % half, b_steps, c_steps, margin,
                         exact=False))
    return ops


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep-grid",
            ("sweep", "-n", "4", "--b-range", "-3:3:7", "--c-range", "-3:3:5",
             "--margin", "1/7"),
            _sweep_round,
            0.61,
        ),
        Workload(
            "verify-exact",
            ("verify", "-n", "4", "-b", "7/3", "-c", "11/5", "--format", "json"),
            _exact_round,
            1.06,
        ),
        Workload(
            "verify-float",
            ("verify", "-n", "4", "-b", "2.333", "-c", "2.2", "--format", "json"),
            _float_round,
            2.64,
        ),
        Workload(
            "verify-high",
            ("verify", "-n", "4", "-b", "7/3", "-c", "11/5", "--format", "json"),
            _high_round,
            0.283,
        ),
    )
}


def rounds_in(workload: str, seconds: float) -> int:
    """Rounds in a run of SECONDS: at least one."""
    return max(1, math.ceil(seconds * WORKLOADS[workload].rounds_per_s))


def rounds(workload: str, seed: int) -> Iterator[List[Op]]:
    """The workload's rounds for this seed; the same seed gives the same rounds."""
    w = WORKLOADS[workload]
    seeded = random.Random(f"{workload}:{seed}")
    fixed = random.Random(workload)
    for _ in itertools.count():
        ops = w.draw_round(seeded, fixed)
        seeded.shuffle(ops)
        yield ops
