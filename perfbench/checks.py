"""Answer checks: every answer is compared with the exact Sturm counter.

A point is answered correctly, or it fails in exactly one class:

- ``traceback``: an exception escaped ``cli.main``;
- ``nonconvergence``: exit 3 with no report, the solver gave up;
- ``false_mismatch``: ``verify`` reported ``fail`` although its predicted
  counts agree with the Sturm counts of the exact rational, so the oracle and
  not the theorem was at fault;
- ``wrong_count``: the reported counts disagree with the Sturm counts, a
  boundary was reported off every lattice line, or no answer came with a
  documented exit code.

Only ``wrong_count`` is a wrong answer.  The other classes are points the
program failed to answer; they count as failed work but leave ``correct``
true.  Decimals are checked through the ``Fraction`` of the parsed double,
which is the rational the float computation works on.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

from workloads import Op

FAILURE_CLASSES = ("traceback", "nonconvergence", "false_mismatch", "wrong_count")

# A float parameter this close to an integer is on a lattice line for the
# program (hyperzero.core.INTEGRALITY_TOL); the check uses the same rule.
INTEGRALITY_TOL = 1e-12

# ok rows of each sweep call that are checked against the Sturm counter
SWEEP_SAMPLE = 6

SWEEP_HEADER = "n,b,c,mode,provenance,n1,n2,n3,nonreal_pairs,status"
EXIT_FOR_STATUS = {"pass": 0, "boundary": 2, "fail": 3}


@dataclass
class Outcome:
    """What one ``cli.main`` call returned."""

    rc: Optional[int]
    stdout: str
    stderr: str
    exc: Optional[BaseException] = None


def _as_fraction(text: str, exact: bool) -> Fraction:
    """The exact rational the program computes with for this argument."""
    return Fraction(text) if exact else Fraction(float(text))


def on_lattice_line(b: Fraction, c: Fraction, exact: bool) -> bool:
    """b, c or c - b is an integer: counts may jump here, so boundary is allowed."""
    if exact:
        return any(x.denominator == 1 for x in (b, c, c - b))
    fb, fc = float(b), float(c)
    return any(abs(x - round(x)) < INTEGRALITY_TOL for x in (fb, fc, fc - fb))


class Reference:
    """Sturm counts of the exact rational, memoized across a run's passes."""

    def __init__(self, hz):
        # bound now, so that checks made while the tracer is installed call
        # the program's own functions and leave no spans
        self._params = hz.Params
        self._coefficients = hz.core.coefficients
        self._sturm_counts = hz.oracle.sturm_counts
        self._memo: Dict[Tuple[int, Fraction, Fraction], Tuple[tuple, int]] = {}

    def counts(self, n: int, b: Fraction, c: Fraction) -> Tuple[tuple, int]:
        """((n1, n2, n3, mult_at_1), largest coefficient bit size)."""
        key = (n, b, c)
        if key not in self._memo:
            q = self._coefficients(self._params(n, b, c))
            s = self._sturm_counts(q)
            bits = max(max(a.numerator.bit_length(), a.denominator.bit_length())
                       for a in q.coeffs)
            self._memo[key] = ((s.n1, s.n2, s.n3, s.mult_at_1), bits)
        return self._memo[key]


def _crash_class(out: Outcome) -> Optional[str]:
    if out.exc is not None:
        return "traceback"
    if out.rc == 3 and not out.stdout.strip() and "did not converge" in out.stderr:
        return "nonconvergence"
    if out.rc not in (0, 2, 3):
        return "wrong_count"
    return None


def _counts_agree(pred: dict, ref: tuple) -> bool:
    n1, n2, n3, mult_at_1 = ref
    return (pred["n1"], pred["n2"], pred["n3"]) == (n1, n2, n3) and mult_at_1 == 0


def check_verify(op: Op, out: Outcome, ref: Reference,
                 props: Optional["Properties"]) -> Counter:
    """Failed points of one verify call by class; feeds PROPS with the point."""
    b = _as_fraction(op.argv[op.argv.index("-b") + 1], op.exact)
    c = _as_fraction(op.argv[op.argv.index("-c") + 1], op.exact)
    if props is not None:
        props.add(op.n, b, c, op.exact)
    cls = _crash_class(out) or _verify_report_class(op, out, ref, b, c, props)
    return Counter({cls: 1} if cls else {})


def _verify_report_class(op: Op, out: Outcome, ref: Reference, b: Fraction, c: Fraction,
                         props: Optional["Properties"]) -> Optional[str]:
    try:
        report = json.loads(out.stdout)
    except ValueError:
        return "wrong_count"
    status = report.get("status")
    if EXIT_FOR_STATUS.get(status) != out.rc:
        return "wrong_count"
    counts, bits = ref.counts(op.n, b, c)
    if props is not None:
        props.max_coeff_bits = max(props.max_coeff_bits, bits)
    pred = report.get("prediction")
    if pred is None:
        # no counts were claimed: the point must lie where counts may jump
        if not on_lattice_line(b, c, op.exact):
            return "wrong_count"
    elif not _counts_agree(pred, counts):
        return "wrong_count"
    return "false_mismatch" if status == "fail" else None


def _parse_row(f: List[str]) -> Tuple[Fraction, Fraction, bool]:
    exact = f[3] == "exact"
    return _as_fraction(f[1], exact), _as_fraction(f[2], exact), exact


def _lines(text: str) -> Iterator[str]:
    """The lines of TEXT one at a time, without a copy of the whole text."""
    start = 0
    while True:
        end = text.find("\n", start)
        if end < 0:
            return
        yield text[start:end]
        start = end + 1


def check_sweep(op: Op, out: Outcome, ref: Reference, rng: random.Random,
                props: Optional["Properties"]) -> Counter:
    """Failed grid points of one sweep call by class; feeds PROPS with every row.

    Boundary and undefined rows must lie on lattice lines, and a seeded
    sample of ok rows must agree with the Sturm counter.  Rows are read one
    at a time and ok rows are split only when needed, so that the check adds
    little to the process's peak memory.
    """
    cls = _crash_class(out) or (None if out.rc == 0 else "wrong_count")
    lines = _lines(out.stdout)
    if cls is None and next(lines, None) != SWEEP_HEADER:
        cls = "wrong_count"
    if cls is not None:
        return Counter({cls: op.points})
    failed: Counter = Counter()
    rows = ok_rows = 0
    sample: List[str] = []  # reservoir of ok rows
    for line in lines:
        rows += 1
        # the provenance column may itself hold commas: read the ends
        status = line[line.rfind(",") + 1:]
        if status == "ok":
            ok_rows += 1
            if len(sample) < SWEEP_SAMPLE:
                sample.append(line)
            else:
                k = rng.randrange(ok_rows)
                if k < SWEEP_SAMPLE:
                    sample[k] = line
            if props is not None:
                props.add(op.n, *_parse_row(line.split(",")))
            continue
        b, c, exact = _parse_row(line.split(","))
        if props is not None:
            props.add(op.n, b, c, exact)
        if status not in ("boundary", "undefined") or not on_lattice_line(b, c, exact):
            failed["wrong_count"] += 1
    if rows != op.points:
        return Counter({"wrong_count": op.points})
    for line in sample:
        f = line.split(",")
        b, c, _ = _parse_row(f)
        counts, bits = ref.counts(op.n, b, c)
        if props is not None:
            props.max_coeff_bits = max(props.max_coeff_bits, bits)
        pred = {"n1": int(f[-5]), "n2": int(f[-4]), "n3": int(f[-3])}
        if not _counts_agree(pred, counts):
            failed["wrong_count"] += 1
    return failed


def _template(n: int, b: Fraction, c: Fraction, exact: bool) -> bool:
    residuals = (c - 2 * b, c - Fraction(1, 2), c + 2 * n)
    if exact:
        return any(r == 0 for r in residuals)
    return any(abs(float(r)) <= 1e-9 for r in residuals)


class Properties:
    """Input properties of the points a run attempted."""

    def __init__(self):
        self.points = 0
        self.exact = 0
        self.template = 0
        self.lattice = 0
        self.degrees: Counter = Counter()
        self.cells: Set[tuple] = set()
        self.off_lattice = 0
        self.max_coeff_bits = 0

    def add(self, n: int, b: Fraction, c: Fraction, exact: bool) -> None:
        self.points += 1
        self.exact += exact
        self.degrees[n] += 1
        self.template += _template(n, b, c, exact)
        if on_lattice_line(b, c, exact):
            self.lattice += 1
        else:
            self.off_lattice += 1
            self.cells.add((n, math.floor(b), math.floor(c), math.floor(c - b)))

    def as_dict(self) -> dict:
        total = max(self.points, 1)
        return {
            "degree_histogram": {str(n): k for n, k in sorted(self.degrees.items())},
            "exact_share": self.exact / total,
            "template_share": self.template / total,
            "lattice_share": self.lattice / total,
            "pts_per_cell": self.off_lattice / max(len(self.cells), 1),
            "max_coeff_bits": self.max_coeff_bits,
        }
