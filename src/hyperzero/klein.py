"""Hilbert-Klein real-zero counts for F(-n, b; c; z) and regional classifiers.

The count formulas give, for parameters off a small set of boundaries, the
exact number of zeros in each of (1,inf), (0,1), (-inf,0).  They are driven
by Klein's step function E and by signs of generalized binomial
coefficients; both are integer-valued, so boundary inputs raise rather
than round.  The regional classifier reproduces the same counts but keyed
on which parameter window fired; it reads only the cell codes of b, c and
c - b, and reduces a c < 0 input by one of the reflection, inversion and
Pfaff maps on its codes and classifies the image again, until a directly
analyzed region is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from . import transforms
from .core import (
    BoundaryParameterError,
    Counts,
    Params,
    cell_code,
    excluded_code,
    in_excluded_set,
    side,
)


@dataclass(frozen=True)
class KleinXYZ:
    x: int
    y: int
    z: int


def klein_E(u) -> int:
    """Klein's step function: 0 for u <= 0, floor(u) off integers, u-1 on them.

    Both are read from the cell code of u (core.cell_code), so a float
    within 1e-12 of an integer takes the integer branch; that branch lowers
    the value by one, which propagates to whole-unit count changes.
    """
    return max(0, (cell_code(u) - 1) // 2)


def xyz(p: Params) -> KleinXYZ:
    """The three E-values feeding the interval counts."""
    n, b, c = p.n, p.b, p.c
    a1 = abs(1 - c)
    a2 = abs(n + b)
    a3 = abs(b - c - n)
    return KleinXYZ(
        klein_E((a1 - a2 - a3 + 1) / 2),
        klein_E((-a1 + a2 - a3 + 1) / 2),
        klein_E((-a1 - a2 + a3 + 1) / 2),
    )


def binomial_sign(alpha, n: int) -> int:
    """Sign of the generalized binomial (alpha choose n).

    Zero exactly when alpha is on one of 0, 1, ..., n-1 (core.side); only
    signs of the factors are multiplied, so there is no overflow or
    cancellation.
    """
    return math.prod(side(alpha, i) for i in range(n))


def _require_hypothesis(p: Params):
    """b, c and c-b must avoid {0, -1, ..., 1-n}; counts jump there.

    Params has already rejected every such c.
    """
    for name, v in (("b", p.b), ("c-b", p.c - p.b)):
        if in_excluded_set(v, p.n):
            raise BoundaryParameterError(_boundary_message(name, p))


def _branch_count(e: int, sign: int) -> int:
    # sign > 0 selects the even branch 2*floor((E+1)/2), sign < 0 the odd one.
    if sign > 0:
        return 2 * ((e + 1) // 2)
    return 2 * (e // 2) + 1


def predict_counts(p: Params) -> Counts:
    """Interval zero counts straight from the count formulas.

    Requires b, c, c-b outside {0, -1, ..., 1-n}; under that hypothesis the
    polynomial has full degree n and the three condition sign products are
    nonzero, so each count picks a branch unambiguously.
    """
    _require_hypothesis(p)
    n, b, c = p.n, p.b, p.c
    k = xyz(p)
    sign_b = binomial_sign(-b, n)
    sign_c = binomial_sign(-c, n)
    sign_bc = binomial_sign(b - c, n)
    s1 = (-1) ** n * sign_b * sign_bc
    s2 = sign_c * sign_bc
    s3 = sign_c * sign_b
    if 0 in (s1, s2, s3):
        # Unreachable when the hypothesis holds; kept as a hard guard.
        raise BoundaryParameterError("a condition sign product is zero")
    return _prediction(
        n, _branch_count(k.x, s1), _branch_count(k.y, s2), _branch_count(k.z, s3), "thm3.1"
    )


def _prediction(n, n1, n2, n3, provenance) -> Counts:
    """Counts of a degree-n polynomial; the rest of the degree is conjugate pairs."""
    rest = n - n1 - n2 - n3
    if min(n1, n2, n3) < 0 or rest < 0 or rest % 2:
        raise RuntimeError(f"count accounting failed: ({n1},{n2},{n3}) vs degree {n}")
    return Counts(n1, n2, n3, 0, rest // 2, provenance)


def _index(code: int) -> int:
    """floor(x) + 1 for a value x off the integers, read from its odd cell code."""
    return code // 2 + 1


def _above_edge(code: int, n: int) -> int:
    """code, read as the cell just above it where it is -2n.

    The window edges b = -n and b - c = n (code -2n of b or of c - b) are
    not count jumps: the counts on each are those of the cell above it,
    which the next window shares.
    """
    return code + 1 if code == -2 * n else code


def _cell_c_positive(n: int, B: int, C: int, D: int) -> Counts:
    """The five b-windows for c > 0; b - c has code -D, and the window
    edges b = -n and b - c = n read as the cell above them (_above_edge).
    """
    B, D = _above_edge(B, n), _above_edge(D, n)
    if B > 0:
        if D < -2 * n:
            return _prediction(n, 0, n, 0, "thm3.2.i")
        if D < 0:
            j = _index(-D)
            return _prediction(n, (n - j) % 2, j, 0, f"thm3.2.ii(j={j})")
        return _prediction(n, n % 2, 0, 0, "thm3.2.iii")
    if B > -2 * n:
        j = _index(-B)
        return _prediction(n, (n - j) % 2, 0, j, f"thm3.2.iv(j={j})")
    return _prediction(n, 0, 0, n, "thm3.2.v")


def _cell_c_negative_b_positive(n: int, B: int, C: int, D: int) -> Counts:
    """c < 0, b > 0, c-b > 1-n: counts keyed on the (j, k) window indices."""
    k = _index(-C)
    j = _index(-D)
    nj_odd = (n - j) % 2
    k_odd = k % 2
    sub = "abcd"[nj_odd + 2 * k_odd]
    return _prediction(n, nj_odd, j - k, k_odd, f"thm3.3.ii.{sub}(j={j},k={k})")


def _cell_all_negative(n: int, B: int, C: int, D: int) -> Counts:
    """1-n < b, c, c-b < 0: pure parity counts from the (j, k, l) indices."""
    j, k, ell = _index(-B), _index(-C), _index(-D)
    return _prediction(n, (n + j + ell) % 2, (k + ell) % 2, (j + k) % 2,
                       f"thm3.4(j={j},k={k},l={ell})")


def _reduced(n: int, codes, name: str) -> Counts:
    """Counts of codes, which classify_cell decides on their image under one map.

    The codes go through the code map of transforms.REDUCTIONS[name]; the
    counts come back through its interval swap, and its equation tag is
    prefixed to the provenance.  A swap keeps n1 + n2 + n3 and the nonreal
    pairs, so the record that classify_cell built, which passed
    _prediction's accounting, is permuted and not built again.
    """
    r = transforms.REDUCTIONS[name]
    sub = classify_cell(n, *r.codes(n, *codes))
    counts = [sub.n1, sub.n2, sub.n3]
    i, j = r.swap
    counts[i], counts[j] = counts[j], counts[i]
    return Counts(*counts, 0, sub.nonreal_pairs, f"reduced-via-{r.tag}->{sub.provenance}")


def classify_cell(n: int, B: int, C: int, D: int) -> Counts:
    """Counts with provenance for the cell codes (core.cell_code) of (b, c, c-b).

    Why the codes decide.  Every decision of the regional analysis compares
    b, c or c - b, negated or shifted by an integer, with an integer, or
    takes its floor: the hypothesis (b, c, c - b outside {0, ..., 1-n}),
    the branch tests c > 0, c - b < 1-n, b < 1-n, b > 0, c - b > 0 and
    c > 1-n, the window edges b - c = n and b = -n, and the window indices
    floor(-b), floor(-c) and floor(b - c).  Each of these compares a code
    with an even number or reads the floor from an odd code, and the
    reflection, inversion and Pfaff maps send (b, c, c - b) to such values
    again, so they act on the codes by the integer maps in
    transforms.REDUCTIONS.
    The counts and their provenance are therefore constant on each cell of
    the codes: an open cell of the lines {b in Z}, {c in Z} and
    {c - b in Z} (F. Klein, Math. Ann. 37, 1890), or a piece of one of those
    lines.  For a float the codes are read by core.side, so a value within
    INTEGRALITY_TOL of an integer is on it.

    c > 0 is handled directly.  For c < 0 a region that is not analyzed
    directly is mapped by one of the reflection, inversion and Pfaff maps,
    and classify_cell decides the image, reducing it again where it must;
    the counts are carried back through each interval swap, and each map's
    equation tag ("(2.1)", "(2.2)", "(3.8)") is recorded as a
    "reduced-via-<tag>->" provenance prefix.  c itself must be valid for
    Params.  A boundary raises BoundaryParameterError naming its edge, "b"
    or "c-b" (in {0, ..., 1-n}): these 3n lines of b, c and c - b, with c's
    rejected by Params, are the only places the true counts can change
    (the discriminant of the Jacobi polynomial is a product of powers of
    the values there; D. Hilbert, J. reine angew. Math. 103, 1888).  The
    window edges b - c = n and b = -n are not among them, and read as the
    cell above them; after that, the window indices read only odd codes.

    Why a code beyond code_window(n) reads as the window's edge.  Every
    test above compares a code with 0, 2(1-n) or -2n, or tests the
    excluded set, and every window index reads a code inside [-2n, 0].  A
    code above 1 falls on the same side of each test as 1 does, and a code
    below -2n-1 on the same side as -2n-1.  The reduction maps
    X -> 2(1-n) - X reflect only codes of at most 0 (those of c < 0,
    b < 1-n and c-b < 1-n), so a reflected code was changed by the clamp,
    if at all, from below -2n-1 to -2n-1; both land at 3 or above, which
    every later test reads as positive and no window index reads.  So a
    code above 1 classifies as 1, and one below -2n-1 as -2n-1.
    """
    if excluded_code(B, n):
        raise BoundaryParameterError("b")
    if excluded_code(D, n):
        raise BoundaryParameterError("c-b")
    lo = 2 * (1 - n)
    codes = (B, C, D)
    if C > 0:
        return _cell_c_positive(n, *codes)
    if D < lo:
        # Reflection target has c' = 1-n+b-c > 0.
        return _reduced(n, codes, "euler_reflect")
    if B < lo:
        # Inversion target has c' = 1-b-n > 0.
        return _reduced(n, codes, "invert")
    if B > 0:
        return _cell_c_negative_b_positive(n, *codes)
    if D > 0:
        # Pfaff target has numerator parameter c-b > 0 and the same c < 0.
        return _reduced(n, codes, "pfaff")
    if C > lo:
        return _cell_all_negative(n, *codes)
    # Remaining sliver: b, c-b in (1-n, 0) with c < 1-n.  Reflection target
    # has c' in (1-n, 0) and c'-b > 0, which the Pfaff branch reduces.
    return _reduced(n, codes, "euler_reflect")


def code_window(n: int) -> Tuple[int, int]:
    """The least and greatest cell codes that classify_cell tells apart: -2n-1 and 1.

    classify_cell answers a code above 1 as it answers 1, and a code below
    -2n-1 as it answers -2n-1 (its docstring says why), for each of the
    codes of b, c and c - b; a caller may clamp every code into this window
    before it classifies.
    """
    return -2 * n - 1, 1


def _boundary_message(edge: str, p: Params) -> str:
    """The message of the edge that classify_cell named, for the point p."""
    v = p.b if edge == "b" else p.c - p.b
    return (f"{edge}={v} lies in {{0, -1, ..., {1 - p.n}}}; "
            "the count formulas do not apply on this boundary")


def classify_region(p: Params) -> Counts:
    """Counts with provenance naming the parameter region that decided them.

    classify_cell decides on the cell codes of (b, c, c-b); a boundary
    raises BoundaryParameterError with the values of p in its message.
    """
    try:
        return classify_cell(p.n, cell_code(p.b), cell_code(p.c), cell_code(p.c - p.b))
    except BoundaryParameterError as exc:
        raise BoundaryParameterError(_boundary_message(exc.args[0], p)) from None
