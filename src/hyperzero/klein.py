"""Hilbert-Klein real-zero counts for F(-n, b; c; z) and regional classifiers.

The count formulas give, for parameters off a small set of boundaries, the
exact number of zeros in each of (1,inf), (0,1), (-inf,0).  They are driven
by Klein's step function E and by signs of generalized binomial
coefficients; both are integer-valued, so boundary inputs raise rather
than round.  The regional classifier reproduces the same counts but keyed
on which parameter window fired, reducing c < 0 inputs through the
reflection, inversion and Pfaff maps until a directly analyzed region is
reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import transforms
from .core import (
    BoundaryParameterError,
    Counts,
    Params,
    in_excluded_set,
    nearby_integer,
    side,
)


@dataclass(frozen=True)
class KleinXYZ:
    x: int
    y: int
    z: int


def klein_E(u) -> int:
    """Klein's step function: 0 for u <= 0, floor(u) off integers, u-1 on them.

    u <= 0 and "on an integer" are decided by core.side, so a float within
    1e-12 of an integer takes the integer branch; that branch lowers the
    value by one, which propagates to whole-unit count changes.
    """
    if side(u) <= 0:
        return 0
    k = nearby_integer(u)
    return math.floor(u) if k is None else k - 1


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
            raise BoundaryParameterError(
                f"{name}={v} lies in {{0, -1, ..., {1 - p.n}}}; "
                "the count formulas do not apply on this boundary"
            )


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


def _strict_floor(v) -> int:
    """floor(v) demanding v be safely off integers.

    Exact integers and float near-integers are classification boundaries
    for the window indices and raise instead of picking a side.
    """
    if nearby_integer(v) is not None:
        raise BoundaryParameterError(f"window index boundary at {v}")
    return math.floor(v)


def _prediction(n, n1, n2, n3, provenance) -> Counts:
    """Counts of a degree-n polynomial; the rest of the degree is conjugate pairs."""
    rest = n - n1 - n2 - n3
    if min(n1, n2, n3) < 0 or rest < 0 or rest % 2:
        raise RuntimeError(f"count accounting failed: ({n1},{n2},{n3}) vs degree {n}")
    return Counts(n1, n2, n3, nonreal_pairs=rest // 2, provenance=provenance)


def _classify_c_positive(p: Params) -> Counts:
    """The five b-windows for c > 0."""
    n, b, c = p.n, p.b, p.c
    if b > 0:
        d = b - c
        if side(d, n) == 0:
            raise BoundaryParameterError(f"b-c={d} equals n; window boundary")
        if d > n:
            return _prediction(n, 0, n, 0, "thm3.2.i")
        if d > 0:
            j = _strict_floor(d) + 1
            return _prediction(n, (n - j) % 2, j, 0, f"thm3.2.ii(j={j})")
        return _prediction(n, n % 2, 0, 0, "thm3.2.iii")
    if side(b, -n) == 0:
        raise BoundaryParameterError(f"b={b} equals -n; window boundary")
    if b > -n:
        j = _strict_floor(-b) + 1
        return _prediction(n, (n - j) % 2, 0, j, f"thm3.2.iv(j={j})")
    return _prediction(n, 0, 0, n, "thm3.2.v")


def _classify_c_negative_b_positive(p: Params) -> Counts:
    """c < 0, b > 0, c-b > 1-n: counts keyed on the (j, k) window indices."""
    n, b, c = p.n, p.b, p.c
    k = _strict_floor(-c) + 1
    j = _strict_floor(-(c - b)) + 1
    if j < k:
        raise RuntimeError(
            f"window indices j={j} < k={k} contradict the region analysis for {p}"
        )
    nj_odd = (n - j) % 2
    k_odd = k % 2
    sub = {(0, 0): "a", (1, 0): "b", (0, 1): "c", (1, 1): "d"}[(nj_odd, k_odd)]
    return _prediction(
        n, nj_odd, j - k, k_odd, f"thm3.3.ii.{sub}(j={j},k={k})"
    )


def _classify_all_negative(p: Params) -> Counts:
    """1-n < b, c, c-b < 0: pure parity counts from the (j, k, l) indices."""
    n, b, c = p.n, p.b, p.c
    j = _strict_floor(-b) + 1
    k = _strict_floor(-c) + 1
    ell = _strict_floor(-(c - b)) + 1
    n1 = (n + j + ell) % 2
    n2 = (k + ell) % 2
    n3 = (j + k) % 2
    return _prediction(n, n1, n2, n3, f"thm3.4(j={j},k={k},l={ell})")


def _carried_back(n: int, sub: Counts, *maps: str) -> Counts:
    """Counts of the input whose reduction through maps, in order, gave sub.

    Each map's interval swap (transforms.REDUCTIONS) is undone, last map
    first, and each map's equation tag is prefixed to the provenance.
    """
    counts = list(sub.counts)
    for name in reversed(maps):
        i, j = transforms.REDUCTIONS[name].swap
        counts[i], counts[j] = counts[j], counts[i]
    via = "".join(f"reduced-via-{transforms.REDUCTIONS[name].tag}->" for name in maps)
    return _prediction(n, *counts, via + sub.provenance)


def classify_region(p: Params) -> Counts:
    """Counts with provenance naming the parameter region that decided them.

    c > 0 is handled directly.  For c < 0 the input is reduced through the
    reflection, inversion and Pfaff maps until a directly analyzed region
    applies; the counts are carried back through the interval swaps in
    transforms.REDUCTIONS, and each map's equation tag ("(2.1)", "(2.2)",
    "(3.8)") is recorded as a "reduced-via-<tag>->" provenance prefix.  Any
    case-boundary equality raises BoundaryParameterError.
    """
    _require_hypothesis(p)
    n, b, c = p.n, p.b, p.c
    if c > 0:
        return _classify_c_positive(p)

    if c - b < 1 - n:
        # Reflection target has c' = 1-n+b-c > 0.
        sub = _classify_c_positive(transforms.euler_reflect(p))
        return _carried_back(n, sub, "euler_reflect")
    if b < 1 - n:
        # Inversion target has c' = 1-b-n > 0.
        sub = _classify_c_positive(transforms.invert(p))
        return _carried_back(n, sub, "invert")
    if b > 0:
        return _classify_c_negative_b_positive(p)
    if c - b > 0:
        # Pfaff target has numerator parameter c-b > 0 and the same c < 0.
        sub = _classify_c_negative_b_positive(transforms.pfaff(p))
        return _carried_back(n, sub, "pfaff")
    if c > 1 - n:
        return _classify_all_negative(p)
    # Remaining sliver: b, c-b in (1-n, 0) with c < 1-n.  Reflect first
    # (new c' lands in (1-n, 0) with c'-b > 0), then Pfaff into the
    # directly analyzed region.
    sub = _classify_c_negative_b_positive(transforms.pfaff(transforms.euler_reflect(p)))
    return _carried_back(n, sub, "euler_reflect", "pfaff")
