"""Parameter transformations and the quadratic-class template detector.

Each transform here is a parameter map between two hypergeometric
polynomials tied by a two-sided functional identity, together with the
Moebius map that carries zeros of one onto zeros of the other.  Each
Moebius map swaps two of the intervals (1,inf), (0,1), (-inf,0) and fixes
the third; REDUCTIONS states those swaps and each map's action on cell
codes once, so interval zero counts can be carried between parameter regions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Tuple

from .core import InvalidParameterError, Params, in_excluded_set, side


class Reduction(NamedTuple):
    """Equation tag of a parameter map, the two count positions it swaps,
    and the map on cell codes.

    Count positions index (n1, n2, n3): 0 is (1,inf), 1 is (0,1) and 2 is
    (-inf,0).  codes(n, B, C, D) sends the cell codes (core.cell_code) of
    (b, c, c-b) to those of the image point; a code of 1-n-x is 2(1-n)
    minus the code of x.
    """

    tag: str
    swap: Tuple[int, int]
    codes: Callable[[int, int, int, int], Tuple[int, int, int]]


# Keyed by the name of the parameter map in this module.
REDUCTIONS = {
    # z -> 1-z swaps (1,inf) and (-inf,0), fixes (0,1) as a set.
    # (b, c, c-b) -> (b, 1-n-(c-b), 1-n-c)
    "euler_reflect": Reduction("(2.1)", (0, 2),
                               lambda n, B, C, D: (B, 2 * (1 - n) - D, 2 * (1 - n) - C)),
    # z -> 1/z swaps (1,inf) and (0,1), fixes (-inf,0) as a set.
    # (b, c, c-b) -> (1-n-c, 1-n-b, c-b)
    "invert": Reduction("(2.2)", (0, 1),
                        lambda n, B, C, D: (2 * (1 - n) - C, 2 * (1 - n) - B, D)),
    # z -> z/(z-1) swaps (0,1) and (-inf,0), fixes (1,inf) as a set.
    # (b, c, c-b) -> (c-b, c, b)
    "pfaff": Reduction("(3.8)", (1, 2), lambda n, B, C, D: (D, C, B)),
}


def pfaff_point(z):
    return z / (z - 1)


def euler_point(z):
    return 1 - z


def inversion_point(z):
    return 1 / z


def euler_reflect(p: Params) -> Params:
    """Reflection z -> 1-z as a parameter map to (n, b, 1-n+b-c).

    F_source(1-z) = (c-b)_n / (c)_n * F_target(z), so zeros transport
    through z -> 1-z.
    """
    n, b, c = p.n, p.b, p.c
    c_target = 1 - n + b - c
    if in_excluded_set(c_target, n):
        raise InvalidParameterError(
            f"reflection target c'={c_target} lies in the excluded set for n={n}"
        )
    return Params(n, b, c_target)


def invert(p: Params) -> Params:
    """Inversion z -> 1/z as a parameter map to (n, 1-c-n, 1-b-n).

    F_source(z) = (b)_n / (c)_n * (-z)^n * F_target(1/z).  Applying it
    twice restores the original parameters exactly.
    """
    n, b, c = p.n, p.b, p.c
    c_target = 1 - b - n
    if in_excluded_set(c_target, n):
        raise InvalidParameterError(
            f"inversion target c'={c_target} lies in the excluded set for n={n}"
        )
    return Params(n, 1 - c - n, c_target)


def pfaff(p: Params) -> Params:
    """Pfaff map: F(-n,b;c;z) = (1-z)^n F(-n,c-b;c;z/(z-1)).

    b -> c-b is an involution; c is untouched, so the target always exists.
    When c-b is a nonpositive integer above 1-n the target polynomial drops
    degree; the deficit is readable from the returned Params.degeneration
    rather than raised as an error, because the underlying identity still
    holds in the degenerate limit.
    """
    return Params(p.n, p.c - p.b, p.c)


# The twelve parameter constraints admitting a quadratic transformation,
# each tag (the constraint itself, spelled in terms of n, b, c) with its
# residual, which is zero on the constraint.
_HALF = Fraction(1, 2)
_QUADRATIC_RESIDUALS: Dict[str, Callable] = {
    "c=2b": lambda n, b, c: c - 2 * b,
    "c=-n-b+1": lambda n, b, c: c + n + b - 1,
    "c=(-n+b+1)/2": lambda n, b, c: 2 * c - (-n + b + 1),
    "c=1/2": lambda n, b, c: c - _HALF,
    "b=-n+1/2": lambda n, b, c: b + n - _HALF,
    "c=-n+b+1/2": lambda n, b, c: c + n - b - _HALF,
    "c=3/2": lambda n, b, c: c - 3 * _HALF,
    "b=-n-1/2": lambda n, b, c: b + n + _HALF,
    "c=-n+b-1/2": lambda n, b, c: c + n - b + _HALF,
    "c=-2n": lambda n, b, c: c + 2 * n,
    "c=b+n+1": lambda n, b, c: c - b - n - 1,
    "b=n+1": lambda n, b, c: b - n - 1,
}
QUADRATIC_TEMPLATES: Tuple[str, ...] = tuple(_QUADRATIC_RESIDUALS)


def quadratic_class_match(p: Params) -> List[str]:
    """All quadratic-class templates satisfied by (n, b, c).

    Templates can overlap for special parameter choices, so every match is
    reported, in the fixed template order.  A template matches when its
    residual is on the edge 0 by the one boundary rule, core.side: exactly
    zero in exact mode, within INTEGRALITY_TOL in float mode.
    """
    return [tag for tag, residual in _QUADRATIC_RESIDUALS.items()
            if side(residual(p.n, p.b, p.c)) == 0]
