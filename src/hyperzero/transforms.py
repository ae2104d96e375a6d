"""Parameter transformations and the quadratic-class template detector.

Each transform here is a parameter map between two hypergeometric
polynomials tied by a two-sided functional identity, together with the
Moebius map that carries zeros of one onto zeros of the other.  Each
Moebius map swaps two of the intervals (1,inf), (0,1), (-inf,0) and fixes
the third; REDUCTIONS states each map once, as its image of (b, c, c-b),
with the swap, and reads that image on values and on cell codes, so
interval zero counts can be carried between parameter regions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Tuple

from .core import InvalidParameterError, Params, in_excluded_set, side


class Reduction(NamedTuple):
    """Equation tag of a parameter map, the two count positions it swaps,
    and the map itself, as its image of (b, c, c-b).

    Count positions index (n1, n2, n3): 0 is (1,inf), 1 is (0,1) and 2 is
    (-inf,0).  image(r, b, c, d = c-b) is (b', c', c'-b'), with r: x -> 1-n-x.
    """

    tag: str
    swap: Tuple[int, int]
    image: Callable

    def codes(self, n: int, B: int, C: int, D: int) -> Tuple[int, int, int]:
        """The image on cell codes (core.cell_code): that of 1-n-x is 2(1-n) minus x's."""
        lo = 2 * (1 - n)
        return self.image(lambda X: lo - X, B, C, D)


# Keyed by the name of the parameter map in this module.
REDUCTIONS = {
    # z -> 1-z swaps (1,inf) and (-inf,0), fixes (0,1) as a set.
    "euler_reflect": Reduction("(2.1)", (0, 2), lambda r, b, c, d: (b, r(d), r(c))),
    # z -> 1/z swaps (1,inf) and (0,1), fixes (-inf,0) as a set.
    "invert": Reduction("(2.2)", (0, 1), lambda r, b, c, d: (r(c), r(b), d)),
    # z -> z/(z-1) swaps (0,1) and (-inf,0), fixes (1,inf) as a set.
    "pfaff": Reduction("(3.8)", (1, 2), lambda r, b, c, d: (d, c, b)),
}


def pfaff_point(z):
    return z / (z - 1)


def euler_point(z):
    return 1 - z


def inversion_point(z):
    return 1 / z


def _image(name: str, p: Params) -> Params:
    """The image of p under REDUCTIONS[name]; its c' must avoid the excluded set."""
    n = p.n
    b, c, _ = REDUCTIONS[name].image(lambda x: 1 - n - x, p.b, p.c, p.c - p.b)
    if in_excluded_set(c, n):
        raise InvalidParameterError(f"{name} target c'={c} lies in the excluded set for n={n}")
    return Params(n, b, c)


def euler_reflect(p: Params) -> Params:
    """Reflection z -> 1-z as a parameter map to (n, b, 1-n+b-c).

    F_source(1-z) = (c-b)_n / (c)_n * F_target(z), so zeros transport
    through z -> 1-z.
    """
    return _image("euler_reflect", p)


def invert(p: Params) -> Params:
    """Inversion z -> 1/z as a parameter map to (n, 1-c-n, 1-b-n).

    F_source(z) = (b)_n / (c)_n * (-z)^n * F_target(1/z).  Applying it
    twice restores the original parameters exactly.
    """
    return _image("invert", p)


def pfaff(p: Params) -> Params:
    """Pfaff map: F(-n,b;c;z) = (1-z)^n F(-n,c-b;c;z/(z-1)).

    b -> c-b is an involution; c is untouched, so the target always exists.
    When c-b is a nonpositive integer above 1-n the target polynomial drops
    degree; the deficit is readable from the returned Params.degeneration
    rather than raised as an error, because the underlying identity still
    holds in the degenerate limit.
    """
    return _image("pfaff", p)


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
