"""Zero-geometry predictions for the three directly analyzed quadratic templates.

For c = 2b the zeros organize around the circle |z-1| = 1: depending on
which b-window holds, some number of zeros sits exactly on the circle and
the non-real remainder splits evenly over the four regions cut out by the
circle and the real axis.  For c = 1/2 and c = -2n the structure is pure
interval counts.  Real zeros that are not forced onto the circle are
located by the interval count formulas, so the two sources of information
compose into one full picture per parameter window.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

from . import klein
from .core import BoundaryParameterError, Params, as_scalar, side

# The four regions cut out by the circle |z-1| = 1 and the real axis.
REGIONS = ("inside_upper", "inside_lower", "outside_upper", "outside_lower")


class Geometry(NamedTuple):
    """Zero geometry of one polynomial, predicted or observed.

    on_circle counts zeros on |z-1| = 1 including real ones (the circle
    meets the axis at 0 and 2, and 2 can be a fixed zero).  The real_*
    fields count real zeros off the circle, and nonreal_pairs counts
    off-circle conjugate pairs.  regions counts the non-real zeros in each
    of REGIONS; it is None on a prediction without four-region symmetry.
    """

    on_circle: int
    real_gt1: int
    real_in01: int
    real_neg: int
    nonreal_pairs: int
    regions: Optional[Dict[str, int]] = None
    fixed_points: Tuple[int, ...] = ()
    provenance: str = ""

    @property
    def quadrant_pairs(self) -> Optional[int]:
        """The common per-region count, None without four-region symmetry."""
        if self.regions is None:
            return None
        vals = set(self.regions.values())
        return vals.pop() if len(vals) == 1 else None


def _geometry(n: int, on_circle, real_gt1, real_in01, real_neg, nonreal_pairs,
              per_region=None, fixed_points=(), provenance="") -> Geometry:
    """A predicted Geometry, checked against the degree:

        on_circle + real_gt1 + real_in01 + real_neg + 2*nonreal_pairs = n.
    """
    total = on_circle + real_gt1 + real_in01 + real_neg + 2 * nonreal_pairs
    if total != n:
        raise ValueError(f"geometry accounts for {total} zeros, degree is {n}")
    if per_region is not None and nonreal_pairs != 2 * per_region:
        raise ValueError("per-region counts inconsistent with off-circle pairs")
    regions = None if per_region is None else dict.fromkeys(REGIONS, per_region)
    return Geometry(on_circle, real_gt1, real_in01, real_neg, nonreal_pairs,
                    regions, fixed_points, provenance)


def _inside(lo, x, hi) -> bool:
    return side(x, lo) > 0 and side(x, hi) < 0


def _window_2b(n: int, b):
    half = Fraction(1, 2)
    if n == 1:
        # Single zero at exactly 2 for every admissible b; the windows
        # overlap as printed but all make the same claim, so no boundaries.
        if b > -half:
            return "i", None
        if b > -1:
            return "iii", None
        return "v", None
    top = n // 2
    if side(b, -half) > 0:
        return "i", None
    for j in range(1, top):
        if _inside(-half - j, b, half - j):
            return "ii", j
    lo = -top if n % 2 == 0 else -1 - top
    if _inside(lo, b, half - top):
        return "iii", None
    for j in range(1, top):
        if _inside(j - n, b, j - n + 1):
            return "iv", j
    if side(b, 1 - n) < 0:
        return "v", None
    raise BoundaryParameterError(f"b={b} sits on a window boundary for c=2b, n={n}")


def predict_2b(n: int, b) -> Geometry:
    """Zero geometry of the c = 2b polynomial, keyed on the b-window.

    Circle membership and the per-region split come from the window case;
    the interval placement of the off-circle real zeros comes from the
    count formulas at (n, b, 2b), which are valid everywhere the windows
    are interior.  The two are cross-checked against each other and any
    disagreement is a hard error.
    """
    b = as_scalar(b)
    params = Params(n, b, 2 * b)  # rejects b in {0, -1/2, ..., -(n-1)/2}
    case, j = _window_2b(n, b)
    odd = n % 2
    circle_real = odd  # z = 2 is a zero exactly when n is odd
    if case == "i":
        on_circle, per_region, extra_real = n, 0, 0
    elif case == "ii":
        on_circle, per_region, extra_real = n - 2 * j, j // 2, 2 * (j % 2)
    elif case == "iii":
        on_circle, per_region = circle_real, n // 4
        extra_real = 2 if n % 4 in (2, 3) else 0
    elif case == "iv":
        on_circle, per_region, extra_real = circle_real, j // 2, 2 * (j % 2)
    else:
        on_circle, per_region, extra_real = circle_real, 0, n - circle_real

    counts = klein.predict_counts(params)
    total_real = counts.n1 + counts.n2 + counts.n3
    off_real = total_real - circle_real
    if case == "iv":
        # The n-2j zeros pinned in (1,inf) are off-circle except a fixed z=2.
        expected_off_real = (n - 2 * j - circle_real) + extra_real
    else:
        expected_off_real = extra_real
    if off_real != expected_off_real:
        raise RuntimeError(
            f"window case {case} expects {expected_off_real} off-circle real zeros, "
            f"count formulas give {off_real} (n={n}, b={b})"
        )
    off_nonreal = (n - total_real) - (on_circle - circle_real)
    if off_nonreal != 4 * per_region:
        raise RuntimeError(
            f"window case {case} expects {4 * per_region} off-circle non-real zeros, "
            f"count formulas give {off_nonreal} (n={n}, b={b})"
        )
    tag = f"thm2.1.{case}" + (f"(j={j})" if j is not None else "")
    return _geometry(
        n, on_circle, counts.n1 - circle_real, counts.n2, counts.n3, off_nonreal // 2,
        per_region, fixed_points=(2,) if odd else (), provenance=tag,
    )


def _window_half(n: int, b):
    half = Fraction(1, 2)
    if side(b, n - half) > 0:
        return "i", None
    for j in range(1, n):
        if _inside(n - half - j, b, n + half - j):
            return "ii", j
    if _inside(0, b, half):
        return "iii", None
    for j in range(1, n):
        if _inside(-j, b, -j + 1):
            return "iv", j
    if side(b, 1 - n) < 0:
        return "v", None
    raise BoundaryParameterError(f"b={b} sits on a window boundary for c=1/2, n={n}")


def predict_half(n: int, b) -> Geometry:
    """Interval counts for the c = 1/2 polynomial, keyed on the b-window."""
    b = as_scalar(b)
    Params(n, b, Fraction(1, 2))  # validity only; c = 1/2 is never excluded
    case, j = _window_half(n, b)
    if case == "i":
        gt1, in01, neg, pairs = 0, n, 0, 0
    elif case == "ii":
        gt1, in01, neg, pairs = j % 2, n - j, 0, j // 2
    elif case == "iii":
        gt1, in01, neg, pairs = n % 2, 0, 0, n // 2
    elif case == "iv":
        gt1, in01, neg, pairs = (n - j) % 2, 0, j, (n - j) // 2
    else:
        gt1, in01, neg, pairs = 0, 0, n, 0
    tag = f"thm2.2.{case}" + (f"(j={j})" if j is not None else "")
    return _geometry(n, 0, gt1, in01, neg, pairs, provenance=tag)


def _window_minus2n(n: int, b):
    if side(b) > 0:
        return "i", None
    for k in range(1, n + 1):
        if _inside(-k, b, -k + 1):
            return "ii", k
    for k in range(0, n):
        if _inside(-n - k - 1, b, -n - k):
            return "iii", k
    if side(b, -2 * n) < 0:
        return "iv", None
    raise BoundaryParameterError(f"b={b} sits on a window boundary for c=-2n, n={n}")


def predict_minus2n(n: int, b) -> Geometry:
    """Interval counts for the c = -2n polynomial, keyed on the b-window.

    c = -2n lies below the excluded range {0, ..., 1-n}, so the polynomial
    is defined for every n; only the integer b boundaries are special.
    """
    b = as_scalar(b)
    Params(n, b, -2 * n)
    case, k = _window_minus2n(n, b)
    if case == "i":
        gt1, in01, neg, pairs = 0, 0, n % 2, n // 2
    elif case == "ii":
        gt1, in01, neg, pairs = k, 0, (n - k) % 2, (n - k) // 2
    elif case == "iii":
        gt1, in01, neg, pairs = n - k, k % 2, 0, k // 2
    else:
        gt1, in01, neg, pairs = 0, n % 2, 0, n // 2
    tag = f"thm2.3.{case}" + (f"(k={k})" if k is not None else "")
    return _geometry(n, 0, gt1, in01, neg, pairs, provenance=tag)
