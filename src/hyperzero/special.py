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
from .core import BoundaryParameterError, Params, as_scalar, cell_code, half_code

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


def _window_2b(n: int, b):
    """The c = 2b window of b and its index: the half code H of b - 1/2 reads
    the half-integer edges, the cell code B of b the integer ones."""
    if n == 1:
        # Single zero at exactly 2 for every admissible b; the windows
        # overlap as printed but all make the same claim, so no boundaries.
        return ("i" if b > -Fraction(1, 2) else "iii" if b > -1 else "v"), None
    top = n // 2
    H = half_code(b)
    if H > -2:  # b > -1/2
        return "i", None
    if -2 * top < H and H % 2:  # -1/2 - j < b < 1/2 - j for 0 < j < top
        return "ii", -klein._index(H)
    if H < -2 * top:  # b < 1/2 - top
        B = cell_code(b)
        lo = -top if n % 2 == 0 else -1 - top
        if B > 2 * lo:
            return "iii", None
        if B < 2 * (1 - n):
            return "v", None
        if B % 2:  # j - n < b < j - n + 1 for 0 < j < top
            return "iv", n - klein._index(-B)
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
    circle_real = n % 2  # z = 2 is a zero exactly when n is odd
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
        per_region, fixed_points=(2,) if circle_real else (), provenance=tag,
    )


def predict_half(n: int, b) -> Geometry:
    """Interval counts for the c = 1/2 polynomial, keyed on the b-window.

    The windows are read from the half code H of b - 1/2 above b = 1/2 and
    from the cell code B of b below it.
    """
    b = as_scalar(b)
    Params(n, b, Fraction(1, 2))  # validity only; c = 1/2 is never excluded
    H = half_code(b)
    if H > 0:
        if H > 2 * (n - 1):  # b > n - 1/2
            return _geometry(n, 0, 0, n, 0, 0, provenance="thm2.2.i")
        if H % 2:  # n - 1/2 - j < b < n + 1/2 - j
            j = n - klein._index(H)
            return _geometry(n, 0, j % 2, n - j, 0, j // 2, provenance=f"thm2.2.ii(j={j})")
    elif H < 0:
        B = cell_code(b)
        if B > 0:  # 0 < b < 1/2
            return _geometry(n, 0, n % 2, 0, 0, n // 2, provenance="thm2.2.iii")
        if B < 2 * (1 - n):  # b < 1 - n
            return _geometry(n, 0, 0, 0, n, 0, provenance="thm2.2.v")
        if B % 2:  # -j < b < 1 - j
            j = klein._index(-B)
            return _geometry(n, 0, (n - j) % 2, 0, j, (n - j) // 2,
                             provenance=f"thm2.2.iv(j={j})")
    raise BoundaryParameterError(f"b={b} sits on a window boundary for c=1/2, n={n}")


def predict_minus2n(n: int, b) -> Geometry:
    """Interval counts for the c = -2n polynomial, keyed on the b-window.

    c = -2n lies below the excluded range {0, ..., 1-n}, so the polynomial
    is defined for every n; only the integer b boundaries are special, and
    the windows are read from the cell code B of b.
    """
    b = as_scalar(b)
    Params(n, b, -2 * n)
    B = cell_code(b)
    if B > 0:
        return _geometry(n, 0, 0, 0, n % 2, n // 2, provenance="thm2.3.i")
    if B < -4 * n:
        return _geometry(n, 0, 0, n % 2, 0, n // 2, provenance="thm2.3.iv")
    if B % 2 == 0:
        raise BoundaryParameterError(f"b={b} sits on a window boundary for c=-2n, n={n}")
    k = klein._index(-B)  # -k < b < 1 - k
    if k <= n:
        return _geometry(n, 0, k, 0, (n - k) % 2, (n - k) // 2, provenance=f"thm2.3.ii(k={k})")
    k -= n + 1  # -n - k - 1 < b < -n - k
    return _geometry(n, 0, n - k, k % 2, 0, k // 2, provenance=f"thm2.3.iii(k={k})")
