"""Zero-geometry predictions for the three directly analyzed quadratic templates.

For c = 2b the zeros organize around the circle |z-1| = 1: some number of
zeros sits exactly on the circle and the non-real remainder splits evenly
over the four regions cut out by the circle and the real axis.  All of it
is read from the count theorem at degree floor(n/2), through the quadratic
transformation that sends the circle to a half-line.  For c = 1/2 and
c = -2n the structure is pure interval counts, keyed on the b-window.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional

from . import klein
from .core import BoundaryParameterError, Params, cell_code, excluded_code, half_code

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
    provenance: str = ""

    @property
    def quadrant_pairs(self) -> Optional[int]:
        """The common per-region count, None without four-region symmetry."""
        if self.regions is None:
            return None
        vals = set(self.regions.values())
        return vals.pop() if len(vals) == 1 else None


def _intervals(n: int, n1: int, n2: int, n3: int, provenance: str) -> Geometry:
    """Interval counts off the circle; klein._prediction makes the rest pairs."""
    g = klein._prediction(n, n1, n2, n3, provenance)
    return Geometry(0, *g.counts, g.nonreal_pairs, provenance=g.provenance)


def predict_2b(n: int, b) -> Geometry:
    """Zero geometry of the c = 2b polynomial, read from the count theorem.

    The quadratic transformation (DLMF 15.8(iii); A&S 15.3.16) gives

        F(-n, b; 2b; z) = (1 - z/2)^n G(w^2),   w = z / (2 - z),

    with G = F(-m, beta; b + 1/2; t), m = floor(n/2) and beta = 1/2 - m for
    even n, -1/2 - m for odd n, where the leftover factor 2 - z is the
    fixed zero z = 2.  w sends the circle |z-1| = 1 to the imaginary axis
    and the disk to Re w > 0, so each zero t < 0 of G is a pair of zeros on
    the circle, each t > 1 a pair in (1,inf), each 0 < t < 1 one zero in
    (0,1) and one in (-inf,0), and each nonreal pair of G one zero in each
    of REGIONS.  G's counts come from klein.classify_cell on its codes
    (for n = 1, G = 1).  A boundary of G, or b + 1/2 in G's excluded set,
    is a window boundary of c = 2b; F's own boundaries raise after it.
    """
    params = Params(n, b, 2 * b)  # rejects b in {0, -1/2, ..., -(n-1)/2}
    b = params.b
    m, odd = divmod(n, 2)
    if m == 0:
        g = klein._prediction(0, 0, 0, 0, "G=1")
    else:
        C = half_code(b) + 2  # the code of b + 1/2
        try:
            if excluded_code(C, m):  # G is undefined
                raise BoundaryParameterError("c")
            g = klein.classify_cell(m, 1 - 2 * m - 2 * odd, C, cell_code(b) + 2 * m + 2 * odd)
        except BoundaryParameterError:
            raise BoundaryParameterError(
                f"b={b} sits on a window boundary for c=2b, n={n}") from None
    klein._require_hypothesis(params)
    # G's record passed klein._prediction at degree m, so n1 + n2 + n3 +
    # 2 pairs = m for G, and the zeros below add up to 2m + odd = n.
    return Geometry(2 * g.n3 + odd, 2 * g.n1, g.n2, g.n2, 2 * g.nonreal_pairs,
                    dict.fromkeys(REGIONS, g.nonreal_pairs),
                    "thm2.1-via-(15.3.16)->" + g.provenance)


def predict_half(n: int, b) -> Geometry:
    """Interval counts for the c = 1/2 polynomial, keyed on the b-window.

    The windows are read from the half code H of b - 1/2 above b = 1/2 and
    from the cell code B of b below it.
    """
    b = Params(n, b, Fraction(1, 2)).b  # c = 1/2 is never excluded
    H = half_code(b)
    if H > 0:
        if H > 2 * (n - 1):  # b > n - 1/2
            return _intervals(n, 0, n, 0, "thm2.2.i")
        if H % 2:  # n - 1/2 - j < b < n + 1/2 - j
            j = n - klein._index(H)
            return _intervals(n, j % 2, n - j, 0, f"thm2.2.ii(j={j})")
    elif H < 0:
        B = cell_code(b)
        if B > 0:  # 0 < b < 1/2
            return _intervals(n, n % 2, 0, 0, "thm2.2.iii")
        if B < 2 * (1 - n):  # b < 1 - n
            return _intervals(n, 0, 0, n, "thm2.2.v")
        if B % 2:  # -j < b < 1 - j
            j = klein._index(-B)
            return _intervals(n, (n - j) % 2, 0, j, f"thm2.2.iv(j={j})")
    raise BoundaryParameterError(f"b={b} sits on a window boundary for c=1/2, n={n}")


def predict_minus2n(n: int, b) -> Geometry:
    """Interval counts for the c = -2n polynomial, keyed on the b-window.

    c = -2n lies below the excluded range {0, ..., 1-n}, so the polynomial
    is defined for every n; only the integer b boundaries are special, and
    the windows are read from the cell code B of b.  The edge b = -n is not
    a count jump: it reads as the cell just above it (klein._above_edge),
    and thm2.3.ii(k=n) and thm2.3.iii(k=0) agree there.
    """
    b = Params(n, b, -2 * n).b
    B = klein._above_edge(cell_code(b), n)
    if B > 0:
        return _intervals(n, 0, 0, n % 2, "thm2.3.i")
    if B < -4 * n:
        return _intervals(n, 0, n % 2, 0, "thm2.3.iv")
    if B % 2 == 0:
        raise BoundaryParameterError(f"b={b} sits on a window boundary for c=-2n, n={n}")
    k = klein._index(-B)  # -k < b < 1 - k
    if k <= n:
        return _intervals(n, k, 0, (n - k) % 2, f"thm2.3.ii(k={k})")
    k -= n + 1  # -n - k - 1 < b < -n - k
    return _intervals(n, n - k, k % 2, 0, f"thm2.3.iii(k={k})")
