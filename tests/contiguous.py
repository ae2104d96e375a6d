"""The count theorem by Sturm's theorem on the contiguous relation in the degree.

Let F_k = F(-k, b; c; z) for k = 0..n.  Gauss's contiguous relation in the
first parameter (DLMF 15.5.E11) reads

    (c + k) F_{k+1} = (2k + c - (b + k) z) F_k + k (z - 1) F_{k-1},

and z F_n' = n (F_n - F_{n-1}) (DLMF 15.5(i)).  On each of (1, inf), (0, 1)
and (-inf, 0) the sign s_z of z and the sign s_1 of z - 1 are constant.
Put e_n = 1, e_{n-1} = -s_z and e_{k-1} = -s_1 sign(c + k) e_{k+1}; then
e_n F_n, ..., e_0 F_0 is a Sturm sequence on that interval: F_0 = 1, two
neighbours share no zero (the relation would carry it down to F_0), at a
zero of F_k with 0 < k < n the relation gives its neighbours opposite
signs, and at a zero of F_n the relation for F_n' gives F_n' the sign of
e_{n-1} F_{n-1}.  So the zeros of F_n in the interval number V(lo) - V(hi),
the drop in sign variations between its ends.

The ends are closed forms: F_k(0) = 1, F_k(1) = (c - b)_k / (c)_k
(Chu-Vandermonde, DLMF 15.4.24), and F_k has the leading coefficient
(-1)^k (b)_k / (c)_k.  Off the lines where b or c - b lies in
{0, ..., 1-n} none of these vanishes, and each is a product of the signs
of b + j, c + j and c - b + j for j < n.  The value x + j has the cell code
X + 2j (core.cell_code) for the code X of x, with the sign of x + j, so
the counts are read from the cell codes alone, in O(n) signs.  They never
touch the count formulas or the coefficients of F.
"""

from itertools import accumulate
from operator import mul
from typing import List, Tuple


def _rising_signs(code: int, n: int) -> Tuple[List[int], List[int]]:
    """The signs of x + j for j < n, and of the rising factorials (x)_k for
    k = 0..n, for the value x of cell code code."""
    signs = [(code + 2 * j > 0) - (code + 2 * j < 0) for j in range(n)]
    if 0 in signs:
        raise ValueError(f"code {code} lies on one of the lines of n = {n}")
    return signs, list(accumulate(signs, mul, initial=1))


def contiguous_counts(n: int, B: int, C: int, D: int) -> Tuple[int, int, int]:
    """(n1, n2, n3) of F(-n, b; c; z) for the cell codes B, C, D of b, c and c - b.

    ValueError where b, c or c - b lies in {0, ..., 1-n}.
    """
    _, b_rising = _rising_signs(B, n)
    c_signs, c_rising = _rising_signs(C, n)
    _, d_rising = _rising_signs(D, n)
    at_zero = [1] * (n + 1)
    at_one = [d * c for d, c in zip(d_rising, c_rising)]
    at_plus_inf = [(-1) ** k * b * c for k, (b, c) in enumerate(zip(b_rising, c_rising))]
    at_minus_inf = [b * c for b, c in zip(b_rising, c_rising)]

    def variations(s_z: int, s_1: int, values: List[int]) -> int:
        e = [0] * (n + 1)
        e[n], e[n - 1] = 1, -s_z
        for k in range(n - 1, 0, -1):
            e[k - 1] = -s_1 * c_signs[k] * e[k + 1]
        seq = [ek * v for ek, v in zip(e, values)]
        return sum(u != v for u, v in zip(seq, seq[1:]))

    return (variations(1, 1, at_one) - variations(1, 1, at_plus_inf),
            variations(1, -1, at_zero) - variations(1, -1, at_one),
            variations(-1, -1, at_minus_inf) - variations(-1, -1, at_zero))
