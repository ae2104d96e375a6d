"""Terminating Gauss hypergeometric series and classical-polynomial crosschecks.

The central object is the degree-n polynomial

    F(-n, b; c; z) = sum_{k=0}^{n} (-n)_k (b)_k / ((c)_k k!) z^k,

where (a)_k is the rising factorial.  Everything works in one of two
arithmetic modes: rational inputs stay exact end to end (Fraction
coefficients, exact sign decisions), any float input switches the whole
computation to float mode.  Exactness is load-bearing because downstream
zero counts are integers that jump at parameter boundaries, and a rounded
sign would silently cross one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

Scalar = Union[Fraction, float]

# Distance within which a float counts as on an edge (see side).  Counts
# change by whole units across an edge, so a float this close to one is
# flagged instead of guessed.
INTEGRALITY_TOL = 1e-12


class InvalidParameterError(ValueError):
    """F(-n, b; c; z) is undefined here, or a transform target would be."""


class BoundaryParameterError(ValueError):
    """Parameters sit on a classification boundary where counts jump."""


class NonConvergenceError(RuntimeError):
    """A root solve failed: its sweeps ran out, a root stayed uncertified,
    or a value left the float range."""


def as_scalar(value) -> Scalar:
    """Coerce ints to Fraction; pass Fraction and float through."""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid parameter")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def float_or_inf(value: Scalar) -> float:
    """float(value), or inf with value's sign for an exact value too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def side(value: Scalar, edge=0) -> int:
    """Which side of edge value lies on: the sign of value - edge, 0 on the edge.

    This is the one boundary rule.  An exact value is on the edge only when
    it equals it; a float is on the edge within INTEGRALITY_TOL of it.
    """
    d = value - edge
    if isinstance(d, float) and abs(d) < INTEGRALITY_TOL:
        return 0
    return (d > 0) - (d < 0)


def cell_code(value: Scalar) -> int:
    """2k when value is on the integer k (in the sense of side), else 2 floor(value) + 1.

    -value has code -cell_code(value), and value + m has cell_code(value) + 2m
    for an integer m, so every comparison of value, negated or shifted by an
    integer, with an integer is a comparison of its code with an even number.
    A float is read by float_codes and an exact value by ratio_codes; a float
    that is not finite has no code and raises ValueError.
    """
    if isinstance(value, float):
        code = float_codes((value,))[0]
        if code is None:
            raise ValueError(f"{value} is not finite and has no cell code")
        return code
    return ratio_code(value.numerator, value.denominator)


def float_codes(values: Iterable[float]) -> List[Optional[int]]:
    """cell_code of each float, or None for one that is not finite.

    With f = floor(v), the code is 2f when v - f < INTEGRALITY_TOL, 2f + 2
    when f + 1 - v < INTEGRALITY_TOL, and 2f + 1 otherwise.  That is side's
    rule at the nearest integer k: the band is narrower than 1/2, so v is
    within it of k only if k is f or f + 1.  Each float test answers as the
    exact difference would, and so as side(v, k) == 0 does: inside the band
    the float difference is exact (Sterbenz: v and the integer lie within a
    factor 2 of each other, or the integer is 0), and outside it the rounded
    difference cannot fall below the float INTEGRALITY_TOL, since rounding
    is monotone.  A float of magnitude 2^52 or more is an integer, so there
    v - f is 0 and f + 1 - v, which could round, is not formed.
    """
    tol = INTEGRALITY_TOL
    floor, isfinite = math.floor, math.isfinite
    return [
        2 * (f := floor(v)) + (0 if v - f < tol else 2 if f + 1 - v < tol else 1)
        if isfinite(v) else None
        for v in values
    ]


def ratio_codes(nums: Iterable[int], den: int) -> List[int]:
    """cell_code of each exact value num / den, for den > 0.

    The code is floor + ceil of the value: 2k on the integer k, 2k + 1
    between k and k + 1.
    """
    return [num // den - (-num // den) for num in nums]


def ratio_code(num: int, den: int) -> int:
    """cell_code of the exact value num / den, for den > 0."""
    return ratio_codes((num,), den)[0]


def half_code(value: Scalar) -> int:
    """cell_code of value - 1/2, with value on k + 1/2 decided by side(value, k + 1/2).

    A float is compared with floor(value) + 1/2, its one half-integer within
    1/2; value - 1/2 is not formed, since it rounds when |value| + 1/2 needs
    a larger exponent than value does.
    """
    if isinstance(value, float):
        k = math.floor(value)
        return 2 * k + side(value, k + 0.5)
    return ratio_code(2 * value.numerator - value.denominator, 2 * value.denominator)


def excluded_code(code: int, n: int) -> bool:
    """True when code is the cell code of one of 0, -1, ..., 1-n: the excluded set of n."""
    return code % 2 == 0 and 2 * (1 - n) <= code <= 0


def in_excluded_set(value: Scalar, n: int) -> bool:
    """True when value is on one of 0, -1, ..., -(n-1); never for a float that is not finite."""
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return excluded_code(cell_code(value), n)


@dataclass(frozen=True)
class Params:
    """The triple (n, b, c) defining F(-n, b; c; z).

    n must be a positive integer.  c may not be one of 0, -1, ..., -(n-1),
    where the series denominators vanish.  b and c are stored as Fractions
    (exact mode) or both as floats; a single float input demotes the pair.
    """

    n: int
    b: Scalar
    c: Scalar

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise InvalidParameterError(f"n must be a positive integer, got {self.n!r}")
        b = as_scalar(self.b)
        c = as_scalar(self.c)
        if isinstance(b, float) or isinstance(c, float):
            b, c = float_or_inf(b), float_or_inf(c)
            # c - b is checked too: the classifier reads it, and two finite
            # floats of opposite sign can differ by more than a float holds
            if not (math.isfinite(b) and math.isfinite(c) and math.isfinite(c - b)):
                raise InvalidParameterError(
                    f"b, c and c-b must be finite, got b={b}, c={c}"
                )
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if in_excluded_set(c, self.n):
            raise InvalidParameterError(
                f"c={c} lies in the excluded set {{0, -1, ..., {1 - self.n}}}; "
                "the series is undefined there"
            )

    @property
    def is_exact(self) -> bool:
        return isinstance(self.b, Fraction)

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"

    @property
    def degeneration(self) -> int:
        """Degree lost when b is a nonpositive integer above 1-n.

        For b = -m with 0 <= m < n the series coefficients vanish beyond
        index m, so the polynomial's effective degree drops to m.  This is
        the degree that coefficients builds, so a float b is read at its
        exact value, not by side: one within INTEGRALITY_TOL of -m but
        not on it leaves every coefficient nonzero and F of degree n.
        """
        code = ratio_code(*self.b.as_integer_ratio())
        return self.n + code // 2 if excluded_code(code, self.n) else 0


@dataclass(frozen=True)
class Poly:
    """Dense real-coefficient polynomial, ascending degree order.

    The stored length is degree + 1 of the *construction* degree: for a
    degenerate series the trailing coefficients are exact zeros and
    effective_degree reports the true degree.  The coefficients are all
    Fractions (exact mode) or all floats.
    """

    coeffs: Tuple[Scalar, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient list")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.coeffs[0], Fraction)

    @property
    def effective_degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def float_coeffs(self) -> Tuple[float, ...]:
        return tuple(float(a) for a in self.coeffs)


def poly(values) -> Poly:
    """Build a Poly: all floats if any entry is a float, else all Fractions."""
    vals = [as_scalar(v) for v in values]
    if any(isinstance(v, float) for v in vals):
        return Poly(tuple(float(v) for v in vals))
    return Poly(tuple(vals))


def pochhammer(alpha, k: int):
    """Rising factorial alpha (alpha+1) ... (alpha+k-1); empty product is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for i in range(k):
        out = out * (alpha + i)
    return out


@functools.lru_cache(maxsize=16, typed=True)
def _binomials(alpha, k: int) -> tuple:
    """The binomials alpha (alpha-1) ... (alpha-i+1) / i! for i = 0, ..., k,
    each from the last by one ratio.

    Built once per (alpha, k): a jacobi proof evaluates the same two lists
    at every z.  typed, since Fraction(1) == 1.0 and an exact alpha must
    never read a list of floats.
    """
    out = [1]
    for i in range(k):
        out.append(out[-1] * (alpha - i) / (i + 1))
    return tuple(out)


def coefficients(p: Params) -> Poly:
    """Series coefficients of F(-n, b; c; z), all n+1 of them.

    Built from the ratio coeff[k+1]/coeff[k] = (k-n)(b+k) / ((c+k)(k+1)),
    which avoids overflowing intermediate rising-factorial products in float
    mode.  In exact mode, with b = p_b/q_b and c = p_c/q_c, the ratio is the
    integer quotient (k-n)(p_b + k q_b) q_c / ((p_c + k q_c) q_b (k+1)), so
    each coefficient is one Fraction of the last one's numerator and
    denominator times those integers.  For b = -m with m < n the factor
    (b+m) is zero and every later coefficient is exactly zero, in both
    modes, which realizes the limiting convention for integer b.  A float
    coefficient that overflows (|b| near 1e300 at n = 3), or one up to the
    degree n - p.degeneration that underflows to zero (c near 1e200 at
    n = 5), raises InvalidParameterError: the polynomial has no float form
    of its degree.
    """
    n, b, c = p.n, p.b, p.c
    if p.is_exact:
        pb, qb, pc, qc = b.numerator, b.denominator, c.numerator, c.denominator
        a = Fraction(1)
        coeffs = [a]
        for k in range(n):
            a = Fraction(a.numerator * (k - n) * (pb + k * qb) * qc,
                         a.denominator * (pc + k * qc) * qb * (k + 1))
            coeffs.append(a)
        return Poly(tuple(coeffs))
    coeffs = [1.0]
    for k in range(n):
        coeffs.append(coeffs[-1] * (k - n) * (b + k) / ((c + k) * (k + 1)))
    if not all(math.isfinite(a) for a in coeffs):
        raise InvalidParameterError(
            f"a float coefficient of F(-{n}, {b}; {c}; z) overflows"
        )
    if 0.0 in coeffs[:n - p.degeneration + 1]:
        raise InvalidParameterError(
            f"a float coefficient of F(-{n}, {b}; {c}; z) underflows to zero"
        )
    return Poly(tuple(coeffs))


def evaluate(q: Poly, z):
    """Horner evaluation; exact when both the poly and the point are rational."""
    acc = 0
    for a in reversed(q.coeffs):
        acc = acc * z + a
    return acc


def horner_with_derivative(coeffs, z):
    """Value and first derivative in one pass."""
    acc = 0
    dacc = 0
    for a in reversed(coeffs):
        dacc = dacc * z + acc
        acc = acc * z + a
    return acc, dacc


def jacobi(n: int, alpha, beta, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) via its explicit finite sum.

    The sum form is a polynomial identity in alpha and beta, so it is valid
    for every real parameter pair, including those outside the range where
    the usual orthogonality (and hypergeometric c-parameter) makes sense.
    Accepts complex x.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lower = (x - 1) / 2
    upper = (x + 1) / 2
    first, second = _binomials(n + alpha, n), _binomials(n + beta, n)
    total = 0
    for nu in range(n + 1):
        term = first[nu] * second[n - nu]
        total = total + term * lower ** (n - nu) * upper ** nu
    return total


def gegenbauer(n: int, lam, x):
    """Gegenbauer polynomial C_n^lam(x) by the standard three-term recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    prev = 1
    cur = 2 * lam * x
    for k in range(2, n + 1):
        prev, cur = cur, (2 * x * (k + lam - 1) * cur - (k + 2 * lam - 2) * prev) / k
    return cur


def gegenbauer_point(n: int, lam) -> Params:
    """The point (n, n+2*lam, lam+1/2) of the Gegenbauer connection.

    The connection divides by (2*lam)_n, so a lam where it vanishes (2*lam
    in the excluded set of n) is invalid, as is a point that Params rejects.
    """
    if in_excluded_set(2 * lam, n):
        raise InvalidParameterError(f"(2*lam)_n vanishes for lam={lam}, n={n}")
    return Params(n, n + 2 * lam, lam + Fraction(1, 2))


class Counts(NamedTuple):
    """Real-zero counts of one polynomial per canonical interval.

    n1 counts (1,inf), n2 counts (0,1), n3 counts (-inf,0), endpoints
    excluded; mult_at_1 is the multiplicity of the zero z = 1.
    nonreal_pairs counts conjugate pairs where the source knows them (None
    from the Sturm counter), and provenance names the formula or theorem
    case that produced the numbers.
    """

    n1: int
    n2: int
    n3: int
    mult_at_1: int = 0
    nonreal_pairs: Optional[int] = None
    provenance: str = ""

    @property
    def counts(self) -> Tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)


@dataclass(frozen=True)
class Root:
    """One computed root of F with its multiplicity.

    residual is |F(value)| by float Horner on F's unscaled coefficients, so
    it grows with them and says little about the root by itself: at the
    exact root z = 1 of F(-50, 151/7; -192/7; z), whose coefficients reach
    3.4e37, it reads 1.84e21.  A root of an exact F is certified in exact
    arithmetic (z = 1 by the exact split of F, every other root by an exact
    Newton step), not by its residual.
    """

    value: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class RootSet:
    """Computed complex roots with multiplicities and residuals.

    Non-real entries are conjugate-paired after the solve; the sum of
    multiplicities equals the effective degree of the source polynomial.
    """

    roots: Tuple[Root, ...]
    iterations: int

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def values(self) -> Tuple[complex, ...]:
        """Root values repeated to multiplicity."""
        out = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return tuple(out)
