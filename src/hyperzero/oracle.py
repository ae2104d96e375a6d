"""Independent ground truth: exact Sturm counting and a numeric root solver.

Neither sturm_counts nor all_roots consults the count formulas.  Real
roots per interval are counted by sign variations of an exact integer Sturm
chain.  all_roots reads z = 1, the one possible multiple zero of F, with
its multiplicity m from an exact split, and computes the other complex
roots, of F or of F/(z - 1)^m, by simultaneous (Aberth-style) iteration.  A
float F takes one pass with Horner evaluation (_solve_float).  An exact F
takes its stages in turn (_solve_exact, _stages): that pass, a stage that
evaluates F by Gauss's contiguous relation in a, and a rescue with exact
evaluation, each built only when the one before leaves a root unsound.
Only exact Newton steps certify its roots; the float stages merely steer
the search.
verify() checks the predictions against both sides, off the theorem
boundaries, and reports field-by-field agreement.

Sturm chains are kept as integer polynomials: every element may be scaled
by a positive constant without changing sign variations, so remainders are
computed fraction-free and stripped of integer content to control
coefficient growth.  Evaluations at 0 and 1 (the only points where a
multiple zero can hide) are exact.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, List, Optional, Tuple

from . import klein, special
from .core import (
    BoundaryParameterError,
    Counts,
    InvalidParameterError,
    NonConvergenceError,
    Params,
    Poly,
    Root,
    RootSet,
    coefficients,
    horner_with_derivative,
    side,
)
from .special import Geometry

# z -> (p(z), p'(z), the bound |p(z)| must meet for z to settle, and the one
# it must meet for z to settle where its Newton step stalls)
Evaluator = Callable[[complex], Tuple[complex, complex, float, float]]

# The one root rule: all_roots accepts a computed root z when an exact
# Newton step bounds its distance to a true root by ROOT_BAND (1 + |z|), and
# interval_counts and geometry_report place roots with the same band.
ROOT_BAND = 1e-9

# Sweep budget of the Horner pass and of the exact rescue of all_roots.
MAX_SWEEPS = 1000

# Sweep budget of the recurrence stage of all_roots.  Where the stage finds
# every root it takes at most 46 sweeps on the verify families.
RECURRENCE_SWEEPS = 60

# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficients)


def _trim(cs: List[int]) -> List[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _content(cs: List[int]) -> int:
    g = 0
    for a in cs:
        g = math.gcd(g, abs(a))
    return g or 1


def _primitive(cs: List[int]) -> List[int]:
    g = _content(cs)
    return [a // g for a in cs]


def _derive(cs: List[int]) -> List[int]:
    return [k * a for k, a in enumerate(cs) if k > 0] or [0]


def _prem(f: List[int], g: List[int]) -> Tuple[List[int], int]:
    """Fraction-free remainder of f by g.

    Returns (r, steps) with r = lc(g)**steps * f mod g; the caller corrects
    for the sign of the implied scale.
    """
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    steps = 0
    while len(r) - 1 >= dg and any(r):
        shift = len(r) - 1 - dg
        lr = r[-1]
        r = [lg * a for a in r]
        for i, a in enumerate(g):
            r[shift + i] -= lr * a
        _trim(r)
        steps += 1
    return _trim(r), steps


def _sturm_sequence(f: List[int]) -> List[List[int]]:
    """The Sturm chain of f: f, f', then the sign-corrected fraction-free
    remainders, as primitive integer polynomials.

    Each remainder is a positive multiple of the classical -rem(prev, cur),
    so sign variations are unchanged, degrees strictly decrease, and the
    last element is gcd(f, f') up to sign.  Only sturm_counts reads it:
    all_roots builds no remainder sequence, since the one multiple zero F
    can have is at z = 1 (_deflate_at_one).
    """
    out = [_primitive(_trim(list(f)))]
    g = _trim(_derive(f))
    if g:
        out.append(_primitive(g))
    while len(out) >= 2 and len(out[-1]) > 1:
        prev, cur = out[-2], out[-1]
        r, steps = _prem(prev, cur)
        if not r:
            break
        # prem scales by lc(cur)**steps; a negative scale must not flip the
        # sign, so fold it into the negation.
        positive_scale = cur[-1] > 0 or steps % 2 == 0
        out.append(_primitive([-x for x in r] if positive_scale else r))
    return out


def _deflate_at_one(cs: List[int]) -> Tuple[List[int], int]:
    """cs with its (z - 1) factors divided out, and their number m.

    sum(cs) is cs(1), so the division by z - 1 is exact while it is 0.  It
    is synthetic division: each quotient coefficient is the sum of the
    coefficients above it.
    """
    m = 0
    while len(cs) > 1 and sum(cs) == 0:
        cs = list(accumulate(reversed(cs[1:])))[::-1]
        m += 1
    return cs, m


def _to_int_coeffs(q: Poly) -> List[int]:
    if not q.is_exact:
        raise InvalidParameterError("exact rational coefficients required")
    deg = q.effective_degree
    if deg < 0:
        raise ValueError("zero polynomial")
    cs = q.coeffs[: deg + 1]
    denom = math.lcm(*(a.denominator for a in cs))
    return [a.numerator * (denom // a.denominator) for a in cs]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Sturm counting


def _count_flips(signs: List[int]) -> int:
    flips = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            flips += 1
        prev = s
    return flips


def sturm_counts(q: Poly) -> Counts:
    """Exact per-interval counts of distinct real roots, endpoints excluded.

    The root z = 1 is deflated first (_deflate_at_one, the split all_roots
    makes too) and reported as a multiplicity (it is the one admissible
    multiple-zero location of F with nonzero abscissa); any z = 0 factors
    are stripped.  The remainder is counted by sign variations V of its own
    Sturm chain (_sturm_sequence) at -inf, 0, 1 and +inf: V(a) - V(b) is
    the number of distinct real roots in (a, b] for a < b.  q may be any
    exact polynomial, not only an F: the chain of a non-squarefree
    polynomial still counts distinct roots (generalized Sturm theorem)
    because none of the finite query points is a root.
    """
    cs, mult_at_1 = _deflate_at_one(_to_int_coeffs(q))
    while cs and cs[0] == 0:
        cs = cs[1:]
    if len(cs) <= 1:
        return Counts(0, 0, 0, mult_at_1)
    chain = _sturm_sequence(cs)
    # at +inf each element has the sign of its leading coefficient, at -inf
    # that sign flipped for odd degree; p(0) is the constant term and p(1)
    # the coefficient sum
    v_neg = _count_flips([_sign(p[-1]) * (-1) ** (len(p) - 1) for p in chain])
    v0 = _count_flips([_sign(p[0]) for p in chain])
    v1 = _count_flips([_sign(sum(p)) for p in chain])
    v_pos = _count_flips([_sign(p[-1]) for p in chain])
    return Counts(v1 - v_pos, v0 - v1, v_neg - v0, mult_at_1)


# ---------------------------------------------------------------------------
# numeric root solving


def _residual_scale(coeffs: List[float], z: complex) -> float:
    scale = 0.0
    zp = 1.0
    az = abs(z)
    for a in coeffs:
        scale += abs(a) * zp
        zp *= az
    return scale


def _newton_polygon_starts(coeffs: List[float]) -> List[complex]:
    """Initial guesses on the circles of the Newton polygon (Bini 1996).

    The upper convex hull of the points (k, log|a_k|), zero coefficients
    skipped, has an edge from i to j when about j - i roots have modulus
    near (|a_i|/|a_j|)**(1/(j-i)).  Each edge puts that many points on that
    circle, at angles 2*pi*t/(j-i) + 2*pi*i/d + 0.7, so every group of
    roots starts on its own scale; the 0.7 keeps the starts off the real
    axis, where a real polynomial's iteration could not leave it.  A root
    at 0 (leading zero coefficients) starts at 0.
    """
    d = len(coeffs) - 1
    hull: List[Tuple[int, float]] = []
    for k, a in enumerate(coeffs):
        if a == 0:
            continue
        y = math.log(abs(a))
        # drop the last hull point unless it lies strictly above the chord
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
            <= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append((k, y))
    zs = [0j] * hull[0][0]
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        m = j - i
        radius = math.exp((yi - yj) / m)
        offset = 2 * math.pi * i / d + 0.7
        zs.extend(radius * cmath.exp(1j * (2 * math.pi * t / m + offset)) for t in range(m))
    return zs


def _settle_on_step(pair: Callable[[complex], Tuple[complex, complex]],
                    tol: float) -> Evaluator:
    """An _aberth evaluator from z -> (p(z), p'(z)): z settles once its
    Newton step |p/p'| is at most tol (1 + |z|), and never where p' = 0.
    It also settles once that step is within ROOT_BAND (1 + |z|) and is not
    at most half its step of the sweep before: the test on which
    _exact_newton hands a point off.  Where forward recursion is unstable,
    the float steps of _contiguous_pair stall there at their noise floor,
    short of tol, and the exact Newton steps of _refine finish the point."""
    def evaluate(z: complex) -> Tuple[complex, complex, float, float]:
        p, dp = pair(z)
        scale = abs(dp) * (1 + abs(z))
        return p, dp, (tol * scale if dp != 0 else -1.0), ROOT_BAND * scale
    return evaluate


def _settle_on_residual(coeffs: List[float]) -> Evaluator:
    """An _aberth evaluator by Horner on coeffs in floats, where z settles on
    a small backward error: |p(z)| at most 1e-14 of sum |a_k| |z|**k, and
    never on a stalled step (its stall bound is 0.0)."""
    terms = [(a, abs(a)) for a in reversed(coeffs)]
    def evaluate(z: complex) -> Tuple[complex, complex, float, float]:
        p = dp = 0j
        scale = 0.0
        az = abs(z)
        for a, size in terms:
            dp = dp * z + p
            p = p * z + a
            scale = scale * az + size
        return p, dp, 1e-14 * scale, 0.0
    return evaluate


def _aberth(
    coeffs: List[float],
    max_sweeps: int,
    evaluate: Evaluator,
    start: List[complex],
    frozen: List[bool],
) -> Tuple[List[complex], List[bool], int]:
    """Simultaneous Aberth iteration from the points `start`.

    Its estimate of where the roots lie is read from `start` alone: the
    centre is their mean, and the reseed circle is the circle about it
    through the farthest start point.  Termination is residual-driven: a
    sweep with no movement but leftover residual means the configuration
    stalled (typically two points shadowing one root), and the unconverged
    points are reseeded at fresh angles on the reseed circle instead of
    being accepted.  A point moves when its step exceeds 1e-15 of its own
    modulus: a step onto a root near 0 lands within about 1e-16 of it, and
    the step after that is no stall however far below 1e-15 it is.  A point whose p, p' or step is not finite is pulled
    halfway toward the centre.  It returns each point, whether it settled,
    and its sweeps: max_sweeps, with some point unsettled, when they run
    out; it never raises on that.

    `evaluate` maps z to p(z), p'(z), the bound |p| must meet for z to
    settle, and the bound it must meet for z to settle where its Newton step
    |p/p'| stalls, that is, is not at most half its step of the sweep before
    (_settle_on_residual, _settle_on_step); settling certifies nothing.
    Points marked `frozen` are already validated: they take part in the
    repulsion sums of the others but are neither evaluated nor moved.  A
    point that settles is treated like a frozen one from then on:
    evaluation is deterministic and a settled point is never moved, so
    evaluating it again could only settle it again.
    """
    d = len(coeffs) - 1
    if d == 1:
        return [complex(-coeffs[0] / coeffs[1])], [True], 0
    # each start over d: a sum of starts near the float range overflows
    center = sum(z / d for z in start)
    radius = max(abs(z - center) for z in start)

    def reseed(k: int, salt: int) -> complex:
        angle = 2 * math.pi * (k + 0.5) / d + 0.4 + 0.77 * salt
        return center + radius * cmath.exp(1j * angle)

    zs = list(start)
    settled = list(frozen)
    last = [math.inf] * d  # each point's Newton step of the sweep before
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        moved = False
        for k in range(d):
            if settled[k]:
                continue
            z = zs[k]
            p, dp, settle, stall = evaluate(z)
            if not (cmath.isfinite(p) and cmath.isfinite(dp)):
                # evaluation overflowed; pull the point toward the centre
                zs[k] = center + (z - center) * 0.5
                moved = True
                continue
            if abs(p) <= settle:
                settled[k] = True
                continue
            if dp == 0:
                zs[k] = z + (1e-8 + 1e-8j) * (1 + abs(z))
                moved = True
                continue
            w = p / dp
            # a step that no longer halves inside the band is at the noise
            # floor of the evaluation: exact Newton finishes the point
            if abs(p) <= stall and abs(w) > last[k] / 2:
                settled[k] = True
                continue
            last[k] = abs(w)
            tiny = 1e-12 * (1 + abs(z))
            acc = sum([1 / ((z - zj) or tiny) for zj in zs[:k] + zs[k + 1:]])
            denom = 1 - w * acc
            step = w if denom == 0 else w / denom
            if not cmath.isfinite(step):
                zs[k] = center + (z - center) * 0.5
                moved = True
                continue
            zs[k] = z - step
            if abs(step) > 1e-15 * abs(z):
                moved = True
        if not moved:
            stuck = [k for k in range(d) if not settled[k]]
            if not stuck:
                return zs, settled, sweeps
            for k in stuck:
                zs[k] = reseed(k, sweeps)
    return zs, settled, max_sweeps


def _newton_polish(coeffs: List[float], z, shrink: float = 1.0) -> Tuple[complex, float]:
    """The point and its residual after Newton steps, each accepted while it
    takes the residual below `shrink` times the one before.

    At exit one further step cannot do that, which is the termination
    contract callers rely on.  A real z stays real.
    """
    p, dp = horner_with_derivative(coeffs, z)
    res = abs(p)
    for _ in range(40):
        if res == 0.0 or dp == 0:
            break
        z_next = z - p / dp
        p_next, dp_next = horner_with_derivative(coeffs, z_next)
        if abs(p_next) < shrink * res:
            z, p, dp, res = z_next, p_next, dp_next, abs(p_next)
        else:
            break
    return z, res


def _big_to_float(num: int, scale_bits: int) -> float:
    """num / 2**scale_bits as a float, safe for arbitrarily large num."""
    if num == 0:
        return 0.0
    excess = num.bit_length() - 64
    if excess > 0:
        # floor-shift keeps 64 significant bits; the 1-ulp slop is far below
        # anything the callers resolve
        return math.ldexp(float(num >> excess), excess - scale_bits)
    return math.ldexp(float(num), -scale_bits)


def _exact_eval_pair(int_cs: List[int], z: complex) -> Tuple[complex, complex]:
    """p(z) and p'(z) evaluated exactly, rounded to floats at the end.

    Float components are dyadic rationals, so z = (mr + mi*i) / 2**s with
    integers mr, mi, and the evaluation runs in pure integer arithmetic with
    a power-of-two scale and no gcd normalization, which is what keeps
    exact evaluation affordable at degree 100.  p is real, so it is divided
    by the real quadratic (x - z)(x - conj z) (Knuth, TAOCP 2, 4.6.4;
    Goertzel 1958): with T = 2*mr, M = mr**2 + mi**2 and B_{d+1} = B_{d+2} = 0,

        B_k = a_k * 2**(s*(d-k)) + T*B_{k+1} - M*B_{k+2},   k = d, ..., 0,

    and the quotient's C_j = B_{j+2} + T*C_{j+1} - M*C_{j+2} in the same
    loop.  The remainder and the quotient at z then give

        p(z) * 2**(s*d) = (B_0 - mr*B_1) + i*mi*B_1,
        p'(z) * 2**(s*(d-1)) = (B_1 - 2*mi**2*C_1) + i*2*mi*(C_0 - mr*C_1),

    four big-integer products per coefficient instead of the eight of a
    complex Horner.  A real z (mi = 0) takes the same loop: the quadratic is
    (x - z)**2, whose remainder B_1 (x - z) + (B_0 - mr*B_1) gives p(z) and
    p'(z) = B_1 at once, with zero imaginary parts.  Each integer is the
    exact value times its scale, so it does not depend on how it was
    computed, and neither do the floats _big_to_float makes of it nor the
    OverflowError it raises.
    """
    nr, dr_den = z.real.as_integer_ratio()
    ni, di_den = z.imag.as_integer_ratio()
    sr = dr_den.bit_length() - 1
    si = di_den.bit_length() - 1
    s = max(sr, si)
    mr = nr << (s - sr)
    mi = ni << (s - si)

    t = 2 * mr
    m = mr * mr + mi * mi
    shift = 0
    b1 = b2 = c1 = c2 = 0
    for a in reversed(int_cs):
        c1, c2 = b2 + t * c1 - m * c2, c1
        b1, b2 = (a << shift) + t * b1 - m * b2, b1
        shift += s
    # b1, b2 = B_0, B_1 and c1, c2 = C_0, C_1
    pr, pi = b1 - mr * b2, mi * b2
    dr, di = b2 - 2 * mi * mi * c2, 2 * mi * (c1 - mr * c2)
    pbits = shift - s
    dbits = pbits - s
    p = complex(_big_to_float(pr, pbits), _big_to_float(pi, pbits))
    dp = complex(_big_to_float(dr, dbits), _big_to_float(di, dbits))
    return p, dp


def _contiguous_steps(n: int, b, c) -> Tuple[Tuple[float, float, float], ...]:
    """The n steps of Gauss's contiguous relation in a, for _contiguous_pair.

    With F_k = F(-k, b; c; z), DLMF 15.5.E11 at a = -k reads

        (c + k) F_{k+1} = (2k + c - (b + k) z) F_k + k (z - 1) F_{k-1},

    so step k holds (u, v, w) = (2k + c, b + k, k) / (c + k) for exact b
    and c.  With b = p_b/q_b and c = p_c/q_c each is one quotient of
    integers, (2k q_c + p_c, (p_b + k q_b) q_c / q_b, k q_c) / (p_c + k q_c),
    and an int/int quotient is correctly rounded, so each step is its exact
    value rounded to a float.  The divisor is taken positive, so a zero step
    is 0.0, never -0.0.  F(-n, b; c) is defined, so no c + k with k < n
    is 0.
    """
    pb, qb, pc, qc = b.numerator, b.denominator, c.numerator, c.denominator
    steps = []
    for k in range(n):
        d = pc + k * qc
        s = -1 if d < 0 else 1
        d *= s
        steps.append((s * (2 * k * qc + pc) / d, s * (pb + k * qb) * qc / (d * qb),
                      s * k * qc / d))
    return tuple(steps)


def _contiguous_pair(steps: Tuple[Tuple, ...], z):
    """F(-n, b; c; z) and its z-derivative from the n steps of _contiguous_steps.

    From F_0 = 1 (the k = 0 step gives F_1 = 1 - bz/c), each step is
    F_{k+1} = (u - v z) F_k + w (z - 1) F_{k-1}.  The derivative needs no
    recurrence of its own: z d/dz F(a, b; c; z) = a (F(a + 1) - F(a))
    (DLMF §15.5(i); termwise, k (a)_k = a ((a + 1)_k - (a)_k)), so at
    a = -n, F_n' = n (F_n - F_{n-1}) / z, and F_n'(0) = -n b / c, which is
    -n v of the k = 0 step.  That is O(n) operations in whatever number
    type the steps and z have: exact in Fractions, and in floats free of big
    integers and on the scale of F, not of its monomial coefficients.
    Forward recursion is unstable where the wanted solution is not the
    dominant one (Gautschi, SIAM Review 9, 1967), so the float values only
    steer the search of all_roots and never certify a root.
    """
    f_prev, f = 0, 1
    zm1 = z - 1
    for u, v, w in steps:
        f_prev, f = f, (u - v * z) * f + w * (zm1 * f_prev)
    n = len(steps)
    if z == 0:
        return f, -n * steps[0][1]
    return f, n * (f - f_prev) / z


def _exact_newton(int_cs: List[int], z: complex) -> Tuple[complex, float]:
    """Newton steps with exact evaluation: the point and its last step's size.

    Double-precision Horner limits the root error to roughly
    eps * scale / |p'|; evaluating p and p' exactly at the float iterate
    removes that floor while the step itself stays a float.  Steps go on
    until one moves z by at most 1e-12 (1 + |z|), which leaves a simple
    root within roundoff; one or two usually suffice, a start inside a
    cluster of roots may need more, up to 8.  A point that is not
    converging is handed off at once: a step still above
    ROOT_BAND (1 + |z|) that is not at most half the one before ends the
    steps, since Newton near a simple root shrinks its step far more than
    twofold, while a pseudo-root of the float pass crawls, its step
    shrinking by a few percent.  Such a point comes back unsound, for the
    later stages of all_roots to restart; so does a start merely too far
    from its root, whose root those stages find again.  The last step
    |p/p'| is the exact Newton-distance estimate of the point it started
    from, so it bounds the returned point's distance too: 0 at an exact
    root, inf where p' = 0.
    """
    last = math.inf
    for _ in range(8):
        p, dp = _exact_eval_pair(int_cs, z)
        if p == 0:
            return z, 0.0
        if dp == 0:
            return z, math.inf
        w = p / dp
        z = z - w
        step = abs(w)
        if step <= 1e-12 * (1 + abs(z)):
            break
        if step > ROOT_BAND * (1 + abs(z)) and step > last / 2:
            break
        last = step
    return z, step


def _real_snap(coeffs: List[float], z: complex, res: float) -> Tuple[complex, float]:
    """Move a near-axis root onto the axis when the real residual supports it.

    Simple real roots computed through complex iteration land within
    roundoff of the axis but never exactly on it; re-polishing in real
    arithmetic pins them.  A genuinely non-real root fails the residual
    test and is left alone.
    """
    if z.imag == 0.0 or abs(z.imag) > 1e-6 * (1.0 + abs(z.real)):
        return z, res
    x, rx = _newton_polish(coeffs, z.real, 0.5)
    allowance = max(2.0 * res, 1e-13 * _residual_scale(coeffs, complex(x)))
    if rx <= allowance:
        return complex(x), rx
    return z, res


def _pair_conjugates(zs: List[complex]) -> List[complex]:
    """Symmetrize non-real roots into exact conjugate pairs."""
    out = [z for z in zs if z.imag == 0.0]
    upper = [z for z in zs if z.imag > 0.0]
    lower = [z for z in zs if z.imag < 0.0]
    for zu in upper:
        if not lower:
            out.append(zu)
            continue
        zl = lower.pop(min(range(len(lower)), key=lambda i: abs(zu - lower[i].conjugate())))
        if abs(zu - zl.conjugate()) <= 1e-6 * (1.0 + abs(zu)):
            mid = (zu + zl.conjugate()) / 2
            out += [mid, mid.conjugate()]
        else:
            out += [zu, zl]
    out.extend(lower)
    return out


def _stages(int_fac: List[int], fac, b, c, whole: bool) -> Iterator[Tuple[Evaluator, int]]:
    """The stages of the exact solve, in order: the _aberth evaluator of the
    primitive integer polynomial int_fac, whose floats the Horner pass reads
    as fac (_normalised), and the sweep budget of each (a float F is
    _solve_float, one Horner pass of its own).  A stage is built, and its
    budget read, only when the solve reaches it; the recurrence stage only
    where F is solved whole at full degree (`whole`).  The two stages after
    the Horner pass settle on the Newton step (_settle_on_step), also where
    it stalls inside ROOT_BAND; the Horner pass settles on its backward
    error alone, so it never hands on a point by the band.
    """
    yield _settle_on_residual(fac), MAX_SWEEPS  # the Horner pass
    if whole:
        # the recurrence stage: where the float landscape of the monomial
        # coefficients is flat, F by Gauss's contiguous relation is on its
        # own scale; its steps are rounded from exact values, as float c + k
        # may be 0
        steps = _contiguous_steps(len(int_fac) - 1, b, c)
        yield _settle_on_step(functools.partial(_contiguous_pair, steps), 1e-13), RECURRENCE_SWEEPS
    # the exact rescue
    yield _settle_on_step(functools.partial(_exact_eval_pair, int_fac), 1e-14), MAX_SWEEPS


def _refine(int_fac: List[int], z: complex) -> Tuple[complex, float]:
    """A settled point of the exact solve and its certificate: the point is
    moved only by exact Newton steps (_exact_newton), and its certificate
    bounds its distance to a root of int_fac."""
    # A point close to the axis may be a real root whose imaginary part is
    # float noise above the placement band; the exact steps decide, and real
    # iterates stay exactly real through them.
    z, dist = _exact_newton(int_fac, z)
    if z.imag != 0.0 and abs(z.imag) <= 1e-12 * (1.0 + abs(z.real)):
        dist += abs(z.imag)  # the snap moves the point that much
        z = complex(z.real, 0.0)
    return z, dist


def _sound_mask(points: List[Tuple[complex, float]]) -> List[bool]:
    """Which (point, certificate) pairs of a squarefree polynomial are sound.

    Exact Newton steps can carry a point onto a neighbour's root, so of
    points i < j within ROOT_BAND (1 + |z_i|) the one farther from a root (j
    on a tie) is unsound; a point that never settled carries certificate inf.
    Their real parts lie within ROOT_BAND (1 + max |z|), so only such pairs
    are tested; a test only clears a flag, so order is free.
    """
    sound = [dist <= ROOT_BAND * (1 + abs(z)) for z, dist in points]
    order = sorted(range(len(points)), key=lambda k: points[k][0].real)
    reach = ROOT_BAND * (1 + max(abs(z) for z, _ in points))
    for a, k in enumerate(order):
        for m in order[a + 1:]:
            if points[m][0].real - points[k][0].real > reach:
                break
            i, j = min(k, m), max(k, m)
            (zi, di), (zj, dj) = points[i], points[j]
            if abs(zi - zj) <= ROOT_BAND * (1 + abs(zi)):
                sound[j if dj >= di else i] = False
    return sound


def _restart(refined, zs, sound) -> List[complex]:
    """The sound points at their certified positions, and the others where
    the last stage left them: a refined duplicate sits on a root already
    taken and would settle there."""
    return [zr if ok else z for (zr, _), z, ok in zip(refined, zs, sound)]


def all_roots(q: Poly, b, c) -> RootSet:
    """All complex roots of q = coefficients(Params(n, b, c)) with
    multiplicities and residuals.

    F solves z(1 - z)w'' + [c - (b - n + 1)z]w' + nb w = 0 (DLMF 15.10.1),
    whose only finite singular points are 0 and 1.  A double zero anywhere
    else would force F = 0, and F(0) = 1, so the one multiple zero F can
    have is at z = 1, and F/(z - 1)^m is squarefree.  So one polynomial is
    solved, all of whose roots are simple: a float F as it is; an exact F
    as the primitive integer F where z = 1 is at most a simple zero
    (m <= 1), else as F/(z - 1)^m, with z = 1 read from that split
    (_deflate_at_one) as a root of multiplicity m.  Where F = (1 - z)^m, as
    at c = b, nothing is solved.  Residuals are reported against F.  An F
    of degree 0 (b = 0, F = 1) has no roots.

    A float F is _solve_float: one Horner pass on its coefficients, whose
    points are float-polished and real-snapped; a run-out of its MAX_SWEEPS
    sweeps is a NonConvergenceError.  An exact F is _solve_exact, one loop
    over the stages of _stages: the Horner pass, the recurrence stage (F by
    Gauss's contiguous relation, _contiguous_pair, where F is solved whole
    at full degree) and the exact rescue (_exact_eval_pair).  Only exact
    Newton steps move and certify its points (_exact_newton, _sound_mask);
    they give up on a point that is not converging after two exact
    evaluations, and by the same test the recurrence stage hands on a point
    whose float step stalls inside ROOT_BAND (_settle_on_step).  Each stage
    starts where the one before stopped: it keeps what it settled, also
    when its sweeps run out, and the next one starts each point still
    unsound where it was left; no stage is built once every point is
    sound.  So a failed exact solve ends in one place: a point the rescue
    leaves uncertified is a NonConvergenceError.  The Horner pass and the
    rescue have MAX_SWEEPS sweeps each, the recurrence RECURRENCE_SWEEPS;
    the iterations of the RootSet count the sweeps of every stage that ran.

    A degree above the cap of 100 is an InvalidParameterError
    (check_degree).  A value beyond the float range (a huge exact
    coefficient, a leading coefficient that underflows beside the others,
    an exact evaluation at high degree, or a residual) ends the solve in a
    NonConvergenceError that names it.
    """
    deg = q.effective_degree
    if deg == 0:
        return RootSet((), 0)
    check_degree(deg)
    try:
        full = tuple(float(a) for a in q.coeffs[: deg + 1])
        # the simple roots solved, their sweeps, and the multiplicity m of z = 1
        zs, sweeps, m = _solve_exact(q, b, c) if q.is_exact else (*_solve_float(full), 0)
        found = [(z, 1) for z in _pair_conjugates(zs)]
        if m:
            found.append((1 + 0j, m))
        found.sort(key=lambda t: (t[0].real, t[0].imag))
        # abs of a complex residual can overflow too
        return RootSet(tuple(Root(z, k, abs(horner_with_derivative(full, z)[0]))
                             for z, k in found), sweeps)
    except OverflowError as exc:
        raise NonConvergenceError(f"a value overflowed the float range ({exc})") from None


def check_degree(deg: int) -> None:
    """Raise InvalidParameterError for a degree above the cap of 100.

    all_roots checks its polynomial.  verify and roots check every point's
    degree, n - Params.degeneration, exact or float, and identity its n,
    before they build F: an exact F costs about n^3 in big-integer work, and
    a float F has n coefficients, which may overflow.
    """
    if deg > 100:
        raise InvalidParameterError(f"degree {deg} exceeds the cap of 100")


def _normalised(cs) -> List[float]:
    """cs over its largest magnitude, in floats, with a nonzero leading one."""
    scale = max(abs(a) for a in cs)
    fac = [a / scale for a in cs]
    if fac[-1] == 0.0:
        raise NonConvergenceError("a leading coefficient underflowed the float range")
    return fac


def _solve_float(full: Tuple[float, ...]) -> Tuple[List[complex], int]:
    """The roots of a float F, float-polished and real-snapped, and the
    sweeps of its one Horner pass, whose run-out raises."""
    fac = _normalised(full)
    zs, settled, sweeps = _aberth(fac, MAX_SWEEPS, _settle_on_residual(fac),
                                  _newton_polygon_starts(fac), [False] * (len(fac) - 1))
    if not all(settled):
        raise NonConvergenceError(f"root iteration did not settle within {MAX_SWEEPS} sweeps")
    return [_real_snap(fac, *_newton_polish(fac, z))[0] for z in zs], sweeps


def _solve_exact(q: Poly, b, c) -> Tuple[List[complex], int, int]:
    """The simple roots of an exact F, the sweeps of every stage that ran,
    and the multiplicity m of z = 1 divided out of F (0 where m <= 1)."""
    int_cs = _to_int_coeffs(q)
    int_fac, m = _deflate_at_one(int_cs)
    if m <= 1:  # a simple zero at z = 1 stays: the recurrence stage needs F whole
        int_fac, m = int_cs, 0
    if len(int_fac) == 1:  # F = (1 - z)^m leaves nothing to solve
        return [], 0, m
    int_fac = _primitive(int_fac)
    fac = _normalised(int_fac)
    total_sweeps = 0
    zs = _newton_polygon_starts(fac)  # each point where the last stage left it
    refined = [(z, math.inf) for z in zs]  # each point and its certificate
    sound = [False] * len(zs)
    # a stage starts each unsound point where the stage before left it,
    # freezes the sound ones at their certified positions, and keeps what it
    # settled when it runs out
    for evaluate, budget in _stages(int_fac, fac, b, c, len(int_fac) == len(q.coeffs)):
        zs, settled, sweeps = _aberth(fac, budget, evaluate, _restart(refined, zs, sound), sound)
        total_sweeps += sweeps
        refined = [_refine(int_fac, z) if done and not ok else old
                   for old, ok, done, z in zip(refined, sound, settled, zs)]
        sound = _sound_mask(refined)
        if all(sound):
            break
    else:
        raise NonConvergenceError("exact-evaluation rescue left unverified roots")
    return [z for z, _ in refined], total_sweeps, m


# ---------------------------------------------------------------------------
# classification of computed roots


NONREAL = 4  # the Counts index of nonreal_pairs


def _place(z: complex) -> Optional[int]:
    """Where a computed root lies, indexed like Counts.

    A root within ROOT_BAND of the real axis is real: 3 (mult_at_1) within
    ROOT_BAND of 1, else 0 in (1,inf), 1 in (0,1), 2 in (-inf,0), and None
    within ROOT_BAND of 0, which lies in no interval.  Any other root is
    NONREAL.  The bands are absolute, unlike the circle band.
    """
    if abs(z.imag) > ROOT_BAND:
        return NONREAL
    x = z.real
    if abs(x - 1) <= ROOT_BAND:
        return 3
    if abs(x) <= ROOT_BAND:
        return None
    return 0 if x > 1 else 1 if x > 0 else 2


def interval_counts(r: RootSet) -> Counts:
    """Real-interval counts (with multiplicity) of the computed roots.

    Roots are placed by _place; nonreal_pairs is half the non-real roots.
    """
    tally = [0] * 5
    for root in r.roots:
        slot = _place(root.value)
        if slot is not None:
            tally[slot] += root.multiplicity
    return Counts(*tally[:NONREAL], tally[NONREAL] // 2)


def geometry_report(r: RootSet) -> Geometry:
    """Computed-root geometry in the shape of a predicted Geometry.

    Roots within ROOT_BAND (1 + |z|) of the circle |z-1| = 1 count as
    on_circle (this includes real roots near 0 or 2); the band is relative,
    like the Newton distance at which all_roots accepts a root.  Remaining
    roots are placed by _place: real ones into the three open intervals (a
    root at 1 into none), non-real ones into the four circle/axis regions.
    """
    on_circle = 0
    tally = [0] * 5
    regions = dict.fromkeys(special.REGIONS, 0)
    for root in r.roots:
        z, m = root.value, root.multiplicity
        if abs(abs(z - 1) - 1) <= ROOT_BAND * (1 + abs(z)):
            on_circle += m
            continue
        slot = _place(z)
        if slot == NONREAL:
            side = "inside" if abs(z - 1) < 1 else "outside"
            half = "upper" if z.imag > 0 else "lower"
            regions[f"{side}_{half}"] += m
        elif slot is not None:
            tally[slot] += m
    return Geometry(on_circle, *tally[:3], sum(regions.values()) // 2, regions)


# ---------------------------------------------------------------------------
# prediction vs oracle


@dataclass(frozen=True)
class Check:
    name: str
    predicted: object
    observed: object

    @property
    def ok(self) -> bool:
        return self.predicted == self.observed


# check names, in the order of the record fields they compare
COUNT_CHECKS = ("count in (1,inf)", "count in (0,1)", "count in (-inf,0)", "multiplicity at 1")
OFF_CIRCLE_CHECKS = ("real >1 off circle", "real (0,1) off circle", "real <0 off circle")
TEMPLATE_CHECKS = ("real >1", "real (0,1)", "real <0", "nonreal pairs (geometry)")


def _checks(names, predicted, observed) -> List[Check]:
    return [Check(*fields) for fields in zip(names, predicted, observed)]


@dataclass(frozen=True)
class VerificationReport:
    params: Params
    status: str  # pass | fail | boundary
    prediction: Optional[Counts]
    geometry_prediction: Optional[Geometry]
    checks: Tuple[Check, ...]
    notes: Tuple[str, ...]

    @property
    def mode(self) -> str:
        return self.params.mode

    @property
    def confidence(self) -> str:
        # "exact" when Sturm counting applied, else "numeric"
        return "exact" if self.params.is_exact else "numeric"


def verify(p: Params) -> VerificationReport:
    """Predict counts (and geometry where a template applies), then check them
    against the numeric solver and, for exact parameters, the Sturm counter.

    A point on a boundary of the classifier (b or c - b in {0, ..., 1-n})
    gets status "boundary" and no checks: it is unclassifiable, not wrong.
    Every geometry template raises there too, since such a b lies on a
    window boundary of c = 2b, c = 1/2 and c = -2n alike, so no check could
    read an oracle, and verify returns before it builds F.  The degree cap
    comes first, so a point above it is refused, boundary or not.
    Elsewhere the solve comes before the count: a NonConvergenceError from
    all_roots ends verify before sturm_counts builds its exact chain.
    """
    notes: List[str] = []
    prediction = None
    try:
        prediction = klein.classify_region(p)
    except BoundaryParameterError as exc:
        notes.append(f"unclassifiable: boundary ({exc})")

    # the geometry template is the first of c = 2b, c = 1/2 and c = -2n that
    # (n, b, c) lies on, by the one boundary rule
    g = None
    try:
        if side(p.c - 2 * p.b) == 0:
            g = special.predict_2b(p.n, p.b)
        elif side(p.c, Fraction(1, 2)) == 0:
            g = special.predict_half(p.n, p.b)
        elif side(p.c, -2 * p.n) == 0:
            g = special.predict_minus2n(p.n, p.b)
    except BoundaryParameterError as exc:
        notes.append(f"geometry unclassifiable: boundary ({exc})")
    if not p.is_exact:
        notes.append("numeric-confidence: float parameters, no exact counting path")

    check_degree(p.n - p.degeneration)
    if prediction is None:
        return VerificationReport(p, "boundary", None, g, (), tuple(notes))

    q = coefficients(p)
    rootset = all_roots(q, p.b, p.c)
    numeric = interval_counts(rootset)
    # only the exact counter checks the multiplicity at 1
    observed = sturm_counts(q) if p.is_exact else numeric
    checks = _checks(COUNT_CHECKS[:4 if p.is_exact else 3], prediction, observed)
    checks.append(Check("nonreal pairs", prediction.nonreal_pairs, numeric.nonreal_pairs))
    if g is not None:
        if g.regions is None:
            checks += _checks(TEMPLATE_CHECKS, g[1:5], (*numeric.counts, numeric.nonreal_pairs))
        else:  # the c = 2b template
            obs = geometry_report(rootset)
            checks.append(Check("on circle", g.on_circle, obs.on_circle))
            checks += _checks([f"region {k}" for k in special.REGIONS],
                              g.regions.values(), obs.regions.values())
            checks += _checks(OFF_CIRCLE_CHECKS, g[1:4], obs[1:4])

    status = "fail" if any(not c.ok for c in checks) else "pass"
    return VerificationReport(p, status, prediction, g, tuple(checks), tuple(notes))
