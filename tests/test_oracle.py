"""Sturm counting, the numeric solver, and the verification driver."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperzero import (
    Params,
    all_roots,
    coefficients,
    evaluate,
    geometry_report,
    interval_counts,
    klein,
    oracle,
    poly,
    quadratic_class_match,
    special,
    sturm_counts,
    verify,
)
from hyperzero.core import (
    BoundaryParameterError,
    InvalidParameterError,
    NonConvergenceError,
    Root,
    RootSet,
    horner_with_derivative,
    in_excluded_set,
)
from hyperzero.oracle import (
    _big_to_float,
    _contiguous_pair,
    _contiguous_steps,
    _deflate_at_one,
    _exact_eval_pair,
    _primitive,
    _sturm_sequence,
    _to_int_coeffs,
)

from conftest import general_position_params, random_params


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def from_roots(roots):
    """Monic polynomial with the given rational roots, built by convolution."""
    cs = [Fraction(1)]
    for r in roots:
        cs = poly_mul(cs, [-Fraction(r), Fraction(1)])
    return cs


# ---------------------------------------------------------------------------
# sturm_counts


def test_sturm_quadratic_example():
    # roots (12 +- sqrt(60))/42, both inside (0,1)
    assert sturm_counts(poly([1, -12, 21]))[:4] == (0, 2, 0, 0)


def test_sturm_linear():
    assert sturm_counts(poly([1, Fraction(-10, 2)]))[:4] == (0, 1, 0, 0)


def test_sturm_hand_built_product():
    cs = from_roots([1, 1, Fraction(1, 2), -2])
    assert sturm_counts(poly(cs))[:4] == (0, 1, 1, 2)


def test_sturm_repeated_roots_count_once():
    # (z-1/2)^2 (z+3)^3 (z-5): repeated roots away from 0 and 1 count as
    # distinct roots, straight from the chain of the non-squarefree input
    cs = from_roots([Fraction(1, 2)] * 2 + [-3] * 3 + [5])
    assert sturm_counts(poly(cs))[:4] == (1, 1, 1, 0)


def test_sturm_endpoint_exclusion():
    # roots exactly at 0 and 1 count nowhere except the z=1 multiplicity
    cs = poly_mul(from_roots([1, Fraction(3, 2)]), [Fraction(0), Fraction(1)])
    assert sturm_counts(poly(cs))[:4] == (1, 0, 0, 1)


def test_sturm_wide_spread():
    cs = from_roots([Fraction(-5), Fraction(-1, 3), Fraction(1, 4), Fraction(3, 4), 2, 100])
    assert sturm_counts(poly(cs))[:4] == (2, 2, 2, 0)


def test_sturm_no_real_roots():
    # z^2 + 1
    assert sturm_counts(poly([1, 0, 1]))[:4] == (0, 0, 0, 0)


def test_sturm_requires_exact():
    with pytest.raises(InvalidParameterError):
        sturm_counts(poly([1.0, -2.0]))


def test_sturm_chain_degrees_decrease():
    cs = _to_int_coeffs(coefficients(Params(6, Fraction(11, 8), Fraction(5, 8))))
    degrees = [len(p) - 1 for p in _sturm_sequence(_primitive(cs))]
    assert degrees[0] == 6
    assert all(a > b for a, b in zip(degrees, degrees[1:]))


def test_squarefree_part_on_general_position_params():
    # multiple zeros can only sit at 0 or 1, and neither occurs in general
    # position, so F of full degree is squarefree: the last element of its
    # Sturm chain, gcd(F, F'), is a constant
    rng = random.Random(61)
    for _ in range(40):
        p = general_position_params(rng, n_hi=8)
        cs = _to_int_coeffs(coefficients(p))
        assert len(cs) == p.n + 1 and sum(cs) != 0
        assert len(_sturm_sequence(_primitive(cs))[-1]) == 1


def _times_lcm(q):
    """The exact coefficients up to the effective degree, times the lcm of their denominators."""
    cs = q.coeffs[: q.effective_degree + 1]
    scale = math.lcm(*(Fraction(a).denominator for a in cs))
    return [Fraction(a) * scale for a in cs]


@pytest.mark.parametrize("q", [
    coefficients(Params(9, Fraction(-3), Fraction(7, 3))),  # b = -3: effective degree 3
    coefficients(Params(12, Fraction(101, 7), Fraction(-19, 6))),
    poly([0, 0, Fraction(-5, 12), 0]),  # a single nonzero coefficient
    poly([Fraction(7, 4)]),
    poly([Fraction(1, 6), Fraction(-4, 15), Fraction(9, 10), 0, 0]),
])
def test_to_int_coeffs_is_the_exact_polynomial_times_the_lcm(q):
    expect = _times_lcm(q)
    assert all(a.denominator == 1 for a in expect)
    got = _to_int_coeffs(q)
    assert len(got) == q.effective_degree + 1
    assert all(type(a) is int for a in got)
    assert got == expect


def test_to_int_coeffs_keeps_its_errors():
    with pytest.raises(InvalidParameterError):
        _to_int_coeffs(coefficients(Params(5, 1.25, 3.5)))
    with pytest.raises(ValueError):
        _to_int_coeffs(poly([0, 0, 0]))


# ---------------------------------------------------------------------------
# all_roots


def test_roots_conjugate_quadratic():
    # F(-2, 1; 2; z) = 1 - z + z^2/3
    p = Params(2, 1, 2)
    rs = all_roots(coefficients(p), p.b, p.c)
    vals = sorted(rs.values(), key=lambda z: z.imag)
    expect = 1.5 - 1j * math.sqrt(3) / 2
    assert abs(vals[0] - expect) < 1e-10
    assert vals[1] == vals[0].conjugate()


def test_roots_linear():
    rs = all_roots(coefficients(Params(1, 2, 3)), 2, 3)
    assert abs(rs.values()[0] - 1.5) < 1e-14


def test_roots_chebyshev_nodes():
    n = 9
    rs = all_roots(coefficients(Params(n, n, Fraction(1, 2))), n, Fraction(1, 2))
    got = sorted(z.real for z in rs.values())
    expect = sorted((1 - math.cos((2 * k - 1) * math.pi / (2 * n))) / 2 for k in range(1, n + 1))
    assert max(abs(a - b) for a, b in zip(got, expect)) < 1e-9
    assert all(abs(z.imag) == 0 for z in rs.values())


def test_roots_residual_contract():
    rng = random.Random(62)
    for _ in range(25):
        p = random_params(rng, n_hi=9)
        q = coefficients(p)
        fc = q.float_coeffs()
        for root in all_roots(q, p.b, p.c).roots:
            scale = sum(abs(a) * abs(root.value) ** i for i, a in enumerate(fc))
            assert root.residual <= 1e-10 * max(scale, 1.0), (p, root)


def test_roots_polish_termination_contract():
    # one further Newton step must not halve any reported residual
    rng = random.Random(63)
    for _ in range(15):
        p = random_params(rng, n_hi=8)
        q = coefficients(p)
        fc = q.float_coeffs()[: q.effective_degree + 1]
        for root in all_roots(q, p.b, p.c).roots:
            if root.residual == 0.0:
                continue
            pv, dp = horner_with_derivative(fc, root.value)
            if dp == 0:
                continue
            stepped = root.value - pv / dp
            after = abs(horner_with_derivative(fc, stepped)[0])
            assert after >= 0.5 * root.residual or after <= 1e-13 * sum(
                abs(a) * abs(stepped) ** i for i, a in enumerate(fc)
            ), (p, root)


def test_roots_conjugate_pairing_invariant():
    rng = random.Random(64)
    for _ in range(25):
        p = random_params(rng, n_hi=9)
        vals = list(all_roots(coefficients(p), p.b, p.c).values())
        nonreal = [z for z in vals if z.imag != 0]
        while nonreal:
            z = nonreal.pop()
            mate = min(nonreal, key=lambda w: abs(w - z.conjugate()))
            assert abs(mate - z.conjugate()) <= 1e-9 * (1 + abs(z))
            nonreal.remove(mate)


def test_roots_total_multiplicity():
    q = coefficients(Params(5, -3, Fraction(7, 3)))
    rs = all_roots(q, -3, Fraction(7, 3))
    assert rs.total_multiplicity == q.effective_degree == 3


def test_roots_multiple_root_at_one():
    # F(-3, 6; 5; z) = (1 - z)^2 (1 - 8z/5)
    p = Params(3, 6, 5)
    rs = all_roots(coefficients(p), p.b, p.c)
    mults = sorted((round(r.value.real, 6), r.multiplicity) for r in rs.roots)
    assert mults == [(0.625, 1), (1.0, 2)]


def test_roots_of_a_constant_f_are_empty():
    # b = 0: F = 1 has no roots
    p = Params(3, 0, 1)
    assert coefficients(p).effective_degree == 0
    assert all_roots(coefficients(p), p.b, p.c) == RootSet((), 0)


def test_roots_degree_cap():
    p = Params(101, 2.5, 3.5)
    with pytest.raises(InvalidParameterError):
        all_roots(coefficients(p), p.b, p.c)


def test_an_exact_run_out_raises_the_rescue_error(monkeypatch):
    # F(-2, 6; 1; z) = 1 - 12z + 21z^2; with no sweeps in any stage the
    # exact solve ends where every failed exact solve ends
    p = Params(2, 6, 1)
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 0)
    monkeypatch.setattr(oracle, "RECURRENCE_SWEEPS", 0)
    with pytest.raises(NonConvergenceError) as excinfo:
        all_roots(coefficients(p), p.b, p.c)
    assert str(excinfo.value) == "exact-evaluation rescue left unverified roots"


def test_a_float_run_out_raises_nonconvergence(monkeypatch):
    # a float F has one Horner pass, and its run-out is the error
    p = Params(20, 17.518, 7.02)
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 3)
    with pytest.raises(NonConvergenceError) as excinfo:
        all_roots(coefficients(p), p.b, p.c)
    assert str(excinfo.value) == "root iteration did not settle within 3 sweeps"


@pytest.mark.parametrize("budget", [0, 3])
def test_aberth_returns_a_run_out(budget):
    # a run-out is returned, not raised: each point, whether it settled, and
    # the whole budget as its sweeps
    q = coefficients(Params(20, 17.518, 7.02))
    fac = [float(a) for a in q.coeffs]
    zs, settled, sweeps = oracle._aberth(fac, budget, oracle._settle_on_residual(fac),
                                         oracle._newton_polygon_starts(fac), [False] * 20)
    assert len(zs) == len(settled) == 20
    assert sweeps == budget
    assert not all(settled)
    if budget == 0:
        assert settled == [False] * 20
        assert zs == oracle._newton_polygon_starts(fac)


def test_aberth_settles_a_degree_one_polynomial_at_once():
    fac = [-3.0, 2.0]
    assert oracle._aberth(fac, 0, oracle._settle_on_residual(fac), [0j], [False]) == (
        [1.5 + 0j], [True], 0)


def _recording(evaluate):
    """evaluate, and the list of every point it is called at, in order."""
    seen = []

    def record(z):
        seen.append(z)
        return evaluate(z)
    return record, seen


@pytest.mark.parametrize("n,b,c", [
    (20, -13.014, -5.393),
    (5, 3.222, -1.932),
    (5, 11.240, -1.166),
], ids=str)
def test_a_float_solve_beside_a_small_root_settles_without_a_reseed(n, b, c):
    # a point landing on a root of modulus well below 1 takes a last Newton
    # step far below 1e-15 but large beside the point itself; that step is
    # a move, not a stall, so the point settles where it is and no point is
    # ever put on the reseed circle
    p = Params(n, b, c)
    q = coefficients(p)
    fac = oracle._normalised(q.coeffs)
    start = oracle._newton_polygon_starts(fac)
    centre = sum(start) / n
    radius = max(abs(z - centre) for z in start)
    evaluate, seen = _recording(oracle._settle_on_residual(fac))
    _, settled, _ = oracle._aberth(fac, oracle.MAX_SWEEPS, evaluate, start, [False] * n)
    assert all(settled)
    assert not any(math.isclose(abs(z - centre), radius, rel_tol=1e-12) for z in seen[n:])
    rs = all_roots(q, p.b, p.c)
    assert rs.total_multiplicity == n
    fc = q.float_coeffs()
    for root in rs.roots:
        assert root.residual <= 1e-10 * oracle._residual_scale(fc, root.value), root
    exact = Params(n, Fraction(str(b)), Fraction(str(c)))
    assert interval_counts(rs)[:3] == sturm_counts(coefficients(exact))[:3]


@pytest.mark.parametrize("b,c", [(1.0, 1e-10), (-10.0, 1e-12), (-9.5, -1e-10)], ids=str)
def test_a_quadratic_with_a_root_near_0_settles(b, c):
    # F = 1 - (2b/c) z + (b(b + 1)/(c(c + 1))) z^2 has a root near c/(2b);
    # every step onto it lands within about 1e-16 of it, which is a move
    # for a point that small, so the point settles on the next sweep in
    # place of being reseeded there again until the sweeps run out
    p = Params(2, b, c)
    q = coefficients(p)
    rs = all_roots(q, p.b, p.c)
    assert rs.iterations < 20
    fc = q.float_coeffs()
    for root in rs.roots:
        assert root.residual <= 1e-10 * oracle._residual_scale(fc, root.value), root
    assert min(abs(r.value) for r in rs.roots) == pytest.approx(abs(c / (2 * b)), rel=1e-6)


# (z - 9)(z - 10)(z - 11)(z - 12), three starts near its roots and one far
_CLUSTER = [11880.0, -4578.0, 659.0, -42.0, 1.0]
_CLUSTER_START = [9.5 + 0.5j, 10.5 - 0.5j, 11.5 + 0.5j, 10.5 + 40j]


@pytest.mark.parametrize("fault", [
    (math.nan, 1.0),     # p not finite
    (1.0, math.inf),     # p' not finite
    (1e300, 1e-300),     # p and p' finite, the step p/p' overflows
])
def test_a_point_that_leaves_the_float_range_is_pulled_toward_the_centre(fault):
    # the far start evaluates to the fault once; it moves halfway toward
    # the mean of the starts, and every point still settles on a root
    horner = oracle._settle_on_residual(_CLUSTER)
    far = _CLUSTER_START[-1]
    faults = [far]  # where the next evaluation returns the fault

    def evaluate(z):
        if z in faults:
            faults.remove(z)
            return complex(fault[0]), complex(fault[1]), 0.0, 0.0
        return horner(z)
    evaluate, seen = _recording(evaluate)
    zs, settled, _ = oracle._aberth(_CLUSTER, 100, evaluate, list(_CLUSTER_START), [False] * 4)
    centre = sum(_CLUSTER_START) / 4
    pulled = centre + (far - centre) / 2
    assert any(abs(z - pulled) <= 1e-12 * abs(pulled) for z in seen)
    assert all(settled)
    assert sorted(round(z.real, 9) for z in zs) == [9, 10, 11, 12]


def test_a_point_where_p_prime_vanishes_is_nudged_and_settles():
    # p' reads 0 at the far start: the point steps off by 1e-8 (1 + |z|)
    horner = oracle._settle_on_residual(_CLUSTER)
    far = _CLUSTER_START[-1]

    def evaluate(z):
        p, dp, settle, stall = horner(z)
        return p, (0j if z == far else dp), settle, stall
    evaluate, seen = _recording(evaluate)
    zs, settled, _ = oracle._aberth(_CLUSTER, 100, evaluate, list(_CLUSTER_START), [False] * 4)
    assert seen.count(far) == 1
    assert far + (1e-8 + 1e-8j) * (1 + abs(far)) in seen
    assert all(settled)
    assert sorted(round(z.real, 9) for z in zs) == [9, 10, 11, 12]


def test_a_stalled_point_is_reseeded_on_the_circle_and_settles():
    # the far start reads as stalled: its Newton step is 1e-300 of itself
    # and leaves it in place, so once the others have settled a sweep moves
    # nothing and it is reseeded on the circle
    # about the mean of the starts through the farthest one; from there
    # every point settles on a root, where a run-out would leave it unsettled
    horner = oracle._settle_on_residual(_CLUSTER)
    far = _CLUSTER_START[-1]

    def evaluate(z):
        if z == far:
            return 1e-300 * z, 1 + 0j, 0.0, 0.0
        return horner(z)
    evaluate, seen = _recording(evaluate)
    zs, settled, _ = oracle._aberth(_CLUSTER, 100, evaluate, list(_CLUSTER_START), [False] * 4)
    centre = sum(_CLUSTER_START) / 4
    radius = max(abs(z - centre) for z in _CLUSTER_START)
    # the sweep after the other three settled moved nothing; the next one
    # evaluates the reseeded point alone
    reseeded = seen[len(seen) - seen[::-1].index(far)]
    assert math.isclose(abs(reseeded - centre), radius, rel_tol=1e-12)
    assert all(settled)
    assert sorted(round(z.real, 9) for z in zs) == [9, 10, 11, 12]


def test_starts_near_the_float_range_give_a_finite_centre_and_circle():
    # twenty starts of modulus 1.6e308 sum beyond the float range; the
    # reseed circle about their mean still has a finite centre and radius
    start = [complex(1.6e308, 1e306 * k) for k in range(-10, 10)]
    centre = complex(1.6e308, -5e305)
    radius = abs(start[0] - centre)

    def stuck(z):
        # p never settles and its Newton step 1e-300 z moves no point
        return 1e-300 * z, 1 + 0j, -1.0, 0.0
    evaluate, seen = _recording(stuck)
    _, settled, sweeps = oracle._aberth([1.0] * 21, 2, evaluate, start, [False] * 20)
    assert sweeps == 2 and not any(settled)
    # the second sweep evaluates the points the first one reseeded
    for z in seen[20:]:
        assert cmath.isfinite(z)
        assert math.isclose(abs(z - centre), radius, rel_tol=1e-9)


def test_a_horner_run_out_on_an_exact_f_hands_its_points_on(monkeypatch):
    # the Horner pass runs out of its 3 sweeps here; on an exact F it keeps
    # what it settled and the later stages find the rest
    p = Params(8, Fraction(7, 3), Fraction(11, 5))
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 3)
    q = coefficients(p)
    rs = all_roots(q, p.b, p.c)
    assert rs.total_multiplicity == 8
    assert interval_counts(rs).counts == sturm_counts(q).counts


def test_exact_evaluation_at_integral_points():
    # dyadic scale s = 0 (both components integral) must still run the
    # Horner multiplies; z = 2 is an exact zero of every odd-degree member
    # of the c = 2b family
    f = _to_int_coeffs(coefficients(Params(13, Fraction(47, 4), Fraction(47, 2))))
    p, dp = _exact_eval_pair(f, 2 + 0j)
    assert p == 0
    assert dp != 0
    p, _ = _exact_eval_pair(f, 3 + 0j)
    assert p != 0


def _rounded(value: Fraction, scale_bits: int) -> float:
    # the kernel rounds value * 2**scale_bits, an integer, with _big_to_float
    scaled = value * 2 ** scale_bits
    assert scaled.denominator == 1
    return _big_to_float(scaled.numerator, scale_bits)


def _exact_pair(cs, z):
    """p(z) and p'(z) as float pairs, from sums of Fraction powers of z.

    The kernel's scales are 2**(s*d) and 2**(s*(d-1)), where 2**s is the
    larger denominator of the two parts of z.
    """
    x, y = Fraction(z.real), Fraction(z.imag)
    s = max(x.denominator, y.denominator).bit_length() - 1
    d = len(cs) - 1
    powers = [(Fraction(1), Fraction(0))]
    for _ in range(d):
        u, v = powers[-1]
        powers.append((u * x - v * y, u * y + v * x))
    p = [sum(a * w[i] for a, w in zip(cs, powers)) for i in (0, 1)]
    dp = [sum(k * cs[k] * powers[k - 1][i] for k in range(1, d + 1)) for i in (0, 1)]
    return (complex(_rounded(p[0], s * d), _rounded(p[1], s * d)),
            complex(_rounded(dp[0], s * (d - 1)), _rounded(dp[1], s * (d - 1))))


def _bits(pair):
    # float.hex tells -0.0 from 0.0
    return tuple(part.hex() for w in pair for part in (w.real, w.imag))


def _outcome(evaluate_pair, cs, z):
    try:
        return _bits(evaluate_pair(cs, z))
    except OverflowError:
        return OverflowError


_signed_zero = st.sampled_from([0.0, -0.0])
_tiny = st.floats(1e-300, 1e-12) | st.floats(-1e-12, -1e-300)


@settings(max_examples=300, deadline=None)
# a real z on every run: either zero sign of its imaginary part, at
# coefficients near 2**600, and where p overflows
@example([2 ** 600 - 1, -(2 ** 600) + 3, 2 ** 599 + 5], 1.5, 0.0)
@example([-(2 ** 600), 2 ** 600 - 7, -(2 ** 600) + 1, 2 ** 600], -2.75, -0.0)
@example([2 ** 600 - 3, 2 ** 600, -(2 ** 600) + 9], 3.0, -0.0)
@example([2 ** 600, -(2 ** 600) + 1, 2 ** 600 - 1], 1e300, 0.0)
@given(
    st.lists(st.integers(-2 ** 600, 2 ** 600), min_size=2, max_size=41),
    st.one_of(_signed_zero, st.integers(-40, 40).map(float), st.floats(-4, 4),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(_signed_zero, st.integers(-40, 40).map(float), st.floats(-4, 4), _tiny,
              st.floats(allow_nan=False, allow_infinity=False)),
)
def test_exact_eval_pair_is_the_exact_value_rounded(cs, real, imag):
    # bit for bit, or OverflowError on both sides; degrees 1 to 40, and z
    # real, imaginary, with 2**s up to 2**1074, or so large that p overflows
    z = complex(real, imag)
    assert _outcome(_exact_eval_pair, cs, z) == _outcome(_exact_pair, cs, z)


def _exact_root_distance(int_cs, z):
    """Newton-distance estimate |p/p'| with exact evaluation; inf at p' = 0.

    all_roots certifies a root by its last exact Newton step instead; this
    evaluates the returned point afresh, as an independent reference.
    """
    p, dp = _exact_eval_pair(int_cs, z)
    if p == 0:
        return 0.0
    if dp == 0:
        return math.inf
    return abs(p / dp)


def test_high_degree_pseudo_roots_are_rescued():
    # around degree 40 the float landscape is flat enough that backward-
    # stable pseudo-roots appear off the true zero set; the exact-evaluation
    # rescue must leave every reported root within 1e-9 of a true one
    p = Params(40, Fraction(33, 16), Fraction(33, 8))
    q = coefficients(p)
    rs = all_roots(q, p.b, p.c)
    assert rs.total_multiplicity == 40
    ics = _to_int_coeffs(q)
    for z in rs.values():
        assert _exact_root_distance(ics, z) <= 1e-9 * (1 + abs(z))
        assert abs(abs(z - 1) - 1) <= 1e-8  # all on the circle in this window


# points where polishing once lost or misplaced a root
HARD_POINTS = [
    (35, Fraction(113, 12), Fraction(-19, 3)),
    (12, Fraction(-241, 11), Fraction(-24)),
    (35, Fraction(-134, 3), Fraction(480, 7)),
    (50, Fraction(-375, 4), Fraction(-139, 9)),
    (20, Fraction(191, 7), Fraction(382, 7)),
]


@pytest.mark.parametrize("n,b,c", HARD_POINTS, ids=str)
def test_roots_are_distinct_and_verify_passes(n, b, c):
    # polishing once carried points onto a neighbour's root here, a real
    # root kept an imaginary part of 1.6e-9, above the real/non-real band,
    # and two exact Newton steps left a c = 2b root 1.5e-9 off the circle
    p = Params(n, b, c)
    assert verify(p).status == "pass"
    vals = all_roots(coefficients(p), b, c).values()
    for i, z in enumerate(vals):
        for w in vals[i + 1:]:
            assert abs(z - w) > 1e-9 * (1 + abs(z)), (z, w)


@pytest.mark.parametrize("n,b,c", HARD_POINTS, ids=str)
def test_every_root_is_within_the_root_band(n, b, c):
    # all_roots certifies a root by its last exact Newton step; measure the
    # returned point afresh with an exact evaluation
    q = coefficients(Params(n, b, c))
    ics = _to_int_coeffs(q)
    rs = all_roots(q, b, c)
    assert rs.total_multiplicity == n
    for z in rs.values():
        assert _exact_root_distance(ics, z) <= oracle.ROOT_BAND * (1 + abs(z)), z


def test_newton_polygon_starts_keep_sweeps_low():
    # one start circle for every root needed about 2n sweeps here
    p = Params(35, Fraction(-134, 3), Fraction(480, 7))
    rs = all_roots(coefficients(p), p.b, p.c)
    assert rs.iterations <= 50


def _exact_contiguous_steps(n, b, c):
    """The steps (u, v, w) = (2k + c, b + k, k) / (c + k) of DLMF 15.5.E11 in
    Fractions: the exact values that oracle._contiguous_steps rounds to floats."""
    return tuple(((2 * k + c) / (c + k), (b + k) / (c + k), k / (c + k)) for k in range(n))


def _hex_steps(steps):
    return [tuple(x.hex() for x in step) for step in steps]


_step_values = st.fractions(-120, 120, max_denominator=50)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 100), _step_values | st.integers(-100, 0).map(Fraction), _step_values)
@example(5, Fraction(3, 7), Fraction(-6))                     # u = 0 at k = 3, c < 0
@example(6, Fraction(-3), Fraction(-7, 2))                    # v = 0 at k = 3
@example(8, Fraction(-8), Fraction(-23, 2))                   # b = -n
@example(10, Fraction(406, 5), Fraction(-2) + Fraction(1, 10**17))  # float c + 2 is 0
@example(3, Fraction(10**300 + 1, 3), Fraction(7, 3))         # huge b
@example(3, Fraction(1, 3), Fraction(-1, 10**300))            # tiny c
def test_float_steps_are_the_exact_steps_rounded(n, b, c):
    # bit for bit, so a zero step is 0.0 as float(Fraction(0)) is, never -0.0
    assume(not in_excluded_set(c, n))
    rounded = [tuple(map(float, step)) for step in _exact_contiguous_steps(n, b, c)]
    assert _hex_steps(_contiguous_steps(n, b, c)) == _hex_steps(rounded)


def test_float_steps_overflow_as_the_exact_steps_do():
    n, b, c = 3, Fraction(10**400), Fraction(5, 2)
    with pytest.raises(OverflowError):
        [tuple(map(float, step)) for step in _exact_contiguous_steps(n, b, c)]
    with pytest.raises(OverflowError):
        _contiguous_steps(n, b, c)


@pytest.mark.parametrize("n,b,c", [
    (7, Fraction(-5, 3), Fraction(-11, 4)),     # negative b and c
    (9, Fraction(13, 5), Fraction(1, 2)),       # c = 1/2
    (8, Fraction(-7, 3), Fraction(-14, 3)),     # c = 2b
    (10, Fraction(-29, 3), Fraction(17, 6)),    # b near -n
    (10, Fraction(-10), Fraction(-23, 2)),      # b = -n
    (6, Fraction(-3), Fraction(5, 7)),          # b = -3: F has degree 3
    (12, Fraction(61, 4), Fraction(-7, 3)),     # the verify-high family
    (1, Fraction(2), Fraction(3)),
], ids=str)
def test_contiguous_pair_is_horner_exactly(n, b, c):
    # the recurrence in Fractions is F and F' themselves, not approximations:
    # F' = n (F_n - F_{n-1}) / z off 0, and -n b / c at z = 0
    q = coefficients(Params(n, b, c))
    steps = _exact_contiguous_steps(n, b, c)
    for z in map(Fraction, [*range(2, n + 3), 0, -3, Fraction(-5, 7), Fraction(13, 9)]):
        assert _contiguous_pair(steps, z) == horner_with_derivative(q.coeffs, z)
    assert _contiguous_pair(steps, Fraction(0)) == (1, -n * b / c)


@pytest.mark.parametrize("n,b,c", [
    (12, Fraction(61, 4), Fraction(-7, 3)),
    (100, Fraction(101234, 1000), Fraction(-7, 3)),
    (10, Fraction(406, 5), Fraction(-2) + Fraction(1, 10**17)),
], ids=str)
def test_contiguous_pair_in_floats_at_zero(n, b, c):
    # the float stage divides by z only off 0; at 0 it reads F'(0) = -n b / c
    steps = _contiguous_steps(n, b, c)
    for z in (0.0, 0j):
        _, dp = _contiguous_pair(steps, z)
        assert cmath.isfinite(dp)
        assert math.isclose(dp.real, float(-n * b / c), rel_tol=1e-15) and dp.imag == 0


def _root_bits(rs):
    return [(r.value.real.hex(), r.value.imag.hex(), r.multiplicity, r.residual.hex())
            for r in rs.roots]


STAGED_POINTS = HARD_POINTS + [
    (60, Fraction(30569, 500), Fraction(-7, 3)),
    (60, Fraction(61017, 1000), Fraction(-7, 3)),
    (80, Fraction(10182, 125), Fraction(-7, 3)),
    (50, Fraction(-3, 7), Fraction(-50, 3)),    # forward recursion unstable
    # c + 2 = 1e-17 is not 0, but float(c) + 2 is: the steps are rounded
    # from exact values, where steps formed in floats would divide by zero
    (11, Fraction(3), Fraction(-2) + Fraction(1, 10**17)),
]


@pytest.mark.parametrize("n,b,c", STAGED_POINTS, ids=str)
def test_recurrence_stage_leaves_every_root_bit_identical(n, b, c, monkeypatch):
    # the stage only steers: the exact certificate decides where each root
    # lands, so the answer is the one of the exact rescue alone (a stage of
    # no sweeps leaves every point where the first pass put it), to the
    # last bit of every value and residual
    q = coefficients(Params(n, b, c))
    staged = []
    contiguous = oracle._contiguous_pair
    monkeypatch.setattr(oracle, "_contiguous_pair",
                        lambda *args: staged.append(1) or contiguous(*args))
    with_stage = all_roots(q, b, c)
    assert staged  # the first pass left unsound points here
    monkeypatch.setattr(oracle, "RECURRENCE_SWEEPS", 0)
    assert _root_bits(with_stage) == _root_bits(all_roots(q, b, c))


def test_recurrence_stage_keeps_what_it_settled_when_its_budget_runs_out(monkeypatch):
    # here the recurrence settles some unsound points within its budget and
    # not the others (12 of 30: the noise floor of its float steps lies above
    # the root band at the rest); the settled ones are certified and frozen,
    # so the exact rescue restarts only the others, each where the
    # recurrence left it
    p = Params(35, Fraction(-407, 9), Fraction(-523, 12))
    calls = []  # (sweep budget, start, frozen mask, positions, settled mask if it ran out)
    aberth = oracle._aberth

    def spy(coeffs, max_sweeps, evaluate, start, frozen):
        zs, settled, sweeps = aberth(coeffs, max_sweeps, evaluate, start, frozen)
        calls.append((max_sweeps, start, frozen, zs, None if all(settled) else settled))
        return zs, settled, sweeps

    monkeypatch.setattr(oracle, "_aberth", spy)
    q = coefficients(p)
    all_roots(q, p.b, p.c)
    _, (budget, _, sound, left, settled), (_, start, rescue, _, _) = calls
    assert budget == oracle.RECURRENCE_SWEEPS and settled is not None
    newly_settled = sum(done and not ok for ok, done in zip(sound, settled))
    assert 0 < newly_settled < sound.count(False)
    assert rescue.count(False) == sound.count(False) - newly_settled
    # a point frozen in the recurrence comes back at the certified position
    # it was given; a point it settled is certified by exact Newton
    int_fac = oracle._primitive(oracle._to_int_coeffs(q))
    certified = [z if ok else oracle._refine(int_fac, z)[0] for z, ok in zip(left, sound)]
    assert start == [zc if ok else z for z, zc, ok in zip(left, certified, rescue)]
    assert verify(p).status == "pass"


@pytest.mark.parametrize("n,b,c", [
    (20, Fraction(-205, 11), Fraction(-53, 2)),  # 18 + 60 + 2 sweeps before
    (35, Fraction(113, 12), Fraction(-19, 3)),   # 18 + 60 + 2 sweeps before
], ids=str)
def test_recurrence_stage_hands_stalled_points_to_exact_newton(n, b, c, monkeypatch):
    # forward recursion is unstable here: the float steps of the recurrence
    # stall inside the root band, short of its 1e-13 step test.  The stage
    # settles them there, exact Newton certifies them, and no rescue runs
    calls = []  # (sweep budget, sweeps, whether every point settled)
    aberth = oracle._aberth

    def spy(coeffs, max_sweeps, evaluate, start, frozen):
        zs, settled, sweeps = aberth(coeffs, max_sweeps, evaluate, start, frozen)
        calls.append((max_sweeps, sweeps, all(settled)))
        return zs, settled, sweeps

    monkeypatch.setattr(oracle, "_aberth", spy)
    p = Params(n, b, c)
    rs = all_roots(coefficients(p), b, c)
    assert rs.total_multiplicity == n
    (_, _, first_done), (budget, sweeps, done) = calls
    assert first_done and budget == oracle.RECURRENCE_SWEEPS
    assert done and sweeps < budget
    assert verify(p).status == "pass"


def _noisy_step_run(eta):
    """An _aberth run on a sextic with known roots, whose _settle_on_step
    evaluator adds to the exact p a deterministic noise of relative size eta
    on the scale sum |a_k| |z|**k, as float recursion does.  Returns the
    points, their settled mask, the sweeps, each point's distance to its
    root over 1 + |z|, and whether each settled on a stalled step."""
    roots = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-1, 3),
             Fraction(7, 4)]
    fac = [float(a) for a in from_roots(roots)]

    def pair(z):
        p, dp = horner_with_derivative(fac, z)
        noise = random.Random(z.real.hex() + z.imag.hex()).uniform(-1, 1)
        return p + eta * noise * oracle._residual_scale(fac, z), dp

    settle_on_step = oracle._settle_on_step(pair, 1e-13)
    last = {}  # the evaluation at each point reached

    def evaluate(z):
        last[z] = settle_on_step(z)
        return last[z]

    zs, settled, sweeps = oracle._aberth(fac, oracle.RECURRENCE_SWEEPS, evaluate,
                                         oracle._newton_polygon_starts(fac), [False] * 6)
    dist = [min(abs(z - r) for r in roots) / (1 + abs(z)) for z in zs]
    # a settled point is never moved, so its last evaluation is at its place
    stalled = [ok and abs(last[z][0]) > last[z][2] for z, ok in zip(zs, settled)]
    return zs, settled, sweeps, dist, stalled


def test_a_step_stalled_inside_the_root_band_settles():
    # the noise puts a floor under the float Newton steps above the 1e-13
    # step test and below ROOT_BAND: the stalled points settle in the band
    _, settled, sweeps, dist, stalled = _noisy_step_run(1e-13)
    assert all(settled) and sweeps < oracle.RECURRENCE_SWEEPS
    assert any(stalled)
    assert max(dist) <= oracle.ROOT_BAND
    # without the noise every point meets the step test: no stall clause
    zs, settled, _, dist, stalled = _noisy_step_run(0.0)
    assert all(settled) and not any(stalled)
    assert max(dist) <= 1e-12
    # the Horner pass settles on its backward error alone
    fac = [float(a) for a in from_roots(range(1, 7))]
    assert {oracle._settle_on_residual(fac)(z)[3] for z in zs} == {0.0}


def test_float_roots_do_not_take_the_recurrence_stage(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "_contiguous_pair", lambda *args: calls.append(1))
    p = Params(20, 17.518, 7.02)
    assert all_roots(coefficients(p), p.b, p.c).total_multiplicity == 20
    assert calls == []


@pytest.mark.parametrize("n,b,c", [
    # z = 1 has multiplicity 20, so the cofactor is solved alone
    (51, Fraction(-557, 6), Fraction(-743, 6)),
    # F has degree 36 < n
    (41, Fraction(-36), Fraction(-949, 12)),
], ids=str)
def test_recurrence_stage_runs_only_on_f_whole_at_full_degree(n, b, c, monkeypatch):
    # the Horner pass leaves unsound points here and the exact rescue runs,
    # but the recurrence computes F at degree n, which is no factor solved
    later_stages, recurrence = [], []
    aberth, contiguous = oracle._aberth, oracle._contiguous_pair

    def spy(coeffs, max_sweeps, evaluate, start, frozen):
        later_stages.append(len(later_stages) > 0)  # every call after the first
        return aberth(coeffs, max_sweeps, evaluate, start, frozen)

    monkeypatch.setattr(oracle, "_aberth", spy)
    monkeypatch.setattr(oracle, "_contiguous_pair",
                        lambda *args: recurrence.append(1) or contiguous(*args))
    q = coefficients(Params(n, b, c))
    assert all_roots(q, b, c).total_multiplicity == q.effective_degree
    assert any(later_stages)
    assert recurrence == []


def test_a_simple_zero_at_one_stays_in_f_for_the_recurrence_stage(monkeypatch):
    # c - b = 1 - n, so F(1) = (c - b)_n / (c)_n = 0 with multiplicity 1; F is
    # solved whole at full degree, so the recurrence stage runs on it, where
    # dividing z - 1 out would leave only the slower exact rescue
    n, b, c = 50, Fraction(151, 7), Fraction(-192, 7)
    q = coefficients(Params(n, b, c))
    assert oracle._deflate_at_one(oracle._to_int_coeffs(q))[1] == 1
    recurrence = []
    contiguous = oracle._contiguous_pair
    monkeypatch.setattr(oracle, "_contiguous_pair",
                        lambda *args: recurrence.append(1) or contiguous(*args))
    rs = all_roots(q, b, c)
    assert rs.total_multiplicity == n
    assert [r.multiplicity for r in rs.roots if r.value == 1] == [1]
    assert recurrence


@pytest.mark.parametrize("n,b,c,built", [
    # the Horner pass certifies every root
    (8, Fraction(7, 3), Fraction(-11, 5), []),
    # it leaves unsound points, so the recurrence stage is built, once
    (35, Fraction(113, 12), Fraction(-19, 3), [35]),
], ids=str)
def test_no_stage_is_built_once_every_point_is_sound(n, b, c, built, monkeypatch):
    calls = []
    steps = oracle._contiguous_steps
    monkeypatch.setattr(oracle, "_contiguous_steps",
                        lambda n, b, c: calls.append(n) or steps(n, b, c))
    q = coefficients(Params(n, b, c))
    assert all_roots(q, b, c).total_multiplicity == n
    assert calls == built


def _sound_mask_of_all_pairs(points):
    """The rule of oracle._sound_mask, tested on all d(d - 1)/2 pairs."""
    band = oracle.ROOT_BAND
    sound = [dist <= band * (1 + abs(z)) for z, dist in points]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            (zi, di), (zj, dj) = points[i], points[j]
            if abs(zi - zj) <= band * (1 + abs(zi)):
                sound[j if dj >= di else i] = False
    return sound


@st.composite
def _clustered_points(draw):
    """Up to 100 (point, certificate) pairs, in clusters inside the root band
    of their centre and in a shuffled order, with shared real parts (within
    a cluster and across clusters) and tied certificates."""
    band = oracle.ROOT_BAND
    dists = st.sampled_from([0.0, 1e-13, band / 2, band, 2 * band]) | st.floats(0, 1e-6)
    reals = st.sampled_from([0.0, 1.0, -2.5, 700.0]) | st.floats(-1e3, 1e3)
    points = []
    for _ in range(draw(st.integers(1, 12))):
        centre = complex(draw(reals), draw(st.floats(-1e3, 1e3)))
        width = band * (1 + abs(centre))
        for _ in range(draw(st.integers(1, 12))):
            offset = complex(draw(st.just(0.0) | st.floats(-2, 2)), draw(st.floats(-2, 2)))
            points.append((centre + offset * width, draw(dists)))
    return draw(st.permutations(points[:100]))


@settings(max_examples=300, deadline=None)
@given(_clustered_points())
def test_sound_mask_equals_the_all_pairs_rule(points):
    assert oracle._sound_mask(points) == _sound_mask_of_all_pairs(points)


def _counting_exact_evaluations(monkeypatch):
    calls = []
    exact = oracle._exact_eval_pair
    monkeypatch.setattr(oracle, "_exact_eval_pair",
                        lambda *args: calls.append(1) or exact(*args))
    return calls


def test_recurrence_stage_cuts_the_exact_evaluations(monkeypatch):
    # the exact rescue alone makes 1,341 exact evaluations here, the
    # recurrence stage leaves 168 for the certificates and the rescue
    calls = _counting_exact_evaluations(monkeypatch)
    p = Params(60, Fraction(30569, 500), Fraction(-7, 3))
    assert all_roots(coefficients(p), p.b, p.c).total_multiplicity == 60
    assert len(calls) <= 600


def test_exact_newton_hands_off_a_point_it_does_not_converge_on(monkeypatch):
    # exact Newton hands off 47 of the 60 points where the Horner pass
    # settled, pseudo-roots whose exact steps crawl: the second step, which
    # does not halve the first, ends them above the root band, while the
    # points at true roots still converge to 1e-12
    from hyperzero.oracle import ROOT_BAND, _exact_newton

    p = Params(60, Fraction(30569, 500), Fraction(-7, 3))
    starts = []
    monkeypatch.setattr(oracle, "_exact_newton",
                        lambda cs, z: starts.append((cs, z)) or _exact_newton(cs, z))
    roots = all_roots(coefficients(p), p.b, p.c).values()
    monkeypatch.setattr(oracle, "_exact_newton", _exact_newton)
    calls = _counting_exact_evaluations(monkeypatch)
    factor = starts[0][0]
    handed_off = 0
    for _, z in starts[:60]:
        calls.clear()
        w, step = _exact_newton(factor, z)
        if step > 1e-12 * (1 + abs(w)):
            assert step > ROOT_BAND * (1 + abs(w)) and len(calls) <= 2, z
            handed_off += 1
    assert handed_off == 47
    for z in roots:
        w, step = _exact_newton(factor, z)
        assert step <= 1e-12 * (1 + abs(w)), z


@pytest.mark.parametrize("n,b,c,bound", [
    (60, Fraction(30569, 500), Fraction(-7, 3), 250),   # 418 when every crawl runs 8 steps
    (80, Fraction(10182, 125), Fraction(-7, 3), 320),   # 596 when every crawl runs 8 steps
], ids=str)
def test_pseudo_roots_cost_few_exact_evaluations(n, b, c, bound, monkeypatch):
    calls = _counting_exact_evaluations(monkeypatch)
    assert all_roots(coefficients(Params(n, b, c)), b, c).total_multiplicity == n
    assert len(calls) <= bound


def test_fundamental_accounting():
    rng = random.Random(65)
    for _ in range(30):
        p = general_position_params(rng, n_hi=12)
        q = coefficients(p)
        st = sturm_counts(q)
        nc = interval_counts(all_roots(q, p.b, p.c))
        assert st.n1 + st.n2 + st.n3 + st.mult_at_1 + 2 * nc.nonreal_pairs == q.effective_degree
        assert (nc.n1, nc.n2, nc.n3) == (st.n1, st.n2, st.n3), p


# ---------------------------------------------------------------------------
# geometry_report


def _rootset(values):
    return RootSet(tuple(Root(v, 1, 0.0) for v in values), 0)


def test_geometry_report_circle_pair():
    obs = geometry_report(_rootset([1.5 + 0.8660254037844386j, 1.5 - 0.8660254037844386j]))
    assert obs.on_circle == 2
    assert obs.nonreal_pairs == 0


def test_geometry_report_unit_interval_pair():
    obs = geometry_report(_rootset([0.101, 0.470]))
    assert obs.real_in01 == 2
    assert obs.on_circle == 0


def test_geometry_report_empty():
    obs = geometry_report(RootSet((), 0))
    assert obs.on_circle == obs.real_gt1 == obs.real_in01 == obs.real_neg == 0
    assert obs.nonreal_pairs == 0


def test_geometry_report_circle_band_is_relative():
    # 2e-9 off the circle, inside the band 1e-9 (1 + |z|) of all_roots
    z = 1 + (1 + 2e-9) * cmath.exp(0.5j)
    obs = geometry_report(_rootset([z, z.conjugate()]))
    assert obs.on_circle == 2
    assert obs.nonreal_pairs == 0


def test_geometry_report_regions():
    inside = 1.2 + 0.3j
    outside = 3.0 + 1.0j
    obs = geometry_report(_rootset([inside, inside.conjugate(), outside, outside.conjugate()]))
    assert obs.regions == {
        "inside_upper": 1, "inside_lower": 1, "outside_upper": 1, "outside_lower": 1
    }
    assert obs.quadrant_pairs == 1
    assert obs.nonreal_pairs == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_unit_interval():
    rep = verify(Params(3, 10, 2))
    assert rep.status == "pass"
    assert rep.confidence == "exact"
    assert rep.prediction.counts == (0, 3, 0)


def _observed(rep):
    """What each check row of a report observed, by row name."""
    return {c.name: c.observed for c in rep.checks}


def test_verify_pass_circle():
    rep = verify(Params(2, 1, 2))
    assert rep.status == "pass"
    assert rep.geometry_prediction is not None
    assert rep.geometry_prediction.on_circle == 2
    assert _observed(rep)["on circle"] == 2


def test_verify_pass_minus2n_case():
    rep = verify(Params(3, Fraction(-3, 2), -6))
    assert rep.status == "pass"
    assert rep.prediction.counts == (2, 0, 1)
    assert rep.geometry_prediction.provenance == "thm2.3.ii(k=2)"


def test_verify_boundary_is_not_failure():
    rep = verify(Params(2, 1, 1))
    assert rep.status == "boundary"
    assert rep.checks == ()
    assert any("unclassifiable: boundary" in note for note in rep.notes)


def test_verify_float_mode_is_numeric_confidence():
    rep = verify(Params(3, 0.35, 1.7))
    assert rep.status == "pass"
    assert rep.confidence == "numeric"
    # three count rows from the numeric counts, no Sturm row for the multiplicity at 1
    assert list(_observed(rep))[:4] == [*oracle.COUNT_CHECKS[:3], "nonreal pairs"]
    assert any("numeric-confidence" in note for note in rep.notes)


# verify's geometry templates, in its order, and the prediction each reads
GEOMETRY_TEMPLATES = {"c=2b": "predict_2b", "c=1/2": "predict_half", "c=-2n": "predict_minus2n"}


class _Chosen(Exception):
    pass


def _verify_template(p):
    """The template whose prediction verify asks for at p, or None."""
    with pytest.MonkeyPatch.context() as mp:
        for tag, name in GEOMETRY_TEMPLATES.items():
            def chosen(*args, tag=tag):
                raise _Chosen(tag)
            mp.setattr(special, name, chosen)
        try:
            verify(p)
        except _Chosen as exc:
            return exc.args[0]
    return None


def _first_geometry_match(p):
    return next((t for t in quadratic_class_match(p) if t in GEOMETRY_TEMPLATES), None)


@st.composite
def _template_points(draw):
    n = draw(st.integers(1, 8))
    b = draw(st.fractions(-10, 10, max_denominator=12))
    c = draw(st.sampled_from([2 * b, Fraction(1, 2), Fraction(-2 * n)])
             | st.fractions(-10, 10, max_denominator=12))
    if draw(st.booleans()):
        b, c = float(b), float(c) + draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, -1e-10]))
    try:
        return Params(n, b, c)
    except InvalidParameterError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(_template_points())
def test_verify_reads_the_first_geometry_template_that_matches(p):
    assert _verify_template(p) == _first_geometry_match(p)


@pytest.mark.parametrize("p,tag", [
    (Params(3, 2, 4), "c=2b"),
    (Params(3, Fraction(1, 4), Fraction(1, 2)), "c=2b"),   # also on c = 1/2
    (Params(3, Fraction(13, 8), Fraction(1, 2)), "c=1/2"),
    (Params(3, -3, -6), "c=2b"),                           # also on c = -2n
    (Params(3, Fraction(-3, 2), -6), "c=-2n"),
    (Params(3, 2.0, 4.0 + 1e-13), "c=2b"),                 # inside the float band
    (Params(3, 2.0, 4.0 + 1e-10), None),                   # outside it
    (Params(3, 1.0, 0.5 - 1e-13), "c=1/2"),
    (Params(3, 1.0, -6.0 + 1e-13), "c=-2n"),
    (Params(3, Fraction(13, 8), Fraction(1, 2) + Fraction(1, 10**15)), None),
], ids=str)
def test_verify_geometry_template_examples(p, tag):
    assert _verify_template(p) == _first_geometry_match(p) == tag


def _template_line_boundaries(n):
    """The points of c = 2b, c = 1/2 and c = -2n where classify_region raises,
    exact and in floats, on the line and inside the float band beside it.

    Those are b or c - b in {0, ..., 1-n}, so b is an integer or a half
    integer in [-2n, n].
    """
    lines = [lambda b: 2 * b, lambda b: Fraction(1, 2), lambda b: Fraction(-2 * n)]
    points = []
    for k in range(-4 * n, 2 * n + 1):
        b = Fraction(k, 2)
        for line in lines:
            for p in (b, line(b)), (float(b), float(line(b))), (b + 3e-13, float(line(b + 3e-13))):
                try:
                    p = Params(n, *p)
                    klein.classify_region(p)
                except BoundaryParameterError:
                    points.append(p)
                except InvalidParameterError:
                    pass
    return points


@pytest.mark.parametrize("n", range(1, 13))
def test_every_template_raises_at_a_classifier_boundary(n):
    # why a boundary verify may return before it builds F: no check there
    # could read an oracle
    points = _template_line_boundaries(n)
    # at n = 1, c = 2b meets a line only at b = 0, where c = 0 is excluded
    expected = {"c=1/2", "c=-2n"} | ({"c=2b"} if n > 1 else set())
    assert {_first_geometry_match(p) for p in points} == expected
    assert {p.is_exact for p in points} == {True, False}
    for p in points:
        with pytest.raises(BoundaryParameterError):
            getattr(special, GEOMETRY_TEMPLATES[_first_geometry_match(p)])(p.n, p.b)


@pytest.mark.parametrize("p", [
    Params(2, 1, 1),                                  # c - b = 0
    Params(2, 1.0, 1.0),
    Params(4, Fraction(-1), 2),                       # b = -1
    Params(4, -1.0 + 1e-13, 2.0),                     # inside the float band
    Params(2, Fraction(-1), -2),                      # b = -1 on c = 2b
    Params(3, 2.5, 0.5),                              # c - b = -2 on c = 1/2
    Params(100, Fraction(-99), Fraction(-7, 3)),      # F of degree 99 would not converge
], ids=str)
def test_a_boundary_verify_runs_no_oracle(p, monkeypatch):
    def unread(*args):
        raise AssertionError("an oracle ran at a boundary")

    for name in ("coefficients", "all_roots", "sturm_counts", "geometry_report"):
        monkeypatch.setattr(oracle, name, unread)
    rep = verify(p)
    assert (rep.status, rep.prediction, rep.checks) == ("boundary", None, ())
    assert any("unclassifiable: boundary" in note for note in rep.notes)


def _count_remainders(monkeypatch):
    """The list that each later oracle._sturm_sequence call appends to."""
    calls = []
    sequence = oracle._sturm_sequence
    monkeypatch.setattr(oracle, "_sturm_sequence", lambda f: calls.append(1) or sequence(f))
    return calls


def test_exact_verify_runs_one_remainder_sequence(monkeypatch):
    # F(1) != 0, so all_roots takes F as squarefree without a gcd, and the
    # one remainder sequence is the Sturm chain of sturm_counts
    calls = _count_remainders(monkeypatch)
    assert verify(Params(20, Fraction(7, 3), Fraction(11, 5))).status == "pass"
    assert len(calls) == 1


def test_exact_verify_that_does_not_converge_builds_no_chain(monkeypatch):
    # the solve comes first, and its overflow ends verify before sturm_counts
    calls = _count_remainders(monkeypatch)
    with pytest.raises(NonConvergenceError, match="overflowed the float range"):
        verify(Params(3, Fraction(10 ** 400), Fraction(1, 3)))
    assert calls == []


def test_all_roots_splits_only_where_f_of_one_is_zero(monkeypatch):
    # F(1) != 0, so all_roots takes F as its own squarefree factor; neither
    # point builds a remainder sequence
    calls = _count_remainders(monkeypatch)
    p = Params(20, Fraction(7, 3), Fraction(11, 5))
    assert len(all_roots(coefficients(p), p.b, p.c).roots) == 20
    # c - b = -2 lies in {0, ..., 1 - n}: F(1) = 0, and all_roots divides
    # out z - 1 with multiplicity 3
    p = Params(5, Fraction(7, 3), Fraction(1, 3))
    rs = all_roots(coefficients(p), p.b, p.c)
    assert [r.multiplicity for r in rs.roots if r.value == 1] == [3]
    assert sum(r.multiplicity for r in rs.roots) == 5
    assert calls == []


@pytest.mark.parametrize("n,b,c,degrees,m,sweeps", [
    (5, Fraction(7, 3), Fraction(7, 3), [], 5, 0),  # F = (1 - z)^5
    (5, Fraction(-2), Fraction(-5), [], 2, 0),  # F = (1 - z)^2
    (5, Fraction(7, 3), Fraction(1, 3), [2], 3, 4),
], ids=str)
def test_all_roots_reads_z_equal_one_from_the_split(n, b, c, degrees, m, sweeps, monkeypatch):
    # z = 1 and its multiplicity come from _deflate_at_one: Aberth solves
    # only the cofactor, and nothing where it is a constant
    solved = []
    aberth = oracle._aberth
    monkeypatch.setattr(oracle, "_aberth",
                        lambda coeffs, *args: solved.append(len(coeffs) - 1) or aberth(coeffs, *args))
    rs = all_roots(coefficients(Params(n, b, c)), b, c)
    assert solved == degrees
    assert [r.multiplicity for r in rs.roots if r.value == 1] == [m]
    assert rs.iterations == sweeps


_int_polys = st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(
    lambda g: g[-1] != 0 and sum(g) != 0)


def _times_z_minus_one(cs, k):
    for _ in range(k):
        cs = [lo - hi for lo, hi in zip([0] + cs, cs + [0])]
    return cs


@settings(max_examples=300, deadline=None)
@given(_int_polys, st.integers(0, 8))
def test_deflate_at_one_undoes_powers_of_z_minus_one(g, k):
    cs = _times_z_minus_one(g, k)
    cofactor, m = _deflate_at_one(cs)
    assert (cofactor, m) == (g, k)
    assert _times_z_minus_one(cofactor, m) == cs


_quarters = st.fractions(-14, 14, max_denominator=4)


@st.composite
def _points(draw):
    """(n, b, c), with c - b in {0, ..., 1 - n} for about a third of them."""
    n = draw(st.integers(1, 12))
    b = draw(_quarters | st.integers(-13, 0).map(Fraction))
    on_one = draw(st.integers(0, 2)) == 0
    c = b + draw(st.integers(1 - n, 0)) if on_one else draw(_quarters)
    return n, b, c


@settings(max_examples=300, deadline=None)
@given(_points())
def test_f_over_its_zeros_at_one_is_squarefree(point):
    # the split all_roots reads from the hypergeometric equation, checked
    # against the gcd of the cofactor and its derivative, the last element
    # of its Sturm chain; an integer b <= 0 lowers the degree
    try:
        q = coefficients(Params(*point))
    except InvalidParameterError:
        return
    cofactor, m = _deflate_at_one(_to_int_coeffs(q))
    assert len(_sturm_sequence(_primitive(cofactor))[-1]) == 1
    assert sum(cofactor) != 0
    assert m == sturm_counts(q).mult_at_1


def test_verify_spot_checks_random():
    rng = random.Random(66)
    for _ in range(25):
        p = general_position_params(rng, n_hi=8)
        rep = verify(p)
        assert rep.status == "pass", (p, [c for c in rep.checks if not c.ok])
