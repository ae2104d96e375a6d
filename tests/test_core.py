"""Series construction, evaluation, the classical-polynomial identities, exports."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hyperzero
from hyperzero import (
    Params,
    Poly,
    coefficients,
    evaluate,
    gegenbauer,
    jacobi,
    pochhammer,
    poly,
)
from hyperzero.cli import _proved
from hyperzero.core import (
    InvalidParameterError,
    cell_code,
    excluded_code,
    float_codes,
    gegenbauer_point,
    in_excluded_set,
    ratio_codes,
    side,
)

from conftest import assert_float_band, random_params


# ---------------------------------------------------------------------------
# pochhammer


@pytest.mark.parametrize("alpha", [0, 1, Fraction(-7, 3), 2.5, -11])
def test_pochhammer_empty_product(alpha):
    assert pochhammer(alpha, 0) == 1


def test_pochhammer_factorial():
    assert pochhammer(1, 4) == 24


def test_pochhammer_hits_zero():
    assert pochhammer(Fraction(-2), 3) == 0


# ---------------------------------------------------------------------------
# Params validation


def test_excluded_c_rejected():
    with pytest.raises(InvalidParameterError):
        Params(3, 1, -2)
    with pytest.raises(InvalidParameterError):
        Params(2, 5, 0)
    # below the excluded range is fine
    Params(3, 1, -5)


@pytest.mark.parametrize("b, c", [
    (math.inf, 2.0),
    (-math.inf, 2.0),
    (1.0, math.nan),
    (math.nan, Fraction(1, 2)),
    (10 ** 400, 2.5),  # an exact b too large for the float c to demote
    (1e308, -1e308),  # finite b and c whose difference c - b overflows
    (-1e308, 1e308),
], ids=["inf", "-inf", "nan-c", "nan-b", "overflow", "c-b-overflow", "b-c-overflow"])
def test_non_finite_params_rejected(b, c):
    with pytest.raises(InvalidParameterError):
        Params(3, b, c)


def test_overflowing_float_coefficients_rejected():
    # the degree-2 coefficient is about b**2 = 1e600
    with pytest.raises(InvalidParameterError):
        coefficients(Params(3, 1e300, 2.5))
    # the same size of b is fine in exact mode
    assert coefficients(Params(3, Fraction(10) ** 300, Fraction(5, 2))).coeffs[3] != 0


@pytest.mark.parametrize("b, c, shown", [
    (Fraction(10) ** 400, 0.5, "b=inf, c=0.5"),
    (-Fraction(10) ** 400, 0.5, "b=-inf, c=0.5"),
    (0.5, Fraction(10) ** 400, "b=0.5, c=inf"),
    (0.5, -Fraction(10) ** 400, "b=0.5, c=-inf"),
])
def test_overflow_message_names_the_parameter(b, c, shown):
    with pytest.raises(InvalidParameterError) as exc:
        Params(3, b, c)
    assert str(exc.value).endswith(f"got {shown}")


_wide_floats = st.floats(-100, 100) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), _wide_floats | st.integers(-29, 0).map(float), _wide_floats)
@example(5, 0.5, 1e200)  # its degree-2 coefficient underflows: rejected
@example(3, -2.0, 1e-200)  # degenerate, with coefficients near 6e200
def test_accepted_float_coefficients_keep_their_degree(n, b, c):
    try:
        p = Params(n, b, c)
        q = coefficients(p)
    except InvalidParameterError:
        return
    assert q.effective_degree == n - p.degeneration


def test_excluded_c_float_proximity():
    with pytest.raises(InvalidParameterError):
        Params(3, 1.0, -1.0 + 1e-14)
    Params(3, 1.0, -2.5)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12),
       v=st.one_of(st.integers(-14, 2).map(Fraction),
                   st.fractions(-14, 2, max_denominator=12)))
def test_excluded_code_is_membership_in_the_excluded_set(n, v):
    assert excluded_code(cell_code(v), n) == any(v == -k for k in range(n))


@pytest.mark.parametrize("den", [1, 2, 3, 7, 12, 2 ** 70 + 1])
def test_ratio_codes_is_the_cell_code_of_each_ratio(den):
    # negative values, zero and every multiple of den in [-3 den, 3 den],
    # and values beyond a machine word on and next to a multiple
    if den < 100:
        nums = list(range(-3 * den, 3 * den + 1))
    else:
        nums = [0, den, -den, 5 * den, -5 * den, den - 1, 1 - den, 3 * den + 2, -3 * den - 2]
    big = 10 ** 30 * den
    nums += [big, -big, big + 1, -big - 1]
    codes = ratio_codes(nums, den)
    for num, code in zip(nums, codes):
        x = Fraction(num, den)
        k = math.floor(x)
        assert code == cell_code(x) == (2 * k if x == k else 2 * k + 1), (num, den)
    assert ratio_codes([], den) == []


def _code_by_side(v):
    """The float cell code by the one boundary rule at the nearest integer."""
    k = round(v)
    return 2 * k if side(v, k) == 0 else 2 * math.floor(v) + 1


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# the floats next to each edge of the band about k, both signs of 0 and of
# the smallest subnormal, a value whose floor is -1 but whose code is 0, two
# ties of round, and the largest floats
_FLOAT_EDGES = [
    v
    for k in [*range(-3, 4), 2 ** 52, -2 ** 52, 2 ** 53, -2 ** 53]
    for v in _around(k - 1e-12) + _around(k + 1e-12)
] + [0.0, -0.0, 5e-324, -5e-324, -1e-20, 0.5, 2.5,
     1.7976931348623157e308, -1.7976931348623157e308]


def _with_examples(values):
    def wrap(test):
        for v in values:
            test = example(v)(test)
        return test
    return wrap


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # near an integer, where the band decides
    st.builds(lambda k, d: k + d, st.integers(-2 ** 53, 2 ** 53), st.floats(-3e-12, 3e-12)),
))
@_with_examples(_FLOAT_EDGES)
def test_float_codes_is_the_boundary_rule_at_the_nearest_integer(v):
    assert float_codes([v]) == [_code_by_side(v)] == [cell_code(v)], v


def test_a_float_that_is_not_finite_has_no_code():
    values = [math.inf, -math.inf, math.nan]
    assert float_codes(values) == [None, None, None]
    assert float_codes([]) == []
    for v in values:
        with pytest.raises(ValueError):
            cell_code(v)


def _refuse_excluded(v, n):
    if excluded_code(cell_code(v), n):
        raise ValueError(f"{v} is in the excluded set of {n}")


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_excluded_code_reads_a_float_by_side(nk):
    n, k = nk
    assert_float_band(lambda v: _refuse_excluded(v, n), -k, ValueError)
    # the integers just outside the set stay outside, however close
    for edge in (1, -n):
        for offset in (-1e-13, 1e-13):
            _refuse_excluded(edge + offset, n)


def test_n_must_be_positive_integer():
    with pytest.raises(InvalidParameterError):
        Params(0, 1, 2)


def test_mixed_inputs_demote_to_float():
    p = Params(2, Fraction(1, 2), 0.25)
    assert p.mode == "float"
    assert isinstance(p.b, float)


# ---------------------------------------------------------------------------
# coefficients


def test_linear_coefficients():
    q = coefficients(Params(1, Fraction(7), Fraction(3)))
    assert q.coeffs == (Fraction(1), Fraction(-7, 3))


def test_quadratic_coefficients_b6_c1():
    # term-by-term expansion: 1 + (-2)(6)/1 z + (2)(42)/(2*2) z^2
    q = coefficients(Params(2, 6, 1))
    assert q.coeffs == (Fraction(1), Fraction(-12), Fraction(21))


def test_quadratic_coefficients_b1_c2():
    q = coefficients(Params(2, 1, 2))
    assert q.coeffs == (Fraction(1), Fraction(-1), Fraction(1, 3))


def test_degenerate_b_truncates_exactly():
    q = coefficients(Params(5, -3, Fraction(7, 3)))
    assert q.effective_degree == 3
    assert q.coeffs[4] == 0 and q.coeffs[5] == 0
    qf = coefficients(Params(5, -3.0, 7 / 3))
    assert qf.effective_degree == 3


def test_degeneration_property():
    assert Params(5, -3, Fraction(7, 3)).degeneration == 2
    assert Params(5, Fraction(5, 2), 1).degeneration == 0


def _ratio_recurrence(p):
    """The coefficients by the ratio (k-n)(b+k) / ((c+k)(k+1)), in Fraction steps."""
    out = [Fraction(1)]
    for k in range(p.n):
        out.append(out[-1] * (k - p.n) * (p.b + k) / ((p.c + k) * (k + 1)))
    return tuple(out)


_coefficient_values = st.fractions(-120, 120, max_denominator=50)


@st.composite
def _exact_points(draw):
    n = draw(st.integers(1, 15) | st.sampled_from([35, 60, 100]))
    # b = -m with m < n: the coefficients vanish exactly from k = m + 1 on
    b = draw(_coefficient_values | st.integers(1 - n, 0).map(Fraction))
    c = draw(_coefficient_values)
    assume(not in_excluded_set(c, n))
    return Params(n, b, c)


@settings(max_examples=300, deadline=None)
@given(_exact_points())
def test_exact_coefficients_are_the_fraction_ratio_recurrence(p):
    q = coefficients(p)
    assert q.coeffs == _ratio_recurrence(p)
    assert all(type(a) is Fraction for a in q.coeffs)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_constant_term():
    assert evaluate(poly([1, -1, Fraction(1, 3)]), 0) == 1


def test_evaluate_linear_root_exact():
    b, c = Fraction(10), Fraction(3)
    q = coefficients(Params(1, b, c))
    assert evaluate(q, c / b) == 0


def test_evaluate_quadratic_point():
    assert abs(evaluate(poly([1, -12, 21]), 0.1) - 0.01) < 1e-12


@given(st.integers(1, 8), st.fractions(-8, 8), st.fractions(-8, 8))
def test_series_starts_at_one(n, b, c):
    try:
        p = Params(n, b, c)
    except InvalidParameterError:
        return
    assert evaluate(coefficients(p), Fraction(0)) == 1


@given(st.integers(1, 8), st.fractions(-8, 8), st.fractions(-8, 8))
def test_effective_degree_full_off_degenerate_set(n, b, c):
    try:
        p = Params(n, b, c)
    except InvalidParameterError:
        return
    q = coefficients(p)
    expect = n - p.degeneration
    assert q.effective_degree == expect


# ---------------------------------------------------------------------------
# Jacobi and Gegenbauer


def test_jacobi_degree_zero():
    assert jacobi(0, 0.3, -1.7, 0.9) == 1


def test_jacobi_degree_one_closed_form():
    rng = random.Random(7)
    for _ in range(10):
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        x = rng.uniform(-2, 2)
        expect = (a + 1) + (a + b + 2) * (x - 1) / 2
        assert abs(jacobi(1, a, b, x) - expect) < 1e-12


def test_jacobi_connection_degree_two():
    # F(-2, a+b+3; a+1; z) * (a+1)_2 / 2! against P_2 at 1-2z, both sides
    # computed independently.
    a, b, z = 0.5, 0.25, 0.3
    lhs = evaluate(coefficients(Params(2, a + b + 3, a + 1)), z) * pochhammer(a + 1, 2) / 2
    rhs = jacobi(2, a, b, 1 - 2 * z)
    assert abs(lhs - rhs) < 1e-12


def test_jacobi_form_check_examples():
    assert _proved("jacobi", Params(1, 2, 3))
    assert _proved("jacobi", Params(3, Fraction(-3, 2), Fraction(1, 2)))


def test_jacobi_form_check_random_samples():
    rng = random.Random(31)
    for _ in range(100):
        p = random_params(rng)
        # each draw also takes a z, which fixes the points seed 31 gives;
        # _proved proves the identity for every z
        if rng.randint(-24, 24) == 0:
            continue
        assert _proved("jacobi", p), p


def test_gegenbauer_legendre_special_case():
    # lambda = 1/2 gives the Legendre recurrence; P_2(x) = (3x^2-1)/2
    x = 0.37
    assert abs(gegenbauer(2, 0.5, x) - (3 * x * x - 1) / 2) < 1e-12


def test_gegenbauer_check_examples():
    assert _proved("gegenbauer", gegenbauer_point(1, 1))
    assert _proved("gegenbauer", gegenbauer_point(2, Fraction(1, 2)))


def test_gegenbauer_check_vanishing_pochhammer():
    # (2*lam)_3 = (-2)(-1)(0) = 0 at lam = -1
    with pytest.raises(InvalidParameterError):
        gegenbauer_point(3, -1)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_gegenbauer_check_non_finite_lambda_is_invalid(lam):
    with pytest.raises(InvalidParameterError):
        gegenbauer_point(3, lam)


def test_gegenbauer_check_vanishing_pochhammer_float_band():
    assert_float_band(lambda lam: gegenbauer_point(3, lam), -1, InvalidParameterError)


def test_gegenbauer_check_random_samples():
    rng = random.Random(32)
    count = 0
    while count < 100:
        n = rng.randint(1, 8)
        lam = Fraction(rng.randint(-40, 40), 8)
        if any(2 * lam + i == 0 for i in range(n)):
            continue
        try:
            Params(n, n + 2 * lam, lam + Fraction(1, 2))
        except InvalidParameterError:
            continue
        rng.randint(-16, 16)  # the z of each draw, as above
        assert _proved("gegenbauer", gegenbauer_point(n, lam)), (n, lam)
        count += 1


def test_jacobi_connection_random_samples():
    # classical argument form: F(-n, a+b+1+n; a+1; z) = n!/(a+1)_n P_n(1-2z)
    rng = random.Random(33)
    count = 0
    while count < 100:
        n = rng.randint(1, 8)
        a = Fraction(rng.randint(-40, 40), 8)
        b = Fraction(rng.randint(-40, 40), 8)
        try:
            p = Params(n, a + b + 1 + n, a + 1)
        except InvalidParameterError:
            continue
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = evaluate(coefficients(p), z)
        rhs = math.factorial(n) / pochhammer(a + 1, n) * jacobi(n, a, b, 1 - 2 * z)
        scale = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) / scale < 1e-9, (n, a, b, z)
        count += 1


# ---------------------------------------------------------------------------
# exports


def test_all_names_what_the_package_imports():
    assert all(hasattr(hyperzero, name) for name in hyperzero.__all__)
    tree = ast.parse(Path(hyperzero.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(hyperzero.__all__) == imported
    assert len(hyperzero.__all__) == len(imported)
