"""Window-by-window geometry predictions checked against the oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperzero import (
    Params,
    all_roots,
    classify_region,
    coefficients,
    evaluate,
    predict_2b,
    predict_half,
    predict_minus2n,
    predict_counts,
    verify,
)
from hyperzero.core import BoundaryParameterError, InvalidParameterError

from conftest import assert_float_band, rational_inside


# ---------------------------------------------------------------------------
# c = 2b


def test_2b_circle_case():
    g = predict_2b(2, 1)
    assert g.on_circle == 2
    assert g.real_gt1 == g.real_in01 == g.real_neg == 0
    assert g.quadrant_pairs == 0
    assert g.provenance == "thm2.1-via-(15.3.16)->thm3.2.iv(j=1)"
    # concrete roots of 1 - z + z^2/3 sit on |z-1| = 1
    roots = all_roots(coefficients(Params(2, 1, 2)), 1, 2).values()
    assert all(abs(abs(z - 1) - 1) < 1e-10 for z in roots)


def test_2b_terminal_window_odd_n():
    g = predict_2b(5, Fraction(-29, 10))
    assert g.provenance == "thm2.1-via-(15.3.16)->reduced-via-(2.2)->thm3.2.iii"
    assert g.on_circle == 1
    assert g.quadrant_pairs == 1
    assert g.real_gt1 == g.real_in01 == g.real_neg == 0


def test_2b_all_real_beyond_one():
    g = predict_2b(4, -10)
    assert g.provenance == "thm2.1-via-(15.3.16)->reduced-via-(2.1)->thm3.2.iv(j=2)"
    assert g.real_gt1 == 4
    assert g.on_circle == 0


def test_2b_fixed_zero_for_odd_degree():
    for n in (1, 3, 5, 7):
        for b in (Fraction(3, 4), Fraction(9, 8)):
            q = coefficients(Params(n, b, 2 * b))
            assert evaluate(q, Fraction(2)) == 0, (n, b)
    # and not for even degree
    assert evaluate(coefficients(Params(2, Fraction(3, 4), Fraction(3, 2))), Fraction(2)) != 0


# (b, error) at the window edges of the c = 2b template for n = 6
EDGES_2B = [
    # integer endpoints with a still-valid c are genuine window boundaries
    (-3, BoundaryParameterError),  # junction of the terminal window
    (-4, BoundaryParameterError),  # junction between two real-zero windows
    (-5, BoundaryParameterError),  # b = 1-n
    # half-integer endpoints land on c = 2b in the excluded set instead
    (Fraction(-1, 2), InvalidParameterError),
    (Fraction(-3, 2), InvalidParameterError),
    (-1, InvalidParameterError),  # c = -2 excluded
    (0, InvalidParameterError),
]


def test_2b_window_boundaries_raise():
    for b, error in EDGES_2B:
        with pytest.raises(error):
            predict_2b(6, b)


@pytest.mark.parametrize("b, error", EDGES_2B)
def test_2b_window_boundaries_float_band(b, error):
    assert_float_band(lambda v: predict_2b(6, v), b, error)


# Corners of the float bands: F's own boundary, then b + 1/2 in the excluded
# set of G, which the count theorem on G's codes alone would not refuse.
BAND_CORNERS_2B = [
    (17, -7.00000000000099,
     "b=-7.00000000000099 lies in {0, -1, ..., -16}; the count formulas do not apply on this boundary"),
    (3, -0.99999999999901,
     "b=-0.99999999999901 lies in {0, -1, ..., -2}; the count formulas do not apply on this boundary"),
    (21, -3.50000000000099, "b=-3.50000000000099 sits on a window boundary for c=2b, n=21"),
    (3, -0.499999999999, "b=-0.499999999999 sits on a window boundary for c=2b, n=3"),
]


@pytest.mark.parametrize("n, b, message", BAND_CORNERS_2B)
def test_2b_band_corners_raise(n, b, message):
    with pytest.raises(BoundaryParameterError) as info:
        predict_2b(n, b)
    assert str(info.value) == message


def test_2b_quadratic_transformation_holds_exactly():
    # F(-n, b; 2b; z) = (1 - z/2)^n F(-m, beta; b + 1/2; (z/(2 - z))^2), both
    # sides polynomials of degree at most n in z: equal at n + 1 points, equal
    rng = random.Random(208)
    for n in range(1, 31):
        m, odd = divmod(n, 2)
        beta = Fraction(1, 2) - m - odd
        done = 0
        while done < 3:
            b = Fraction(rng.randint(-40 * n, 40 * n), rng.randint(1, 12))
            try:
                f = coefficients(Params(n, b, 2 * b))
                g = coefficients(Params(m, beta, b + Fraction(1, 2))) if m else None
            except InvalidParameterError:
                continue
            for k in range(n + 1):
                z = Fraction(2 * k + 1, 3)  # never 2
                t = (z / (2 - z)) ** 2
                rhs = (1 - z / 2) ** n * (evaluate(g, t) if g else 1)
                assert evaluate(f, z) == rhs, (n, b, z)
            done += 1


def test_2b_degree_one_has_no_boundaries():
    for b in (Fraction(5), Fraction(-1, 2), Fraction(-1), Fraction(-7)):
        g = predict_2b(1, b)
        assert g.on_circle == 1


@pytest.mark.parametrize("n", [6, 7])
def test_2b_windows_verified_against_oracle(n):
    rng = random.Random(200 + n)
    top = n // 2
    windows = [(Fraction(-1, 2), Fraction(6))]
    windows += [(Fraction(-1, 2) - j, Fraction(1, 2) - j) for j in range(1, top)]
    lo = Fraction(-top) if n % 2 == 0 else Fraction(-1 - top)
    windows.append((lo, Fraction(1, 2) - top))
    windows += [(Fraction(j - n), Fraction(j - n + 1)) for j in range(1, top)]
    windows.append((Fraction(1 - n) - 3, Fraction(1 - n)))
    for lo, hi in windows:
        done = 0
        while done < 5:
            b = rational_inside(rng, lo, hi)
            try:
                rep = verify(Params(n, b, 2 * b))
            except InvalidParameterError:
                continue
            assert rep.status == "pass", (n, b, [c for c in rep.checks if not c.ok])
            done += 1


def test_2b_simplicity_on_circle():
    rng = random.Random(207)
    for n in (6, 15, 25):
        for _ in range(5):
            b = Fraction(rng.randint(-3, 160), 8)
            if b <= Fraction(-1, 2) or b == 0:
                continue
            vals = all_roots(coefficients(Params(n, b, 2 * b)), b, 2 * b).values()
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    assert abs(vals[i] - vals[j]) > 1e-9


def test_2b_cluster_convergence_toward_two():
    previous = None
    for b in (-10, -100, -1000):
        vals = all_roots(coefficients(Params(6, b, 2 * b)), b, 2 * b).values()
        assert all(abs(z.imag) <= 1e-9 for z in vals)
        assert all(z.real > 1 for z in vals)
        spread = max(abs(z - 2) for z in vals)
        if previous is not None:
            assert spread < previous
        previous = spread


# ---------------------------------------------------------------------------
# c = 1/2


def test_half_spec_cases():
    assert predict_half(3, 5).real_in01 == 3
    g = predict_half(3, Fraction(1, 4))
    assert g.nonreal_pairs == 1 and g.real_gt1 == 1 and g.provenance == "thm2.2.iii"
    assert predict_half(4, -5).real_neg == 4


EDGES_HALF = (Fraction(5, 2), Fraction(0), Fraction(1, 2), Fraction(-2), Fraction(-1))


def test_half_window_boundaries_raise():
    for b in EDGES_HALF:
        with pytest.raises(BoundaryParameterError):
            predict_half(3, b)


@pytest.mark.parametrize("b", EDGES_HALF)
def test_half_window_boundaries_float_band(b):
    assert_float_band(lambda v: predict_half(3, v), b, BoundaryParameterError)


def test_half_windows_verified_against_oracle():
    n = 5
    rng = random.Random(201)
    windows = [(n - Fraction(1, 2), Fraction(n + 3))]
    windows += [(n - Fraction(1, 2) - j, n + Fraction(1, 2) - j) for j in range(1, n)]
    windows.append((Fraction(0), Fraction(1, 2)))
    windows += [(Fraction(-j), Fraction(-j + 1)) for j in range(1, n)]
    windows.append((Fraction(1 - n) - 3, Fraction(1 - n)))
    for lo, hi in windows:
        for _ in range(5):
            b = rational_inside(rng, lo, hi)
            rep = verify(Params(n, b, Fraction(1, 2)))
            assert rep.status == "pass", (n, b, [c for c in rep.checks if not c.ok])


def test_half_agrees_with_count_formulas():
    rng = random.Random(202)
    done = 0
    while done < 40:
        n = rng.randint(1, 7)
        b = Fraction(rng.randint(-8 * (n + 3), 8 * (n + 3)), 16)
        try:
            g = predict_half(n, b)
            k = predict_counts(Params(n, b, Fraction(1, 2)))
        except (BoundaryParameterError, InvalidParameterError):
            continue
        assert (g.real_gt1, g.real_in01, g.real_neg) == k.counts, (n, b)
        assert g.nonreal_pairs == k.nonreal_pairs
        done += 1


def test_half_collapse_toward_zero():
    previous = None
    for b in (-10, -100, -1000):
        vals = all_roots(coefficients(Params(6, b, Fraction(1, 2))), b, Fraction(1, 2)).values()
        assert all(abs(z.imag) <= 1e-9 and z.real < 0 for z in vals)
        largest = max(abs(z) for z in vals)
        if previous is not None:
            assert largest < previous
        previous = largest


def test_half_chebyshev_connection():
    # b = n puts the zeros at the Chebyshev nodes mapped into (0,1)
    import math

    n = 7
    roots = all_roots(coefficients(Params(n, n, Fraction(1, 2))), n, Fraction(1, 2))
    vals = sorted(z.real for z in roots.values())
    nodes = sorted((1 - math.cos((2 * k - 1) * math.pi / (2 * n))) / 2 for k in range(1, n + 1))
    assert max(abs(a - b) for a, b in zip(vals, nodes)) < 1e-9


# ---------------------------------------------------------------------------
# c = -2n


def test_minus2n_spec_cases():
    g = predict_minus2n(2, 1)
    assert g.nonreal_pairs == 1 and g.provenance == "thm2.3.i"
    g = predict_minus2n(3, Fraction(-3, 2))
    assert (g.real_gt1, g.real_neg, g.nonreal_pairs) == (2, 1, 0)
    assert g.provenance == "thm2.3.ii(k=2)"
    g = predict_minus2n(3, -7)
    assert (g.real_in01, g.nonreal_pairs) == (1, 1)
    assert g.provenance == "thm2.3.iv"
    # b = -n reads as the window just above it, which thm2.3.iii(k=0) shares
    g = predict_minus2n(3, -3)
    assert g[:5] == (0, 3, 0, 0, 0) and g.provenance == "thm2.3.ii(k=3)"


# b = -n = -3 is not among them: it is no count jump
EDGES_MINUS2N = (0, -1, -4, -5, -6)


def test_minus2n_window_boundaries_raise():
    for b in EDGES_MINUS2N:
        with pytest.raises(BoundaryParameterError):
            predict_minus2n(3, Fraction(b))


@pytest.mark.parametrize("b", EDGES_MINUS2N)
def test_minus2n_window_boundaries_float_band(b):
    assert_float_band(lambda v: predict_minus2n(3, v), b, BoundaryParameterError)


@pytest.mark.parametrize("n", range(1, 13))
def test_minus2n_equals_the_count_theorem(n):
    # every b in eighths over [-3n, n + 1]: where either one answers, both
    # answer with the same counts
    for b in (Fraction(k, 8) for k in range(-24 * n, 8 * n + 9)):
        p = Params(n, b, -2 * n)
        try:
            want = classify_region(p)
        except BoundaryParameterError:
            want = None
        try:
            got = predict_minus2n(n, b)
        except BoundaryParameterError:
            got = None
        if want is None or got is None:
            assert want is got, (n, b)
        else:
            assert got[1:5] == (*want.counts, want.nonreal_pairs), (n, b)


def test_minus2n_windows_verified_against_oracle():
    n = 4
    rng = random.Random(203)
    windows = [(Fraction(0), Fraction(4))]
    windows += [(Fraction(-k), Fraction(-k + 1)) for k in range(1, n + 1)]
    windows += [(Fraction(-n - k - 1), Fraction(-n - k)) for k in range(0, n)]
    windows.append((Fraction(-2 * n) - 3, Fraction(-2 * n)))
    for lo, hi in windows:
        for _ in range(5):
            b = rational_inside(rng, lo, hi)
            rep = verify(Params(n, b, -2 * n))
            assert rep.status == "pass", (n, b, [c for c in rep.checks if not c.ok])


# ---------------------------------------------------------------------------
# exact and float mode agree off the window edges


@settings(max_examples=300)
@given(st.integers(1, 12),
       st.fractions(-30, 30, max_denominator=1000).filter(lambda b: b.denominator > 2))
def test_predictions_agree_on_fraction_and_its_float(n, b):
    # Every window edge of the three templates lies on a multiple of 1/2,
    # and b is at least 1/2000 away from all of them.
    for predict in (predict_2b, predict_half, predict_minus2n):
        assert predict(n, b) == predict(n, float(b)), (predict.__name__, n, b)
