"""The count formulas, the regional classifier, and their covariances."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperzero import (
    Params,
    binomial_sign,
    classify_region,
    coefficients,
    klein_E,
    pfaff,
    predict_counts,
    sturm_counts,
    xyz,
)
from hyperzero.core import BoundaryParameterError, InvalidParameterError, cell_code
from hyperzero.oracle import _primitive, _sturm_sequence, _to_int_coeffs

from conftest import general_position_params


# ---------------------------------------------------------------------------
# E


def test_E_branches():
    assert klein_E(-3) == 0
    assert klein_E(2.5) == 2
    assert klein_E(4) == 3
    assert klein_E(Fraction(4)) == 3
    assert klein_E(0) == 0
    assert klein_E(Fraction(1, 2)) == 0
    assert klein_E(1) == 0


def test_E_float_integrality_detection():
    assert klein_E(4.0 + 1e-13) == 3
    assert klein_E(4.0 - 1e-13) == 3
    assert klein_E(3.9999) == 3
    assert klein_E(1e-14) == 0


@given(st.fractions(-20, 20))
def test_E_matches_piecewise_definition(u):
    e = klein_E(u)
    if u <= 0:
        assert e == 0
    elif u.denominator == 1:
        assert e == u - 1
    else:
        assert e == u.numerator // u.denominator


# ---------------------------------------------------------------------------
# xyz


def test_xyz_hand_example():
    k = xyz(Params(3, 10, 2))
    assert (k.x, k.y, k.z) == (0, 3, 0)


def test_xyz_negative_c_regime_closed_form():
    # for c < 0 < b with c-b > 1-n the three absolute values resolve and
    # X = E(1-c-n), Y = E(b), Z = E(c-b)
    rng = random.Random(41)
    count = 0
    while count < 50:
        n = rng.randint(2, 9)
        c = Fraction(rng.randint(-8 * (n - 1) + 1, -1), 8)
        b = Fraction(rng.randint(1, 8 * (n - 1) - 1), 8)
        if not (c - b > 1 - n):
            continue
        try:
            k = xyz(Params(n, b, c))
        except InvalidParameterError:
            continue
        assert k.x == klein_E(1 - c - n)
        assert k.y == klein_E(b)
        assert k.z == klein_E(c - b)
        count += 1


def test_xyz_all_negative_regime_vanishes():
    rng = random.Random(42)
    count = 0
    while count < 50:
        n = rng.randint(2, 9)
        b = Fraction(rng.randint(-8 * (n - 1) + 1, -1), 8)
        c = Fraction(rng.randint(-8 * (n - 1) + 1, -1), 8)
        if not (1 - n < c - b < 0):
            continue
        try:
            k = xyz(Params(n, b, c))
        except InvalidParameterError:
            continue
        assert (k.x, k.y, k.z) == (0, 0, 0)
        count += 1


# ---------------------------------------------------------------------------
# binomial signs


def test_binomial_sign_examples():
    for n in (1, 2, 3, 5, 8):
        for b in (Fraction(3, 2), Fraction(7), 0.4):
            assert binomial_sign(-b, n) == (-1) ** n
    # b - c > n makes (b-c choose n) positive for all n
    for n in (1, 2, 5):
        assert binomial_sign(Fraction(13, 2), n) == 1
    assert binomial_sign(2, 5) == 0
    assert binomial_sign(2.0 + 1e-14, 5) == 0


# ---------------------------------------------------------------------------
# predict_counts


def test_predict_counts_all_in_unit_interval():
    pred = predict_counts(Params(3, 10, 2))
    assert pred.counts == (0, 3, 0)
    assert pred.nonreal_pairs == 0
    assert pred.provenance == "thm3.1"


def test_predict_counts_all_nonreal():
    pred = predict_counts(Params(2, Fraction(1, 2), 1))
    assert pred.counts == (0, 0, 0)
    assert pred.nonreal_pairs == 1


def test_predict_counts_all_negative():
    pred = predict_counts(Params(4, Fraction(-9, 2), 1))
    assert pred.counts == (0, 0, 4)


def test_predict_counts_boundary_hypothesis():
    for n, b, c in [(3, -1, 2), (3, 2, 2), (4, Fraction(1, 2), Fraction(1, 2))]:
        with pytest.raises(BoundaryParameterError):
            predict_counts(Params(n, b, c))


# ---------------------------------------------------------------------------
# classify_region


def test_classify_window_j3():
    pred = classify_region(Params(5, Fraction(7, 2), 1))
    assert pred.counts == (0, 3, 0)
    assert pred.nonreal_pairs == 1
    assert pred.provenance == "thm3.2.ii(j=3)"


def test_classify_negative_c_positive_b():
    pred = classify_region(Params(4, Fraction(1, 2), Fraction(-7, 5)))
    assert pred.counts == (0, 0, 0)
    assert pred.nonreal_pairs == 2
    assert pred.provenance == "thm3.3.ii.a(j=2,k=2)"


def test_classify_all_negative():
    pred = classify_region(Params(3, Fraction(-1, 2), Fraction(-7, 10)))
    assert pred.counts == (1, 0, 0)
    assert pred.nonreal_pairs == 1
    assert pred.provenance == "thm3.4(j=1,k=1,l=1)"


def _agrees_with_sturm(p: Params):
    """classify_region answers at p with the Sturm counts of its exact value."""
    exact = Params(p.n, Fraction(p.b), Fraction(p.c))
    sturm = sturm_counts(coefficients(exact))
    assert classify_region(p).counts == sturm.counts, p
    assert sturm.mult_at_1 == 0, p


def test_classify_boundary_cases():
    with pytest.raises(BoundaryParameterError):
        classify_region(Params(2, 1, 1))  # b = c
    with pytest.raises(BoundaryParameterError):
        classify_region(Params(3, -1, 2))  # degenerate b


@pytest.mark.parametrize("c, edge", [
    (1.5, 4.5),  # b - c = n
    (2.0, -3),  # b = -n
])
def test_classify_window_edges_float_band(c, edge):
    # on the edge, inside its float band and outside it, the counts are the
    # Sturm counts of the exact double
    for offset in (0.0, -1e-13, 1e-13, -1e-9, 1e-9):
        _agrees_with_sturm(Params(3, edge + offset, c))


off_integers = st.fractions(-30, 30, max_denominator=1000).filter(lambda v: v.denominator > 1)


@settings(max_examples=300)
@given(st.integers(1, 12), off_integers, off_integers)
def test_classify_agrees_on_fractions_and_their_floats(n, b, c):
    # b, c and c-b are each at least 1e-6 away from every integer, so no
    # lattice line and no window edge lies between a Fraction and its float.
    assume((c - b).denominator > 1)
    assert classify_region(Params(n, b, c)) == classify_region(Params(n, float(b), float(c)))


def test_classify_float_boundary_proximity():
    with pytest.raises(BoundaryParameterError):
        classify_region(Params(3, 2.0 + 1e-13, 2.0))


@pytest.mark.parametrize("n, b, c, message", [
    (3, -1, 2, "b=-1 lies in {0, -1, ..., -2}; the count formulas do not apply on this boundary"),
    (2, 1, 1, "c-b=0 lies in {0, -1, ..., -1}; the count formulas do not apply on this boundary"),
])
def test_classify_boundary_messages_name_the_values(n, b, c, message):
    with pytest.raises(BoundaryParameterError) as info:
        classify_region(Params(n, b, c))
    assert str(info.value) == message


@pytest.mark.parametrize("n, b, c", [
    (3, Fraction(9, 2), Fraction(3, 2)),  # b - c = n
    (3, -3, 2),  # b = -n
    (3, -3, Fraction(-11, 2)),  # b = -n, via the reflection
    (3, 4.5, 1.5),  # b - c = n in float mode
])
def test_classify_answers_on_the_window_edges(n, b, c):
    _agrees_with_sturm(Params(n, b, c))


def _near_integers(lo, hi):
    """Values on, in and just outside the float band of the integers."""
    offsets = st.sampled_from([0.0, 1e-13, -1e-13, 9e-13, -9e-13, 1.1e-12, -1.1e-12, 1e-11])
    return st.one_of(
        st.fractions(lo, hi, max_denominator=12),
        st.integers(lo, hi).map(Fraction),
        st.floats(lo, hi),
        st.tuples(st.integers(lo, hi), offsets).map(lambda t: t[0] + t[1]),
    )


@settings(max_examples=600)
@given(st.integers(1, 12), _near_integers(-26, 26), _near_integers(-26, 26))
@example(4, 0.500000000001, -2.999999999999)  # raised from a recomputed c + n - 1
def test_classify_raises_boundary_only_on_an_integer_line(n, b, c):
    try:
        p = Params(n, b, c)
    except InvalidParameterError:
        return
    try:
        classify_region(p)
    except BoundaryParameterError:
        assert any(cell_code(v) % 2 == 0 for v in (p.b, p.c, p.c - p.b)), p


def test_classify_matches_predict_on_random_samples():
    rng = random.Random(43)
    for _ in range(500):
        p = general_position_params(rng)
        assert classify_region(p).counts == predict_counts(p).counts, p


def test_classify_agrees_with_sturm_on_random_samples():
    rng = random.Random(44)
    for _ in range(100):
        p = general_position_params(rng, n_hi=8)
        st_counts = sturm_counts(coefficients(p))
        assert classify_region(p).counts == (st_counts.n1, st_counts.n2, st_counts.n3), p


@given(st.integers(1, 9), st.fractions(-10, 10), st.fractions(-10, 10))
def test_parity_invariant(n, b, c):
    try:
        pred = predict_counts(Params(n, b, c))
    except (InvalidParameterError, BoundaryParameterError):
        return
    assert (n - sum(pred.counts)) % 2 == 0
    assert sum(pred.counts) + 2 * pred.nonreal_pairs == n


# ---------------------------------------------------------------------------
# covariances under the transforms


def test_pfaff_covariance():
    rng = random.Random(45)
    done = 0
    while done < 60:
        p = general_position_params(rng)
        target = pfaff(p)
        try:
            a = predict_counts(p)
            t = predict_counts(target)
        except BoundaryParameterError:
            continue
        assert (t.n1, t.n2, t.n3) == (a.n1, a.n3, a.n2), p
        done += 1


def test_euler_covariance():
    from hyperzero import euler_reflect

    rng = random.Random(46)
    done = 0
    while done < 60:
        p = general_position_params(rng)
        try:
            target = euler_reflect(p)
            a = predict_counts(p)
            t = predict_counts(target)
        except (InvalidParameterError, BoundaryParameterError):
            continue
        # source zeros are 1 - target zeros
        assert (a.n1, a.n2, a.n3) == (t.n3, t.n2, t.n1), p
        done += 1


def test_window_reduction_via_pfaff():
    # b < -n with c > 0: the Pfaff image has b' = c-b > c+n, so the image
    # classifies into the all-in-(0,1) window and transports back to
    # all-negative; the direct classification must agree.
    rng = random.Random(47)
    done = 0
    while done < 30:
        n = rng.randint(2, 8)
        c = Fraction(rng.randint(1, 40), 8)
        b = Fraction(rng.randint(-8 * (n + 6), -8 * n - 1), 8)
        try:
            direct = classify_region(Params(n, b, c))
            image = classify_region(pfaff(Params(n, b, c)))
        except (InvalidParameterError, BoundaryParameterError):
            continue
        assert image.provenance == "thm3.2.i"
        assert direct.counts == (image.n1, image.n3, image.n2)
        assert direct.provenance == "thm3.2.v"
        done += 1


def test_window_reduction_via_pfaff_inner_windows():
    # -n < b < 0 maps to c+j-1 < b' < c+j; counts transport as (n1, n3, n2)
    rng = random.Random(48)
    done = 0
    while done < 30:
        n = rng.randint(2, 8)
        c = Fraction(rng.randint(1, 40), 8)
        b = Fraction(rng.randint(-8 * n + 1, -1), 8)
        try:
            direct = classify_region(Params(n, b, c))
            image = classify_region(pfaff(Params(n, b, c)))
        except (InvalidParameterError, BoundaryParameterError):
            continue
        if not direct.provenance.startswith("thm3.2.iv"):
            continue
        assert image.provenance.startswith("thm3.2.ii")
        assert direct.counts == (image.n1, image.n3, image.n2)
        done += 1


# ---------------------------------------------------------------------------
# every region of the plane


def _region(num: int, den: int, n: int) -> int:
    """#{k in 0, ..., n-1 : num/den > -k} for num/den off the integers."""
    return max(0, min(n, n - 1 - (-num) // den))


def _axis(n: int, first: int):
    """Numerators over 231 of first/231 + i/3 within the box |x| <= 2n + 1."""
    r = 231 * (2 * n + 1)
    return [first + 77 * i for i in range(-3 * (2 * n + 1) - 1, 3 * (2 * n + 1) + 1)
            if abs(first + 77 * i) <= r]


def _region_points(n: int):
    """One exact point (b, c) per region of the 3n lines {b, c, c-b in {0, ..., 1-n}}.

    A region of their arrangement is the intersection of three strips, so
    the triple of strip indices of (b, c, c-b) names it, and every region
    meets the box |b|, |c| <= 2n + 1.  The grid b = 1/7 + i/3,
    c = 2/11 + j/3 is read in numerators over 231 and misses every line
    {b in Z}, {c in Z}, {c - b in Z}.
    """
    den, bs, cs = 231, _axis(n, 33), _axis(n, 42)
    found = {}
    for yc in cs:
        for yb in bs:
            key = (_region(yb, den, n), _region(yc, den, n), _region(yc - yb, den, n))
            found.setdefault(key, (Fraction(yb, den), Fraction(yc, den)))
    return found


def _edge_points(n: int):
    """Exact points on the window edges b = -n and b - c = n, which are not
    count jumps, at every c of the _region_points grid, and floats within
    the band of each edge at every seventh."""
    cs = [Fraction(yc, 231) for yc in _axis(n, 42)]
    points = [(b, c) for c in cs for b in (Fraction(-n), c + n)]
    for c in cs[::7]:
        for offset in (-9e-13, -1e-13, 1e-13, 9e-13):
            points += [(-n + offset, float(c)), (float(c) + n + offset, float(c))]
    return points


@pytest.mark.parametrize("n", range(1, 13))
def test_every_region_of_the_plane_agrees_with_sturm(n):
    regions = _region_points(n)
    assert len(regions) == 1 + 5 * n * (n + 1) // 2
    for b, c in [*regions.values(), *_edge_points(n)]:
        p = Params(n, b, c)
        q = coefficients(Params(n, Fraction(b), Fraction(c)))  # a float's exact double
        region, formula, sturm = classify_region(p), predict_counts(p), sturm_counts(q)
        assert region.counts == formula.counts == sturm.counts, (n, b, c)
        assert region.nonreal_pairs == formula.nonreal_pairs, (n, b, c)
        assert sturm.mult_at_1 == 0, (n, b, c)
        # F has full degree and is squarefree: gcd(F, F'), the last element
        # of its Sturm chain, is a constant
        cs = _to_int_coeffs(q)
        assert len(cs) - 1 == n and len(_sturm_sequence(_primitive(cs))[-1]) == 1, (n, b, c)
