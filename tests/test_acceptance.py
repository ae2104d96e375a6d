"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction

from hyperzero import (
    Params,
    all_roots,
    classify_region,
    coefficients,
    euler_reflect,
    evaluate,
    gegenbauer,
    invert,
    jacobi,
    pfaff,
    pochhammer,
    predict_counts,
    sturm_counts,
    verify,
)
from hyperzero.core import InvalidParameterError

from conftest import general_position_params, rational_inside


def _report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_count_formulas_match_sturm_exactly():
    started = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(500):
        p = general_position_params(rng, n_lo=1, n_hi=10, span=15, den=1000)
        pred = predict_counts(p)
        st = sturm_counts(coefficients(p))
        assert pred.counts == (st.n1, st.n2, st.n3), p
        assert st.mult_at_1 == 0
    _report(1, "count formulas vs Sturm, 500 general-position samples", started, 60)


def test_criterion_2_window_table_n4_c2():
    started = time.perf_counter()
    # printed counts per half-integer b, derived case by case from the
    # c > 0 window statement
    expected = {
        Fraction(-9, 2): ((0, 0, 4), 0, "thm3.2.v"),
        Fraction(-7, 2): ((0, 0, 4), 0, "thm3.2.iv(j=4)"),
        Fraction(-5, 2): ((1, 0, 3), 0, "thm3.2.iv(j=3)"),
        Fraction(-3, 2): ((0, 0, 2), 1, "thm3.2.iv(j=2)"),
        Fraction(-1, 2): ((1, 0, 1), 1, "thm3.2.iv(j=1)"),
        Fraction(1, 2): ((0, 0, 0), 2, "thm3.2.iii"),
        Fraction(3, 2): ((0, 0, 0), 2, "thm3.2.iii"),
        Fraction(5, 2): ((1, 1, 0), 1, "thm3.2.ii(j=1)"),
        Fraction(7, 2): ((0, 2, 0), 1, "thm3.2.ii(j=2)"),
        Fraction(9, 2): ((1, 3, 0), 0, "thm3.2.ii(j=3)"),
        Fraction(11, 2): ((0, 4, 0), 0, "thm3.2.ii(j=4)"),
        Fraction(13, 2): ((0, 4, 0), 0, "thm3.2.i"),
        Fraction(15, 2): ((0, 4, 0), 0, "thm3.2.i"),
    }
    for b, (counts, pairs, provenance) in expected.items():
        p = Params(4, b, 2)
        pred = classify_region(p)
        assert pred.counts == counts, b
        assert pred.nonreal_pairs == pairs, b
        assert pred.provenance == provenance, b
        st = sturm_counts(coefficients(p))
        assert counts == (st.n1, st.n2, st.n3), b
    _report(2, "n=4, c=2 window table, exact", started, 5)


def test_criterion_3_circle_law():
    started = time.perf_counter()
    rng = random.Random(1003)
    for n in (4, 5, 8, 13):
        done = 0
        while done < 5:
            b = Fraction(rng.randint(-3, 120), 8)
            if b <= Fraction(-1, 2) or b == 0:
                continue
            done += 1
            vals = all_roots(coefficients(Params(n, b, 2 * b)), b, 2 * b).values()
            assert len(vals) == n
            for z in vals:
                assert abs(abs(z - 1) - 1) <= 1e-9, (n, b, z)
            for i in range(n):
                for j in range(i + 1, n):
                    assert abs(vals[i] - vals[j]) > 1e-9, (n, b)
    _report(3, "circle law |z-1|=1 with simple zeros", started, 5)


def test_criterion_4_cluster_convergence_to_two():
    started = time.perf_counter()
    previous = None
    for b in (-10, -100, -1000):
        vals = all_roots(coefficients(Params(6, b, 2 * b)), b, 2 * b).values()
        assert all(abs(z.imag) <= 1e-9 for z in vals), b
        assert all(z.real > 1 for z in vals), b
        spread = max(abs(z - 2) for z in vals)
        if previous is not None:
            assert spread < previous, b
        previous = spread
    _report(4, "all-real roots collapsing onto z=2", started, 2)


def test_criterion_5_window_checks_half_and_minus2n():
    started = time.perf_counter()
    rng = random.Random(1005)
    n = 5
    half_windows = [(n - Fraction(1, 2), Fraction(n + 3))]
    half_windows += [(n - Fraction(1, 2) - j, n + Fraction(1, 2) - j) for j in range(1, n)]
    half_windows.append((Fraction(0), Fraction(1, 2)))
    half_windows += [(Fraction(-j), Fraction(-j + 1)) for j in range(1, n)]
    half_windows.append((Fraction(1 - n) - 3, Fraction(1 - n)))
    for lo, hi in half_windows:
        for _ in range(3):
            b = rational_inside(rng, lo, hi)
            rep = verify(Params(n, b, Fraction(1, 2)))
            assert rep.status == "pass", (n, b, [c for c in rep.checks if not c.ok])

    m = 4
    m2n_windows = [(Fraction(0), Fraction(4))]
    m2n_windows += [(Fraction(-k), Fraction(-k + 1)) for k in range(1, m + 1)]
    m2n_windows += [(Fraction(-m - k - 1), Fraction(-m - k)) for k in range(0, m)]
    m2n_windows.append((Fraction(-2 * m) - 3, Fraction(-2 * m)))
    for lo, hi in m2n_windows:
        for _ in range(3):
            b = rational_inside(rng, lo, hi)
            rep = verify(Params(m, b, -2 * m))
            assert rep.status == "pass", (m, b, [c for c in rep.checks if not c.ok])
    _report(5, "c=1/2 and c=-2n printed cases vs oracle", started, 10)


def test_criterion_6_parity_laws():
    started = time.perf_counter()
    seen_33 = {}
    for n in range(3, 9):
        for k in range(1, n - 1):
            for j in range(k, n - 1):
                c = -k + Fraction(1, 3)
                b = c + j - Fraction(1, 4)
                combo = ((n - j) % 2, k % 2)
                if combo in seen_33:
                    continue
                p = Params(n, b, c)
                assert p.c < 0 < p.b and p.c - p.b > 1 - n
                pred = classify_region(p)
                sub = {(0, 0): "a", (1, 0): "b", (0, 1): "c", (1, 1): "d"}[combo]
                assert f"thm3.3.ii.{sub}" in pred.provenance, (p, pred.provenance)
                st = sturm_counts(coefficients(p))
                assert pred.counts == (st.n1, st.n2, st.n3), p
                seen_33[combo] = p
    assert len(seen_33) == 4

    seen_34 = {}
    for n in range(2, 10):
        for j in range(1, n):
            for k in range(j, n):
                ell = k - j + 1
                if not 1 <= ell <= n - 1:
                    continue
                b = -j + Fraction(1, 3)
                c = -k + Fraction(1, 4)
                if not (1 - n < c < 0 and 1 - n < c - b < 0):
                    continue
                combo = ((n + j + ell) % 2, (k + ell) % 2, (j + k) % 2)
                if combo in seen_34:
                    continue
                p = Params(n, b, c)
                pred = classify_region(p)
                assert pred.provenance == f"thm3.4(j={j},k={k},l={ell})", (p, pred)
                assert pred.counts == (combo[0], combo[1], combo[2]), p
                st = sturm_counts(coefficients(p))
                assert pred.counts == (st.n1, st.n2, st.n3), p
                seen_34[combo] = p
    assert len(seen_34) == 8, sorted(seen_34)
    _report(6, "parity laws for negative-parameter regions", started, 10)


def test_criterion_7_identity_suite():
    started = time.perf_counter()
    rng = random.Random(1007)

    def sample_params(need_euler=False, need_invert=False):
        while True:
            n = rng.randint(1, 8)
            b = Fraction(rng.randint(-64, 64), 8)
            c = Fraction(rng.randint(-64, 64), 8)
            try:
                p = Params(n, b, c)
                if need_euler:
                    euler_reflect(p)
                if need_invert:
                    invert(p)
                return p
            except InvalidParameterError:
                continue

    def sample_z(avoid_one=False):
        # a rational z, so that both sides are compared exactly
        while True:
            z = Fraction(rng.randint(-24, 24), 8)
            if z == 0 or (avoid_one and z == 1):
                continue
            return z

    # (1.1) Gegenbauer connection
    done = 0
    while done < 100:
        n = rng.randint(1, 8)
        lam = Fraction(rng.randint(-40, 40), 8)
        if any(2 * lam + i == 0 for i in range(n)):
            continue
        try:
            Params(n, n + 2 * lam, lam + Fraction(1, 2))
        except InvalidParameterError:
            continue
        z = sample_z()
        lhs = evaluate(coefficients(Params(n, n + 2 * lam, lam + Fraction(1, 2))), z)
        rhs = math.factorial(n) / pochhammer(2 * lam, n) * gegenbauer(n, lam, 1 - 2 * z)
        assert lhs == rhs, (n, lam, z)
        done += 1

    # (1.2) Jacobi connection at argument 1-2z
    done = 0
    while done < 100:
        n = rng.randint(1, 8)
        alpha = Fraction(rng.randint(-40, 40), 8)
        beta = Fraction(rng.randint(-40, 40), 8)
        try:
            p = Params(n, alpha + beta + 1 + n, alpha + 1)
        except InvalidParameterError:
            continue
        z = sample_z()
        lhs = evaluate(coefficients(p), z)
        rhs = math.factorial(n) / pochhammer(alpha + 1, n) * jacobi(n, alpha, beta, 1 - 2 * z)
        assert lhs == rhs, (p, z)
        done += 1

    # (2.1) reflection
    for _ in range(100):
        p = sample_params(need_euler=True)
        target = euler_reflect(p)
        z = sample_z()
        scale = pochhammer(p.c - p.b, p.n) / pochhammer(p.c, p.n)
        rhs = scale * evaluate(coefficients(target), z)
        assert evaluate(coefficients(p), 1 - z) == rhs, (p, z)

    # (2.2) inversion
    for _ in range(100):
        p = sample_params(need_invert=True)
        target = invert(p)
        z = sample_z()
        prefactor = pochhammer(p.b, p.n) / pochhammer(p.c, p.n) * (-z) ** p.n
        rhs = prefactor * evaluate(coefficients(target), 1 / z)
        assert evaluate(coefficients(p), z) == rhs, (p, z)

    # (3.1) Jacobi-argument form
    for _ in range(100):
        p = sample_params()
        z = sample_z()
        n, b, c = p.n, p.b, p.c
        rhs = (math.factorial(n) * z ** n / pochhammer(c, n)
               * jacobi(n, -n - b, b - c - n, 1 - 2 / z))
        assert evaluate(coefficients(p), z) == rhs, (p, z)

    # (3.8) Pfaff
    for _ in range(100):
        p = sample_params()
        z = sample_z(avoid_one=True)
        rhs = (1 - z) ** p.n * evaluate(coefficients(pfaff(p)), z / (z - 1))
        assert evaluate(coefficients(p), z) == rhs, (p, z)

    _report(7, "six functional identities, 100 samples each", started, 10)


def test_criterion_8_degenerate_limit_continuity():
    started = time.perf_counter()
    n, c = 5, Fraction(7, 3)
    eps = Fraction(1, 10 ** 6)
    for m in (1, 2, 3):
        base = coefficients(Params(n, -m, c))
        assert base.effective_degree == m
        base_roots = all_roots(base, -m, c).values()
        for sign in (1, -1):
            b = -m + sign * eps
            shifted = all_roots(coefficients(Params(n, b, c)), b, c).values()
            assert len(shifted) == n
            for z in base_roots:
                nearest = min(abs(z - w) for w in shifted)
                assert nearest < 1e-4, (m, sign, z, nearest)
    _report(8, "degenerate-limit root continuity", started, 2)
