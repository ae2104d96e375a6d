"""Transform identities, their involutions, and zero transport."""

import random
from fractions import Fraction

import pytest

from hyperzero import (
    Params,
    all_roots,
    coefficients,
    euler_reflect,
    evaluate,
    invert,
    pfaff,
    quadratic_class_match,
)
from hyperzero.core import InvalidParameterError, cell_code, pochhammer
from hyperzero.transforms import (
    QUADRATIC_TEMPLATES,
    REDUCTIONS,
    euler_point,
    inversion_point,
    pfaff_point,
)

from conftest import random_params


def euler_scale(p):
    """(c-b)_n / (c)_n in F_source(1-z) = scale * F_target(z)."""
    return pochhammer(p.c - p.b, p.n) / pochhammer(p.c, p.n)


def invert_prefactor(p, z):
    """(b)_n / (c)_n * (-z)^n in F_source(z) = prefactor * F_target(1/z)."""
    return pochhammer(p.b, p.n) / pochhammer(p.c, p.n) * (-z) ** p.n


def test_reduction_swaps_match_point_maps():
    # count positions 0, 1, 2 are (1,inf), (0,1), (-inf,0)
    position = [lambda x: x > 1, lambda x: 0 < x < 1, lambda x: x < 0]
    samples = [Fraction(7, 2), Fraction(1, 3), Fraction(-5, 4)]
    point_maps = {"euler_reflect": euler_point, "invert": inversion_point, "pfaff": pfaff_point}
    assert set(REDUCTIONS) == set(point_maps)
    for name, reduction in REDUCTIONS.items():
        i, j = reduction.swap
        image = {i: j, j: i}
        for k, x in enumerate(samples):
            assert position[image.get(k, k)](point_maps[name](x)), (name, x)


def _codes(p):
    return cell_code(p.b), cell_code(p.c), cell_code(p.c - p.b)


def test_reduction_code_maps_match_parameter_maps():
    parameter_maps = {"euler_reflect": euler_reflect, "invert": invert, "pfaff": pfaff}
    assert set(REDUCTIONS) == set(parameter_maps)
    rng = random.Random(71)
    for _ in range(400):
        # den 2 puts many of b, c and c - b on the integers
        p = random_params(rng, n_hi=10, den=rng.choice((1, 2, 8)))
        for name, reduction in REDUCTIONS.items():
            try:
                image = parameter_maps[name](p)
            except InvalidParameterError:
                continue
            assert reduction.codes(p.n, *_codes(p)) == _codes(image), (name, p)


# ---------------------------------------------------------------------------
# reflection (z -> 1-z)


def test_euler_reflect_example():
    # hand check: F(-1,3;1;1-z) = -2 + 3z and -2*F(-1,3;2;z) = -2(1 - 3z/2)
    target = euler_reflect(Params(1, 3, 1))
    assert (target.n, target.b, target.c) == (1, 3, 2)
    scale = euler_scale(Params(1, 3, 1))
    assert scale == -2
    z = Fraction(2, 5)
    lhs = evaluate(coefficients(Params(1, 3, 1)), 1 - z)
    rhs = scale * evaluate(coefficients(target), z)
    assert lhs == rhs == Fraction(-4, 5)


def test_euler_reflect_midpoint_is_fixed():
    p = Params(3, Fraction(5, 2), Fraction(3, 4))
    target = euler_reflect(p)
    z = Fraction(1, 2)
    assert evaluate(coefficients(p), 1 - z) == euler_scale(p) * evaluate(coefficients(target), z)


def test_euler_reflect_invalid_target():
    # target c' = 1-2+2-1 = 0
    with pytest.raises(InvalidParameterError):
        euler_reflect(Params(2, 2, 1))


def test_euler_reflect_random_functional_identity():
    rng = random.Random(101)
    count = 0
    while count < 50:
        p = random_params(rng)
        try:
            target = euler_reflect(p)
        except InvalidParameterError:
            continue
        z = Fraction(rng.randint(-24, 24), 8)
        lhs = evaluate(coefficients(p), 1 - z)
        rhs = euler_scale(p) * evaluate(coefficients(target), z)
        assert lhs == rhs, (p, z)
        count += 1


# ---------------------------------------------------------------------------
# inversion (z -> 1/z)


def test_invert_example_symbolic():
    p = Params(1, 2, 3)
    target = invert(p)
    assert (target.n, target.b, target.c) == (1, -3, -2)
    assert pochhammer(p.b, p.n) / pochhammer(p.c, p.n) == Fraction(2, 3)
    # both sides expand to 1 - 2z/3
    for z in (Fraction(1, 2), Fraction(5, 1), Fraction(-7, 3)):
        assert evaluate(coefficients(p), z) == invert_prefactor(p, z) * evaluate(
            coefficients(target), 1 / z
        )


def test_invert_is_involution():
    rng = random.Random(102)
    for _ in range(30):
        p = random_params(rng)
        try:
            t2 = invert(invert(p))
        except InvalidParameterError:
            continue
        assert (t2.n, t2.b, t2.c) == (p.n, p.b, p.c)


def test_invert_invalid_target():
    # 1-b-n = -1 for b = -1, n = 3
    with pytest.raises(InvalidParameterError):
        invert(Params(3, -1, 5))


def test_invert_random_functional_identity():
    rng = random.Random(103)
    count = 0
    while count < 50:
        p = random_params(rng)
        try:
            target = invert(p)
        except InvalidParameterError:
            continue
        z = Fraction(rng.choice([-1, 1]) * rng.randint(1, 80), 8)
        lhs = evaluate(coefficients(p), z)
        rhs = invert_prefactor(p, z) * evaluate(coefficients(target), 1 / z)
        assert lhs == rhs, (p, z)
        count += 1


# ---------------------------------------------------------------------------
# Pfaff (z -> z/(z-1))


def test_pfaff_is_involution():
    rng = random.Random(104)
    for _ in range(30):
        p = random_params(rng)
        t = pfaff(pfaff(p))
        assert (t.n, t.b, t.c) == (p.n, p.b, p.c)


def test_pfaff_hand_example():
    p = Params(1, 3, 1)
    target = pfaff(p)
    assert (target.n, target.b, target.c) == (1, -2, 1)
    z = Fraction(3, 10)
    lhs = evaluate(coefficients(p), z)
    rhs = (1 - z) * evaluate(coefficients(target), z / (z - 1))
    assert lhs == rhs == Fraction(1, 10)


def test_pfaff_root_lands_in_predicted_interval():
    # root of the n=1 source is c/b = 1/3 in (0,1); the map sends (0,1) to
    # (-inf,0) and indeed the target root is 1/(-2) = -1/2.
    src_root = Fraction(1, 3)
    assert pfaff_point(src_root) == Fraction(-1, 2)
    target = pfaff(Params(1, 3, 1))
    assert evaluate(coefficients(target), Fraction(-1, 2)) == 0


def test_pfaff_random_functional_identity():
    rng = random.Random(105)
    count = 0
    while count < 50:
        p = random_params(rng)
        z = Fraction(rng.randint(-24, 24), 8)
        if z == 1:
            continue
        lhs = evaluate(coefficients(p), z)
        rhs = (1 - z) ** p.n * evaluate(coefficients(pfaff(p)), z / (z - 1))
        assert lhs == rhs, (p, z)
        count += 1


def test_pfaff_degeneration_is_recorded_not_fatal():
    # c - b = -2 makes the target drop two degrees
    p = Params(4, Fraction(7, 3), Fraction(1, 3))
    target = pfaff(p)
    assert target.degeneration == 2
    assert coefficients(target).effective_degree == 2


# ---------------------------------------------------------------------------
# zero transport


def _match_multisets(left, right, tol):
    left = list(left)
    right = list(right)
    assert len(left) == len(right)
    for v in left:
        idx = min(range(len(right)), key=lambda i: abs(v - right[i]))
        assert abs(v - right[idx]) <= tol, (v, right[idx])
        right.pop(idx)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_zero_transport(seed):
    rng = random.Random(seed)
    done = 0
    while done < 8:
        p = random_params(rng, n_lo=2, n_hi=6)
        if p.degeneration:
            continue
        src_roots = all_roots(coefficients(p), p.b, p.c).values()
        # reflection
        try:
            tgt = euler_reflect(p)
        except InvalidParameterError:
            tgt = None
        if tgt is not None and tgt.degeneration == 0:
            tgt_roots = all_roots(coefficients(tgt), tgt.b, tgt.c).values()
            _match_multisets([euler_point(z) for z in tgt_roots], src_roots, 1e-8)
        # Pfaff, skipping source roots that escape to infinity under
        # target degeneration (they sit at z = 1)
        tgt = pfaff(p)
        lost = tgt.degeneration
        if lost == 0:
            tgt_roots = all_roots(coefficients(tgt), tgt.b, tgt.c).values()
            _match_multisets([pfaff_point(z) for z in src_roots], tgt_roots, 1e-8)
        else:
            keep = [z for z in src_roots if abs(z - 1) > 1e-6]
            assert len(keep) == p.n - lost
            tgt_roots = all_roots(coefficients(tgt), tgt.b, tgt.c).values()
            _match_multisets([pfaff_point(z) for z in keep], tgt_roots, 1e-8)
        # inversion
        try:
            tgt = invert(p)
        except InvalidParameterError:
            tgt = None
        if tgt is not None:
            tgt_roots = all_roots(coefficients(tgt), tgt.b, tgt.c).values()
            _match_multisets([inversion_point(z) for z in src_roots], tgt_roots, 1e-7)
        done += 1


# ---------------------------------------------------------------------------
# quadratic-class templates


def test_template_match_spec_examples():
    assert quadratic_class_match(Params(3, 2, 4)) == ["c=2b"]
    # (2, 3, 1/2) also satisfies c = -n+b-1/2 and b = n+1; every match
    # comes back, not just the first
    tags = quadratic_class_match(Params(2, 3, Fraction(1, 2)))
    assert "c=1/2" in tags
    assert set(tags) == {"c=1/2", "c=-n+b-1/2", "b=n+1"}
    assert quadratic_class_match(Params(2, -1.5, 0.7)) == ["b=-n+1/2"]


def test_every_template_detected_on_instances():
    n = 4
    b = Fraction(13, 8)
    instances = {
        "c=2b": (n, b, 2 * b),
        "c=-n-b+1": (n, b, -n - b + 1),
        "c=(-n+b+1)/2": (n, b, Fraction(-n + b + 1, 2)),
        "c=1/2": (n, b, Fraction(1, 2)),
        "b=-n+1/2": (n, Fraction(1, 2) - n, Fraction(9, 8)),
        "c=-n+b+1/2": (n, b, -n + b + Fraction(1, 2)),
        "c=3/2": (n, b, Fraction(3, 2)),
        "b=-n-1/2": (n, -n - Fraction(1, 2), Fraction(9, 8)),
        "c=-n+b-1/2": (n, b, -n + b - Fraction(1, 2)),
        "c=-2n": (n, b, -2 * n),
        "c=b+n+1": (n, b, b + n + 1),
        "b=n+1": (n, n + 1, Fraction(9, 8)),
    }
    assert set(instances) == set(QUADRATIC_TEMPLATES)
    for tag, (nn, bb, cc) in instances.items():
        assert quadratic_class_match(Params(nn, bb, cc)) == [tag], tag


def test_template_match_float_tolerance():
    # a float matches a template within core.INTEGRALITY_TOL = 1e-12, the
    # one boundary band, and not beyond it
    assert quadratic_class_match(Params(3, 2.0, 4.0 + 1e-13)) == ["c=2b"]
    assert quadratic_class_match(Params(3, 2.0, 4.0 + 1e-10)) == []
