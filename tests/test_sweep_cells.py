"""The lattice-cell claim behind sweep: one classification per window cell.

The counts and provenance of classify_region are constant on each open
cell of the lines {b in Z}, {c in Z} and {c - b in Z}
(klein.classify_cell states the argument), and on each piece of those
lines that one triple of cell codes names.  These tests check the claim
on every cell of a box and on points of the lines, check one point of
every cell against the exact Sturm count, check that float points away
from the lines agree with the exact cell, check that a code beyond
klein.code_window classifies as the window's edge, and check sweep's
output against a plain per-point loop and its classifier calls against
the code triples clamped into that window, and that a row is undefined
exactly where Params rejects its c.  They also check the grid
builder against the plain formula of a range, that a reduced cell's
record, permuted and not rebuilt, is the one the accounting check builds,
that each reduction is its own inverse on codes and on values, and
classify_cell and each reduction on every window cell against the count
read from the contiguous relation (tests/contiguous.py).
"""

import contextlib
import functools
import io
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperzero import Params, classify_region, cli, coefficients, klein, sturm_counts, transforms
from hyperzero.core import (
    BoundaryParameterError,
    InvalidParameterError,
    cell_code,
    excluded_code,
)

from conftest import random_params
from contiguous import contiguous_counts


def _cells(n):
    """Every open cell (floor b, floor c, floor(c - b)) in |b|, |c| <= 2n + 2."""
    r = 2 * n + 2
    for fb in range(-r, r):
        for fc in range(-r, r):
            # c - b = fc - fb + (frac c - frac b): the two triangles of the square
            for fcb in (fc - fb - 1, fc - fb):
                yield fb, fc, fcb


def _point_in(rng, cell, den_hi=97):
    """A random exact point of the open cell."""
    fb, fc, fcb = cell
    den = rng.randint(3, den_hi)
    lo, hi = sorted(rng.sample(range(1, den), 2))
    lo, hi = Fraction(lo, den), Fraction(hi, den)
    # frac c > frac b exactly when floor(c - b) = floor c - floor b
    beta, gamma = (lo, hi) if fcb == fc - fb else (hi, lo)
    return fb + beta, fc + gamma


def _centre(cell):
    fb, fc, fcb = cell
    if fcb == fc - fb:
        return fb + Fraction(1, 3), fc + Fraction(2, 3)
    return fb + Fraction(2, 3), fc + Fraction(1, 3)


def _cell_of(b, c):
    return math.floor(b), math.floor(c), math.floor(c - b)


def _outcome(n, b, c):
    try:
        return classify_region(Params(n, b, c))
    except (BoundaryParameterError, InvalidParameterError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("n", range(1, 7))
def test_every_cell_in_the_box_gives_one_answer(n):
    rng = random.Random(n)
    for cell in _cells(n):
        points = [_point_in(rng, cell) for _ in range(3)]
        assert all(_cell_of(b, c) == cell for b, c in points)
        answers = [classify_region(Params(n, b, c)) for b, c in points]
        assert answers[0] == answers[1] == answers[2], (n, cell, points)


def _code_triple(p):
    return cell_code(p.b), cell_code(p.c), cell_code(p.c - p.b)


@pytest.mark.parametrize("n", range(1, 5))
def test_points_sharing_a_code_triple_give_one_answer(n):
    # small denominators and c - b drawn as an integer put many points on
    # the lines; floats 1e-13 off an integer share its code
    rng = random.Random(200 + n)
    r = 2 * n + 2
    answers = {}
    for _ in range(6000):
        den = rng.choice((1, 1, 2, 3, 4, 6))
        b = Fraction(rng.randint(-r * den, r * den), den)
        if rng.random() < 0.3:
            c = b + rng.randint(-2 * r, 2 * r)
        else:
            c = Fraction(rng.randint(-r * den, r * den), den)
        if rng.random() < 0.2:
            b, c = float(b) + rng.choice((-1e-13, 1e-13)), float(c)
        try:
            p = Params(n, b, c)
        except InvalidParameterError:
            continue
        answers.setdefault(_code_triple(p), set()).add(_outcome(n, b, c))
    shared = [outs for outs in answers.values() if len(outs) > 1]
    assert not shared, shared[:3]
    assert sum(1 for t in answers if any(code % 2 == 0 for code in t)) > 100


@pytest.mark.parametrize("n", range(1, 7))
def test_every_cell_in_the_box_agrees_with_the_sturm_count(n):
    # the counts are constant on each cell, so one point per cell checks
    # the whole box off the lines against the exact oracle
    for cell in _cells(n):
        p = Params(n, *_centre(cell))
        observed = sturm_counts(coefficients(p))
        assert observed.mult_at_1 == 0, (n, cell)
        assert classify_region(p).counts == observed.counts, (n, cell)


@pytest.mark.parametrize("n", range(1, 7))
def test_float_points_off_the_lines_agree_with_the_exact_cell(n):
    rng = random.Random(100 + n)
    r = 2 * n + 2
    checked = 0
    while checked < 400:
        # some coordinates land 1e-11 from a line, outside the 1e-12 band
        b, c = (rng.choice((rng.uniform(-r, r),
                            rng.randint(-r, r) + rng.choice((-1e-11, 1e-11))))
                for _ in range(2))
        eb, ec = Fraction(b), Fraction(c)
        if min(abs(v - round(v)) for v in (eb, ec, ec - eb)) < Fraction(1, 10**11) / 2:
            continue
        cell = _cell_of(eb, ec)
        assert _outcome(n, b, c) == _outcome(n, *_centre(cell)), (n, b, c)
        checked += 1


def _reference_sweep(argv):
    """sweep's output computed the plain way: Params and the classifier per point."""
    args = cli.build_parser().parse_args(list(argv))
    lines = [cli.SWEEP_COLUMNS]
    bs, cs = cli._axes(args)
    for b, c in [(b, c) for c in cs for b in bs]:
        head = f"{args.n},{cli.format_scalar(b)},{cli.format_scalar(c)}"
        try:
            p = Params(args.n, b, c)
        except InvalidParameterError:
            mode = "exact" if isinstance(b, Fraction) and isinstance(c, Fraction) else "float"
            lines.append(f"{head},{mode},,,,,,undefined")
            continue
        try:
            pred = classify_region(p)
        except BoundaryParameterError:
            lines.append(f"{head},{p.mode},,,,,,boundary")
            continue
        lines.append(f"{head},{p.mode},{pred.provenance},{pred.n1},{pred.n2},{pred.n3},"
                     f"{pred.nonreal_pairs},ok")
    return "\n".join(lines) + "\n"


def _sweep(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def _random_grid(rng):
    n = rng.randint(1, 8)
    exact = rng.random() < 0.5

    def end():
        if exact:
            return f"{rng.randint(-40, 40)}/{rng.choice((1, 2, 3, 4, 6))}"
        return repr(rng.randint(-40, 40) / 4)

    argv = ["sweep", "-n", str(n)]
    for axis in ("b", "c"):
        lo, hi = sorted((end(), end()), key=lambda t: Fraction(t))
        argv.append(f"--{axis}-range={lo}:{hi}:{rng.randint(1, 30)}")
    margin = rng.choice((None, "1e-12", "1e-13", "2e-12", "1/7", "0.013",
                         "1/1000000000000", "1/10000000000000"))
    if margin is not None:
        argv += ["--margin", margin]
    return argv


FIXED_GRIDS = [
    # points 1e-12 and 1e-13 from the lines, at both signs of the offset
    ["sweep", "-n", "4", "--b-range=-6.0:6.0:25", "--c-range=-6.0:6.0:25", "--margin", "1e-12"],
    ["sweep", "-n", "4", "--b-range=-6.0:6.0:25", "--c-range=-6.0:6.0:25", "--margin", "1e-13"],
    ["sweep", "-n", "4", "--b-range=-6.000000000001:6.0:25", "--c-range=-6.0:6.0:49"],
    # exact values next to the lines
    ["sweep", "-n", "5", "--b-range=-6:6:25", "--c-range=-6:6:25",
     "--margin", "1/1000000000000"],
    # mixed: exact b, float c
    ["sweep", "-n", "3", "--b-range=-5:5:21", "--c-range=-5.0:5.0:21", "--margin", "1/3"],
    # large magnitudes, where a float's ulps approach the 1e-12 band
    ["sweep", "-n", "6", "--b-range=99990.0:100010.0:41", "--c-range=-20.5:20.5:41",
     "--margin", "1e-11"],
    ["sweep", "-n", "6", "--b-range=1e14:1.00000000000002e14:21", "--c-range=-3.0:3.0:13",
     "--margin", "0.25"],
    # every point undefined: no valid degree
    ["sweep", "-n", "0", "--b-range=-1:1:3", "--c-range=-1.0:1.0:3"],
    # the sweep-grid benchmark's dense and decimal shapes, smaller
    ["sweep", "-n", "8", "--b-range=-8:8:47", "--c-range=-8:8:45", "--margin", "2/13"],
    ["sweep", "-n", "8", "--b-range=-8.0:8.0:51", "--c-range=-8.0:8.0:47", "--margin", "0.437"],
    # boxes far past the code window on both sides, for b, c and c - b
    ["sweep", "-n", "3", "--b-range=-40:40:81", "--c-range=-40:40:79", "--margin", "1/7"],
    ["sweep", "-n", "3", "--b-range=-40.0:40.0:81", "--c-range=-40.0:40.0:79",
     "--margin", "0.143"],
]


@pytest.mark.parametrize("argv", FIXED_GRIDS, ids=" ".join)
def test_sweep_equals_the_per_point_loop(argv):
    assert _sweep(argv) == _reference_sweep(argv)


def test_sweep_equals_the_per_point_loop_on_random_grids():
    rng = random.Random(20240817)
    for _ in range(40):
        argv = _random_grid(rng)
        assert _sweep(argv) == _reference_sweep(argv), argv


def _clamped(n, codes):
    lo, hi = klein.code_window(n)
    return tuple(min(max(code, lo), hi) for code in codes)


@pytest.mark.parametrize("argv", [FIXED_GRIDS[3], FIXED_GRIDS[1], FIXED_GRIDS[4], FIXED_GRIDS[8]],
                         ids=" ".join)
def test_sweep_classifies_once_per_code_triple_and_builds_no_params_per_point(
        monkeypatch, argv):
    # once per triple of codes clamped into klein.code_window: a grid wider
    # than the window has fewer of those than of raw code triples
    args = cli.build_parser().parse_args(argv)
    bs, cs = cli._axes(args)
    triples = set()
    for b, c in [(b, c) for c in cs for b in bs]:
        try:
            triples.add(_code_triple(Params(args.n, b, c)))
        except InvalidParameterError:
            pass
    classified, built = [], []
    classify_cell, params = klein.classify_cell, cli.Params
    depth = [0]

    def counted_classify(n, *codes):
        # only sweep's own calls: a reduced cell re-enters classify_cell
        if not depth[0]:
            classified.append(codes)
        depth[0] += 1
        try:
            return classify_cell(n, *codes)
        finally:
            depth[0] -= 1

    def counted_params(*a):
        built.append(a)
        return params(*a)

    monkeypatch.setattr(klein, "classify_cell", counted_classify)
    monkeypatch.setattr(cli, "Params", counted_params)
    _sweep(argv)
    assert sorted(classified) == sorted({_clamped(args.n, t) for t in triples})
    assert len(classified) < len(triples)
    assert built == []  # each row's checks of n and c read its code of c


@st.composite
def _one_row(draw):
    """n, whether the b axis is float, and a value of c for a one-row sweep:
    exact, float, on an excluded integer, within 3e-13 of one or 2e-12 and
    more outside it, or exact beyond the float range beside float b."""
    n = draw(st.integers(-1, 6))
    float_b = draw(st.booleans())
    k = draw(st.integers(0, 7))  # -k is excluded for k < n
    kind = draw(st.sampled_from(("exact", "float", "excluded", "near", "off", "huge")))
    if kind == "exact":
        c = draw(st.fractions(-20, 20, max_denominator=12))
    elif kind == "float":
        c = draw(st.floats(allow_nan=False, allow_infinity=False))
    elif kind == "excluded":
        c = draw(st.sampled_from((Fraction(-k), float(-k))))
    elif kind == "near":
        c = -k + draw(st.floats(-3e-13, 3e-13))
    elif kind == "off":
        c = -k + draw(st.sampled_from((-1, 1))) * draw(st.floats(2e-12, 1e-3))
    else:
        c, float_b = Fraction(10 ** 400), True
    return n, float_b, c


@settings(max_examples=300, deadline=None)
@given(_one_row())
@example((3, False, Fraction(-2)))
@example((3, True, -2 + 3e-13))
@example((3, True, -2 - 2e-12))
@example((3, True, Fraction(10 ** 400)))
@example((3, False, Fraction(10 ** 400)))
@example((0, False, Fraction(1, 2)))
@example((-1, True, 0.5))
def test_a_row_is_undefined_exactly_where_params_rejects_its_c(case):
    # the row's b are 0, 1/2 and 1: where Params accepts c, each c - b is
    # finite too, so no point of the row is undefined
    n, float_b, c = case
    text = repr(c) if isinstance(c, float) else str(c)
    b_range = "0.0:1.0:3" if float_b else "0:1:3"
    out = _sweep(["sweep", f"-n={n}", f"--b-range={b_range}", f"-c={text}"])
    statuses = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    try:
        Params(n, 0.0 if float_b else Fraction(0), c)
    except InvalidParameterError:
        assert statuses == ["undefined"] * 3, case
    else:
        assert "undefined" not in statuses and len(statuses) == 3, case


def _realizable_triples(n):
    """The code triples of every b, c in thirds of [-2n-3, 2n+3] with c valid.

    Thirds put points on the lines of b, c and c - b and in both triangles
    of every unit square; the box reaches past code_window on both sides
    for b, c and c - b, by more than its width for each.
    """
    r = 3 * (2 * n + 3)
    codes = [cell_code(Fraction(k, 3)) for k in range(-r, r + 1)]
    triples = set()
    for kc, code_c in zip(range(-r, r + 1), codes):
        if excluded_code(code_c, n):
            continue
        for kb, code_b in zip(range(-r, r + 1), codes):
            triples.add((code_b, code_c, cell_code(Fraction(kc - kb, 3))))
    return triples


def _cell_answer(n, codes):
    try:
        return klein.classify_cell(n, *codes)
    except BoundaryParameterError as exc:
        return exc.args


@pytest.mark.parametrize("n", range(1, 9))
def test_a_code_beyond_the_window_classifies_as_the_windows_edge(n):
    lo, hi = klein.code_window(n)
    triples = _realizable_triples(n)
    width = hi - lo
    assert min(map(min, triples)) < lo - width and max(map(max, triples)) > hi + width
    moved = 0
    for codes in triples:
        clamped = _clamped(n, codes)
        if clamped != codes:
            moved += 1
            assert _cell_answer(n, codes) == _cell_answer(n, clamped), (n, codes)
    assert moved > len(triples) // 2


@functools.lru_cache(maxsize=None)
def _window_cells(n):
    """The realizable code triples of n clamped into code_window: every cell
    classify_cell tells apart, and each one that a point of the plane has."""
    return frozenset(_clamped(n, codes) for codes in _realizable_triples(n))


def _contiguous_or_boundary(n, codes):
    try:
        return contiguous_counts(n, *codes)
    except ValueError:  # b or c - b on a line
        return None


@pytest.mark.parametrize("n", range(1, 17))
def test_classify_cell_is_the_contiguous_sturm_count_on_every_window_cell(n):
    # classify_cell reads only the clamped codes, so this certifies it on
    # the whole plane at degree n, against a derivation that never reads
    # the count formulas or the coefficients of F
    checked = 0
    for codes in _window_cells(n):
        want = _contiguous_or_boundary(n, codes)
        if want is None:
            with pytest.raises(BoundaryParameterError):
                klein.classify_cell(n, *codes)
        else:
            assert klein.classify_cell(n, *codes).counts == want, (n, codes)
            checked += 1
    assert checked >= 28


@pytest.mark.parametrize("n", range(1, 17))
def test_each_reduction_carries_the_contiguous_sturm_count(n):
    # the counts of a cell's image under a map, swapped back, are the cell's;
    # contiguous_counts reads each code only through the signs of code + 2j,
    # j < n, which the clamp keeps and which each map's X -> 2(1-n) - X
    # carries over, so a clamped cell stands for every point of its cell
    for codes in _window_cells(n):
        want = _contiguous_or_boundary(n, codes)
        if want is None:
            continue
        for name, r in transforms.REDUCTIONS.items():
            got = list(contiguous_counts(n, *r.codes(n, *codes)))
            i, j = r.swap
            got[i], got[j] = got[j], got[i]
            assert tuple(got) == want, (n, codes, name)


# the identity that checks each map's target, with -n -b -c whose image has c' = -2
_TARGET_CHECKS = {"euler_reflect": ("euler", "3", "1", "1"), "invert": ("invert", "3", "0", "1/2")}


@pytest.mark.parametrize("name", sorted(transforms.REDUCTIONS))
def test_each_reduction_is_one_involution_on_codes_and_on_values(capsys, name):
    # REDUCTIONS states each map once, as its image of (b, c, c - b); read
    # on codes and on values it is its own inverse
    r = transforms.REDUCTIONS[name]
    for n in range(1, 9):
        for codes in _realizable_triples(n):
            assert r.codes(n, *r.codes(n, *codes)) == codes, (n, codes)
    value_map = getattr(transforms, name)
    rng = random.Random(39)
    mapped = 0
    for _ in range(300):
        p = random_params(rng, n_hi=10, den=rng.choice((1, 2, 8)))
        try:
            image = value_map(p)
        except InvalidParameterError:
            continue
        twice = value_map(image)
        assert (twice.n, twice.b, twice.c) == (p.n, p.b, p.c), (name, p)
        mapped += 1
    assert mapped > 200
    if name in _TARGET_CHECKS:
        which, n, b, c = _TARGET_CHECKS[name]
        assert cli.main(["identity", which, "-n", n, "-b", b, "-c", c]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"invalid parameters: {name} target c'=-2 lies in the "
                                "excluded set for n=3\n")


def test_the_contiguous_sturm_count_is_the_sturm_count_of_f():
    # the helper itself, against the exact Sturm chain of F on random points
    rng = random.Random(33)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        b = Fraction(rng.randint(-90, 90), rng.choice((1, 2, 3, 7)))
        c = Fraction(rng.randint(-90, 90), rng.choice((1, 2, 5, 12)))
        try:
            p = Params(n, b, c)
        except InvalidParameterError:
            continue
        want = _contiguous_or_boundary(n, (cell_code(b), cell_code(c), cell_code(c - b)))
        if want is not None:
            assert want == sturm_counts(coefficients(p)).counts, p
            checked += 1
    assert checked > 200


def _plain_axis(lo, hi, steps, margin):
    """An axis the plain way: lo + (hi - lo) k / (steps - 1) + margin."""
    if lo > hi:
        return []
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) + margin for k in range(steps)]


def _random_exact(rng):
    return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 5, 6, 7, 12, 35)))


def test_axes_equal_the_plain_formula_on_random_ranges():
    # _reference_sweep reads its grid from _axes, so this pins the grid itself
    rng = random.Random(32)
    kinds = {"empty": 0, "flat": 0, "one step": 0, "float margin": 0}
    for _ in range(600):
        lo, hi = _random_exact(rng), _random_exact(rng)
        if rng.random() < 0.1:
            hi = lo  # lo == hi, steps copies of lo + margin
        steps = rng.choice((1, 2, 3, rng.randint(4, 40)))
        margin = rng.choice((None, None, Fraction(rng.randint(1, 9), rng.randint(1, 40)),
                             rng.choice((1e-12, 0.013, 0.25))))
        axis = rng.choice("bc")
        argv = ["sweep", "-n", "3", f"--{axis}-range={lo}:{hi}:{steps}",
                f"-{'c' if axis == 'b' else 'b'}", "1/2"]
        if margin is not None:
            argv += ["--margin", str(margin) if isinstance(margin, Fraction) else repr(margin)]
        bs, cs = cli._axes(cli.build_parser().parse_args(argv))
        got = bs if axis == "b" else cs
        expected = _plain_axis(lo, hi, steps, Fraction(0) if margin is None else margin)
        assert got == expected, argv
        assert [type(v) for v in got] == [type(v) for v in expected], argv
        kinds["empty"] += lo > hi
        kinds["flat"] += lo == hi and steps > 1
        kinds["one step"] += lo <= hi and steps == 1
        kinds["float margin"] += lo < hi and steps > 1 and isinstance(margin, float)
    assert min(kinds.values()) >= 10, kinds


def _recorded_reductions(monkeypatch, n):
    """Every _reduced call classify_cell makes on the realizable triples of n,
    those of its re-entered calls too, as (codes, map name, record)."""
    calls = []
    reduced = klein._reduced

    def recording(n, codes, name):
        got = reduced(n, codes, name)
        calls.append((codes, name, got))
        return got

    with monkeypatch.context() as m:
        m.setattr(klein, "_reduced", recording)
        for codes in _realizable_triples(n):
            _cell_answer(n, codes)
    return calls


@pytest.mark.parametrize("n", range(1, 9))
def test_a_reduced_record_is_the_checked_record_of_its_swapped_counts(monkeypatch, n):
    # _reduced permutes the record classify_cell built for the image and
    # does not rebuild it; the rebuilt one, with the accounting check, must
    # be the same record
    names = {r.tag: name for name, r in transforms.REDUCTIONS.items()}
    chains = set()
    for codes, name, got in _recorded_reductions(monkeypatch, n):
        r = transforms.REDUCTIONS[name]
        sub = klein.classify_cell(n, *r.codes(n, *codes))
        counts = list(sub.counts)
        i, j = r.swap
        counts[i], counts[j] = counts[j], counts[i]
        assert got == klein._prediction(n, *counts, f"reduced-via-{r.tag}->{sub.provenance}"), \
            (n, codes, name)
        # the map, then those that reduced the image's record again
        chains.add((name,) + tuple(names[t] for t in re.findall(r"reduced-via-(.*?)->",
                                                                 sub.provenance)))
    # at n = 1 the window 1 - n < b < 0 that the Pfaff reductions start from is empty
    expected = {("euler_reflect",), ("invert",)}
    if n > 1:
        expected |= {("pfaff",), ("euler_reflect", "pfaff")}
    assert chains == expected
