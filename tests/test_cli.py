"""Command-line surface: formats, exit codes, parsing, sweeps."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperzero import Params, cli, core, oracle, transforms


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(argv, **streams):
    """The finished `python -m hyperzero ARGV` of a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "hyperzero", *argv], env=env,
                          text=True, timeout=60, **streams)


def _run_fresh(argv):
    """(exit code, stdout) of `python -m hyperzero ARGV` in a new interpreter."""
    proc = _fresh(argv, capture_output=True)
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------------------
# classify


def test_classify_json_example(capsys):
    code, out, _ = run(capsys, "classify", "-n", "3", "-b", "10", "-c", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n1"] == 0
    assert payload["n2"] == 3
    assert payload["n3"] == 0
    assert payload["nonreal_pairs"] == 0
    assert payload["provenance"] == "thm3.2.i"
    assert payload["mode"] == "exact"
    assert list(payload) == ["n1", "n2", "n3", "nonreal_pairs", "provenance", "mode"]


def test_classify_fraction_parameter(capsys):
    code, out, _ = run(capsys, "classify", "-n", "2", "-b", "1/2", "-c", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n1"], payload["n2"], payload["n3"]) == (0, 0, 0)
    assert payload["nonreal_pairs"] == 1
    assert payload["mode"] == "exact"


def test_classify_boundary_exit_code(capsys):
    code, _, err = run(capsys, "classify", "-n", "2", "-b", "1", "-c", "1")
    assert code == 2
    assert "boundary" in err


def test_classify_invalid_parameter_exit_code(capsys):
    code, _, err = run(capsys, "classify", "-n", "2", "-b", "1", "-c", "0")
    assert code == 1
    assert "invalid" in err


def test_classify_float_just_outside_the_band_answers(capsys):
    # c is 1.0000889e-12 from -3, outside the band Params reads it by
    code, out, err = run(capsys, "classify", "-n", "4", "-b", "0.500000000001",
                         "-c", "-2.999999999999", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["provenance"] == "reduced-via-(2.1)->thm3.2.ii(j=1)"
    assert [payload[k] for k in ("n1", "n2", "n3", "nonreal_pairs")] == [0, 1, 1, 1]


def test_classify_float_routes_to_float_mode(capsys):
    code, out, _ = run(capsys, "classify", "-n", "3", "-b", "10.0", "-c", "2.0",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["mode"] == "float"


def test_json_roundtrip_is_byte_identical(capsys):
    code, out, _ = run(capsys, "classify", "-n", "4", "-b", "-7/3", "-c", "5/2",
                       "--format", "json")
    assert code == 0
    line = out.strip()
    assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "-n", "2", "-b", "nonsense", "-c", "1")
    assert code == 1
    code, _, _ = run(capsys, "classify", "-n", "2")
    assert code == 1


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_leaves_the_parser_as_built(capsys):
    argv = ["verify", "-n", "5", "-b", "7/3", "-c", "14/3", "--format", "json"]
    want = _run_fresh(argv)
    for bad in (
        ["verify", "-n", "x", "-b", "7/3", "-c", "14/3"],
        ["verify", "-b", "7/3", "-c", "14/3", "--format", "json"],
        ["verify", "-n", "5", "-b", "7/3", "-c", "14/3", "--format", "csv"],
        ["sweep", "-n", "5", "-b", "7/3", "-c", "14/3", "--format", "json"],
    ):
        assert run(capsys, *bad)[0] == 1
        code, out, _ = run(capsys, *argv)
        assert (code, out) == want, bad


# ---------------------------------------------------------------------------
# roots


def test_roots_conjugate_pair_text(capsys):
    code, out, _ = run(capsys, "roots", "-n", "2", "-b", "1", "-c", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert any(line.startswith("1.5-0.866025") for line in lines)
    assert any(line.startswith("1.5+0.866025") for line in lines)


def test_roots_linear_text(capsys):
    code, out, _ = run(capsys, "roots", "-n", "1", "-b", "2", "-c", "3")
    assert code == 0
    assert out.strip() == "1.5"


def test_roots_quadratic_json(capsys):
    code, out, _ = run(capsys, "roots", "-n", "2", "-b", "6", "-c", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    res = sorted(r["re"] for r in payload["roots"])
    # quadratic formula: (12 -+ sqrt(60)) / 42
    assert abs(res[0] - 0.10128650732) < 1e-9
    assert abs(res[1] - 0.47014206410) < 1e-9
    assert payload["mode"] == "exact"


# ---------------------------------------------------------------------------
# verify


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "-b", "10", "-c", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_circle_case_json(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-b", "1", "-c", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["geometry"]["on_circle"] == 2


def test_verify_boundary_exit(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-b", "1", "-c", "1")
    assert code == 2
    assert "BOUNDARY" in out


def test_a_boundary_verify_exits_2_without_a_solve(capsys):
    # b = -99 lies on a line; the solve of F, of degree 99, would not converge
    code, out, err = run(capsys, "verify", "-n", "100", "-b", "-99", "-c", "-7/3")
    assert (code, err) == (2, "")
    assert out.startswith("verify n=100 b=-99 c=-7/3 [exact, exact] -> BOUNDARY\n")


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    from hyperzero import klein
    from hyperzero.core import Counts

    def wrong(p):
        return Counts(0, 0, 0, 0, p.n // 2, "thm3.1") if p.n % 2 == 0 else \
            Counts(p.n, 0, 0, 0, 0, "thm3.1")

    monkeypatch.setattr(klein, "classify_region", wrong)
    code, out, _ = run(capsys, "verify", "-n", "3", "-b", "10", "-c", "2")
    assert code == 3
    assert "FAIL" in out


def test_roots_float_run_out_is_nonconvergence(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 3)
    code, out, err = run(capsys, "roots", "-n", "20", "-b", "17.518", "-c", "7.02")
    assert code == 3
    assert out == ""
    assert err == "solver did not converge: root iteration did not settle within 3 sweeps\n"


def test_verify_range_stream(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "--b-range", "1/2:5/2:3",
                       "-c", "2", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert json.loads(line)["status"] in ("pass", "boundary")


def test_verify_range_point_whose_coefficients_overflow_is_undefined(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "--b-range=1:1e300:3",
                       "-c", "2.5", "--format", "json")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [line["status"] for line in lines] == ["pass", "undefined", "undefined"]
    assert [line["b"] for line in lines] == [1.0, 5e299, 1e300]
    assert code == 0


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_range_goes_on_past_a_point_that_does_not_converge(capsys, fmt):
    big = 10 ** 400
    code, out, err = run(capsys, "verify", "-n", "3", "--b-range", f"1:{big}:3",
                         "-c", "1/3", "--format", fmt)
    assert code == 3
    assert err.count("solver did not converge: a value overflowed the float range") == 2
    if fmt == "json":
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[1:] == [{"b": str(b), "c": "1/3", "status": "nonconvergence"}
                             for b in (Fraction(big + 1, 2), big)]
        assert lines[0]["status"] == "pass"
    else:
        assert out.splitlines()[-1] == f"verify n=3 b={big} c=1/3 -> NONCONVERGENCE"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_range_exits_3_when_a_grid_point_fails(capsys, monkeypatch, fmt):
    # the middle point's report is a mismatch; the rows after it still print
    verify = oracle.verify

    def failing_at_4_3(p):
        if p.b != Fraction(4, 3):
            return verify(p)
        wrong = (oracle.Check("count in (1,inf)", 1, 2),)
        return oracle.VerificationReport(p, "fail", None, None, wrong, ())

    monkeypatch.setattr(oracle, "verify", failing_at_4_3)
    code, out, err = run(capsys, "verify", "-n", "3", "--b-range", "1/3:7/3:3",
                         "-c", "5/2", "--format", fmt)
    assert (code, err) == (3, "")
    if fmt == "json":
        lines = [json.loads(line) for line in out.splitlines()]
        assert [(line["b"], line["status"]) for line in lines] == [
            ("1/3", "pass"), ("4/3", "fail"), ("7/3", "pass")]
    else:
        assert [line for line in out.splitlines() if line.startswith("verify")] == [
            f"verify n=3 b={b} c=5/2 [exact, exact] -> {status}"
            for b, status in (("1/3", "PASS"), ("4/3", "FAIL"), ("7/3", "PASS"))]
        assert "  [FAIL] count in (1,inf): predicted 1, observed 2" in out.splitlines()


CAP_MESSAGE = "invalid parameters: degree 101 exceeds the cap of 100\n"


@pytest.mark.parametrize("argv, expected, builds", [
    (("verify", "-n", "101", "-b", "1/3", "-c", "1/7"), (1, "", CAP_MESSAGE), 0),
    (("roots", "-n", "101", "-b", "1/3", "-c", "1/7"), (1, "", CAP_MESSAGE), 0),
    (("verify", "-n", "101", "--b-range", "1/3:2/3:2", "-c", "1/7"),
     (0, "verify n=101 b=1/3 c=1/7 -> UNDEFINED\nverify n=101 b=2/3 c=1/7 -> UNDEFINED\n", ""),
     0),
    # a degenerate F has degree 3, so it is solved
    (("roots", "-n", "1000", "-b", "-3", "-c", "1/2", "--format", "json"), None, 1),
    # identity caps n itself: b = -3 leaves F of degree 3, not its target
    (("identity", "pfaff", "-n", "101", "-b", "-3", "-c", "1/7"), (1, "", CAP_MESSAGE), 0),
    (("identity", "pfaff", "-n", "100", "-b", "1/3", "-c", "1/7"),
     (0, "pfaff: 1/1 points proved: PASS\n", ""), 2),
    (("identity", "jacobi", "-n", "101"), (1, "", CAP_MESSAGE), 0),
    (("identity", "gegenbauer", "-n", "101"), (1, "", CAP_MESSAGE), 0),
    # a float point is capped the same way, before its coefficients overflow
    (("roots", "-n", "101", "-b", "2.5", "-c", "3.5"), (1, "", CAP_MESSAGE), 0),
    (("verify", "-n", "101", "-b", "0.5", "-c", "0.25"), (1, "", CAP_MESSAGE), 0),
    (("verify", "-n", "101", "--b-range", "0.5:1.5:2", "-c", "0.25"),
     (0, "verify n=101 b=0.5 c=0.25 -> UNDEFINED\nverify n=101 b=1.5 c=0.25 -> UNDEFINED\n", ""),
     0),
    (("roots", "-n", "1000", "-b", "-3.0", "-c", "0.5", "--format", "json"), None, 1),
    # a float b 1e-13 off -3 is on it for the classifier, but F keeps degree n
    (("roots", "-n", "1000000", "-b", "-3.0000000000001", "-c", "0.5"),
     (1, "", "invalid parameters: degree 1000000 exceeds the cap of 100\n"), 0),
    (("verify", "-n", "101", "-b", "-3.0000000000001", "-c", "0.5"), (1, "", CAP_MESSAGE), 0),
])
def test_an_exact_point_above_the_solver_cap_is_refused_before_f_is_built(
        capsys, monkeypatch, argv, expected, builds):
    # every point, exact or float: an exact F costs about n^3 to build and a
    # float F has n coefficients; its degree n - degeneration (for identity,
    # n) is known first
    calls = []
    coefficients = core.coefficients
    for module in (cli, core, oracle):
        monkeypatch.setattr(module, "coefficients",
                            lambda p: calls.append(1) or coefficients(p))
    code, out, err = run(capsys, *argv)
    if expected is None:
        assert (code, err) == (0, "")
        assert json.loads(out)["effective_degree"] == 3
    else:
        assert (code, out, err) == expected
    assert len(calls) == builds


# ---------------------------------------------------------------------------
# sweep


def eval_fraction(text):
    if "/" in text:
        num, den = text.split("/")
        return int(num) / int(den)
    return float(text)


def test_sweep_counts_change_at_integer_boundaries(capsys, tmp_path):
    out_file = tmp_path / "map.csv"
    code, _, _ = run(capsys, "sweep", "-n", "3", "--b-range", "-5:8:14",
                     "-c", "2", "--margin", "1/2", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.strip().splitlines()
    assert lines[0] == "n,b,c,mode,provenance,n1,n2,n3,nonreal_pairs,status"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 14
    assert all(r[9] == "ok" for r in rows)
    counts = [(r[5], r[6], r[7]) for r in rows]
    changes = set()
    for i in range(1, len(rows)):
        if counts[i] != counts[i - 1]:
            # midpoint between two half-integer samples is the integer crossed
            left = eval_fraction(rows[i - 1][1])
            changes.add(int(left + 0.5))
    assert changes == {-2, -1, 0, 2, 3, 4}
    # window labels also change at the two count-preserving boundaries
    labels = [r[4] for r in rows]
    label_changes = {
        int(eval_fraction(rows[i - 1][1]) + 0.5)
        for i in range(1, len(rows))
        if labels[i] != labels[i - 1]
    }
    assert label_changes == {-3, -2, -1, 0, 2, 3, 4, 5}


def test_sweep_undefined_row(capsys):
    code, out, _ = run(capsys, "sweep", "-n", "2", "--b-range", "1/4:1/4:1",
                       "--c-range", "0:1:2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    undefined = [line for line in lines if line.endswith("undefined")]
    assert len(undefined) == 1
    assert undefined[0].startswith("2,1/4,0,exact,")


def test_sweep_boundary_row(capsys):
    code, out, _ = run(capsys, "sweep", "-n", "2", "--b-range", "1:1:1", "-c", "1")
    assert code == 0
    assert out.strip().splitlines()[1].endswith("boundary")


def test_sweep_empty_range_header_only(capsys):
    code, out, _ = run(capsys, "sweep", "-n", "2", "--b-range", "5:1:3", "-c", "2")
    assert code == 0
    assert out.strip() == "n,b,c,mode,provenance,n1,n2,n3,nonreal_pairs,status"


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("grid, message", [
    (("--b-range", "0:1:0", "-c", "2"), "steps must be >= 1"),
    (("--b-range", "1:2", "-c", "2"), "range must be MIN:MAX:STEPS, got '1:2'"),
    (("--b-range", "0:1:x", "-c", "2"), "steps must be an integer in '0:1:x'"),
    (("--c-range", "1:2:2"), "need -b or --b-range"),
], ids=["steps=0", "two-fields", "steps=x", "no-b"])
def test_sweep_rejects_bad_steps(capsys, command, grid, message):
    code, out, err = run(capsys, command, "-n", "2", *grid)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


def test_sweep_point_whose_difference_overflows_is_undefined(capsys):
    # b and c are finite, c - b is not
    code, out, err = run(capsys, "sweep", "-n", "3", "--b-range=1e308:1e308:1",
                         "--c-range=-1e308:-1e308:1")
    assert code == 0
    assert err == ""
    assert out.splitlines()[1:] == ["3,1e+308,-1e+308,float,,,,,,undefined"]


def test_sweep_reads_c_minus_b_by_the_float_band(capsys):
    # 0.3 - 2.3 is -1.9999999999999998, one ulp off the excluded -2
    code, out, err = run(capsys, "sweep", "-n", "3", "-b", "2.3", "-c", "0.3")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(",boundary")
    code, out, err = run(capsys, "sweep", "-n", "3", "-b", "2.3", "-c", "0.3000000001")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(",ok")


@pytest.mark.parametrize("axis, other", [("-b", "--c-range"), ("-c", "--b-range")])
def test_sweep_exact_value_beyond_the_float_range_is_undefined(capsys, axis, other):
    # a float grid whose other axis holds an exact 10**400
    code, out, err = run(capsys, "sweep", "-n", "3", axis, "1" + "0" * 400, other, "0.5:1.5:3")
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(",float,,,,,,undefined") for row in rows)


def test_sweep_range_whose_span_overflows_is_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "-n", "3", "--b-range=-1e308:1e308:3",
                         "--c-range=-1:1:3")
    assert code == 1
    assert out == ""
    assert "usage error" in err and "not finite" in err


_BEYOND_FLOATS = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("sweep", "-n", "2", f"--b-range=0.5:{_BEYOND_FLOATS}:3", "-c", "1"),
    ("sweep", "-n", "2", "--b-range=0.5:1:3", "--margin", _BEYOND_FLOATS, "-c", "1"),
    ("verify", "-n", "3", f"--b-range=-{_BEYOND_FLOATS}:1e16:3", "-c", "1/2"),
    ("verify", "-n", "3", "--b-range=0.5:1:3", "--margin", _BEYOND_FLOATS, "-c", "1/2"),
], ids=["sweep end", "sweep margin", "verify end", "verify margin"])
def test_float_range_with_an_exact_end_or_margin_beyond_floats_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "usage error: a float grid's range end or margin lies beyond the float range\n"


@pytest.mark.parametrize("where", ["missing/x.csv", "."], ids=["missing directory", "directory"])
def test_sweep_out_that_cannot_be_written_is_usage_error(capsys, tmp_path, where):
    code, out, err = run(capsys, "sweep", "-n", "3", "-b", "1/2", "-c", "2",
                         "--out", str(tmp_path / where))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: cannot write --out: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_nonpositive_margin(capsys):
    code, _, err = run(capsys, "sweep", "-n", "2", "--b-range", "0:1:2", "-c", "2",
                       "--margin", "0")
    assert code == 1
    assert "margin" in err


# ---------------------------------------------------------------------------
# identity


@pytest.mark.parametrize("which", ["pfaff", "euler", "invert", "jacobi", "gegenbauer"])
def test_identity_commands_pass(capsys, monkeypatch, which):
    monkeypatch.setenv(cli.SEED_ENV, "20240817")
    code, out, _ = run(capsys, "identity", which, "--samples", "25")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("seed", ["7", "99", "20240817"])
def test_identity_deviations_stay_graded_across_seeds(capsys, monkeypatch, seed):
    # seed 7 once tripped a hardcoded inner tolerance on the gegenbauer
    # runner; the sides are compared exactly, with no tolerance
    monkeypatch.setenv(cli.SEED_ENV, seed)
    for which in ("jacobi", "gegenbauer"):
        code, out, _ = run(capsys, "identity", which, "--samples", "50")
        assert code == 0, (which, seed, out)
        assert "PASS" in out


def test_identity_seed_reproducibility(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "99")
    _, first, _ = run(capsys, "identity", "euler", "--samples", "10", "--format", "json")
    _, second, _ = run(capsys, "identity", "euler", "--samples", "10", "--format", "json")
    assert first == second


@pytest.mark.parametrize("seed, which, n", [
    ("7", "jacobi", "11"),  # a float Horner sum lost 8 digits at Params(11, 87/8, 4)
    ("1", "jacobi", "30"),
    ("1", "gegenbauer", "30"),
])
def test_identity_proves_where_float_samples_failed(capsys, monkeypatch, seed, which, n):
    monkeypatch.setenv(cli.SEED_ENV, seed)
    code, out, _ = run(capsys, "identity", which, "-n", n, "--samples", "10")
    assert (code, out) == (0, f"{which}: 10/10 points proved: PASS\n")


def test_identity_rejects_a_malformed_seed(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "abc")
    code, out, err = run(capsys, "identity", "euler", "--samples", "2")
    assert code == 1
    assert out == ""
    assert cli.SEED_ENV in err


def test_identity_fixed_params(capsys):
    code, out, _ = run(capsys, "identity", "pfaff", "-n", "1", "-b", "3", "-c", "1")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("b, c", [
    ("1", "-1/2"), ("1.0", "-0.5"), ("1.0000000000002", "-0.4999999999999"),
], ids=["-1", "-1.0", "-1+1e-13"])
def test_identity_gegenbauer_vanishing_pochhammer_is_invalid(capsys, b, c):
    # the F point of lam = c - 1/2 = -1 (ids name lam): (2*lam)_3 = (-2)(-1)(0)
    # = 0, so the right side is undefined; a float lam within the band of -1
    # is on the edge, although its exact double is not
    code, out, err = run(capsys, "identity", "gegenbauer", "-n", "3", "-b", b, "-c", c)
    assert code == 1
    assert out == ""
    assert "invalid parameters" in err


@pytest.mark.parametrize("which, b, c", [
    ("jacobi", "9/2", "3/2"),        # alpha = c - 1 = 1/2, beta = b - c - n = 0
    ("gegenbauer", "11/3", "5/6"),   # lam = c - 1/2 = 1/3, on c = (-n+b+1)/2
    ("jacobi", "-1", "5/2"),         # read as alpha, beta it was refused: alpha + 1 = 0
])
def test_identity_reads_a_fixed_point_of_f(capsys, which, b, c):
    code, out, _ = run(capsys, "identity", which, "-n", "3", "-b", b, "-c", c)
    assert code == 0
    assert "PASS" in out


_TINY = Fraction(1, 10 ** 40)


def _shifted(fn):
    return lambda z: fn(z) + _TINY


def _scaled(fn):
    return lambda *args: fn(*args) * (1 + _TINY)


@pytest.mark.parametrize("which, module, name, perturb, b", [
    ("pfaff", transforms, "pfaff_point", _shifted, "1/3"),
    ("euler", transforms, "euler_point", _shifted, "1/3"),
    ("invert", transforms, "inversion_point", _shifted, "1/3"),
    ("jacobi", cli, "jacobi", _scaled, "1/3"),
    ("gegenbauer", cli, "gegenbauer", _scaled, "11/3"),
])
def test_identity_fails_when_a_right_side_is_off(capsys, monkeypatch, which, module, name,
                                                 perturb, b):
    # a right side 1e-40 off is not the polynomial F, and the exact proof says so
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    code, out, _ = run(capsys, "identity", which, "-n", "3", "-b", b, "-c", "5/6")
    assert (code, out) == (3, f"{which}: 0/1 points proved: FAIL\n")


@pytest.mark.parametrize("which, builds", [
    ("jacobi", 1), ("gegenbauer", 1), ("pfaff", 2), ("euler", 2), ("invert", 2),
])
def test_identity_builds_each_f_once_per_point(monkeypatch, which, builds):
    # F_p, and for pfaff, euler and invert the F of its image, not one per z;
    # the builds are counted under both names that reach core.coefficients
    calls = []
    coefficients = core.coefficients
    for module in (cli, core):
        monkeypatch.setattr(module, "coefficients",
                            lambda p: calls.append(1) or coefficients(p))
    # on the gegenbauer template, with lam = 1/3
    assert cli._proved(which, Params(12, Fraction(38, 3), Fraction(5, 6)))
    assert len(calls) == builds


def test_identity_jacobi_builds_each_binomial_list_once():
    # the two forms read three distinct lists, (n+c-1, n), (b-c, n) and
    # (-b, n), at each of the n + 1 values of z; a build per call made 52
    binomials = getattr(core._binomials, "__wrapped__", core._binomials).__code__
    builds = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is binomials:
            builds.append(frame.f_locals["alpha"])

    p = Params(12, Fraction(87, 8), Fraction(4))
    core._binomials.cache_clear()
    sys.setprofile(profile)
    try:
        assert cli._proved("jacobi", p)
    finally:
        sys.setprofile(None)
    assert sorted(builds) == sorted([12 + p.c - 1, p.b - p.c, -p.b])


def test_binomial_lists_of_equal_exact_and_float_alpha_stay_apart():
    # Fraction(1, 2) == 0.5, but one is an exact list and the other a float one
    exact = core._binomials(Fraction(1, 2), 3)
    floats = core._binomials(0.5, 3)
    assert all(type(v) is Fraction for v in exact[1:])
    assert all(type(v) is float for v in floats[1:])


def test_identity_proves_a_float_gegenbauer_point_on_its_template(capsys):
    # b is on c = (-n+b+1)/2 within the 1e-12 band, but its exact double is
    # not; the proof is made at the template point of the exact double of c
    b, c = "3.6666666666666", "0.8333333333333334"
    code, out, _ = run(capsys, "identity", "gegenbauer", "-n", "3", "-b", b, "-c", c)
    assert (code, out) == (0, "gegenbauer: 1/1 points proved: PASS\n")
    assert not cli._proved("gegenbauer", Params(3, Fraction(float(b)), Fraction(float(c))))


@pytest.mark.parametrize("which", ["jacobi", "pfaff"])
def test_identity_fixed_point_needs_n(capsys, which):
    code, out, err = run(capsys, "identity", which, "-b", "1", "-c", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and "-n" in err


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_identity_needs_at_least_one_sample(capsys, samples):
    code, out, err = run(capsys, "identity", "euler", "--samples", samples)
    assert code == 1
    assert out == ""
    assert "samples" in err


# ---------------------------------------------------------------------------
# options


@pytest.mark.parametrize("argv", [
    ("classify", "-n", "3", "-b", "1", "-c", "inf"),
    ("classify", "-n", "3", "-b", "nan", "-c", "2"),
    ("classify", "-n", "3", "-b", "1", "-c", "1e400"),
    ("verify", "-n", "3", "-b=-inf", "-c", "2"),
    ("sweep", "-n", "3", "-b", "inf", "-c", "2"),
    ("sweep", "-n", "3", "--b-range", "0:inf:3", "-c", "2"),
    ("identity", "jacobi", "-n", "3", "-b", "1", "-c", "nan"),
    # identity reads no --tol: it compares exactly
    ("identity", "euler", "--samples", "2", "--tol", "nan"),
    ("identity", "euler", "--samples", "2", "--tol", "inf"),
])
def test_non_finite_parameters_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("classify", "-n", "3", "-b", "1e308", "-c=-1e308"),  # c - b overflows
    ("verify", "-n", "3", "-b", "1e300", "-c", "2.5"),  # a float coefficient overflows
    ("roots", "-n", "3", "-b", "1e300", "-c", "2.5"),
])
def test_overflowing_float_parameters_are_invalid(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "invalid parameters" in err


@pytest.mark.parametrize("argv", [
    ("roots", "-n", "5", "-b", "0.5", "-c", "1e200", "--format", "json"),
    ("verify", "-n", "5", "-b", "0.5", "-c", "1e200"),
])
def test_underflowing_float_coefficients_are_invalid(capsys, argv):
    # F's degree-2 coefficient, about 1e-400, underflows to zero: without
    # the check roots gave one root, and verify a false nonreal-pair mismatch
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("invalid parameters: a float coefficient of "
                   "F(-5, 0.5; 1e+200; z) underflows to zero\n")


def test_verify_range_over_underflowing_points_is_undefined(capsys):
    code, out, err = run(capsys, "verify", "-n", "3", "--b-range", "0.5:1.5:3", "-c", "1e200")
    assert (code, err) == (0, "")
    assert out == "".join(f"verify n=3 b={b} c=1e+200 -> UNDEFINED\n"
                          for b in ("0.5", "1.0", "1.5"))


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["classify", "-n", "3", "-b", "7/3", "-c", "11/5"]
    _, want, _ = run(capsys, *argv)
    assert _run_fresh(argv) == (0, want)


@pytest.mark.parametrize("argv", [
    # the roots print at once, past the stream's buffer
    ["roots", "-n", "40", "-b", "7/3", "-c", "-11/5", "--format", "json"],
    # the few bytes of a classification wait for the flush at exit
    ["classify", "-n", "3", "-b", "7/3", "-c", "11/5"],
], ids=lambda argv: argv[0])
def test_a_closed_stdout_ends_in_exit_1_without_a_traceback(argv):
    # the reader of stdout is gone before the first write, as it may be
    # under `| head -c 20`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("classify", "-n", "2", "-b", "1/2", "-c", "1", "--samples", "5"),
    ("classify", "-n", "2", "-b", "1/2", "-c", "1", "--tol", "1e-6"),
    ("roots", "-n", "2", "-b", "1/2", "-c", "1", "--out", "roots.txt"),
    ("roots", "-n", "2", "-b", "1/2", "-c", "1", "--format", "csv"),
    ("verify", "-n", "2", "-b", "1/2", "-c", "1", "--format", "csv"),
    ("verify", "-n", "2", "-b", "1", "-c", "2", "--tol", "1e-6"),
    ("sweep", "-n", "2", "-b", "1/2", "-c", "1", "--format", "json"),
    ("identity", "pfaff", "--format", "csv"),
    # a scalar next to the range of the same parameter would be dropped
    ("sweep", "-n", "3", "-b", "1/2", "--b-range", "1:2:2", "-c", "1/3"),
    ("sweep", "-n", "3", "--b-range", "1:2:2", "-c", "1/3", "--c-range", "1:2:2"),
    ("verify", "-n", "3", "-b", "1/2", "--b-range", "1:2:2", "-c", "1/3"),
    ("verify", "-n", "3", "-b", "1/2", "-c", "1/3", "--c-range", "1:2:2"),
    # --margin offsets the points of a range, so it needs one
    ("verify", "-n", "2", "-b", "1/2", "-c", "1", "--margin", "1/7"),
    ("sweep", "-n", "2", "-b", "1/2", "-c", "1", "--margin", "1/7"),
    ("sweep", "-n", "2", "--b-range", "0:1:3", "-c", "1", "--margin", ""),
    # identity reads -b and -c only together, and pfaff, euler and invert
    # read -n only with them
    ("identity", "pfaff", "-n", "3", "-b", "1/2", "--samples", "3"),
    ("identity", "jacobi", "-n", "3", "-c", "1/2", "--samples", "3"),
    ("identity", "gegenbauer", "-b", "1/2", "--samples", "3"),
    ("identity", "pfaff", "-n", "3", "--samples", "3"),
    ("identity", "euler", "-n", "3", "--samples", "3"),
    ("identity", "invert", "-n", "3", "--samples", "3"),
    # identity reads a degree of at least 1, no --tol, and a gegenbauer
    # point only on the template c = (-n+b+1)/2
    ("identity", "jacobi", "-n", "-3", "--samples", "3"),
    ("identity", "gegenbauer", "-n", "-3", "--samples", "3"),
    ("identity", "gegenbauer", "-n", "0", "--samples", "3"),
    ("identity", "pfaff", "-n", "0", "-b", "1", "-c", "2"),
    ("identity", "euler", "--samples", "3", "--tol=-1e-9"),
    ("identity", "gegenbauer", "-n", "3", "-b", "1/3", "-c", "7"),
    ("identity", "gegenbauer", "-n", "3", "-b", "3.6666666666", "-c", "0.8333333333333334"),
    # identity proves a fixed point once; --samples counts random points
    ("identity", "euler", "-n", "3", "-b", "1", "-c", "2", "--samples", "3"),
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("value", ["-1e-3", "-2E+5"])
def test_negative_exponent_literal_is_an_option_value(capsys, value):
    _, want, _ = run(capsys, "classify", "-n", "3", f"-b={value}", "-c", "2")
    assert run(capsys, "classify", "-n", "3", "-b", value, "-c", "2") == (0, want, "")


@pytest.mark.parametrize("value", ["5", "5.", ".5", "5e-3", "7/3"])
def test_a_negated_literal_is_an_option_value(capsys, value):
    # a minus sign before a digit or a point starts a value, never an option
    _, want, _ = run(capsys, "classify", "-n", "3", f"-b=-{value}", "-c", "2")
    assert run(capsys, "classify", "-n", "3", "-b", f"-{value}", "-c", "2") == (0, want, "")
    _, want, _ = run(capsys, "sweep", "-n", "2", f"--b-range=-{value}:3:3", "-c", "5")
    assert run(capsys, "sweep", "-n", "2", "--b-range", f"-{value}:3:3", "-c", "5") == (0, want, "")


def test_a_malformed_negative_value_is_a_parse_error(capsys):
    assert run(capsys, "classify", "-n", "3", "-b", "-5x", "-c", "2") == \
        (1, "", "usage error: cannot parse scalar '-5x'\n")


# ---------------------------------------------------------------------------
# any argv


_INTS = st.integers(-10**6, 10**6)
_SCALARS = st.one_of(
    _INTS.map(str),
    st.tuples(_INTS, st.integers(1, 10**6)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.floats(-50, 50).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(1e306, 1.7976931348623157e308).map(repr),
    st.floats(-1.7976931348623157e308, -1e306).map(repr),
    st.sampled_from(["1e308", "-1e308", "1e400", "-0.0", "1/0", "nan", "x"]),
)
_RANGES = st.builds(lambda lo, hi, steps: f"{lo}:{hi}:{steps}",
                    _SCALARS, _SCALARS, st.integers(-1, 4))


@st.composite
def _classify_or_sweep_argv(draw):
    n = draw(st.integers(-2, 100))
    if draw(st.booleans()):
        return ["classify", f"-n={n}", f"-b={draw(_SCALARS)}", f"-c={draw(_SCALARS)}",
                "--format", draw(st.sampled_from(["json", "csv", "text"]))]
    argv = ["sweep", f"-n={n}"]
    for name in "bc":
        if draw(st.booleans()):
            argv.append(f"--{name}-range={draw(_RANGES)}")
        else:
            argv.append(f"-{name}={draw(_SCALARS)}")
    if draw(st.booleans()):
        argv.append(f"--margin={draw(_SCALARS)}")
    return argv


_BIG = st.integers(-10**400, 10**400)
_EXACT_SCALARS = st.one_of(
    _INTS.map(str),
    _BIG.map(str),
    st.tuples(_BIG, st.integers(1, 10**400)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(_INTS, st.integers(1, 10**6)).map(lambda t: f"{t[0]}/{t[1]}"),
)


@st.composite
def _verify_or_roots_argv(draw):
    scalars = draw(st.sampled_from([_EXACT_SCALARS, _SCALARS]))
    return [draw(st.sampled_from(["verify", "roots"])), f"-n={draw(st.integers(-2, 12))}",
            f"-b={draw(scalars)}", f"-c={draw(scalars)}",
            "--format", draw(st.sampled_from(["json", "text"]))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_classify_or_sweep_argv(), _verify_or_roots_argv()))
@example(["verify", "-n", "100", "-b", "101234/1000", "-c", "-7/3"])  # exact evaluation overflows
@example(["roots", "-n", "100", "-b", "101234/1000", "-c", "-7/3"])
@example(["verify", "-n", "3", "-b", "1" + "0" * 400, "-c", "1/3"])  # a coefficient overflows
@example(["roots", "-n", "3", "-b", "1" + "0" * 400, "-c", "1/3"])
@example(["roots", "-n", "1", "-b", "-1", "-c", "1" + "0" * 400])  # a leading coefficient underflows
@example(["verify", "-n", "12", "-b", "2301/37",  # c next to the pole -1
          "-c", "-100000000000000001/100000000000000000"])
def test_classify_and_sweep_end_in_a_documented_exit_code(argv):
    """Any argv ends in a documented exit code, never a traceback.

    classify and sweep answer with exit 0, 1 or 2; verify and roots may also
    exit 3, when the solver did not converge or overflowed the float range.
    """
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in ((0, 1, 2, 3) if argv[0] in ("verify", "roots") else (0, 1, 2)), argv


_IDENTITY_SCALARS = st.one_of(
    st.integers(-12, 12).map(str),
    st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.floats(-20, 20).map(repr),
    st.sampled_from(["1e300", "-1e300", "1e-300"]),
)


@st.composite
def _identity_argv(draw):
    argv = ["identity", draw(st.sampled_from(["pfaff", "euler", "invert", "jacobi", "gegenbauer"]))]
    n = draw(st.none() | st.integers(-2, 12))
    if n is not None:
        argv.append(f"-n={n}")
    if draw(st.booleans()):  # a fixed point
        argv += [f"-b={draw(_IDENTITY_SCALARS)}", f"-c={draw(_IDENTITY_SCALARS)}"]
    else:
        argv.append(f"--samples={draw(st.integers(1, 3))}")
    return argv


@settings(max_examples=300, deadline=None)
@given(_identity_argv())
@example(["identity", "jacobi", "-n=-3"])  # once drew forever
@example(["identity", "gegenbauer", "-n=0"])  # once drew a random degree
@example(["identity", "euler", "--tol=nan"])  # an option identity does not read
def test_identity_ends_in_a_documented_exit_code(argv):
    """identity answers any degree and point with exit 0 or 1.

    Exit 3 would be a failed proof, and the identities hold at every valid
    point.
    """
    with patch.dict(os.environ, {cli.SEED_ENV: "1"}), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1), argv
