"""Command-line front end: classify, roots, verify, sweep, identity.

Parameters written as fractions ("7/3") or integers are parsed exactly and
routed through the exact arithmetic path; decimals route to float mode.
Exit codes: 0 success, 1 usage or invalid parameter, or a stdout whose
reader closed it early (a broken pipe, as under `| head`), 2 theorem
boundary, 3 oracle mismatch, an identity whose exact proof failed, or solver
did not converge (then stdout is empty and stderr reads "solver did not
converge").
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import klein, oracle, transforms
from .core import (
    BoundaryParameterError,
    Counts,
    InvalidParameterError,
    NonConvergenceError,
    Params,
    Scalar,
    coefficients,
    evaluate,
    excluded_code,
    float_codes,
    float_or_inf,
    gegenbauer,
    gegenbauer_point,
    jacobi,
    pochhammer,
    ratio_codes,
    side,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUNDARY = 2
EXIT_MISMATCH = 3

SEED_ENV = "HYPERZERO_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A minus sign before a digit or a point starts a value: a negative
        # rational like -3/2, a decimal like -5. or -1e-3, or a range like
        # -5:8:14, never an option name.  parse_scalar validates it.
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise UsageError(message)


def parse_scalar(text: str) -> Scalar:
    """Exact Fraction for "p/q" and integer literals, finite float for decimals."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {text!r}: {exc}") from None
    try:
        return Fraction(int(text))
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"cannot parse scalar {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"scalar {text!r} is not finite")
    return value


def format_scalar(v: Scalar) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return repr(v)


def format_complex(z: complex) -> str:
    head = f"{z.real:.10g}"
    if z.imag == 0:
        return head
    sign = "+" if z.imag >= 0 else "-"
    return f"{head}{sign}{abs(z.imag):.10g}i"


def _params_from(args) -> Params:
    if args.b is None or args.c is None:
        raise UsageError("this command needs -b and -c")
    return Params(args.n, parse_scalar(args.b), parse_scalar(args.c))


def _jsonify_scalar(v: Scalar):
    return str(v) if isinstance(v, Fraction) else v


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _rng() -> random.Random:
    seed = os.environ.get(SEED_ENV)
    if seed is None:
        return random.Random()
    try:
        return random.Random(int(seed))
    except ValueError:
        raise UsageError(f"{SEED_ENV} must be an integer, got {seed!r}") from None


# ---------------------------------------------------------------------------
# classify


def _prediction_dict(pred: Counts, mode: str) -> dict:
    return {
        "n1": pred.n1,
        "n2": pred.n2,
        "n3": pred.n3,
        "nonreal_pairs": pred.nonreal_pairs,
        "provenance": pred.provenance,
        "mode": mode,
    }


SWEEP_COLUMNS = "n,b,c,mode,provenance,n1,n2,n3,nonreal_pairs,status"


def _sweep_tail(mode, pred, status) -> str:
    """The columns of a sweep row after n, b and c."""
    if pred is None:
        return f"{mode},,,,,,{status}"
    return (
        f"{mode},{pred.provenance},"
        f"{pred.n1},{pred.n2},{pred.n3},{pred.nonreal_pairs},{status}"
    )


def cmd_classify(args) -> int:
    p = _params_from(args)
    pred = klein.classify_region(p)
    if args.format == "json":
        print(_dumps(_prediction_dict(pred, p.mode)))
    elif args.format == "csv":
        print(SWEEP_COLUMNS)
        row = _sweep_tail(p.mode, pred, "ok")
        print(f"{p.n},{format_scalar(p.b)},{format_scalar(p.c)},{row}")
    else:
        print(f"n1 (1,inf)     {pred.n1}")
        print(f"n2 (0,1)       {pred.n2}")
        print(f"n3 (-inf,0)    {pred.n3}")
        print(f"nonreal pairs  {pred.nonreal_pairs}")
        print(f"provenance     {pred.provenance}")
        print(f"mode           {p.mode}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# roots


def cmd_roots(args) -> int:
    p = _params_from(args)
    oracle.check_degree(p.n - p.degeneration)
    q = coefficients(p)
    rs = oracle.all_roots(q, p.b, p.c)
    if args.format == "json":
        payload = {
            "mode": p.mode,
            "effective_degree": q.effective_degree,
            "iterations": rs.iterations,
            "roots": [
                {
                    "re": r.value.real,
                    "im": r.value.imag,
                    "multiplicity": r.multiplicity,
                    "residual": r.residual,
                }
                for r in rs.roots
            ],
        }
        print(_dumps(payload))
    else:
        for r in rs.roots:
            suffix = f"  (multiplicity {r.multiplicity})" if r.multiplicity > 1 else ""
            print(f"{format_complex(r.value)}{suffix}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _report_dict(rep: oracle.VerificationReport) -> dict:
    p = rep.params
    out = {
        "n": p.n,
        "b": _jsonify_scalar(p.b),
        "c": _jsonify_scalar(p.c),
        "mode": rep.mode,
        "confidence": rep.confidence,
        "status": rep.status,
        "prediction": _prediction_dict(rep.prediction, rep.mode) if rep.prediction else None,
        "checks": [
            {"name": c.name, "predicted": c.predicted, "observed": c.observed, "ok": c.ok}
            for c in rep.checks
        ],
        "notes": list(rep.notes),
    }
    if rep.geometry_prediction is not None:
        g = rep.geometry_prediction
        out["geometry"] = {
            "on_circle": g.on_circle,
            "real_gt1": g.real_gt1,
            "real_in01": g.real_in01,
            "real_neg": g.real_neg,
            "quadrant_pairs": g.quadrant_pairs,
            "nonreal_pairs": g.nonreal_pairs,
            "provenance": g.provenance,
        }
    return out


def _print_report(rep: oracle.VerificationReport, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(_report_dict(rep)))
        return
    p = rep.params
    print(
        f"verify n={p.n} b={format_scalar(p.b)} c={format_scalar(p.c)} "
        f"[{rep.mode}, {rep.confidence}] -> {rep.status.upper()}"
    )
    if rep.prediction is not None:
        pr = rep.prediction
        print(
            f"  predicted counts: ({pr.n1},{pr.n2},{pr.n3}) "
            f"pairs={pr.nonreal_pairs} via {pr.provenance}"
        )
    if rep.geometry_prediction is not None:
        print(f"  geometry via {rep.geometry_prediction.provenance}")
    for c in rep.checks:
        mark = "ok " if c.ok else "FAIL"
        print(f"  [{mark}] {c.name}: predicted {c.predicted}, observed {c.observed}")
    for note in rep.notes:
        print(f"  note: {note}")


def _verify_exit(status: str) -> int:
    if status == "fail":
        return EXIT_MISMATCH
    if status == "boundary":
        return EXIT_BOUNDARY
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.b_range or args.c_range or args.margin is not None:
        return _verify_sweep(args)
    p = _params_from(args)
    rep = oracle.verify(p)
    _print_report(rep, args.format)
    return _verify_exit(rep.status)


def _verify_sweep(args) -> int:
    """verify at every grid point, one row each.

    A point that is undefined, or whose solve does not converge, gets a
    short row with that status; the solver's message goes to stderr, the
    sweep goes on, and it exits 3 at the end.
    """
    bs, cs = _axes(args)
    worst = EXIT_OK
    for c in cs:
        for b in bs:
            try:
                # a point whose float coefficients overflow or underflow
                # to zero is as undefined as one that Params rejects
                rep = oracle.verify(Params(args.n, b, c))
            except InvalidParameterError:
                status = "undefined"
            except NonConvergenceError as exc:
                print(f"solver did not converge: {exc}", file=sys.stderr)
                status = "nonconvergence"
                worst = EXIT_MISMATCH
            else:
                _print_report(rep, args.format)
                if rep.status == "fail":
                    worst = EXIT_MISMATCH
                continue
            line = {"b": _jsonify_scalar(b), "c": _jsonify_scalar(c), "status": status}
            print(_dumps(line) if args.format == "json" else
                  f"verify n={args.n} b={format_scalar(b)} c={format_scalar(c)} -> {status.upper()}")
    return worst


# ---------------------------------------------------------------------------
# sweep


def _parse_range(text: str) -> Tuple[Scalar, Scalar, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be MIN:MAX:STEPS, got {text!r}")
    lo, hi = parse_scalar(parts[0]), parse_scalar(parts[1])
    try:
        steps = int(parts[2])
    except ValueError:
        raise UsageError(f"steps must be an integer in {text!r}") from None
    return lo, hi, steps


def _axes(args) -> Tuple[List[Scalar], List[Scalar]]:
    """The b values and the c values of a (b, c) grid, each list of one type.

    An axis is a MIN:MAX:STEPS range, stepped exactly when its endpoints
    are rational, or a pinned -b or -c, which is a one-step range.  A range
    whose endpoints and margin are all exact is stepped in integers, as one
    progression of numerators over L (STEPS - 1), where L is the least
    common denominator of the three; each value is reduced once.  The
    margin is a rational offset added to every point of a range of more
    than one step, to land strictly inside theorem windows; when supplied
    it must be positive, and a range must be given.  A float value that is
    not finite (the span of a range overflowed), and an exact end or margin
    of a float range beyond the float range, are usage errors.  The grid
    is row-ordered: c outer, b inner.
    """
    for name in "bc":
        if getattr(args, name) is not None and getattr(args, f"{name}_range"):
            raise UsageError(f"give -{name} or --{name}-range, not both")
    ranges = []
    for name in "bc":
        if getattr(args, f"{name}_range"):
            ranges.append(_parse_range(getattr(args, f"{name}_range")))
        elif getattr(args, name) is not None:
            v = parse_scalar(getattr(args, name))
            ranges.append((v, v, 1))
        else:
            raise UsageError(f"need -{name} or --{name}-range")
    if args.margin is not None and not (args.b_range or args.c_range):
        raise UsageError("--margin offsets the points of a range; give --b-range or --c-range")
    margin = Fraction(0) if args.margin is None else parse_scalar(args.margin)
    if any(steps < 1 for _, _, steps in ranges):
        raise UsageError("steps must be >= 1")
    if args.margin is not None and not margin > 0:
        raise UsageError("margin must be > 0")
    axes = []
    for lo, hi, steps in ranges:
        if lo > hi:
            axes.append([])
        elif steps == 1:
            # a single-step range is a pinned value; the boundary-avoidance
            # offset only makes sense for generated grids
            axes.append([lo])
        elif all(isinstance(v, Fraction) for v in (lo, hi, margin)):
            # lo + (hi - lo) k / (steps - 1) + margin over one denominator,
            # so each value costs one gcd and not three Fraction operations
            den = math.lcm(lo.denominator, hi.denominator, margin.denominator)
            a, h, m = (v.numerator * (den // v.denominator) for v in (lo, hi, margin))
            s = steps - 1
            axes.append([Fraction((a + m) * s + (h - a) * k, den * s) for k in range(steps)])
        else:
            try:
                span = hi - lo
                axes.append([lo + span * k / (steps - 1) + margin for k in range(steps)])
            except OverflowError:  # an exact end or margin that no float holds
                raise UsageError("a float grid's range end or margin lies beyond "
                                 "the float range") from None
    bs, cs = axes
    for v in bs + cs:
        if isinstance(v, float) and not math.isfinite(v):
            raise UsageError(f"grid value {v} is not finite: a range span overflows")
    return bs, cs


def cmd_sweep(args) -> int:
    """The grid's rows, one classification per distinct window cell.

    klein.classify_cell reads only the cell codes of (b, c, c - b), and
    tells apart only those of klein.code_window, so each code is clamped
    into it and the memo is keyed on the clamped triple.  One code rule
    gives the axis codes and each row's codes of c - b, in one list pass:
    core.ratio_codes over one common denominator on an exact grid, else
    core.float_codes of the floats Params would hold, with a signed inf for
    an exact value too large for a float, so a point where b or c - b is not
    finite has no code and is undefined.  A row is undefined when n < 1
    or c has no code or an excluded one, which is where Params(n, 0 or
    0.0, c) raises: an excluded code is even and in [2(1 - n), 0], inside
    code_window(n), so the clamp never moves one, and a clamped code is
    odd; float_codes gives None exactly where Params' finiteness check on
    c and on c - 0.0 fails; and Params rejects every row when n < 1.
    """
    n = args.n
    bs, cs = _axes(args)
    # each axis holds one type, so the grid is exact or float as a whole
    exact = all(isinstance(v, Fraction) for v in bs + cs)
    mode = "exact" if exact else "float"
    if exact:
        den = math.lcm(*(v.denominator for v in bs + cs))
        ys = [v.numerator * (den // v.denominator) for v in bs + cs]
        codes_of = functools.partial(ratio_codes, den=den)
    else:
        ys = [float_or_inf(v) for v in bs + cs]
        codes_of = float_codes
    lo, hi = klein.code_window(n)
    codes = [code if code is None else min(max(code, lo), hi) for code in codes_of(ys)]
    ybs = ys[:len(bs)]
    columns = list(zip([f"{n},{format_scalar(b)}," for b in bs], codes))
    undefined = _sweep_tail(mode, None, "undefined")
    memo = {}  # clamped cell code triple -> row tail
    lines = [SWEEP_COLUMNS]
    for c, yc, code_c in zip(cs, ys[len(bs):], codes[len(bs):]):
        mid = f"{format_scalar(c)},"
        if n < 1 or code_c is None or excluded_code(code_c, n):
            lines.extend(head + mid + undefined for head, _ in columns)
            continue
        row = codes_of([yc - yb for yb in ybs])
        for (head, code_b), code_cb in zip(columns, row):
            if code_cb is None:
                lines.append(head + mid + undefined)
                continue
            # clamped inline, where min(max(...)) would make two calls per point
            key = (code_b, code_c, lo if code_cb < lo else hi if code_cb > hi else code_cb)
            tail = memo.get(key)
            if tail is None:
                try:
                    tail = _sweep_tail(mode, klein.classify_cell(n, *key), "ok")
                except BoundaryParameterError:
                    tail = _sweep_tail(mode, None, "boundary")
                memo[key] = tail
            lines.append(head + mid + tail)
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise UsageError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# identity


# Every identity reads -n -b -c as one point of F(-n, b; c).  jacobi takes
# alpha = c - 1 and beta = b - c - n from it; gegenbauer takes lambda = c - 1/2
# and reads only points on this quadratic-class template.
GEGENBAUER_TEMPLATE = "c=(-n+b+1)/2"

# The parameter maps of the identities that carry F to another F.
_MAPS = {"pfaff": transforms.pfaff, "euler": transforms.euler_reflect,
         "invert": transforms.invert}


def _random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * 8, hi * 8), 8)


def _random_point(which: str, rng: random.Random, n: Optional[int]) -> Params:
    """A random point where the identity is defined: one Params per try.

    pfaff, euler and invert draw n, b and c on every try and keep a point
    whose image under their map exists.  jacobi and gegenbauer keep the
    degree n, drawn once when it is None, and draw alpha and beta, or lambda.
    """
    if which not in _MAPS and n is None:
        n = rng.randint(1, 8)
    while True:
        try:
            if which == "jacobi":
                alpha, beta = _random_rational(rng, -6, 6), _random_rational(rng, -6, 6)
                return Params(n, alpha + beta + 1 + n, alpha + 1)
            if which == "gegenbauer":
                return gegenbauer_point(n, _random_rational(rng, -5, 5))
            p = Params(rng.randint(1, 8), _random_rational(rng, -8, 8),
                       _random_rational(rng, -8, 8))
            _MAPS[which](p)
            return p
        except InvalidParameterError:
            continue


def _fixed_point(args) -> Params:
    """The exact point that identity proves for -n -b -c.

    A float point is first checked on its floats, by the band of core.side:
    Params, the map's target, the gegenbauer template and (2*lam)_n.  Only
    then is it proved on its exact doubles, a gegenbauer point on the exact
    template point of its c, whose b is n + 2c - 1.
    """
    p = _params_from(args)
    if args.which in _MAPS:
        _MAPS[args.which](p)
    elif args.which == "gegenbauer":
        if side(2 * p.c - (-p.n + p.b + 1)) != 0:
            raise UsageError(f"identity gegenbauer reads only points on {GEGENBAUER_TEMPLATE}")
        gegenbauer_point(p.n, p.c - Fraction(1, 2))
        return gegenbauer_point(p.n, Fraction(p.c) - Fraction(1, 2))
    return Params(p.n, Fraction(p.b), Fraction(p.c))


def _right_sides(which: str, p: Params) -> List[Callable[[Fraction], Fraction]]:
    """The right sides R of the identity at the exact point p, F_p(z) = R(z) for each.

    The F of the image of p under the map of pfaff, euler and invert is
    built here, once per point; jacobi and gegenbauer evaluate their
    classical polynomial, with parameters read from p, at each z.
    """
    n, b, c = p.n, p.b, p.c
    if which == "jacobi":
        # the classical argument form at 1-2z, then the inverse one at 1-2/z
        scale = math.factorial(n) / pochhammer(c, n)
        return [lambda z: scale * jacobi(n, c - 1, b - c - n, 1 - 2 * z),
                lambda z: scale * z ** n * jacobi(n, -n - b, b - c - n, 1 - 2 / z)]
    if which == "gegenbauer":
        lam = c - Fraction(1, 2)
        scale = math.factorial(n) / pochhammer(2 * lam, n)
        return [lambda z: scale * gegenbauer(n, lam, 1 - 2 * z)]
    target = coefficients(_MAPS[which](p))
    if which == "pfaff":
        return [lambda z: (1 - z) ** n * evaluate(target, transforms.pfaff_point(z))]
    if which == "euler":
        scale = pochhammer(c - b, n) / pochhammer(c, n)
        return [lambda z: scale * evaluate(target, transforms.euler_point(z))]
    scale = pochhammer(b, n) / pochhammer(c, n)
    return [lambda z: scale * (-z) ** n * evaluate(target, transforms.inversion_point(z))]


def _proved(which: str, p: Params) -> bool:
    """Whether the identity holds at the exact point p for every z.

    Both sides are polynomials of degree at most n in z, so they are equal
    when they are equal at the n + 1 distinct rationals z = 2, ..., n + 2.
    These avoid 0 and 1, where z/(z-1), 1/z and 1-2/z are undefined.  F_p
    is built once and evaluated once at each z, for every right side.
    """
    source = coefficients(p)
    values = [(z, evaluate(source, z)) for z in map(Fraction, range(2, p.n + 3))]
    return all(lhs == right(z) for right in _right_sides(which, p) for z, lhs in values)


def cmd_identity(args) -> int:
    if args.n is not None and args.n < 1:
        raise UsageError(f"-n must be at least 1, got {args.n}")
    if (args.b is None) != (args.c is None):
        raise UsageError("identity takes -b and -c together")
    if args.b is None and args.n is not None and args.which in _MAPS:
        raise UsageError(f"identity {args.which} reads -n only with -b and -c")
    if args.b is not None and args.n is None:
        raise UsageError(f"identity {args.which} reads -b and -c only with -n")
    if args.n is not None:
        oracle.check_degree(args.n)  # n itself: a map's target and the classical sums keep it
    if args.b is not None:
        # a proof proves nothing more when it is repeated
        if args.samples is not None:
            raise UsageError("identity proves -b -c once; --samples counts random points")
        points = [_fixed_point(args)]
    else:
        samples = 100 if args.samples is None else args.samples
        if samples < 1:
            raise UsageError(f"--samples must be at least 1, got {samples}")
        rng = _rng()
        points = [_random_point(args.which, rng, args.n) for _ in range(samples)]
    failures = sum(not _proved(args.which, p) for p in points)
    ok = failures == 0
    if args.format == "json":
        print(_dumps({
            "identity": args.which,
            "samples": len(points),
            "failures": failures,
            "pass": ok,
        }))
    else:
        verdict = "PASS" if ok else "FAIL"
        print(f"{args.which}: {len(points) - failures}/{len(points)} points proved: {verdict}")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# driver


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="hyperzero", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("-n", type=int, required=True, help="polynomial degree")
        sp.add_argument("-b", type=str, default=None, help="b parameter (rational p/q or float)")
        sp.add_argument("-c", type=str, default=None, help="c parameter (rational p/q or float)")

    def add_grid(sp):
        sp.add_argument("--b-range", type=str, default=None, help="MIN:MAX:STEPS")
        sp.add_argument("--c-range", type=str, default=None, help="MIN:MAX:STEPS")
        sp.add_argument("--margin", type=str, default=None, help="offset added to every grid point")

    sp = sub.add_parser("classify", help="predict per-interval zero counts")
    add_params(sp)
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("roots", help="compute all complex roots")
    add_params(sp)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("verify", help="check predictions against the oracle")
    add_params(sp)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    add_grid(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="CSV region map over a (b, c) grid")
    add_params(sp)
    add_grid(sp)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("identity", help="exact proofs of the functional identities")
    sp.add_argument("which", choices=("pfaff", "euler", "invert", "jacobi", "gegenbauer"))
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-b", type=str, default=None)
    sp.add_argument("-c", type=str, default=None)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--samples", type=int, default=None,
                    help="random points to draw (default 100)")
    sp.set_defaults(func=cmd_identity)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundaryParameterError as exc:
        print(f"boundary parameters: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def entrypoint() -> None:
    """main() on the process's own streams, as the `hyperzero` script.

    Where the reader of stdout has closed it (`| head`), a write raises
    BrokenPipeError.  As the Python docs' note on SIGPIPE advises, stdout is
    then pointed at os.devnull, so the flush at exit cannot raise again, and
    the exit code is 1.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
