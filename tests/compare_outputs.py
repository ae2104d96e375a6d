"""Byte identity of the CLI's answers: this tree against another checkout.

    python tests/compare_outputs.py OTHER_SRC [--seed 1] [--seconds 18]
        [--random 1500] [--allow iterations]

OTHER_SRC is the ``src`` directory of another checkout of hyperzero, for
example of the parent commit (``git worktree add ../parent HEAD~`` and then
``../parent/src``).  Each tree answers the same command lines in its own
interpreter, in process through ``hyperzero.cli.main``:

- ``roots`` and ``verify --format json`` at RANDOM seeded exact points with
  c - b in {0, ..., 1 - n}, n = 2..45, where F(1) = 0 for most of them,
  some with an integer b in -n..-1 (a degenerate F), and at b = 0;
- every operation of the verify-exact, verify-high and verify-float
  rounds that ``perfbench/run.py --seed SEED --seconds SECONDS`` holds,
  each also as ``roots``; the float ones cover verify's choice of a
  geometry template by the float band of ``core.side``;
- every ``sweep`` of the sweep-grid rounds of the same run.
``perfbench/workloads.py`` is imported, never changed.

Each pair of answers is compared by field: the exit code, stderr, and for
``roots`` the root values (with multiplicities and residuals), the
``iterations`` count and the other fields of its JSON, for ``verify`` and
``sweep`` their stdout bytes.  The report counts the differing command
lines per field and shows the first 20 of each; for ``iterations`` it also
counts the lines where this tree's count rose and where it fell, and sums
each tree's counts over the differing lines.  The exit code is 0 when
no field differs but those named by ``--allow``, 1 otherwise.  pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "20240817"  # HYPERZERO_SEED of every call, as in test_golden

FIELDS = ("exit", "stderr", "roots", "iterations", "roots other", "verify bytes",
          "sweep bytes")


def _random_points(count: int) -> List[Tuple[int, Fraction, Fraction]]:
    """COUNT points (n, b, c) with c - b in {0, ..., 1 - n}, F defined at each."""
    rng = random.Random("compare_outputs")
    points = []
    while len(points) < count:
        n = rng.randint(2, 45)
        if rng.random() < 0.15:
            b = Fraction(-rng.randint(1, n))  # F of degree below n
        else:
            den = rng.randint(2, 12)
            b = Fraction(rng.randint(-(2 * n + 2) * den, (2 * n + 2) * den), den)
        c = b - rng.randint(0, n - 1)
        if c.denominator == 1 and 1 - n <= c <= 0:
            continue  # some c + k = 0 with k < n: F is undefined
        points.append((n, b, c))
    return points


def _workload_ops(names: Tuple[str, ...], seed: int, seconds: float) -> List[Tuple[str, ...]]:
    """The argv of every op of a run of each named workload."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    argvs = []
    for name in names:
        stream = workloads.rounds(name, seed)
        for _ in range(workloads.rounds_in(name, seconds)):
            argvs += [op.argv for op in next(stream)]
    return argvs


def command_lines(seed: int, seconds: float, count: int) -> List[Tuple[str, ...]]:
    verifies = [
        ("verify", "-n", str(n), "-b", str(b), "-c", str(c), "--format", "json")
        for n, b, c in _random_points(count)
    ]
    verifies += [("verify", "-n", str(n), "-b", b, "-c", c, "--format", "json")
                 for n in (1, 3, 7) for b, c in (("0", "1"), ("0.0", "1.0"))]
    verifies += _workload_ops(("verify-exact", "verify-high", "verify-float"), seed, seconds)
    return ([argv for v in verifies for argv in (v, ("roots",) + tuple(v[1:]))]
            + _workload_ops(("sweep-grid",), seed, seconds))


def _worker(src: str) -> None:
    """Answer the JSON list of argv on stdin with src's hyperzero, one JSON line each."""
    sys.path.insert(0, os.path.abspath(src))
    from hyperzero import cli

    os.environ[cli.SEED_ENV] = SEED
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a traceback is an answer to compare too
                code = f"traceback {type(exc).__name__}: {exc}"
        print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)


def answers(src: str, argvs: List[Tuple[str, ...]]) -> List[list]:
    """(exit code, stdout, stderr) of every argv, from a fresh interpreter on src."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", src],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def differing_fields(argv: Tuple[str, ...], mine: list, theirs: list) -> List[str]:
    (code, out, err), (code2, out2, err2) = mine, theirs
    fields = []
    if code != code2:
        fields.append("exit")
    if err != err2:
        fields.append("stderr")
    if out == out2:
        return fields
    if argv[0] == "roots" and code == code2 == 0:
        a, b = json.loads(out), json.loads(out2)
        for key, field in (("roots", "roots"), ("iterations", "iterations")):
            if a.pop(key) != b.pop(key):
                fields.append(field)
        if a != b:
            fields.append("roots other")
    elif argv[0] == "roots":
        fields.append("roots other")
    else:
        fields.append(f"{argv[0]} bytes")
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", help="the src directory of the checkout to compare with")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed of the rounds")
    parser.add_argument("--seconds", type=float, default=18,
                        help="perfbench run length that fixes the number of rounds")
    parser.add_argument("--random", type=int, default=1500, help="random points with F(1) = 0 mostly")
    parser.add_argument("--allow", action="append", default=[], choices=FIELDS,
                        help="a field that may differ without failing (repeatable)")
    args = parser.parse_args(argv)

    argvs = command_lines(args.seed, args.seconds, args.random)
    mine = answers(os.path.join(ROOT, "src"), argvs)
    theirs = answers(args.other_src, argvs)
    diffs: Dict[str, List[Tuple[str, ...]]] = defaultdict(list)
    moved = []  # (this tree's iterations, the other's) where they differ
    for line, a, b in zip(argvs, mine, theirs):
        for field in differing_fields(line, a, b):
            diffs[field].append(line)
            if field == "iterations":
                moved.append((json.loads(a[1])["iterations"], json.loads(b[1])["iterations"]))

    print(f"{len(argvs)} command lines, {sum(a != b for a, b in zip(mine, theirs))} differ")
    for field in FIELDS:
        print(f"  {field}: {len(diffs[field])}")
        if field == "iterations" and moved:
            print(f"    rose on {sum(x > y for x, y in moved)}, fell on "
                  f"{sum(x < y for x, y in moved)}; summed {sum(y for _, y in moved)} "
                  f"in the other tree, {sum(x for x, _ in moved)} in this one")
        for line in diffs[field][:20]:
            print("    " + " ".join(line))
    return 1 if {f for f in FIELDS if diffs[f]} - set(args.allow) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        sys.exit(main())
