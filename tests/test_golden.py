"""Golden output: the CLI's exact bytes on a fixed set of commands.

The sweeps cover every thm3.* window, all four reduced-via chains and
boundary and undefined rows in exact and float mode; the verify points
cover one input per reduction chain and per geometry template, one on
each window edge, and one whose solve overflows (exit 3, empty stdout);
the identity runs are seeded; the roots runs pin the solver's sweep
counts and root digits, F's split at z = 1 where F(1) = 0 among them; the grid
runs pin the grid that sweep and verify share, and a verify grid that
goes on past points whose solve does not converge.  A change that alters
any printed byte fails here.

    PYTHONPATH=src python tests/test_golden.py

keeps every entry of the fixture, writes only the cases it lacks and drops
the entries whose case is gone.  To regenerate entries after an intended
output change, delete them from the fixture first.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from hyperzero import cli

from test_oracle import HARD_POINTS

FIXTURE = Path(__file__).parent / "data" / "golden_cli.json"
SEED = "20240817"

SWEEPS = [
    ("sweep", "-n", "5", "--b-range", "-9:9:37", "--c-range", "-9:9:37"),
    ("sweep", "-n", "5", "--b-range", "-9.0:9.0:37", "--c-range", "-9.0:9.0:37",
     "--margin", "0.013"),
    # a float grid without margin: undefined rows in float mode
    ("sweep", "-n", "3", "--b-range", "-2.0:2.0:9", "--c-range", "-3.0:1.0:9"),
]

VERIFY_POINTS = [
    ("5", "5/2", "-7/3"),     # reduced-via-(2.1)
    ("5", "-11/2", "-7/3"),   # reduced-via-(2.2)
    ("5", "-7/2", "-4/3"),    # reduced-via-(3.8)
    ("5", "-5/2", "-31/6"),   # reduced-via-(2.1)->reduced-via-(3.8)
    ("5", "7/3", "-4/3"),     # thm3.3 directly
    ("5", "-1/3", "-5/6"),    # thm3.4
    ("5", "7/3", "14/3"),     # template c=2b
    ("5", "7/3", "1/2"),      # template c=1/2
    ("5", "7/3", "-10"),      # template c=-2n
    ("5", "2.5", "-2.3"),     # float mode, reduced-via-(2.1)
    # template points on and next to window edges
    ("3", "5/2", "1/2"),      # c=1/2 on the edge b = n - 1/2
    ("3", "-2", "1/2"),       # c=1/2 on the edge b = -2
    ("3", "-3", "-6"),        # c=-2n on the edge b = -3, also c=2b there
    ("3", "-4", "-6"),        # c=-2n on the edge b = -4
    ("6", "-4", "-8"),        # c=2b on the edge b = -4
    ("3", "2.5000000000005", "0.5"),  # c=1/2 within the float band of b = 5/2
    ("3", "2.500000000002", "0.5"),   # c=1/2 just outside that band
    ("80", "10182/125", "-7/3"),      # the verify-high family at n = 80
    # the window edges, which are not count jumps
    ("4", "-4", "5/3"),       # b = -n
    ("4", "13/3", "1/3"),     # b - c = n
    # a coefficient beyond the float range: the solve ends in exit 3
    ("3", "1" + "0" * 400, "1/3"),
    # F(1) = 0 with z = 1 of multiplicity 8 and a negative leading coefficient
    ("11", "37/5", "22/5"),
]

# F = 1 + 2z on the window edge b = -n: its one zero is at -1/2
CLASSIFY = [("classify", "-n", "1", "-b", "-1", "-c", "1/2")]

# verify in the default text format; _print_report reads every record
VERIFY_TEXT = [
    ("verify", "-n", "5", "-b", "7/3", "-c", "14/3"),   # template c=2b
    ("verify", "-n", "5", "-b", "2.5", "-c", "-2.3"),   # float mode
]

# roots in JSON pin the sweep count and every digit of every root: the hard
# points, one float point, and two points of the verify-high family whose
# first pass leaves most roots unsound for the recurrence stage
ROOTS = [
    ("roots", "-n", str(n), "-b", str(b), "-c", str(c), "--format", "json")
    for n, b, c in HARD_POINTS
] + [
    ("roots", "-n", "20", "-b", "17.518", "-c", "7.02", "--format", "json"),
    ("roots", "-n", "60", "-b", "30569/500", "-c", "-7/3", "--format", "json"),
    ("roots", "-n", "80", "-b", "10182/125", "-c", "-7/3", "--format", "json"),
    # F(1) = 0: F splits into (z - 1)^m and its cofactor; m = 3 here
    ("roots", "-n", "5", "-b", "7/3", "-c", "1/3", "--format", "json"),
    # m = 8 with a negative leading coefficient, and m = 14 with a cofactor
    # of degree 6
    ("roots", "-n", "11", "-b", "37/5", "-c", "22/5", "--format", "json"),
    ("roots", "-n", "20", "-b", "61/7", "-c", "19/7", "--format", "json"),
    # c - b = 1 - n: z = 1 is a simple zero and stays inside F
    ("roots", "-n", "8", "-b", "369/11", "-c", "292/11", "--format", "json"),
    # degenerate b with F(1) = 0: F = (1 - z)^2 up to a constant cofactor
    ("roots", "-n", "5", "-b", "-2", "-c", "-5", "--format", "json"),
    # F = (1 - z)^3: no cofactor
    ("roots", "-n", "3", "-b", "1/2", "-c", "1/2", "--format", "json"),
    # b = 0: F = 1 has no roots
    ("roots", "-n", "3", "-b", "0", "-c", "1", "--format", "json"),
]

# verify and sweep over grids: the order of the grid, the margin on a
# range next to a pinned value, and an undefined point
GRIDS = [
    ("verify", "-n", "4", "--b-range", "-3:3:7", "-c", "7/3"),
    ("verify", "-n", "3", "--b-range", "-2:2:5", "--c-range", "-3/2:1/2:3",
     "--margin", "1/7", "--format", "json"),
    ("verify", "-n", "3", "--b-range=1:1e300:2", "-c", "2.5", "--format", "json"),
    # the sweep goes on past points whose solve overflows
    ("verify", "-n", "3", "--b-range", "1:1" + "0" * 400 + ":3", "-c", "1/3",
     "--format", "json"),
    ("sweep", "-n", "4", "-b", "7/3", "--c-range", "-6:6:25", "--margin", "1/9"),
]

IDENTITIES = [
    ("identity", which, "--samples", "20", "--format", "json")
    for which in ("euler", "invert", "pfaff", "jacobi", "gegenbauer")
] + [
    ("identity", "invert", "-n", "4", "-b", "7/3", "-c", "-5/2", "--format", "json"),
]

CASES = (
    SWEEPS
    + CLASSIFY
    + [("verify", "-n", n, "-b", b, "-c", c, "--format", "json") for n, b, c in VERIFY_POINTS]
    + VERIFY_TEXT
    + IDENTITIES
    + ROOTS
    + GRIDS
)


def _run(argv):
    """(exit code, stdout lines) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().splitlines(keepends=True)


def _expected():
    return {tuple(case["argv"]): case for case in json.loads(FIXTURE.read_text())["cases"]}


def test_fixture_covers_every_case():
    assert set(_expected()) == set(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_byte_identical(argv, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, SEED)
    want = _expected()[argv]
    code, lines = _run(argv)
    assert code == want["exit"]
    assert lines == want["stdout"]


def _write_fixture():
    """Keep the fixture's entries in order, drop those whose case is gone, append the rest."""
    os.environ[cli.SEED_ENV] = SEED
    have = _expected() if FIXTURE.exists() else {}
    cases = [entry for argv, entry in have.items() if argv in CASES]
    for argv in CASES:
        if argv not in have:
            code, lines = _run(argv)
            cases.append({"argv": list(argv), "exit": code, "stdout": lines})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"seed": SEED, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    _write_fixture()
