"""Shared sampling helpers for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

import hyperzero
from hyperzero import Params
from hyperzero.core import InvalidParameterError


def pytest_terminal_summary(terminalreporter):
    """Name the hyperzero package the run imported, also under -q.

    pyproject's pythonpath puts this tree's src first on sys.path, so a
    PYTHONPATH naming another tree's src does not make the run test it.
    """
    terminalreporter.write_line(
        f"hyperzero imported from {os.path.dirname(hyperzero.__file__)}")


def assert_float_band(call, edge, error):
    """A float 1e-13 from edge raises error like the exact edge; 1e-9 off does not.

    call takes the float parameter; 1e-13 lies inside the 1e-12 band in
    which a float counts as on the edge, 1e-9 lies well outside it.
    """
    for offset in (-1e-13, 1e-13):
        with pytest.raises(error):
            call(float(edge) + offset)
    for offset in (-1e-9, 1e-9):
        call(float(edge) + offset)


def random_params(rng: random.Random, n_lo=1, n_hi=8, span=8, den=8) -> Params:
    """A valid Params with rational b, c drawn from a fixed lattice."""
    while True:
        n = rng.randint(n_lo, n_hi)
        b = Fraction(rng.randint(-span * den, span * den), den)
        c = Fraction(rng.randint(-span * den, span * den), den)
        try:
            return Params(n, b, c)
        except InvalidParameterError:
            continue


def general_position_params(rng: random.Random, n_lo=1, n_hi=10, span=15,
                            den=1000) -> Params:
    """Params with b, c, b-c all at least 1/den away from every integer."""
    while True:
        n = rng.randint(n_lo, n_hi)
        kb = rng.randint(-(span * den - 1), span * den - 1)
        kc = rng.randint(-(span * den - 1), span * den - 1)
        if kb % den == 0 or kc % den == 0 or (kb - kc) % den == 0:
            continue
        return Params(n, Fraction(kb, den), Fraction(kc, den))


def rational_inside(rng: random.Random, lo: Fraction, hi: Fraction,
                    den: int = 16) -> Fraction:
    """A non-integer rational strictly inside (lo, hi), 1/den from the ends.

    Integers are resampled away: an integer b can sit inside one theorem's
    window while being a case boundary of another classifier, and these
    helpers feed tests that exercise both.
    """
    lo_t = int(lo * den) + 1
    hi_t = int(hi * den) - 1
    if lo_t > hi_t:
        raise ValueError(f"interval ({lo}, {hi}) too narrow for denominator {den}")
    while True:
        v = Fraction(rng.randint(lo_t, hi_t), den)
        if v.denominator != 1:
            return v
