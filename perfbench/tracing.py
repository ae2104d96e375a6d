"""Outside-in tracing: spans around the calls into each layer of hyperzero.

The tracer replaces each public function of a layer with a wrapper, set on
every module attribute that callers look the function up through (for
example ``hyperzero.oracle.coefficients`` as well as
``hyperzero.core.coefficients``).  Each wrapped call leaves one span: name,
start, end, parent span and point id.  Spans stay in compact arrays while the
run lasts and are written out when it ends.  ``installed`` puts every original
attribute back on exit, so an untraced pass never meets a wrapper.  A span
includes the speed probes (calibrate.py) that fired inside it, under 1% of
its time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

# boundary name -> the module attributes it wraps, as "<module>.<function>"
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "cli.main": ("cli.main",),
    "oracle.verify": ("oracle.verify",),
    "klein.classify_region": ("klein.classify_region",),
    "transforms.reductions": ("transforms.euler_reflect", "transforms.invert",
                              "transforms.pfaff"),
    "transforms.quadratic_class_match": ("transforms.quadratic_class_match",),
    "special.predict": ("special.predict_2b", "special.predict_half",
                        "special.predict_minus2n"),
    "core.coefficients": ("core.coefficients",),
    "oracle.sturm_counts": ("oracle.sturm_counts",),
    "oracle.all_roots": ("oracle.all_roots",),
}

# the per-degree table: these boundaries at these degrees
RUNG_BOUNDARIES = ("core.coefficients", "klein.classify_region", "oracle.sturm_counts",
                   "oracle.all_roots")
RUNGS = (5, 20, 50, 100)

RAISED_TYPES = ("OverflowError", "NonConvergenceError")


def _coeff_bits(poly) -> int:
    return max((max(a.numerator.bit_length(), a.denominator.bit_length())
                for a in poly.coeffs if hasattr(a, "denominator")), default=0)


class Tracer:
    """Span store plus the counters read at the same boundaries."""

    def __init__(self):
        self.names: List[str] = list(BOUNDARIES)
        self.name = array("b")
        self.parent = array("l")
        self.point = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised: Dict[int, str] = {}
        self.point_id = -1  # set by the caller before each operation
        self.max_bits = 0
        self.sweeps = 0
        self._stack: List[int] = []

    def _wrap(self, index: int, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        boundary = self.names[index]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.point.append(self.point_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[span] = type(exc).__name__
                raise
            finally:
                self.end[span] = clock()
                self.start[span] = t0
                stack.pop()
            if boundary == "core.coefficients":
                self.max_bits = max(self.max_bits, _coeff_bits(result))
            elif boundary == "oracle.all_roots":
                self.sweeps += result.iterations
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hyperzero" or name.startswith("hyperzero."))]
        patched = []
        try:
            for index, targets in enumerate(BOUNDARIES.values()):
                for target in targets:
                    module, attr = target.split(".")
                    original = getattr(sys.modules[f"hyperzero.{module}"], attr)
                    wrapper = self._wrap(index, original)
                    for m in modules:
                        for key in [k for k, v in vars(m).items() if v is original]:
                            patched.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for m, key, original in reversed(patched):
                setattr(m, key, original)

    # ------------------------------------------------------------------
    # read-out

    def metrics(self, degree_of_point: Callable[[int], int],
                scale_of_point: Callable[[int], float]) -> Dict[str, float]:
        """calls and self time per boundary, the counters, the per-degree table.

        Times are scaled to the reference speed with the factor of each
        span's point (see calibrate.py).
        """
        count = len(self.start)
        dur = [(self.end[i] - self.start[i]) * scale_of_point(self.point[i])
               for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        rung_time: Dict[Tuple[str, int], float] = defaultdict(float)
        rung_calls: Counter = Counter()
        raised: Counter = Counter()
        boundary_raises = 0
        for i in range(count):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            exc = self.raised.get(i)
            if name == "klein.classify_region" and exc == "BoundaryParameterError":
                boundary_raises += 1
            if name == "oracle.all_roots" and exc is not None:
                raised[exc if exc in RAISED_TYPES else "other"] += 1
            if name in RUNG_BOUNDARIES:
                n = degree_of_point(self.point[i])
                if n in RUNGS:
                    rung_time[name, n] += dur[i]
                    rung_calls[name, n] += 1
        out: Dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["klein.classify_region.boundary_share"] = (
            boundary_raises / calls["klein.classify_region"] if calls["klein.classify_region"] else 0.0)
        out["core.coefficients.max_bits"] = self.max_bits
        returned = calls["oracle.all_roots"] - sum(raised.values())
        out["oracle.all_roots.sweeps_per_call"] = self.sweeps / returned if returned else 0.0
        for exc in RAISED_TYPES + ("other",):
            out[f"oracle.all_roots.raised.{exc}"] = raised[exc]
        # 0 where the workload makes no call at that degree
        for name in RUNG_BOUNDARIES:
            for n in RUNGS:
                k = rung_calls[name, n]
                out[f"{name}.ms_per_call.n{n}"] = 1000 * rung_time[name, n] / k if k else 0.0
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped CSV, wall-clock times of time.perf_counter."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("span,name,start_s,end_s,parent,point,raised\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.point[i]},"
                         f"{self.raised.get(i, '')}\n")
