"""One workload run in a fresh interpreter: set up, signal, measure, check.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up is the import of hyperzero, the generation of the inputs and one
warm-up call; the worker then prints ``ready`` so that the parent can time
interpreter start to the first timed operation.  It runs one client in a
closed loop: each operation is one in-process ``hyperzero.cli.main(argv)``
call with stdout and stderr captured, and the next starts only when it has
returned.  Only those calls are timed; every answer is checked between
calls.  Each call's time is scaled to the reference speed by the probes of
``calibrate.py`` taken right before, during and right after it.  The last stdout
line is a JSON record for ``run.py``.

A run holds the first ``workloads.rounds_in(WORKLOAD, SECONDS)`` rounds of
the seed, drawn during set-up.  With TRACE = 1 the worker first makes an
untraced pass over the rounds of SECONDS / 2, then repeats exactly the same
operations with the tracer installed.  The per-layer numbers come from the
traced pass and the difference between the two passes is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from typing import List, Optional

import calibrate
import checks
import workloads
from checks import Outcome
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

class Capture:
    """Collects what is written to it; lighter than io.StringIO for large outputs."""

    def __init__(self):
        self.parts: List[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


def call(cli, argv, sampler: Optional[calibrate.Sampler] = None) -> tuple:
    """Run one command line.

    Returns (Outcome, seconds spent inside cli.main, probes taken during it);
    the probes' own time is not counted.
    """
    out, err = Capture(), Capture()
    rc: Optional[int] = None
    exc: Optional[BaseException] = None
    sampler = sampler or calibrate.Sampler()
    taken, spent = len(sampler.probes), sampler.spent
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler.running():
        t0 = time.perf_counter()
        try:
            # looked up at call time, so that the tracer's wrapper is seen
            rc = cli.main(list(argv))
        except Exception as e:  # an escaping traceback is a failed point
            exc = e
        dt = time.perf_counter() - t0
    outcome = Outcome(rc, out.getvalue(), err.getvalue(), exc)
    return outcome, dt - (sampler.spent - spent), sampler.probes[taken:]


class Pass:
    """Timed calls over a list of rounds, with every answer checked."""

    def __init__(self):
        self.ops: list = []
        self.scales: List[float] = []  # per op: its factor to the reference speed
        self.latencies: List[float] = []  # wall-clock seconds per op
        self.wall_s = 0.0
        self.timed_s = 0.0  # time inside cli.main at the reference speed
        self.attempted = 0
        self.failed: Counter = Counter()
        self.probes: List[float] = []

    def run(self, cli, rounds, check, tracer=None, props=None) -> None:
        """Run every op of ROUNDS; PROPS is fed from the first round only."""
        sampler = calibrate.Sampler()
        before = calibrate.probe()
        for i, rnd in enumerate(rounds):
            for op in rnd:
                if tracer is not None:
                    tracer.point_id = len(self.ops)
                outcome, dt, during = call(cli, op.argv, sampler)
                failed = check(op, outcome, i == 0, props)
                after = calibrate.probe()
                factor = calibrate.scale([before, *during, after])
                before = after
                self.ops.append(op)
                self.latencies.append(dt)
                self.scales.append(factor)
                self.probes += [after, *during]
                self.wall_s += dt
                self.timed_s += dt * factor
                self.attempted += op.points
                self.failed.update(failed)

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def end_to_end(self) -> dict:
        answered = self.attempted - self.n_failed
        out = {"correct_share": answered / self.attempted,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        for prefix, times, total in (
            ("", [t * k for t, k in zip(self.latencies, self.scales)], self.timed_s),
            ("wall.", self.latencies, self.wall_s),
        ):
            ms = [1000 * t for t in times]
            # inclusive: with the few samples of verify-high, p95 stays inside the data
            cuts = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
            out[f"{prefix}pts_per_s"] = answered / total
            out[f"{prefix}latency_ms.p50"] = statistics.median(ms)
            out[f"{prefix}latency_ms.p95"] = cuts[94]
        out["wall.probe_ms"] = 1000 * statistics.median(self.probes)
        return out


def main(argv: List[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hyperzero
    from hyperzero import cli

    w = workloads.WORKLOADS[workload]
    count = workloads.rounds_in(workload, seconds / 2 if trace else seconds)
    rounds = list(itertools.islice(workloads.rounds(workload, seed), count))
    call(cli, w.warmup)
    print("ready", flush=True)
    if setup_only:
        return 0

    ref = checks.Reference(hyperzero)
    sample_rng = random.Random(f"check:{workload}:{seed}")

    def check(op, outcome, first_round, props):
        if op.argv[0] == "sweep":
            # every round has the same grids, so the first one gives the
            # workload's properties
            return checks.check_sweep(op, outcome, ref, sample_rng,
                                      props if first_round else None)
        return checks.check_verify(op, outcome, ref, props)

    props = checks.Properties()
    gc.collect()
    plain = Pass()
    plain.run(cli, rounds, check, props=props)
    record = {"latency_samples": len(plain.latencies), "properties": props.as_dict()}
    final = plain
    if not trace:
        record["metrics"] = plain.end_to_end()
    else:
        tracer = Tracer()
        final = Pass()
        gc.collect()
        with tracer.installed():
            final.run(cli, rounds, check, tracer=tracer)
        metrics = tracer.metrics(lambda point: final.ops[point].n,
                                 lambda point: final.scales[point])
        metrics["trace.overhead_share"] = (final.timed_s - plain.timed_s) / plain.timed_s
        for k in checks.FAILURE_CLASSES:
            metrics[f"cli.failed.{k}"] = final.failed[k]
        for k in ("exact_share", "template_share", "lattice_share", "pts_per_cell",
                  "max_coeff_bits"):
            metrics[f"workload.{k}"] = record["properties"][k]
        record["metrics"] = metrics
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{workload}.csv.gz"))
    record.update(
        attempted=final.attempted,
        failed=final.n_failed,
        failed_by_class={k: final.failed[k] for k in checks.FAILURE_CLASSES},
    )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
