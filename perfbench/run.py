"""The hyperzero benchmark: every workload, every metric, every answer checked.

    python3 perfbench/run.py --workload verify-exact --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 3          # all workloads, untraced and traced

Run it from the root of a checkout; it measures the hyperzero sources under
``src/`` and needs nothing built.  Each workload run starts fresh
interpreters (``worker.py``): several that only set up, timing interpreter
start to the first timed operation, and one that also measures.  Metric
names and units come from ``BENCHMARK.json``.  Every time is scaled to a
reference machine speed (``calibrate.py``); the information line carries the
wall-clock values as well.  With ``--workload`` the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
workload's input properties and failures by class.

``failed`` counts points that crashed, did not converge, were reported as a
mismatch the exact counter refutes, or got a wrong answer.  ``correct`` is
false only for wrong answers (class ``wrong_count``).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import List, Optional

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# fresh interpreters timed for setup_s; the measuring worker adds one more
SETUP_ONLY_RUNS = 8
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _spawn(args: List[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)


def _readline(proc: subprocess.Popen, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    if not ready:
        raise BenchError("worker timed out")
    return proc.stdout.readline()


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """The worker's remaining stdout; raises unless it exits with 0 in time."""
    try:
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return rest


def _worker(args: List[str], setup_only: bool) -> tuple:
    """(seconds from spawn to ready, wall-clock and scaled; the worker's record or None)."""
    factor = calibrate.scale([calibrate.probe() for _ in range(3)])
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    t0 = time.perf_counter()
    proc = _spawn(args + (["--setup-only"] if setup_only else []))
    try:
        line = _readline(proc, deadline)
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker failed during set-up: {line.strip()!r}")
        rest = _finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    record = json.loads(rest.strip().splitlines()[-1]) if not setup_only else None
    return (setup, setup * factor), record


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(information line, result line) of one workload run."""
    args = [workload, str(seed), repr(seconds), "1" if trace else "0"]
    setups = []
    if not trace:
        setups = [_worker(args, setup_only=True)[0] for _ in range(SETUP_ONLY_RUNS)]
    setup, record = _worker(args, setup_only=False)
    setups.append(setup)
    values = dict(record["metrics"],
                  setup_s=statistics.median(s for _, s in setups),
                  **{"wall.setup_s": statistics.median(w for w, _ in setups)})
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "latency_samples": record["latency_samples"],
        "failed_by_class": record["failed_by_class"],
        "properties": record["properties"],
        "wall": {k[5:]: v for k, v in values.items() if k.startswith("wall.")},
    }
    result = {
        "correct": record["failed_by_class"]["wrong_count"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return info, result


def _table(rows: List[tuple]) -> str:
    lines = [f"{'workload':<14} {'metric':<44} {'value':>14}  unit"]
    for workload, name, value, unit in rows:
        lines.append(f"{workload:<14} {name:<44} {value:>14.6g}  {unit}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload of BENCHMARK.json, or all (the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run at the reference speed, which fix how "
                             "many rounds it holds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="per-layer metrics from a traced run (single workload only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hyperzero", "__init__.py")):
        print("run.py: no hyperzero sources under src/; run it from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    try:
        if args.workload != "all":
            info, result = run_workload(spec, args.workload, args.seed, seconds,
                                        bool(args.trace))
            print(json.dumps(info))
            print(json.dumps(result))
            return 0
        rows = []
        for workload in names:
            for trace in (False, True):
                info, result = run_workload(spec, workload, args.seed, seconds, trace)
                print(json.dumps(info))
                print(json.dumps(dict(result, workload=workload)), flush=True)
                rows.extend((workload, k, v["value"], v["unit"])
                            for k, v in result["metrics"].items())
        print(_table(rows))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
