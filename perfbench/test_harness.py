"""Tests of the benchmark harness itself (inputs, failure counting, tracing, output)."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hyperzero  # noqa: E402
from hyperzero import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Pass  # noqa: E402

SMALL_ROUND = [
    workloads.Op(("verify", "-n", str(n), "-b", "7/3", "-c", "11/5", "--format", "json"), n,
                 exact=True)
    for n in (3, 4, 5)
]


def _first_rounds(workload: str, seed: int, k: int = 3):
    return list(itertools.islice(workloads.rounds(workload, seed), k))


def _check(ref):
    return lambda op, outcome, first, props: checks.check_verify(op, outcome, ref, props)


def _snapshot():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "hyperzero" or name.startswith("hyperzero."))
        for key, value in vars(module).items()
    }


def test_same_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        assert _first_rounds(name, 7) == _first_rounds(name, 7), name
        other = _first_rounds(name, 8)
        if name == "verify-high":
            # every value comes from the fixed stream; the seed orders each round
            assert [sorted(r, key=str) for r in other] == \
                [sorted(r, key=str) for r in _first_rounds(name, 7)]
        else:
            assert other != _first_rounds(name, 7), name


def test_raising_layer_counts_as_failed_and_run_continues(monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(hyperzero.oracle, "all_roots", overflow)
    p = Pass()
    p.run(cli, [SMALL_ROUND, SMALL_ROUND], _check(checks.Reference(hyperzero)))
    # every op was tried, none stopped the run
    assert p.attempted == 2 * len(SMALL_ROUND)
    assert p.failed == {"traceback": 2 * len(SMALL_ROUND)}


def test_correct_answers_pass_the_checks():
    p = Pass()
    p.run(cli, [SMALL_ROUND], _check(checks.Reference(hyperzero)))
    assert p.attempted == 3 and p.n_failed == 0


def test_tracer_wraps_every_caller_and_restores_attributes():
    before = _snapshot()
    tracer = Tracer()
    check = _check(checks.Reference(hyperzero))  # binds the unwrapped functions
    with tracer.installed():
        assert hyperzero.oracle.coefficients is not before["hyperzero.oracle", "coefficients"]
        assert hyperzero.cli.main is not before["hyperzero.cli", "main"]
        p = Pass()
        p.run(cli, [SMALL_ROUND], check, tracer=tracer)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    metrics = tracer.metrics(lambda point: SMALL_ROUND[point].n, lambda point: 1.0)
    assert metrics["cli.main.calls"] == 3
    for name in ("oracle.verify", "core.coefficients", "oracle.sturm_counts",
                 "oracle.all_roots", "klein.classify_region"):
        assert metrics[f"{name}.calls"] == 3, name
    assert metrics["oracle.all_roots.ms_per_call.n5"] > 0
    # spans nest: every span but the cli.main roots has a parent on the same point
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] < 0]
    assert [tracer.names[tracer.name[i]] for i in roots] == ["cli.main"] * 3
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.point[p] == tracer.point[i]
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_is_printed_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run(ROOT, "--workload", "verify-exact", "--seed", "1", "--seconds", "0.01",
                   "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[group]}


def test_same_seed_gives_same_counts():
    # the run length comes from --seconds, not from the clock
    results = []
    for _ in range(2):
        out = _run(ROOT, "--workload", "verify-float", "--seed", "3", "--seconds", "0.4",
                   "--trace", "0")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append((result["attempted"], result["failed"]))
    assert results[0] == results[1]
    assert results[0][0] == 40 * workloads.rounds_in("verify-float", 0.4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = _run(tmp_path, "--workload", "verify-exact", "--seed", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
