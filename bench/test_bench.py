"""Self-test of the benchmark: tiny passes, failure counting, seed invariance.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from nsbox import boxes, hardy, vertices  # noqa: E402


def _perturbed(box: boxes.JointBox) -> boxes.JointBox:
    """One entry moved by 1/7: the box is no longer normalized."""
    table = list(box.table)
    table[0] += Fraction(1, 7)
    return boxes.JointBox(box.scenario, tuple(table))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_is_correct(name, tmp_path):
    cases = workloads.build(name, 3, tmp_path, "tiny")
    assert len(cases) == workloads.PASS_INPUTS
    result = workloads.measure(cases, 0.0)
    assert result["failed"] == 0, result["failures"]
    assert len(result["passes"]) == 1  # after the warm-up pass
    assert result["attempted"] == 2 * len(cases[0]) > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_share_counts_and_shapes(name, tmp_path):
    """The seed draws relabelings and weights only, never sizes."""
    shapes = []
    for seed in (1, 2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cases = workloads.build(name, seed, tmp_path, "tiny")
            result = workloads.measure(cases, 0.0, tracer)
        finally:
            tracer.uninstall()
        assert result["failed"] == 0, result["failures"]
        layers = result["passes"][1]["layers"]
        shapes.append({k: v for k, v in layers.items()
                       if k.endswith((".calls", "vars_max", "rows_max", "infeasible"))})
    assert shapes[0] == shapes[1]


def test_wrong_answers_are_failures_not_timings(tmp_path):
    s = boxes.Scenario.symmetric(3)
    arg, _ = hardy.build_argument(hardy.KIND_RELAXED, s)
    vertex = hardy.attaining_nonlocal_vertex(arg)[1]
    path = tmp_path / "perturbed.json"
    path.write_text(boxes.box_to_json(_perturbed(vertex)))
    argv = ["pn", str(path), "--kind", "relaxed", "--exhaustive-perms"]
    bad_mixture = _perturbed(workloads.mixture(s, random.Random(0)))
    ops = [
        workloads.Op("pn of a perturbed box", lambda: workloads.run_cli(argv),
                     lambda r: workloads.check_pn_output(vertex, r)),
        workloads.Op("is_local of a perturbed mixture", lambda: vertices.is_local(bad_mixture),
                     lambda r: workloads.check_verdict(True, r)),
        workloads.Op("wrong verdict", lambda: False, lambda r: workloads.check_verdict(True, r)),
        workloads.Op("right verdict", lambda: True, lambda r: workloads.check_verdict(True, r)),
    ]
    result = workloads.measure([ops], 0.0)  # the warm-up pass and one timed pass
    assert result["attempted"] == 8
    assert [f.split(":")[0] for f in result["failures"]] == [op.label for op in ops[:3]] * 2
    assert result["failed"] == 6


def test_perturbed_witness_fails_the_optimum_check():
    arg, _ = hardy.build_argument(hardy.KIND_RELAXED, boxes.Scenario.symmetric(3))
    report = hardy.max_success_ns(arg)
    assert workloads.check_optimum(arg, Fraction(2, 3), report)
    bad = hardy.OptimizationReport(arg, report.optimum, _perturbed(report.witness), report.regime)
    with pytest.raises(workloads.CheckFailed, match="witness invalid"):
        workloads.check_optimum(arg, Fraction(2, 3), bad)
    with pytest.raises(workloads.CheckFailed, match="optimum"):
        workloads.check_optimum(arg, Fraction(1, 2), report)


def test_tracer_self_time_and_uninstall(tmp_path):
    original = hardy.solve_max
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hardy.solve_max is not original and vertices.solve_max is hardy.solve_max
        cases = workloads.build("solve", 0, tmp_path, "tiny")
        result = workloads.measure(cases, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert hardy.solve_max is original and vertices.solve_max is original
    traced = result["passes"][1]
    layers = traced["layers"]
    # d = 2, 3 times two kinds of argument, then five is_local programs
    assert layers["lp.solve_max.calls"] == 4 + 5
    assert layers["hardy.max_success_ns.calls"] == 4
    assert layers["vertices.is_local.calls"] == 5
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < layers["lp.solve_max.self_s"] <= self_total <= traced["wall_s"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    proc = _run(ROOT, "--workload", "pn_exhaustive", "--seed", "5", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "solve", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
