"""The nsbox benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload solve --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; nsbox is imported from its ``src/``.
Workloads (see BENCHMARK.json and bench/README.md): solve, pn_exhaustive.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (from
each kind of operation's fastest time over the passes of one run),
``setup_s`` (median over several fresh processes that start,
import nsbox and build the inputs) and ``peak_rss_mb`` of the measuring
process. With ``--trace 1`` they are the per-layer counts and self times
from traced passes, plus the tracing overhead. Every answer is checked
exactly; the last stdout line is the result object, preceded by one
``meta`` line with the run's metadata.
Exits nonzero, printing no result, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 15
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "pn_exhaustive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class WorkerFailed(Exception):
    pass


def _worker(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _time_setups(args, count: int, start: float) -> list[float]:
    times = []
    for _ in range(count):
        t0 = perf_counter()
        _worker(args, ["--setup-only"], DEADLINE_S - (t0 - start))
        times.append(perf_counter() - t0)
    return times


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def _typical_ops(passes, labels) -> dict[str, float]:
    """Fastest time of each kind of operation, pooled over a run's passes.

    Other load on the host slows an operation and never speeds it up, so the
    fastest of a run's samples is the one least disturbed (bench/README.md,
    Metrics)."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for label, took in zip(labels, p["op_s"]):
            samples.setdefault(label, []).append(took)
    return {label: min(times) for label, times in samples.items()}


def _pass_s(typical: dict[str, float], labels) -> float:
    return sum(typical[label] for label in labels)


def main(argv=None) -> int:
    args = _parse(argv)
    start = perf_counter()
    # Set-up is timed in fresh processes, half before and half after the
    # measuring one, so that the samples meet more than one machine state.
    before = 0 if args.trace else SETUP_SAMPLES // 2
    after = 0 if args.trace else SETUP_SAMPLES - before
    try:
        setups = _time_setups(args, before, start)
        run = _worker(args, [], DEADLINE_S - (perf_counter() - start))
        setups += _time_setups(args, after, start)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in run["passes"] if not p["traced"]]
    traced = [p for p in run["passes"] if p["traced"]]
    labels = run["op_labels"]
    typical = _typical_ops(plain, labels)
    if args.trace:
        units = {name: "s" if name.endswith("_s") else "count" for name in traced[0]["layers"]}
        # counts repeat exactly from pass to pass; median_low keeps them whole
        layers = {name: (statistics.median if unit == "s" else statistics.median_low)(
                      p["layers"][name] for p in traced)
                  for name, unit in units.items()}
        layers["trace.overhead_ratio"] = (_pass_s(_typical_ops(traced, labels), labels)
                                          / _pass_s(typical, labels))
        units["trace.overhead_ratio"] = "ratio"
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        values = {"wall_s": _pass_s(typical, labels), "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": _src_lines(), "output_sha256": run["output_sha256"],
        "passes": len(run["passes"]), "fail_ratio": run["failed"] / run["attempted"],
        "op_fastest_s": typical,
        "pass_wall_s": [p["wall_s"] for p in run["passes"]],
        "setup_samples_s": setups,
        "cpus": run["cpus"],
    }
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
