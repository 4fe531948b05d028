"""One workload in its own process: set up, run timed passes, check answers.

    python3 bench/worker.py --workload solve --seed 0 --seconds 55 --trace 0

Prints one JSON object on stdout. ``run.py`` starts this script and turns
its output into the benchmark's metrics. With ``--setup-only`` it stops
after importing nsbox and building the inputs, so the caller can time the
set-up from outside.

Passes run back to back in one thread (a closed loop) until another pass
would overrun ``--seconds``; an untimed warm-up pass comes first, and at
least one timed pass always runs. With ``--trace 1``
every untraced pass is followed by a traced pass over the same inputs, so
their ratio is the tracing overhead. The measuring process runs on the CPU
that a short probe finds fastest, probed again every ``REPROBE_S`` seconds
between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPROBE_S = 5.0  # between CPU probes during the timed passes
# the CPUs this process may use, read before the first pin narrows the set
_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def _import_checkout_nsbox() -> None:
    """Import nsbox from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import nsbox
    except ImportError as exc:
        raise SystemExit(f"worker: cannot import nsbox from {SRC}: {exc}")
    if not Path(nsbox.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"worker: nsbox imported from {nsbox.__file__}, not from {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _probe_s() -> float:
    """Seconds for a fixed piece of Fraction arithmetic (about 25 ms)."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return perf_counter() - t0


def _pin_to_fastest_cpu() -> int:
    """Move the process to the CPU that runs the probe fastest; return it.

    The host's CPUs differ in speed for minutes at a time; a single-threaded
    run that the scheduler moves to, or leaves on, the slower one reads up to
    1.8x slow (bench/README.md, Bounds).
    """
    if not hasattr(os, "sched_setaffinity"):
        return -1
    probes = {}
    for cpu in sorted(_CPUS):
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = min(_probe_s() for _ in range(3))
    best = min(probes, key=probes.get)
    os.sched_setaffinity(0, {best})
    return best


def main(argv=None) -> int:
    args = _parse(argv)
    _import_checkout_nsbox()
    import tracing
    import workloads

    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        cases = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"ready": True}))
            return 0
        cpus = [_pin_to_fastest_cpu()]
        last_probe = perf_counter()

        def reprobe():
            nonlocal last_probe
            if perf_counter() - last_probe >= REPROBE_S:
                cpus.append(_pin_to_fastest_cpu())
                last_probe = perf_counter()

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        result = workloads.measure(cases, args.seconds, tracer, reprobe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["cpus"] = cpus
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
