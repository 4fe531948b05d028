"""The benchmark's workloads: seeded inputs, timed operations, exact checks.

The seed draws only outcome relabelings, input swaps and mixture weights.
It never changes a size, so every seed gives the same operations and the
same program shapes (LP variable and row counts, call counts).

Each workload builds ``PASS_INPUTS`` input sets at set-up; pass k of a run
uses set k mod ``PASS_INPUTS``, so a run samples several relabelings.

Operations call nsbox through module attributes looked up at call time
(``hardy.max_success_ns(...)``), so the wrappers of a traced run see them.
A check returns the result as canonical text, for the output hash, or raises
``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from nsbox import boxes, cli, hardy, vertices
from nsbox.rationals import format_rational, parse_rational

WORKLOADS = ("solve", "pn_exhaustive")
PASS_INPUTS = 16

# Sizes are fixed per workload; the tiny ones only serve the self-test.
# Every operation is short, so that a run holds many samples of each and its
# fastest sample meets a quiet moment of the host (bench/README.md, Left out
# on purpose, names the longer ones).
# solve: the sweep's (outcome counts d, largest d whose arguments are
# relabeled) and the locality boxes. Above that d the identity arguments of
# `nsbox sweep` are solved: Bland's pivot path, and so the solve time,
# depends on the relabeling (up to 2x at d = 6), and the seed rather than
# the program would set the time of the largest solves.
SIZES = {
    "full": {
        "solve": {
            "sweep": (range(2, 7), 5),
            # (d, boxes per pass) for each kind of box, then the uniform box's d
            "locality": {"congruence": ((3, 2), (4, 1)), "mixture": ((3, 3),), "uniform": 3},
        },
        "pn_exhaustive": (3, 4, 5),
    },
    "tiny": {
        "solve": {
            "sweep": (range(2, 4), 3),
            "locality": {"congruence": ((2, 1), (3, 1)), "mixture": ((2, 1), (3, 1)),
                         "uniform": 2},
        },
        "pn_exhaustive": (3,),
    },
}

MIXTURE_TERMS = 3


class CheckFailed(Exception):
    """A result that is not exactly the known answer."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class OpError:
    """An operation that raised instead of returning."""

    exc: BaseException


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _perm(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(n), n))


def relabel_box(box: boxes.JointBox, rng: random.Random) -> boxes.JointBox:
    """The box with a random outcome permutation applied per input and party.

    Local relabelings keep validity, locality, and every optimum."""
    s = box.scenario
    pa = [_perm(rng, n) for n in s.alice]
    pb = [_perm(rng, n) for n in s.bob]
    return boxes.JointBox.from_function(
        s, lambda x, y, a, b: box.prob(x, y, pa[x][a], pb[y][b]))


def _relabeling(rng: random.Random, d: int) -> hardy.Relabeling:
    return hardy.Relabeling(
        rng.random() < 0.5, rng.random() < 0.5,
        (_perm(rng, d), _perm(rng, d)), (_perm(rng, d), _perm(rng, d)))


def _argument_from_json(data: dict, scenario: boxes.Scenario) -> hardy.HardyArgument:
    rel = data["relabeling"]
    relabeling = hardy.Relabeling(
        rel["alice_input_swap"], rel["bob_input_swap"],
        tuple(tuple(v - 1 for v in perm) for perm in rel["alice_outcome_perms"]),
        tuple(tuple(v - 1 for v in perm) for perm in rel["bob_outcome_perms"]))
    return hardy.HardyArgument(data["kind"], scenario, relabeling, parse_rational(data["p"]))


def check_family(box: boxes.JointBox, family, pn: Fraction) -> None:
    """PN is the total success mass of pairwise success-disjoint members."""
    claimed: set = set()
    total = Fraction(0)
    for member in family:
        total += hardy.evaluate_pp(box, member)
        cells = hardy.argument_events(member).success
        _expect(claimed.isdisjoint(cells), "family members share success cells")
        claimed |= cells
    _expect(total == pn, f"family mass {total} != pn {pn}")


# --- solve: the sweep ------------------------------------------------------

def _sweep_inputs(rng: random.Random, sizes) -> list:
    d_values, relabel_max = sizes
    case = []
    for d in d_values:
        s = boxes.Scenario.symmetric(d)
        draw = (lambda: _relabeling(rng, d)) if d <= relabel_max else hardy.Relabeling
        conventional, _ = hardy.build_argument(hardy.KIND_CONVENTIONAL, s, relabeling=draw())
        relaxed, _ = hardy.build_argument(hardy.KIND_RELAXED, s, relabeling=draw())
        identity, _ = hardy.build_argument(hardy.KIND_RELAXED, s)
        case.append((d, conventional, relaxed, identity))
    return case


def check_optimum(arg: hardy.HardyArgument, expected: Fraction, report) -> str:
    """Exact optimum, a valid witness, and the witness attaining it."""
    _expect(report.optimum == expected, f"optimum {report.optimum} != {expected}")
    valid = boxes.is_valid_box(report.witness)
    _expect(valid.ok, "witness invalid: " + "; ".join(valid.violations[:3]))
    pp = hardy.evaluate_pp(report.witness, arg)
    _expect(pp == report.optimum, f"witness success mass {pp} != optimum {report.optimum}")
    d = arg.scenario.min_outputs
    return f"{arg.kind} d={d} optimum={format_rational(report.optimum)}"


def _sweep_ops(case) -> list[Op]:
    ops = []
    found: dict[int, tuple] = {}
    for d, conventional, relaxed, identity in case:
        top = Fraction(d - 1, d)

        def attain(d=d, identity=identity):
            found[d] = hardy.attaining_nonlocal_vertex(identity)
            return found[d]

        def check_vertex(result, d=d, top=top, identity=identity):
            label, box, pp = result
            _expect(pp == top, f"vertex pp {pp} != {top}")
            valid = boxes.is_valid_box(box)
            _expect(valid.ok, "vertex invalid: " + "; ".join(valid.violations[:3]))
            _expect(hardy.evaluate_pp(box, identity) == pp, "vertex pp does not re-evaluate")
            return f"vertex d={d} label={tuple(label)} pp={format_rational(pp)}"

        def check_pn(result, d=d):
            _label, box, pp = found[d]
            _expect(result.pn == 1, f"pn {result.pn} != 1")
            _expect(result.pn - pp == Fraction(1, d), f"ppc {result.pn - pp} != 1/{d}")
            check_family(box, result.family, result.pn)
            return f"pn d={d} pn={format_rational(result.pn)} ppc={format_rational(result.pn - pp)}"

        ops += [
            Op(f"max_success_ns conventional d={d}",
               lambda a=conventional: hardy.max_success_ns(a),
               lambda r, a=conventional: check_optimum(a, Fraction(1, 2), r)),
            Op(f"max_success_ns relaxed d={d}",
               lambda a=relaxed: hardy.max_success_ns(a),
               lambda r, a=relaxed, top=top: check_optimum(a, top, r)),
            Op(f"attaining_nonlocal_vertex d={d}", attain, check_vertex),
            Op(f"compute_pn d={d}",
               lambda d=d, identity=identity: hardy.compute_pn(found[d][1], identity),
               check_pn),
        ]
    return ops


# --- pn_exhaustive ---------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_pn_output(box: boxes.JointBox, result: tuple[int, str]) -> str:
    """Exit 0 and the exact PP/PN/PPC of an attaining relaxed vertex."""
    code, stdout = result
    _expect(code == 0, f"exit code {code}")
    d = box.scenario.min_outputs
    payload = json.loads(stdout)
    for key, want in (("pp", Fraction(d - 1, d)), ("pn", Fraction(1)), ("ppc", Fraction(1, d))):
        _expect(payload[key] == format_rational(want), f"{key} {payload[key]} != {want}")
    base = _argument_from_json(payload["base"], box.scenario)
    _expect(hardy.evaluate_pp(box, base) == Fraction(d - 1, d), "base pp does not re-evaluate")
    family = [_argument_from_json(m, box.scenario) for m in payload["family"]]
    check_family(box, family, Fraction(1))
    return stdout


def _pn_inputs(rng: random.Random, sizes, workdir: Path, k: int, vertex_of) -> list:
    case = []
    for d in sizes:
        box = relabel_box(vertex_of(d), rng)
        path = workdir / f"pn_d{d}_{k}.json"
        path.write_text(boxes.box_to_json(box), encoding="utf-8")
        case.append((box, str(path)))
    return case


def _pn_ops(case) -> list[Op]:
    return [
        Op(f"cli pn --exhaustive-perms d={box.scenario.min_outputs}",
           lambda path=path: run_cli(["pn", path, "--kind", "relaxed", "--exhaustive-perms"]),
           lambda r, box=box: check_pn_output(box, r))
        for box, path in case
    ]


# --- solve: locality -------------------------------------------------------

def mixture(scenario: boxes.Scenario, rng: random.Random) -> boxes.JointBox:
    """A rational mixture of deterministic boxes: local by construction."""
    terms = []
    for _ in range(MIXTURE_TERMS):
        fa = tuple(rng.randrange(n) for n in scenario.alice)
        fb = tuple(rng.randrange(n) for n in scenario.bob)
        terms.append((rng.randint(1, 9), vertices.deterministic_box(scenario, fa, fb)))
    total = sum(w for w, _ in terms)
    table = [Fraction(0)] * scenario.num_coords
    for w, box in terms:
        for i, p in enumerate(box.table):
            if p:
                table[i] += Fraction(w, total) * p
    return boxes.JointBox(scenario, tuple(table))


def _locality_inputs(rng: random.Random, sizes) -> list:
    case = []
    for d, count in sizes["congruence"]:
        s = boxes.Scenario.symmetric(d)
        for _ in range(count):
            label = tuple(rng.randrange(d) for _ in range(3))
            case.append((f"congruence d={d}", relabel_box(vertices.nonlocal_vertex(s, label), rng),
                         False))
    for d, count in sizes["mixture"]:
        s = boxes.Scenario.symmetric(d)
        for _ in range(count):
            case.append((f"mixture d={d}", mixture(s, rng), True))
    d = sizes["uniform"]
    case.append((f"uniform d={d}", boxes.uniform_box(boxes.Scenario.symmetric(d)), True))
    return case


def check_verdict(expected: bool, verdict) -> str:
    _expect(verdict is expected, f"is_local {verdict!r}, expected {expected}")
    return f"local={verdict}"


def _locality_ops(case) -> list[Op]:
    return [
        Op(f"is_local {label}",
           lambda box=box: vertices.is_local(box),
           lambda r, expected=expected: check_verdict(expected, r))
        for label, box, expected in case
    ]


def build(name: str, seed: int, workdir: Path, size: str = "full") -> list[list[Op]]:
    """``PASS_INPUTS`` seeded op lists for one workload; writes box files to workdir."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    sizes = SIZES[size][name]
    if name == "solve":
        return [_sweep_ops(_sweep_inputs(rng, sizes["sweep"]))
                + _locality_ops(_locality_inputs(rng, sizes["locality"]))
                for _ in range(PASS_INPUTS)]
    vertex = {}

    def vertex_of(d):
        if d not in vertex:
            arg, _ = hardy.build_argument(hardy.KIND_RELAXED, boxes.Scenario.symmetric(d))
            vertex[d] = hardy.attaining_nonlocal_vertex(arg)[1]
        return vertex[d]

    return [_pn_ops(_pn_inputs(rng, sizes, workdir, k, vertex_of)) for k in range(PASS_INPUTS)]


def run_pass(ops: list[Op]) -> tuple[float, list[float], list]:
    """Run the ops back to back: (pass seconds, per-op seconds, results)."""
    results, times = [], []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            results.append(op.run())
        except Exception as exc:  # one failed operation must not stop the pass
            results.append(OpError(exc))
        times.append(perf_counter() - t0)
    return perf_counter() - start, times, results


def check_pass(ops: list[Op], results: list) -> tuple[list[str], list[str]]:
    """(canonical result texts, failure messages); each failure is one op."""
    texts, failures = [], []
    for op, result in zip(ops, results):
        try:
            if isinstance(result, OpError):
                raise CheckFailed(f"raised {result.exc!r}")
            texts.append(op.check(result))
        except Exception as exc:  # a check that cannot run counts as failed too
            failures.append(f"{op.label}: {exc!r}")
    return texts, failures


def measure(cases: list[list[Op]], seconds: float, tracer=None, before_unit=None) -> dict:
    """Closed-loop passes over the cases until another would overrun ``seconds``.

    An untimed warm-up pass over the first case comes first; its answers are
    checked and counted like the others. Then at least one timed pass runs,
    pass k over case k mod ``len(cases)``. With a tracer, each untraced pass
    is followed by a traced pass over the same inputs. Checks run after each
    pass, outside its timing and with the tracer off. ``before_unit``, if
    given, is called before each untraced pass (and its traced twin).
    """
    modes = (False, True) if tracer is not None else (False,)
    passes = []
    deadline = perf_counter() + seconds

    gc.collect()
    _wall, _times, results = run_pass(cases[0])
    texts, failures = check_pass(cases[0], results)
    attempted = len(cases[0])
    # the warm-up pass's exact results, so byte-identical output can be checked
    outputs = "\n".join(texts)

    longest = 0.0
    k = 1
    while not passes or perf_counter() + longest <= deadline:
        if before_unit is not None:
            before_unit()
        ops = cases[k % len(cases)]
        unit_start = perf_counter()
        for traced in modes:
            gc.collect()
            if traced:
                tracer.reset()
                tracer.active = True
            wall, times, results = run_pass(ops)
            if traced:
                tracer.active = False
            _texts, failed = check_pass(ops, results)
            attempted += len(ops)
            failures += failed
            record = {"traced": traced, "wall_s": wall, "op_s": times}
            if traced:
                record["layers"] = tracer.snapshot()
            passes.append(record)
        longest = max(longest, perf_counter() - unit_start)
        k += 1
    return {
        "passes": passes,
        "op_labels": [op.label for op in cases[0]],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "output_sha256": hashlib.sha256(outputs.encode("utf-8")).hexdigest(),
    }
