"""Command-line interface.

Subcommands: optimize (exact optimum of an argument under a regime), sweep
(CSV of optima and vertex PPC across symmetric outcome counts), vertices
(closed-form extremal boxes as JSON lines), verify (validity and PP/PN/PPC
of a box file), pn (the PN family of a box file as JSON).

All probabilities print as exact "num/den" strings; CSV adds decimal
approximation columns for plotting. Outcomes are 1-based and inputs 0-based
on every surface. Output is byte-deterministic for identical invocations.

Exit status: 0 on success; 1 for an unreadable or invalid box, pn with no
satisfied relabeling, or an unwritable sweep --out; 2 for a usage error or a
refused value or budget (main maps the library's ValueError to it).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .boxes import (
    JointBox,
    Scenario,
    box_from_json,
    box_to_json_dict,
    is_valid_box,
)
from .hardy import (
    ArgumentNotSatisfied,
    HARDY_QUANTUM_OPTIMUM,
    HardyArgument,
    KIND_CONVENTIONAL,
    KIND_RELAXED,
    attaining_nonlocal_vertex,
    best_argument_with_pn,
    build_argument,
    compute_pn,
    evaluate_pp,
    max_success_lhv,
    max_success_ns,
)
from .rationals import format_rational, parse_rational
from .vertices import LocalLabel, enumerate_vertices

__all__ = ["main"]

# Largest outcome count sweep accepts: the LPs grow quickly with d.
_SWEEP_CAP = 16


def _dims_flag(text: str) -> Scenario:
    parts = text.split(",")
    try:
        dims = [int(p) for p in parts]
        return Scenario.from_dims(dims)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --dims {text!r}: {exc}") from exc


def _p_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --p {text!r}: {exc}") from exc


def _relabeling_json_dict(arg: HardyArgument) -> dict:
    aperms, bperms = arg.relabeling.resolved(arg.scenario)
    return {
        "alice_input_swap": arg.relabeling.alice_input_swap,
        "bob_input_swap": arg.relabeling.bob_input_swap,
        "alice_outcome_perms": [[v + 1 for v in perm] for perm in aperms],
        "bob_outcome_perms": [[v + 1 for v in perm] for perm in bperms],
    }


def _argument_json_dict(arg: HardyArgument) -> dict:
    return {
        "kind": arg.kind,
        "dims": list(arg.scenario.dims()),
        "p": format_rational(arg.last_condition_bound),
        "relabeling": _relabeling_json_dict(arg),
    }


def _load_box(path: str) -> JointBox | None:
    """The box in the file at path, or None once its error is printed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return box_from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_optimize(args) -> int:
    arg, _events = build_argument(args.kind, args.dims, args.p)
    report = max_success_ns(arg) if args.regime == "ns" else max_success_lhv(arg)
    print(json.dumps({
        "argument": _argument_json_dict(report.argument),
        "regime": report.regime,
        "optimum": format_rational(report.optimum),
        "witness": box_to_json_dict(report.witness),
    }, indent=2))
    return 0


def cmd_vertices(args) -> int:
    for label, box in enumerate_vertices(args.dims, args.kind):
        kind = "local" if isinstance(label, LocalLabel) else "nonlocal"
        line = {"kind": kind, "label": list(label), "box": box_to_json_dict(box)}
        print(json.dumps(line, separators=(",", ":")))
    return 0


def _decimal(q: Fraction) -> str:
    """q to 12 significant digits in the layout of the "%.12g" format, by
    exact integer rounding (ties to even)."""
    if not q:
        return "0"
    sign, q = "-" if q < 0 else "", abs(q)
    # e is the exponent of the leading digit: 10**e <= q < 10**(e + 1)
    e = len(str(q.numerator)) - len(str(q.denominator))
    if q < Fraction(10) ** e:
        e -= 1
    digits = round(q / Fraction(10) ** (e - 11))
    if digits == 10**12:
        digits, e = 10**11, e + 1
    text = str(digits)
    if e < -4 or e >= 12:
        mantissa = f"{text[0]}.{text[1:]}".rstrip("0").rstrip(".")
        return f"{sign}{mantissa}e{e:+03d}"
    if e < 0:
        text = "0" * -e + text
        e = 0
    return sign + f"{text[:e + 1]}.{text[e + 1:]}".rstrip("0").rstrip(".")


def _sweep_csv(d_min: int, d_max: int) -> str:
    """The sweep's CSV, one row per symmetric outcome count d: both
    arguments' no-signaling optima by fresh LP solves, the attaining
    congruence vertex's PPC via the relabeling search, each exact and then
    in decimal, and the quantum reference (d = 2 only)."""
    lines = ["d,q_H_gnst,q_RH_gnst,PPC_gnst,q_H_gnst_dec,q_RH_gnst_dec,PPC_gnst_dec,quantum_ref"]
    for d in range(d_min, d_max + 1):
        scenario = Scenario.symmetric(d)
        relaxed = HardyArgument(KIND_RELAXED, scenario)
        values = [max_success_ns(HardyArgument(KIND_CONVENTIONAL, scenario)).optimum,
                  max_success_ns(relaxed).optimum]
        _label, vertex_box, pp = attaining_nonlocal_vertex(relaxed)
        values.append(compute_pn(vertex_box, relaxed).pn - pp)
        ref = _decimal(HARDY_QUANTUM_OPTIMUM) if d == 2 else ""
        lines.append(",".join([str(d), *map(format_rational, values), *map(_decimal, values), ref]))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    if not 2 <= args.d_min <= args.d_max <= _SWEEP_CAP:
        raise ValueError(f"need 2 <= d-min <= d-max <= cap ({_SWEEP_CAP}), "
                         f"got d-min={args.d_min}, d-max={args.d_max}")
    if args.out == "-":
        sys.stdout.write(_sweep_csv(args.d_min, args.d_max))
        return 0
    try:  # opened before any LP is solved, so an unwritable path fails at once
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(_sweep_csv(args.d_min, args.d_max))
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    box = _load_box(args.box)
    if box is None:
        return 1
    identity_arg, _ = build_argument(args.kind, box.scenario, args.p)  # refuses a bad --p
    report = is_valid_box(box)
    if not report.ok:
        print("valid: no")
        for label in report.violations:
            print(f"violated: {label}")
        return 1
    best = best_argument_with_pn(box, args.kind, args.p, args.exhaustive_perms)
    print("valid: yes")  # after the search, which may refuse its budget
    print(f"kind: {args.kind}")
    if best is None:
        try:
            evaluate_pp(box, identity_arg)
        except ArgumentNotSatisfied as exc:
            print(f"pp: not satisfied ({exc})")
            return 0
        raise RuntimeError("internal error: identity argument satisfied but not found by search")
    arg, pp, result = best
    print(f"pp: {format_rational(pp)}")
    print(f"pn: {format_rational(result.pn)}")
    print(f"ppc: {format_rational(result.pn - pp)}")
    print(f"relabeling: {json.dumps(_relabeling_json_dict(arg))}")
    return 0


def cmd_pn(args) -> int:
    box = _load_box(args.box)
    if box is None:
        return 1
    build_argument(args.kind, box.scenario, args.p)  # refuses a bad --p
    report = is_valid_box(box)
    if not report.ok:
        for label in report.violations:
            print(f"violated: {label}", file=sys.stderr)
        return 1
    best = best_argument_with_pn(box, args.kind, args.p, args.exhaustive_perms)
    if best is None:
        print(f"error: no satisfied {args.kind} relabeling for this box", file=sys.stderr)
        return 1
    arg, pp, result = best
    payload = {
        "base": _argument_json_dict(arg),
        "pp": format_rational(pp),
        "pn": format_rational(result.pn),
        "ppc": format_rational(result.pn - pp),
        "family": [_argument_json_dict(member) for member in result.family],
    }
    print(json.dumps(payload, indent=2))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call in a process can share it."""
    parser = argparse.ArgumentParser(
        prog="nsbox",
        description="Exact no-signaling boxes and Hardy-type paradox optima.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kind(p):
        p.add_argument("--kind", required=True, choices=[KIND_CONVENTIONAL, KIND_RELAXED])

    def add_p(p):
        p.add_argument("--p", type=_p_flag, default=Fraction(0),
                       help="bound on the last condition (relaxed kind only), e.g. 1/10")

    p_opt = sub.add_parser("optimize", help="exact optimum of an argument under a regime")
    add_kind(p_opt)
    p_opt.add_argument("--dims", required=True, type=_dims_flag,
                       help="outcome counts a0,a1,b0,b1 (e.g. 3,3,3,3)")
    add_p(p_opt)
    p_opt.add_argument("--regime", choices=["ns", "lhv"], default="ns")
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="CSV across symmetric outcome counts")
    p_sweep.add_argument("--d-min", type=int, default=2)
    p_sweep.add_argument("--d-max", type=int, default=6)
    p_sweep.add_argument("--out", default="-", help="output path, or - for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_vert = sub.add_parser("vertices", help="closed-form extremal boxes as JSON lines")
    p_vert.add_argument("--dims", required=True, type=_dims_flag)
    p_vert.add_argument("--kind", choices=["local", "nonlocal", "all"], default="all")
    p_vert.set_defaults(func=cmd_vertices)

    for name, func, text in (("verify", cmd_verify, "validity and PP/PN/PPC of a box file"),
                             ("pn", cmd_pn, "PN family of a box file as JSON")):
        p_box = sub.add_parser(name, help=text)
        p_box.add_argument("box", help="path to a box JSON file")
        add_kind(p_box)
        add_p(p_box)
        p_box.add_argument("--exhaustive-perms", action="store_true",
                           help="search every outcome permutation instead of shifts and "
                                "reversals (up to 7 outcomes per input)")
        p_box.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # refused input: a bad value or a budget exceeded
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
