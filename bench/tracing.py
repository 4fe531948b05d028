"""Per-layer timing of nsbox from outside the package.

Each traced function is wrapped once and the wrapper is bound under every
name the package's modules see it by (``nsbox.hardy.solve_max``,
``nsbox.vertices.solve_max``, ``nsbox.lp.solve_max`` ...), so calls between
modules and within one module both pass through it. Nothing under ``src/``
changes.

Only public functions with low call counts are wrapped. ``Fraction``
arithmetic and ``JointBox.prob`` (called 10^5 to 10^7 times per operation)
stay unwrapped, so their cost lands in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import nsbox
import nsbox.cli  # the package __init__ does not import the CLI module
from nsbox import lp as _lp

# (defining module, function); the span name is "<module>.<function>".
TRACED = (
    ("lp", "solve_max"),
    ("boxes", "polytope_system"),
    ("boxes", "is_valid_box"),
    ("boxes", "box_from_json"),
    ("hardy", "ns_program"),
    ("hardy", "max_success_ns"),
    ("hardy", "compute_pn"),
    ("hardy", "best_satisfied_argument"),
    ("hardy", "evaluate_pp"),
    ("hardy", "attaining_nonlocal_vertex"),
    ("vertices", "is_local"),
    ("vertices", "convex_decomposition"),
    ("vertices", "nonlocal_vertex"),
    ("cli", "main"),
)

MODULES = ("lp", "boxes", "hardy", "vertices", "cli")


def span_names() -> list[str]:
    return [f"{module}.{func}" for module, func in TRACED]


class Tracer:
    """Spans kept as running totals per name: calls and self time, plus the
    longest call and the program shapes of ``lp.solve_max``.

    Self time is a span's duration minus the time its wrapped children took.
    The load is single-threaded, so one stack of open spans suffices. While
    ``active`` is false the wrappers only forward the call, which keeps the
    benchmark's own correctness checks out of the counts.
    """

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.lp_max_s = 0.0
        self.lp_vars_max = 0
        self.lp_rows_max = 0
        self.lp_infeasible = 0

    def snapshot(self) -> dict:
        out = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out["lp.solve_max.max_s"] = self.lp_max_s
        out["lp.solve_max.vars_max"] = self.lp_vars_max
        out["lp.solve_max.rows_max"] = self.lp_rows_max
        out["lp.solve_max.infeasible"] = self.lp_infeasible
        return out

    def _wrap(self, span: str, fn):
        stack = self._stack
        is_lp = span == "lp.solve_max"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self.calls[span] += 1
                self.self_s[span] += took - children[0]
            if is_lp:
                self._record_lp(args[0] if args else kwargs["lp"], result, took)
            return result

        return wrapper

    def _record_lp(self, program, result, took: float) -> None:
        rows = len(program.eq_constraints) + len(program.ineq_constraints)
        self.lp_max_s = max(self.lp_max_s, took)
        self.lp_vars_max = max(self.lp_vars_max, program.num_vars)
        self.lp_rows_max = max(self.lp_rows_max, rows)
        if result.status is _lp.LpStatus.INFEASIBLE:
            self.lp_infeasible += 1

    def install(self) -> None:
        """Bind a wrapper under every package name that refers to a traced function."""
        modules = [nsbox] + [sys.modules[f"nsbox.{m}"] for m in MODULES]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"nsbox.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
