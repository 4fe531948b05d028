"""Extremal boxes of the two-input no-signaling polytope.

Two closed-form families, both indexed over the reduced outcome range
d = min over the four inputs (outcomes at index >= d carry probability 0):

* local (deterministic) boxes: each party answers an affine function of its
  own input, a = (a_slope * x + a_offset) mod d and likewise for b;
* nonlocal (congruence) boxes: uniform weight 1/d on the cells of each block
  whose outcome difference satisfies
  (b - a) mod d = (x*y + x_coeff*x + y_coeff*y + shift) mod d.

Also provides the exact locality decision (an LP over the deterministic
strategies that fit the box's support), zero-padding embeddings between
scenarios, and exact convex decomposition over arbitrary candidate boxes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .boxes import INPUT_PAIRS, JointBox, Scenario, is_valid_box
from .lp import LinearProgram, LpStatus, solve_max

__all__ = [
    "LocalLabel",
    "NonlocalLabel",
    "local_vertex",
    "nonlocal_vertex",
    "nonlocal_entry_fn",
    "enumerate_vertices",
    "deterministic_box",
    "deterministic_strategies",
    "is_local",
    "embed",
    "convex_decomposition",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LocalLabel(NamedTuple):
    a_slope: int
    a_offset: int
    b_slope: int
    b_offset: int


class NonlocalLabel(NamedTuple):
    x_coeff: int
    y_coeff: int
    shift: int


def _checked_label(scenario: Scenario, label, length: int) -> tuple[int, ...]:
    label = tuple(label)
    if len(label) != length:
        raise ValueError(f"label needs {length} components, got {label!r}")
    d = scenario.min_outputs
    for v in label:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < d:
            raise ValueError(f"label component {v!r} out of range 0..{d - 1}")
    return label


def local_vertex(scenario: Scenario, label) -> JointBox:
    """The deterministic box with affine-in-input answers over the first d outcomes."""
    a_slope, a_offset, b_slope, b_offset = _checked_label(scenario, label, 4)
    d = scenario.min_outputs
    return deterministic_box(scenario, (a_offset, (a_slope + a_offset) % d),
                             (b_offset, (b_slope + b_offset) % d))


def nonlocal_entry_fn(scenario: Scenario, label) -> Callable[[int, int, int, int], Fraction]:
    """Closed-form entry evaluator for a congruence box (validated once).

    Useful for scanning many labels without materializing each table.
    """
    x_coeff, y_coeff, shift = _checked_label(scenario, label, 3)
    d = scenario.min_outputs
    weight = Fraction(1, d)

    def prob(x, y, a, b):
        if a < d and b < d and (b - a) % d == (x * y + x_coeff * x + y_coeff * y + shift) % d:
            return weight
        return _ZERO

    return prob


def nonlocal_vertex(scenario: Scenario, label) -> JointBox:
    """The congruence box: weight 1/d on one outcome-difference class per block."""
    return JointBox.from_function(scenario, nonlocal_entry_fn(scenario, label))


def enumerate_vertices(scenario: Scenario, kind: str = "all"):
    """(label, box) pairs in lexicographic label order, locals before nonlocals.

    Every label gives a distinct table: local labels map one-to-one onto
    each party's answers (offset, slope + offset) mod d, nonlocal labels onto
    the difference classes of blocks (0, 0), (0, 1) and (1, 0), and local
    tables hold 1s where nonlocal ones hold 1/d. Labels are LocalLabel /
    NonlocalLabel named tuples, so the family is recoverable from the label
    type.
    """
    if kind not in ("local", "nonlocal", "all"):
        raise ValueError(f"kind must be 'local', 'nonlocal' or 'all', got {kind!r}")
    d = scenario.min_outputs
    out: list[tuple[tuple[int, ...], JointBox]] = []
    if kind in ("local", "all"):
        out += [(LocalLabel(*label), local_vertex(scenario, label))
                for label in itertools.product(range(d), repeat=4)]
    if kind in ("nonlocal", "all"):
        out += [(NonlocalLabel(*label), nonlocal_vertex(scenario, label))
                for label in itertools.product(range(d), repeat=3)]
    return out


def deterministic_strategies(scenario: Scenario) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """All deterministic answer pairs ((a(0), a(1)), (b(0), b(1))), full outcome
    ranges, in lexicographic order."""
    for a0 in range(scenario.alice[0]):
        for a1 in range(scenario.alice[1]):
            for b0 in range(scenario.bob[0]):
                for b1 in range(scenario.bob[1]):
                    yield ((a0, a1), (b0, b1))


def deterministic_box(scenario: Scenario, alice_outputs, bob_outputs) -> JointBox:
    """The deterministic box answering alice_outputs[x] and bob_outputs[y]."""
    alice_outputs = tuple(alice_outputs)
    bob_outputs = tuple(bob_outputs)
    for x in (0, 1):
        if not 0 <= alice_outputs[x] < scenario.alice[x]:
            raise ValueError(f"alice answer {alice_outputs[x]!r} out of range for input {x}")
        if not 0 <= bob_outputs[x] < scenario.bob[x]:
            raise ValueError(f"bob answer {bob_outputs[x]!r} out of range for input {x}")

    def prob(x, y, a, b):
        return _ONE if a == alice_outputs[x] and b == bob_outputs[y] else _ZERO

    return JointBox.from_function(scenario, prob)


def _mixture_lp(columns: Sequence[Sequence[tuple[int, int | Fraction]]], target: JointBox) -> LinearProgram:
    """Feasibility program: convex weights over columns, each a candidate's
    nonzero (coordinate index, probability) pairs, reproducing target."""
    n = len(columns)
    rows: list[list[tuple[int, int | Fraction]]] = [[] for _ in target.table]
    for k, column in enumerate(columns):
        for i, v in column:
            rows[i].append((k, v))
    eq = list(zip(rows, target.table)) + [([(k, 1) for k in range(n)], 1)]
    return LinearProgram(n, [_ZERO] * n, eq, [])


def convex_decomposition(box: JointBox, candidates: Sequence[JointBox]) -> Optional[tuple[Fraction, ...]]:
    """Exact convex weights over candidates reproducing box, or None.

    The weights come from a basic feasible solution, so at most
    num_coords + 1 of them are nonzero.
    """
    candidates = list(candidates)
    if not candidates:
        return None
    for cand in candidates:
        if cand.scenario != box.scenario:
            raise ValueError("decomposition candidates must share the box's scenario")
    columns = [[(i, v) for i, v in enumerate(cand.table) if v] for cand in candidates]
    return solve_max(_mixture_lp(columns, box)).solution  # None unless OPTIMAL


def is_local(box: JointBox) -> bool:
    """Exact locality decision: membership in the convex hull of all
    deterministic strategies (full outcome ranges, not just the first d).
    A strategy hitting a zero cell has weight 0 in every mixture, so the
    mixture program gets a column (four cells of weight 1) only for each
    strategy whose four cells are positive, in lexicographic order: the
    program that the presolve would leave of the full d^4-column one. A
    congruence vertex gets no column, and no tableau."""
    report = is_valid_box(box)
    if not report:
        raise ValueError("invalid box: " + "; ".join(report.violations[:3]))
    s = box.scenario

    def support(x, y):
        """Per outcome a, {b: flat index} of block (x, y)'s positive cells."""
        start = s.coord_index(x, y, 0, 0)
        return [{b: start + a * s.bob[y] + b for b, q in enumerate(row) if q}
                for a, row in enumerate(box.block(x, y))]

    s00, s01, s10, s11 = (support(x, y) for x, y in INPUT_PAIRS)
    columns = []
    for a0 in range(s.alice[0]):
        for a1 in range(s.alice[1]):
            for b0, i00 in s00[a0].items():
                i10 = s10[a1].get(b0)
                if i10 is None:
                    continue
                for b1, i01 in s01[a0].items():
                    i11 = s11[a1].get(b1)
                    if i11 is not None:
                        columns.append(((i00, 1), (i01, 1), (i10, 1), (i11, 1)))
    return solve_max(_mixture_lp(columns, box)).status is LpStatus.OPTIMAL


def embed(box: JointBox, target: Scenario) -> JointBox:
    """Zero-pad a box into a larger scenario; extra outcomes get probability 0."""
    src = box.scenario
    for x in (0, 1):
        if target.alice[x] < src.alice[x] or target.bob[x] < src.bob[x]:
            raise ValueError(
                f"embedding cannot shrink outcome counts: {src.dims()} -> {target.dims()}")

    def prob(x, y, a, b):
        if a < src.alice[x] and b < src.bob[y]:
            return box.prob(x, y, a, b)
        return _ZERO

    return JointBox.from_function(target, prob)
