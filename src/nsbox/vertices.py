"""Extremal boxes of the two-input no-signaling polytope.

Two closed-form families, both indexed over the reduced outcome range
d = min over the four inputs (outcomes at index >= d carry probability 0):

* local (deterministic) boxes: each party answers an affine function of its
  own input, a = (a_slope * x + a_offset) mod d and likewise for b;
* nonlocal (congruence) boxes: uniform weight 1/d on the cells of each block
  whose outcome difference satisfies
  (b - a) mod d = (x*y + x_coeff*x + y_coeff*y + shift) mod d.

Also provides the exact locality decision (an LP over the triangulated
marginal problem of Fine's theorem, at most 2 * d^3 columns where the
deterministic strategies number d^4) and exact convex decomposition over
arbitrary candidate boxes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .boxes import JointBox, Scenario, is_valid_box
from .lp import LinearProgram, LpStatus, solve_max

__all__ = [
    "LocalLabel",
    "NonlocalLabel",
    "local_vertex",
    "nonlocal_vertex",
    "enumerate_vertices",
    "deterministic_box",
    "deterministic_strategies",
    "is_local",
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


def nonlocal_vertex(scenario: Scenario, label) -> JointBox:
    """The congruence box: weight 1/d on one outcome-difference class per block."""
    x_coeff, y_coeff, shift = _checked_label(scenario, label, 3)
    d = scenario.min_outputs
    weight = Fraction(1, d)

    def prob(x, y, a, b):
        if a < d and b < d and (b - a) % d == (x * y + x_coeff * x + y_coeff * y + shift) % d:
            return weight
        return _ZERO

    return JointBox.from_function(scenario, prob)


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
    """The deterministic box answering alice_outputs[x] and bob_outputs[y]:
    one int answer per input, within that input's outcome count."""
    alice_outputs = tuple(alice_outputs)
    bob_outputs = tuple(bob_outputs)
    for who, answers, counts in (("alice", alice_outputs, scenario.alice),
                                 ("bob", bob_outputs, scenario.bob)):
        if len(answers) != 2:
            raise ValueError(f"{who} needs one answer per input, got {answers!r}")
        for x, (v, n) in enumerate(zip(answers, counts)):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValueError(f"{who} answer for input {x} must be an integer in 0..{n - 1}, "
                                 f"got {v!r}")

    def prob(x, y, a, b):
        return _ONE if a == alice_outputs[x] and b == bob_outputs[y] else _ZERO

    return JointBox.from_function(scenario, prob)


def convex_decomposition(box: JointBox, candidates: Sequence[JointBox]) -> Optional[tuple[Fraction, ...]]:
    """Exact convex weights over candidates reproducing box, or None.

    The feasibility program has one column per candidate (its nonzero
    probabilities) and one row per coordinate plus the weights' sum. The
    weights come from a basic feasible solution, so at most num_coords + 1
    of them are nonzero.
    """
    candidates = list(candidates)
    if not candidates:
        return None
    rows: list[list[tuple[int, Fraction]]] = [[] for _ in box.table]
    for k, cand in enumerate(candidates):
        if cand.scenario != box.scenario:
            raise ValueError("decomposition candidates must share the box's scenario")
        for i, v in enumerate(cand.table):
            if v:
                rows[i].append((k, v))
    n = len(candidates)
    eq = list(zip(rows, box.table)) + [([(k, 1) for k in range(n)], 1)]
    return solve_max(LinearProgram(n, [_ZERO] * n, eq, [])).solution  # None unless OPTIMAL


def is_local(box: JointBox) -> bool:
    """Exact locality decision: membership in the convex hull of all
    deterministic strategies (full outcome ranges, not just the first d).

    Fine's theorem: a two-input box is local iff some joint distribution of
    (a0, a1, b0, b1) has the four blocks as its pairwise marginals. The chord
    a0-a1 triangulates the cycle a0-b0-a1-b1, so one exists iff tables
    P0(a0, a1, b0) >= 0 for blocks (0, 0), (1, 0) and P1(a0, a1, b1) >= 0 for
    blocks (0, 1), (1, 1) agree on their (a0, a1) marginal Q (the joint is
    then P0 * P1 / Q). One column per entry P_y(a0, a1, b) whose two cells
    are positive, in (y, a0, a1, b) order: +1 in both cells' rows, +1 (y = 0)
    or -1 (y = 1) in the row of (a0, a1). Rows: the positive cells in
    coordinate order, then the (a0, a1) pairs with rhs 0 (each block sums to
    1 already). A congruence vertex is found nonlocal by the presolve."""
    report = is_valid_box(box)
    if not report:
        raise ValueError("invalid box: " + "; ".join(report.violations[:3]))
    s = box.scenario
    cells = [i for i, q in enumerate(box.table) if q]
    row_of = {i: r for r, i in enumerate(cells)}

    def support(x, y):
        """Per outcome a, {b: row} of block (x, y)'s positive cells."""
        start = s.coord_index(x, y, 0, 0)
        return [{b: row_of[start + a * s.bob[y] + b] for b, q in enumerate(row) if q}
                for a, row in enumerate(box.block(x, y))]

    na0, na1 = s.alice
    rows: list[list[tuple[int, int]]] = [[] for _ in range(len(cells) + na0 * na1)]
    k = 0
    for y, sign in ((0, 1), (1, -1)):
        first, second = support(0, y), support(1, y)
        for a0 in range(na0):
            for a1 in range(na1):
                marginal_row = rows[len(cells) + a0 * na1 + a1]
                for b, r0 in first[a0].items():
                    r1 = second[a1].get(b)
                    if r1 is not None:
                        rows[r0].append((k, 1))
                        rows[r1].append((k, 1))
                        marginal_row.append((k, sign))
                        k += 1
    rhs = [box.table[i] for i in cells] + [0] * (na0 * na1)
    program = LinearProgram(k, [0] * k, list(zip(rows, rhs)), [])
    return solve_max(program).status is LpStatus.OPTIMAL
