"""Two-party, two-input conditional probability boxes and their polytope.

A scenario fixes the outcome count of each of the four inputs (two per
party); a box is the flat table of exact probabilities P(a, b | x, y).
Outcome indices are 0-based internally; every external surface (JSON, CLI
text, violation labels) uses 1-based outcomes and 0-based inputs.

Coordinates are ordered lexicographically by (x, y, a, b). That single
bijection fixes the variable order of every linear program built here and
the serialization order of every table, so independently produced artifacts
line up index-for-index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .rationals import coerce_rational, format_rational, parse_rational

__all__ = [
    "PARTIES",
    "INPUT_PAIRS",
    "Scenario",
    "JointBox",
    "LinearCondition",
    "ConstraintSystem",
    "ValidationReport",
    "build_positivity",
    "build_normalization",
    "build_nosignaling",
    "polytope_system",
    "is_valid_box",
    "marginal",
    "polytope_dimension",
    "uniform_box",
    "box_to_json_dict",
    "box_from_json_dict",
    "box_to_json",
    "box_from_json",
]

PARTIES = ("A", "B")
INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Scenario:
    """Outcome counts per input: alice[x] and bob[y] for inputs x, y in {0, 1}."""

    alice: tuple[int, int]
    bob: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "alice", self._checked(self.alice, "alice"))
        object.__setattr__(self, "bob", self._checked(self.bob, "bob"))

    @staticmethod
    def _checked(counts, who: str) -> tuple[int, int]:
        counts = tuple(counts)
        if len(counts) != 2:
            raise ValueError(f"{who} needs outcome counts for exactly two inputs, got {counts!r}")
        for d in counts:
            if not isinstance(d, int) or isinstance(d, bool) or d < 2:
                raise ValueError(f"{who} outcome count must be an integer >= 2, got {d!r}")
        return counts

    @classmethod
    def symmetric(cls, d: int) -> "Scenario":
        return cls((d, d), (d, d))

    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "Scenario":
        dims = tuple(dims)
        if len(dims) != 4:
            raise ValueError(f"expected four outcome counts (a0, a1, b0, b1), got {dims!r}")
        return cls(dims[:2], dims[2:])

    def dims(self) -> tuple[int, int, int, int]:
        return self.alice + self.bob

    def outputs(self, party: str, x: int) -> int:
        if party not in PARTIES:
            raise ValueError(f"party must be 'A' or 'B', got {party!r}")
        if x not in (0, 1):
            raise ValueError(f"input must be 0 or 1, got {x!r}")
        return (self.alice if party == "A" else self.bob)[x]

    @property
    def min_outputs(self) -> int:
        """The reduced outcome count d: the minimum over all four inputs."""
        return min(self.alice + self.bob)

    @cached_property
    def _offsets(self) -> dict[tuple[int, int], int]:
        off, total = {}, 0
        for x, y in INPUT_PAIRS:
            off[(x, y)] = total
            total += self.alice[x] * self.bob[y]
        return off

    @property
    def num_coords(self) -> int:
        x, y = INPUT_PAIRS[-1]
        return self._offsets[(x, y)] + self.alice[x] * self.bob[y]

    def coord_index(self, x: int, y: int, a: int, b: int) -> int:
        """The bijection (x, y, a, b) -> flat index, lexicographic in (x, y, a, b)."""
        if x not in (0, 1) or y not in (0, 1):
            raise ValueError(f"inputs must be 0 or 1, got x={x!r}, y={y!r}")
        if not isinstance(a, int) or not 0 <= a < self.alice[x]:
            raise ValueError(
                f"outcome a={a!r} out of range for input x={x} ({self.alice[x]} outcomes, 0-based)")
        if not isinstance(b, int) or not 0 <= b < self.bob[y]:
            raise ValueError(
                f"outcome b={b!r} out of range for input y={y} ({self.bob[y]} outcomes, 0-based)")
        return self._offsets[(x, y)] + a * self.bob[y] + b

    def coords(self) -> Iterator[tuple[int, int, int, int]]:
        """All coordinates in flat-index order."""
        for x, y in INPUT_PAIRS:
            for a in range(self.alice[x]):
                for b in range(self.bob[y]):
                    yield (x, y, a, b)


@dataclass(frozen=True)
class JointBox:
    """An exact conditional probability table P(a, b | x, y) over a scenario.

    The table is flat, in coord_index order. Construction checks only shape
    and exactness; probabilistic validity (positivity, normalization,
    no-signaling) is the job of is_valid_box, so tampered tables can still be
    represented and diagnosed.
    """

    scenario: Scenario
    table: tuple[Fraction, ...]

    def __post_init__(self):
        table = tuple(coerce_rational(v) for v in self.table)
        if len(table) != self.scenario.num_coords:
            raise ValueError(
                f"incomplete table: {len(table)} entries for a scenario with "
                f"{self.scenario.num_coords} coordinates")
        object.__setattr__(self, "table", table)

    @classmethod
    def from_function(cls, scenario: Scenario, prob: Callable[[int, int, int, int], object]) -> "JointBox":
        return cls(scenario, tuple(prob(x, y, a, b) for (x, y, a, b) in scenario.coords()))

    def prob(self, x: int, y: int, a: int, b: int) -> Fraction:
        return self.table[self.scenario.coord_index(x, y, a, b)]


def uniform_box(scenario: Scenario) -> JointBox:
    """The maximally mixed box: 1 / (alice[x] * bob[y]) on every block."""
    return JointBox.from_function(
        scenario, lambda x, y, a, b: Fraction(1, scenario.alice[x] * scenario.bob[y]))


@dataclass(frozen=True)
class LinearCondition:
    """One labeled linear row over box coordinates: coeffs . p (= | <=) rhs.

    The row is sparse: coeffs holds its nonzero (index, coeff) pairs, sorted
    by coordinate index."""

    coeffs: tuple[tuple[int, Fraction], ...]
    rhs: Fraction
    relation: str  # "eq" or "le"
    label: str

    def evaluate(self, box: JointBox) -> Fraction:
        total = _ZERO
        for i, c in self.coeffs:
            p = box.table[i]
            if p:
                total += c * p
        return total

    def holds(self, box: JointBox) -> bool:
        v = self.evaluate(box)
        return v == self.rhs if self.relation == "eq" else v <= self.rhs


@dataclass(frozen=True)
class ConstraintSystem:
    """A labeled bundle of linear conditions over one scenario's coordinates.

    The variable order is the scenario's coord_index bijection; eq_rows and
    le_rows expand the sparse rows to the dense form the LP kernel takes.
    """

    scenario: Scenario
    conditions: tuple[LinearCondition, ...]

    def merge(self, *others: "ConstraintSystem") -> "ConstraintSystem":
        conds = list(self.conditions)
        for other in others:
            if other.scenario != self.scenario:
                raise ValueError("cannot merge constraint systems over different scenarios")
            conds.extend(other.conditions)
        return ConstraintSystem(self.scenario, tuple(conds))

    def _dense_rows(self, relation: str) -> list[tuple[list[Fraction], Fraction]]:
        rows = []
        for c in self.conditions:
            if c.relation == relation:
                row = [_ZERO] * self.scenario.num_coords
                for i, v in c.coeffs:
                    row[i] = v
                rows.append((row, c.rhs))
        return rows

    def eq_rows(self) -> list[tuple[list[Fraction], Fraction]]:
        return self._dense_rows("eq")

    def le_rows(self) -> list[tuple[list[Fraction], Fraction]]:
        return self._dense_rows("le")

    def violations(self, box: JointBox) -> list[str]:
        if box.scenario != self.scenario:
            raise ValueError("box and constraint system live on different scenarios")
        return [c.label for c in self.conditions if not c.holds(box)]


def _positivity_label(x: int, y: int, a: int, b: int) -> str:
    return f"positivity: P(a={a + 1}, b={b + 1} | x={x}, y={y}) >= 0"


def build_positivity(scenario: Scenario) -> ConstraintSystem:
    """One row -P(a, b | x, y) <= 0 per coordinate."""
    return ConstraintSystem(scenario, tuple(
        LinearCondition(((i, Fraction(-1)),), _ZERO, "le", _positivity_label(x, y, a, b))
        for i, (x, y, a, b) in enumerate(scenario.coords())))


def build_normalization(scenario: Scenario) -> ConstraintSystem:
    """One row per input pair: the block's entries sum to 1. Exactly 4 rows."""
    conds = []
    for x, y in INPUT_PAIRS:
        coeffs = tuple((scenario.coord_index(x, y, a, b), _ONE)
                       for a in range(scenario.alice[x]) for b in range(scenario.bob[y]))
        conds.append(LinearCondition(
            coeffs, _ONE, "eq", f"normalization: block (x={x}, y={y}) sums to 1"))
    return ConstraintSystem(scenario, tuple(conds))


def build_nosignaling(scenario: Scenario) -> ConstraintSystem:
    """Marginal-agreement rows, one per (input, outcome, ordered far-input pair).

    Both orientations of each equality are emitted and retained, keeping row
    indices aligned with this fixed catalog; downstream solvers tolerate the
    redundancy. All-dims-2 scenarios get 8 Alice rows and 8 Bob rows.
    """
    def row(near, far):
        return tuple(sorted([(i, _ONE) for i in near] + [(i, -_ONE) for i in far]))

    idx = scenario.coord_index
    conds = []
    for x in (0, 1):
        for a in range(scenario.alice[x]):
            for y_near, y_far in ((0, 1), (1, 0)):
                coeffs = row([idx(x, y_near, a, b) for b in range(scenario.bob[y_near])],
                             [idx(x, y_far, a, b) for b in range(scenario.bob[y_far])])
                conds.append(LinearCondition(
                    coeffs, _ZERO, "eq",
                    f"no-signaling: P(a={a + 1} | x={x}) via y={y_near} equals via y={y_far}"))
    for y in (0, 1):
        for b in range(scenario.bob[y]):
            for x_near, x_far in ((0, 1), (1, 0)):
                coeffs = row([idx(x_near, y, a, b) for a in range(scenario.alice[x_near])],
                             [idx(x_far, y, a, b) for a in range(scenario.alice[x_far])])
                conds.append(LinearCondition(
                    coeffs, _ZERO, "eq",
                    f"no-signaling: P(b={b + 1} | y={y}) via x={x_near} equals via x={x_far}"))
    return ConstraintSystem(scenario, tuple(conds))


def polytope_system(scenario: Scenario) -> ConstraintSystem:
    """Normalization plus no-signaling (the equality part of the polytope)."""
    return build_normalization(scenario).merge(build_nosignaling(scenario))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_valid_box(box: JointBox) -> ValidationReport:
    """Exact membership check: positivity, normalization, no-signaling.

    Violations are reported with the same labels the constraint builders use.
    Positivity is scanned directly over the table.
    """
    violations = []
    for (x, y, a, b), p in zip(box.scenario.coords(), box.table):
        if p < 0:
            violations.append(_positivity_label(x, y, a, b))
    violations.extend(polytope_system(box.scenario).violations(box))
    return ValidationReport(not violations, tuple(violations))


def marginal(box: JointBox, party: str, x: int, outcome: int, far_input: int = 0) -> Fraction:
    """One party's marginal P(outcome | input), summed on a chosen far input.

    For a valid box the result is independent of far_input; the parameter
    exists so that independence can be tested rather than assumed.
    """
    s = box.scenario
    n_own = s.outputs(party, x)
    if not isinstance(outcome, int) or not 0 <= outcome < n_own:
        raise ValueError(
            f"outcome {outcome!r} out of range for party {party} input {x} ({n_own} outcomes, 0-based)")
    if far_input not in (0, 1):
        raise ValueError(f"far_input must be 0 or 1, got {far_input!r}")
    total = _ZERO
    if party == "A":
        for b in range(s.bob[far_input]):
            total += box.prob(x, far_input, outcome, b)
    else:
        for a in range(s.alice[far_input]):
            total += box.prob(far_input, x, a, outcome)
    return total


def polytope_dimension(scenario: Scenario) -> int:
    """Affine dimension of the no-signaling polytope over the scenario."""
    blocks = sum(scenario.alice[x] * scenario.bob[y] for x, y in INPUT_PAIRS)
    return blocks - sum(scenario.alice) - sum(scenario.bob)


def box_to_json_dict(box: JointBox) -> dict:
    """Wire form: 1-based outcomes, 0-based inputs, "num/den" probabilities."""
    s = box.scenario
    return {
        "scenario": {"dA": list(s.alice), "dB": list(s.bob)},
        "table": [
            {"x": x, "y": y, "a": a + 1, "b": b + 1,
             "p": format_rational(box.table[s.coord_index(x, y, a, b)])}
            for (x, y, a, b) in s.coords()
        ],
    }


def box_from_json_dict(data) -> JointBox:
    """Strict parse of the wire form: every coordinate exactly once.

    Validity is not enforced here; tampered boxes must load so they can be
    diagnosed by is_valid_box.
    """
    if not isinstance(data, dict):
        raise ValueError(f"box JSON: expected an object, got {type(data).__name__}")
    sc = data.get("scenario")
    if not isinstance(sc, dict) or "dA" not in sc or "dB" not in sc:
        raise ValueError("box JSON: 'scenario' must be an object with 'dA' and 'dB'")
    try:
        scenario = Scenario(tuple(sc["dA"]), tuple(sc["dB"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"box JSON: bad scenario: {exc}") from exc
    entries = data.get("table")
    if not isinstance(entries, list):
        raise ValueError("box JSON: 'table' must be a list of cell objects")
    table: list = [None] * scenario.num_coords
    for k, cell in enumerate(entries):
        if not isinstance(cell, dict):
            raise ValueError(f"box JSON: table entry {k} is not an object")
        missing = [key for key in ("x", "y", "a", "b", "p") if key not in cell]
        if missing:
            raise ValueError(f"box JSON: table entry {k} lacks keys {missing}")
        x, y, a, b = cell["x"], cell["y"], cell["a"], cell["b"]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (x, y, a, b)):
            raise ValueError(f"box JSON: table entry {k} has non-integer coordinates")
        try:
            idx = scenario.coord_index(x, y, a - 1, b - 1)
        except ValueError as exc:
            raise ValueError(f"box JSON: table entry {k}: {exc}") from exc
        if table[idx] is not None:
            raise ValueError(
                f"box JSON: duplicate cell (x={x}, y={y}, a={a}, b={b})")
        try:
            table[idx] = parse_rational(cell["p"])
        except ValueError as exc:
            raise ValueError(f"box JSON: table entry {k}: {exc}") from exc
    absent = sum(1 for v in table if v is None)
    if absent:
        raise ValueError(f"box JSON: incomplete table, {absent} of {scenario.num_coords} cells missing")
    return JointBox(scenario, tuple(table))


def box_to_json(box: JointBox) -> str:
    return json.dumps(box_to_json_dict(box), indent=2)


def box_from_json(text: str) -> JointBox:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"box JSON: not valid JSON: {exc}") from exc
    return box_from_json_dict(data)
