"""Two-party, two-input conditional probability boxes and their polytope.

A scenario fixes the outcome count of each of the four inputs (two per
party); a box is the flat table of exact probabilities P(a, b | x, y).
Outcome indices are 0-based internally; every external surface (JSON, CLI
text, violation labels) uses 1-based outcomes and 0-based inputs.

Coordinates are ordered lexicographically by (x, y, a, b). That single
bijection fixes the variable order of every linear program built here and
the serialization order of every table, so independently produced artifacts
line up index-for-index. Each polytope condition is one labeled row of
polytope_system, the one statement of the polytope: the LP reads its
equality rows, and validation reports a broken row once, under its label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterator, Sequence

from .rationals import coerce_rational, format_rational, parse_rational

__all__ = [
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
    "polytope_dimension",
    "uniform_box",
    "box_to_json_dict",
    "box_from_json_dict",
    "box_to_json",
    "box_from_json",
]

INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


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
        if type(x) is not int or type(y) is not int or x not in (0, 1) or y not in (0, 1):
            raise ValueError(f"inputs must be 0 or 1, got x={x!r}, y={y!r}")
        if type(a) is not int or not 0 <= a < self.alice[x]:
            raise ValueError(
                f"outcome a={a!r} out of range for input x={x} ({self.alice[x]} outcomes, 0-based)")
        if type(b) is not int or not 0 <= b < self.bob[y]:
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

    def block(self, x: int, y: int) -> tuple[tuple[Fraction, ...], ...]:
        """Block (x, y) as rows: row a holds P(a, b | x, y) for every b, a
        slice of the table at the block's offset. The inputs are checked
        once, not per cell as prob does."""
        s = self.scenario
        if type(x) is not int or type(y) is not int or x not in (0, 1) or y not in (0, 1):
            raise ValueError(f"inputs must be 0 or 1, got x={x!r}, y={y!r}")
        start, nb = s._offsets[(x, y)], s.bob[y]
        return tuple(self.table[start + a * nb:start + (a + 1) * nb] for a in range(s.alice[x]))

    @cached_property
    def _report(self) -> "ValidationReport":
        violations = polytope_system(self.scenario).violations(self)
        return ValidationReport(not violations, tuple(violations))


def uniform_box(scenario: Scenario) -> JointBox:
    """The maximally mixed box: 1 / (alice[x] * bob[y]) on every block."""
    return JointBox.from_function(
        scenario, lambda x, y, a, b: Fraction(1, scenario.alice[x] * scenario.bob[y]))


@dataclass(frozen=True)
class LinearCondition:
    """One labeled linear row over box coordinates: coeffs . p (= | <=) rhs.

    The row is sparse: coeffs holds its nonzero (index, coeff) pairs, sorted
    by coordinate index. The builders here make every coefficient and rhs an
    int, the form the LP kernel takes without conversion."""

    coeffs: tuple[tuple[int, int], ...]
    rhs: int
    relation: str  # "eq" or "le"
    label: str

    def __post_init__(self):
        if self.relation not in ("eq", "le"):
            raise ValueError(f"relation must be 'eq' or 'le', got {self.relation!r}")


@dataclass(frozen=True)
class ConstraintSystem:
    """A labeled bundle of linear conditions over one scenario's coordinates.

    The variable order is the scenario's coord_index bijection; eq_rows hands
    the sparse coeffs to the LP kernel as they are, its own row form.
    """

    scenario: Scenario
    conditions: tuple[LinearCondition, ...]

    def eq_rows(self) -> list[tuple[tuple[tuple[int, int], ...], int]]:
        return [(c.coeffs, c.rhs) for c in self.conditions if c.relation == "eq"]

    def violations(self, box: JointBox) -> list[str]:
        """The labels of the rows the box breaks, in catalog order. Each row
        is evaluated exactly in ints: the table is scaled once by the lcm of
        its denominators, and the row's total is compared with rhs * scale."""
        if box.scenario != self.scenario:
            raise ValueError("box and constraint system live on different scenarios")
        scale = math.lcm(*{p.denominator for p in box.table})
        cells = [p.numerator * (scale // p.denominator) for p in box.table]
        broken = []
        for cond in self.conditions:
            total = 0
            for i, c in cond.coeffs:
                total += c * cells[i]
            if total != cond.rhs * scale if cond.relation == "eq" else total > cond.rhs * scale:
                broken.append(cond.label)
        return broken


def _nosignaling_label(party: str, own: int, outcome: int) -> str:
    o, i, f = ("a", "x", "y") if party == "A" else ("b", "y", "x")
    return f"no-signaling: P({o}={outcome + 1} | {i}={own}) via {f}=0 equals via {f}=1"


def build_positivity(scenario: Scenario) -> ConstraintSystem:
    """One row -P(a, b | x, y) <= 0 per coordinate."""
    return ConstraintSystem(scenario, tuple(
        LinearCondition(((i, -1),), 0, "le", f"positivity: P(a={a + 1}, b={b + 1} | x={x}, y={y}) >= 0")
        for i, (x, y, a, b) in enumerate(scenario.coords())))


def build_normalization(scenario: Scenario) -> ConstraintSystem:
    """One row per input pair: the block's entries sum to 1. Exactly 4 rows."""
    conds = []
    for x, y in INPUT_PAIRS:
        coeffs = tuple((scenario.coord_index(x, y, a, b), 1)
                       for a in range(scenario.alice[x]) for b in range(scenario.bob[y]))
        conds.append(LinearCondition(coeffs, 1, "eq", f"normalization: block (x={x}, y={y}) sums to 1"))
    return ConstraintSystem(scenario, tuple(conds))


def build_nosignaling(scenario: Scenario) -> ConstraintSystem:
    """Marginal-agreement rows, one per (party, own input, outcome): the
    party's marginal summed on far input 0 minus the same marginal summed on
    far input 1 equals 0. All-dims-2 scenarios get 4 Alice rows and 4 Bob rows.
    """
    def row(via0, via1):
        return tuple(sorted([(i, 1) for i in via0] + [(i, -1) for i in via1]))

    idx = scenario.coord_index
    conds = []
    for x in (0, 1):
        for a in range(scenario.alice[x]):
            coeffs = row([idx(x, 0, a, b) for b in range(scenario.bob[0])],
                         [idx(x, 1, a, b) for b in range(scenario.bob[1])])
            conds.append(LinearCondition(coeffs, 0, "eq", _nosignaling_label("A", x, a)))
    for y in (0, 1):
        for b in range(scenario.bob[y]):
            coeffs = row([idx(0, y, a, b) for a in range(scenario.alice[0])],
                         [idx(1, y, a, b) for a in range(scenario.alice[1])])
            conds.append(LinearCondition(coeffs, 0, "eq", _nosignaling_label("B", y, b)))
    return ConstraintSystem(scenario, tuple(conds))


@cache
def polytope_system(scenario: Scenario) -> ConstraintSystem:
    """The no-signaling polytope, stated once: positivity, normalization and
    no-signaling rows, in that order. ns_program reads its equality rows and
    is_valid_box evaluates every row.

    Built once per scenario and cached: every caller shares the same
    immutable system (eq_rows still hands out a fresh list)."""
    return ConstraintSystem(scenario, build_positivity(scenario).conditions
                            + build_normalization(scenario).conditions
                            + build_nosignaling(scenario).conditions)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_valid_box(box: JointBox) -> ValidationReport:
    """Exact membership check: polytope_system(scenario).violations(box).

    Violations carry the builders' labels, one per broken row, in catalog
    order: positivity in coordinate order, normalization in INPUT_PAIRS
    order, then Alice's and Bob's no-signaling rows. A box is immutable, so
    it is checked once and the report is kept on it.
    """
    return box._report


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
            {"x": x, "y": y, "a": a + 1, "b": b + 1, "p": format_rational(q)}
            for (x, y, a, b), q in zip(s.coords(), box.table)
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
    # Every cell appears exactly once, so a shorter list is incomplete (and a
    # longer one fails in the loop); this bounds the allocation by the input.
    if len(entries) < scenario.num_coords:
        raise ValueError(f"box JSON: incomplete table, {len(entries)} entries for "
                         f"{scenario.num_coords} cells")
    table: list = [None] * scenario.num_coords
    parsed: dict[str, Fraction] = {}  # each distinct "p" string is parsed once
    for k, cell in enumerate(entries):
        if not isinstance(cell, dict):
            raise ValueError(f"box JSON: table entry {k} is not an object")
        missing = [key for key in ("x", "y", "a", "b", "p") if key not in cell]
        if missing:
            raise ValueError(f"box JSON: table entry {k} lacks keys {missing}")
        x, y, a, b = cell["x"], cell["y"], cell["a"], cell["b"]
        if not all(type(v) is int for v in (x, y, a, b)):
            raise ValueError(f"box JSON: table entry {k} has non-integer coordinates")
        try:
            idx = scenario.coord_index(x, y, a - 1, b - 1)
        except ValueError as exc:
            raise ValueError(f"box JSON: table entry {k}: {exc}") from exc
        if table[idx] is not None:
            raise ValueError(
                f"box JSON: duplicate cell (x={x}, y={y}, a={a}, b={b})")
        text = cell["p"]
        q = parsed.get(text) if isinstance(text, str) else None
        if q is None:
            try:
                q = parse_rational(text)
            except ValueError as exc:
                raise ValueError(f"box JSON: table entry {k}: {exc}") from exc
            parsed[text] = q  # parse_rational accepts only strings
        table[idx] = q
    return JointBox(scenario, tuple(table))


def box_to_json(box: JointBox) -> str:
    return json.dumps(box_to_json_dict(box), indent=2)


def box_from_json(text: str) -> JointBox:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"box JSON: not valid JSON: {exc}") from exc
    return box_from_json_dict(data)
