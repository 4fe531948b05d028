"""Hardy-type paradox arguments over no-signaling boxes.

Two argument kinds are supported, each built from one success condition and
three zero conditions on the four input pairs:

* conventional: success is the single cell (first Alice outcome, last Bob
  outcome) on the designated pair; the zero conditions kill that success
  pattern's deterministic explanations cell by cell;
* relaxed (cumulative): success is the ordering event "Alice's outcome rank
  is below Bob's" on the designated pair; the zero conditions forbid the
  analogous ordering events on the other three pairs, and the last of them
  may be relaxed from "= 0" to "<= p".

Each kind is encoded once, as a rank-space template (_template): the success
cells and three conditions, each a logical input pair, its cells in (Alice
rank, Bob rank) space, and its bound, the most mass a box may put on them
(p on the relaxed kind's third condition, else 0). Everything else derives
from it and reads each condition's own bound: the concrete event sets (the
template placed on physical inputs and relabeled), the LP rows, the
relabeling search, the congruence scan, and the one check of an argument's
conditions against a box (_violation).

The module optimizes success exactly over the no-signaling polytope (LP) or
over local deterministic models (exhaustive enumeration, deliberately
independent of the LP kernel), evaluates a box's success mass PP, and
computes PN, the largest total success mass over families of
success-disjoint outcome-relabeled arguments the box satisfies on the same
designated input pair. PPC = PN - PP.

Relabelings map rank positions (the order the argument's inequalities use)
to concrete outcomes, per physical input; searching them uses the cyclic
shifts and reversals of each outcome range by default, or every permutation
on request.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Optional

from .boxes import (
    INPUT_PAIRS,
    JointBox,
    Scenario,
    is_valid_box,
    polytope_system,
)
from .lp import LinearProgram, LpStatus, solve_max
from .rationals import coerce_rational, format_rational
from .vertices import (
    NonlocalLabel,
    deterministic_box,
    deterministic_strategies,
    nonlocal_vertex,
)

__all__ = [
    "KIND_CONVENTIONAL",
    "KIND_RELAXED",
    "REGIME_NS",
    "REGIME_LHV",
    "Relabeling",
    "HardyArgument",
    "ArgumentEvents",
    "ArgumentNotSatisfied",
    "SearchBudgetExceeded",
    "MAX_PERMUTATION_FAMILY",
    "MAX_LHV_STRATEGIES",
    "HARDY_QUANTUM_OPTIMUM",
    "OptimizationReport",
    "PnResult",
    "build_argument",
    "argument_events",
    "format_event",
    "ns_program",
    "max_success_ns",
    "max_success_lhv",
    "evaluate_pp",
    "compute_pn",
    "permutation_family_size",
    "best_satisfied_argument",
    "best_argument_with_pn",
    "attaining_nonlocal_vertex",
]

KIND_CONVENTIONAL = "conventional"
KIND_RELAXED = "relaxed"
REGIME_NS = "no-signaling"
REGIME_LHV = "local-realistic"

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest permutation family per input the relabeling search accepts: 7!,
# every permutation of seven outcomes.
MAX_PERMUTATION_FAMILY = 5040

# Largest number of deterministic strategies max_success_lhv enumerates. A
# strategy costs about 1-2 us (Python 3.11, 2-vCPU VM), so this is a few
# seconds; outcome counts (200, 200, 200, 200) would mean 1.6e9 strategies.
MAX_LHV_STRATEGIES = 10**6

# The conventional argument's quantum optimum (5*sqrt(5) - 11)/2, about
# 0.09017: irrational, the same for every outcome count, and equal to the
# two-outcome relaxed argument's; beyond two outcomes no closed form is
# carried. A reference value only, never optimized: (sqrt(125) - 11)/2
# floored at 30 decimal places, as isqrt(125 * 10**60) is
# floor(sqrt(125) * 10**30).
HARDY_QUANTUM_OPTIMUM = Fraction((math.isqrt(125 * 10**60) - 11 * 10**30) // 2, 10**30)


@dataclass(frozen=True)
class Relabeling:
    """Per-input outcome permutations plus optional input swaps.

    Outcome permutations are indexed by the physical input and map rank
    positions to concrete outcomes; None means identity. An input swap
    exchanges which physical input plays the argument's first and second
    role for that party, so the designated pair moves with the swap.
    """

    alice_input_swap: bool = False
    bob_input_swap: bool = False
    alice_perms: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    bob_perms: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __post_init__(self):
        """Refuse an input swap that is not a bool, and store given
        permutations as two tuples, so a relabeling compares and hashes by
        value. They are checked as bijections when they are resolved."""
        for name in ("alice_input_swap", "bob_input_swap"):
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for who in ("alice", "bob"):
            given = getattr(self, f"{who}_perms")
            if given is None:
                continue
            try:
                perms = tuple(tuple(p) for p in given)
            except TypeError:
                perms = ()
            if len(perms) != 2:
                raise ValueError(f"{who} needs one outcome permutation per input, got {given!r}")
            object.__setattr__(self, f"{who}_perms", perms)

    def resolved(self, scenario: Scenario):
        """Concrete (alice_perms, bob_perms), validated as bijections."""
        return (
            self._checked(self.alice_perms, scenario.alice, "alice"),
            self._checked(self.bob_perms, scenario.bob, "bob"),
        )

    @staticmethod
    def _checked(perms, counts, who: str):
        if perms is None:
            return tuple(tuple(range(n)) for n in counts)
        for x, (perm, n) in enumerate(zip(perms, counts)):
            if any(type(v) is not int for v in perm) or sorted(perm) != list(range(n)):
                raise ValueError(
                    f"{who} permutation for input {x} is not a bijection on 0..{n - 1}: {perm!r}")
        return perms


@dataclass(frozen=True)
class HardyArgument:
    """A paradox argument: kind, scenario, relabeling, and the bound p that
    _template gives the relaxed kind's third condition (always 0 for the
    conventional kind)."""

    kind: str
    scenario: Scenario
    relabeling: Relabeling = Relabeling()
    last_condition_bound: Fraction = _ZERO

    def __post_init__(self):
        """Check the kind, the field types and the bound, stored as a
        Fraction. The relabeling's permutations are checked when the event
        sets are built."""
        if self.kind not in (KIND_CONVENTIONAL, KIND_RELAXED):
            raise ValueError(f"kind must be '{KIND_CONVENTIONAL}' or '{KIND_RELAXED}', got {self.kind!r}")
        for name, cls in (("scenario", Scenario), ("relabeling", Relabeling)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        p = coerce_rational(self.last_condition_bound)
        if p < 0 or p >= 1:
            raise ValueError(f"last-condition bound must satisfy 0 <= p < 1, got {p}")
        if self.kind == KIND_CONVENTIONAL and p != 0:
            raise ValueError("the conventional argument has no bounded condition; p must be 0")
        object.__setattr__(self, "last_condition_bound", p)


@dataclass(frozen=True)
class ArgumentEvents:
    """Concrete event sets of an argument: one success set and three
    condition sets, each a frozenset of (x, y, a, b) coordinates (0-based
    outcomes), and bounds[k], the most mass zeros[k] may carry (the
    template's bounds: 0 for a zero condition)."""

    success: frozenset
    zeros: tuple[frozenset, frozenset, frozenset]
    bounds: tuple[Fraction, Fraction, Fraction]


class ArgumentNotSatisfied(Exception):
    """A box fails one of an argument's zero (or bounded) conditions.

    Attributes: condition (0-based index into zeros), event (the violating
    coordinate, None for a bounded-sum failure), amount (the offending mass).
    """

    def __init__(self, message: str, condition=None, event=None, amount=None):
        super().__init__(message)
        self.condition = condition
        self.event = event
        self.amount = amount


class SearchBudgetExceeded(ValueError):
    """A search refused up front: a relabeling search whose permutation
    family is larger than MAX_PERMUTATION_FAMILY, or a local-realistic
    optimum over more than MAX_LHV_STRATEGIES deterministic strategies."""


@dataclass(frozen=True)
class OptimizationReport:
    argument: HardyArgument
    optimum: Fraction
    witness: JointBox
    regime: str


@dataclass(frozen=True)
class PnResult:
    pn: Fraction
    family: tuple[HardyArgument, ...]


def format_event(event) -> str:
    x, y, a, b = event
    return f"(x={x}, y={y}, a={a + 1}, b={b + 1})"


def build_argument(kind: str, scenario: Scenario, p=_ZERO,
                   relabeling: Optional[Relabeling] = None) -> tuple[HardyArgument, ArgumentEvents]:
    """A validated argument together with its concrete event sets."""
    arg = HardyArgument(kind, scenario, relabeling if relabeling is not None else Relabeling(), p)
    return arg, argument_events(arg)


def _template(kind: str, p: Fraction, na0: int, na1: int, nb0: int, nb1: int):
    """The argument of bound p in rank space, given the outcome counts of
    Alice's and Bob's first and second logical inputs.

    Returns (success cells, conditions). The success cells live on logical
    pair (0, 0); each condition is ((i, j), cells, bound) for logical pair
    (i, j), cells being (Alice rank, Bob rank) pairs, and bound the most mass
    they may carry: p for the relaxed kind's third condition, else 0.
    """
    if kind == KIND_RELAXED:
        na, nb = (na0, na1), (nb0, nb1)

        def ordering(i, j, flip=False):
            return tuple((r, t) for r in range(na[i]) for t in range(nb[j])
                         if (t < r if flip else r < t))

        return ordering(0, 0), (((1, 0), ordering(1, 0), _ZERO),
                                ((1, 1), ordering(1, 1, True), _ZERO),
                                ((0, 1), ordering(0, 1), p))
    return ((0, nb0 - 1),), (((1, 0), tuple((r, nb0 - 1) for r in range(1, na1)), _ZERO),
                             ((0, 1), tuple((0, t) for t in range(nb1 - 1)), _ZERO),
                             ((1, 1), ((0, nb1 - 1),), _ZERO))


def _roles(arg: HardyArgument):
    """The physical inputs that play Alice's and Bob's logical inputs 0 and 1
    under arg's input swaps, and the outcome counts (a0, a1, b0, b1) of those
    logical inputs."""
    s, rel = arg.scenario, arg.relabeling
    ax = (1, 0) if rel.alice_input_swap else (0, 1)
    by = (1, 0) if rel.bob_input_swap else (0, 1)
    return ax, by, tuple(s.alice[x] for x in ax) + tuple(s.bob[y] for y in by)


def argument_events(arg: HardyArgument) -> ArgumentEvents:
    """Event sets of the argument with its relabeling already applied.

    Logical input i of a party is measured at physical input (i, swapped if
    the relabeling says so); ranks r, t are turned into concrete outcomes by
    that physical input's permutation.
    """
    aperms, bperms = arg.relabeling.resolved(arg.scenario)
    ax, by, counts = _roles(arg)
    success, conditions = _template(arg.kind, arg.last_condition_bound, *counts)

    def place(i, j, cells):
        x, y = ax[i], by[j]
        return frozenset((x, y, aperms[x][r], bperms[y][t]) for r, t in cells)

    return ArgumentEvents(place(0, 0, success),
                          tuple(place(i, j, cells) for (i, j), cells, _bound in conditions),
                          tuple(bound for _pair, _cells, bound in conditions))


def _check_box_for(box: JointBox, arg: HardyArgument) -> None:
    if box.scenario != arg.scenario:
        raise ValueError("box and argument live on different scenarios")
    report = is_valid_box(box)
    if not report:
        raise ValueError("invalid box: " + "; ".join(report.violations[:3]))


def _mass(entry, cells) -> Fraction:
    """Total probability that entry, a function (x, y, a, b) -> probability,
    gives the coordinates in cells."""
    return sum((entry(*e) for e in cells), _ZERO)


def _violation(entry, events: ArgumentEvents) -> Optional[ArgumentNotSatisfied]:
    """The first of the argument's conditions that entry (a function
    (x, y, a, b) -> probability) breaks, as an ArgumentNotSatisfied to raise,
    or None when all hold. The one check of conditions against a box, made
    by evaluate_pp and by the packing's check of each family member. A
    broken zero condition (bound 0) is reported at its first nonzero event
    in coordinate order; a condition with a positive bound is a bounded sum."""
    for k, (zset, bound) in enumerate(zip(events.zeros, events.bounds)):
        if bound:
            total = _mass(entry, zset)
            if total > bound:
                return ArgumentNotSatisfied(
                    f"bounded condition exceeds its bound: mass {format_rational(total)}"
                    f" > {format_rational(bound)}",
                    condition=k, amount=total)
        elif any(entry(*e) for e in zset):
            e = min(e for e in zset if entry(*e))
            return ArgumentNotSatisfied(
                f"zero condition {k + 1} violated at event {format_event(e)}"
                f" with probability {format_rational(entry(*e))}",
                condition=k, event=e, amount=entry(*e))
    return None


def evaluate_pp(box: JointBox, arg: HardyArgument) -> Fraction:
    """The box's success mass under arg, provided every zero condition holds
    exactly (and the bounded one is within its bound); otherwise raises
    ArgumentNotSatisfied naming the first violation."""
    _check_box_for(box, arg)
    events = argument_events(arg)
    violation = _violation(box.prob, events)
    if violation is not None:
        raise violation
    return _mass(box.prob, events.success)


def ns_program(arg: HardyArgument) -> LinearProgram:
    """The exact LP: maximize the argument's success mass over the
    no-signaling polytope intersected with its conditions, each an equality
    row at bound 0 and an inequality row at a positive bound. Positivity
    enters through the kernel's x >= 0 ground rule."""
    s = arg.scenario
    events = argument_events(arg)
    n = s.num_coords
    objective = [_ZERO] * n
    for e in events.success:
        objective[s.coord_index(*e)] = _ONE
    eq = [(c.coeffs, c.rhs) for c in polytope_system(s) if c.relation == "eq"]
    ineq = []
    for zset, bound in zip(events.zeros, events.bounds):
        row = [(i, 1) for i in sorted(s.coord_index(*e) for e in zset)]
        (ineq if bound else eq).append((row, bound))
    return LinearProgram(n, objective, eq, ineq)


def max_success_ns(arg: HardyArgument) -> OptimizationReport:
    """Exact optimum of the argument over the no-signaling polytope, with a
    vertex witness that is revalidated before being returned."""
    result = solve_max(ns_program(arg))
    if result.status is not LpStatus.OPTIMAL:
        raise RuntimeError(
            f"internal error: the no-signaling program reported {result.status.value}; "
            "it is feasible and bounded by construction")
    witness = JointBox(arg.scenario, result.solution)
    report = is_valid_box(witness)
    if not report:
        raise RuntimeError(
            "internal error: LP witness failed validity: " + "; ".join(report.violations[:3]))
    return OptimizationReport(arg, result.value, witness, REGIME_NS)


def max_success_lhv(arg: HardyArgument) -> OptimizationReport:
    """Exact optimum over local deterministic strategies (and hence over all
    their mixtures: the objective is linear and the zero conditions force
    every strategy in a satisfying mixture to satisfy them individually).

    This is a plain exhaustive enumeration, kept deliberately independent of
    the LP kernel so the two optimization routes can cross-check each other.
    A strategy is 1 on one cell per input pair and 0 elsewhere, so only
    those four cells are looked up in the event sets. Raises
    SearchBudgetExceeded, before enumerating, when the product of the four
    outcome counts exceeds MAX_LHV_STRATEGIES.
    """
    if arg.last_condition_bound != 0:
        raise ValueError("the local-realistic route only handles p = 0 arguments")
    count = math.prod(arg.scenario.dims())
    if count > MAX_LHV_STRATEGIES:
        raise SearchBudgetExceeded(
            f"the local-realistic optimum needs {count} deterministic strategies, "
            f"over the budget of {MAX_LHV_STRATEGIES}")
    events = argument_events(arg)
    zeros = frozenset().union(*events.zeros)
    best = None
    for alice_fn, bob_fn in deterministic_strategies(arg.scenario):
        cells = [(x, y, alice_fn[x], bob_fn[y]) for x in (0, 1) for y in (0, 1)]
        if not any(e in zeros for e in cells):
            val = Fraction(sum(e in events.success for e in cells))
            if best is None or val > best[0]:
                best = (val, alice_fn, bob_fn)
    if best is None:
        raise RuntimeError("internal error: no deterministic strategy satisfies the zero conditions")
    val, alice_fn, bob_fn = best
    witness = deterministic_box(arg.scenario, alice_fn, bob_fn)
    return OptimizationReport(arg, val, witness, REGIME_LHV)


def _dihedral_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """The cyclic shifts of (0..n-1), then its reversed shifts when n > 2
    (for n <= 2 they are the shifts again). Every member holds the same n
    outcome objects."""
    outcomes = tuple(range(n))
    perms = [tuple(outcomes[(r + k) % n] for r in range(n)) for k in range(n)]
    if n > 2:
        perms += [tuple(outcomes[(k - r) % n] for r in range(n)) for k in range(n)]
    return tuple(perms)


@cache
def _perm_family(n: int, exhaustive: bool) -> tuple[tuple[int, ...], ...]:
    """The search's permutations of n outcomes, built once per (n, exhaustive);
    callers check the budget first (_check_search_budget)."""
    if exhaustive:
        return tuple(itertools.permutations(range(n)))
    return _dihedral_perms(n)


def permutation_family_size(n: int, exhaustive: bool) -> int:
    """How many permutations the relabeling search tries per input with n
    outcomes: n! with exhaustive, else the 2n distinct shifts and reversals
    (n for n <= 2, where they coincide), counted without building them."""
    return math.factorial(n) if exhaustive else 2 * n if n > 2 else n


def _check_search_budget(scenario: Scenario, exhaustive: bool) -> None:
    n = max(scenario.alice + scenario.bob)
    size = permutation_family_size(n, exhaustive)
    if size > MAX_PERMUTATION_FAMILY:
        raise SearchBudgetExceeded(
            f"the relabeling search over {n} outcomes needs a family of {size} "
            f"permutations per input, over the budget of {MAX_PERMUTATION_FAMILY}")


@cache
def _prefix_trie(family) -> dict:
    """The family's members as nested {outcome: child} dicts, one level per
    rank, children in increasing outcome order, for the search of a
    positive-bound condition (a zero bound needs no trie). A child is a
    subtrie while two or more members share its prefix, else the index of
    the one member that has it; the search reads that member's remaining
    ranks from the family. So the 2n shifts and reversals of n > 2
    outcomes, which part after rank 1, take n + 1 dicts, not one per rank
    of each member. Built once per family and shared, so it is never
    written to after it is built."""
    root: dict = {}
    stack = [(root, 0, sorted(range(len(family)), key=family.__getitem__))]
    while stack:
        node, t, members = stack.pop()
        for outcome, group in itertools.groupby(members, key=lambda i: family[i][t]):
            group = list(group)
            if len(group) == 1:
                node[outcome] = group[0]
            else:
                node[outcome] = child = {}
                stack.append((child, t + 1, group))
    return root


def _clash_relation(rows, coupled, left, right) -> dict:
    """_relation at bound 0, as set algebra over the right family.

    For each left rank r the template couples, clash[r][a] is the bitset
    of right members that put a positive cell of row a at one of r's
    coupled ranks: none for a row with no positive cell, every member for a
    row positive at every outcome, and otherwise the OR, over the row's
    positive outcomes b, of the members holding b at one of those ranks.
    b's rank is found once per member, and only for the outcomes such a row
    needs; a member holds b at one rank, so the members per rank are
    disjoint and a run of ranks is a difference of prefix sums. Left member
    i pairs with the members outside the OR of clash[r][left[i][r]] over r,
    which stops once it is full.
    """
    n_outcomes = len(right[0])
    full = (1 << len(right)) - 1
    runs = []  # per coupled rank, its ranks as half-open runs [start, stop)
    for _r, ranks in coupled:
        spans = []
        for t in sorted(ranks):
            if spans and spans[-1][1] == t:
                spans[-1][1] = t + 1
            else:
                spans.append([t, t + 1])
        runs.append(spans)
    positive = [[b for b, q in enumerate(row) if q] for row in rows]
    clash = [(r, [full if len(cells) == n_outcomes else 0 for cells in positive])
             for r, _ranks in coupled]
    rows_at: dict[int, list[int]] = {}  # b: the rows, neither empty nor full, positive at b
    for a, cells in enumerate(positive):
        if len(cells) < n_outcomes:
            for b in cells:
                rows_at.setdefault(b, []).append(a)
    for b, rows_b in rows_at.items():
        at_rank = [0] * n_outcomes
        for j, pb in enumerate(right):
            at_rank[pb.index(b)] |= 1 << j
        below = list(itertools.accumulate(at_rank, initial=0))
        for (_r, masks), spans in zip(clash, runs):
            held = sum(below[stop] - below[start] for start, stop in spans)
            for a in rows_b:
                masks[a] |= held
    rel: dict[int, int] = {}
    for i, pa in enumerate(left):
        hit = 0
        for r, masks in clash:
            hit |= masks[pa[r]]
            if hit == full:
                break
        else:
            rel[i] = full ^ hit
    return rel


def _relation(box: JointBox, block, template, left, right, bound: Fraction) -> dict:
    """{left index: bitset of right indices} of the permutation pairs whose
    relabeled template carries at most bound on the block (no mass at all
    when bound is 0); left indices without such a pair are left out, and
    rows come in ascending left order.

    A zero bound is set algebra over the right family (_clash_relation).
    A positive bound is searched: outcome b at right rank t costs the mass
    of the block's cells (a, b) whose left outcome a sits at a rank the
    template couples to t. Per left permutation, the costs, scaled to ints,
    are kept per rank, and blocked[t] is the bitset of outcomes whose cost
    at t alone exceeds the bound. due[t], a suffix AND, holds the outcomes
    that fit no rank >= t. A depth-first search along the right family's
    prefix trie, on an explicit stack since a branch is as deep as the
    outcome count, places at each rank the one outcome that fits no later
    rank when there is one (two such kill the branch), else any that fits,
    with an int running total; a trie child that is one member has its
    remaining ranks checked in a loop. Left permutations with equal costs
    share one search.
    """
    rows = box.block(*block)
    right_ranks = [[] for _ in left[0]]  # right_ranks[r]: the ranks t of template cells (r, t)
    for r, t in template:
        right_ranks[r].append(t)
    coupled = [(r, ranks) for r, ranks in enumerate(right_ranks) if ranks]
    if not bound:
        return _clash_relation(rows, coupled, left, right)
    n_right = len(right[0])
    full = (1 << n_right) - 1
    scale = math.lcm(bound.denominator, *(q.denominator for row in rows for q in row))
    limit = bound.numerator * (scale // bound.denominator)
    weights = [[(b, q.numerator * (scale // q.denominator)) for b, q in enumerate(row) if q]
               for row in rows]
    trie = _prefix_trie(right)

    shared: dict = {}
    rel: dict[int, int] = {}
    for ia, pa in enumerate(left):
        costs = [{} for _ in range(n_right)]  # costs[t]: {outcome: its positive cost at t}
        for r, ranks in coupled:
            for t in ranks:
                cost = costs[t]
                for b, w in weights[pa[r]]:
                    cost[b] = cost.get(b, 0) + w
        key = tuple(tuple(sorted(cost.items())) for cost in costs)
        hits = shared.get(key)
        if hits is None:
            hits = 0
            blocked = [sum(1 << b for b, c in cost.items() if c > limit) for cost in costs]
            due = [full] * (n_right + 1)  # due[t]: the outcomes that fit no rank >= t
            for t in range(n_right - 1, -1, -1):
                due[t] = due[t + 1] & blocked[t]
            stack = [] if due[0] else [(0, trie, full, 0)]  # (rank, trie node, unplaced bits, cost)
            while stack:
                t, node, unplaced, total = stack.pop()
                free = unplaced & ~blocked[t]
                need = due[t + 1] & unplaced
                if need:  # it must go here; two such outcomes kill the branch
                    if need & (need - 1):
                        continue
                    free &= need
                while free:
                    low = free & -free
                    free ^= low
                    b = low.bit_length() - 1
                    child = node.get(b)
                    if child is None:
                        continue
                    child_total = total + costs[t].get(b, 0)
                    if child_total > limit:
                        continue
                    if type(child) is not int:
                        stack.append((t + 1, child, unplaced ^ low, child_total))
                        continue
                    perm = right[child]
                    for s in range(t + 1, n_right):
                        if blocked[s] >> perm[s] & 1:
                            break
                        child_total += costs[s].get(perm[s], 0)
                        if child_total > limit:
                            break
                    else:
                        hits |= 1 << child
            shared[key] = hits
        if hits:
            rel[ia] = hits
    return rel


def _spread(rel: dict, other: dict):
    """Two maps over the right indices j of rel, a relation with bitset rows:
    j -> the OR of other's rows, and j -> the bitset of left indices, over
    the left indices i that pair with j in rel and with something in other.
    Left indices with equal rows in rel are merged first, so the work
    follows rel's distinct rows."""
    grouped: dict[int, tuple[int, int]] = {}
    for i, row in rel.items():
        if i in other:
            via, lefts = grouped.get(row, (0, 0))
            grouped[row] = (via | other[i], lefts | 1 << i)
    via_j: dict[int, int] = {}
    lefts_j: dict[int, int] = {}
    for row, (via, lefts) in grouped.items():
        while row:
            low = row & -row
            row ^= low
            j = low.bit_length() - 1
            via_j[j] = via_j.get(j, 0) | via
            lefts_j[j] = lefts_j.get(j, 0) | lefts
    return via_j, lefts_j


def _success_candidates(box: JointBox, arg: HardyArgument, exhaustive: bool):
    """(scale, candidates): candidates is the deterministic list of (success
    cells, mass, chain) for the first satisfied permutation chain and every
    later one with positive success mass, over the outcome relabelings of arg
    on its input swaps; cells live on the designated block, a mass is an int
    over scale, the common denominator of that block's entries, and a chain
    is the four permutations (pa0, pb0, pa1, pb1) of Alice's and Bob's
    logical inputs 0 and 1, members of the cached families, which
    _chain_argument turns into an argument. Refuses, before any search, a
    family larger than MAX_PERMUTATION_FAMILY.

    Each condition couples one Alice and one Bob permutation, and _relation
    gives the pairs that keep it within its bound as bitset rows. A fourth
    _relation call gives the (a0, b0) pairs whose success cells carry no
    mass, so a chain has positive mass exactly when its (a0, b0) pair is
    missing from it. The join is set operations on rows: a (a0, b0) pair is
    reached when some a1 permutation pairs with b0 in the (a1, b0) relation
    and with some b1 in the (a1, b1) relation that a0 also pairs with in the
    (a0, b1) relation. Pairs are visited in ascending order; the first one
    reached is kept even at zero mass, later ones only at positive mass. A
    kept pair's witness is its smallest b1 index, then its smallest a1 index
    for that b1. Only kept chains build their cells and mass.
    """
    _check_search_budget(box.scenario, exhaustive)
    ax, by, counts = _roles(arg)
    t_success, conditions = _template(arg.kind, arg.last_condition_bound, *counts)
    fam_a = tuple(_perm_family(n, exhaustive) for n in counts[:2])
    fam_b = tuple(_perm_family(n, exhaustive) for n in counts[2:])
    rel = {(i, j): _relation(box, (ax[i], by[j]), cells, fam_a[i], fam_b[j], bound)
           for (i, j), cells, bound in conditions}
    r_a1b0, r_a1b1, r_a0b1 = rel[(1, 0)], rel[(1, 1)], rel[(0, 1)]
    massless = _relation(box, (ax[0], by[0]), t_success, fam_a[0], fam_b[0], _ZERO)

    b0_via_b1, a1_via_b1 = _spread(r_a1b1, r_a1b0)
    b1_via_b0, a1_via_b0 = _spread(r_a1b0, r_a1b1)
    reached: dict[int, int] = {}  # (a0, b1) row -> the b0 indices it reaches

    block = box.block(ax[0], by[0])
    scale = math.lcm(*(q.denominator for row in block for q in row))
    block = [[q.numerator * (scale // q.denominator) for q in row] for row in block]
    out = []
    for ia0, row in sorted(r_a0b1.items()):
        b0s = reached.get(row)
        if b0s is None:
            b0s, b1s = 0, row
            while b1s:
                low = b1s & -b1s
                b1s ^= low
                b0s |= b0_via_b1.get(low.bit_length() - 1, 0)
            reached[row] = b0s
        keep = b0s & ~massless.get(ia0, 0)
        if b0s and not out:
            keep |= b0s & -b0s  # the first reached pair, kept at any mass
        while keep:
            low = keep & -keep
            keep ^= low
            ib0 = low.bit_length() - 1
            b1s = b1_via_b0[ib0] & row  # the witness: the smallest b1, then its smallest a1
            ib1 = (b1s & -b1s).bit_length() - 1
            a1s = a1_via_b0[ib0] & a1_via_b1[ib1]
            ia1 = (a1s & -a1s).bit_length() - 1
            pa0, pb0 = fam_a[0][ia0], fam_b[0][ib0]
            cells = frozenset((pa0[r], pb0[t]) for r, t in t_success)
            total = sum(block[a][b] for a, b in cells)
            out.append((cells, total, (pa0, pb0, fam_a[1][ia1], fam_b[1][ib1])))
    return scale, out


def _chain_argument(arg: HardyArgument, chain) -> HardyArgument:
    """arg relabeled by a chain (pa0, pb0, pa1, pb1) that _success_candidates
    found for arg: arg's input swaps, and the chain's permutations on the
    physical inputs that play Alice's and Bob's logical inputs 0 and 1."""
    ax, by, _counts = _roles(arg)
    pa0, pb0, pa1, pb1 = chain
    pa, pb = (pa0, pa1), (pb0, pb1)
    # a swap is its own inverse: physical input x plays logical input ax[x]
    rel = replace(arg.relabeling, alice_perms=(pa[ax[0]], pa[ax[1]]),
                  bob_perms=(pb[by[0]], pb[by[1]]))
    return replace(arg, relabeling=rel)


def _max_disjoint_mass(entries, scale: int):
    """Exact maximum-weight packing of pairwise-disjoint cell sets, each
    entry's mass an int over scale; the total returns as a Fraction.

    Depth-first search over entries sorted by descending mass. The bound on
    a branch is the suffix sum of the masses still to come, capped at scale
    (a mass of 1): the cells lie in one block of a valid box, whose total
    mass is 1, so no disjoint family can exceed it. Ties keep the first
    optimum found, so the result is deterministic. Skipped entries are
    walked in a loop, so the recursion is only as deep as the packing is
    large.
    """
    order = sorted(range(len(entries)), key=lambda i: (-entries[i][1], sorted(entries[i][0])))
    cells = [entries[i][0] for i in order]
    masses = [entries[i][1] for i in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + masses[i]

    best_total = 0
    best_pick: tuple[int, ...] = ()
    picked: list[int] = []

    def search(i, used, total):
        nonlocal best_total, best_pick
        if total > best_total:
            best_total, best_pick = total, tuple(picked)
        while i < len(order) and min(total + suffix[i], scale) > best_total:
            if used.isdisjoint(cells[i]):
                picked.append(i)
                search(i + 1, used | cells[i], total + masses[i])
                picked.pop()
            i += 1

    search(0, frozenset(), 0)
    return Fraction(best_total, scale), [entries[order[i]] for i in best_pick]


def _best_of(box: JointBox, kind: str, p, exhaustive_perms: bool):
    """The relabeling search over identity input roles: (argument, success
    mass, scale, candidates) for the first candidate of largest mass, or
    None when the box satisfies no relabeled argument. Validates kind, p and
    the box first."""
    arg, _ = build_argument(kind, box.scenario, p)
    _check_box_for(box, arg)
    scale, candidates = _success_candidates(box, arg, exhaustive_perms)
    best = max(candidates, key=lambda candidate: candidate[1], default=None)
    if best is None:
        return None
    _cells, total, chain = best
    return _chain_argument(arg, chain), Fraction(total, scale), scale, candidates


def _pn_of(box: JointBox, base: HardyArgument, base_pp: Fraction, scale: int,
           candidates) -> PnResult:
    """PN of base, whose success mass is base_pp, from the search's
    candidates on base's input roles, their masses ints over scale. Only the
    packed chains become arguments, and every family member is rechecked
    against the box before it is returned."""
    base_cells = frozenset((a, b) for (_x, _y, a, b) in argument_events(base).success)
    # exact: base's success cells lie in the block whose denominators scale covers
    base_total = base_pp.numerator * (scale // base_pp.denominator)
    entries = {base_cells: (base_cells, base_total, None)}  # chain None: the base itself
    for entry in candidates:
        entries.setdefault(entry[0], entry)

    positive = [e for e in entries.values() if e[1] > 0]
    if not positive:
        return PnResult(_ZERO, (base,))
    total, picked = _max_disjoint_mass(positive, scale)

    blocks = {(x, y): box.block(x, y) for x, y in INPUT_PAIRS}

    def entry(x, y, a, b):
        return blocks[(x, y)][a][b]

    family = []
    claimed: set = set()
    for cells, mass, chain in picked:
        arg = base if chain is None else _chain_argument(base, chain)
        events = argument_events(arg)
        if (_violation(entry, events) is not None
                or _mass(entry, events.success) * scale != mass or not claimed.isdisjoint(cells)):
            raise RuntimeError("internal error: inconsistent packing member")
        claimed.update(cells)
        family.append(arg)
    return PnResult(total, tuple(family))


def compute_pn(box: JointBox, base: HardyArgument, exhaustive_perms: bool = False) -> PnResult:
    """PN: the largest total success mass over families of success-disjoint
    relabeled arguments of base's kind, all satisfied by the box on base's
    designated input pair. The base itself competes, so PN >= PP.

    The relabeling search runs over cyclic shifts and reversals per input by
    default; exhaustive_perms widens it to every outcome permutation, and
    raises SearchBudgetExceeded before searching when some outcome count has
    more than MAX_PERMUTATION_FAMILY permutations (more than 7 outcomes).
    The search never lists the (n!)^2 permutation pairs: a zero-bound
    condition's relation is set algebra over the right family's bitsets,
    and only the positive-bound condition is searched rank by rank, pruned
    on the box's positive cells. Its relations are bitsets and its join
    takes only the chains with positive success mass (and the first
    satisfied one), so a box whose satisfied chains all have zero mass
    costs no more than its relations.
    """
    base_pp = evaluate_pp(box, base)
    return _pn_of(box, base, base_pp, *_success_candidates(box, base, exhaustive_perms))


def best_satisfied_argument(box: JointBox, kind: str, p=_ZERO,
                            exhaustive_perms: bool = False):
    """The outcome-relabeled argument of the given kind (identity input roles)
    with the largest success mass among those the box satisfies, with that
    mass, or None. Ties keep the first candidate in the deterministic search
    order. The search and its budget are those of compute_pn."""
    best = _best_of(box, kind, p, exhaustive_perms)
    return None if best is None else best[:2]


def best_argument_with_pn(box: JointBox, kind: str, p=_ZERO, exhaustive_perms: bool = False):
    """best_satisfied_argument's argument and mass together with compute_pn
    of that argument, as (argument, PP, PnResult), or None; one relabeling
    search serves both."""
    best = _best_of(box, kind, p, exhaustive_perms)
    return None if best is None else (*best[:2], _pn_of(box, *best))


def _congruence_masses(arg: HardyArgument):
    """(label, success mass) of every congruence label, in lexicographic
    order, whose vertex satisfies arg's conditions.

    Label (xc, yc, shift) puts 1/d on the cells a, b < d of block (x, y) in
    difference class (b - a) mod d = (x*y + xc*x + yc*y + shift) mod d. Each
    event set's cells are counted once per block, in a list indexed by
    difference class, so a label costs four list lookups per set. Each cell
    weighs 1/d, so a condition's mass is within its bound iff it hits at most
    floor(bound * d) cells."""
    d = arg.scenario.min_outputs
    events = argument_events(arg)

    def counts(cells):
        per_block = [[0] * d for _ in INPUT_PAIRS]  # block (x, y) at 2x + y
        for x, y, a, b in cells:
            if a < d and b < d:
                per_block[2 * x + y][(b - a) % d] += 1
        return per_block

    (z00, z01, z10, z11), (u00, u01, u10, u11), (v00, v01, v10, v11) = (
        counts(zset) for zset in events.zeros)
    lz, lu, lv = (math.floor(bound * d) for bound in events.bounds)
    s00, s01, s10, s11 = counts(events.success)
    for xc in range(d):
        for yc in range(d):
            for shift in range(d):
                k00, k01 = shift, (yc + shift) % d
                k10, k11 = (xc + shift) % d, (1 + xc + yc + shift) % d
                if (z00[k00] + z01[k01] + z10[k10] + z11[k11] > lz
                        or u00[k00] + u01[k01] + u10[k10] + u11[k11] > lu
                        or v00[k00] + v01[k01] + v10[k10] + v11[k11] > lv):
                    continue
                yield (xc, yc, shift), Fraction(s00[k00] + s01[k01] + s10[k10] + s11[k11], d)


def attaining_nonlocal_vertex(arg: HardyArgument) -> tuple[NonlocalLabel, JointBox, Fraction]:
    """Scan every congruence-box label for those satisfying arg's zero
    conditions and return the one with maximal success mass (ties: first
    label in lexicographic order). The scan counts event cells per outcome
    difference class (_congruence_masses) and never builds a table; the
    winner's success mass is recomputed from its materialized table via
    evaluate_pp before being returned."""
    best = max(_congruence_masses(arg), key=lambda item: item[1], default=None)
    if best is None:
        raise ValueError("no congruence vertex satisfies the argument's zero conditions")
    label, mass = best
    box = nonlocal_vertex(arg.scenario, label)
    pp = evaluate_pp(box, arg)
    if pp != mass:
        raise RuntimeError("internal error: scan and table evaluation disagree")
    return NonlocalLabel(*label), box, pp
