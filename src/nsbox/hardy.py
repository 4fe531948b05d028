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
cells and three conditions, each a logical input pair with its cells in
(Alice rank, Bob rank) space. Everything else derives from it: the concrete
event sets (the template placed on physical inputs and relabeled), the LP
rows, the relabeling search, and the one check of an argument's conditions
against a box (_violation).

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .boxes import (
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
    nonlocal_entry_fn,
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
    "OptimizationReport",
    "PnResult",
    "QuantumReference",
    "build_argument",
    "argument_events",
    "format_event",
    "ns_program",
    "max_success_ns",
    "max_success_lhv",
    "evaluate_pp",
    "compute_pn",
    "permutation_family_size",
    "ppc",
    "best_satisfied_argument",
    "attaining_nonlocal_vertex",
    "quantum_reference",
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
        perms = tuple(tuple(p) for p in perms)
        if len(perms) != 2:
            raise ValueError(f"{who} needs one outcome permutation per input, got {perms!r}")
        for x, (perm, n) in enumerate(zip(perms, counts)):
            if sorted(perm) != list(range(n)):
                raise ValueError(
                    f"{who} permutation for input {x} is not a bijection on 0..{n - 1}: {perm!r}")
        return perms


@dataclass(frozen=True)
class HardyArgument:
    """A paradox argument: kind, scenario, relabeling, and the bound p on the
    last condition (always 0 for the conventional kind)."""

    kind: str
    scenario: Scenario
    relabeling: Relabeling = Relabeling()
    last_condition_bound: Fraction = _ZERO


@dataclass(frozen=True)
class ArgumentEvents:
    """Concrete event sets of an argument: one success set and three zero
    sets, each a frozenset of (x, y, a, b) coordinates (0-based outcomes).
    When the argument carries a bound p > 0, zeros[2] is the bounded set."""

    success: frozenset
    zeros: tuple[frozenset, frozenset, frozenset]


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
    """A relabeling search refused up front: its permutation family is larger
    than MAX_PERMUTATION_FAMILY."""


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
    if kind not in (KIND_CONVENTIONAL, KIND_RELAXED):
        raise ValueError(f"kind must be '{KIND_CONVENTIONAL}' or '{KIND_RELAXED}', got {kind!r}")
    p = coerce_rational(p)
    if p < 0 or p >= 1:
        raise ValueError(f"last-condition bound must satisfy 0 <= p < 1, got {p}")
    if kind == KIND_CONVENTIONAL and p != 0:
        raise ValueError("the conventional argument has no bounded condition; p must be 0")
    arg = HardyArgument(kind, scenario, relabeling if relabeling is not None else Relabeling(), p)
    return arg, argument_events(arg)


def _template(kind: str, na0: int, na1: int, nb0: int, nb1: int):
    """The argument in rank space, given the outcome counts of Alice's and
    Bob's first and second logical inputs.

    Returns (success cells, conditions). The success cells live on logical
    pair (0, 0); each condition is ((i, j), cells) for logical pair (i, j),
    cells being (Alice rank, Bob rank) pairs. The order is fixed per kind,
    and the bound p, when positive, applies to the third condition.
    """
    if kind == KIND_RELAXED:
        na, nb = (na0, na1), (nb0, nb1)

        def ordering(i, j, flip=False):
            return tuple((r, t) for r in range(na[i]) for t in range(nb[j])
                         if (t < r if flip else r < t))

        return ordering(0, 0), (((1, 0), ordering(1, 0)), ((1, 1), ordering(1, 1, True)),
                                ((0, 1), ordering(0, 1)))
    return ((0, nb0 - 1),), (((1, 0), tuple((r, nb0 - 1) for r in range(1, na1))),
                             ((0, 1), tuple((0, t) for t in range(nb1 - 1))),
                             ((1, 1), ((0, nb1 - 1),)))


def _roles(scenario: Scenario, swaps: tuple[bool, bool]):
    """The physical inputs that play Alice's and Bob's logical inputs 0 and 1,
    and the outcome counts (a0, a1, b0, b1) of those logical inputs."""
    ax = (1, 0) if swaps[0] else (0, 1)
    by = (1, 0) if swaps[1] else (0, 1)
    return ax, by, tuple(scenario.alice[x] for x in ax) + tuple(scenario.bob[y] for y in by)


def argument_events(arg: HardyArgument) -> ArgumentEvents:
    """Event sets of the argument with its relabeling already applied.

    Logical input i of a party is measured at physical input (i, swapped if
    the relabeling says so); ranks r, t are turned into concrete outcomes by
    that physical input's permutation.
    """
    rel = arg.relabeling
    aperms, bperms = rel.resolved(arg.scenario)
    ax, by, counts = _roles(arg.scenario, (rel.alice_input_swap, rel.bob_input_swap))
    success, conditions = _template(arg.kind, *counts)

    def place(i, j, cells):
        x, y = ax[i], by[j]
        return frozenset((x, y, aperms[x][r], bperms[y][t]) for r, t in cells)

    return ArgumentEvents(place(0, 0, success),
                          tuple(place(i, j, cells) for (i, j), cells in conditions))


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


def _violation(entry, events: ArgumentEvents, p: Fraction) -> Optional[ArgumentNotSatisfied]:
    """The first of the argument's conditions that entry (a function
    (x, y, a, b) -> probability) breaks, as an ArgumentNotSatisfied to raise,
    or None when all hold. The one check of conditions against a box, a
    deterministic strategy or a congruence vertex. A broken zero condition is
    reported at its first nonzero event in coordinate order; with p > 0 the
    third condition is a bounded sum."""
    for k, zset in enumerate(events.zeros):
        if p > 0 and k == 2:
            total = _mass(entry, zset)
            if total > p:
                return ArgumentNotSatisfied(
                    f"bounded condition exceeds its bound: mass {format_rational(total)}"
                    f" > {format_rational(p)}",
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
    violation = _violation(box.prob, events, arg.last_condition_bound)
    if violation is not None:
        raise violation
    return _mass(box.prob, events.success)


def ns_program(arg: HardyArgument) -> LinearProgram:
    """The exact LP: maximize the argument's success mass over the
    no-signaling polytope intersected with its zero/bounded conditions.
    Positivity enters through the kernel's x >= 0 ground rule."""
    s = arg.scenario
    events = argument_events(arg)
    n = s.num_coords
    objective = [_ZERO] * n
    for e in events.success:
        objective[s.coord_index(*e)] = _ONE
    eq = polytope_system(s).eq_rows()
    ineq = []
    p = arg.last_condition_bound
    for k, zset in enumerate(events.zeros):
        row = [_ZERO] * n
        for e in zset:
            row[s.coord_index(*e)] = _ONE
        if p > 0 and k == 2:
            ineq.append((row, p))
        else:
            eq.append((row, _ZERO))
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
    """
    if arg.last_condition_bound != 0:
        raise ValueError("the local-realistic route only handles p = 0 arguments")
    events = argument_events(arg)
    best = None
    for alice_fn, bob_fn in deterministic_strategies(arg.scenario):
        def entry(x, y, a, b):
            return _ONE if a == alice_fn[x] and b == bob_fn[y] else _ZERO

        if _violation(entry, events, _ZERO) is None:
            val = _mass(entry, events.success)
            if best is None or val > best[0]:
                best = (val, alice_fn, bob_fn)
    if best is None:
        raise RuntimeError("internal error: no deterministic strategy satisfies the zero conditions")
    val, alice_fn, bob_fn = best
    witness = deterministic_box(arg.scenario, alice_fn, bob_fn)
    return OptimizationReport(arg, val, witness, REGIME_LHV)


def _dihedral_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """Cyclic shifts then reversed shifts of (0..n-1), deduplicated, stable order."""
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for k in range(n):
        p = tuple((r + k) % n for r in range(n))
        if p not in seen:
            seen.add(p)
            out.append(p)
    for k in range(n):
        p = tuple((k - r) % n for r in range(n))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def _perm_family(n: int, exhaustive: bool) -> tuple[tuple[int, ...], ...]:
    if exhaustive:
        return tuple(itertools.permutations(range(n)))
    return _dihedral_perms(n)


def permutation_family_size(n: int, exhaustive: bool) -> int:
    """How many permutations the relabeling search tries per input with n
    outcomes: n! with exhaustive, else the distinct shifts and reversals."""
    return math.factorial(n) if exhaustive else len(_dihedral_perms(n))


def _check_search_budget(scenario: Scenario, exhaustive: bool) -> None:
    n = max(scenario.alice + scenario.bob)
    size = permutation_family_size(n, exhaustive)
    if size > MAX_PERMUTATION_FAMILY:
        raise SearchBudgetExceeded(
            f"the relabeling search over {n} outcomes needs a family of {size} "
            f"permutations per input, over the budget of {MAX_PERMUTATION_FAMILY}")


def _prefix_trie(family) -> dict:
    """The family's members as nested {outcome: subtrie} dicts, one level per
    rank, children in increasing outcome order; the last level maps to the
    member's index in the family."""
    root: dict = {}
    for index, perm in sorted(enumerate(family), key=lambda item: item[1]):
        node = root
        for outcome in perm[:-1]:
            node = node.setdefault(outcome, {})
        node[perm[-1]] = index
    return root


def _relation(box: JointBox, block, template, left, right, bound: Fraction) -> dict:
    """{left index: ascending right indices} of the permutation pairs whose
    relabeled template carries at most bound on the block (no mass at all
    when bound is 0); left indices without such a pair are left out.

    For each left permutation, a depth-first search assigns the right one
    rank by rank along prefixes of the right family's members. Only the
    block's positive cells cost anything: cell (a, b) costs at rank t when
    (rank of a under the left permutation, t) is a template cell. A branch
    dies once its cost exceeds the bound, or once an outcome is still
    unplaced after the last rank where it fits. Masses are nonnegative on a
    valid box, so costs only grow along a branch; they are scaled to exact
    integers over a common denominator.
    """
    x, y = block
    s = box.scenario
    cells = [(a, b, q) for a in range(s.alice[x]) for b in range(s.bob[y])
             if (q := box.prob(x, y, a, b)) > 0]
    scale = math.lcm(bound.denominator, *(q.denominator for _a, _b, q in cells))
    limit = bound.numerator * (scale // bound.denominator)
    cells = [(a, b, q.numerator * (scale // q.denominator)) for a, b, q in cells]
    n_left, n_right = len(left[0]), len(right[0])
    right_ranks = [[] for _ in range(n_left)]
    for r, t in template:
        right_ranks[r].append(t)
    trie = _prefix_trie(right)

    rel: dict[int, list[int]] = {}
    for ia, pa in enumerate(left):
        rank = [0] * n_left
        for r, a in enumerate(pa):
            rank[a] = r
        cost = [[0] * n_right for _ in range(n_right)]  # cost[t][b]
        for a, b, w in cells:
            for t in right_ranks[rank[a]]:
                cost[t][b] += w
        last = [-1] * n_right  # last[b]: the last rank where outcome b fits
        for t, row in enumerate(cost):
            for b, c in enumerate(row):
                if c <= limit:
                    last[b] = t
        due = [0] * (n_right + 1)  # due[t]: bits of the outcomes fitting no rank >= t
        for b, t in enumerate(last):
            due[t + 1] |= 1 << b
        hits: list[int] = []

        def search(t, node, placed, total):
            if t == n_right:
                hits.append(node)
                return
            if due[t] & ~placed:
                return
            row = cost[t]
            for b, child in node.items():
                if total + row[b] <= limit:
                    search(t + 1, child, placed | 1 << b, total + row[b])

        search(0, trie, 0, 0)
        if hits:
            rel[ia] = sorted(hits)
    return rel


def _satisfied_chains(box: JointBox, kind: str, p: Fraction, swaps: tuple[bool, bool],
                      exhaustive: bool):
    """All permutation chains whose relabeled argument the box satisfies.

    Each zero (or bounded) condition couples one Alice and one Bob
    permutation; _relation lists the pairs that satisfy it, so the work
    follows the satisfied pairs rather than every pair. Refuses, before any
    search, a family larger than MAX_PERMUTATION_FAMILY.

    Returns (Alice's and Bob's families per logical input, their physical
    inputs, success template, achievable), where achievable maps (index of
    a0 perm, index of b0 perm) to a witness (index of a1 perm, index of b1
    perm), deterministically chosen.
    """
    _check_search_budget(box.scenario, exhaustive)
    ax, by, counts = _roles(box.scenario, swaps)
    t_success, conditions = _template(kind, *counts)
    fam_a = tuple(_perm_family(n, exhaustive) for n in counts[:2])
    fam_b = tuple(_perm_family(n, exhaustive) for n in counts[2:])
    rel = {(i, j): _relation(box, (ax[i], by[j]), cells, fam_a[i], fam_b[j], p if k == 2 else _ZERO)
           for k, ((i, j), cells) in enumerate(conditions)}
    r_a1b0, r_a1b1, r_a0b1 = rel[(1, 0)], rel[(1, 1)], rel[(0, 1)]

    b1_to_a0: dict[int, list[int]] = {}
    for ia0 in sorted(r_a0b1):
        for ib1 in r_a0b1[ia0]:
            b1_to_a0.setdefault(ib1, []).append(ia0)

    pair_witness: dict[tuple[int, int], int] = {}
    for ia1 in sorted(set(r_a1b0) & set(r_a1b1)):
        for ib0 in r_a1b0[ia1]:
            for ib1 in r_a1b1[ia1]:
                pair_witness.setdefault((ib0, ib1), ia1)

    achievable: dict[tuple[int, int], tuple[int, int]] = {}
    for (ib0, ib1), ia1 in sorted(pair_witness.items()):
        for ia0 in b1_to_a0.get(ib1, ()):
            achievable.setdefault((ia0, ib0), (ia1, ib1))
    return (fam_a, fam_b), (ax, by), t_success, achievable


def _success_candidates(box: JointBox, kind: str, p: Fraction, swaps: tuple[bool, bool],
                        exhaustive: bool):
    """Deterministic list of (success cells, mass, relabeling) for every
    satisfied permutation chain; cells live on the designated block."""
    (fam_a, fam_b), (ax, by), t_success, achievable = _satisfied_chains(
        box, kind, p, swaps, exhaustive)
    out = []
    for (ia0, ib0) in sorted(achievable):
        ia1, ib1 = achievable[(ia0, ib0)]
        pa = (fam_a[0][ia0], fam_a[1][ia1])
        pb = (fam_b[0][ib0], fam_b[1][ib1])
        cells = frozenset((pa[0][r], pb[0][t]) for r, t in t_success)
        mass = sum((box.prob(ax[0], by[0], a, b) for a, b in cells), _ZERO)
        # a swap is its own inverse: physical input x plays logical input ax[x]
        rel = Relabeling(swaps[0], swaps[1], (pa[ax[0]], pa[ax[1]]), (pb[by[0]], pb[by[1]]))
        out.append((cells, mass, rel))
    return out, (ax[0], by[0])


def _max_disjoint_mass(entries):
    """Exact maximum-weight packing of pairwise-disjoint cell sets.

    Depth-first search over entries sorted by descending mass. The bound on
    a branch is the suffix sum of the masses still to come, capped at 1: the
    cells lie in one block of a valid box, whose total mass is 1, so no
    disjoint family can exceed it. Ties keep the first optimum found, so the
    result is deterministic. Skipped entries are walked in a loop, so the
    recursion is only as deep as the packing is large.
    """
    order = sorted(range(len(entries)),
                   key=lambda i: (-entries[i][1], sorted(entries[i][0])))
    cells = [entries[i][0] for i in order]
    masses = [entries[i][1] for i in order]
    suffix = [_ZERO] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + masses[i]

    best_total = _ZERO
    best_pick: tuple[int, ...] = ()
    picked: list[int] = []

    def search(i, used, total):
        nonlocal best_total, best_pick
        if total > best_total:
            best_total, best_pick = total, tuple(picked)
        while i < len(order) and min(total + suffix[i], _ONE) > best_total:
            if used.isdisjoint(cells[i]):
                picked.append(i)
                search(i + 1, used | cells[i], total + masses[i])
                picked.pop()
            i += 1

    search(0, frozenset(), _ZERO)
    return best_total, [entries[order[i]] for i in best_pick]


def compute_pn(box: JointBox, base: HardyArgument, exhaustive_perms: bool = False) -> PnResult:
    """PN: the largest total success mass over families of success-disjoint
    relabeled arguments of base's kind, all satisfied by the box on base's
    designated input pair. The base itself competes, so PN >= PP.

    The relabeling search runs over cyclic shifts and reversals per input by
    default; exhaustive_perms widens it to every outcome permutation, and
    raises SearchBudgetExceeded before searching when some outcome count has
    more than MAX_PERMUTATION_FAMILY permutations (more than 7 outcomes).
    The search prunes on the box's positive cells, so its cost follows the
    satisfied relabelings, not the (n!)^2 permutation pairs.
    """
    base_pp = evaluate_pp(box, base)
    swaps = (base.relabeling.alice_input_swap, base.relabeling.bob_input_swap)
    candidates, _block = _success_candidates(
        box, base.kind, base.last_condition_bound, swaps, exhaustive_perms)

    base_events = argument_events(base)
    base_cells = frozenset((a, b) for (_x, _y, a, b) in base_events.success)
    entries = [(base_cells, base_pp, base)]
    seen = {base_cells}
    for cells, mass, rel in candidates:
        if cells in seen:
            continue
        seen.add(cells)
        arg = HardyArgument(base.kind, box.scenario, rel, base.last_condition_bound)
        entries.append((cells, mass, arg))

    positive = [e for e in entries if e[1] > 0]
    if not positive:
        return PnResult(_ZERO, (base,))
    total, picked = _max_disjoint_mass(positive)

    family = []
    claimed: set = set()
    for cells, mass, arg in picked:
        events = argument_events(arg)
        if (_violation(box.prob, events, arg.last_condition_bound) is not None
                or _mass(box.prob, events.success) != mass or not claimed.isdisjoint(cells)):
            raise RuntimeError("internal error: inconsistent packing member")
        claimed.update(cells)
        family.append(arg)
    return PnResult(total, tuple(family))


def ppc(box: JointBox, base: HardyArgument, exhaustive_perms: bool = False) -> Fraction:
    """Nonlocality not converted into success: PN minus PP for the base."""
    return compute_pn(box, base, exhaustive_perms).pn - evaluate_pp(box, base)


def best_satisfied_argument(box: JointBox, kind: str, p=_ZERO,
                            exhaustive_perms: bool = False):
    """The outcome-relabeled argument of the given kind (identity input roles)
    with the largest success mass among those the box satisfies, or None.
    Ties keep the first candidate in the deterministic search order. The
    search and its budget are those of compute_pn."""
    arg, _ = build_argument(kind, box.scenario, p)  # validates kind and p
    _check_box_for(box, arg)
    candidates, _block = _success_candidates(
        box, kind, arg.last_condition_bound, (False, False), exhaustive_perms)
    best = None
    for cells, mass, rel in candidates:
        if best is None or mass > best[1]:
            best = (rel, mass)
    if best is None:
        return None
    rel, mass = best
    return HardyArgument(kind, box.scenario, rel, arg.last_condition_bound), mass


def attaining_nonlocal_vertex(arg: HardyArgument) -> tuple[NonlocalLabel, JointBox, Fraction]:
    """Scan every congruence-box label for those satisfying arg's zero
    conditions and return the one with maximal success mass (ties: first
    label in lexicographic order). The winner's success mass is recomputed
    from its materialized table via evaluate_pp before being returned."""
    s = arg.scenario
    events = argument_events(arg)
    best = None
    for label in itertools.product(range(s.min_outputs), repeat=3):
        entry = nonlocal_entry_fn(s, label)
        if _violation(entry, events, arg.last_condition_bound) is None:
            mass = _mass(entry, events.success)
            if best is None or mass > best[1]:
                best = (label, mass)
    if best is None:
        raise ValueError("no congruence vertex satisfies the argument's zero conditions")
    label, mass = best
    box = nonlocal_vertex(s, label)
    pp = evaluate_pp(box, arg)
    if pp != mass:
        raise RuntimeError("internal error: scan and table evaluation disagree")
    return NonlocalLabel(*label), box, pp


@dataclass(frozen=True)
class QuantumReference:
    """A documented reference value; nothing quantum is ever computed here."""

    value: float
    note: str


_TWO_OUTCOME_QUANTUM = (5.0 * math.sqrt(5.0) - 11.0) / 2.0


def quantum_reference(kind: str, min_outputs: int) -> Optional[QuantumReference]:
    """Known quantum optimum for comparison plots, where one exists.

    The conventional argument's quantum optimum is (5*sqrt(5) - 11)/2, about
    0.09017, an irrational number that is the same for every outcome count;
    it is carried as a documented decimal, never computed. The two-outcome
    relaxed argument coincides with the conventional one; beyond two outcomes
    no closed form is carried.
    """
    if kind == KIND_CONVENTIONAL:
        return QuantumReference(
            _TWO_OUTCOME_QUANTUM,
            "(5*sqrt(5)-11)/2, irrational; independent of the outcome count; reference only")
    if kind == KIND_RELAXED and min_outputs == 2:
        return QuantumReference(
            _TWO_OUTCOME_QUANTUM,
            "two-outcome case coincides with the conventional argument; reference only")
    return None
