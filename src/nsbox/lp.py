"""Exact linear programming over the rationals.

An exact presolve (variables forced to zero, empty rows dropped) followed
by a two-phase primal simplex on a tableau of int rows with no artificial
columns, whose phase one drops redundant equality rows. Each pivot touches
only the columns where the pivot row is nonzero. Bland's pivoting rule is
used in both phases, so degenerate programs terminate without cycling.
There is no floating-point code path: coefficients are validated to be
exact (ints, Fractions, or rational strings) and every result is an exact
``fractions.Fraction``. Optimal solutions are basic feasible solutions,
i.e. vertices of the feasible region.

Programs have the fixed shape

    maximize    objective . x
    subject to  row . x  = rhs   (eq_constraints)
                row . x <= rhs   (ineq_constraints)
                x >= 0

which is exactly what box-polytope problems need; general free variables are
deliberately unsupported. The objective is dense; each constraint row is
sparse, (index, coeff) pairs as in ``LinearCondition.coeffs``. Validation
scales each row once to ints by the lcm of its denominators; the presolve
and the simplex tableau work on those ints, and the rows stay sparse until
the tableau is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .rationals import coerce_rational

__all__ = [
    "LpStatus",
    "LpValidationError",
    "LinearProgram",
    "LpResult",
    "solve_max",
    "exact_rank",
]

_ZERO = Fraction(0)


class LpValidationError(ValueError):
    """A malformed program: bad dimensions or inexact coefficient types.

    Distinct from an Infeasible result. Validation failure means the program
    itself is ill-posed, not that its feasible set is empty.
    """


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def as_exact(value) -> Fraction:
    """Coerce to Fraction; floats and junk raise LpValidationError."""
    try:
        return coerce_rational(value)
    except ValueError as exc:
        raise LpValidationError(str(exc)) from exc


@dataclass
class LinearProgram:
    """A rational LP in the fixed maximize / eq / le / nonneg shape.

    Constraints are (row, rhs) pairs; a row is (index, coeff) tuples with
    strictly increasing int indices in range(num_vars). All coefficients may
    be ints, Fractions, or rational strings; canonicalization rejects floats,
    malformed pairs and bad indices, drops zero coefficients and scales each
    row to ints. Ints are the fast path: a row of ints is taken as it is.
    """

    num_vars: int
    objective: Sequence
    eq_constraints: Sequence = ()
    ineq_constraints: Sequence = ()

    def canonical(self) -> tuple[list[Fraction], list, list]:
        """Validate and return (objective, eq rows, ineq rows): the objective
        as Fractions, each constraint row as (pairs, rhs, scale), where scale
        is the lcm of the row's denominators (rhs included) and pairs and rhs
        are the row's nonzero coefficients and rhs times it, as ints. A row
        of ints keeps the caller's pair tuples."""
        if not isinstance(self.num_vars, int) or isinstance(self.num_vars, bool) or self.num_vars < 0:
            raise LpValidationError(f"num_vars must be a nonnegative integer, got {self.num_vars!r}")
        objective = [as_exact(v) for v in self.objective]
        if len(objective) != self.num_vars:
            raise LpValidationError(
                f"objective has {len(objective)} entries, expected num_vars={self.num_vars}")
        eq = [self._canonical_row(pair, "eq") for pair in self.eq_constraints]
        ineq = [self._canonical_row(pair, "ineq") for pair in self.ineq_constraints]
        return objective, eq, ineq

    def _canonical_row(self, pair, kind: str) -> tuple[list[tuple[int, int]], int, int]:
        try:
            row, rhs = pair
        except (TypeError, ValueError) as exc:
            raise LpValidationError(f"{kind} constraint must be a (row, rhs) pair, got {pair!r}") from exc
        coeffs, last, scale = [], -1, 1
        for entry in row:
            if type(entry) is not tuple or len(entry) != 2:
                raise LpValidationError(f"{kind} row entry must be an (index, coeff) pair, got {entry!r}")
            j, c = entry
            if type(j) is not int or not last < j < self.num_vars:
                raise LpValidationError(
                    f"{kind} row index {j!r} is not an int above {last} below num_vars={self.num_vars}")
            last = j
            if type(c) is not int:
                c = as_exact(c)
                scale = lcm(scale, c.denominator)
                entry = (j, c.numerator if c.denominator == 1 else c)
            if c:
                coeffs.append(entry)
        if type(rhs) is not int:
            rhs = as_exact(rhs)
            scale = lcm(scale, rhs.denominator)
        # an int's numerator and denominator are the int itself and 1
        if scale == 1:
            return coeffs, rhs.numerator, 1
        return ([(j, c.numerator * (scale // c.denominator)) for j, c in coeffs],
                rhs.numerator * (scale // rhs.denominator), scale)


@dataclass(frozen=True)
class LpResult:
    """Solver outcome. value/solution are set only for OPTIMAL status; the
    solution is a basic feasible solution (vertex) of the feasible region."""

    status: LpStatus
    value: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None


def _integer_row(values) -> list[int]:
    """Rationals scaled by the lcm of their denominators, as ints."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _cancel(target: list[int], col: int, pivot, piv: int) -> list[int]:
    """A multiple of the rational update target - target[col] / piv * pivot,
    positive for piv > 0; pivot is a row's nonzero (j, v) pairs and piv its
    entry in col. When piv divides target[col], that update itself, made in
    place on target's list. Otherwise piv * target - target[col] * pivot,
    both factors divided by their gcd, then by the gcd of its entries."""
    t = target[col]
    if t % piv == 0:
        t //= piv
        for j, v in pivot:
            target[j] -= t * v
        return target
    g = gcd(piv, t)
    scale, t = piv // g, t // g
    row = [scale * v for v in target]
    for j, v in pivot:
        row[j] -= t * v
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


class _Simplex:
    """Exact integer tableau with sparse-row pivots.

    Takes the presolved (pairs, rhs, scale) int rows as they are and is the
    one place they are expanded; scale is the row's slack or artificial
    entry. Each row is ints, the rational tableau row times a positive
    factor (its entry in its basic column): a pivot that divides a row's
    entry updates it in place and may leave a common factor, and a row it
    scales up is divided by the gcd of its entries. So the rational row's
    signs and ratios are kept, and they are all Bland's rule reads:
    the ratio test compares rhs_i / a_i by cross-multiplying, and the pivots
    are those of a Fraction tableau. Columns: real variables, slacks, rhs.
    An artificial variable has no column, as nothing reads one after phase
    one's objective is set up: it keeps its index in the basis (width and
    up, for ratio-test ties) and its initial entry, for that objective."""

    def __init__(self, num_vars: int, eq, ineq):
        self.n = num_vars
        self.width = width = num_vars + len(ineq)
        constraints = [(*row, -1) for row in eq]
        constraints += [(*row, num_vars + k) for k, row in enumerate(ineq)]
        # A row with rhs < 0 is negated so phase one can start from b >= 0,
        # and loses its basic slack. Each row without one is basic in an
        # artificial variable of entry scale, which phase one drives to zero.
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.artificials: list[tuple[int, int]] = []  # (row, initial entry)
        for coeffs, rhs, scale, slack in constraints:
            row = [0] * (width + 1)
            for j, c in coeffs:
                row[j] = c
            row[-1] = rhs
            if slack >= 0:
                row[slack] = scale
            if rhs < 0:
                row = [-v for v in row]
            g = gcd(scale, *row)
            if slack < 0 or rhs < 0:
                self.artificials.append((len(self.rows), scale // g))
                slack = width + len(self.artificials) - 1
            self.rows.append([v // g for v in row] if g > 1 else row)
            self.basis.append(slack)

    def _pivot(self, r: int, col: int, obj: Optional[list[int]]) -> Optional[list[int]]:
        """Make col basic in row r; returns obj, the objective row, updated."""
        row = self.rows[r]
        piv = row[col]
        if piv < 0:
            row = self.rows[r] = [-v for v in row]
            piv = -piv
        pivot = [(j, v) for j, v in enumerate(row) if v]
        for i, other in enumerate(self.rows):
            if i != r and other[col]:
                self.rows[i] = _cancel(other, col, pivot, piv)
        self.basis[r] = col
        if obj is not None and obj[col]:
            obj = _cancel(obj, col, pivot, piv)
        return obj

    def _bland(self, obj: list[int]) -> bool:
        """Pivot until no reduced cost is positive. False means unbounded.

        Bland's rule: entering column is the smallest eligible index; leaving
        row minimizes the ratio rhs_i / a_i, compared as rhs_i * a_k <
        rhs_k * a_i, ties broken by smallest basis index. This guarantees
        termination under degeneracy.
        """
        width, basis = self.width, self.basis
        while True:
            col = -1
            for j in range(width):
                if obj[j] > 0:
                    col = j
                    break
            if col < 0:
                return True
            pick = -1
            for i, row in enumerate(self.rows):
                a = row[col]
                if a > 0:
                    if pick >= 0:
                        lhs, rhs = row[-1] * best_a, best_rhs * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[pick]):
                            continue
                    pick, best_rhs, best_a = i, row[-1], a
            if pick < 0:
                return False
            obj = self._pivot(pick, col, obj)

    def phase_one(self) -> bool:
        """Find a basic feasible solution; False means infeasible.

        The artificials' total is minimized (no elimination shortcut).
        Artificials never re-enter: the entering scan stops at self.width.
        """
        if not self.artificials:
            return True
        width = self.width
        # Phase-one objective: maximize -(sum of artificials). In reduced form
        # over the starting basis that is the column-wise sum of the rows that
        # carry artificials (their own columns contribute zero cost), here
        # each over its artificial's entry, times the lcm of those entries.
        common = lcm(*(entry for _, entry in self.artificials))
        obj = [0] * (width + 1)
        for i, entry in self.artificials:
            row = self.rows[i]
            f = common // entry
            for j in range(width):
                v = row[j]
                if v:
                    obj[j] += f * v
        self._bland(obj)  # bounded by construction, cannot return False
        # basic values are >= 0, so the artificials sum to 0 iff each is 0
        if any(self.rows[i][-1] for i, b in enumerate(self.basis) if b >= width):
            return False
        # pivot the zero-valued artificials out of the basis; redundant rows drop
        drop = []
        for i in range(len(self.rows)):
            if self.basis[i] >= width:
                row = self.rows[i]
                col = next((j for j in range(width) if row[j] != 0), -1)
                if col < 0:
                    drop.append(i)
                else:
                    self._pivot(i, col, None)
        for i in reversed(drop):
            del self.rows[i]
            del self.basis[i]
        return True

    def phase_two(self, objective: list[Fraction]) -> bool:
        obj = _integer_row(objective) + [0] * (self.width - self.n + 1)
        for i, bcol in enumerate(self.basis):
            if obj[bcol]:
                row = self.rows[i]
                obj = _cancel(obj, bcol, [(j, v) for j, v in enumerate(row) if v], row[bcol])
        return self._bland(obj)

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.n
        for i, bcol in enumerate(self.basis):
            if bcol < self.n:
                row = self.rows[i]
                x[bcol] = Fraction(row[-1], row[bcol])
        return x


def _presolve(num_vars: int, eq, ineq):
    """Exact reductions that keep the feasible set and every vertex.

    Takes canonical (pairs, rhs, scale) int rows. Returns (keep, eq, ineq):
    the surviving variable indices in their original order (so Bland's rule
    ranks them as before) and the rows restricted and renumbered to them, in
    the same form, or None when the program is infeasible on its face. A
    scale is positive, so every sign test reads the ints.

    - An equality with rhs 0 whose live coefficients share one sign forces
      those variables to 0 under x >= 0. Forcing some variables can leave a
      mixed-sign row (a no-signaling row) one-signed, so this runs to a
      fixpoint.
    - Rows left empty are dropped; an empty equality with rhs != 0 or an empty
      <= row with rhs < 0 is infeasible.

    A redundant equality, such as a repeat of another, is left to phase one,
    which drops each row its artificial leaves with no nonzero column.
    """
    forced = [False] * num_vars
    changed = True
    while changed:
        changed = False
        for nonzero, rhs, _ in eq:
            if rhs:
                continue
            # the live coefficients are nonzero: one sign iff one value of c > 0
            if len({c > 0 for j, c in nonzero if not forced[j]}) == 1:
                for j, _ in nonzero:
                    forced[j] = True
                changed = True
    keep = [j for j in range(num_vars) if not forced[j]]
    column = {j: k for k, j in enumerate(keep)}

    def restrict(nonzero, rhs, scale) -> tuple:
        return tuple((column[j], c) for j, c in nonzero if not forced[j]), rhs, scale

    reduced_eq = []
    for row in eq:
        pairs, rhs, _ = row = restrict(*row)
        if pairs:
            reduced_eq.append(row)
        elif rhs:
            return None
    reduced_ineq = []
    for row in ineq:
        pairs, rhs, _ = row = restrict(*row)
        if pairs:
            reduced_ineq.append(row)
        elif rhs < 0:
            return None
    return keep, reduced_eq, reduced_ineq


def solve_max(lp: LinearProgram) -> LpResult:
    """Maximize exactly. OPTIMAL results carry an exact value and a vertex
    solution; the value is recomputed as objective . solution, so it satisfies
    the program by substitution."""
    objective, eq, ineq = lp.canonical()
    reduced = _presolve(lp.num_vars, eq, ineq)
    if reduced is None:
        return LpResult(LpStatus.INFEASIBLE)
    keep, eq, ineq = reduced
    tab = _Simplex(len(keep), eq, ineq)
    if not tab.phase_one():
        return LpResult(LpStatus.INFEASIBLE)
    if not tab.phase_two([objective[j] for j in keep]):
        return LpResult(LpStatus.UNBOUNDED)
    x = [_ZERO] * lp.num_vars
    for j, v in zip(keep, tab.solution()):
        x[j] = v
    value = _ZERO
    for c, v in zip(objective, x):
        if c and v:
            value += c * v
    return LpResult(LpStatus.OPTIMAL, value, tuple(x))


def exact_rank(rows) -> int:
    """Rank of a rational matrix, by incremental exact elimination.

    Each incoming row, scaled to ints, is reduced against the echelon basis
    accumulated so far with the simplex's integer elimination; a nonzero
    remainder joins the basis. Cost scales with rank, not with
    the row count squared.
    """
    basis = []  # (lead column, its entry, the row's nonzero pairs)
    width = None
    for raw in rows:
        vec = _integer_row([as_exact(v) for v in raw])
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise LpValidationError("ragged matrix: rows differ in length")
        for lj, piv, pivot in basis:
            if vec[lj]:
                vec = _cancel(vec, lj, pivot, piv)
        j = next((k for k, v in enumerate(vec) if v), -1)
        if j >= 0:
            basis.append((j, vec[j], [(k, v) for k, v in enumerate(vec) if v]))
    return len(basis)
