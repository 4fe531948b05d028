"""Exact linear programming over the rationals.

An exact presolve (variables forced to zero, empty and duplicate rows
dropped) followed by a two-phase primal simplex on a tableau of
``fractions.Fraction`` entries. Each pivot touches only the columns where the
pivot row is nonzero. Bland's pivoting rule is used in both phases, so
degenerate programs terminate without cycling. There is no floating-point
code path: coefficients are validated to be exact (ints, Fractions, or
rational strings) and every result is an exact rational. Optimal solutions are
basic feasible solutions, i.e. vertices of the feasible region.

Programs have the fixed shape

    maximize    objective . x
    subject to  row . x  = rhs   (eq_constraints)
                row . x <= rhs   (ineq_constraints)
                x >= 0

which is exactly what box-polytope problems need; general free variables are
deliberately unsupported. The objective is dense; each constraint row is
sparse, (index, coeff) pairs as in ``LinearCondition.coeffs``, and stays
sparse until the simplex tableau is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .rationals import coerce_rational, format_rational

__all__ = [
    "LpStatus",
    "LpValidationError",
    "LinearProgram",
    "LpResult",
    "solve_max",
    "check_feasible",
    "feasible_above",
    "exact_rank",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    malformed pairs and bad indices, and drops zero coefficients.
    """

    num_vars: int
    objective: Sequence
    eq_constraints: Sequence = ()
    ineq_constraints: Sequence = ()

    def canonical(self) -> tuple[list[Fraction], list, list]:
        """Validate and return (objective, eq rows, ineq rows) as Fractions;
        a pair whose coefficient is already a Fraction is kept as it is."""
        if not isinstance(self.num_vars, int) or isinstance(self.num_vars, bool) or self.num_vars < 0:
            raise LpValidationError(f"num_vars must be a nonnegative integer, got {self.num_vars!r}")
        objective = [as_exact(v) for v in self.objective]
        if len(objective) != self.num_vars:
            raise LpValidationError(
                f"objective has {len(objective)} entries, expected num_vars={self.num_vars}")
        eq = [self._canonical_row(pair, "eq") for pair in self.eq_constraints]
        ineq = [self._canonical_row(pair, "ineq") for pair in self.ineq_constraints]
        return objective, eq, ineq

    def _canonical_row(self, pair, kind: str) -> tuple[list[tuple[int, Fraction]], Fraction]:
        try:
            row, rhs = pair
        except (TypeError, ValueError) as exc:
            raise LpValidationError(f"{kind} constraint must be a (row, rhs) pair, got {pair!r}") from exc
        coeffs, last = [], -1
        for entry in row:
            if type(entry) is not tuple or len(entry) != 2:
                raise LpValidationError(f"{kind} row entry must be an (index, coeff) pair, got {entry!r}")
            j, c = entry
            if type(j) is not int or not last < j < self.num_vars:
                raise LpValidationError(
                    f"{kind} row index {j!r} is not an int above {last} below num_vars={self.num_vars}")
            last = j
            if type(c) is not Fraction:
                entry = (j, as_exact(c))
            if entry[1]:
                coeffs.append(entry)
        return coeffs, as_exact(rhs)

    def to_json_dict(self) -> dict:
        """Diagnostic JSON form; every rational renders as a "num/den" string."""
        objective, eq, ineq = self.canonical()

        def encode(rows):
            return [
                {"row": [format_rational(c) for c in _dense(coeffs, self.num_vars)],
                 "rhs": format_rational(rhs)}
                for coeffs, rhs in rows
            ]

        return {
            "num_vars": self.num_vars,
            "objective": [format_rational(c) for c in objective],
            "eq_constraints": encode(eq),
            "ineq_constraints": encode(ineq),
            "nonneg": True,
        }


@dataclass(frozen=True)
class LpResult:
    """Solver outcome. value/solution are set only for OPTIMAL status; the
    solution is a basic feasible solution (vertex) of the feasible region."""

    status: LpStatus
    value: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None


def _dense(coeffs, width: int) -> list[Fraction]:
    """A sparse row expanded to its width, zeros included."""
    row = [_ZERO] * width
    for j, c in coeffs:
        row[j] = c
    return row


def _nonzeros(row: list[Fraction]) -> list[tuple[int, Fraction]]:
    """The (index, value) pairs of a row's nonzero entries."""
    return [(j, v) for j, v in enumerate(row) if v]


def _eliminate(target: list[Fraction], col: int, nonzero) -> None:
    """Subtract target[col] times a pivot row, given as its (j, value)
    nonzeros, from target in place; the pivot row's zeros cost nothing."""
    f = target[col]
    if f:
        for j, v in nonzero:
            target[j] -= f * v


class _Simplex:
    """Exact tableau with sparse-row pivots.

    The one place the sparse rows are expanded; a pivot subtracts only the
    pivot row's nonzero columns. Columns: real variables, slacks,
    [artificials], rhs."""

    def __init__(self, num_vars: int, eq, ineq):
        self.n = num_vars
        self.width = num_vars + len(ineq)
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        for coeffs, rhs in eq:
            self.rows.append(_dense(coeffs, self.width) + [rhs])
            self.basis.append(-1)
        for k, (coeffs, rhs) in enumerate(ineq):
            row = _dense(coeffs, self.width) + [rhs]
            row[num_vars + k] = _ONE
            self.rows.append(row)
            self.basis.append(num_vars + k)
        # Flip rows with negative rhs so phase one can start from b >= 0.
        # A flipped slack row loses its basic slack (coefficient becomes -1).
        for i, row in enumerate(self.rows):
            if row[-1] < 0:
                self.rows[i] = [-v for v in row]
                self.basis[i] = -1

    def _pivot(self, r: int, col: int, obj: Optional[list[Fraction]]) -> None:
        row = self.rows[r]
        piv = row[col]
        if piv != 1:
            row = [v / piv for v in row]
            self.rows[r] = row
        nonzero = _nonzeros(row)
        for i, other in enumerate(self.rows):
            if i != r:
                _eliminate(other, col, nonzero)
        if obj is not None:
            _eliminate(obj, col, nonzero)
        self.basis[r] = col

    def _bland(self, obj: list[Fraction]) -> bool:
        """Pivot until no reduced cost is positive. False means unbounded.

        Bland's rule: entering column is the smallest eligible index; leaving
        row minimizes the ratio, ties broken by smallest basis index. This
        guarantees termination under degeneracy.
        """
        width = self.width
        while True:
            col = -1
            for j in range(width):
                if obj[j] > 0:
                    col = j
                    break
            if col < 0:
                return True
            pick = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[col]
                if a > 0:
                    key = (row[-1] / a, self.basis[i])
                    if best is None or key < best:
                        best, pick = key, i
            if pick < 0:
                return False
            self._pivot(pick, col, obj)

    def phase_one(self) -> bool:
        """Find a basic feasible solution; False means infeasible.

        Rows without a basic slack get an explicit artificial variable whose
        total is then minimized (no elimination shortcut). Artificials never
        re-enter: the entering scan stops at self.width.
        """
        need = [i for i, b in enumerate(self.basis) if b < 0]
        if not need:
            return True
        for row in self.rows:
            row[-1:-1] = [_ZERO] * len(need)
        for k, i in enumerate(need):
            self.rows[i][self.width + k] = _ONE
            self.basis[i] = self.width + k
        # Phase-one objective: maximize -(sum of artificials). In reduced form
        # over the current basis that is the column-wise sum of the rows that
        # carry artificials (their own columns contribute zero cost).
        obj = [_ZERO] * (self.width + len(need) + 1)
        for i in need:
            row = self.rows[i]
            for j in range(self.width):
                v = row[j]
                if v:
                    obj[j] += v
        self._bland(obj)  # bounded by construction, cannot return False
        residue = _ZERO
        for i, b in enumerate(self.basis):
            if b >= self.width:
                residue += self.rows[i][-1]
        if residue != 0:
            return False
        self._drive_out_artificials()
        for i, row in enumerate(self.rows):
            self.rows[i] = row[: self.width] + [row[-1]]
        return True

    def _drive_out_artificials(self) -> None:
        """Pivot zero-valued artificials out of the basis; redundant rows drop."""
        drop = []
        for i in range(len(self.rows)):
            if self.basis[i] >= self.width:
                row = self.rows[i]
                col = next((j for j in range(self.width) if row[j] != 0), -1)
                if col < 0:
                    drop.append(i)
                else:
                    self._pivot(i, col, None)
        for i in reversed(drop):
            del self.rows[i]
            del self.basis[i]

    def phase_two(self, objective: list[Fraction]) -> bool:
        obj = list(objective) + [_ZERO] * (self.width - self.n) + [_ZERO]
        for i, bcol in enumerate(self.basis):
            if obj[bcol]:
                _eliminate(obj, bcol, _nonzeros(self.rows[i]))
        return self._bland(obj)

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.n
        for i, bcol in enumerate(self.basis):
            if bcol < self.n:
                x[bcol] = self.rows[i][-1]
        return x


def _presolve(num_vars: int, eq, ineq):
    """Exact reductions that keep the feasible set and every vertex.

    Takes canonical sparse rows. Returns (keep, eq, ineq): the surviving
    variable indices in their original order (so Bland's rule ranks them as
    before) and the sparse rows restricted and renumbered to them, or None
    when the program is infeasible on its face.

    - An equality with rhs 0 whose live coefficients share one sign forces
      those variables to 0 under x >= 0. Forcing some variables can leave a
      mixed-sign row (a no-signaling row) one-signed, so this runs to a
      fixpoint.
    - Rows left empty are dropped; an empty equality with rhs != 0 or an empty
      <= row with rhs < 0 is infeasible.
    - An equality that repeats or negates an earlier one is dropped.
    """
    forced = [False] * num_vars
    changed = True
    while changed:
        changed = False
        for nonzero, rhs in eq:
            if rhs:
                continue
            unforced = [(j, c) for j, c in nonzero if not forced[j]]
            if unforced and (all(c > 0 for _, c in unforced) or all(c < 0 for _, c in unforced)):
                for j, _ in unforced:
                    forced[j] = True
                changed = True
    keep = [j for j in range(num_vars) if not forced[j]]
    column = {j: k for k, j in enumerate(keep)}

    def restrict(nonzero) -> tuple:
        return tuple((column[j], c) for j, c in nonzero if not forced[j])

    reduced_eq = []
    seen = set()
    for nonzero, rhs in eq:
        pairs = restrict(nonzero)
        if not pairs:
            if rhs:
                return None
            continue
        # one key for a row and its negation
        key = (pairs, rhs) if pairs[0][1] > 0 else (tuple((k, -c) for k, c in pairs), -rhs)
        if key not in seen:
            seen.add(key)
            reduced_eq.append((pairs, rhs))
    reduced_ineq = []
    for coeffs, rhs in ineq:
        pairs = restrict(coeffs)
        if pairs:
            reduced_ineq.append((pairs, rhs))
        elif rhs < 0:
            return None
    return keep, reduced_eq, reduced_ineq


def _phase_one(lp: LinearProgram):
    """Validate, presolve and run phase one. Returns (objective, keep,
    tableau) at a basic feasible solution, or None when infeasible."""
    objective, eq, ineq = lp.canonical()
    reduced = _presolve(lp.num_vars, eq, ineq)
    if reduced is None:
        return None
    keep, eq, ineq = reduced
    tab = _Simplex(len(keep), eq, ineq)
    return (objective, keep, tab) if tab.phase_one() else None


def solve_max(lp: LinearProgram) -> LpResult:
    """Maximize exactly. OPTIMAL results carry an exact value and a vertex
    solution; the value is recomputed as objective . solution, so it satisfies
    the program by substitution."""
    started = _phase_one(lp)
    if started is None:
        return LpResult(LpStatus.INFEASIBLE)
    objective, keep, tab = started
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


def check_feasible(lp: LinearProgram) -> bool:
    """True iff the constraint set admits any point (phase one only)."""
    return _phase_one(lp) is not None


def feasible_above(lp: LinearProgram, bound) -> bool:
    """True iff some feasible point attains objective . x >= bound.

    Duality spot-check helper: after solve_max returns value v, the program
    must be feasible at bound v and infeasible at v + eps for any eps > 0.
    """
    objective, eq, ineq = lp.canonical()
    cut = ([(j, -c) for j, c in enumerate(objective) if c], -as_exact(bound))
    probe = LinearProgram(lp.num_vars, objective, eq, ineq + [cut])
    return check_feasible(probe)


def exact_rank(rows) -> int:
    """Rank of a rational matrix, by incremental exact elimination.

    Each incoming row is reduced against the echelon basis accumulated so
    far; a nonzero remainder joins the basis. Cost scales with rank, not with
    the row count squared.
    """
    basis: list[list[Fraction]] = []
    lead: list[int] = []
    width = None
    for raw in rows:
        vec = [as_exact(v) for v in raw]
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise LpValidationError("ragged matrix: rows differ in length")
        for prow, lj in zip(basis, lead):
            f = vec[lj]
            if f:
                vec = [a - f * b for a, b in zip(vec, prow)]
        j = next((k for k, v in enumerate(vec) if v != 0), -1)
        if j >= 0:
            piv = vec[j]
            if piv != 1:
                vec = [v / piv for v in vec]
            basis.append(vec)
            lead.append(j)
    return len(basis)
