"""Exact LP kernel tests.

The randomized cross-check uses an independent brute-force oracle: enumerate
every size-n subset of constraint rows, solve the square systems with a local
Gaussian elimination (written here, not imported from the package), keep the
feasible candidates, and take the best objective value. Generated programs
always carry box bounds, so they are bounded and pointed and the oracle's
candidate set provably contains an optimal vertex whenever one exists.

Programs take sparse rows. Each test writes a row densely and passes it
through ``sparse``, which keeps the zeros, so every program built here also
exercises the kernel's dropping of zero coefficients; the oracle reads the
dense rows.

The integer simplex tableau is also checked against a reference Fraction
tableau kept below: same results through the same pivots. Likewise the
presolve on int rows is checked against the presolve on Fraction rows that
it replaced: same variables kept, same rational rows, same verdicts.

Optima are proved by the exact dual certificates of ``certificates``, and
feasibility is a zero-objective ``solve_max`` returning OPTIMAL.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nsbox import (
    HardyArgument,
    JointBox,
    LinearProgram,
    LpResult,
    LpStatus,
    LpValidationError,
    Relabeling,
    Scenario,
    build_argument,
    deterministic_box,
    deterministic_strategies,
    is_local,
    nonlocal_vertex,
    ns_program,
    uniform_box,
    exact_rank,
    coerce_rational,
    parse_rational,
    solve_max,
)
from nsbox import lp as lp_module
from nsbox.lp import _presolve

import certificates
from certificates import certify_optimum

F = Fraction


def sparse(row):
    """A dense row as (index, coeff) pairs, zeros kept."""
    return tuple(enumerate(row))


def program(num_vars, objective, eq=(), ineq=()):
    """A LinearProgram from dense rows."""
    return LinearProgram(num_vars, objective, [(sparse(r), b) for r, b in eq],
                         [(sparse(r), b) for r, b in ineq])


def zero_objective(lp):
    """lp with a zero objective: solve_max runs its phase one, and phase two
    has nothing to improve."""
    return LinearProgram(lp.num_vars, [0] * lp.num_vars, lp.eq_constraints, lp.ineq_constraints)


def feasible(lp):
    return solve_max(zero_objective(lp)).status is LpStatus.OPTIMAL


def test_single_bounded_variable():
    lp = program(1, [1], [], [([1], F(1, 2))])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(1, 2)
    assert res.solution == (F(1, 2),)


def test_split_between_two_variables():
    lp = program(2, [1, 0], [([1, 1], 1)], [([1, -1], 0)])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(1, 2)


def test_contradictory_rows_infeasible():
    lp = program(1, [1], [([1], 1)], [([1], F(1, 2))])
    assert solve_max(lp).status is LpStatus.INFEASIBLE


def test_zero_objective_feasibility_basics():
    assert feasible(program(1, [0], [([1], 1)], []))
    # x = -1 contradicts x >= 0
    assert not feasible(program(1, [0], [([1], -1)], []))


def test_unbounded_detected():
    assert solve_max(program(1, [1])).status is LpStatus.UNBOUNDED
    assert solve_max(program(2, [1, 1], [([1, -1], 0)], [])).status is LpStatus.UNBOUNDED


def test_degenerate_program_terminates():
    # Beale's classic cycling example; Bland's rule must still find 1/20.
    lp = program(
        4,
        [F(3, 4), -150, F(1, 50), -6],
        [],
        [([F(1, 4), -60, F(-1, 25), 9], 0),
         ([F(1, 2), -90, F(-1, 50), 3], 0),
         ([0, 0, 1, 0], 1)],
    )
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(1, 20)


def test_redundant_equalities_tolerated():
    lp = program(2, [1, 1], [([1, 1], 1), ([1, 1], 1), ([2, 2], 2)], [])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 1


def test_negative_rhs_rows_handled():
    # -x1 <= -1 means x1 >= 1
    lp = program(1, [-1], [], [([-1], -1)])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == -1
    assert res.solution == (F(1),)


def test_float_coefficients_rejected():
    with pytest.raises(LpValidationError):
        solve_max(program(1, [0.5]))
    with pytest.raises(LpValidationError):
        solve_max(program(1, [1], [([1], 0.5)], []))
    with pytest.raises(LpValidationError):
        solve_max(program(1, [1], [], [([0.25], 1)]))


def test_shape_validation():
    with pytest.raises(LpValidationError):
        solve_max(program(2, [1]))
    with pytest.raises(LpValidationError):
        solve_max(program(-1, []))
    bad_rows = {
        "out of range": ((0, 1), (2, 1)),
        "negative": ((-1, 1),),
        "repeated": ((0, 1), (0, 1)),
        "decreasing": ((1, 1), (0, 1)),
        "bool index": ((True, 1),),
        "not a pair": ((0, 1), (1,)),
        "not a tuple": ([0, 1],),
        "bare coefficient": (1, 0),
    }
    for row in bad_rows.values():
        for lp in (LinearProgram(2, [1, 0], [(row, 1)], []),
                   LinearProgram(2, [1, 0], [], [(row, 1)])):
            with pytest.raises(LpValidationError):
                solve_max(lp)
            with pytest.raises(LpValidationError):
                lp.canonical()
    # each constraint is a (row, rhs) pair
    for pair in (((0, 1),), (((0, 1),), 1, 2), 5):
        for lp, kind in ((LinearProgram(2, [1, 0], [pair], []), "eq"),
                         (LinearProgram(2, [1, 0], [], [pair]), "ineq")):
            with pytest.raises(LpValidationError, match=rf"^{kind} constraint must be a \(row, rhs\) pair"):
                solve_max(lp)
    # x >= 0 is the only shape, so there is no nonneg switch to turn off
    with pytest.raises(TypeError):
        LinearProgram(1, [1], nonneg=False)


def test_canonical_drops_zeros_and_scales_rows_to_ints():
    one, two = (0, 1), (2, 2)
    lp = LinearProgram(
        3, [1, 0, 0],
        [((one, (1, 0), two), 1), (((0, F(1)), (1, 0), (2, F(1, 2))), 1)],
        [(((1, F(0)), (2, "3")), 2), (((0, F(2, 3)), (1, 1), (2, "-1/4")), F(5, 6))])
    _, eq, ineq = lp.canonical()
    # (pairs, rhs, scale): the rational row is pairs / scale, rhs / scale,
    # and scale is the lcm of the row's denominators
    assert eq == [([one, two], 1, 1), ([(0, 2), (2, 1)], 2, 2)]
    assert ineq == [([(2, 3)], 2, 1), ([(0, 8), (1, 12), (2, -3)], 10, 12)]
    assert eq[0][0][0] is one and eq[0][0][1] is two  # a row of ints is kept as it is
    for pairs, rhs, scale in eq + ineq:
        assert all(type(v) is int for v in [*(c for _, c in pairs), rhs, scale])


def test_validation_error_is_not_a_status():
    # Ill-posed input raises; it must never masquerade as INFEASIBLE.
    assert issubclass(LpValidationError, ValueError)
    try:
        solve_max(program(1, [0.5]))
    except LpValidationError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected LpValidationError")


def test_rational_strings_accepted():
    lp = program(1, ["1"], [], [(["1"], "1/2")])
    assert solve_max(lp).value == F(1, 2)


def test_coerce_rational_returns_a_fraction_as_it_is():
    q = F(3, 7)
    assert coerce_rational(q) is q
    assert coerce_rational(2) == 2 and coerce_rational("1/2") == F(1, 2)
    with pytest.raises(ValueError, match="float"):
        coerce_rational(0.5)
    with pytest.raises(ValueError, match="not a rational"):
        coerce_rational(object())
    # parse_rational reads text only, so an int is refused, not coerced
    with pytest.raises(ValueError, match="^expected a rational string, got 3$"):
        parse_rational(3)


def test_bools_are_not_rationals():
    for flag in (True, False):
        with pytest.raises(ValueError, match=rf"^bool value {flag} rejected: exact rationals only$"):
            coerce_rational(flag)
    # so no table, coefficient or bound takes one as 0 or 1
    s = Scenario.symmetric(2)
    table = uniform_box(s).table
    with pytest.raises(ValueError, match="^bool value True rejected"):
        JointBox(s, (True, False) + table[2:])
    # an int subclass, but not a coefficient, objective entry or rhs
    for lp in (LinearProgram(1, [True], [([(0, 1)], 1)], []),
               LinearProgram(1, [1], [([(0, True)], 1)], []),
               LinearProgram(1, [1], [], [([(0, 1)], False)])):
        with pytest.raises(LpValidationError, match="^bool value (True|False) rejected"):
            solve_max(lp)
    with pytest.raises(ValueError, match="^bool value False rejected"):
        HardyArgument("relaxed", s, last_condition_bound=False)


def test_optimality_certificate_helper():
    lp = program(2, [1, 1], [([1, 2], 2)], [([1, 0], 1)])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert certify_optimum(lp) == res.value == F(3, 2)
    # the dual has one row per primal variable over (y+, y-, z)
    dual = certificates.dual_program(lp)
    assert (dual.num_vars, len(dual.eq_constraints), len(dual.ineq_constraints)) == (3, 0, 2)

    # a feasible point short of the optimum, reported as optimal, fails the
    # substitution: no dual solution can close the gap
    def short_of_optimum(program):
        found = solve_max(program)
        if program is lp:
            return LpResult(LpStatus.OPTIMAL, F(1), (F(0), F(1)))
        return found

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificates, "solve_max", short_of_optimum)
        with pytest.raises(AssertionError):
            certify_optimum(lp)


def test_presolve_forces_zeros_through_mixed_sign_row():
    # -x1 + x2 = 0 is mixed-signed until x0 + x1 = 0 forces x1, then it forces x2
    eq = [([0, -1, 1, 0], 0), ([1, 1, 0, 0], 0)]
    ineq = [([0, 0, 0, 1], 2)]
    lp = program(4, [1, 1, 1, 1], eq, ineq)
    keep, red_eq, red_ineq = _presolve(4, *lp.canonical()[1:])
    assert keep == [3] and red_eq == [] and red_ineq == [(((0, 1),), 2, 1)]
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL and res.value == 2
    assert res.solution == (0, 0, 0, 2)


def test_presolve_empty_rows_decide_infeasibility():
    empty_eq = program(2, [1, 0], [([0, 0], 1)], [([1, 1], 1)])
    # x0 = 0 is forced, which leaves x0 = 1 an empty row with rhs 1
    emptied_eq = program(2, [0, 1], [([1, 0], 0), ([1, 0], 1)], [([0, 1], 1)])
    empty_ineq = program(2, [1, 1], [], [([0, 0], -1), ([1, 1], 1)])
    for lp in (empty_eq, emptied_eq, empty_ineq):
        assert solve_max(lp).status is LpStatus.INFEASIBLE
        assert not feasible(lp)
    # an empty <= row with rhs >= 0 is just dropped
    res = solve_max(program(1, [1], [], [([0], 0), ([1], 1)]))
    assert res.status is LpStatus.OPTIMAL and res.value == 1


def kept_rows(lp):
    """The equality rows lp's presolve keeps, and the tableau's rows after
    phase one."""
    keep, eq, ineq = _presolve(lp.num_vars, *lp.canonical()[1:])
    tab = lp_module._Simplex(len(keep), eq, ineq)
    assert tab.phase_one()
    return eq, tab.rows


def test_presolve_keeps_repeated_and_negated_equalities():
    # the presolve passes a repeat or a negation on; phase one drops it
    eq = [([F(1), F(-1)], F(1)), ([F(-1), F(1)], F(-1)), ([F(1), F(-1)], F(1)),
          ([F(1), F(1)], F(3))]
    lp = program(2, [0, 1], eq, [])
    red_eq, rows = kept_rows(lp)
    assert [(list(pairs), rhs, scale) for pairs, rhs, scale in red_eq] == lp.canonical()[1]
    assert len(rows) == 2
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL and res.solution == (2, 1)
    # other scalar multiples likewise
    doubled = [([1, 1], 1), ([2, 2], 2)]
    halved = [([F(1, 2), F(1, 2)], F(1, 2)), ([1, 1], 1)]
    for eq in (doubled, halved):
        lp = program(2, [0, 1], eq, [])
        red_eq, rows = kept_rows(lp)
        assert len(red_eq) == 2 and len(rows) == 1
        res = solve_max(lp)
        assert res.status is LpStatus.OPTIMAL and res.value == 1


def test_presolve_keeps_rows_equal_after_restriction():
    # x0 = 0 is forced, so (1/3) x0 + x1 = 1, x1 = 1 and -2 x1 = -2 are one
    # row: the presolve restricts each and keeps all three, with their scales
    lp = program(2, [0, 1], [([1, 0], 0), ([F(1, 3), 1], 1), ([0, 1], 1), ([0, -2], -2)], [])
    assert lp.canonical()[1][1] == ([(0, 1), (1, 3)], 3, 3)
    assert _presolve(2, *lp.canonical()[1:]) == \
        ([1], [(((0, 3),), 3, 3), (((0, 1),), 1, 1), (((0, -2),), -2, 1)], [])
    assert len(kept_rows(lp)[1]) == 1
    same_as_fraction_presolve(solve_max, lp)


def test_feasibility_helpers_agree_with_solve_max():
    programs = [
        program(4, [1, 1, 1, 1], [([0, -1, 1, 0], 0), ([1, 1, 0, 0], 0)],
                      [([0, 0, 0, 1], 2)]),
        program(2, [0, 1], [([1, -1], 1), ([-1, 1], -1)], [([1, 1], 5)]),
        program(2, [0, 1], [([1, 0], 0), ([1, 0], 1)], [([0, 1], 1)]),
        program(3, [1, 2, 3], [([1, 1, 1], 1), ([0, 1, -1], 0)], []),
    ]
    for lp in programs:
        res = solve_max(lp)
        assert feasible(lp) == (res.status is LpStatus.OPTIMAL)
        if res.status is LpStatus.OPTIMAL:
            assert certify_optimum(lp) == res.value


def test_canonical_objective_and_scaled_rows():
    lp = program(2, [1, F(-1, 2)], [([1, 1], 1)], [([0, 1], F(3, 4))])
    objective, eq, ineq = lp.canonical()
    assert objective == [1, F(-1, 2)] and all(type(c) is F for c in objective)
    assert eq == [([(0, 1), (1, 1)], 1, 1)]
    assert ineq == [([(1, 4)], 3, 4)]  # the zero dropped, the row scaled by 4


def test_exact_rank_basics():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[F(1, 3), 1], [1, 3], [0, 1]]) == 2
    with pytest.raises(LpValidationError):
        exact_rank([[1, 2], [1]])


# ---------------------------------------------------------------------------
# randomized cross-check against an independent brute-force vertex oracle


def _solve_square(matrix, rhs):
    """Gaussian elimination for a square rational system; None if singular.

    Local to the tests on purpose: the oracle must not lean on the kernel.
    """
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _brute_force_max(num_vars, objective, eq, ineq):
    """Best objective value over all feasible basic points, or None if none."""
    rows = [(row, rhs) for row, rhs in eq]
    rows += [(row, rhs) for row, rhs in ineq]
    for i in range(num_vars):
        unit = [Fraction(0)] * num_vars
        unit[i] = Fraction(1)
        rows.append((unit, Fraction(0)))  # x_i = 0 candidate tight row

    def feasible(x):
        if any(v < 0 for v in x):
            return False
        for row, rhs in eq:
            if sum(c * v for c, v in zip(row, x)) != rhs:
                return False
        for row, rhs in ineq:
            if sum(c * v for c, v in zip(row, x)) > rhs:
                return False
        return True

    best = None
    for subset in itertools.combinations(range(len(rows)), num_vars):
        x = _solve_square([rows[i][0] for i in subset], [rows[i][1] for i in subset])
        if x is None or not feasible(x):
            continue
        value = sum(c * v for c, v in zip(objective, x))
        if best is None or value > best:
            best = value
    return best


# integers, and fractions with mixed denominators, so canonical()'s scaling of
# each row to ints sees denominators that differ within a row
_coeff = st.one_of(st.integers(min_value=-3, max_value=3).map(Fraction),
                   st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                             st.sampled_from([2, 3, 4, 5, 6])))


def _program_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    objective = [draw(_coeff) for _ in range(n)]
    eq = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        eq.append(([draw(_coeff) for _ in range(n)], draw(_coeff)))
    ineq = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        ineq.append(([draw(_coeff) for _ in range(n)], draw(_coeff)))
    if draw(st.booleans()):  # a lower bound, -row . x <= -q: the tableau flips it
        q = draw(st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 3, 4])))
        ineq.append(([-Fraction(draw(st.integers(0, 2))) for _ in range(n)], -q))
    if draw(st.booleans()):  # one-signed rhs-0 row: the presolve forces zeros
        sign = draw(st.sampled_from([1, -1]))
        eq.append(([Fraction(sign * draw(st.integers(0, 2))) for _ in range(n)], Fraction(0)))
    if eq and draw(st.booleans()):  # negated copy: phase one drops it
        row, rhs = eq[draw(st.integers(0, len(eq) - 1))]
        eq.append(([-c for c in row], -rhs))
    for i in range(n):  # box bounds keep the region bounded and pointed
        unit = [Fraction(0)] * n
        unit[i] = Fraction(1)
        ineq.append((unit, Fraction(3)))
    return n, objective, eq, ineq


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_programs_match_brute_force(data):
    n, objective, eq, ineq = _program_strategy(data.draw)
    lp = program(n, objective, eq, ineq)
    res = solve_max(lp)
    oracle = _brute_force_max(n, objective, eq, ineq)

    # the kernel drops the zeros that sparse() kept, and nothing else, and
    # scales each row by the lcm of its denominators
    _, canon_eq, canon_ineq = lp.canonical()
    for canon, dense in ((canon_eq, eq), (canon_ineq, ineq)):
        assert [([(j, F(c, scale)) for j, c in pairs], F(rhs, scale))
                for pairs, rhs, scale in canon] == \
            [([(j, c) for j, c in enumerate(row) if c], rhs) for row, rhs in dense]
        assert [scale for _, _, scale in canon] == \
            [math.lcm(rhs.denominator, *(c.denominator for c in row)) for row, rhs in dense]

    assert feasible(lp) == (oracle is not None)
    if oracle is None:
        assert res.status is LpStatus.INFEASIBLE
        return

    assert res.status is LpStatus.OPTIMAL
    assert res.value == oracle

    # exact resubstitution
    x = res.solution
    assert all(v >= 0 for v in x)
    for row, rhs in eq:
        assert sum(c * v for c, v in zip(row, x)) == rhs
    for row, rhs in ineq:
        assert sum(c * v for c, v in zip(row, x)) <= rhs

    # vertex property: enough tight non-equality rows
    tight = sum(1 for row, rhs in ineq if sum(c * v for c, v in zip(row, x)) == rhs)
    tight += sum(1 for v in x if v == 0)
    eq_rank = exact_rank([row for row, _ in eq]) if eq else 0
    assert tight >= n - eq_rank

    # exact optimality certificate and determinism
    assert certify_optimum(lp) == res.value
    again = solve_max(lp)
    assert (again.status, again.value, again.solution) == (res.status, res.value, res.solution)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_redundant_equalities_leave_the_optimum_unchanged(data):
    # a copy, a negation and a positive multiple of equality rows: the
    # tableau meets each, and phase one drops the redundant ones
    n, objective, eq, ineq = _program_strategy(data.draw)
    assume(eq)
    factor = data.draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)))
    redundant = []
    for f in (1, -1, factor):
        row, rhs = eq[data.draw(st.integers(0, len(eq) - 1))]
        redundant.append(([f * c for c in row], f * rhs))
    base = solve_max(program(n, objective, eq, ineq))
    res = solve_max(program(n, objective, eq + redundant, ineq))
    assert (res.status, res.value) == (base.status, base.value)


# ---------------------------------------------------------------------------
# differential tests: the integer presolve and tableau against Fraction ones


def rational_rows(rows):
    """Int (pairs, rhs, scale) rows as the exact rational (pairs, rhs) rows
    they stand for."""
    return [(tuple((j, Fraction(c, scale)) for j, c in pairs), Fraction(rhs, scale))
            for pairs, rhs, scale in rows]


def fraction_presolve(num_vars: int, eq, ineq):
    """Reference: the presolve on rational rows that the int presolve
    replaced."""
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
    for coeffs, rhs in eq:
        pairs = restrict(coeffs)
        if pairs:
            reduced_eq.append((pairs, rhs))
        elif rhs:
            return None
    reduced_ineq = []
    for coeffs, rhs in ineq:
        pairs = restrict(coeffs)
        if pairs:
            reduced_ineq.append((pairs, rhs))
        elif rhs < 0:
            return None
    return keep, reduced_eq, reduced_ineq


def same_as_fraction_presolve(fn, *args):
    """fn(*args), checking that every presolve it runs keeps the same
    variables and the same rational rows, in order, as the reference (or
    finds the same program infeasible); returns fn's result."""
    calls = []

    def checked(num_vars, eq, ineq):
        reduced = _presolve(num_vars, eq, ineq)
        expected = fraction_presolve(num_vars, rational_rows(eq), rational_rows(ineq))
        if expected is None:
            assert reduced is None
        else:
            keep, red_eq, red_ineq = reduced
            assert (keep, rational_rows(red_eq), rational_rows(red_ineq)) == expected
        calls.append(num_vars)
        return reduced

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_presolve", checked)
        result = fn(*args)
    assert calls
    return result


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_programs_match_fraction_presolve(data):
    n, objective, eq, ineq = _program_strategy(data.draw)
    same_as_fraction_presolve(solve_max, program(n, objective, eq, ineq))


def seeded_relabeling(s, seed):
    rng = random.Random(seed)

    def perms(counts):
        return tuple(tuple(rng.sample(range(n), n)) for n in counts)

    return Relabeling(rng.random() < 0.5, rng.random() < 0.5, perms(s.alice), perms(s.bob))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["conventional", "relaxed"])
def test_ns_programs_match_fraction_presolve(kind, d):
    s = Scenario.symmetric(d)
    for relabeling in (Relabeling(), seeded_relabeling(s, 10 * d), seeded_relabeling(s, 10 * d + 1)):
        lp = ns_program(build_argument(kind, s, relabeling=relabeling)[0])
        same_as_fraction_presolve(lambda: lp_module._presolve(lp.num_vars, *lp.canonical()[1:]))


def mixture_box(s, weights):
    """The mixture of the first deterministic strategies, in
    deterministic_strategies order, with the given weights normalized:
    local by construction."""
    table = [Fraction(0)] * s.num_coords
    for w, (fa, fb) in zip(weights, deterministic_strategies(s)):
        for i, p in enumerate(deterministic_box(s, fa, fb).table):
            table[i] += Fraction(w, sum(weights)) * p
    return JointBox(s, tuple(table))


@pytest.mark.parametrize("d", [3, 4])
def test_locality_programs_match_fraction_presolve(d):
    s = Scenario.symmetric(d)
    cases = ((uniform_box(s), True), (nonlocal_vertex(s, (0, 1, 1)), False),
             (nonlocal_vertex(s, (1, 2, 0)), False), (mixture_box(s, [3, 0, 5, 0, 0, 7]), True))
    for box, local in cases:
        assert same_as_fraction_presolve(is_local, box) is local




def _fraction_dense(coeffs, width):
    row = [Fraction(0)] * width
    for j, c in coeffs:
        row[j] = c
    return row


def _fraction_eliminate(target, col, nonzero):
    f = target[col]
    if f:
        for j, v in nonzero:
            target[j] -= f * v


class FractionSimplex:
    """Reference: the simplex tableau of Fraction entries that the integer
    tableau replaced, kept here verbatim in its arithmetic (divide the pivot
    row by the pivot, subtract multiples of it, Bland's rule on Fraction
    ratio keys)."""

    def __init__(self, num_vars, eq, ineq):
        eq, ineq = rational_rows(eq), rational_rows(ineq)
        self.n = num_vars
        self.width = num_vars + len(ineq)
        self.rows = []
        self.basis = []
        for coeffs, rhs in eq:
            self.rows.append(_fraction_dense(coeffs, self.width) + [rhs])
            self.basis.append(-1)
        for k, (coeffs, rhs) in enumerate(ineq):
            row = _fraction_dense(coeffs, self.width) + [rhs]
            row[num_vars + k] = Fraction(1)
            self.rows.append(row)
            self.basis.append(num_vars + k)
        for i, row in enumerate(self.rows):
            if row[-1] < 0:
                self.rows[i] = [-v for v in row]
                self.basis[i] = -1

    def _pivot(self, r, col, obj):
        row = self.rows[r]
        piv = row[col]
        if piv != 1:
            row = [v / piv for v in row]
            self.rows[r] = row
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        for i, other in enumerate(self.rows):
            if i != r:
                _fraction_eliminate(other, col, nonzero)
        if obj is not None:
            _fraction_eliminate(obj, col, nonzero)
        self.basis[r] = col

    def _bland(self, obj):
        while True:
            col = next((j for j in range(self.width) if obj[j] > 0), -1)
            if col < 0:
                return True
            pick, best = -1, None
            for i, row in enumerate(self.rows):
                a = row[col]
                if a > 0:
                    key = (row[-1] / a, self.basis[i])
                    if best is None or key < best:
                        best, pick = key, i
            if pick < 0:
                return False
            self._pivot(pick, col, obj)

    def phase_one(self):
        need = [i for i, b in enumerate(self.basis) if b < 0]
        if not need:
            return True
        for row in self.rows:
            row[-1:-1] = [Fraction(0)] * len(need)
        for k, i in enumerate(need):
            self.rows[i][self.width + k] = Fraction(1)
            self.basis[i] = self.width + k
        obj = [Fraction(0)] * (self.width + len(need) + 1)
        for i in need:
            for j in range(self.width):
                obj[j] += self.rows[i][j]
        self._bland(obj)
        residue = sum((self.rows[i][-1] for i, b in enumerate(self.basis) if b >= self.width),
                      Fraction(0))
        if residue != 0:
            return False
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
        for i, row in enumerate(self.rows):
            self.rows[i] = row[: self.width] + [row[-1]]
        return True

    def phase_two(self, objective):
        obj = list(objective) + [Fraction(0)] * (self.width - self.n + 1)
        for i, bcol in enumerate(self.basis):
            _fraction_eliminate(obj, bcol, [(j, v) for j, v in enumerate(self.rows[i]) if v])
        return self._bland(obj)

    def solution(self):
        x = [Fraction(0)] * self.n
        for i, bcol in enumerate(self.basis):
            if bcol < self.n:
                x[bcol] = self.rows[i][-1]
        return x


def traced(simplex, fn, *args):
    """fn(*args) with lp's simplex swapped for the tableau class simplex,
    and the (row, column) sequence of the pivots it made."""
    pivots = []

    class Traced(simplex):
        def _pivot(self, r, col, obj):
            pivots.append((r, col))
            return super()._pivot(r, col, obj)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_Simplex", Traced)
        return fn(*args), pivots


def same_as_fraction_tableau(fn, *args):
    """fn(*args) gives the same result through the same pivots, in both
    phases, on the integer tableau as on the Fraction reference; returns it."""
    result, pivots = traced(lp_module._Simplex, fn, *args)
    assert (result, pivots) == traced(FractionSimplex, fn, *args)
    return result


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_programs_match_fraction_tableau(data):
    n, objective, eq, ineq = _program_strategy(data.draw)
    lp = program(n, objective, eq, ineq)
    same_as_fraction_tableau(solve_max, lp)
    same_as_fraction_tableau(solve_max, zero_objective(lp))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["conventional", "relaxed"])
def test_ns_programs_match_fraction_tableau(kind, d):
    s = Scenario.symmetric(d)
    for relabeling in (Relabeling(), seeded_relabeling(s, 10 * d), seeded_relabeling(s, 10 * d + 1)):
        lp = ns_program(build_argument(kind, s, relabeling=relabeling)[0])
        assert same_as_fraction_tableau(solve_max, lp).status is LpStatus.OPTIMAL


def noisy(box, lam):
    """lam * box + (1 - lam) * the uniform box."""
    u = uniform_box(box.scenario)
    return JointBox(box.scenario, tuple(lam * p + (1 - lam) * q for p, q in zip(box.table, u.table)))


@pytest.mark.parametrize("d", [3, 4])
def test_locality_verdicts_match_fraction_tableau(d):
    s = Scenario.symmetric(d)
    vertex = nonlocal_vertex(s, (0, 1, 1))
    cases = [(uniform_box(s), True), (vertex, False)]
    if d == 3:  # the noisy vertex on either side of its threshold
        cases += [(noisy(vertex, F(1, 2)), True), (noisy(vertex, F(3, 5)), False)]
    for box, local in cases:
        assert same_as_fraction_tableau(is_local, box) is local


def tableau_snapshots(simplex, fn, *args):
    """fn(*args) with lp's simplex swapped for the tableau class simplex, and
    each tableau's rows (real and slack columns, then the rhs) after set-up
    and after every pivot."""
    snapshots = []

    class Snapped(simplex):
        def _snap(self):
            snapshots.append([row[:self.width] + [row[-1]] for row in self.rows])

        def __init__(self, num_vars, eq, ineq):
            super().__init__(num_vars, eq, ineq)
            self._snap()

        def _pivot(self, r, col, obj):
            obj = super()._pivot(r, col, obj)
            self._snap()
            return obj

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_Simplex", Snapped)
        return fn(*args), snapshots


def primitive(row):
    """An int or rational row times the positive factor that makes it ints
    with no common factor."""
    scale = math.lcm(*(v.denominator for v in row))
    ints = [v.numerator * (scale // v.denominator) for v in row]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def rows_are_positive_multiples(fn, *args):
    """fn(*args), checking that after set-up and every pivot each integer
    tableau row is a positive multiple of the Fraction tableau's row; an
    int row may keep a common factor. Returns fn's result."""
    result, int_tableaus = tableau_snapshots(lp_module._Simplex, fn, *args)
    expected, fraction_tableaus = tableau_snapshots(FractionSimplex, fn, *args)
    assert result == expected and len(int_tableaus) == len(fraction_tableaus)
    for int_rows, fraction_rows in zip(int_tableaus, fraction_tableaus):
        assert all(type(v) is int for row in int_rows for v in row)
        assert [primitive(row) for row in int_rows] == [primitive(row) for row in fraction_rows]
    return result


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_integer_rows_are_positive_multiples_of_fraction_rows(d):
    s = Scenario.symmetric(d)
    for kind in ("conventional", "relaxed"):
        for relabeling in (Relabeling(), seeded_relabeling(s, 10 * d)):
            lp = ns_program(build_argument(kind, s, relabeling=relabeling)[0])
            assert rows_are_positive_multiples(solve_max, lp).status is LpStatus.OPTIMAL
    # a box with every cell positive takes seconds on the Fraction tableau
    # from d = 4 (noisy) and d = 5 (uniform) on
    boxes = [(mixture_box(s, [3, 0, 5, 0, 0, 7]), True)]
    if d < 5:
        boxes.append((uniform_box(s), True))
    if d < 4:
        vertex = nonlocal_vertex(s, (0, 1, 1))
        boxes += [(noisy(vertex, F(1, 2)), True), (noisy(vertex, F(3, 5)), False)]
    for box, local in boxes:
        assert rows_are_positive_multiples(is_local, box) is local


def test_tableau_receives_only_ints():
    # the rows reach the tableau scaled once, as ints: no Fraction (or bool)
    # coefficient, rhs or scale, and every scale positive
    received = []

    class Guarded(lp_module._Simplex):
        def __init__(self, num_vars, eq, ineq):
            for pairs, rhs, scale in [*eq, *ineq]:
                assert all(type(v) is int for v in [*(c for _, c in pairs), rhs, scale])
                assert scale > 0
            received.append(len(eq) + len(ineq))
            super().__init__(num_vars, eq, ineq)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_Simplex", Guarded)
        for d in (2, 3, 4, 5):
            for kind in ("conventional", "relaxed"):
                arg = build_argument(kind, Scenario.symmetric(d))[0]
                assert solve_max(ns_program(arg)).status is LpStatus.OPTIMAL
        s = Scenario.symmetric(3)
        bounded = build_argument("relaxed", s, p=F(1, 3))[0]  # a <= row with rhs 1/3
        assert solve_max(ns_program(bounded)).status is LpStatus.OPTIMAL
        assert is_local(uniform_box(s)) and is_local(mixture_box(s, [3, 0, 5, 0, 0, 7]))
    assert len(received) == 11 and all(received)


def test_tableau_rows_have_no_artificial_columns():
    # every row holds the real and slack columns and the rhs, and nothing
    # else, from set-up through both phases, artificials included
    seen = []

    class Checked(lp_module._Simplex):
        def _check(self):
            assert all(len(row) == self.width + 1 for row in self.rows)
            seen.append(len(self.rows))

        def __init__(self, num_vars, eq, ineq):
            super().__init__(num_vars, eq, ineq)
            self._check()

        def _pivot(self, r, col, obj):
            self._check()
            obj = super()._pivot(r, col, obj)
            self._check()
            return obj

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_Simplex", Checked)
        for kind in ("conventional", "relaxed"):
            arg = build_argument(kind, Scenario.symmetric(3))[0]
            assert solve_max(ns_program(arg)).status is LpStatus.OPTIMAL
        bounded = build_argument("relaxed", Scenario.symmetric(3), p=F(1, 3))[0]
        assert solve_max(ns_program(bounded)).status is LpStatus.OPTIMAL
        assert is_local(uniform_box(Scenario.symmetric(3)))
        # a negated <= row and an equality: two artificials, one a slack row's
        assert feasible(program(2, [1, 1], [([1, 1], 1)], [([-1, 0], F(-1, 2))]))
    assert seen
