"""Exact LP kernel tests.

The randomized cross-check uses an independent brute-force oracle: enumerate
every size-n subset of constraint rows, solve the square systems with a local
Gaussian elimination (written here, not imported from the package), keep the
feasible candidates, and take the best objective value. Generated programs
always carry box bounds, so they are bounded and pointed and the oracle's
candidate set provably contains an optimal vertex whenever one exists.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsbox import (
    LinearProgram,
    LpResult,
    LpStatus,
    LpValidationError,
    check_feasible,
    exact_rank,
    feasible_above,
    coerce_rational,
    solve_max,
)
from nsbox.lp import _presolve

F = Fraction


def test_single_bounded_variable():
    lp = LinearProgram(1, [1], [], [([1], F(1, 2))])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(1, 2)
    assert res.solution == (F(1, 2),)


def test_split_between_two_variables():
    lp = LinearProgram(2, [1, 0], [([1, 1], 1)], [([1, -1], 0)])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(1, 2)


def test_contradictory_rows_infeasible():
    lp = LinearProgram(1, [1], [([1], 1)], [([1], F(1, 2))])
    assert solve_max(lp).status is LpStatus.INFEASIBLE


def test_check_feasible_basics():
    assert check_feasible(LinearProgram(1, [0], [([1], 1)], []))
    # x = -1 contradicts x >= 0
    assert not check_feasible(LinearProgram(1, [0], [([1], -1)], []))


def test_unbounded_detected():
    assert solve_max(LinearProgram(1, [1])).status is LpStatus.UNBOUNDED
    assert solve_max(LinearProgram(2, [1, 1], [([1, -1], 0)], [])).status is LpStatus.UNBOUNDED


def test_degenerate_program_terminates():
    # Beale's classic cycling example; Bland's rule must still find 1/20.
    lp = LinearProgram(
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
    lp = LinearProgram(2, [1, 1], [([1, 1], 1), ([1, 1], 1), ([2, 2], 2)], [])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 1


def test_negative_rhs_rows_handled():
    # -x1 <= -1 means x1 >= 1
    lp = LinearProgram(1, [-1], [], [([-1], -1)])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == -1
    assert res.solution == (F(1),)


def test_float_coefficients_rejected():
    with pytest.raises(LpValidationError):
        solve_max(LinearProgram(1, [0.5]))
    with pytest.raises(LpValidationError):
        solve_max(LinearProgram(1, [1], [([1], 0.5)], []))
    with pytest.raises(LpValidationError):
        solve_max(LinearProgram(1, [1], [], [([0.25], 1)]))


def test_shape_validation():
    with pytest.raises(LpValidationError):
        solve_max(LinearProgram(2, [1]))
    with pytest.raises(LpValidationError):
        solve_max(LinearProgram(2, [1, 0], [([1], 1)], []))
    with pytest.raises(LpValidationError):
        solve_max(LinearProgram(-1, []))
    # x >= 0 is the only shape, so there is no nonneg switch to turn off
    with pytest.raises(TypeError):
        LinearProgram(1, [1], nonneg=False)


def test_validation_error_is_not_a_status():
    # Ill-posed input raises; it must never masquerade as INFEASIBLE.
    assert issubclass(LpValidationError, ValueError)
    try:
        solve_max(LinearProgram(1, [0.5]))
    except LpValidationError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected LpValidationError")


def test_rational_strings_accepted():
    lp = LinearProgram(1, ["1"], [], [(["1"], "1/2")])
    assert solve_max(lp).value == F(1, 2)


def test_coerce_rational_returns_a_fraction_as_it_is():
    q = F(3, 7)
    assert coerce_rational(q) is q
    assert coerce_rational(2) == 2 and coerce_rational("1/2") == F(1, 2)
    with pytest.raises(ValueError, match="float"):
        coerce_rational(0.5)
    with pytest.raises(ValueError, match="not a rational"):
        coerce_rational(object())


def test_duality_spot_check_helper():
    lp = LinearProgram(2, [1, 1], [([1, 2], 2)], [([1, 0], 1)])
    res = solve_max(lp)
    assert res.status is LpStatus.OPTIMAL
    assert feasible_above(lp, res.value)
    assert not feasible_above(lp, res.value + F(1, 1000))


def test_presolve_forces_zeros_through_mixed_sign_row():
    # -x1 + x2 = 0 is mixed-signed until x0 + x1 = 0 forces x1, then it forces x2
    eq = [([0, -1, 1, 0], 0), ([1, 1, 0, 0], 0)]
    ineq = [([0, 0, 0, 1], 2)]
    keep, red_eq, red_ineq = _presolve(4, [(list(map(F, r)), F(b)) for r, b in eq],
                                       [(list(map(F, r)), F(b)) for r, b in ineq])
    assert keep == [3] and red_eq == [] and red_ineq == [([F(1)], F(2))]
    res = solve_max(LinearProgram(4, [1, 1, 1, 1], eq, ineq))
    assert res.status is LpStatus.OPTIMAL and res.value == 2
    assert res.solution == (0, 0, 0, 2)


def test_presolve_empty_rows_decide_infeasibility():
    empty_eq = LinearProgram(2, [1, 0], [([0, 0], 1)], [([1, 1], 1)])
    # x0 = 0 is forced, which leaves x0 = 1 an empty row with rhs 1
    emptied_eq = LinearProgram(2, [0, 1], [([1, 0], 0), ([1, 0], 1)], [([0, 1], 1)])
    empty_ineq = LinearProgram(2, [1, 1], [], [([0, 0], -1), ([1, 1], 1)])
    for lp in (empty_eq, emptied_eq, empty_ineq):
        assert solve_max(lp).status is LpStatus.INFEASIBLE
        assert not check_feasible(lp)
    # an empty <= row with rhs >= 0 is just dropped
    res = solve_max(LinearProgram(1, [1], [], [([0], 0), ([1], 1)]))
    assert res.status is LpStatus.OPTIMAL and res.value == 1


def test_presolve_drops_repeated_and_negated_equalities():
    eq = [([F(1), F(-1)], F(1)), ([F(-1), F(1)], F(-1)), ([F(1), F(-1)], F(1)),
          ([F(1), F(1)], F(3))]
    keep, red_eq, _ = _presolve(2, eq, [])
    assert keep == [0, 1]
    assert red_eq == [([F(1), F(-1)], F(1)), ([F(1), F(1)], F(3))]
    res = solve_max(LinearProgram(2, [0, 1], eq, []))
    assert res.status is LpStatus.OPTIMAL and res.solution == (2, 1)


def test_feasibility_helpers_agree_with_solve_max():
    programs = [
        LinearProgram(4, [1, 1, 1, 1], [([0, -1, 1, 0], 0), ([1, 1, 0, 0], 0)],
                      [([0, 0, 0, 1], 2)]),
        LinearProgram(2, [0, 1], [([1, -1], 1), ([-1, 1], -1)], [([1, 1], 5)]),
        LinearProgram(2, [0, 1], [([1, 0], 0), ([1, 0], 1)], [([0, 1], 1)]),
        LinearProgram(3, [1, 2, 3], [([1, 1, 1], 1), ([0, 1, -1], 0)], []),
    ]
    for lp in programs:
        res = solve_max(lp)
        assert check_feasible(lp) == (res.status is LpStatus.OPTIMAL)
        if res.status is LpStatus.OPTIMAL:
            assert feasible_above(lp, res.value)
            assert not feasible_above(lp, res.value + F(1, 1000))


def test_to_json_dict_wire_format():
    lp = LinearProgram(2, [1, F(-1, 2)], [([1, 1], 1)], [([0, 1], F(3, 4))])
    data = lp.to_json_dict()
    assert data["objective"] == ["1/1", "-1/2"]
    assert data["eq_constraints"] == [{"row": ["1/1", "1/1"], "rhs": "1/1"}]
    assert data["ineq_constraints"] == [{"row": ["0/1", "1/1"], "rhs": "3/4"}]
    assert data["num_vars"] == 2 and data["nonneg"] is True


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


_coeff = st.integers(min_value=-3, max_value=3)


def _program_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    objective = [Fraction(draw(_coeff)) for _ in range(n)]
    eq = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        eq.append(([Fraction(draw(_coeff)) for _ in range(n)], Fraction(draw(_coeff))))
    ineq = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        ineq.append(([Fraction(draw(_coeff)) for _ in range(n)], Fraction(draw(_coeff))))
    if draw(st.booleans()):  # one-signed rhs-0 row: the presolve forces zeros
        sign = draw(st.sampled_from([1, -1]))
        eq.append(([Fraction(sign * draw(st.integers(0, 2))) for _ in range(n)], Fraction(0)))
    if eq and draw(st.booleans()):  # negated copy: the presolve drops it
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
    lp = LinearProgram(n, objective, eq, ineq)
    res = solve_max(lp)
    oracle = _brute_force_max(n, objective, eq, ineq)

    assert check_feasible(lp) == (oracle is not None)
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

    # duality spot check and determinism
    assert feasible_above(lp, res.value)
    assert not feasible_above(lp, res.value + Fraction(1, 7))
    again = solve_max(lp)
    assert (again.status, again.value, again.solution) == (res.status, res.value, res.solution)
