"""Exact optimality certificates for the LP kernel's programs.

A program in the kernel's shape

    maximize c . x   subject to   A x = b,   G x <= h,   x >= 0

has the dual

    minimize b . y + h . z   subject to   A^T y + G^T z >= c,   z >= 0,

with y free. ``certify_optimum`` solves both with ``solve_max``, the dual in
the kernel's shape (y split as y+ - y-, the objective and the >= rows
negated), and then checks the pair by substitution in Fractions alone: x is
primal feasible, (y, z) is dual feasible, and b . y + h . z = c . x. By weak
duality that pair proves c . x optimal with no tolerance. A wrong answer
from ``solve_max`` on either program fails the substitution; it cannot
yield a certificate that passes.
"""

from fractions import Fraction

from nsbox import LinearProgram, LpStatus, solve_max


def _rows(constraints):
    """Sparse (row, rhs) constraints with every coefficient a Fraction."""
    return [([(j, Fraction(c)) for j, c in row], Fraction(rhs)) for row, rhs in constraints]


def _dot(row, x):
    return sum((c * x[j] for j, c in row), Fraction(0))


def dual_program(lp: LinearProgram) -> LinearProgram:
    """The dual of lp in the kernel's shape, over the variables (y+, y-, z):
    maximize -(b . (y+ - y-) + h . z) subject to
    -(A^T (y+ - y-) + G^T z) <= -c, one row per primal variable."""
    eq, ineq = _rows(lp.eq_constraints), _rows(lp.ineq_constraints)
    m, n = len(eq), lp.num_vars
    plus, minus, slack = ([[] for _ in range(n)] for _ in range(3))
    for i, (row, _) in enumerate(eq):
        for j, a in row:
            plus[j].append((i, -a))
            minus[j].append((m + i, a))
    for k, (row, _) in enumerate(ineq):
        for j, g in row:
            slack[j].append((2 * m + k, -g))
    objective = ([-rhs for _, rhs in eq] + [rhs for _, rhs in eq]
                 + [-rhs for _, rhs in ineq])
    rows = [(tuple(plus[j] + minus[j] + slack[j]), -Fraction(lp.objective[j]))
            for j in range(n)]
    return LinearProgram(2 * m + len(ineq), objective, [], rows)


def certify_optimum(lp: LinearProgram) -> Fraction:
    """The optimum of lp, proved exactly by a primal-dual pair checked by
    substitution; fails the calling test if either solve is wrong."""
    primal = solve_max(lp)
    assert primal.status is LpStatus.OPTIMAL, primal.status
    dual = solve_max(dual_program(lp))
    assert dual.status is LpStatus.OPTIMAL, dual.status

    eq, ineq = _rows(lp.eq_constraints), _rows(lp.ineq_constraints)
    c = [Fraction(v) for v in lp.objective]
    x = primal.solution
    assert len(x) == lp.num_vars and all(v >= 0 for v in x)
    assert all(_dot(row, x) == rhs for row, rhs in eq)
    assert all(_dot(row, x) <= rhs for row, rhs in ineq)

    m = len(eq)
    w = dual.solution
    y = [w[i] - w[m + i] for i in range(m)]
    z = w[2 * m:]
    assert len(z) == len(ineq) and all(v >= 0 for v in z)
    reduced = [Fraction(0)] * lp.num_vars  # A^T y + G^T z
    for yi, (row, _) in zip(y, eq):
        for j, a in row:
            reduced[j] += a * yi
    for zk, (row, _) in zip(z, ineq):
        for j, g in row:
            reduced[j] += g * zk
    assert all(r >= cj for r, cj in zip(reduced, c))

    value = sum((cj * xj for cj, xj in zip(c, x)), Fraction(0))
    bound = (sum((yi * rhs for yi, (_, rhs) in zip(y, eq)), Fraction(0))
             + sum((zk * rhs for zk, (_, rhs) in zip(z, ineq)), Fraction(0)))
    assert bound == value, (bound, value)
    assert primal.value == value
    return value
