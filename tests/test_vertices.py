"""Closed-form extremal boxes: construction, validity, locality, extremality."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsbox import (
    JointBox,
    LocalLabel,
    NonlocalLabel,
    Relabeling,
    Scenario,
    argument_events,
    build_argument,
    convex_decomposition,
    deterministic_box,
    deterministic_strategies,
    enumerate_vertices,
    exact_rank,
    is_local,
    is_valid_box,
    local_vertex,
    max_success_lhv,
    nonlocal_vertex,
    polytope_dimension,
    uniform_box,
)
from nsbox import lp as lp_module
from nsbox import vertices as vertices_module
from nsbox.lp import LinearProgram, LpStatus, solve_max

from padding import zero_padded

F = Fraction


def pr_box() -> JointBox:
    return nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))


# ---------------------------------------------------------------------------
# closed forms


def test_local_vertex_constant_strategy():
    box = local_vertex(Scenario.symmetric(2), (0, 0, 0, 0))
    for x, y in itertools.product((0, 1), repeat=2):
        assert box.prob(x, y, 0, 0) == 1


def test_local_vertex_input_dependent_alice():
    box = local_vertex(Scenario.symmetric(2), (1, 0, 0, 0))
    support = [(x, y, a, b) for (x, y, a, b) in box.scenario.coords() if box.prob(x, y, a, b)]
    # Alice answers 0 on input 0 and 1 on input 1; Bob always answers 0
    assert support == [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0)]


def test_local_vertex_offset_arithmetic_d3():
    box = local_vertex(Scenario.symmetric(3), (2, 1, 0, 0))
    # a = (2x + 1) mod 3: outcome 1 on input 0, outcome 0 on input 1
    assert sum(box.block(0, 0)[1]) == 1
    assert sum(box.block(1, 0)[0]) == 1


def test_pr_box_table():
    pr = pr_box()
    # correlated on three input pairs, anticorrelated on (1, 1), weight 1/2
    for x, y in ((0, 0), (0, 1), (1, 0)):
        assert pr.prob(x, y, 0, 0) == F(1, 2) and pr.prob(x, y, 1, 1) == F(1, 2)
        assert pr.prob(x, y, 0, 1) == 0 and pr.prob(x, y, 1, 0) == 0
    assert pr.prob(1, 1, 0, 1) == F(1, 2) and pr.prob(1, 1, 1, 0) == F(1, 2)
    assert pr.prob(1, 1, 0, 0) == 0


def test_nonlocal_vertex_congruence_d3():
    box = nonlocal_vertex(Scenario.symmetric(3), (0, 0, 1))
    cells = [(a, b) for a in range(3) for b in range(3) if box.prob(0, 0, a, b)]
    assert cells == [(0, 1), (1, 2), (2, 0)]  # (b - a) mod 3 == 1
    assert all(box.prob(0, 0, a, b) == F(1, 3) for a, b in cells)


def test_label_validation():
    s = Scenario.symmetric(2)
    with pytest.raises(ValueError):
        local_vertex(s, (2, 0, 0, 0))
    with pytest.raises(ValueError):
        local_vertex(s, (0, 0, 0))
    with pytest.raises(ValueError):
        nonlocal_vertex(s, (0, 0, -1))
    asym = Scenario.from_dims([2, 3, 4, 5])
    with pytest.raises(ValueError):
        nonlocal_vertex(asym, (2, 0, 0))  # range is min over the four inputs


def test_deterministic_box_checks_each_answer():
    s = Scenario.symmetric(2)
    bad = {
        (0.5, 0): "^alice answer for input 0 must be an integer in 0..1, got 0.5$",
        (True, 0): "^alice answer for input 0 must be an integer in 0..1, got True$",
        (0,): r"^alice needs one answer per input, got \(0,\)$",
    }
    for answers, message in bad.items():
        with pytest.raises(ValueError, match=message):
            deterministic_box(s, answers, (0, 0))
    with pytest.raises(ValueError, match="^bob answer for input 1 must be an integer in 0..2, got 3$"):
        deterministic_box(Scenario.from_dims([2, 2, 2, 3]), (0, 1), (1, 3))
    assert is_valid_box(deterministic_box(s, (1, 0), (0, 1))).ok


def test_every_label_yields_a_valid_box():
    for d in (2, 3, 4, 5, 6):
        s = Scenario.symmetric(d)
        for label in itertools.product(range(d), repeat=4):
            assert is_valid_box(local_vertex(s, label)).ok
        for label in itertools.product(range(d), repeat=3):
            assert is_valid_box(nonlocal_vertex(s, label)).ok
    asym = Scenario.from_dims([2, 3, 2, 3])
    for label in itertools.product(range(2), repeat=3):
        box = nonlocal_vertex(asym, label)
        assert is_valid_box(box).ok
        assert sum(row[2] for row in box.block(0, 1)) == 0  # outcomes beyond the reduced range


def test_enumeration_counts_and_dedup():
    s2 = Scenario.symmetric(2)
    assert len(enumerate_vertices(s2, "local")) == 16
    assert len(enumerate_vertices(s2, "nonlocal")) == 8
    both = enumerate_vertices(s2, "all")
    assert len(both) == 24
    tables = {box.table for _label, box in both}
    assert len(tables) == 24  # distinct as tables, not just as labels
    assert all(isinstance(lab, LocalLabel) for lab, _ in both[:16])
    assert all(isinstance(lab, NonlocalLabel) for lab, _ in both[16:])

    s3 = Scenario.symmetric(3)
    assert len(enumerate_vertices(s3, "local")) == 81
    assert len(enumerate_vertices(s3, "nonlocal")) == 27
    with pytest.raises(ValueError, match="^kind must be 'local', 'nonlocal' or 'all', got 'bogus'$"):
        enumerate_vertices(s3, "bogus")

    asym = enumerate_vertices(Scenario.from_dims([2, 3, 4, 3]), "all")  # d = 2
    assert len(asym) == len({box.table for _label, box in asym}) == 2 ** 4 + 2 ** 3


def test_local_family_is_complete_over_reduced_range():
    # at d = 2 and 3 the affine labels hit every deterministic strategy whose
    # answers stay within the first d outcomes, exactly once
    for d in (2, 3):
        s = Scenario.symmetric(d)
        family = {local_vertex(s, label).table
                  for label in itertools.product(range(d), repeat=4)}
        direct = {deterministic_box(s, fa, fb).table
                  for fa in itertools.product(range(d), repeat=2)
                  for fb in itertools.product(range(d), repeat=2)}
        assert family == direct
        assert len(family) == d ** 4


# ---------------------------------------------------------------------------
# locality


def test_local_vertices_are_local():
    s = Scenario.symmetric(2)
    for label in itertools.product(range(2), repeat=4):
        assert is_local(local_vertex(s, label))


def test_nonlocal_vertices_are_nonlocal():
    for d in (2, 3, 4):
        s = Scenario.symmetric(d)
        for label in itertools.product(range(d), repeat=3):
            assert not is_local(nonlocal_vertex(s, label)), (d, label)


def test_uniform_box_is_local_with_explicit_mixture():
    s = Scenario.symmetric(2)
    u = uniform_box(s)
    assert is_local(u)
    # independent oracle: the equal mixture of all deterministic strategies
    # reproduces the uniform table exactly
    strategies = list(deterministic_strategies(s))
    weight = F(1, len(strategies))
    mixed = [F(0)] * s.num_coords
    for fa, fb in strategies:
        for i, p in enumerate(deterministic_box(s, fa, fb).table):
            mixed[i] += weight * p
    assert tuple(mixed) == u.table


def test_uniform_box_is_local_at_four_outcomes():
    # 128 columns, a fraction of the 256 deterministic strategies
    assert is_local(uniform_box(Scenario.symmetric(4))) is True


def test_uniform_box_is_local_at_five_outcomes():
    # 250 columns, against 625 deterministic strategies
    assert is_local(uniform_box(Scenario.symmetric(5))) is True


def strategy_cells(s):
    """The four (x, y, a, b) cells of each deterministic strategy, in
    deterministic_strategies order: one column of a strategies program."""
    return [[(x, y, fa[x], fb[y]) for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))]
            for fa, fb in deterministic_strategies(s)]


def full_mixture_program(box):
    """Reference: the mixture program over every deterministic strategy, in
    deterministic_strategies order, each a column of weight 1 on its four
    cells, whatever the box's zeros."""
    s = box.scenario
    columns = strategy_cells(s)
    rows = [[] for _ in box.table]
    for k, cells in enumerate(columns):
        for cell in cells:
            rows[s.coord_index(*cell)].append((k, 1))
    eq = list(zip(rows, box.table)) + [([(k, 1) for k in range(len(columns))], 1)]
    return LinearProgram(len(columns), [0] * len(columns), eq, [])


def local_success_program(arg):
    """The local-realistic optimum of a p = 0 argument as a program: one
    weight per deterministic strategy, the weights summing to 1, each zero
    condition an equality row with rhs 0, maximizing the success mass."""
    columns = strategy_cells(arg.scenario)
    events = argument_events(arg)
    objective = [sum(cell in events.success for cell in cells) for cells in columns]
    # a condition's cells lie in one block, where a strategy has one cell
    eq = [([(k, 1) for k, cells in enumerate(columns) if not zero.isdisjoint(cells)], 0)
          for zero in events.zeros]
    eq.append(([(k, 1) for k in range(len(columns))], 1))
    return LinearProgram(len(columns), objective, eq, [])


def seeded_relabeling(s, rng):
    def perms(counts):
        return tuple(tuple(rng.sample(range(n), n)) for n in counts)

    return Relabeling(rng.random() < 0.5, rng.random() < 0.5, perms(s.alice), perms(s.bob))


@pytest.mark.parametrize("dims", list(itertools.product((2, 3), repeat=4)),
                         ids=lambda dims: "x".join(map(str, dims)))
def test_local_program_agrees_with_lhv_enumeration(dims):
    # every condition row is one-signed with rhs 0, so the presolve forces
    # the strategies that touch a zero cell
    s = Scenario.from_dims(dims)
    rng = random.Random("x".join(map(str, dims)))
    for kind in ("conventional", "relaxed"):
        for relabeling in (Relabeling(), *(seeded_relabeling(s, rng) for _ in range(3))):
            arg, _ = build_argument(kind, s, relabeling=relabeling)
            res = solve_max(local_success_program(arg))
            assert res.status is LpStatus.OPTIMAL
            assert res.value == max_success_lhv(arg).optimum, (kind, relabeling)


def locality_program(box):
    """The LinearProgram is_local solves for box, and whether it built a tableau."""
    programs, built = [], []

    def recorded(lp):
        programs.append(lp)
        return solve_max(lp)

    class Counted(lp_module._Simplex):
        def __init__(self, *args):
            built.append(True)
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(vertices_module, "solve_max", recorded)
        m.setattr(lp_module, "_Simplex", Counted)
        verdict = is_local(box)
    assert len(programs) == 1
    return verdict, programs[0], bool(built)


def marginal_columns(box):
    """Reference: the (y, a0, a1, b) label of each column of the
    triangulated marginal program, in order, and its rows as a {row: coeff}
    dict; the rows are the positive cells in coordinate order, then the
    (a0, a1) pairs."""
    s = box.scenario
    na0, na1 = s.alice
    cells = [i for i, q in enumerate(box.table) if q]
    labels, columns = [], []
    for y in (0, 1):
        for a0, a1, b in itertools.product(range(na0), range(na1), range(s.bob[y])):
            i, j = s.coord_index(0, y, a0, b), s.coord_index(1, y, a1, b)
            if box.table[i] and box.table[j]:
                labels.append((y, a0, a1, b))
                columns.append({cells.index(i): 1, cells.index(j): 1,
                                len(cells) + a0 * na1 + a1: 1 if y == 0 else -1})
    return labels, columns


def assert_marginal_program_shape(box, program):
    """program is the triangulated marginal program of box: at most
    na0 * na1 * (nb0 + nb1) columns of three entries, each with both cells
    positive, one row per positive cell and one per (a0, a1)."""
    s = box.scenario
    na0, na1 = s.alice
    cells = [i for i, q in enumerate(box.table) if q]
    labels, expected = marginal_columns(box)
    assert program.num_vars == len(labels) <= na0 * na1 * sum(s.bob)
    assert list(program.objective) == [0] * program.num_vars and not program.ineq_constraints
    rows = program.eq_constraints
    assert [rhs for _, rhs in rows] == [box.table[i] for i in cells] + [0] * (na0 * na1)
    columns = [{} for _ in range(program.num_vars)]
    for r, (row, _) in enumerate(rows):
        for k, c in row:
            columns[k][r] = c
    assert columns == expected


def assert_glued_mixture_reproduces(box, program):
    """The solved marginal program glued into weights over the deterministic
    strategies, w(a0, a1, b0, b1) = P0(a0, a1, b0) * P1(a0, a1, b1) / Q(a0, a1),
    sums to 1 and reproduces box exactly."""
    s = box.scenario
    p, q = [{}, {}], {}
    for (y, a0, a1, b), v in zip(marginal_columns(box)[0], solve_max(program).solution):
        p[y][a0, a1, b] = v
        if y == 0:
            q[a0, a1] = q.get((a0, a1), 0) + v
    total, mixed = 0, [F(0)] * s.num_coords
    for fa, fb in deterministic_strategies(s):
        p0, p1 = p[0].get((*fa, fb[0])), p[1].get((*fa, fb[1]))
        if p0 and p1:
            w = p0 * p1 / q[fa]
            assert w > 0
            total += w
            for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
                mixed[s.coord_index(x, y, fa[x], fb[y])] += w
    assert total == 1 and tuple(mixed) == box.table


def assert_is_local_matches_full_program(box):
    verdict, program, _ = locality_program(box)
    assert verdict is (solve_max(full_mixture_program(box)).status is LpStatus.OPTIMAL)
    assert_marginal_program_shape(box, program)
    if verdict:
        assert_glued_mixture_reproduces(box, program)
    return verdict


def relabeled(box, rng):
    s = box.scenario
    pa = [rng.sample(range(n), n) for n in s.alice]
    pb = [rng.sample(range(n), n) for n in s.bob]
    return JointBox.from_function(s, lambda x, y, a, b: box.prob(x, y, pa[x][a], pb[y][b]))


def deterministic_mixture(s, rng, k):
    """A local box: k distinct deterministic strategies, rational weights."""
    strategies = rng.sample(list(deterministic_strategies(s)), k)
    weights = [rng.randint(1, 9) for _ in strategies]
    table = [F(0)] * s.num_coords
    for w, (fa, fb) in zip(weights, strategies):
        for i, q in enumerate(deterministic_box(s, fa, fb).table):
            table[i] += F(w, sum(weights)) * q
    return JointBox(s, tuple(table)), strategies


@pytest.mark.parametrize("d", [2, 3])
def test_is_local_matches_full_program_on_every_vertex(d):
    for label, box in enumerate_vertices(Scenario.symmetric(d)):
        assert assert_is_local_matches_full_program(box) is isinstance(label, LocalLabel)


def test_is_local_matches_full_program_on_relabeled_boxes_d4():
    s = Scenario.symmetric(4)
    rng = random.Random(404)
    cases = [(relabeled(local_vertex(s, rng.choices(range(4), k=4)), rng), True) for _ in range(3)]
    cases += [(relabeled(nonlocal_vertex(s, rng.choices(range(4), k=3)), rng), False)
              for _ in range(3)]
    cases += [(relabeled(deterministic_mixture(s, rng, k)[0], rng), True) for k in (2, 3, 5)]
    for box, local in cases:
        assert assert_is_local_matches_full_program(box) is local


def test_is_local_matches_full_program_on_noisy_congruence_vertex_d3():
    s = Scenario.symmetric(3)
    vertex, uniform = nonlocal_vertex(s, (0, 1, 2)), uniform_box(s)
    verdicts = []
    for lam in (F(1, 3), F(1, 2), F(5, 9), F(4, 7), F(3, 5), F(2, 3)):
        box = JointBox(s, tuple(lam * v + (1 - lam) * u for v, u in zip(vertex.table, uniform.table)))
        verdicts.append(assert_is_local_matches_full_program(box))
    assert True in verdicts and False in verdicts  # both sides of the threshold


@pytest.mark.parametrize("dims", [(2, 3, 3, 2), (3, 2, 4, 3)])
def test_is_local_matches_full_program_on_asymmetric_scenarios(dims):
    s = Scenario.from_dims(dims)
    rng = random.Random(sum(dims))
    for label, box in enumerate_vertices(s):
        assert assert_is_local_matches_full_program(box) is isinstance(label, LocalLabel)
    for box in [uniform_box(s)] + [deterministic_mixture(s, rng, k)[0] for k in (1, 2, 4)]:
        assert assert_is_local_matches_full_program(box) is True


def random_vertex_mixture(rng):
    """A seeded box: outcome counts in {2, 3, 4} per input, a mixture of 1
    to 4 relabeled vertices (local or congruence), uniform noise 30% of the
    time."""
    s = Scenario.from_dims([rng.randint(2, 4) for _ in range(4)])
    family = enumerate_vertices(s)
    parts = [relabeled(rng.choice(family)[1], rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        parts.append(uniform_box(s))
    weights = [rng.randint(1, 9) for _ in parts]
    table = [sum(F(w, sum(weights)) * part.table[i] for w, part in zip(weights, parts))
             for i in range(s.num_coords)]
    return JointBox(s, tuple(table))


def test_is_local_matches_full_program_on_seeded_random_boxes():
    rng = random.Random(1414)
    verdicts = [assert_is_local_matches_full_program(random_vertex_mixture(rng)) for _ in range(150)]
    assert True in verdicts and False in verdicts


def test_locality_program_shape():
    # uniform d = 3: 54 columns over 45 rows, against 81 deterministic strategies
    for box in (uniform_box(Scenario.symmetric(3)), uniform_box(Scenario.from_dims([2, 3, 4, 3])),
                pr_box(), zero_padded(pr_box(), Scenario.symmetric(3))):
        assert_marginal_program_shape(box, locality_program(box)[1])
    program = locality_program(uniform_box(Scenario.symmetric(3)))[1]
    assert (program.num_vars, len(program.eq_constraints)) == (54, 45)


def test_local_verdicts_carry_a_glued_mixture():
    # P0 * P1 / Q over the strategies reproduces every local box exactly
    boxes = [uniform_box(Scenario.symmetric(d)) for d in (2, 3, 4, 5)]
    boxes += [local_vertex(Scenario.symmetric(2), label)
              for label in itertools.product(range(2), repeat=4)]
    small = local_vertex(Scenario.symmetric(2), (1, 1, 0, 1))
    boxes.append(zero_padded(small, Scenario.from_dims([3, 2, 2, 4])))
    rng = random.Random(7)
    boxes += [deterministic_mixture(Scenario.symmetric(3), rng, k)[0] for k in (1, 2, 3)]
    for box in boxes:
        verdict, program, _ = locality_program(box)
        assert verdict is True
        assert_glued_mixture_reproduces(box, program)


def test_congruence_vertex_gets_no_column_and_no_tableau():
    # its 2d columns each meet a one-signed (a0, a1) row, so the presolve
    # forces them to 0 and finds a positive cell no column reaches
    for d in (2, 3, 4, 5):
        s = Scenario.symmetric(d)
        for label in ((0, 0, 0), (1, 2, 1), (d - 1, d - 1, 1)):
            label = tuple(v % d for v in label)
            verdict, program, built = locality_program(nonlocal_vertex(s, label))
            assert verdict is False and not built
            assert program.num_vars == 2 * d


def test_mixture_gets_only_its_on_support_columns():
    s = Scenario.symmetric(3)
    rng = random.Random(3)
    for k in (1, 2, 3):
        box, strategies = deterministic_mixture(s, rng, k)
        verdict, program, _ = locality_program(box)
        assert verdict is True
        cells = [i for i, q in enumerate(box.table) if q]
        cell_rows = program.eq_constraints[:len(cells)]
        assert [rhs for _, rhs in cell_rows] == [box.table[i] for i in cells]
        # both cells of every column are positive: it sits in two cell rows
        hits = Counter(k for row, _ in cell_rows for k, _ in row)
        assert hits == {k: 2 for k in range(program.num_vars)}
        labels = marginal_columns(box)[0]
        for (a0, a1), (b0, b1) in strategies:
            assert (0, a0, a1, b0) in labels and (1, a0, a1, b1) in labels


def test_is_local_rejects_invalid_boxes():
    s = Scenario.symmetric(2)
    table = list(pr_box().table)
    table[0] += F(1, 8)
    with pytest.raises(ValueError, match="invalid box"):
        is_local(JointBox(s, tuple(table)))


# ---------------------------------------------------------------------------
# zero padding


def test_embed_pr_into_three_outcomes():
    target = Scenario.symmetric(3)
    big = zero_padded(pr_box(), target)
    assert is_valid_box(big).ok
    assert sum(big.block(0, 0)[2]) == 0 and sum(row[2] for row in big.block(0, 1)) == 0
    assert big.prob(0, 0, 0, 0) == F(1, 2)
    assert not is_local(big)  # padding cannot make a nonlocal box local


def test_embed_keeps_local_boxes_local():
    small = local_vertex(Scenario.symmetric(2), (1, 1, 0, 1))
    assert is_local(zero_padded(small, Scenario.from_dims([3, 2, 2, 4])))


# ---------------------------------------------------------------------------
# extremality and affine rank


def test_affine_rank_of_vertex_set_matches_dimension():
    for d in (2, 3):
        s = Scenario.symmetric(d)
        boxes = [box for _label, box in enumerate_vertices(s, "all")]
        anchor = boxes[0].table
        diffs = [[p - q for p, q in zip(box.table, anchor)] for box in boxes[1:]]
        assert exact_rank(diffs) == polytope_dimension(s)


def test_nonlocal_d2_vertices_are_extremal():
    s = Scenario.symmetric(2)
    everything = enumerate_vertices(s, "all")
    for k in range(16, 24):
        target = everything[k][1]
        others = [box for i, (_lab, box) in enumerate(everything) if i != k]
        assert convex_decomposition(target, others) is None
    assert convex_decomposition(everything[16][1], []) is None  # no candidates, no mixture


def test_convex_decomposition_positive_control():
    s = Scenario.symmetric(2)
    u = uniform_box(s)
    locals_only = [box for _lab, box in enumerate_vertices(s, "local")]
    weights = convex_decomposition(u, locals_only)
    assert weights is not None
    assert sum(weights) == 1 and all(w >= 0 for w in weights)
    rebuilt = [F(0)] * s.num_coords
    for w, box in zip(weights, locals_only):
        if w:
            for i, p in enumerate(box.table):
                rebuilt[i] += w * p
    assert tuple(rebuilt) == u.table


# Nonzero weights of the uniform box over the deterministic boxes, taken in
# deterministic_strategies order; every other weight is exactly 0.
GOLDEN_UNIFORM_WEIGHTS = {
    2: {5: F(1, 4), 6: F(1, 4), 9: F(1, 4), 10: F(1, 4)},
    3: {i: F(1, 9) for i in (20, 22, 24, 38, 40, 42, 56, 58, 60)},
}


def test_convex_decomposition_weights_are_golden():
    # pins the mixture program's row and column order: a reordering moves
    # Bland's pivot path and so the basic solution returned
    for d, nonzero in GOLDEN_UNIFORM_WEIGHTS.items():
        s = Scenario.symmetric(d)
        candidates = [deterministic_box(s, fa, fb) for fa, fb in deterministic_strategies(s)]
        expected = tuple(nonzero.get(k, F(0)) for k in range(len(candidates)))
        assert convex_decomposition(uniform_box(s), candidates) == expected


def test_convex_decomposition_scenario_mismatch():
    with pytest.raises(ValueError):
        convex_decomposition(uniform_box(Scenario.symmetric(2)),
                             [uniform_box(Scenario.symmetric(3))])


# ---------------------------------------------------------------------------
# randomized structural checks


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
       st.integers(0, 63))
def test_random_nonlocal_labels_are_valid_and_uniform(dims, seed):
    s = Scenario.from_dims(list(dims))
    d = s.min_outputs
    label = (seed % d, (seed // d) % d, (seed // (d * d)) % d)
    box = nonlocal_vertex(s, label)
    assert is_valid_box(box).ok
    xc, yc, shift = label
    for (x, y, a, b) in s.coords():  # the congruence class, cell by cell
        hit = a < d and b < d and (b - a - x * y - xc * x - yc * y - shift) % d == 0
        assert box.prob(x, y, a, b) == (F(1, d) if hit else 0)
    for a in range(d):
        assert sum(box.block(0, 0)[a]) == F(1, d)
    for a in range(d, s.alice[0]):
        assert sum(box.block(0, 0)[a]) == 0
