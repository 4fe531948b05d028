"""Argument construction, exact optima, and PP/PN/PPC evaluation tests.

Frozen expectations used as oracles here:
* the congruence box that satisfies the relaxed zero conditions literally has
  label (d-1, d-1, 1) and success mass (d-1)/d;
* the PR box satisfies the conventional conditions after reversing Bob's
  outcomes on both inputs, with success mass 1/2, and reversing Alice's
  outcomes on both inputs instead gives a second, success-disjoint argument,
  so PN reaches 1.
"""

import hashlib
import itertools
import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsbox import (
    HARDY_QUANTUM_OPTIMUM,
    MAX_LHV_STRATEGIES,
    MAX_PERMUTATION_FAMILY,
    ArgumentNotSatisfied,
    HardyArgument,
    JointBox,
    LinearProgram,
    Relabeling,
    Scenario,
    SearchBudgetExceeded,
    argument_events,
    attaining_nonlocal_vertex,
    best_argument_with_pn,
    best_satisfied_argument,
    build_argument,
    compute_pn,
    convex_decomposition,
    deterministic_box,
    deterministic_strategies,
    enumerate_vertices,
    evaluate_pp,
    format_rational,
    is_valid_box,
    local_vertex,
    max_success_lhv,
    max_success_ns,
    nonlocal_vertex,
    ns_program,
    permutation_family_size,
    polytope_system,
    solve_max,
    uniform_box,
)
from nsbox import hardy
from nsbox.lp import _presolve

from certificates import certify_optimum

F = Fraction


def pr_box() -> JointBox:
    return nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))


BOB_REVERSED = Relabeling(bob_perms=((1, 0), (1, 0)))
ALICE_REVERSED = Relabeling(alice_perms=((1, 0), (1, 0)))


# ---------------------------------------------------------------------------
# event sets


def test_conventional_events_all_dims_2():
    _arg, events = build_argument("conventional", Scenario.symmetric(2))
    assert events.success == frozenset({(0, 0, 0, 1)})
    assert events.zeros == (
        frozenset({(1, 0, 1, 1)}),
        frozenset({(0, 1, 0, 0)}),
        frozenset({(1, 1, 0, 1)}),
    )


def test_conventional_events_asymmetric():
    _arg, events = build_argument("conventional", Scenario.from_dims([2, 3, 4, 5]))
    assert events.success == frozenset({(0, 0, 0, 3)})
    assert events.zeros == (
        frozenset({(1, 0, 1, 3), (1, 0, 2, 3)}),
        frozenset({(0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 0, 3)}),
        frozenset({(1, 1, 0, 4)}),
    )


def test_relaxed_events_d3():
    _arg, events = build_argument("relaxed", Scenario.symmetric(3))
    assert events.success == frozenset({(0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 2)})
    assert events.zeros == (
        frozenset({(1, 0, 0, 1), (1, 0, 0, 2), (1, 0, 1, 2)}),
        frozenset({(1, 1, 1, 0), (1, 1, 2, 0), (1, 1, 2, 1)}),
        frozenset({(0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 1, 2)}),
    )


def test_kinds_coincide_at_two_outcomes_up_to_relabeling():
    # reversing both parties' outcomes on their second inputs carries the
    # single-cell argument onto the cumulative one (zero sets permute)
    s = Scenario.symmetric(2)
    _relaxed, relaxed_events = build_argument("relaxed", s)
    carried = Relabeling(alice_perms=((0, 1), (1, 0)), bob_perms=((0, 1), (1, 0)))
    _conv, conv_events = build_argument("conventional", s, relabeling=carried)
    assert conv_events.success == relaxed_events.success
    assert frozenset(conv_events.zeros) == frozenset(relaxed_events.zeros)
    # and literally, without relabeling, the event sets differ
    _plain, plain_events = build_argument("conventional", s)
    assert frozenset(plain_events.zeros) != frozenset(relaxed_events.zeros)


def test_argument_validation():
    s = Scenario.symmetric(2)
    # build_argument and a raw HardyArgument refuse the same kinds and
    # bounds with the same message
    bad = [("other", s, F(0)), ("relaxed", s, 1), ("relaxed", s, F(-1, 2)),
           ("conventional", s, F(1, 10)), ("relaxed", s, 0.1),  # floats stay out
           ("conventional", Scenario.symmetric(3), F(1, 10))]
    for kind, scenario, p in bad:
        with pytest.raises(ValueError) as built:
            build_argument(kind, scenario, p=p)
        with pytest.raises(ValueError) as raw:
            HardyArgument(kind, scenario, Relabeling(), p)
        assert str(raw.value) == str(built.value), (kind, p)
    # the relabeling is checked when the event sets are built
    with pytest.raises(ValueError):
        build_argument("relaxed", s, relabeling=Relabeling(alice_perms=((0, 0), (0, 1))))
    with pytest.raises(ValueError, match="bob needs one outcome permutation per input"):
        build_argument("relaxed", s, relabeling=Relabeling(bob_perms=((1, 0),)))
    # a rational string is stored as the Fraction it names
    bound = HardyArgument("relaxed", s, Relabeling(), "1/3").last_condition_bound
    assert type(bound) is Fraction and bound == F(1, 3)


def test_argument_refuses_fields_of_the_wrong_type():
    # each would otherwise fail later, with an AttributeError in
    # argument_events or ns_program
    s = Scenario.symmetric(3)
    with pytest.raises(ValueError, match=r"^scenario must be a Scenario, got \(3, 3, 3, 3\)$"):
        HardyArgument("relaxed", (3, 3, 3, 3))
    with pytest.raises(ValueError, match="^relabeling must be a Relabeling, got None$"):
        HardyArgument("relaxed", s, None)
    with pytest.raises(ValueError, match=r"^relabeling must be a Relabeling, got \(\(0, 1, 2\),\)$"):
        HardyArgument("conventional", s, ((0, 1, 2),))


@pytest.mark.parametrize("perm", [(True, False), (1.0, 0)], ids=["bool", "float"])
def test_relabeling_refuses_outcomes_that_are_not_ints(perm):
    # the entries sort like 0..n-1, so only their type gives them away
    s = Scenario.symmetric(2)
    relabeling = Relabeling(alice_perms=(perm, (0, 1)))
    message = r"^alice permutation for input 0 is not a bijection on 0..1: \("
    with pytest.raises(ValueError, match=message):
        relabeling.resolved(s)
    with pytest.raises(ValueError, match=message):
        build_argument("relaxed", s, relabeling=relabeling)


def test_relabeling_is_compared_by_value():
    # permutations given as lists are stored as tuples, so the relabeling
    # equals and hashes like its tuple form
    listed = Relabeling(alice_perms=[[0, 1], [1, 0]], bob_perms=([1, 0], range(2)))
    tupled = Relabeling(alice_perms=((0, 1), (1, 0)), bob_perms=((1, 0), (0, 1)))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.alice_perms == ((0, 1), (1, 0)) and type(listed.bob_perms[0]) is tuple
    for perms in (5, [[0, 1], 5], [[0, 1]], [(0, 1)] * 3):
        message = f"bob needs one outcome permutation per input, got {perms!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Relabeling(bob_perms=perms)


@pytest.mark.parametrize("swap", ["no", 0, 1, None])
def test_relabeling_refuses_input_swaps_that_are_not_bools(swap):
    # read by truthiness "no" would swap and 0 would not, and the JSON
    # writers would print either as given
    for field in ("alice_input_swap", "bob_input_swap"):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a bool, got {swap!r}")):
            Relabeling(**{field: swap})


def test_input_swap_moves_designated_pair():
    s = Scenario.from_dims([2, 3, 2, 2])
    arg, events = build_argument("relaxed", s,
                                 relabeling=Relabeling(alice_input_swap=True))
    # success now lives on physical block (x=1, y=0) with 3 Alice outcomes
    assert all(x == 1 and y == 0 for (x, y, _a, _b) in events.success)
    assert events.success == frozenset({(1, 0, 0, 1)})


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 4, 5)])
def test_only_the_relaxed_third_condition_takes_the_bound(dims):
    s = Scenario.from_dims(dims)
    p = F(1, 3)
    no_signaling_rows = sum(c.relation == "eq" for c in polytope_system(s))
    for relabeling in [Relabeling(*swaps) for swaps in SWAPS] + [swapped_relabeling(s)]:
        for kind, bound, bounds in (("relaxed", p, (0, 0, p)), ("relaxed", F(0), (0, 0, 0)),
                                    ("conventional", F(0), (0, 0, 0))):
            arg, events = build_argument(kind, s, bound, relabeling)
            assert events.bounds == bounds, (kind, relabeling)
            lp = ns_program(arg)
            if bound:
                third = sorted((s.coord_index(*e), 1) for e in events.zeros[2])
                assert lp.ineq_constraints == [(third, p)]
                assert len(lp.eq_constraints) == no_signaling_rows + 2
            else:
                assert lp.ineq_constraints == []
                assert len(lp.eq_constraints) == no_signaling_rows + 3


# ---------------------------------------------------------------------------
# no-signaling optima


def test_conventional_ns_optimum_is_half():
    for dims in ((2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 5), (5, 2, 3, 4)):
        arg, _ = build_argument("conventional", Scenario.from_dims(dims))
        report = max_success_ns(arg)
        assert report.optimum == F(1, 2), dims
        assert report.regime == "no-signaling"
        assert is_valid_box(report.witness).ok
        assert evaluate_pp(report.witness, arg) == F(1, 2)


def test_relaxed_ns_optimum_tracks_min_outputs():
    cases = [((3, 3, 3, 3), F(2, 3)), ((4, 4, 4, 4), F(3, 4)),
             ((3, 3, 5, 5), F(2, 3)), ((2, 2, 5, 5), F(1, 2)), ((2, 2, 2, 2), F(1, 2))]
    for dims, expected in cases:
        arg, _ = build_argument("relaxed", Scenario.from_dims(dims))
        report = max_success_ns(arg)
        assert report.optimum == expected, dims
        assert evaluate_pp(report.witness, arg) == expected


def carried_optimum(kind, d, p):
    """The paper's no-signaling optimum: 1/2 for the conventional kind,
    (d-1)/d for the relaxed kind, raised by the bound p to at most 1."""
    if kind == "conventional":
        return F(1, 2)
    return min(F(1), F(d - 1, d) * (1 + p))


def test_ns_optima_carry_exact_certificates():
    cases = [(kind, d, F(0)) for kind in ("conventional", "relaxed") for d in range(2, 7)]
    cases += [("relaxed", d, p) for d in range(2, 5) for p in (F(1, 20), F(1, 10), F(1, 5))]
    for kind, d, p in cases:
        arg, _ = build_argument(kind, Scenario.symmetric(d), p)
        value = certify_optimum(ns_program(arg))
        assert value == max_success_ns(arg).optimum == carried_optimum(kind, d, p), (kind, d, p)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_certified_ns_optimum_ignores_relabeling(data):
    d = data.draw(st.integers(2, 4), label="d")
    kind, p = data.draw(st.sampled_from([("conventional", F(0)), ("relaxed", F(0)),
                                         ("relaxed", F(1, 10))]), label="argument")
    perm = st.permutations(range(d)).map(tuple)
    relabeling = Relabeling(data.draw(st.booleans(), label="alice swap"),
                            data.draw(st.booleans(), label="bob swap"),
                            data.draw(st.tuples(perm, perm), label="alice perms"),
                            data.draw(st.tuples(perm, perm), label="bob perms"))
    arg, _ = build_argument(kind, Scenario.symmetric(d), p, relabeling)
    # the identity argument's certified optimum, as the test above shows
    assert certify_optimum(ns_program(arg)) == carried_optimum(kind, d, p)


def test_certified_ns_optimum_ignores_the_party_swap():
    # exchanging the parties maps dims (a0, a1, b0, b1) to (b0, b1, a0, a1);
    # both sides of every such pair of outcome counts 2..4 are certified
    for dims in itertools.product(range(2, 5), repeat=4):
        swapped = dims[2:] + dims[:2]
        if swapped <= dims:
            continue
        for kind in ("conventional", "relaxed"):
            values = [certify_optimum(ns_program(build_argument(kind, Scenario.from_dims(side))[0]))
                      for side in (dims, swapped)]
            assert values == [carried_optimum(kind, min(dims), F(0))] * 2, (kind, dims)


def test_relaxed_optimum_monotone_in_bound():
    s = Scenario.symmetric(3)
    values = []
    for p in (F(0), F(1, 10), F(1, 3)):
        arg, _ = build_argument("relaxed", s, p=p)
        values.append(max_success_ns(arg).optimum)
    assert values[0] == F(2, 3)
    assert values[0] <= values[1] <= values[2]
    assert all(v <= 1 for v in values)


def test_relabeled_argument_has_same_optimum():
    s = Scenario.symmetric(2)
    arg, _ = build_argument("conventional", s, relabeling=BOB_REVERSED)
    assert max_success_ns(arg).optimum == F(1, 2)


def with_negated_nosignaling_rows(lp: LinearProgram, scenario: Scenario) -> LinearProgram:
    """lp with each no-signaling row followed by its negation: the layout of
    the earlier catalog, which stated every equality in both orientations."""
    ns_rows = {c.coeffs for c in polytope_system(scenario) if c.label.startswith("no-signaling:")}
    eq = []
    for row, rhs in lp.eq_constraints:
        eq.append((row, rhs))
        if tuple(row) in ns_rows:
            eq.append((tuple((j, -c) for j, c in row), -rhs))
    return LinearProgram(lp.num_vars, lp.objective, eq, lp.ineq_constraints)


def presolved(lp: LinearProgram):
    return _presolve(lp.num_vars, *lp.canonical()[1:])


def proportional_key(pairs, rhs) -> tuple:
    """One key for an int row and every nonzero multiple of it: the row
    divided by the gcd of its entries, its first coefficient made positive."""
    g = math.gcd(rhs, *(c for _, c in pairs))
    if pairs[0][1] < 0:
        g = -g
    return tuple((j, c // g) for j, c in pairs), rhs // g


def json_sha256(lp: LinearProgram) -> str:
    """sha256 of the program as sorted-key JSON: num_vars, the objective,
    every canonical row written densely with its rhs, each rational as
    "num/den", and "nonneg": true."""
    objective, eq, ineq = lp.canonical()

    def encode(rows):
        out = []
        for pairs, rhs, scale in rows:
            row = [0] * lp.num_vars
            for j, c in pairs:
                row[j] = c
            out.append({"row": [format_rational(F(c, scale)) for c in row],
                        "rhs": format_rational(F(rhs, scale))})
        return out

    data = {"num_vars": lp.num_vars, "objective": [format_rational(c) for c in objective],
            "eq_constraints": encode(eq), "ineq_constraints": encode(ineq), "nonneg": True}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


# json_sha256(ns_program(arg)) for the identity argument: it fixes the
# objective and the row order, and so Bland's pivot path. The digests below were recorded while the no-signaling catalog
# stated every equality twice (a row, then its negation). Today's one-row
# program must hash to ONE_ROW_DIGEST, and with_negated_nosignaling_rows must
# rebuild the recorded program from it, which solves to the same result.
GOLDEN_NS_PROGRAM = [
    ("conventional", (2, 2, 2, 2), "747a221b4d36e92031806daf45a958f87ec2ed844a0e12f61378ef81b059a7e1"),
    ("conventional", (3, 3, 3, 3), "278f896b243e699c3888defed1664adbabc9c8840bde6a75d17f082ddcde28a6"),
    ("conventional", (2, 3, 4, 5), "92407c160253839d236e96867990a33661c36f16cd6aa7931fa1788c892e21ad"),
    ("relaxed", (2, 2, 2, 2), "bca6b99ecd05b78a2bce5d9491eaeee0f6a37f8735d1613844a0419ed98ab6b5"),
    ("relaxed", (3, 3, 3, 3), "9ec0b241d181872bfc213de08f6f283d0484ca6d5c1bb55e287a5b180ed46be2"),
    ("relaxed", (2, 3, 4, 5), "dbd9cc8fc76d7a5f7b65b1f2b3a74f83e1c28328d60d0d07b9699c7865d8c87b"),
]
ONE_ROW_DIGEST = {
    ("conventional", (2, 2, 2, 2)): "1650282f26ff71c711592eed93fede68f873e15e3f39c9eeb459c1e642732719",
    ("conventional", (3, 3, 3, 3)): "9f86e348c2ed3274e5ba2f80b96df128172b0eb69507fc9edb9c9ff431ee0ad3",
    ("conventional", (2, 3, 4, 5)): "01587ecd2c437bd2fad9451778e2696e08dc8a8da3b223afe842939c616056c3",
    ("relaxed", (2, 2, 2, 2)): "aa5e3ec9e023929be1e7eb5a30f21040014d080f88d337d809fb88690a642ff9",
    ("relaxed", (3, 3, 3, 3)): "f5f573f36cd903765ad446b062032c722ccb7715b50b3ce052d1ecaa98ab80a1",
    ("relaxed", (2, 3, 4, 5)): "570304b2f8b18bed665947149f6f9b86571cfd264c98192dc0d5c84e707fe277",
}


@pytest.mark.parametrize("kind,dims,digest", GOLDEN_NS_PROGRAM)
def test_ns_program_is_byte_identical_to_golden(kind, dims, digest):
    s = Scenario.from_dims(dims)
    lp = ns_program(build_argument(kind, s)[0])
    assert json_sha256(lp) == ONE_ROW_DIGEST[kind, dims]
    doubled = with_negated_nosignaling_rows(lp, s)
    assert json_sha256(doubled) == digest
    assert solve_max(doubled) == solve_max(lp)


NS_PROGRAM_DIMS = sorted({(d,) * 4 for d in range(2, 7)} | set(itertools.product((2, 3), repeat=4)))
NS_PROGRAM_KINDS = (("conventional", F(0)), ("relaxed", F(0)), ("relaxed", F(1, 3)))


@pytest.mark.parametrize("dims", NS_PROGRAM_DIMS, ids=lambda dims: "x".join(map(str, dims)))
def test_ns_program_has_no_repeated_or_negated_equality_row(dims):
    s = Scenario.from_dims(dims)
    # one no-signaling row per (party, input, outcome)
    assert sum(c.label.startswith("no-signaling:") for c in polytope_system(s)) == sum(s.dims())
    for kind, p in NS_PROGRAM_KINDS:
        lp = ns_program(build_argument(kind, s, p)[0])
        # no equality row is a multiple of another, negative or positive
        keys = [proportional_key(pairs, rhs) for pairs, rhs, _ in lp.canonical()[1]]
        assert len(set(keys)) == len(keys)
        keep, eq, ineq = presolved(lp)
        # the presolve drops only the rows that forced zeros leave empty
        live = set(keep)
        assert len(eq) == sum(any(j in live for j, _ in pairs) for pairs, _, _ in lp.canonical()[1])
        # and the negations of the doubled catalog change no result
        doubled = with_negated_nosignaling_rows(lp, s)
        assert len(doubled.eq_constraints) == len(lp.eq_constraints) + sum(s.dims())
        assert solve_max(doubled) == solve_max(lp)


# ---------------------------------------------------------------------------
# local-realistic optima (independent exhaustive route)


def test_lhv_optimum_is_zero():
    for kind in ("conventional", "relaxed"):
        for d in (2, 3):
            arg, _ = build_argument(kind, Scenario.symmetric(d))
            report = max_success_lhv(arg)
            assert report.optimum == 0, (kind, d)
            assert report.regime == "local-realistic"
            assert is_valid_box(report.witness).ok
            assert evaluate_pp(report.witness, arg) == 0


def test_lhv_rejects_positive_bound():
    arg, _ = build_argument("relaxed", Scenario.symmetric(3), p=F(1, 10))
    with pytest.raises(ValueError):
        max_success_lhv(arg)


def test_lhv_zero_for_relabeled_arguments():
    arg, _ = build_argument("conventional", Scenario.symmetric(2), relabeling=BOB_REVERSED)
    assert max_success_lhv(arg).optimum == 0


def test_lhv_strategy_budget_is_checked_before_enumerating(monkeypatch):
    assert MAX_LHV_STRATEGIES == 10**6

    def enumeration_started(scenario):
        raise AssertionError(f"enumeration started at {scenario.dims()}")

    monkeypatch.setattr(hardy, "deterministic_strategies", enumeration_started)
    # the estimate is the product of the four outcome counts
    for dims, count in (((200, 200, 200, 200), 1600000000), ((10, 10, 100, 101), 1010000),
                        ((2, 3, 1000, 167), 1002000)):
        arg, _ = build_argument("conventional", Scenario.from_dims(dims))
        with pytest.raises(SearchBudgetExceeded,
                           match=f"needs {count} deterministic strategies, over the budget "
                                 f"of {MAX_LHV_STRATEGIES}"):
            max_success_lhv(arg)
    # exactly at the budget the enumeration starts
    arg, _ = build_argument("relaxed", Scenario.from_dims([10, 10, 100, 100]))
    with pytest.raises(AssertionError, match="enumeration started"):
        max_success_lhv(arg)


# ---------------------------------------------------------------------------
# PP on concrete boxes


def test_pr_satisfies_conventional_after_bob_reversal():
    arg = HardyArgument("conventional", Scenario.symmetric(2), BOB_REVERSED)
    assert evaluate_pp(pr_box(), arg) == F(1, 2)


def test_pr_violates_literal_conventional():
    arg, _ = build_argument("conventional", Scenario.symmetric(2))
    with pytest.raises(ArgumentNotSatisfied) as info:
        evaluate_pp(pr_box(), arg)
    assert info.value.condition == 0
    assert info.value.event == (1, 0, 1, 1)
    assert info.value.amount == F(1, 2)
    assert "a=2, b=2" in str(info.value)  # 1-based in the message


# deterministic boxes breaking exactly one condition: the conventional order
# is a1b0, a0b1, a1b1; the relaxed one a1b0, a1b1, a0b1, bounded last
@pytest.mark.parametrize("kind,p,answers,condition,event", [
    ("conventional", F(0), ((0, 0), (0, 0)), 1, (0, 1, 0, 0)),
    ("conventional", F(0), ((0, 0), (0, 1)), 2, (1, 1, 0, 1)),
    ("relaxed", F(0), ((0, 0), (0, 1)), 2, (0, 1, 0, 1)),
    ("relaxed", F(1, 10), ((0, 0), (0, 1)), 2, None),
])
def test_violation_names_the_only_broken_condition(kind, p, answers, condition, event):
    s = Scenario.symmetric(2)
    box = deterministic_box(s, *answers)
    arg, events = build_argument(kind, s, p)
    broken = [k for k, zset in enumerate(events.zeros) if any(box.prob(*e) for e in zset)]
    assert broken == [condition]
    with pytest.raises(ArgumentNotSatisfied) as info:
        evaluate_pp(box, arg)
    assert (info.value.condition, info.value.event, info.value.amount) == (condition, event, 1)
    expected = "bounded condition exceeds" if event is None else f"zero condition {condition + 1}"
    assert str(info.value).startswith(expected)


def test_attaining_vertex_pp():
    for d in (2, 3, 4, 5, 6):
        s = Scenario.symmetric(d)
        arg, _ = build_argument("relaxed", s)
        box = nonlocal_vertex(s, (d - 1, d - 1, 1))
        assert evaluate_pp(box, arg) == F(d - 1, d)


def test_constant_local_vertex_conventional():
    s = Scenario.symmetric(2)
    box = local_vertex(s, (0, 0, 0, 0))
    literal, _ = build_argument("conventional", s)
    with pytest.raises(ArgumentNotSatisfied):
        evaluate_pp(box, literal)
    relabeled = HardyArgument("conventional", s, Relabeling(alice_perms=((1, 0), (0, 1))))
    assert evaluate_pp(box, relabeled) == 0


def test_evaluate_pp_guards():
    arg, _ = build_argument("conventional", Scenario.symmetric(2))
    with pytest.raises(ValueError):
        evaluate_pp(uniform_box(Scenario.symmetric(3)), arg)
    table = list(pr_box().table)
    table[0] += F(1, 8)
    with pytest.raises(ValueError, match="invalid box"):
        evaluate_pp(JointBox(Scenario.symmetric(2), tuple(table)), arg)


def test_bounded_condition_pp():
    s = Scenario.symmetric(3)
    box = nonlocal_vertex(s, (2, 2, 1))
    arg, _ = build_argument("relaxed", s, p=F(1, 10))
    # the vertex has zero mass on the bounded set, so the bound is slack
    assert evaluate_pp(box, arg) == F(2, 3)


def first_maximum(candidates, arg):
    """(key, box, pp) of the first candidate box with the largest PP among
    those that pass evaluate_pp, or None."""
    best = None
    for key, box in candidates:
        try:
            pp = evaluate_pp(box, arg)
        except ArgumentNotSatisfied:
            continue
        if best is None or pp > best[2]:
            best = (key, box, pp)
    return best


def swapped_relabeling(s):
    def shift(n):
        return tuple((r + 1) % n for r in range(n))

    def reverse(n):
        return tuple(reversed(range(n)))

    return Relabeling(True, True, (shift(s.alice[0]), reverse(s.alice[1])),
                      (reverse(s.bob[0]), shift(s.bob[1])))


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 5)])
@pytest.mark.parametrize("kind", ["conventional", "relaxed"])
def test_condition_checks_agree_with_evaluate_pp(dims, kind):
    s = Scenario.from_dims(dims)
    for relabeling in (Relabeling(), swapped_relabeling(s)):
        arg, _ = build_argument(kind, s, relabeling=relabeling)
        strategies = [(fs, deterministic_box(s, *fs)) for fs in deterministic_strategies(s)]
        _fs, box, pp = first_maximum(strategies, arg)
        report = max_success_lhv(arg)
        assert (report.witness, report.optimum) == (box, pp)

        labels = itertools.product(range(s.min_outputs), repeat=3)
        expected = first_maximum([(label, nonlocal_vertex(s, label)) for label in labels], arg)
        if expected is None:
            with pytest.raises(ValueError, match="no congruence vertex"):
                attaining_nonlocal_vertex(arg)
        else:
            label, box, pp = attaining_nonlocal_vertex(arg)
            assert (tuple(label), box, pp) == expected


def per_label_scan(arg):
    """Reference: the congruence scan that the class counts replaced, which
    checks every label by calling _violation on its entry function. Returns
    ({label: success mass} of the satisfying labels, (label, box, pp) of the
    first maximum or None)."""
    s = arg.scenario
    events = argument_events(arg)
    satisfying = {}
    best = None
    for label in itertools.product(range(s.min_outputs), repeat=3):
        entry = nonlocal_vertex(s, label).prob
        if hardy._violation(entry, events) is None:
            mass = hardy._mass(entry, events.success)
            satisfying[label] = mass
            if best is None or mass > best[1]:
                best = (label, mass)
    if best is None:
        return satisfying, None
    box = nonlocal_vertex(s, best[0])
    return satisfying, (best[0], box, evaluate_pp(box, arg))


def seeded_relabeling(s, seed):
    rng = random.Random(seed)

    def perms(counts):
        return tuple(tuple(rng.sample(range(n), n)) for n in counts)

    return Relabeling(rng.random() < 0.5, rng.random() < 0.5, perms(s.alice), perms(s.bob))


# asymmetric counts put event cells at outcomes >= min_outputs, where every
# congruence vertex is 0; (3, 2, 2, 3) and (2, 3, 4, 5) have identity
# arguments that no congruence vertex satisfies
SCAN_DIMS = [(2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (5, 5, 5, 5), (3, 2, 2, 3),
             (2, 3, 4, 5), (3, 4, 3, 5), (4, 3, 5, 4)]
SCAN_ARGUMENTS = [("conventional", F(0)), ("relaxed", F(0)), ("relaxed", F(1, 10)),
                  ("relaxed", F(1, 3))]


def scan_arguments(dims):
    s = Scenario.from_dims(dims)
    relabelings = [Relabeling()] + [seeded_relabeling(s, 100 * sum(dims) + k) for k in range(4)]
    return [build_argument(kind, s, p, relabeling)[0]
            for kind, p in SCAN_ARGUMENTS for relabeling in relabelings]


@pytest.mark.parametrize("dims", SCAN_DIMS)
def test_vertex_scan_matches_per_label_scan(dims):
    refused = 0
    for arg in scan_arguments(dims):
        _satisfying, expected = per_label_scan(arg)
        if expected is None:
            refused += 1
            with pytest.raises(ValueError, match="no congruence vertex satisfies"):
                attaining_nonlocal_vertex(arg)
        else:
            label, box, pp = attaining_nonlocal_vertex(arg)
            assert (tuple(label), box, pp) == expected, arg
    if dims in ((3, 2, 2, 3), (2, 3, 4, 5)):
        assert refused


@pytest.mark.parametrize("dims", SCAN_DIMS)
def test_congruence_class_counts_match_per_label_scan(dims):
    for arg in scan_arguments(dims):
        satisfying, _expected = per_label_scan(arg)
        assert list(hardy._congruence_masses(arg)) == list(satisfying.items()), arg


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_congruence_masses_match_built_vertices(d):
    # brute force: build every congruence vertex and evaluate it
    s = Scenario.symmetric(d)
    vertices = [(label, nonlocal_vertex(s, label))
                for label in itertools.product(range(d), repeat=3)]
    for kind, p in (("conventional", F(0)), ("relaxed", F(0)), ("relaxed", F(1, 3))):
        arg = build_argument(kind, s, p)[0]
        expected = []
        for label, box in vertices:
            try:
                expected.append((label, evaluate_pp(box, arg)))
            except ArgumentNotSatisfied:
                pass
        assert expected
        assert list(hardy._congruence_masses(arg)) == expected, (kind, p)


# ---------------------------------------------------------------------------
# PN and PPC


def test_pr_pn_reaches_one():
    base = HardyArgument("conventional", Scenario.symmetric(2), BOB_REVERSED)
    result = compute_pn(pr_box(), base)
    assert result.pn == 1
    assert len(result.family) == 2
    masses = [evaluate_pp(pr_box(), member) for member in result.family]
    assert sum(masses) == 1
    cells = [frozenset((a, b) for (_x, _y, a, b) in argument_events(m).success)
             for m in result.family]
    assert cells[0].isdisjoint(cells[1])
    assert result.pn - evaluate_pp(pr_box(), base) == F(1, 2)


def test_pr_alice_reversal_is_the_second_family_member():
    base = HardyArgument("conventional", Scenario.symmetric(2), ALICE_REVERSED)
    assert evaluate_pp(pr_box(), base) == F(1, 2)


def test_attaining_vertex_pn_and_ppc():
    for d in (2, 3, 4, 5, 6):
        s = Scenario.symmetric(d)
        base, _ = build_argument("relaxed", s)
        label, box, pp = attaining_nonlocal_vertex(base)
        assert tuple(label) == (d - 1, d - 1, 1)
        assert pp == F(d - 1, d)
        result = compute_pn(box, base)
        assert result.pn == 1, d
        assert result.pn - pp == F(1, d)
        if d <= 6:  # the exhaustive search must agree with the default family
            wide = compute_pn(box, base, exhaustive_perms=True)
            assert wide.pn == 1


def test_pn_requires_satisfied_base():
    base, _ = build_argument("conventional", Scenario.symmetric(2))
    with pytest.raises(ArgumentNotSatisfied):
        compute_pn(pr_box(), base)


def test_pn_at_least_pp_on_lp_witness():
    arg, _ = build_argument("relaxed", Scenario.symmetric(3))
    witness = max_success_ns(arg).witness
    pp = evaluate_pp(witness, arg)
    result = compute_pn(witness, arg)
    assert result.pn >= pp
    assert result.pn <= 1


def test_pn_deterministic():
    base = HardyArgument("conventional", Scenario.symmetric(2), BOB_REVERSED)
    first = compute_pn(pr_box(), base)
    second = compute_pn(pr_box(), base)
    assert first == second


def test_ppc_on_d4_vertex():
    s = Scenario.symmetric(4)
    base, _ = build_argument("relaxed", s)
    box = nonlocal_vertex(s, (3, 3, 1))
    assert compute_pn(box, base).pn - evaluate_pp(box, base) == F(1, 4)


def test_packing_of_many_overlapping_entries_keeps_the_first_maximum():
    # 1,500 entries sharing cell (0, 0): one recursion level per skipped
    # entry would exceed Python's default recursion limit
    # masses are ints over the scale 10**6: 1 is 1/10**6 and 500_000 is 1/2
    entries = [(frozenset({(0, 0), (1, i)}), 1, i) for i in range(1500)]
    entries[700] = (frozenset({(0, 0), (1, 900)}), 500_000, 700)
    entries[900] = (frozenset({(0, 0), (1, 901)}), 500_000, 900)
    total, picked = hardy._max_disjoint_mass(entries, 10**6)
    assert total == F(1, 2)
    assert picked == [entries[700]]


def fraction_max_disjoint_mass(entries):
    """Reference: the packing search as it was written over Fraction masses,
    capped at Fraction 1, before it scaled the masses to ints."""
    order = sorted(range(len(entries)),
                   key=lambda i: (-entries[i][1], sorted(entries[i][0])))
    cells = [entries[i][0] for i in order]
    masses = [entries[i][1] for i in order]
    suffix = [F(0)] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + masses[i]

    best_total = F(0)
    best_pick: tuple[int, ...] = ()
    picked: list[int] = []

    def search(i, used, total):
        nonlocal best_total, best_pick
        if total > best_total:
            best_total, best_pick = total, tuple(picked)
        while i < len(order) and min(total + suffix[i], F(1)) > best_total:
            if used.isdisjoint(cells[i]):
                picked.append(i)
                search(i + 1, used | cells[i], total + masses[i])
                picked.pop()
            i += 1

    search(0, frozenset(), F(0))
    return best_total, [entries[order[i]] for i in best_pick]


BIG_DENOMINATORS = (10**18 + 9, 2**61 - 1)
packing_masses = st.one_of(
    # few values, so equal masses and equal totals (ties) are common
    st.sampled_from([F(1, 2), F(1, 3), F(1, 6), F(1, 4), F(2**60, 2**61 - 1),
                     F(5 * 10**17, 10**18 + 9), F(1, 10**18 + 9), F(1, 2**61 - 1)]),
    st.builds(lambda den, k: F(k % (den - 1) + 1, den), st.sampled_from(BIG_DENOMINATORS),
              st.integers(0, 2**64)),
)
# cells of a 3 x 3 block, so the cell sets overlap often
packing_cells = st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              min_size=1, max_size=3)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(packing_cells, packing_masses), max_size=12), st.integers(1, 3))
def test_integer_packing_matches_fraction_packing(pairs, factor):
    # catches a cap of 1 (not the scale) on the integer masses, and a flipped
    # tie order (cells sorted in reverse, or the last optimum kept); the scale
    # is a multiple of the common denominator, as a block's scale may be
    entries = [(cells, mass, index) for index, (cells, mass) in enumerate(pairs)]
    scale = factor * math.lcm(*(mass.denominator for _cells, mass, _index in entries))
    scaled = [(cells, mass.numerator * (scale // mass.denominator), index)
              for cells, mass, index in entries]
    total, picked = hardy._max_disjoint_mass(scaled, scale)
    assert type(total) is Fraction
    assert (total, [entries[index] for _cells, _mass, index in picked]) == (
        fraction_max_disjoint_mass(entries))


# ---------------------------------------------------------------------------
# relabeling search: budget and agreement with the full enumeration


def test_permutation_family_size(monkeypatch):
    assert [permutation_family_size(n, True) for n in (2, 5, 7, 8)] == [2, 120, 5040, 40320]
    assert [permutation_family_size(n, False) for n in (2, 3, 7)] == [2, 6, 14]
    assert MAX_PERMUTATION_FAMILY == permutation_family_size(7, True)
    for n in range(2, 13):
        assert permutation_family_size(n, False) == len(hardy._perm_family(n, False))

    def unbuildable(n):
        raise AssertionError(f"built the family of {n} outcomes")

    # the size, and so the budget check, is counted without building the family
    monkeypatch.setattr(hardy, "_dihedral_perms", unbuildable)
    assert permutation_family_size(10**6, False) == 2 * 10**6
    with pytest.raises(SearchBudgetExceeded, match="5000 outcomes needs a family of 10000"):
        hardy._check_search_budget(Scenario.from_dims([5000, 2, 2, 2]), False)


def deduplicated_dihedral_perms(n):
    """The construction _dihedral_perms replaced: the cyclic shifts, then the
    reversed shifts, each kept unless an earlier member equals it."""
    shifts = [tuple((r + k) % n for r in range(n)) for k in range(n)]
    reversals = [tuple((k - r) % n for r in range(n)) for k in range(n)]
    seen, family = set(), []
    for perm in shifts + reversals:
        if perm not in seen:
            seen.add(perm)
            family.append(perm)
    return tuple(family)


def test_shift_and_reversal_family_matches_the_deduplicated_construction():
    for n in range(2, 10):
        family = hardy._dihedral_perms(n)
        assert family == deduplicated_dihedral_perms(n), n
        assert len(family) == permutation_family_size(n, False)
    # outcomes above 256 are not interned: the members share n int objects
    family = hardy._dihedral_perms(300)
    assert len({id(outcome) for perm in family for outcome in perm}) == 300


def test_relation_search_depth_is_not_bounded_by_the_recursion_limit():
    # a branch of the search is as deep as the right party's outcome count:
    # with p > 0 the bounded (0, 1) condition is searched over Bob's input 1,
    # 120 ranks deep; one call frame per level would exceed the lowered limit
    s = Scenario.from_dims([2, 2, 2, 120])
    box = deterministic_box(s, (0, 0), (0, 0))
    expected = best_argument_with_pn(box, "relaxed", F(1, 3))
    assert expected is not None
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        got = best_argument_with_pn(box, "relaxed", F(1, 3))
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def trie_dicts(node):
    return 1 + sum(trie_dicts(child) for child in node.values() if isinstance(child, dict))


def test_shift_and_reversal_search_memory_is_linear_in_family_times_n():
    # the 2n shifts and reversals of n outcomes part after rank 1, so a trie
    # with one dict per rank of each member held about 2n^2 dicts (154 MB at
    # n = 600); the trie stops where a prefix has one member. The uniform box
    # is positive at every cell, so a table per (rank, outcome) over the
    # family would be built in full there
    n = 600
    s = Scenario.from_dims([2, 2, n, 2])
    for box, pn in ((deterministic_box(s, (0, 0), (0, 0)), 0), (uniform_box(s), None)):
        hardy._perm_family.cache_clear()
        hardy._prefix_trie.cache_clear()
        tracemalloc.start()
        try:
            found = best_argument_with_pn(box, "relaxed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (None if found is None else found[2].pn) == pn
        assert peak < 16 * 2**20, peak  # the family itself is 2n tuples of n outcomes
    assert trie_dicts(hardy._prefix_trie(hardy._perm_family(n, False))) == n + 1
    assert trie_dicts(hardy._prefix_trie(hardy._perm_family(5, True))) == 1 + 5 + 20 + 60
    hardy._perm_family.cache_clear()
    hardy._prefix_trie.cache_clear()


def test_exhaustive_search_refuses_over_budget():
    hardy._check_search_budget(Scenario.symmetric(7), True)
    hardy._check_search_budget(Scenario.symmetric(8), False)
    with pytest.raises(SearchBudgetExceeded, match="40320 permutations.*budget of 5040"):
        hardy._check_search_budget(Scenario.from_dims([2, 8, 3, 3]), True)
    # the public entry points refuse before building any permutation
    s = Scenario.symmetric(8)
    base, _ = build_argument("relaxed", s)
    box = nonlocal_vertex(s, (7, 7, 1))
    with pytest.raises(SearchBudgetExceeded):
        compute_pn(box, base, exhaustive_perms=True)
    with pytest.raises(ValueError):
        best_satisfied_argument(box, "relaxed", exhaustive_perms=True)
    assert compute_pn(box, base).pn == 1


def full_enumeration_relation(box, block, template, left, right, bound):
    """Reference: test every (left, right) permutation pair on every template
    cell, the (n!)^2 enumeration that the depth-first search replaced."""
    x, y = block
    rel = {}
    for ia, pa in enumerate(left):
        hits = 0
        for ib, pb in enumerate(right):
            if bound > 0:
                total = sum((box.prob(x, y, pa[r], pb[t]) for r, t in template), F(0))
                ok = total <= bound
            else:
                ok = all(box.prob(x, y, pa[r], pb[t]) == 0 for r, t in template)
            if ok:
                hits |= 1 << ib
        if hits:
            rel[ia] = hits
    return rel


ROW_SHAPES = ("empty", "one cell", "more than half", "full")


@st.composite
def relation_cases(draw):
    """A block on pair (0, 0) of a (left, 2, right, 2) scenario, its rows
    empty, one positive cell, more than half positive (one cell when there
    are only two outcomes) or full, masses in twelfths; a template of random
    rank cells; a family of each kind per side; bound 0 or 1/3."""
    n_left, n_right = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    rows = []
    for _ in range(n_left):
        shape = draw(st.sampled_from(ROW_SHAPES))
        count = {"empty": 0, "one cell": 1, "full": n_right}.get(shape)
        if count is None:
            count = draw(st.integers(min(n_right // 2 + 1, n_right - 1), n_right - 1))
        cells = draw(st.permutations(range(n_right)))[:count]
        rows.append({b: F(draw(st.integers(1, 4)), 12) for b in cells})
    s = Scenario.from_dims([n_left, 2, n_right, 2])
    box = JointBox.from_function(
        s, lambda x, y, a, b: rows[a].get(b, F(0)) if (x, y) == (0, 0) else F(0))
    template = tuple(sorted(draw(st.sets(st.tuples(st.integers(0, n_left - 1),
                                                   st.integers(0, n_right - 1)), max_size=6))))
    left = hardy._perm_family(n_left, draw(st.booleans()))
    right = hardy._perm_family(n_right, draw(st.booleans()))
    return box, template, left, right, draw(st.sampled_from((F(0), F(1, 3))))


@settings(max_examples=300, deadline=None)
@given(relation_cases())
def test_relation_matches_full_enumeration(case):
    box, template, left, right, bound = case
    got = hardy._relation(box, (0, 0), template, left, right, bound)
    assert got == full_enumeration_relation(box, (0, 0), template, left, right, bound)
    assert list(got) == sorted(got)  # rows in ascending left order


def relabeled(box, alice_perms, bob_perms):
    return JointBox.from_function(
        box.scenario, lambda x, y, a, b: box.prob(x, y, alice_perms[x][a], bob_perms[y][b]))


def mixture(s):
    """A congruence box mixed with two deterministic boxes."""
    d = s.min_outputs
    parts = ((F(1, 2), nonlocal_vertex(s, (d - 1, 0, 1))),
             (F(1, 3), deterministic_box(s, (0, s.alice[1] - 1), (1, 0))),
             (F(1, 6), deterministic_box(s, (1, 0), (s.bob[0] - 1, 1))))
    return JointBox(s, tuple(sum((w * box.table[i] for w, box in parts), F(0))
                             for i in range(s.num_coords)))


def deterministic_mixture(s):
    """Two deterministic boxes, weights 1/3 and 2/3: few positive cells, so
    many left permutations block the same outcomes and share a search."""
    parts = ((F(1, 3), deterministic_box(s, (0, 0), (0, 0))),
             (F(2, 3), deterministic_box(s, (1, s.alice[1] - 1), (s.bob[0] - 1, 1))))
    return JointBox(s, tuple(sum((w * box.table[i] for w, box in parts), F(0))
                             for i in range(s.num_coords)))


def sparse_boxes(s):
    """The all-zero deterministic box and a two-term deterministic mixture."""
    return [deterministic_box(s, (0, 0), (0, 0)), deterministic_mixture(s)]


def differential_boxes(dims):
    s = Scenario.from_dims(dims)
    d = s.min_outputs
    return [nonlocal_vertex(s, (d - 1, d - 1, 1)), nonlocal_vertex(s, (0, 1, d - 1)),
            mixture(s), uniform_box(s)] + sparse_boxes(s)


def assert_search_matches_full_enumeration(monkeypatch, box, kind, p, swaps, exhaustive):
    # the scale and the full candidate lists, (cells, mass, chain) each, and
    # PN of the first candidate's chain as the base argument
    arg = HardyArgument(kind, box.scenario, Relabeling(*swaps), p)

    def search():
        scale, candidates = hardy._success_candidates(box, arg, exhaustive)
        if not candidates:
            return scale, candidates, None
        base = hardy._chain_argument(arg, candidates[0][2])
        return scale, candidates, compute_pn(box, base, exhaustive)

    fast = search()
    with monkeypatch.context() as m:
        m.setattr(hardy, "_relation", full_enumeration_relation)
        slow = search()
    assert fast == slow, (box.scenario.dims(), kind, p, swaps, exhaustive)


ARGUMENT_CASES = [("conventional", F(0)), ("relaxed", F(0)), ("relaxed", F(1, 3))]
SWAPS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 3), (3, 2, 2, 4),
                                  (4, 4, 4, 4)])
def test_search_matches_full_enumeration(monkeypatch, dims):
    for box in differential_boxes(dims):
        assert is_valid_box(box).ok
        for kind, p in ARGUMENT_CASES:
            for swaps in SWAPS:
                for exhaustive in (False, True):
                    assert_search_matches_full_enumeration(
                        monkeypatch, box, kind, p, swaps, exhaustive)


def test_search_matches_full_enumeration_d5(monkeypatch):
    s = Scenario.symmetric(5)
    perms = ((1, 0, 2, 3, 4), (2, 4, 1, 0, 3))
    vertex = relabeled(nonlocal_vertex(s, (4, 4, 1)), perms, perms[::-1])
    zero, two_term = sparse_boxes(s)
    for box, kind, p, swaps in ((vertex, "relaxed", F(0), (False, False)),
                                (vertex, "conventional", F(0), (True, False)),
                                (mixture(s), "relaxed", F(1, 3), (False, True)),
                                (mixture(s), "conventional", F(0), (True, True)),
                                (zero, "relaxed", F(0), (False, False)),
                                (two_term, "conventional", F(0), (False, True))):
        assert_search_matches_full_enumeration(monkeypatch, box, kind, p, swaps, True)


def reference_candidates(box, kind, p, swaps, exhaustive):
    """Reference for _success_candidates: the chains over the
    full-enumeration relations, each family index pair (ia0, ib0) in
    ascending order with its smallest ib1 and then its smallest ia1, given
    as the permutations (pa0, pb0, pa1, pb1) at those indices; the first
    pair is kept at any success mass, later ones only at positive mass."""
    ax, by, counts = hardy._roles(HardyArgument(kind, box.scenario, Relabeling(*swaps)))
    t_success, conditions = hardy._template(kind, p, *counts)
    fa0, fa1, fb0, fb1 = (hardy._perm_family(n, exhaustive) for n in counts)
    fam_a, fam_b = (fa0, fa1), (fb0, fb1)

    pairs = {}
    for k, ((i, j), cells, _bound) in enumerate(conditions):
        rel = full_enumeration_relation(box, (ax[i], by[j]), cells, fam_a[i], fam_b[j],
                                        p if k == 2 else F(0))
        pairs[(i, j)] = {(l, r) for l, row in rel.items()
                         for r in range(row.bit_length()) if row >> r & 1}
    a1b0, a1b1, a0b1 = pairs[(1, 0)], pairs[(1, 1)], pairs[(0, 1)]
    smallest_a1 = {}
    for ia1 in range(len(fa1)):
        for ib0 in range(len(fb0)):
            for ib1 in range(len(fb1)):
                if (ia1, ib0) in a1b0 and (ia1, ib1) in a1b1:
                    smallest_a1.setdefault((ib0, ib1), ia1)
    out = []
    for ia0, ib0 in itertools.product(range(len(fa0)), range(len(fb0))):
        b1s = [ib1 for ib1 in range(len(fb1)) if (ia0, ib1) in a0b1 and (ib0, ib1) in smallest_a1]
        if not b1s:
            continue
        cells = frozenset((fa0[ia0][r], fb0[ib0][t]) for r, t in t_success)
        mass = sum((box.prob(ax[0], by[0], a, b) for a, b in cells), F(0))
        if mass > 0 or not out:
            ia1, ib1 = smallest_a1[(ib0, b1s[0])], b1s[0]
            out.append((cells, mass, (fa0[ia0], fb0[ib0], fa1[ia1], fb1[ib1])))
    return out


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 3), (3, 2, 2, 4),
                                  (4, 4, 4, 4)])
def test_chain_join_matches_reference_join(dims):
    # pins the witness each kept chain carries, which names the relabelings
    # that pn prints, and that each chain rebuilds the argument whose success
    # cells and mass it carries
    for box in differential_boxes(dims):
        for kind, p in ARGUMENT_CASES:
            for swaps in SWAPS:
                for exhaustive in (False, True):
                    arg = HardyArgument(kind, box.scenario, Relabeling(*swaps), p)
                    scale, candidates = hardy._success_candidates(box, arg, exhaustive)
                    case = (dims, kind, p, swaps, exhaustive)
                    assert all(type(total) is int for _cells, total, _chain in candidates), case
                    as_fractions = [(cells, F(total, scale), chain)
                                    for cells, total, chain in candidates]
                    assert as_fractions == reference_candidates(box, kind, p, swaps, exhaustive), case
                    ax, by, _counts = hardy._roles(arg)
                    for cells, mass, chain in as_fractions:
                        rebuilt = hardy._chain_argument(arg, chain)
                        success = argument_events(rebuilt).success
                        assert success == {(ax[0], by[0], a, b) for a, b in cells}, case
                        assert evaluate_pp(box, rebuilt) == mass, case


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_outcome_relabeling_keeps_exhaustive_pp_and_pn(data):
    d = data.draw(st.integers(2, 4), label="d")
    s = Scenario.symmetric(d)
    if data.draw(st.booleans(), label="vertex"):
        label = data.draw(st.tuples(*[st.integers(0, d - 1)] * 3), label="label")
        box = nonlocal_vertex(s, label)
    else:
        box = mixture(s)
    perm = st.permutations(range(d)).map(tuple)
    alice = data.draw(st.tuples(perm, perm), label="alice")
    bob = data.draw(st.tuples(perm, perm), label="bob")
    moved = relabeled(box, alice, bob)
    for kind in ("conventional", "relaxed"):
        before = best_argument_with_pn(box, kind, exhaustive_perms=True)
        after = best_argument_with_pn(moved, kind, exhaustive_perms=True)
        assert (before is None) == (after is None)
        if after is None:
            continue
        assert before[1] == after[1] and before[2].pn == after[2].pn
        assert sum(evaluate_pp(moved, member) for member in after[2].family) == after[2].pn


def assert_shared_search_matches_public_functions(box, kind, p, exhaustive):
    found = best_argument_with_pn(box, kind, p, exhaustive)
    best = best_satisfied_argument(box, kind, p, exhaustive)
    if best is None:
        assert found is None
        return
    arg, pp = best
    pn = compute_pn(box, arg, exhaustive)
    assert found is not None
    assert found[0] == arg and found[1] == pp
    assert found[2].pn == pn.pn and found[2].family == pn.family


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 3), (4, 4, 4, 4)])
def test_shared_search_matches_best_argument_then_pn(dims):
    s = Scenario.from_dims(dims)
    for box in differential_boxes(dims):  # the zero box among them
        for kind, p in ARGUMENT_CASES:
            for exhaustive in (False, True):
                assert_shared_search_matches_public_functions(box, kind, p, exhaustive)
    # the uniform box satisfies no relabeled argument
    assert best_argument_with_pn(uniform_box(s), "relaxed") is None


def test_shared_search_matches_best_argument_then_pn_d5():
    s = Scenario.symmetric(5)
    perms = ((1, 0, 2, 3, 4), (2, 4, 1, 0, 3))
    vertex = relabeled(nonlocal_vertex(s, (4, 4, 1)), perms, perms[::-1])
    for box in (vertex, relabeled(nonlocal_vertex(s, (0, 1, 4)), perms[::-1], perms)):
        for kind, p in ARGUMENT_CASES:
            for exhaustive in (False, True):
                assert_shared_search_matches_public_functions(box, kind, p, exhaustive)


# ---------------------------------------------------------------------------
# searched base arguments


def test_best_satisfied_argument_for_pr():
    found = best_satisfied_argument(pr_box(), "conventional")
    assert found is not None
    arg, mass = found
    assert mass == F(1, 2)
    assert evaluate_pp(pr_box(), arg) == F(1, 2)


def test_best_satisfied_argument_identity_case():
    s = Scenario.symmetric(3)
    box = nonlocal_vertex(s, (2, 2, 1))
    arg, mass = best_satisfied_argument(box, "relaxed")
    assert mass == F(2, 3)
    identity, identity_events = build_argument("relaxed", s)
    assert argument_events(arg).success == identity_events.success
    assert evaluate_pp(box, identity) == mass


def test_best_satisfied_argument_none_for_uniform():
    # every zero set carries mass under every relabeling of the uniform box
    assert best_satisfied_argument(uniform_box(Scenario.symmetric(2)), "conventional") is None
    assert best_satisfied_argument(uniform_box(Scenario.symmetric(2)), "relaxed") is None


# ---------------------------------------------------------------------------
# witnesses decompose over the d = 2 vertex list


# sha256 of the exact weights below, as "num/den" strings joined by commas
GOLDEN_D2_DECOMPOSITION = {
    "conventional": "07fccd84fa39d78cff91c9aaccaf5e672f78ca9ab2965afae012bcdf2d5ba716",
    "relaxed": "b461a9a5f6d7a11942465911fb6c04256332f5e6ab95b806eb92b521f5bb5e5f",
}


def test_witnesses_decompose_over_d2_vertices():
    s = Scenario.symmetric(2)
    vertex_boxes = [box for _lab, box in enumerate_vertices(s, "all")]
    assert len(vertex_boxes) == 24
    for kind in ("conventional", "relaxed"):
        arg, _ = build_argument(kind, s)
        witness = max_success_ns(arg).witness
        weights = convex_decomposition(witness, vertex_boxes)
        assert weights is not None
        text = ",".join(format_rational(w) for w in weights)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_D2_DECOMPOSITION[kind]
        assert sum(weights) == 1
        rebuilt = [F(0)] * s.num_coords
        for w, box in zip(weights, vertex_boxes):
            if w:
                for i, p in enumerate(box.table):
                    rebuilt[i] += w * p
        assert tuple(rebuilt) == witness.table


# ---------------------------------------------------------------------------
# quantum reference values


def test_quantum_reference_constant():
    assert abs(HARDY_QUANTUM_OPTIMUM - 0.09016994374947425) < 1e-12
    assert 0.0901 < HARDY_QUANTUM_OPTIMUM < 0.0902


def test_quantum_reference_is_exact_to_thirty_places():
    # (5*sqrt(5) - 11)/2 floored at 30 places: v is in [q - 10**-30, q], so
    # 2v + 11 brackets 5*sqrt(5), whose square is 125
    v = HARDY_QUANTUM_OPTIMUM
    assert type(v) is Fraction
    assert (10**30 * v).denominator == 1
    assert (2 * v + 11) ** 2 <= 125 < (2 * (v + F(1, 10**30)) + 11) ** 2
