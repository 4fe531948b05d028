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
from fractions import Fraction

import pytest

from nsbox import (
    MAX_PERMUTATION_FAMILY,
    ArgumentNotSatisfied,
    HardyArgument,
    JointBox,
    Relabeling,
    Scenario,
    SearchBudgetExceeded,
    argument_events,
    attaining_nonlocal_vertex,
    best_satisfied_argument,
    build_argument,
    compute_pn,
    convex_decomposition,
    deterministic_box,
    deterministic_strategies,
    enumerate_vertices,
    evaluate_pp,
    feasible_above,
    is_valid_box,
    local_vertex,
    max_success_lhv,
    max_success_ns,
    nonlocal_vertex,
    ns_program,
    permutation_family_size,
    ppc,
    quantum_reference,
    uniform_box,
)
from nsbox import hardy

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
    with pytest.raises(ValueError):
        build_argument("other", s)
    with pytest.raises(ValueError):
        build_argument("relaxed", s, p=1)
    with pytest.raises(ValueError):
        build_argument("relaxed", s, p=F(-1, 2))
    with pytest.raises(ValueError):
        build_argument("conventional", s, p=F(1, 10))
    with pytest.raises(ValueError):
        build_argument("relaxed", s, relabeling=Relabeling(alice_perms=((0, 0), (0, 1))))
    with pytest.raises(ValueError):
        build_argument("relaxed", s, p=0.1)  # floats stay out


def test_input_swap_moves_designated_pair():
    s = Scenario.from_dims([2, 3, 2, 2])
    arg, events = build_argument("relaxed", s,
                                 relabeling=Relabeling(alice_input_swap=True))
    # success now lives on physical block (x=1, y=0) with 3 Alice outcomes
    assert all(x == 1 and y == 0 for (x, y, _a, _b) in events.success)
    assert events.success == frozenset({(1, 0, 0, 1)})


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


def test_ns_optimum_duality_spot_check():
    for kind, dims in (("conventional", (2, 2, 2, 2)), ("relaxed", (3, 3, 3, 3))):
        arg, _ = build_argument(kind, Scenario.from_dims(dims))
        lp = ns_program(arg)
        value = max_success_ns(arg).optimum
        assert feasible_above(lp, value)
        assert not feasible_above(lp, value + F(1, 1000))


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


# sha256 of json.dumps(ns_program(arg).to_json_dict(), sort_keys=True) for the
# identity argument, recorded before the rank-space template became the only
# encoding: it fixes the objective and the row order, so Bland's pivot path
GOLDEN_NS_PROGRAM = [
    ("conventional", (2, 2, 2, 2), "747a221b4d36e92031806daf45a958f87ec2ed844a0e12f61378ef81b059a7e1"),
    ("conventional", (3, 3, 3, 3), "278f896b243e699c3888defed1664adbabc9c8840bde6a75d17f082ddcde28a6"),
    ("conventional", (2, 3, 4, 5), "92407c160253839d236e96867990a33661c36f16cd6aa7931fa1788c892e21ad"),
    ("relaxed", (2, 2, 2, 2), "bca6b99ecd05b78a2bce5d9491eaeee0f6a37f8735d1613844a0419ed98ab6b5"),
    ("relaxed", (3, 3, 3, 3), "9ec0b241d181872bfc213de08f6f283d0484ca6d5c1bb55e287a5b180ed46be2"),
    ("relaxed", (2, 3, 4, 5), "dbd9cc8fc76d7a5f7b65b1f2b3a74f83e1c28328d60d0d07b9699c7865d8c87b"),
]


@pytest.mark.parametrize("kind,dims,digest", GOLDEN_NS_PROGRAM)
def test_ns_program_is_byte_identical_to_golden(kind, dims, digest):
    arg, _ = build_argument(kind, Scenario.from_dims(dims))
    text = json.dumps(ns_program(arg).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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
    assert ppc(pr_box(), base) == F(1, 2)


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
    assert ppc(box, base) == F(1, 4)


def test_packing_of_many_overlapping_entries_keeps_the_first_maximum():
    # 1,500 entries sharing cell (0, 0): one recursion level per skipped
    # entry would exceed Python's default recursion limit
    entries = [(frozenset({(0, 0), (1, i)}), F(1, 10**6), i) for i in range(1500)]
    entries[700] = (frozenset({(0, 0), (1, 900)}), F(1, 2), 700)
    entries[900] = (frozenset({(0, 0), (1, 901)}), F(1, 2), 900)
    total, picked = hardy._max_disjoint_mass(entries)
    assert total == F(1, 2)
    assert picked == [entries[700]]


# ---------------------------------------------------------------------------
# relabeling search: budget and agreement with the full enumeration


def test_permutation_family_size():
    assert [permutation_family_size(n, True) for n in (2, 5, 7, 8)] == [2, 120, 5040, 40320]
    assert [permutation_family_size(n, False) for n in (2, 3, 7)] == [2, 6, 14]
    assert MAX_PERMUTATION_FAMILY == permutation_family_size(7, True)


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
        hits = []
        for ib, pb in enumerate(right):
            if bound > 0:
                total = sum((box.prob(x, y, pa[r], pb[t]) for r, t in template), F(0))
                ok = total <= bound
            else:
                ok = all(box.prob(x, y, pa[r], pb[t]) == 0 for r, t in template)
            if ok:
                hits.append(ib)
        if hits:
            rel[ia] = hits
    return rel


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


def differential_boxes(dims):
    s = Scenario.from_dims(dims)
    d = s.min_outputs
    return [nonlocal_vertex(s, (d - 1, d - 1, 1)), nonlocal_vertex(s, (0, 1, d - 1)),
            mixture(s), uniform_box(s)]


def assert_search_matches_full_enumeration(monkeypatch, box, kind, p, swaps, exhaustive):
    def search():
        candidates, block = hardy._success_candidates(box, kind, p, swaps, exhaustive)
        if not candidates:
            return candidates, block, None
        base = HardyArgument(kind, box.scenario, candidates[0][2], p)
        return candidates, block, compute_pn(box, base, exhaustive)

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
    for box, kind, p, swaps in ((vertex, "relaxed", F(0), (False, False)),
                                (vertex, "conventional", F(0), (True, False)),
                                (mixture(s), "relaxed", F(1, 3), (False, True)),
                                (mixture(s), "conventional", F(0), (True, True))):
        assert_search_matches_full_enumeration(monkeypatch, box, kind, p, swaps, True)


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


def test_witnesses_decompose_over_d2_vertices():
    s = Scenario.symmetric(2)
    vertex_boxes = [box for _lab, box in enumerate_vertices(s, "all")]
    assert len(vertex_boxes) == 24
    for kind in ("conventional", "relaxed"):
        arg, _ = build_argument(kind, s)
        witness = max_success_ns(arg).witness
        weights = convex_decomposition(witness, vertex_boxes)
        assert weights is not None
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
    ref = quantum_reference("conventional", 2)
    assert ref is not None
    assert abs(ref.value - 0.09016994374947425) < 1e-12
    assert 0.0901 < ref.value < 0.0902
    assert ref.note


def test_quantum_reference_dimension_independent():
    assert quantum_reference("conventional", 3).value == quantum_reference("conventional", 2).value
    assert quantum_reference("relaxed", 2).value == quantum_reference("conventional", 2).value
    assert quantum_reference("relaxed", 3) is None
    assert quantum_reference("relaxed", 6) is None
