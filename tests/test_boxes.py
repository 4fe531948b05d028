"""Scenario, box table, constraint-builder, and wire-format tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsbox import (
    JointBox,
    Scenario,
    box_from_json,
    box_from_json_dict,
    box_to_json,
    box_to_json_dict,
    build_normalization,
    build_nosignaling,
    build_positivity,
    deterministic_box,
    is_valid_box,
    marginal,
    nonlocal_vertex,
    polytope_dimension,
    polytope_system,
    uniform_box,
)
from nsbox.boxes import INPUT_PAIRS

F = Fraction


def pr_box() -> JointBox:
    return nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))


# ---------------------------------------------------------------------------
# scenarios and coordinates


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario((1, 2), (2, 2))
    with pytest.raises(ValueError):
        Scenario((2,), (2, 2))
    with pytest.raises(ValueError):
        Scenario.from_dims([2, 2, 2])
    s = Scenario.from_dims([2, 3, 4, 5])
    assert s.dims() == (2, 3, 4, 5)
    assert s.min_outputs == 2
    assert s.outputs("A", 1) == 3 and s.outputs("B", 0) == 4


def test_coord_index_is_lexicographic():
    s = Scenario.from_dims([2, 3, 2, 3])
    listed = list(s.coords())
    assert len(listed) == s.num_coords == 4 + 6 + 6 + 9
    assert listed == sorted(listed)
    for i, c in enumerate(listed):
        assert s.coord_index(*c) == i
    with pytest.raises(ValueError):
        s.coord_index(0, 0, 0, 2)  # block (0,0) has 2 Bob outcomes
    with pytest.raises(ValueError):
        s.coord_index(2, 0, 0, 0)


def test_incomplete_table_rejected():
    s = Scenario.symmetric(2)
    with pytest.raises(ValueError, match="incomplete table"):
        JointBox(s, (F(1),) * 15)
    with pytest.raises(ValueError):
        JointBox(s, (0.5,) * 16)  # floats never enter


# ---------------------------------------------------------------------------
# constraint builders


def test_positivity_row_counts():
    assert len(build_positivity(Scenario.symmetric(2)).conditions) == 16
    assert len(build_positivity(Scenario.symmetric(3)).conditions) == 36
    assert len(build_positivity(Scenario.from_dims([2, 3, 2, 3])).conditions) == 25


def test_normalization_rows():
    s = Scenario.symmetric(2)
    system = build_normalization(s)
    assert len(system.conditions) == 4
    for (x, y), cond, (dense, rhs) in zip(INPUT_PAIRS, system.conditions, system.eq_rows()):
        assert cond.relation == "eq" and cond.rhs == 1 and rhs == 1
        block = [s.coord_index(x, y, a, b) for a in range(2) for b in range(2)]
        assert cond.coeffs == tuple((i, 1) for i in block)
        assert len(dense) == s.num_coords
        assert [i for i, c in enumerate(dense) if c == 1] == block
        assert all(c in (0, 1) for c in dense)
    assert is_valid_box(uniform_box(Scenario.from_dims([2, 3, 4, 5]))).ok


def test_nosignaling_row_counts_all_dims_2():
    system = build_nosignaling(Scenario.symmetric(2))
    alice = [c for c in system.conditions if "P(a=" in c.label]
    bob = [c for c in system.conditions if "P(b=" in c.label]
    assert len(alice) == 8 and len(bob) == 8


def test_pr_box_satisfies_everything():
    pr = pr_box()
    assert not build_nosignaling(pr.scenario).violations(pr)
    report = is_valid_box(pr)
    assert report.ok and report.violations == ()
    assert bool(report) is True


def test_signaling_table_fails_one_alice_marginal():
    # Perturb a PR entry pair across far inputs: P(a=1,b=1|x=0,y=0) += 1/8 and
    # P(a=1,b=1|x=0,y=1) -= 1/8 makes Alice's first marginal depend on y.
    pr = pr_box()
    s = pr.scenario
    table = list(pr.table)
    table[s.coord_index(0, 0, 0, 0)] += F(1, 8)
    table[s.coord_index(0, 1, 0, 0)] -= F(1, 8)
    tampered = JointBox(s, tuple(table))
    violated = build_nosignaling(s).violations(tampered)
    alice_rows = [v for v in violated if "P(a=" in v]
    # one distinct Alice marginal equality, present in both emitted orientations
    assert len(alice_rows) == 2
    assert all("P(a=1 | x=0)" in row for row in alice_rows)
    assert not is_valid_box(tampered).ok


def test_negated_entry_names_positivity_row():
    pr = pr_box()
    s = pr.scenario
    table = list(pr.table)
    table[s.coord_index(0, 0, 0, 0)] = -table[s.coord_index(0, 0, 0, 0)]
    report = is_valid_box(JointBox(s, tuple(table)))
    assert not report.ok
    assert "positivity: P(a=1, b=1 | x=0, y=0) >= 0" in report.violations


def test_merge_rejects_mixed_scenarios():
    with pytest.raises(ValueError):
        build_normalization(Scenario.symmetric(2)).merge(
            build_normalization(Scenario.symmetric(3)))


# ---------------------------------------------------------------------------
# marginals and dimension


def test_marginal_examples():
    pr = pr_box()
    assert marginal(pr, "A", 0, 0) == F(1, 2)
    s = pr.scenario
    det = deterministic_box(s, (0, 0), (0, 0))
    assert marginal(det, "A", 0, 0) == 1
    assert marginal(det, "B", 1, 1) == 0
    for d in (2, 3, 4):
        u = uniform_box(Scenario.symmetric(d))
        assert marginal(u, "A", 0, 0) == F(1, d)
    with pytest.raises(ValueError):
        marginal(pr, "A", 0, 2)


def test_marginal_far_input_agreement():
    for box in (pr_box(), uniform_box(Scenario.from_dims([2, 3, 4, 5]))):
        s = box.scenario
        for x in (0, 1):
            for a in range(s.alice[x]):
                assert marginal(box, "A", x, a, 0) == marginal(box, "A", x, a, 1)
        for y in (0, 1):
            for b in range(s.bob[y]):
                assert marginal(box, "B", y, b, 0) == marginal(box, "B", y, b, 1)


def test_polytope_dimension_values():
    assert polytope_dimension(Scenario.symmetric(2)) == 8
    assert polytope_dimension(Scenario.symmetric(3)) == 24
    assert polytope_dimension(Scenario.from_dims([2, 3, 2, 3])) == 15


# ---------------------------------------------------------------------------
# wire format


def test_wire_round_trip():
    pr = pr_box()
    data = box_to_json_dict(pr)
    assert data["scenario"] == {"dA": [2, 2], "dB": [2, 2]}
    assert len(data["table"]) == 16
    first = data["table"][0]
    assert first == {"x": 0, "y": 0, "a": 1, "b": 1, "p": "1/2"}  # outcomes 1-based
    assert all(cell["a"] >= 1 and cell["b"] >= 1 for cell in data["table"])
    again = box_from_json_dict(data)
    assert again == pr
    assert box_from_json(box_to_json(pr)) == pr


def test_wire_strictness():
    pr = pr_box()
    good = box_to_json_dict(pr)

    short = dict(good, table=good["table"][:-1])
    with pytest.raises(ValueError, match="incomplete"):
        box_from_json_dict(short)

    dup = dict(good, table=good["table"][:-1] + [good["table"][0]])
    with pytest.raises(ValueError, match="duplicate"):
        box_from_json_dict(dup)

    bad_p = dict(good, table=[dict(good["table"][0], p="0.5oops")] + good["table"][1:])
    with pytest.raises(ValueError):
        box_from_json_dict(bad_p)

    bad_coord = dict(good, table=[dict(good["table"][0], a=0)] + good["table"][1:])
    with pytest.raises(ValueError):
        box_from_json_dict(bad_coord)

    with pytest.raises(ValueError, match="not valid JSON"):
        box_from_json("{nope")
    with pytest.raises(ValueError):
        box_from_json_dict({"scenario": {"dA": [2, 2]}, "table": []})


def test_tampered_box_still_loads():
    # invalid tables must survive the wire so they can be diagnosed
    pr = pr_box()
    data = box_to_json_dict(pr)
    data["table"][0]["p"] = "-1/2"
    loaded = box_from_json_dict(data)
    assert not is_valid_box(loaded).ok


# ---------------------------------------------------------------------------
# randomized: mixtures of valid boxes stay valid


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9))
def test_vertex_mixtures_are_valid(i, j, num):
    s = Scenario.symmetric(2)
    weight = F(num, 10)
    first = nonlocal_vertex(s, (i % 2, (i // 2) % 2, i % 2))
    second = deterministic_box(s, ((j % 2), (j // 2) % 2), ((j // 4) % 2, j % 2))
    mix = JointBox(s, tuple(weight * p + (1 - weight) * q
                            for p, q in zip(first.table, second.table)))
    report = is_valid_box(mix)
    assert report.ok, report.violations
    assert not polytope_system(s).violations(mix)
