"""Scenario, box table, constraint-builder, and wire-format tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsbox import (
    INPUT_PAIRS,
    ConstraintSystem,
    JointBox,
    LinearCondition,
    Scenario,
    box_from_json,
    box_from_json_dict,
    box_to_json,
    box_to_json_dict,
    build_argument,
    build_normalization,
    build_nosignaling,
    build_positivity,
    deterministic_box,
    is_valid_box,
    nonlocal_vertex,
    ns_program,
    polytope_dimension,
    polytope_system,
    uniform_box,
)
from nsbox import boxes

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


BOOL_COORDINATES = {
    "coord_index input": (lambda box: box.scenario.coord_index(True, 0, 0, 0),
                          "^inputs must be 0 or 1, got x=True, y=0$"),
    "coord_index outcome": (lambda box: box.scenario.coord_index(0, 0, 0, False),
                            "^outcome b=False out of range"),
    "prob outcome": (lambda box: box.prob(0, 0, True, 0), "^outcome a=True out of range"),
    "block input": (lambda box: box.block(0, False), "^inputs must be 0 or 1, got x=0, y=False$"),
}


@pytest.mark.parametrize("case", sorted(BOOL_COORDINATES))
def test_bool_inputs_and_outcomes_are_refused(case):
    # True == 1 and False == 0, but a bool is no coordinate: each entry
    # point refuses it with its out-of-range message
    call, message = BOOL_COORDINATES[case]
    with pytest.raises(ValueError, match=message):
        call(uniform_box(Scenario.symmetric(2)))


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
    assert len(system.eq_rows()) == 4
    for (x, y), cond, (row, rhs) in zip(INPUT_PAIRS, system.conditions, system.eq_rows()):
        assert cond.relation == "eq" and cond.rhs == 1 and rhs == 1
        block = [s.coord_index(x, y, a, b) for a in range(2) for b in range(2)]
        assert cond.coeffs == tuple((i, 1) for i in block)
        assert row is cond.coeffs  # handed to the LP kernel as it is
    assert is_valid_box(uniform_box(Scenario.from_dims([2, 3, 4, 5]))).ok


def test_nosignaling_row_counts_all_dims_2():
    system = build_nosignaling(Scenario.symmetric(2))
    alice = [c for c in system.conditions if "P(a=" in c.label]
    bob = [c for c in system.conditions if "P(b=" in c.label]
    assert len(alice) == 4 and len(bob) == 4


def test_pr_box_satisfies_everything():
    pr = pr_box()
    assert not build_nosignaling(pr.scenario).violations(pr)
    with pytest.raises(ValueError, match="^box and constraint system live on different scenarios$"):
        build_nosignaling(Scenario.symmetric(3)).violations(pr)
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
    # one Alice marginal equality is broken, and the catalog states it once
    assert len(alice_rows) == 1
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


# ---------------------------------------------------------------------------
# marginals and dimension


def test_marginal_examples():
    # a marginal is a block sum: Alice's P(a | x) a row of block (x, 0),
    # Bob's P(b | y) a column of block (0, y)
    pr = pr_box()
    assert sum(pr.block(0, 0)[0]) == F(1, 2)
    s = pr.scenario
    det = deterministic_box(s, (0, 0), (0, 0))
    assert sum(det.block(0, 0)[0]) == 1
    assert sum(row[1] for row in det.block(0, 1)) == 0
    for d in (2, 3, 4):
        u = uniform_box(Scenario.symmetric(d))
        assert sum(u.block(0, 0)[0]) == F(1, d)


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


def test_each_distinct_probability_string_is_parsed_once(monkeypatch):
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse(text)

    parse = boxes.parse_rational
    monkeypatch.setattr(boxes, "parse_rational", counted)
    vertex = nonlocal_vertex(Scenario.symmetric(3), (2, 2, 1))
    data = box_to_json_dict(vertex)
    assert box_from_json_dict(data) == vertex
    assert sorted(parsed) == sorted({cell["p"] for cell in data["table"]}) == ["0/1", "1/3"]

    # spellings of one value are distinct strings; a bad string is reported at
    # its own entry even after good strings were parsed
    parsed.clear()
    data["table"][4]["p"] = " 0/1"
    assert box_from_json_dict(data) == vertex
    assert sorted(parsed) == [" 0/1", "0/1", "1/3"]
    data["table"][7]["p"] = "1/3x"
    with pytest.raises(ValueError, match="^box JSON: table entry 7: not a rational: '1/3x'$"):
        box_from_json_dict(data)


def test_huge_declared_scenario_is_refused_before_allocating():
    # 4 * 10**12 declared cells against one table entry: refused as
    # incomplete without building a table of the declared size
    data = {"scenario": {"dA": [10**6, 10**6], "dB": [10**6, 10**6]},
            "table": [{"x": 0, "y": 0, "a": 1, "b": 1, "p": "1"}]}
    with pytest.raises(ValueError, match="incomplete table"):
        box_from_json_dict(data)


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


# ---------------------------------------------------------------------------
# differential: the integer evaluation of the catalog against Fractions


def fraction_value(condition, box) -> Fraction:
    """A row's left-hand side, summed in Fractions on the table as it is."""
    total = F(0)
    for i, c in condition.coeffs:
        p = box.table[i]
        if p:
            total += c * p
    return total


def fraction_violations(conditions, box) -> list[str]:
    """The labels of the rows the box breaks, in order: the independent
    reference for ConstraintSystem.violations, which evaluates in ints."""
    broken = []
    for cond in conditions:
        v = fraction_value(cond, box)
        if not (v == cond.rhs if cond.relation == "eq" else v <= cond.rhs):
            broken.append(cond.label)
    return broken


# denominators small, prime, and far beyond a machine word, so that scaling
# the table to ints meets mixed and large lcms
DENOMINATORS = [1, 2, 3, 7, 12, 10**18 + 9, 2**61 - 1, 3**40]


@st.composite
def tampered_boxes(draw):
    """A mixture of two vertex boxes with a random weight, then up to four
    edits: a cell set to any value (often negative), mass added to a cell
    (unnormalized), or a share of a cell's mass moved to another cell of its
    block (signaling, still normalized)."""
    s = Scenario.from_dims(draw(st.tuples(*[st.integers(2, 5)] * 4)))
    d = s.min_outputs

    def vertex():
        if draw(st.booleans()):
            return nonlocal_vertex(s, draw(st.tuples(*[st.integers(0, d - 1)] * 3)))
        return deterministic_box(s, *(tuple(draw(st.integers(0, n - 1)) for n in counts)
                                      for counts in (s.alice, s.bob)))

    def rational(low):  # in [low, 1], its denominator a multiple of a drawn one
        den = draw(st.sampled_from(DENOMINATORS))
        return F(draw(st.integers(10 * low, 9)), 10) + F(draw(st.integers(0, 1)), 10 * den)

    weight = rational(0)
    table = [weight * p + (1 - weight) * q for p, q in zip(vertex().table, vertex().table)]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["set", "add", "move"]))
        i = draw(st.sampled_from([k for k, v in enumerate(table) if v > 0]))
        if edit == "set":
            table[i] = rational(-1)
        elif edit == "add":
            table[i] += rational(-1)
        else:
            x, y, _a, _b = list(s.coords())[i]
            j = s.coord_index(x, y, draw(st.integers(0, s.alice[x] - 1)),
                              draw(st.integers(0, s.bob[y] - 1)))
            q = rational(0) * table[i]  # a share of its mass: both cells stay >= 0
            table[i] -= q
            table[j] += q
    return JointBox(s, tuple(table))


@st.composite
def extra_rows(draw, box):
    """One more row over the box's coordinates: int coefficients on
    increasing indices, eq or le, its int rhs often at the row's value
    rounded either way, so that le rows meet their boundary."""
    indices = sorted(draw(st.sets(st.integers(0, box.scenario.num_coords - 1), max_size=6)))
    coeffs = tuple((i, draw(st.integers(-3, 3).filter(bool))) for i in indices)
    value = fraction_value(LinearCondition(coeffs, 0, "eq", ""), box)
    rhs = draw(st.sampled_from([math.floor(value), math.ceil(value), draw(st.integers(-3, 3))]))
    return LinearCondition(coeffs, rhs, draw(st.sampled_from(["eq", "le"])), "extra row")


@settings(max_examples=300, deadline=None)
@given(tampered_boxes(), st.data())
def test_validation_matches_constraint_rows(box, data):
    s = box.scenario
    expected = fraction_violations(polytope_system(s).conditions, box)
    report = is_valid_box(box)
    assert report.violations == tuple(expected)
    assert report.ok is not expected
    # the catalog has no le row with a nonzero rhs: one more row covers it
    system = ConstraintSystem(s, polytope_system(s).conditions + (data.draw(extra_rows(box)),))
    assert system.violations(box) == fraction_violations(system.conditions, box)


def test_linear_condition_refuses_a_relation_it_cannot_evaluate():
    # any relation but "eq" used to read as <= in violations, and eq_rows dropped it
    for relation in ("ge", "lt", "EQ", "", None):
        with pytest.raises(ValueError, match="relation must be 'eq' or 'le', got "):
            LinearCondition(((0, 1),), 1, relation, "P(0) >= 1")


def test_validation_report_is_kept_on_the_box():
    box = uniform_box(Scenario.from_dims([2, 3, 3, 2]))
    assert is_valid_box(box) is is_valid_box(box)
    assert box == JointBox(box.scenario, box.table)  # the kept report is not a field


def test_validation_labels_every_kind_of_violation():
    s = Scenario.from_dims([2, 3, 3, 2])
    table = list(uniform_box(s).table)
    table[s.coord_index(1, 0, 2, 0)] = F(-1, 9)  # negative, block (1, 0) unnormalized
    table[s.coord_index(0, 1, 1, 1)] += F(1, 2)  # mass moved within block (0, 1):
    table[s.coord_index(0, 1, 0, 0)] -= F(1, 2)  # negative and signaling, normalized
    box = JointBox(s, tuple(table))
    report = is_valid_box(box)
    assert report.violations == tuple(fraction_violations(polytope_system(s).conditions, box))
    assert report.violations[:3] == ("positivity: P(a=1, b=1 | x=0, y=1) >= 0",
                                     "positivity: P(a=3, b=1 | x=1, y=0) >= 0",
                                     "normalization: block (x=1, y=0) sums to 1")
    assert "no-signaling: P(a=1 | x=0) via y=0 equals via y=1" in report.violations
    assert "no-signaling: P(b=2 | y=1) via x=0 equals via x=1" in report.violations


# ---------------------------------------------------------------------------
# the polytope system is built once per scenario and shared


def test_polytope_system_is_shared_and_left_unchanged():
    s = Scenario.symmetric(4)
    system = polytope_system(s)
    assert polytope_system(Scenario.symmetric(4)) is system
    conditions, rows = system.conditions, len(system.eq_rows())
    assert system.eq_rows() is not system.eq_rows()  # ns_program appends to its copy
    for kind, p in (("conventional", 0), ("relaxed", 0), ("relaxed", F(1, 3))):
        program = ns_program(build_argument(kind, s, p)[0])
        assert len(program.eq_constraints) == rows + (3 if p == 0 else 2)
        assert polytope_system(s) is system
        assert system.conditions is conditions and len(system.eq_rows()) == rows


def test_block_rows_are_the_table_read_by_prob():
    s = Scenario.from_dims((2, 3, 4, 2))
    box = JointBox.from_function(s, lambda x, y, a, b: Fraction(1 + x + 2 * y + 3 * a + 5 * b, 97))
    for x, y in INPUT_PAIRS:
        assert box.block(x, y) == tuple(tuple(box.prob(x, y, a, b) for b in range(s.bob[y]))
                                        for a in range(s.alice[x]))
    for x, y in ((2, 0), (0, -1), (None, 1)):
        with pytest.raises(ValueError, match="inputs must be 0 or 1"):
            box.block(x, y)
