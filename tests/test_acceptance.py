"""Acceptance criteria, one test per criterion, exact-equality assertions.

Run with -v to get one pass/fail line per criterion; each test also prints an
explicit ACCEPTANCE line on success.
"""

import hashlib
import itertools
import time
from fractions import Fraction

from nsbox import (
    Scenario,
    attaining_nonlocal_vertex,
    best_satisfied_argument,
    build_argument,
    compute_pn,
    convex_decomposition,
    enumerate_vertices,
    evaluate_pp,
    exact_rank,
    is_valid_box,
    max_success_lhv,
    max_success_ns,
    nonlocal_vertex,
    polytope_dimension,
    uniform_box,
)
from nsbox.cli import main as cli_main

from padding import zero_padded

F = Fraction


def test_criterion_1_conventional_ns_optimum_is_half():
    scenarios = [
        (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (5, 5, 5, 5),  # symmetric
        (2, 3, 4, 5), (5, 4, 3, 2), (2, 5, 2, 5), (3, 2, 5, 4),  # asymmetric
    ]
    start = time.monotonic()
    for dims in scenarios:
        arg, _ = build_argument("conventional", Scenario.from_dims(dims))
        assert max_success_ns(arg).optimum == F(1, 2), dims
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: conventional no-signaling optimum exactly 1/2 "
          f"on all 8 scenarios ({elapsed:.2f}s)")


def test_criterion_2_relaxed_ns_optimum_is_m_minus_1_over_m():
    cases = [(d, d, d, d) for d in (2, 3, 4, 5, 6)]
    cases += [(3, 3, 5, 5), (2, 2, 5, 5), (4, 4, 6, 6)]
    start = time.monotonic()
    for dims in cases:
        m = min(dims)
        arg, _ = build_argument("relaxed", Scenario.from_dims(dims))
        assert max_success_ns(arg).optimum == F(m - 1, m), dims
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: relaxed no-signaling optimum exactly (m-1)/m "
          f"on all 8 scenarios ({elapsed:.2f}s)")


def test_criterion_3_local_realistic_nullity():
    for kind in ("conventional", "relaxed"):
        for d in (2, 3, 4):
            arg, _ = build_argument(kind, Scenario.symmetric(d))
            assert max_success_lhv(arg).optimum == 0, (kind, d)
    print("\nACCEPTANCE 3 PASS: local-realistic optimum exactly 0 for both kinds, "
          "d in {2,3,4}, by exhaustive enumeration")


def test_criterion_4_pr_box_anchors():
    pr = nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))
    found = best_satisfied_argument(pr, "conventional")
    assert found is not None
    arg, pp = found
    assert pp == F(1, 2)
    assert evaluate_pp(pr, arg) == F(1, 2)
    assert compute_pn(pr, arg).pn == 1
    print("\nACCEPTANCE 4 PASS: PR box PP = 1/2 and PN = 1 exactly "
          "(conventional argument under the satisfying relabeling)")


def test_criterion_5_vertex_attainment():
    for d in (2, 3, 4, 5, 6):
        s = Scenario.symmetric(d)
        arg, _ = build_argument("relaxed", s)
        _label, box, pp = attaining_nonlocal_vertex(arg)
        assert pp == F(d - 1, d), d
        assert max_success_ns(arg).optimum == pp, d
    print("\nACCEPTANCE 5 PASS: a nonlocal vertex attains PP = (d-1)/d = LP optimum "
          "for every d in {2..6}")


def test_criterion_6_ppc_trend():
    ppc_values = []
    for d in (2, 3, 4, 5, 6):
        s = Scenario.symmetric(d)
        arg, _ = build_argument("relaxed", s)
        _label, box, pp = attaining_nonlocal_vertex(arg)
        result = compute_pn(box, arg, exhaustive_perms=(d <= 4))
        assert result.pn == 1, d
        ppc_values.append(result.pn - pp)
        assert ppc_values[-1] == F(1, d), d
    assert all(a > b for a, b in zip(ppc_values, ppc_values[1:]))  # strictly decreasing
    print("\nACCEPTANCE 6 PASS: attaining-vertex PN = 1 and PPC = 1/d strictly "
          "decreasing over d in {2..6} (exhaustive search at d <= 4)")


def test_criterion_7_polytope_geometry():
    assert polytope_dimension(Scenario.symmetric(2)) == 8
    assert polytope_dimension(Scenario.symmetric(3)) == 24

    s = Scenario.symmetric(2)
    everything = enumerate_vertices(s, "all")
    boxes = [box for _lab, box in everything]
    assert len(boxes) == 24
    anchor = boxes[0].table
    diffs = [[p - q for p, q in zip(box.table, anchor)] for box in boxes[1:]]
    assert exact_rank(diffs) == 8

    for k in range(16, 24):
        others = [box for i, box in enumerate(boxes) if i != k]
        assert convex_decomposition(boxes[k], others) is None, everything[k][0]
    print("\nACCEPTANCE 7 PASS: dimensions 8 and 24, d=2 vertex affine rank 8, "
          "all 8 nonlocal d=2 vertices extremal")


def test_criterion_8_every_generated_box_is_valid():
    checked = 0
    for d in (2, 3):
        s = Scenario.symmetric(d)
        for _label, box in enumerate_vertices(s, "all"):
            assert is_valid_box(box).ok
            checked += 1
    for label in itertools.product(range(4), repeat=3):
        assert is_valid_box(nonlocal_vertex(Scenario.symmetric(4), label)).ok
        checked += 1
    for dims in ((2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 5, 5)):
        s = Scenario.from_dims(dims)
        assert is_valid_box(uniform_box(s)).ok
        for kind in ("conventional", "relaxed"):
            arg, _ = build_argument(kind, s)
            assert is_valid_box(max_success_ns(arg).witness).ok
            assert is_valid_box(max_success_lhv(arg).witness).ok
            checked += 3
    pr = nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))
    assert is_valid_box(zero_padded(pr, Scenario.symmetric(4))).ok
    checked += 1
    print(f"\nACCEPTANCE 8 PASS: {checked} generated boxes all satisfy positivity, "
          "normalization, and no-signaling exactly")


SWEEP_2_10_SHA256 = "9101e0f536b7aea6293cdc138cc9eeb8ebc7c2b0a59263a0c90c949b1810b779"


def test_criterion_9_sweep_is_byte_deterministic(tmp_path):
    first = tmp_path / "sweep1.csv"
    second = tmp_path / "sweep2.csv"
    assert cli_main(["sweep", "--d-min", "2", "--d-max", "10", "--out", str(first)]) == 0
    assert cli_main(["sweep", "--d-min", "2", "--d-max", "10", "--out", str(second)]) == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    # recorded from the Fraction simplex tableau; equal to the stdout's sha256
    assert hashlib.sha256(blob).hexdigest() == SWEEP_2_10_SHA256
    lines = blob.decode("ascii").strip().split("\n")
    assert len(lines) == 10  # header + d = 2..10
    assert lines[1].startswith("2,1/2,1/2,1/2,")
    assert lines[5].startswith("6,1/2,5/6,1/6,")
    assert lines[9].startswith("10,1/2,9/10,1/10,")
    print("\nACCEPTANCE 9 PASS: sweep --d-min 2 --d-max 10 byte-identical across runs and to its "
          "recorded sha256")
