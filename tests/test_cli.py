"""End-to-end command-line tests (in-process, via main's argv parameter)."""

import argparse
import ast
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
import types
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

import nsbox
from nsbox import (JointBox, Scenario, box_to_json, boxes, cli, deterministic_box, hardy,
                   nonlocal_vertex)
from nsbox.cli import main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pr(tmp_path):
    path = tmp_path / "pr.json"
    path.write_text(box_to_json(nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))))
    return str(path)


# ---------------------------------------------------------------------------
# optimize


def test_optimize_relaxed_ns(capsys):
    code, out, _ = run(capsys, "optimize", "--kind", "relaxed", "--dims", "3,3,3,3", "--regime", "ns")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == "2/3"
    assert payload["regime"] == "no-signaling"
    assert payload["argument"]["kind"] == "relaxed"
    assert payload["witness"]["scenario"] == {"dA": [3, 3], "dB": [3, 3]}


def test_optimize_conventional_lhv(capsys):
    code, out, _ = run(capsys, "optimize", "--kind", "conventional", "--dims", "2,2,2,2",
                       "--regime", "lhv")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == "0/1"
    assert payload["regime"] == "local-realistic"


def test_optimize_relaxed_d2_ns(capsys):
    code, out, _ = run(capsys, "optimize", "--kind", "relaxed", "--dims", "2,2,2,2")
    assert code == 0
    assert json.loads(out)["optimum"] == "1/2"


def test_optimize_with_bound(capsys):
    code, out, _ = run(capsys, "optimize", "--kind", "relaxed", "--dims", "3,3,3,3",
                       "--p", "1/10")
    assert code == 0
    payload = json.loads(out)
    assert payload["argument"]["p"] == "1/10"
    assert F(*map(int, payload["optimum"].split("/"))) >= F(2, 3)


# stdout sha256 of `nsbox optimize --kind K --dims d,d,d,d`, recorded from the
# dense-tableau solver before the presolve and sparse pivots: the witness box
# is the vertex Bland's rule reaches, so these pin the pivot path as well.
GOLDEN_OPTIMIZE = [
    ("conventional", 2, "e86740029d0eba7f201f1383ce2791b592087584d0d46f4585fd83457a57c470"),
    ("conventional", 3, "4282de644469a13bdef92680e5a3696dea925fca64d3e89b54be6a32cf66bd5b"),
    ("conventional", 4, "f5e9c627fc000e1d3930d56c53c8b1640c66f216b8f10e583a478cb41ea5ac49"),
    ("conventional", 5, "0ce5f780dcff427eb158adc1fae74e848e63f10fe1b918ab5c8a3df85e9d7c05"),
    ("relaxed", 2, "82cf65b0ab91e99f3e413e7311839ac76a9db952e24543a2055fe1b32aefcaa1"),
    ("relaxed", 3, "e6541ce79d9f6597403ddcc2a13b1b35f42c0b9f31115d385c4521135559181d"),
    ("relaxed", 4, "2ff815b438c0ded7edef5e7ec415ef95b5406e98c3dea4008561b8fc3dc4fad7"),
    ("relaxed", 5, "7cc7de160025fbec5692b51f9f523ffb43f1d1ede4ee649c46708cb866d60a74"),
]


@pytest.mark.parametrize("kind,d,digest", GOLDEN_OPTIMIZE)
def test_optimize_output_is_byte_identical_to_golden(capsys, kind, d, digest):
    code, out, _ = run(capsys, "optimize", "--kind", kind, "--dims", f"{d},{d},{d},{d}")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_optimize_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["optimize", "--kind", "weird", "--dims", "2,2,2,2"])
    assert info.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as info:
        main(["optimize", "--kind", "relaxed", "--dims", "2,2"])
    assert info.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as info:
        main(["optimize", "--kind", "relaxed", "--dims", "2,2,2,2", "--p", "abc"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --p: bad --p 'abc': not a rational: 'abc'\n")

    # semantically bad combination: conventional kind with a bound
    code, _, err = run(capsys, "optimize", "--kind", "conventional", "--dims", "2,2,2,2",
                       "--p", "1/10")
    assert code == 2
    assert "error" in err


# strings outside the "num/den" (or integer) form: Fraction would compute
# 10**100000000 for the last one before answering
NOT_RATIONAL_TEXT = ["1e-3", "0.5", "1_000", "1e-100000000"]


@pytest.mark.parametrize("text", NOT_RATIONAL_TEXT)
def test_rational_strings_outside_num_den_are_refused(capsys, tmp_path, text):
    with pytest.raises(SystemExit) as info:
        main(["optimize", "--kind", "relaxed", "--dims", "2,2,2,2", "--p", text])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --p: bad --p {text!r}: not a rational: {text!r}\n")
    path = Path(write_pr(tmp_path))
    data = json.loads(path.read_text())
    data["table"][0]["p"] = text
    path.write_text(json.dumps(data))
    assert run(capsys, "verify", str(path), "--kind", "relaxed") == (
        1, "", f"error: box JSON: table entry 0: not a rational: {text!r}\n")


def test_optimize_lhv_over_strategy_budget_exits_2(capsys, monkeypatch):
    def enumeration_started(scenario):
        raise AssertionError("the oversized enumeration started")

    monkeypatch.setattr(hardy, "deterministic_strategies", enumeration_started)
    code, out, err = run(capsys, "optimize", "--kind", "conventional", "--regime", "lhv",
                         "--dims", "200,200,200,200")
    assert (code, out) == (2, "")
    assert err == ("error: the local-realistic optimum needs 1600000000 deterministic "
                   "strategies, over the budget of 1000000\n")


# ---------------------------------------------------------------------------
# vertices


def test_vertices_counts(capsys):
    code, out, _ = run(capsys, "vertices", "--dims", "2,2,2,2", "--kind", "nonlocal")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert first["kind"] == "nonlocal" and first["label"] == [0, 0, 0]
    assert first["box"]["table"][0] == {"x": 0, "y": 0, "a": 1, "b": 1, "p": "1/2"}

    code, out, _ = run(capsys, "vertices", "--dims", "2,2,2,2", "--kind", "local")
    assert len(out.strip().splitlines()) == 16

    code, out, _ = run(capsys, "vertices", "--dims", "3,3,3,3", "--kind", "nonlocal")
    assert len(out.strip().splitlines()) == 27

    code, out, _ = run(capsys, "vertices", "--dims", "2,2,2,2", "--kind", "all")
    assert len(out.strip().splitlines()) == 24


# ---------------------------------------------------------------------------
# verify


def test_verify_pr_conventional(capsys, tmp_path):
    path = write_pr(tmp_path)
    code, out, _ = run(capsys, "verify", path, "--kind", "conventional")
    assert code == 0
    assert "valid: yes" in out
    assert "pp: 1/2" in out
    assert "pn: 1/1" in out
    assert "ppc: 1/2" in out


def test_verify_tampered_box(capsys, tmp_path):
    box = nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))
    data = json.loads(box_to_json(box))
    data["table"][0]["p"] = "-1/2"  # was 1/2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path), "--kind", "conventional")
    assert code == 1
    assert "valid: no" in out
    assert "positivity: P(a=1, b=1 | x=0, y=0) >= 0" in out


def test_verify_prints_one_line_per_broken_nosignaling_equality(capsys, tmp_path):
    # 1/8 moved from cell (a=2, b=2) to (a=1, b=1) of the PR box's block (0, 0)
    # keeps it normalized and positive, but breaks both of Alice's x = 0
    # marginal equalities and both of Bob's y = 0 ones
    box = nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))
    data = json.loads(box_to_json(box))
    data["table"][0]["p"] = "5/8"  # (x=0, y=0, a=1, b=1), was 1/2
    data["table"][3]["p"] = "3/8"  # (x=0, y=0, a=2, b=2), was 1/2
    path = tmp_path / "signaling.json"
    path.write_text(json.dumps(data))
    expected = ["violated: no-signaling: P(a=1 | x=0) via y=0 equals via y=1",
                "violated: no-signaling: P(a=2 | x=0) via y=0 equals via y=1",
                "violated: no-signaling: P(b=1 | y=0) via x=0 equals via x=1",
                "violated: no-signaling: P(b=2 | y=0) via x=0 equals via x=1"]
    code, out, _ = run(capsys, "verify", str(path), "--kind", "conventional")
    assert code == 1
    assert out.splitlines() == ["valid: no"] + expected
    code, out, err = run(capsys, "pn", str(path), "--kind", "conventional")
    assert code == 1 and out == ""
    assert err.splitlines() == expected


# every violation kind at once: the dims (2, 3, 3, 2) uniform box with one
# cell set to -1/9 (negative, its block unnormalized) and 1/2 moved within
# block (0, 1) (a negative cell, signaling)
GOLDEN_INVALID_BOX_VIOLATIONS = """\
violated: positivity: P(a=1, b=1 | x=0, y=1) >= 0
violated: positivity: P(a=3, b=1 | x=1, y=0) >= 0
violated: normalization: block (x=1, y=0) sums to 1
violated: no-signaling: P(a=1 | x=0) via y=0 equals via y=1
violated: no-signaling: P(a=2 | x=0) via y=0 equals via y=1
violated: no-signaling: P(a=3 | x=1) via y=0 equals via y=1
violated: no-signaling: P(b=1 | y=0) via x=0 equals via x=1
violated: no-signaling: P(b=1 | y=1) via x=0 equals via x=1
violated: no-signaling: P(b=2 | y=1) via x=0 equals via x=1
"""


def test_invalid_box_output_is_byte_identical_to_golden(capsys, tmp_path):
    s = Scenario.from_dims([2, 3, 3, 2])
    table = list(nsbox.uniform_box(s).table)
    table[s.coord_index(1, 0, 2, 0)] = F(-1, 9)
    table[s.coord_index(0, 1, 1, 1)] += F(1, 2)
    table[s.coord_index(0, 1, 0, 0)] -= F(1, 2)
    path = tmp_path / "invalid.json"
    path.write_text(box_to_json(JointBox(s, tuple(table))))
    assert run(capsys, "verify", str(path), "--kind", "relaxed") == (
        1, "valid: no\n" + GOLDEN_INVALID_BOX_VIOLATIONS, "")
    assert run(capsys, "pn", str(path), "--kind", "relaxed") == (
        1, "", GOLDEN_INVALID_BOX_VIOLATIONS)


def test_verify_d3_vertex_relaxed(capsys, tmp_path):
    box = nonlocal_vertex(Scenario.symmetric(3), (2, 2, 1))
    path = tmp_path / "vertex.json"
    path.write_text(box_to_json(box))
    code, out, _ = run(capsys, "verify", str(path), "--kind", "relaxed")
    assert code == 0
    assert "pp: 2/3" in out
    assert "pn: 1/1" in out
    assert "ppc: 1/3" in out


def test_verify_unsatisfied_box(capsys, tmp_path):
    from nsbox import Scenario as S, box_to_json as enc, uniform_box
    path = tmp_path / "uniform.json"
    path.write_text(enc(uniform_box(S.symmetric(2))))
    code, out, _ = run(capsys, "verify", str(path), "--kind", "conventional")
    assert code == 0
    assert "valid: yes" in out
    assert "not satisfied" in out


def test_verify_missing_and_malformed_files(capsys, tmp_path):
    for command in ("verify", "pn"):
        code, out, err = run(capsys, command, str(tmp_path / "nope.json"), "--kind", "relaxed")
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory:") and err.count("\n") == 1

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path), "--kind", "relaxed")
    assert code == 1 and "error" in err

    good = json.loads(box_to_json(nonlocal_vertex(Scenario.symmetric(2), (0, 0, 0))))
    cell, rest = good["table"][0], good["table"][1:]
    refusals = [
        ([], "expected an object, got list"),
        ({"scenario": 3, "table": []}, "'scenario' must be an object with 'dA' and 'dB'"),
        ({"scenario": {"dA": [1, 2], "dB": [2, 2]}, "table": []},
         "bad scenario: alice outcome count must be an integer >= 2, got 1"),
        (dict(good, table={}), "'table' must be a list of cell objects"),
        (dict(good, table=[5] + rest), "table entry 0 is not an object"),
        (dict(good, table=[{"x": 0}] + rest), "table entry 0 lacks keys ['y', 'a', 'b', 'p']"),
        (dict(good, table=[dict(cell, a="1")] + rest), "table entry 0 has non-integer coordinates"),
    ]
    for data, message in refusals:
        path.write_text(json.dumps(data))
        assert run(capsys, "verify", str(path), "--kind", "relaxed") == (
            1, "", f"error: box JSON: {message}\n")


def test_verify_refuses_huge_declared_scenario(capsys, tmp_path):
    # 4 * 10**12 declared cells, one given: a clean error, not a MemoryError
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "scenario": {"dA": [10**6, 10**6], "dB": [10**6, 10**6]},
        "table": [{"x": 0, "y": 0, "a": 1, "b": 1, "p": "1"}]}))
    code, out, err = run(capsys, "verify", str(path), "--kind", "relaxed")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "incomplete table" in err


# ---------------------------------------------------------------------------
# pn


def test_pn_subcommand_pr(capsys, tmp_path):
    path = write_pr(tmp_path)
    code, out, _ = run(capsys, "pn", path, "--kind", "conventional")
    assert code == 0
    payload = json.loads(out)
    assert payload["pp"] == "1/2"
    assert payload["pn"] == "1/1"
    assert payload["ppc"] == "1/2"
    assert len(payload["family"]) == 2
    perms = {json.dumps(member["relabeling"]) for member in payload["family"]}
    assert len(perms) == 2  # genuinely different relabelings


def test_pn_subcommand_unsatisfied(capsys, tmp_path):
    from nsbox import Scenario as S, box_to_json as enc, uniform_box
    path = tmp_path / "uniform.json"
    path.write_text(enc(uniform_box(S.symmetric(2))))
    code, _, err = run(capsys, "pn", str(path), "--kind", "relaxed")
    assert code == 1 and "no satisfied" in err


def write_relabeled_vertex(tmp_path, d):
    """The attaining relaxed vertex (d-1, d-1, 1) under fixed outcome
    permutations; for d >= 4 some of them are neither shifts nor reversals."""
    vertex = nonlocal_vertex(Scenario.symmetric(d), (d - 1, d - 1, 1))
    pa = ((1, 0) + tuple(range(2, d)), tuple(range(1, d)) + (0,))
    pb = (tuple(range(d - 1, -1, -1)), (0,) + tuple(range(2, d)) + (1,))
    box = JointBox.from_function(
        vertex.scenario, lambda x, y, a, b: vertex.prob(x, y, pa[x][a], pb[y][b]))
    path = tmp_path / f"vertex{d}.json"
    path.write_text(box_to_json(box))
    return str(path)


# stdout sha256 of `nsbox pn --kind relaxed --exhaustive-perms` on the files
# above, recorded from the full (n!)^2 permutation-pair enumeration that the
# depth-first relabeling search replaced
GOLDEN_PN_EXHAUSTIVE = [
    (3, "183bb1e8934d0e959619750b57b4d2837f676c9098d9b614f549a3fbe7769cf3"),
    (4, "b1dd985718d5ac2aad60496490d02aeeb4f4fe5ef11ec22b00ded2ff53cfe7e6"),
    (5, "a9535e674447ec4e827ff669bca2717a25f6be4e94531a41b0e2e1a4f286aa91"),
]


@pytest.mark.parametrize("d,digest", GOLDEN_PN_EXHAUSTIVE)
def test_pn_exhaustive_output_is_byte_identical_to_golden(capsys, tmp_path, d, digest):
    path = write_relabeled_vertex(tmp_path, d)
    code, out, _ = run(capsys, "pn", path, "--kind", "relaxed", "--exhaustive-perms")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# stdout sha256 of `nsbox pn --kind conventional [--exhaustive-perms]` on the
# same files, recorded while the packing still took Fraction masses. The
# conventional success set is one cell, so many chains share it and the
# printed family pins which of them the packing keeps: the first one found
GOLDEN_PN_CONVENTIONAL = [
    (3, (), "dbc9707c997f1cc6ef45c36a8de0bc80e814e95ec38cc492ad09ca47f9ef23c9"),
    (3, ("--exhaustive-perms",), "c27f77a0f88e729dc1be05d6660f8a6154e9ff97578d27d40d0baa7d070cb3ce"),
    (4, (), "7446537af27f77b1aac830e53156e1384ae8f092c3d41c944bd5c3a0dbe30734"),
    (4, ("--exhaustive-perms",), "d54fe7cbda1a74834f296f092ce2c9660fc0a9cace90269cefe26164bd6829e3"),
]


@pytest.mark.parametrize("d,flags,digest", GOLDEN_PN_CONVENTIONAL)
def test_pn_conventional_output_is_byte_identical_to_golden(capsys, tmp_path, d, flags, digest):
    path = write_relabeled_vertex(tmp_path, d)
    code, out, _ = run(capsys, "pn", path, "--kind", "conventional", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# stdout sha256 of `nsbox verify --kind relaxed --exhaustive-perms` on the same
# files, recorded when each command still ran the relabeling search twice
GOLDEN_VERIFY_EXHAUSTIVE = [
    (3, "05dd533bb6d6044539e8fe15e40910fb19d1aa1467b2baa007f01c382d133764"),
    (4, "ea075ef21d26877947f8623d909a98e97efabf519b45659c36a1b2ba9a79edab"),
    (5, "588fb6a7f62aa66299f477b6aabf2c1153d23d94ba6ddaf240d07418465ab79a"),
]


@pytest.mark.parametrize("d,digest", GOLDEN_VERIFY_EXHAUSTIVE)
def test_verify_exhaustive_output_is_byte_identical_to_golden(capsys, tmp_path, d, digest):
    path = write_relabeled_vertex(tmp_path, d)
    code, out, _ = run(capsys, "verify", path, "--kind", "relaxed", "--exhaustive-perms")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# stdout of `nsbox verify --kind K --exhaustive-perms` on the all-zero
# deterministic box at d = 6 (every argument's success mass is 0 there),
# recorded from the search that joined every one of its 302,400 satisfied
# chains (38 s for the relaxed kind and 165 s for the conventional one)
GOLDEN_VERIFY_ZERO_BOX_D6 = {
    "relaxed": (
        'valid: yes\nkind: relaxed\npp: 0/1\npn: 0/1\nppc: 0/1\n'
        'relabeling: {"alice_input_swap": false, "bob_input_swap": false, '
        '"alice_outcome_perms": [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]], '
        '"bob_outcome_perms": [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]]}\n'),
    "conventional": (
        'valid: yes\nkind: conventional\npp: 0/1\npn: 0/1\nppc: 0/1\n'
        'relabeling: {"alice_input_swap": false, "bob_input_swap": false, '
        '"alice_outcome_perms": [[1, 2, 3, 4, 5, 6], [2, 1, 3, 4, 5, 6]], '
        '"bob_outcome_perms": [[1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]]}\n'),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_VERIFY_ZERO_BOX_D6))
def test_verify_exhaustive_on_the_zero_box_is_golden(capsys, tmp_path, kind):
    path = tmp_path / "zero6.json"
    path.write_text(box_to_json(deterministic_box(Scenario.symmetric(6), (0, 0), (0, 0))))
    code, out, _ = run(capsys, "verify", str(path), "--kind", kind, "--exhaustive-perms")
    assert code == 0
    assert out == GOLDEN_VERIFY_ZERO_BOX_D6[kind]


# stdout sha256 of `nsbox optimize --kind relaxed --dims d,d,d,d --p 1/10`,
# recorded while the bound was still a special case of the third condition
GOLDEN_OPTIMIZE_BOUNDED = [
    (2, "8694ed9e786d08b0d734824201c69a1c7aa3b9376815c4e0f5f244dcf334c039"),
    (3, "84f1c85cd40e4663bd89c1dbfb7262f3e4ce7c865086274f1552d63d0032d22b"),
    (4, "5c9f9a99d572e1777957e0ebead995a6a9f3998a880f2068f0c714e9a32bbdeb"),
    (5, "8a7135e2dbcb78b1cce95a0e46470d6a8ba5af576d25d0f0d44809534560ca1f"),
]


@pytest.mark.parametrize("d,digest", GOLDEN_OPTIMIZE_BOUNDED)
def test_bounded_optimize_output_is_byte_identical_to_golden(capsys, d, digest):
    code, out, _ = run(capsys, "optimize", "--kind", "relaxed", "--dims", f"{d},{d},{d},{d}",
                       "--p", "1/10")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def write_vertex_mixture(tmp_path, first, second, weight):
    """weight * V(first) + (1 - weight) * V(second), two congruence vertices
    at three outcomes."""
    scenario = Scenario.symmetric(3)
    v, u = nonlocal_vertex(scenario, first), nonlocal_vertex(scenario, second)
    box = JointBox.from_function(
        scenario, lambda x, y, a, b: weight * v.prob(x, y, a, b) + (1 - weight) * u.prob(x, y, a, b))
    path = tmp_path / "mixture.json"
    path.write_text(box_to_json(box))
    return str(path)


# stdout sha256 of `nsbox CMD --kind relaxed --p 1/3 --exhaustive-perms` on
# 3/4 V(0,0,0) + 1/4 V(2,0,1): no argument holds at p = 0, and both PN family
# members put positive mass (1/6 and 1/12) on the bounded condition
GOLDEN_BOUNDED_SEARCH = {
    "pn": "80831536194f817226e8221d74e2a063beb93674f7e873d83fa08809addc8bf2",
    "verify": "c5e81f9a9c3c44bce54379e0cfbb264ed5ba42ffc72aee20f799a05474ca20fa",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_BOUNDED_SEARCH))
def test_bounded_search_output_is_byte_identical_to_golden(capsys, tmp_path, command):
    path = write_vertex_mixture(tmp_path, (0, 0, 0), (2, 0, 1), F(3, 4))
    code, out, _ = run(capsys, command, path, "--kind", "relaxed", "--p", "1/3",
                       "--exhaustive-perms")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_BOUNDED_SEARCH[command]
    box = boxes.box_from_json(Path(path).read_text())
    family = hardy.best_argument_with_pn(box, "relaxed", F(1, 3), True)[2].family
    bounded = [sum(box.prob(*e) for e in hardy.argument_events(member).zeros[2])
               for member in family]
    assert bounded == [F(1, 6), F(1, 12)]


def test_verify_reports_an_exceeded_bound_as_golden(capsys, tmp_path):
    # 1/2 V(0,2,0) + 1/2 V(2,2,1): no relabeling holds at p = 1/10, and the
    # identity argument fails only its bounded condition
    path = write_vertex_mixture(tmp_path, (0, 2, 0), (2, 2, 1), F(1, 2))
    code, out, _ = run(capsys, "verify", path, "--kind", "relaxed", "--p", "1/10")
    assert code == 0
    assert out.endswith("pp: not satisfied (bounded condition exceeds its bound: "
                        "mass 1/6 > 1/10)\n")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "6eece49bb76df05d70624dd34a3bdda1c38b432bc4a2316fc27d91ef02100332")


@pytest.mark.parametrize("command", ["pn", "verify"])
def test_one_relabeling_search_per_command(capsys, tmp_path, monkeypatch, command):
    calls = []
    search = hardy._success_candidates

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return search(*args, **kwargs)

    monkeypatch.setattr(hardy, "_success_candidates", counted)
    for argv in ((write_relabeled_vertex(tmp_path, 4), "--exhaustive-perms"), (write_pr(tmp_path),)):
        calls.clear()
        code, _, _ = run(capsys, command, argv[0], "--kind", "relaxed", *argv[1:])
        assert code == 0
        assert len(calls) == 1, calls


@pytest.mark.parametrize("command", ["pn", "verify"])
def test_one_box_validation_per_command(capsys, tmp_path, monkeypatch, command):
    # each ValidationReport is one pass over the box's table
    reports = []
    report = boxes.ValidationReport

    def counted(*args):
        reports.append(args)
        return report(*args)

    monkeypatch.setattr(boxes, "ValidationReport", counted)
    for argv in ((write_relabeled_vertex(tmp_path, 4), "--exhaustive-perms"), (write_pr(tmp_path),)):
        reports.clear()
        code, _, _ = run(capsys, command, argv[0], "--kind", "relaxed", *argv[1:])
        assert code == 0
        assert len(reports) == 1, reports


def test_search_reads_blocks_not_coordinates(capsys, tmp_path, monkeypatch):
    # the relabeling search reads whole blocks as slices of the table; no
    # coordinate it reads goes through Scenario.coord_index, only the offset
    # that JointBox.block looks up once per block
    path = write_relabeled_vertex(tmp_path, 5)
    from_search = []
    coord_index = Scenario.coord_index

    def counted(self, *args):
        frame = sys._getframe(1)
        if frame.f_code is JointBox.block.__code__:
            return coord_index(self, *args)
        while frame is not None and frame.f_globals.get("__name__") != "nsbox.hardy":
            frame = frame.f_back
        if frame is not None:
            from_search.append(args)
        return coord_index(self, *args)

    monkeypatch.setattr(Scenario, "coord_index", counted)
    code, out, _ = run(capsys, "pn", path, "--kind", "relaxed", "--exhaustive-perms")
    assert code == 0 and json.loads(out)["pn"] == "1/1"
    assert from_search == []


def test_parser_is_shared_without_leaking_state(capsys, tmp_path):
    # in one process, each command prints what a fresh nsbox process prints
    path = write_relabeled_vertex(tmp_path, 4)
    commands = (["pn", path, "--kind", "relaxed", "--exhaustive-perms"],
                ["verify", path, "--kind", "relaxed"],
                ["pn", path, "--kind", "relaxed"])
    src = str(Path(nsbox.__file__).resolve().parents[1])
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "nsbox.cli", *argv], capture_output=True,
                               text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert cli._build_parser() is cli._build_parser()


def test_families_and_tries_are_built_once_per_outcome_count(capsys, tmp_path):
    hardy._perm_family.cache_clear()
    hardy._prefix_trie.cache_clear()
    path = write_relabeled_vertex(tmp_path, 4)
    for _ in range(2):
        assert run(capsys, "pn", path, "--kind", "relaxed", "--exhaustive-perms")[0] == 0
    # one (4 outcomes, every permutation) family for both commands; at p = 0
    # every condition is set algebra over the family, so no trie is built
    assert hardy._perm_family.cache_info().misses == 1
    assert hardy._prefix_trie.cache_info().misses == 0
    for _ in range(2):
        relaxed = run(capsys, "pn", path, "--kind", "relaxed", "--p", "1/3", "--exhaustive-perms")
        assert relaxed[0] == 0
    # the bounded condition searches that family's one trie
    assert hardy._perm_family.cache_info().misses == 1
    assert hardy._prefix_trie.cache_info().misses == 1
    vertex = tmp_path / "identity4.json"
    vertex.write_text(box_to_json(nonlocal_vertex(Scenario.symmetric(4), (3, 3, 1))))
    assert run(capsys, "pn", str(vertex), "--kind", "relaxed")[0] == 0
    assert hardy._perm_family.cache_info().misses == 2  # shifts and reversals of 4
    assert hardy._prefix_trie.cache_info().misses == 1
    for _ in range(2):
        assert run(capsys, "pn", str(vertex), "--kind", "relaxed", "--p", "1/3")[0] == 0
    assert hardy._perm_family.cache_info().misses == 2
    assert hardy._prefix_trie.cache_info().misses == 2


@pytest.mark.parametrize("command", ["pn", "verify"])
@pytest.mark.parametrize("kind,p", [("conventional", "1/2"), ("relaxed", "3/2")])
def test_bad_p_exits_2(capsys, tmp_path, command, kind, p):
    code, _, err = run(capsys, command, write_pr(tmp_path), "--kind", kind, "--p", p)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("command", ["pn", "verify"])
def test_exhaustive_search_over_budget_exits_2(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setattr(hardy, "MAX_PERMUTATION_FAMILY", 100)  # below 5! = 120
    path = tmp_path / "vertex5.json"
    path.write_text(box_to_json(nonlocal_vertex(Scenario.symmetric(5), (4, 4, 1))))
    code, _, err = run(capsys, command, str(path), "--kind", "relaxed", "--exhaustive-perms")
    assert code == 2
    assert err == ("error: the relabeling search over 5 outcomes needs a family of 120 "
                   "permutations per input, over the budget of 100\n")
    # the default family (10 shifts and reversals) stays within the budget
    code, _, _ = run(capsys, command, str(path), "--kind", "relaxed")
    assert code == 0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small_range(capsys):
    code, out, _ = run(capsys, "sweep", "--d-min", "2", "--d-max", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("d,q_H_gnst,q_RH_gnst,PPC_gnst,"
                        "q_H_gnst_dec,q_RH_gnst_dec,PPC_gnst_dec,quantum_ref")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "4"]
    assert [r[1] for r in rows] == ["1/2", "1/2", "1/2"]
    assert [r[2] for r in rows] == ["1/2", "2/3", "3/4"]
    assert [r[3] for r in rows] == ["1/2", "1/3", "1/4"]
    assert rows[0][7] != "" and rows[1][7] == "" and rows[2][7] == ""
    assert rows[0][7].startswith("0.0901699437")


def test_decimal_rounds_like_twelve_digit_g_format():
    # exact integer rounding prints what formatting the nearest float printed
    rng = random.Random(12)
    cases = [F(0), F(1), F(-3, 7), F(1, 8), F(10**12), F(10**12 - 1), F(999999999999, 10**17),
             F(1, 10**5), F(123456789, 10**4), hardy.HARDY_QUANTUM_OPTIMUM,
             F(9999999999999, 10**13), F(1999999999999, 2)]  # both round up a digit
    for _ in range(3000):
        k = rng.choice([10, 1000, 10**6, 10**13, 10**20])
        cases.append(F(rng.randint(-k, k), rng.randint(1, k)))
        cases.append(F(rng.randint(1, 10**6), 10**rng.randint(0, 20)))
    for q in cases:
        assert cli._decimal(q) == f"{q.numerator / q.denominator:.12g}", q


def test_sweep_writes_file_deterministically(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(capsys, "sweep", "--d-min", "2", "--d-max", "3", "--out", str(out1))[0] == 0
    assert run(capsys, "sweep", "--d-min", "2", "--d-max", "3", "--out", str(out2))[0] == 0
    blob1 = out1.read_bytes()
    assert blob1 == out2.read_bytes()
    assert blob1.endswith(b"\n") and b"\r" not in blob1  # LF endings only


def test_sweep_range_guards(capsys):
    code, _, err = run(capsys, "sweep", "--d-min", "1", "--d-max", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "sweep", "--d-min", "4", "--d-max", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "sweep", "--d-min", "2", "--d-max", "20")
    assert code == 2 and "error" in err


def test_sweep_cap_is_fixed(capsys):
    code, out, err = run(capsys, "sweep", "--d-min", "2", "--d-max", "17")
    assert (code, out) == (2, "")
    assert err == "error: need 2 <= d-min <= d-max <= cap (16), got d-min=2, d-max=17\n"
    # the cap is not a flag: argparse rejects --cap before any sweep runs
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--d-min", "2", "--d-max", "17", "--cap", "20"])
    assert info.value.code == 2
    assert "unrecognized arguments: --cap 20" in capsys.readouterr().err


def test_sweep_unwritable_path(capsys):
    code, _, err = run(capsys, "sweep", "--d-min", "2", "--d-max", "2",
                       "--out", "/nonexistent-dir/sweep.csv")
    assert code == 1 and "error" in err


def test_sweep_opens_its_out_path_before_solving(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep was computed before its --out path was opened")

    monkeypatch.setattr(cli, "_sweep_csv", refuse)
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run(capsys, "sweep", "--d-min", "2", "--d-max", "16", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: cannot write {str(out)!r}: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# exit codes

_NO_BOUND = "error: the conventional argument has no bounded condition; p must be 0\n"
_BAD_BOUND = "error: last-condition bound must satisfy 0 <= p < 1, got 3/2\n"
_NOT_JSON = ("error: box JSON: not valid JSON: Expecting property name enclosed in double "
             "quotes: line 1 column 2 (char 1)\n")
_MISSING = "error: [Errno 2] No such file or directory: '{dir}/nope.json'\n"
_OVER_BUDGET = ("error: the relabeling search over 8 outcomes needs a family of 40320 "
                "permutations per input, over the budget of 5040\n")

# each command's refusals, as (argv, exit code, stdout, stderr);
# "{dir}" stands for the test's directory, which holds pr.json (the PR box),
# uniform3.json (the uniform d = 3 box), uniform8.json (the uniform box of
# dims (8, 2, 2, 2), too many outcomes for --exhaustive-perms), negative.json
# (the PR box with one cell at -1/2, an invalid box) and broken.json (not
# JSON); a bad --p is refused before a box is checked or scored, and a
# refused search budget prints nothing on stdout
REFUSALS = [
    (["optimize", "--kind", "conventional", "--dims", "2,2,2,2", "--p", "1/10"], 2, "",
     _NO_BOUND),
    (["optimize", "--kind", "relaxed", "--regime", "lhv", "--dims", "2,2,2,2", "--p", "1/10"],
     2, "", "error: the local-realistic route only handles p = 0 arguments\n"),
    (["sweep", "--d-min", "4", "--d-max", "3"], 2, "",
     "error: need 2 <= d-min <= d-max <= cap (16), got d-min=4, d-max=3\n"),
    (["sweep", "--d-min", "2", "--d-max", "2", "--out", "{dir}/missing/sweep.csv"], 1, "",
     "error: cannot write '{dir}/missing/sweep.csv': [Errno 2] No such file or directory: "
     "'{dir}/missing/sweep.csv'\n"),
    (["verify", "{dir}/pr.json", "--kind", "relaxed", "--p", "3/2"], 2, "", _BAD_BOUND),
    (["verify", "{dir}/pr.json", "--kind", "conventional", "--p", "1/2"], 2, "", _NO_BOUND),
    (["pn", "{dir}/pr.json", "--kind", "relaxed", "--p", "3/2"], 2, "", _BAD_BOUND),
    (["pn", "{dir}/pr.json", "--kind", "conventional", "--p", "1/2"], 2, "", _NO_BOUND),
    (["verify", "{dir}/nope.json", "--kind", "relaxed"], 1, "", _MISSING),
    (["pn", "{dir}/nope.json", "--kind", "relaxed"], 1, "", _MISSING),
    (["verify", "{dir}/broken.json", "--kind", "relaxed"], 1, "", _NOT_JSON),
    (["pn", "{dir}/broken.json", "--kind", "relaxed"], 1, "", _NOT_JSON),
    (["pn", "{dir}/uniform3.json", "--kind", "relaxed"], 1, "",
     "error: no satisfied relaxed relabeling for this box\n"),
    (["verify", "{dir}/uniform3.json", "--kind", "relaxed"], 0,
     "valid: yes\nkind: relaxed\npp: not satisfied (zero condition 1 violated at event "
     "(x=1, y=0, a=1, b=2) with probability 1/9)\n", ""),
    (["verify", "{dir}/negative.json", "--kind", "relaxed", "--p", "3/2"], 2, "", _BAD_BOUND),
    (["verify", "{dir}/uniform8.json", "--kind", "relaxed", "--exhaustive-perms"], 2, "",
     _OVER_BUDGET),
    (["pn", "{dir}/uniform8.json", "--kind", "relaxed", "--exhaustive-perms"], 2, "",
     _OVER_BUDGET),
]


@pytest.mark.parametrize("argv,code,out,err", REFUSALS,
                         ids=[f"{i}-{case[0][0]}" for i, case in enumerate(REFUSALS)])
def test_refusals_are_byte_identical_in_process_and_fresh(capsys, tmp_path, argv, code, out,
                                                          err):
    data = json.loads(Path(write_pr(tmp_path)).read_text())
    data["table"][0]["p"] = "-1/2"  # was 1/2
    (tmp_path / "negative.json").write_text(json.dumps(data))
    (tmp_path / "uniform3.json").write_text(box_to_json(nsbox.uniform_box(Scenario.symmetric(3))))
    (tmp_path / "uniform8.json").write_text(
        box_to_json(nsbox.uniform_box(Scenario.from_dims([8, 2, 2, 2]))))
    (tmp_path / "broken.json").write_text("{not json")
    argv, out, err = ([a.replace("{dir}", str(tmp_path)) for a in argv],
                      out.replace("{dir}", str(tmp_path)), err.replace("{dir}", str(tmp_path)))
    assert run(capsys, *argv) == (code, out, err)
    src = str(Path(nsbox.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "nsbox.cli", *argv], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)


# ---------------------------------------------------------------------------
# option census

# every option string of every subcommand: adding or removing a flag must
# change this table
OPTION_CENSUS = {
    "optimize": {"-h", "--help", "--kind", "--dims", "--p", "--regime"},
    "sweep": {"-h", "--help", "--d-min", "--d-max", "--out"},
    "vertices": {"-h", "--help", "--dims", "--kind"},
    "verify": {"-h", "--help", "--kind", "--p", "--exhaustive-perms"},
    "pn": {"-h", "--help", "--kind", "--p", "--exhaustive-perms"},
}


def test_option_census():
    parser = cli._build_parser()
    assert {o for action in parser._actions for o in action.option_strings} == {"-h", "--help"}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    census = {name: {o for action in command._actions for o in action.option_strings}
              for name, command in sub.choices.items()}
    assert census == OPTION_CENSUS


# ---------------------------------------------------------------------------
# public-API census

# the public names of the nsbox namespace (submodules aside) and each
# module's __all__, sorted: adding or removing a public name must change
# this table
NSBOX_NAMES = [
    "ArgumentEvents", "ArgumentNotSatisfied", "HARDY_QUANTUM_OPTIMUM",
    "HardyArgument", "INPUT_PAIRS", "JointBox", "KIND_CONVENTIONAL", "KIND_RELAXED",
    "LinearCondition", "LinearProgram", "LocalLabel", "LpResult", "LpStatus", "LpValidationError",
    "MAX_LHV_STRATEGIES", "MAX_PERMUTATION_FAMILY", "NonlocalLabel", "OptimizationReport",
    "PnResult", "REGIME_LHV", "REGIME_NS", "Relabeling", "Scenario",
    "SearchBudgetExceeded", "ValidationReport", "argument_events", "attaining_nonlocal_vertex",
    "best_argument_with_pn", "best_satisfied_argument", "box_from_json", "box_from_json_dict",
    "box_to_json", "box_to_json_dict", "build_argument", "coerce_rational", "compute_pn",
    "convex_decomposition", "deterministic_box", "deterministic_strategies",
    "enumerate_vertices", "evaluate_pp", "exact_rank", "format_event", "format_rational",
    "is_local", "is_valid_box", "local_vertex", "max_success_lhv", "max_success_ns",
    "nonlocal_vertex", "ns_program", "parse_rational", "permutation_family_size",
    "polytope_dimension", "polytope_system", "solve_max", "uniform_box",
]
MODULE_ALL = {
    "rationals": ["coerce_rational", "format_rational", "parse_rational"],
    "lp": ["LinearProgram", "LpResult", "LpStatus", "LpValidationError", "exact_rank", "solve_max"],
    "boxes": ["INPUT_PAIRS", "JointBox", "LinearCondition",
              "Scenario", "ValidationReport", "box_from_json", "box_from_json_dict", "box_to_json",
              "box_to_json_dict", "is_valid_box", "polytope_dimension", "polytope_system",
              "uniform_box"],
    "vertices": ["LocalLabel", "NonlocalLabel", "convex_decomposition", "deterministic_box",
                 "deterministic_strategies", "enumerate_vertices", "is_local",
                 "local_vertex", "nonlocal_vertex"],
    "hardy": ["ArgumentEvents", "ArgumentNotSatisfied", "HARDY_QUANTUM_OPTIMUM", "HardyArgument",
              "KIND_CONVENTIONAL", "KIND_RELAXED", "MAX_LHV_STRATEGIES", "MAX_PERMUTATION_FAMILY",
              "OptimizationReport", "PnResult", "REGIME_LHV", "REGIME_NS", "Relabeling",
              "SearchBudgetExceeded", "argument_events", "attaining_nonlocal_vertex",
              "best_argument_with_pn", "best_satisfied_argument", "build_argument", "compute_pn",
              "evaluate_pp", "format_event", "max_success_lhv", "max_success_ns", "ns_program",
              "permutation_family_size"],
    "cli": ["main"],
}

# the parameters of every public function and method (a public class's own
# methods, its constructor included), annotations aside: a new parameter
# must change this table
PUBLIC_SIGNATURES = {
    'boxes.JointBox.__init__': '(self, scenario, table)',
    'boxes.JointBox.block': '(self, x, y)',
    'boxes.JointBox.from_function': '(cls, scenario, prob)',
    'boxes.JointBox.prob': '(self, x, y, a, b)',
    'boxes.LinearCondition.__init__': '(self, coeffs, rhs, relation, label)',
    'boxes.Scenario.__init__': '(self, alice, bob)',
    'boxes.Scenario.coord_index': '(self, x, y, a, b)',
    'boxes.Scenario.coords': '(self)',
    'boxes.Scenario.dims': '(self)',
    'boxes.Scenario.from_dims': '(cls, dims)',
    'boxes.Scenario.symmetric': '(cls, d)',
    'boxes.ValidationReport.__init__': '(self, ok, violations)',
    'boxes.box_from_json': '(text)',
    'boxes.box_from_json_dict': '(data)',
    'boxes.box_to_json': '(box)',
    'boxes.box_to_json_dict': '(box)',
    'boxes.is_valid_box': '(box)',
    'boxes.polytope_dimension': '(scenario)',
    'boxes.polytope_system': '(scenario)',
    'boxes.uniform_box': '(scenario)',
    'cli.main': '(argv=None)',
    'hardy.ArgumentEvents.__init__': '(self, success, zeros, bounds)',
    'hardy.ArgumentNotSatisfied.__init__':
        '(self, message, condition=None, event=None, amount=None)',
    'hardy.HardyArgument.__init__':
        '(self, kind, scenario, relabeling=Relabeling(alice_input_swap=False, '
        'bob_input_swap=False, alice_perms=None, bob_perms=None), '
        'last_condition_bound=Fraction(0, 1))',
    'hardy.OptimizationReport.__init__': '(self, argument, optimum, witness, regime)',
    'hardy.PnResult.__init__': '(self, pn, family)',
    'hardy.Relabeling.__init__':
        '(self, alice_input_swap=False, bob_input_swap=False, alice_perms=None, bob_perms=None)',
    'hardy.Relabeling.resolved': '(self, scenario)',
    'hardy.argument_events': '(arg)',
    'hardy.attaining_nonlocal_vertex': '(arg)',
    'hardy.best_argument_with_pn': '(box, kind, p=Fraction(0, 1), exhaustive_perms=False)',
    'hardy.best_satisfied_argument': '(box, kind, p=Fraction(0, 1), exhaustive_perms=False)',
    'hardy.build_argument': '(kind, scenario, p=Fraction(0, 1), relabeling=None)',
    'hardy.compute_pn': '(box, base, exhaustive_perms=False)',
    'hardy.evaluate_pp': '(box, arg)',
    'hardy.format_event': '(event)',
    'hardy.max_success_lhv': '(arg)',
    'hardy.max_success_ns': '(arg)',
    'hardy.ns_program': '(arg)',
    'hardy.permutation_family_size': '(n, exhaustive)',
    'lp.LinearProgram.__init__':
        '(self, num_vars, objective, eq_constraints=(), ineq_constraints=())',
    'lp.LinearProgram.canonical': '(self)',
    'lp.LpResult.__init__': '(self, status, value=None, solution=None)',
    'lp.exact_rank': '(rows)',
    'lp.solve_max': '(lp)',
    'rationals.coerce_rational': '(value)',
    'rationals.format_rational': '(value)',
    'rationals.parse_rational': '(text)',
    'vertices.convex_decomposition': '(box, candidates)',
    'vertices.deterministic_box': '(scenario, alice_outputs, bob_outputs)',
    'vertices.deterministic_strategies': '(scenario)',
    'vertices.enumerate_vertices': "(scenario, kind='all')",
    'vertices.is_local': '(box)',
    'vertices.local_vertex': '(scenario, label)',
    'vertices.nonlocal_vertex': '(scenario, label)',
}


def nsbox_modules() -> list[str]:
    return [info.name for info in pkgutil.iter_modules(nsbox.__path__)]


def public_signatures() -> dict[str, str]:
    """The parameters of every public function and of every public class's
    own methods, its constructor included, keyed "<module>.<name>" or
    "<module>.<class>.<method>"."""

    def bare(fn):
        sig = inspect.signature(fn)
        return str(sig.replace(parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                               return_annotation=sig.empty))

    signatures = {}
    for name in nsbox_modules():
        module = importlib.import_module(f"nsbox.{name}")
        for public in module.__all__:
            value = getattr(module, public)
            if not inspect.isclass(value):
                if callable(value):
                    signatures[f"{name}.{public}"] = bare(value)
                continue
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)  # a classmethod's or staticmethod's function
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    signatures[f"{name}.{public}.{attr}"] = bare(member)
    return signatures


def test_public_api_census():
    names = sorted(name for name, value in vars(nsbox).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == NSBOX_NAMES
    assert {name: sorted(importlib.import_module(f"nsbox.{name}").__all__)
            for name in nsbox_modules()} == MODULE_ALL
    assert public_signatures() == PUBLIC_SIGNATURES


# public names that no code in src/ calls, each with the reason it stays; a
# name that gains a caller must leave this table, so it can only shrink
UNCALLED_PUBLIC = {
    "exact_rank": "ROADMAP item 11 (the Hardy inequality as a certified facet) reads it",
    "polytope_dimension": "ROADMAP item 11 reads it",
    "uniform_box": "bench/workloads.py builds benchmark inputs with it",
    "box_to_json": "bench/workloads.py writes the benchmark's box files with it",
    "is_local": "the locality decision, a north-star output (ROADMAP aim 1)",
    "convex_decomposition": "bench/tracing.py TRACED wraps it",
    "best_satisfied_argument": "bench/tracing.py TRACED wraps it",
}


def src_references(roots) -> set[tuple[str, str]]:
    """The names that the code of src/nsbox which runs reads, as ("name", id)
    for a Name and ("attr", attr) for an Attribute.

    Module-level statements run, and so do the definitions named in roots.
    A read reaches each top-level function or class of its name, and an
    Attribute read also each method of its name; a reached definition's own
    reads count in turn, to a fixpoint. A class's statements other than its
    methods, its dunder methods among them, run with the class, so code that
    only dead functions read stays unread."""
    defs: dict[tuple[str, str], set] = defaultdict(set)
    read: set[tuple[str, str]] = set()

    def reads(nodes):
        found = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(getattr(sub, "ctx", None), ast.Load):
                    if isinstance(sub, ast.Name):
                        found.add(("name", sub.id))
                    elif isinstance(sub, ast.Attribute):
                        found.add(("attr", sub.attr))
        return found

    for path in sorted(Path(nsbox.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body
                           if isinstance(s, ast.FunctionDef) and not s.name.startswith("__")]
                for method in methods:
                    defs["attr", method.name] |= reads([method])
                rest = [s for s in stmt.body if s not in methods] + stmt.decorator_list + stmt.bases
                defs["name", stmt.name] |= reads(rest)
            elif isinstance(stmt, ast.FunctionDef):
                defs["name", stmt.name] |= reads([stmt])
            else:
                read |= reads([stmt])
    pending, reached = list(read) + [("name", name) for name in roots], set()
    while pending:
        kind, name = pending.pop()
        for key in {("name", name), (kind, name)} - reached:
            if key in defs:
                reached.add(key)
                pending.extend(defs[key] - read)
                read |= defs[key]
    return read


def test_every_public_name_has_a_caller_in_src():
    # a public name is read by code in src/ that runs, or it is one of
    # UNCALLED_PUBLIC; a method counts only as an Attribute read
    read = src_references(UNCALLED_PUBLIC)
    uncalled = {public for name in nsbox_modules()
                for public in importlib.import_module(f"nsbox.{name}").__all__
                if ("name", public) not in read and ("attr", public) not in read}
    uncalled |= {key for key in public_signatures()
                 if key.count(".") == 2 and not key.endswith(".__init__")
                 and ("attr", key.rsplit(".", 1)[1]) not in read}
    assert uncalled == set(UNCALLED_PUBLIC)


# the package's public names are declared once, in the modules' __all__
PACKAGE_MODULES = ["rationals", "lp", "boxes", "vertices", "hardy"]


def test_package_init_only_gathers_the_modules():
    docstring, *imports, version = ast.parse(Path(nsbox.__file__).read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    assert [(node.level, node.module, [alias.name for alias in node.names])
            for node in imports] == [(1, name, ["*"]) for name in PACKAGE_MODULES]
    assert ast.unparse(version) == "__version__ = '0.1.0'"
    # with the census above: the namespace is the union of the five __all__
    assert NSBOX_NAMES == sorted(public for name in PACKAGE_MODULES for public in MODULE_ALL[name])


def test_package_import_leaves_the_cli_out():
    src = str(Path(nsbox.__file__).resolve().parents[1])
    probe = "import sys, nsbox; print(nsbox.__file__, 'nsbox.cli' in sys.modules)"
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONPATH=src))
    assert fresh.stdout == f"{nsbox.__file__} False\n"
