import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oddbox
from oddbox.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_convert_text(capsys):
    assert run(["convert", "--n", "2", "--m", "3", "--partition", "3,1"]) == 0
    out, _ = out_of(capsys)
    assert "word:      rdrrd" in out
    assert "shuffle:   1',1,2',3',2" in out
    assert "dual:      2,1,1" in out


def test_convert_json_roundtrip(capsys):
    assert run(["convert", "--n", "2", "--m", "3", "--word", "rdrrd", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    obj = json.loads(out)
    assert obj == {
        "n": 2,
        "m": 3,
        "partition": [3, 1],
        "word": "rdrrd",
        "shuffle": "1',1,2',3',2",
        "dual": [2, 1, 1],
    }
    assert json.loads(json.dumps(obj)) == obj


def test_convert_accepts_shuffle_input(capsys):
    assert run(["convert", "--n", "2", "--m", "3", "--shuffle", "1',1,2',3',2"]) == 0
    out, _ = out_of(capsys)
    assert "partition: 3,1" in out


def test_exactly_one_encoding_required(capsys):
    assert run(["convert", "--n", "2", "--m", "3"]) == 2
    assert run(["convert", "--n", "2", "--m", "3", "--partition", "3,1", "--word", "rdrrd"]) == 2


def test_corners_command(capsys):
    assert run(["corners", "--n", "2", "--m", "3", "--partition", "3,1", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    obj = json.loads(out)
    assert obj["outer"] == ["+e1-d2"]
    assert sorted(obj["inner"]) == ["-e1-d1", "-e2-d3"]
    assert obj["pseudo_outer"] is True


def test_act_command(capsys):
    args = ["act", "--n", "2", "--m", "3", "--partition", "3,1", "--k", "0", "--root", "+e2-d1"]
    assert run(args) == 0
    out, _ = out_of(capsys)
    assert "1,1 @ 3" in out


def test_act_undefined_is_domain_error(capsys):
    args = ["act", "--n", "2", "--m", "3", "--partition", "0,0", "--root=-e2-d2"]
    assert run(args) == 1
    _, err = out_of(capsys)
    assert "error[UndefinedMorphism]" in err


def test_noncoprime_is_domain_error(capsys):
    assert run(["class", "--n", "2", "--m", "2", "--partition", "1,1"]) == 1
    _, err = out_of(capsys)
    assert "error[NonCoprimeShape]" in err


def test_bad_partition_is_usage_error(capsys):
    assert run(["class", "--n", "2", "--m", "3", "--partition", "1,3"]) == 2
    _, err = out_of(capsys)
    assert "usage error" in err


def test_empty_partition_entry_is_usage_error(capsys):
    assert run(["borel", "--n", "3", "--m", "4", "--partition", "4,,1"]) == 2
    _, err = out_of(capsys)
    assert "usage error" in err and "must not be empty" in err


def test_class_command_with_refinement(capsys):
    args = ["class", "--n", "2", "--m", "3", "--word", "ddrrr", "--approx", "--format", "json"]
    assert run(args) == 0
    out, _ = out_of(capsys)
    obj = json.loads(out)
    assert len(obj["class"]["reps"]) == 5
    assert len(obj["refinement"]) == 3
    sizes = sorted(len(part) for part in obj["refinement"])
    assert sizes == [1, 1, 3]


APPROX_PARTS = {
    "2x3": ["2,2@-4", "1,1@-2", "0,0@0  3,0@-3  3,3@-6"],
    "4x7": [
        "6,5,4,1@12340",
        "5,4,3,0@12344  7,5,4,3@12337",
        "6,4,3,2@12341",
        "5,3,2,1@12345",
        "4,2,1,0@12349  7,4,2,1@12342",
        "6,3,1,0@12346  7,6,3,1@12339",
        "6,5,2,0@12343  7,6,5,2@12336",
    ],
}


@pytest.mark.parametrize(
    "name, args",
    [
        ("2x3", ["--n", "2", "--m", "3", "--word", "ddrrr"]),
        ("4x7", ["--n", "4", "--m", "7", "--partition", "5,3,2,1", "--k", "12345"]),
    ],
)
def test_class_refinement_parts_in_order(capsys, name, args):
    """The refinement parts, their order and the order inside each, in
    text and in JSON."""
    want = APPROX_PARTS[name]
    assert run(["class", *args, "--approx"]) == 0
    out, _ = out_of(capsys)
    assert [line for line in out.splitlines() if line.startswith("part ")] == [
        f"part {t}:".ljust(11) + part for t, part in enumerate(want)
    ]
    assert run(["class", *args, "--approx", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    parts = [
        "  ".join(",".join(map(str, rep["partition"])) + f"@{rep['k']}" for rep in part)
        for part in json.loads(out)["refinement"]
    ]
    assert parts == want


def test_degree_command(capsys):
    assert run(["degree", "--n", "3", "--m", "4", "--d", "0", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    assert len(json.loads(out)["classes"]) == 5


def test_graph_dot_output(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    args = [
        "graph", "--n", "2", "--m", "3", "--deg", "0:6",
        "--mode", "hasse", "--format", "dot", "--out", str(target),
    ]
    assert run(args) == 0
    dot = target.read_text()
    assert dot.startswith("digraph classes {")
    assert dot.count("[label=") - dot.count("->") == 14
    assert dot.count("rank=same") == 7
    assert '"3,3@-6"' in dot
    assert dot.endswith("}\n")


def test_graph_json(capsys):
    assert run(["graph", "--n", "2", "--m", "3", "--deg", "0:6", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    obj = json.loads(out)
    assert len(obj["classes"]) == 14
    assert len(obj["edges"]) == 18
    assert {"src": "3,2@-1", "dst": "3,3@-1", "root": "+e2-d1"} in obj["edges"]


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--n", "13", "--m", "17", "--deg", "0:0"],
        ["graph", "--n", "2", "--m", "3", "--deg", "0:100000000"],
        ["degree", "--n", "13", "--m", "17", "--d", "0"],
        ["verify", "--n", "2", "--m", "3", "--deg", "0:100000000"],
        ["verify", "--n", "13", "--m", "17"],
    ],
)
def test_graph_over_the_vertex_cap_is_refused_promptly(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 0.5
    out, err = out_of(capsys)
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error[GraphTooLarge]:")


def test_graph_rejects_dot_elsewhere(capsys):
    assert run(["convert", "--n", "2", "--m", "3", "--partition", "3,1", "--format", "dot"]) == 2


def test_graph_bad_window(capsys):
    assert run(["graph", "--n", "2", "--m", "3", "--deg", "6"]) == 2


def test_borel_command(capsys):
    args = ["borel", "--n", "3", "--m", "4", "--partition", "4,1,1", "--format", "json"]
    assert run(args) == 0
    out, _ = out_of(capsys)
    obj = json.loads(out)
    assert obj["simple_roots"][0] == "d1 - e1"
    assert obj["local"] == {"partition": [4, 1, 1], "k": 0}
    assert obj["nodes"][0]["grey"] is True
    assert obj["words"][0] == "rddrrrd"


# the whole ``borel`` output: text lines and the JSON document
BOREL_PINS = {
    "--n 1 --m 2 --partition 1": (
        [
            "borel of:      1 @ 0   (class 2@-1)",
            "simple roots:  d1 - e1, -d2 + e1",
            "deleted node:  0  (dbar - d1 + d2)",
            "cycle:         [dbar - d1 + d2], d1 - e1, -d2 + e1",
            "greys:         1 2",
            "words:         rdr drr rrd",
        ],
        {"n": 1,
         "m": 2,
         "class": {"degree": 1,
                   "canonical": {"partition": [2], "k": -1},
                   "reps": [{"partition": [2], "word": "rrd", "k": -1},
                            {"partition": [1], "word": "rdr", "k": 0},
                            {"partition": [0], "word": "drr", "k": 1}]},
         "nodes": [{"root": "dbar - d1 + d2", "grey": False}, {"root": "d1 - e1", "grey": True},
                   {"root": "-d2 + e1", "grey": True}],
         "deleted": 0,
         "local": {"partition": [1], "k": 0},
         "simple_roots": ["d1 - e1", "-d2 + e1"],
         "words": ["rdr", "drr", "rrd"]},
    ),
    "--n 2 --m 1 --partition 1,0 --k 5": (
        [
            "borel of:      1,0 @ 5   (class 1,1@4)",
            "simple roots:  3dbar - d1 + e2, -2dbar + d1 - e1",
            "deleted node:  1  (e1 - e2)",
            "cycle:         -2dbar + d1 - e1, [e1 - e2], 3dbar - d1 + e2",
            "greys:         0 2",
            "words:         ddr drd rdd",
        ],
        {"n": 2,
         "m": 1,
         "class": {"degree": 6,
                   "canonical": {"partition": [1, 1], "k": 4},
                   "reps": [{"partition": [1, 1], "word": "rdd", "k": 4},
                            {"partition": [0, 0], "word": "ddr", "k": 6},
                            {"partition": [1, 0], "word": "drd", "k": 5}]},
         "nodes": [{"root": "-2dbar + d1 - e1", "grey": True}, {"root": "e1 - e2", "grey": False},
                   {"root": "3dbar - d1 + e2", "grey": True}],
         "deleted": 1,
         "local": {"partition": [1, 0], "k": 5},
         "simple_roots": ["3dbar - d1 + e2", "-2dbar + d1 - e1"],
         "words": ["ddr", "drd", "rdd"]},
    ),
    "--n 3 --m 4 --partition 4,1,1 --k=1000000": (
        [
            "borel of:      4,1,1 @ 1000000   (class 4,4,3@999995)",
            "simple roots:  -83334dbar + d1 - e3, dbar - e1 + e3, 83333dbar - d2 + e1, d2 - d3, d3 - d4, -83333dbar + d4 - e2",
            "deleted node:  5  (83334dbar - d1 + e2)",
            "cycle:         dbar - e1 + e3, 83333dbar - d2 + e1, d2 - d3, d3 - d4, -83333dbar + d4 - e2, [83334dbar - d1 + e2], -83334dbar + d1 - e3",
            "greys:         1 4 5 6",
            "words:         drrrdrd rrrdrdd rrdrddr rdrddrr drddrrr rddrrrd ddrrrdr",
        ],
        {"n": 3,
         "m": 4,
         "class": {"degree": 1000006,
                   "canonical": {"partition": [4, 4, 3], "k": 999995},
                   "reps": [{"partition": [4, 4, 3], "word": "rrrdrdd", "k": 999995},
                            {"partition": [3, 3, 2], "word": "rrdrddr", "k": 999998},
                            {"partition": [2, 2, 1], "word": "rdrddrr", "k": 1000001},
                            {"partition": [1, 1, 0], "word": "drddrrr", "k": 1000004},
                            {"partition": [4, 1, 1], "word": "rddrrrd", "k": 1000000},
                            {"partition": [3, 0, 0], "word": "ddrrrdr", "k": 1000003},
                            {"partition": [4, 3, 0], "word": "drrrdrd", "k": 999999}]},
         "nodes": [{"root": "dbar - e1 + e3", "grey": False}, {"root": "83333dbar - d2 + e1", "grey": True},
                   {"root": "d2 - d3", "grey": False}, {"root": "d3 - d4", "grey": False},
                   {"root": "-83333dbar + d4 - e2", "grey": True},
                   {"root": "83334dbar - d1 + e2", "grey": True},
                   {"root": "-83334dbar + d1 - e3", "grey": True}],
         "deleted": 5,
         "local": {"partition": [4, 1, 1], "k": 1000000},
         "simple_roots": ["-83334dbar + d1 - e3", "dbar - e1 + e3", "83333dbar - d2 + e1", "d2 - d3", "d3 - d4",
                          "-83333dbar + d4 - e2"],
         "words": ["drrrdrd", "rrrdrdd", "rrdrddr", "rdrddrr", "drddrrr", "rddrrrd", "ddrrrdr"]},
    ),
    "--n 3 --m 4 --partition 4,1,1 --k=-1000000": (
        [
            "borel of:      4,1,1 @ -1000000   (class 4,4,3@-1000005)",
            "simple roots:  83333dbar + d1 - e2, e2 - e3, -83333dbar - d2 + e3, d2 - d3, d3 - d4, 83334dbar + d4 - e1",
            "deleted node:  2  (-83333dbar - d1 + e1)",
            "cycle:         d3 - d4, 83334dbar + d4 - e1, [-83333dbar - d1 + e1], 83333dbar + d1 - e2, e2 - e3, -83333dbar - d2 + e3, d2 - d3",
            "greys:         1 2 3 5",
            "words:         rdrddrr drddrrr rddrrrd ddrrrdr drrrdrd rrrdrdd rrdrddr",
        ],
        {"n": 3,
         "m": 4,
         "class": {"degree": -999994,
                   "canonical": {"partition": [4, 4, 3], "k": -1000005},
                   "reps": [{"partition": [4, 4, 3], "word": "rrrdrdd", "k": -1000005},
                            {"partition": [3, 3, 2], "word": "rrdrddr", "k": -1000002},
                            {"partition": [2, 2, 1], "word": "rdrddrr", "k": -999999},
                            {"partition": [1, 1, 0], "word": "drddrrr", "k": -999996},
                            {"partition": [4, 1, 1], "word": "rddrrrd", "k": -1000000},
                            {"partition": [3, 0, 0], "word": "ddrrrdr", "k": -999997},
                            {"partition": [4, 3, 0], "word": "drrrdrd", "k": -1000001}]},
         "nodes": [{"root": "d3 - d4", "grey": False}, {"root": "83334dbar + d4 - e1", "grey": True},
                   {"root": "-83333dbar - d1 + e1", "grey": True},
                   {"root": "83333dbar + d1 - e2", "grey": True}, {"root": "e2 - e3", "grey": False},
                   {"root": "-83333dbar - d2 + e3", "grey": True}, {"root": "d2 - d3", "grey": False}],
         "deleted": 2,
         "local": {"partition": [4, 1, 1], "k": -1000000},
         "simple_roots": ["83333dbar + d1 - e2", "e2 - e3", "-83333dbar - d2 + e3", "d2 - d3", "d3 - d4",
                          "83334dbar + d4 - e1"],
         "words": ["rdrddrr", "drddrrr", "rddrrrd", "ddrrrdr", "drrrdrd", "rrrdrdd", "rrdrddr"]},
    ),
    "--n 5 --m 8 --partition 7,3,3,1 --k=-123": (
        [
            "borel of:      7,3,3,1,0 @ -123   (class 8,8,6,5,4@-140)",
            "simple roots:  -3dbar - d2 + e2, 3dbar + d2 - e3, -3dbar - d3 + e3, d3 - d4, 3dbar + d4 - e4, e4 - e5, -3dbar - d5 + e5, d5 - d6, d6 - d7, d7 - d8, 4dbar + d8 - e1, -3dbar - d1 + e1",
            "deleted node:  4  (3dbar + d1 - e2)",
            "cycle:         d6 - d7, d7 - d8, 4dbar + d8 - e1, -3dbar - d1 + e1, [3dbar + d1 - e2], -3dbar - d2 + e2, 3dbar + d2 - e3, -3dbar - d3 + e3, d3 - d4, 3dbar + d4 - e4, e4 - e5, -3dbar - d5 + e5, d5 - d6",
            "greys:         2 3 4 5 6 7 9 11",
            "words:         rrdrdrdrrddrr rdrdrdrrddrrr drdrdrrddrrrr rdrdrrddrrrrd drdrrddrrrrdr rdrrddrrrrdrd drrddrrrrdrdr rrddrrrrdrdrd rddrrrrdrdrdr ddrrrrdrdrdrr drrrrdrdrdrrd rrrrdrdrdrrdd rrrdrdrdrrddr",
        ],
        {"n": 5,
         "m": 8,
         "class": {"degree": -109,
                   "canonical": {"partition": [8, 8, 6, 5, 4], "k": -140},
                   "reps": [{"partition": [8, 8, 6, 5, 4], "word": "rrrrdrdrdrrdd", "k": -140},
                            {"partition": [7, 7, 5, 4, 3], "word": "rrrdrdrdrrddr", "k": -135},
                            {"partition": [6, 6, 4, 3, 2], "word": "rrdrdrdrrddrr", "k": -130},
                            {"partition": [5, 5, 3, 2, 1], "word": "rdrdrdrrddrrr", "k": -125},
                            {"partition": [4, 4, 2, 1, 0], "word": "drdrdrrddrrrr", "k": -120},
                            {"partition": [8, 4, 4, 2, 1], "word": "rdrdrrddrrrrd", "k": -128},
                            {"partition": [7, 3, 3, 1, 0], "word": "drdrrddrrrrdr", "k": -123},
                            {"partition": [8, 7, 3, 3, 1], "word": "rdrrddrrrrdrd", "k": -131},
                            {"partition": [7, 6, 2, 2, 0], "word": "drrddrrrrdrdr", "k": -126},
                            {"partition": [8, 7, 6, 2, 2], "word": "rrddrrrrdrdrd", "k": -134},
                            {"partition": [7, 6, 5, 1, 1], "word": "rddrrrrdrdrdr", "k": -129},
                            {"partition": [6, 5, 4, 0, 0], "word": "ddrrrrdrdrdrr", "k": -124},
                            {"partition": [8, 6, 5, 4, 0], "word": "drrrrdrdrdrrd", "k": -132}]},
         "nodes": [{"root": "d6 - d7", "grey": False}, {"root": "d7 - d8", "grey": False},
                   {"root": "4dbar + d8 - e1", "grey": True}, {"root": "-3dbar - d1 + e1", "grey": True},
                   {"root": "3dbar + d1 - e2", "grey": True}, {"root": "-3dbar - d2 + e2", "grey": True},
                   {"root": "3dbar + d2 - e3", "grey": True}, {"root": "-3dbar - d3 + e3", "grey": True},
                   {"root": "d3 - d4", "grey": False}, {"root": "3dbar + d4 - e4", "grey": True},
                   {"root": "e4 - e5", "grey": False}, {"root": "-3dbar - d5 + e5", "grey": True},
                   {"root": "d5 - d6", "grey": False}],
         "deleted": 4,
         "local": {"partition": [7, 3, 3, 1, 0], "k": -123},
         "simple_roots": ["-3dbar - d2 + e2", "3dbar + d2 - e3", "-3dbar - d3 + e3", "d3 - d4",
                          "3dbar + d4 - e4", "e4 - e5", "-3dbar - d5 + e5", "d5 - d6", "d6 - d7", "d7 - d8",
                          "4dbar + d8 - e1", "-3dbar - d1 + e1"],
         "words": ["rrdrdrdrrddrr", "rdrdrdrrddrrr", "drdrdrrddrrrr", "rdrdrrddrrrrd", "drdrrddrrrrdr",
                   "rdrrddrrrrdrd", "drrddrrrrdrdr", "rrddrrrrdrdrd", "rddrrrrdrdrdr", "ddrrrrdrdrdrr",
                   "drrrrdrdrdrrd", "rrrrdrdrdrrdd", "rrrdrdrdrrddr"]},
    ),
}


@pytest.mark.parametrize("argv", BOREL_PINS)
def test_borel_output_is_pinned(capsys, argv):
    """Text and JSON, byte for byte: every node's global name and parity,
    the deleted node, the simple roots and the words, on boxes from 1x2 to
    5x8 and out to |k| = 10^6."""
    lines, obj = BOREL_PINS[argv]
    assert run(["borel", *shlex.split(argv)]) == 0
    assert out_of(capsys) == ("\n".join(lines) + "\n", "")
    assert run(["borel", *shlex.split(argv), "--format", "json"]) == 0
    assert out_of(capsys) == (json.dumps(obj, indent=2) + "\n", "")


@pytest.mark.parametrize("k", [10**6, -10**6])
def test_borel_far_rotation_number(capsys, k):
    assert run(["borel", "--n", "3", "--m", "4", "--partition", "0", f"--k={k}"]) == 0
    out, _ = out_of(capsys)
    assert f"borel of:      0,0,0 @ {k}" in out


def test_borel_requires_coprime(capsys):
    assert run(["borel", "--n", "2", "--m", "4", "--partition", "1,1"]) == 1
    _, err = out_of(capsys)
    assert "NonCoprimeShape" in err


def test_verify_command_passes(capsys):
    assert run(["verify", "--n", "2", "--m", "3", "--deg", "0:3"]) == 0
    out, _ = out_of(capsys)
    assert "FAIL" not in out
    assert "checks passed" in out


VERIFY_CHECKS = (
    "encoding-roundtrips",
    "dual-involution",
    "rotation-orders",
    "corner-actions",
    "edge-moves",
    "row-column-compatibility",
    "class-anatomy",
    "class-generators",
    "action-well-defined",
    "plain-embedding",
    "degree-counts",
    "degree-shift",
    "refinement-parts",
    "refinement-bijection",
    "borel-invariants",
    "borel-bijection",
    "borel-equivariance",
)


def test_verify_prints_every_check_in_order(capsys, monkeypatch):
    """The whole stdout of ``verify`` on 2x3: one line per check in a fixed
    order, then the summary, with and without one broken function."""
    lines = [f"PASS  {name:24}" for name in VERIFY_CHECKS]
    assert run(["verify", "--n", "2", "--m", "3"]) == 0
    assert out_of(capsys) == ("\n".join(lines + ["17/17 checks passed"]) + "\n", "")
    exact = oddbox.orbit.classes_per_degree
    monkeypatch.setattr(oddbox.orbit, "classes_per_degree", lambda shape: exact(shape) + 1)
    lines[10] = "FAIL  degree-counts             6 violation(s); first: degree 0 has 2 classes, expected 3"
    assert run(["verify", "--n", "2", "--m", "3"]) == 1
    assert out_of(capsys) == ("\n".join(lines + ["16/17 checks passed"]) + "\n", "")


@pytest.mark.parametrize("window", ["3:3", "5:1"])
def test_verify_rejects_empty_window(capsys, window):
    assert run(["verify", "--n", "2", "--m", "3", f"--deg={window}"]) == 2
    _, err = out_of(capsys)
    assert "half-open" in err


def test_verify_rejects_blank_window(capsys):
    assert run(["verify", "--n", "2", "--m", "3", "--deg="]) == 2
    _, err = out_of(capsys)
    assert "LO:HI" in err


def test_verify_noncoprime_guard_section(capsys):
    assert run(["verify", "--n", "2", "--m", "2"]) == 0
    out, _ = out_of(capsys)
    assert "shape-guard" in out


def test_determinism(capsys):
    args = ["graph", "--n", "2", "--m", "3", "--deg", "0:4", "--format", "json"]
    assert run(args) == 0
    first, _ = out_of(capsys)
    assert run(args) == 0
    second, _ = out_of(capsys)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--n", "2", "--m", "3", "--deg=-4:9", "--mode", "cayley", "--format", "json"],
        ["graph", "--n", "3", "--m", "4", "--deg", "2:2", "--format", "json"],
        ["graph", "--n", "2", "--m", "3", "--deg", "0:6", "--format", "dot"],
        ["degree", "--n", "3", "--m", "4", "--d", "0", "--format", "json"],
    ],
)
def test_out_file_gets_the_bytes_of_stdout(capsys, tmp_path, argv):
    assert run(argv) == 0
    out, _ = out_of(capsys)
    target = tmp_path / "out"
    assert run([*argv, "--out", str(target)]) == 0
    assert out_of(capsys) == ("", "")
    assert target.read_bytes() == out.encode("utf-8")


def test_out_to_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    for argv in (
        ["graph", "--n", "2", "--m", "3", "--deg", "0:2", "--format", "json"],
        ["graph", "--n", "2", "--m", "3", "--deg", "0:2", "--format", "dot"],
        ["degree", "--n", "3", "--m", "4", "--d", "0", "--format", "json"],
    ):
        assert run([*argv, "--out", str(target)]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("usage error:") and str(target) in err
        assert not target.exists()


def test_importing_the_cli_loads_no_dataclasses():
    """The value types are plain tuples, so no command pays for importing
    ``dataclasses`` (and with it ``inspect``)."""
    src = str(Path(oddbox.__file__).resolve().parents[1])
    probe = "import oddbox.cli, sys; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "False\n"


def test_readme_cli_examples_exit_zero(capsys, tmp_path, monkeypatch):
    """Each ``oddbox`` line of README's CLI block runs and exits 0; they run
    in a temporary directory because the ``graph`` example writes a file."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("oddbox ")]
    assert len(examples) == 8
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert run(argv) == 0, argv
    assert (tmp_path / "hasse.dot").read_text().startswith("digraph")
