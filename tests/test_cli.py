import json
import time

import pytest

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


def test_class_command_with_refinement(capsys):
    args = ["class", "--n", "2", "--m", "3", "--word", "ddrrr", "--approx", "--format", "json"]
    assert run(args) == 0
    out, _ = out_of(capsys)
    obj = json.loads(out)
    assert len(obj["class"]["reps"]) == 5
    assert len(obj["refinement"]) == 3
    sizes = sorted(len(part) for part in obj["refinement"])
    assert sizes == [1, 1, 3]


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


def test_out_to_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    args = ["graph", "--n", "2", "--m", "3", "--deg", "0:2", "--format", "json", "--out", str(target)]
    assert run(args) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("usage error:") and str(target) in err
    assert not target.exists()
