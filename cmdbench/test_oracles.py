"""Each oracle accepts the program's correct output and rejects a corrupted copy.

Run from the root of a checkout:  python3 -m pytest cmdbench -q
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import oracles
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from oddbox import cli  # noqa: E402

EVERYTHING = (10**6, 10**6)


def run_cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(list(argv))
    return code, buffer.getvalue()


def graph(n, m, lo, hi, mode, fmt):
    code, text = run_cli("graph", "--n", str(n), "--m", str(m), f"--deg={lo}:{hi}", "--mode", mode, "--format", fmt)
    assert code == 0
    return text


def borel(n, m, pair):
    code, text = run_cli(*workloads.borel_argv(n, m, pair))
    assert code == 0
    return text


@pytest.mark.parametrize("mode", ["hasse", "cayley"])
def test_graph_json(mode):
    text = graph(3, 4, -2, 9, mode, "json")
    check = lambda t: oracles.check_graph_json(3, 4, -2, 9, mode, t, random.Random(0), EVERYTHING)
    assert check(text) == []
    obj = json.loads(text)
    dropped = dict(obj, edges=obj["edges"][1:])
    assert any("missing" in p for p in check(json.dumps(dropped)))
    edge = dict(obj["edges"][0], root="+e1-d1" if obj["edges"][0]["root"] != "+e1-d1" else "+e2-d2")
    assert check(json.dumps(dict(obj, edges=[edge] + obj["edges"][1:])))
    assert check(json.dumps(dict(obj, classes=obj["classes"][1:])))
    reps = obj["classes"][0]["reps"]
    bent = dict(obj["classes"][0], reps=reps[:-1] + [dict(reps[-1], k=reps[-1]["k"] + 1)])
    assert check(json.dumps(dict(obj, classes=[bent] + obj["classes"][1:])))


def test_graph_dot():
    text = graph(2, 5, 0, 9, "hasse", "dot")
    check = lambda t: oracles.check_graph_dot(2, 5, 0, 9, "hasse", t, random.Random(0), EVERYTHING)
    assert check(text) == []
    lines = text.splitlines()
    edge_at = next(t for t, line in enumerate(lines) if "->" in line)
    assert check("\n".join(lines[:edge_at] + lines[edge_at + 1:]) + "\n")
    node_at = next(t for t, line in enumerate(lines) if "[label=" in line and "->" not in line)
    assert check("\n".join(lines[:node_at] + lines[node_at + 1:]) + "\n")


def test_published_window():
    text = graph(2, 3, 0, 6, "hasse", "json")
    assert oracles.check_published_window(text) == []
    obj = json.loads(text)
    assert oracles.check_published_window(json.dumps(dict(obj, edges=obj["edges"][:-4])))
    assert oracles.check_published_window(json.dumps(dict(obj, classes=obj["classes"][1:])))


@pytest.mark.parametrize("n,m,d", [(3, 4, 0), (3, 4, -25), (2, 5, 31), (3, 5, 7)])
def test_borel(n, m, d):
    rng = random.Random(d)
    pair = rng.choice(sorted(oracles.closure(n, m, rng.choice(oracles.classes_at_degree(n, m, d)))))
    text = borel(n, m, pair)
    assert oracles.check_borel_json(n, m, pair, text) == []
    obj = json.loads(text)

    def corrupt(**fields):
        return oracles.check_borel_json(n, m, pair, json.dumps(dict(obj, **fields)))

    node = obj["nodes"][0]
    assert corrupt(nodes=[dict(node, root=node["root"] + " + dbar")] + obj["nodes"][1:])
    assert corrupt(nodes=[dict(node, grey=not node["grey"])] + obj["nodes"][1:])
    assert corrupt(words=obj["words"][1:] + obj["words"][:1])
    assert corrupt(simple_roots=obj["simple_roots"][::-1])
    assert corrupt(local={"partition": obj["local"]["partition"], "k": obj["local"]["k"] + n * m})


def test_rotation_law_catches_a_wrong_reindexing():
    """Swapping e1 and e3 everywhere keeps every other invariant intact."""
    pair = ((1, 1, 0), 4)
    obj = json.loads(borel(3, 4, pair))
    swap = lambda r: r.replace("e1", "#").replace("e3", "e1").replace("#", "e3")
    swapped = dict(
        obj,
        nodes=[dict(node, root=swap(node["root"])) for node in obj["nodes"]],
        simple_roots=[swap(r) for r in obj["simple_roots"]],
    )
    assert oracles.check_borel_json(3, 4, pair, json.dumps(swapped)) == ["global simple roots break the rotation law"]


def test_published_names():
    for pair, _ in oracles.GLOBAL_NAMES_3X4:
        text = borel(3, 4, pair)
        assert oracles.check_published_names(pair, text) == []
        obj = json.loads(text)
        wrong = obj["simple_roots"][1:] + obj["simple_roots"][:1]
        assert oracles.check_published_names(pair, json.dumps(dict(obj, simple_roots=wrong)))


def test_verify():
    code, text = run_cli("verify", "--n", "2", "--m", "3")
    assert oracles.check_verify(2, 3, (0, 6), code, text) == []
    failing = text.replace("PASS", "FAIL", 1)
    assert oracles.check_verify(2, 3, (0, 6), 1, failing)
    assert oracles.check_verify(2, 3, (0, 6), 0, text.splitlines()[-1] + "\n")
    assert oracles.check_verify(2, 3, (3, 3), 0, text)
    assert oracles.check_verify(2, 3, (5, 1), 0, text)
    assert oracles.check_verify(2, 3, (3, 3), 2, "") == []


def test_definitions():
    for n, m in [(2, 3), (3, 4), (2, 5), (4, 5)]:
        for k in range(-40, 41):
            i, j = oracles.split_rotation(n, m, k)
            assert (k - i * n - j * m) % (n * m) == 0
        for d in (-7, 0, 13):
            classes = oracles.classes_at_degree(n, m, d)
            assert len(classes) == oracles.classes_per_degree(n, m)
            assert all(len(oracles.closure(n, m, c)) == n + m for c in classes)
    assert oracles.border_word(3, 4, (4, 1, 1)) == "rddrrrd"


def test_work_does_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        runs = [workloads.build(name, seed) for seed in (1, 2)]
        assert [c.label for c in runs[0]] == [c.label for c in runs[1]]
        faults = [c.label for c in runs[0] if c.known_fault]
        assert faults == (["verify 2x3 --deg 3:3"] if name == "verify-suite" else [])
