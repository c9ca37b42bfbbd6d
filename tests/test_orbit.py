import json
import time
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CLASS_SHAPES,
    class_check,
    closure_by_raw_moves,
    oracle_build_graph,
    oracle_classes_at_degree,
    oracle_enumerate_class,
    oracle_graph_json,
    oracle_scan,
)
from oddbox import orbit, verify
from oddbox.orbit import (
    AnchoredPair,
    GraphTooLarge,
    UndefinedMorphism,
    act,
    all_signed_roots,
    approx_decompose,
    build_graph,
    canonical_pair,
    class_id,
    class_json,
    classes_at_degree,
    classes_per_degree,
    degree_json_chunks,
    enumerate_class,
    graph_dot,
    graph_json_chunks,
    out_edges,
    row_class,
)
from oddbox.rect import (
    NonCoprimeShape,
    OddRoot,
    RectShape,
    ShapeUnsupported,
    all_diagrams,
    diagram_of_word,
    word_of_diagram,
)
from oddbox.reflect import diagram_edge

S23 = RectShape(2, 3)
S34 = RectShape(3, 4)


def test_enumerate_class_examples():
    cls = enumerate_class(S23, ((3, 1), 0))
    assert set(cls.reps) == {
        ((3, 1), 0), ((2, 0), 2), ((3, 2), -1), ((2, 1), 1), ((1, 0), 3),
    }
    assert cls.degree == 4
    empty = enumerate_class(S23, ((0, 0), 0))
    assert set(empty.reps) == {
        ((0, 0), 0), ((3, 0), -3), ((3, 3), -6), ((2, 2), -4), ((1, 1), -2),
    }
    assert empty.degree == 0
    assert empty.canonical == ((3, 3), -6)


def test_full_box_equals_shifted_empty():
    full = enumerate_class(S23, ((3, 3), 0))
    shifted = enumerate_class(S23, ((0, 0), 6))
    assert full.canonical == shifted.canonical
    assert full == shifted


def test_reps_are_in_rotation_order_from_canonical():
    cls = enumerate_class(S23, ((3, 1), 0))
    words = [word_of_diagram(S23, rep.diagram) for rep in cls.reps]
    for t in range(len(words) - 1):
        assert words[t + 1] == words[t][1:] + words[t][0]
        step = cls.reps[t + 1].k - cls.reps[t].k
        assert step == (S23.n if words[t][0] == "r" else -S23.m)


def test_class_matches_raw_move_closure():
    for shape in [S23, S34, RectShape(1, 2), RectShape(5, 2)]:
        for parts in all_diagrams(shape):
            for k in (0, 1, -shape.m):
                cls = enumerate_class(shape, (parts, k))
                assert set(cls.reps) == closure_by_raw_moves(shape, (parts, k))


@pytest.mark.parametrize("shape", CLASS_SHAPES, ids=lambda s: f"{s.n}x{s.m}")
def test_enumerate_class_matches_word_rotation(shape):
    """The word-free walk lists the same members in the same order as
    rotating the border word, for every diagram near and away from k = 0."""
    mn = shape.n * shape.m
    for parts in all_diagrams(shape):
        for k in (-2 * mn, -1, 0, 1, 2 * mn):
            assert enumerate_class(shape, (parts, k)).reps == oracle_enumerate_class(shape, (parts, k)).reps


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([RectShape(5, 8), RectShape(7, 9)]), st.data(), st.integers(-10**6, 10**6))
def test_enumerate_class_matches_word_rotation_far_from_zero(shape, data, k):
    parts = data.draw(st.lists(st.integers(0, shape.m), min_size=shape.n, max_size=shape.n))
    parts = tuple(sorted(parts, reverse=True))
    expect = oracle_enumerate_class(shape, (parts, k)).reps
    assert enumerate_class(shape, (parts, k)).reps == expect
    assert canonical_pair(shape, (parts, k)) == expect[0]


def test_out_edges_of_a_big_box_build_no_class(monkeypatch):
    """On the staircase class of a 60x61 box, every out-edge is named by
    ``canonical_pair`` alone: no image class is enumerated, so the cost per
    class stays quadratic in m + n."""
    shape = RectShape(60, 61)
    cls = enumerate_class(shape, (tuple(range(60, 0, -1)), 0))

    def refuse(shape, pair):
        raise AssertionError("out_edges enumerated a class")

    monkeypatch.setattr(orbit, "enumerate_class", refuse)
    edges = out_edges(cls)
    assert len(edges) == 2 * 60
    for image in edges.values():
        assert image == oracle_enumerate_class(shape, image).reps[0]


def test_canonical_pair_checks_no_diagram_the_library_made(monkeypatch):
    """``out_edges`` on the staircase class of a 60x61 box names its images
    with no diagram checked again; ``enumerate_class`` still checks the
    pair it is given."""
    shape = RectShape(60, 61)
    cls = enumerate_class(shape, (tuple(range(60, 0, -1)), 0))

    def refuse(shape, parts):
        raise AssertionError("a diagram was checked again")

    with monkeypatch.context() as patched:
        patched.setattr(orbit, "check_diagram", refuse)
        assert len(out_edges(cls)) == 2 * 60
    with pytest.raises(ValueError):
        enumerate_class(S23, ((4, 1), 0))


def test_class_membership_and_degree_invariance():
    cls = enumerate_class(S23, ((3, 1), 0))
    assert ((2, 0), 2) in cls
    assert ((2, 0), 0) not in cls
    assert {rep.degree() for rep in cls.reps} == {4}


@pytest.mark.parametrize(
    "start, k, root, target",
    [
        (((3, 1)), 0, OddRoot(1, 2, 1), ((1, 1), 3)),
        (((2, 1)), -3, OddRoot(1, 1, 3), ((1, 0), 0)),
        (((0, 0)), 0, OddRoot(1, 2, 1), ((1, 0), 0)),
    ],
)
def test_act_examples(start, k, root, target):
    image = act(enumerate_class(S23, (start, k)), root)
    assert AnchoredPair(target[0], target[1]) in image.reps


def test_act_well_defined_across_representatives():
    """All admitting representatives reach one class, and it is the root's
    entry in out_edges; a root no representative admits has no entry."""
    for shape in (S23, S34):
        for d in range(0, shape.n * shape.m + 1):
            for cls in classes_at_degree(shape, d):
                edges = out_edges(cls)
                assert verify._scan(shape, cls.reps) == {root: {image} for root, image in edges.items()}


@pytest.mark.parametrize("shape", CLASS_SHAPES, ids=lambda s: f"{s.n}x{s.m}")
def test_the_scan_matches_the_root_by_root_definition(shape):
    """Reading the corners of each representative finds the same roots and
    images as rotating every root to every representative."""
    for d in range(0, shape.n * shape.m + 1):
        for cls in classes_at_degree(shape, d):
            assert verify._scan(shape, cls.reps) == oracle_scan(shape, cls.reps)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([RectShape(5, 8), RectShape(7, 9), RectShape(8, 11)]),
    st.data(),
    st.integers(-10**6, 10**6),
)
def test_out_edges_match_the_scan_far_from_zero(shape, data, k):
    """Past the exhaustive range, on a random word at a random k: out_edges
    has one key per mixed adjacent pair of the cyclic word, names each image
    by its canonical pair, agrees with the representative scan on every
    signed root, and act enumerates the class of each entry."""
    downs = data.draw(st.sets(st.integers(0, shape.size - 1), min_size=shape.n, max_size=shape.n))
    word = "".join("d" if t in downs else "r" for t in range(shape.size))
    cls = enumerate_class(shape, (diagram_of_word(shape, word), k))
    edges = out_edges(cls)
    assert len(edges) == sum(word[t - 1] != word[t] for t in range(shape.size))
    for root, image in edges.items():
        assert image == enumerate_class(shape, image).canonical
        assert act(cls, root) == enumerate_class(shape, image)
    scan = verify._scan(shape, cls.reps)
    assert scan == oracle_scan(shape, cls.reps)
    assert scan == {root: {image} for root, image in edges.items()}


def test_act_undefined_raises():
    cls = enumerate_class(S23, ((0, 0), 0))
    admitted = oracle_scan(S23, cls.reps)
    undefined = [r for r in all_signed_roots(S23) if r not in admitted]
    assert undefined
    with pytest.raises(UndefinedMorphism):
        act(cls, undefined[0])


def test_act_restricts_to_plain_action_at_k_zero():
    for shape in (S23, RectShape(2, 5)):
        assert class_check(verify._plain_embedding, shape, (0, shape.n * shape.m)) == []


def test_classes_at_degree_counts():
    assert len(classes_at_degree(S23, 0)) == 2
    assert {class_id(c) for c in classes_at_degree(S23, 0)} == {"3,3@-6", "3,2@-5"}
    for d in range(-3, 9):
        assert len(classes_at_degree(S23, d)) == 2
        assert len(classes_at_degree(S34, d)) == 5
    assert classes_per_degree(RectShape(4, 5)) == 14


@pytest.mark.parametrize("shape", CLASS_SHAPES, ids=lambda s: f"{s.n}x{s.m}")
def test_classes_at_degree_matches_the_oracle(shape):
    """The classes from the Dyck diagrams are the classes of every diagram
    of the box, in the same order."""
    mn = shape.n * shape.m
    for d in (0, 1, -mn - 1, 2 * mn + 3):
        assert classes_at_degree(shape, d) == oracle_classes_at_degree(shape, d)


@cache
def _classes_at_seven(shape):
    return classes_at_degree(shape, 7)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([RectShape(5, 8), RectShape(7, 9), RectShape(8, 11)]), st.data())
def test_classes_at_degree_names_a_random_class_in_a_big_box(shape, data):
    """Past the exhaustive range: the class of a random diagram at degree 7,
    by word rotation, is named among the classes of that degree, and there
    are ``classes_per_degree`` of them."""
    parts = data.draw(st.lists(st.integers(0, shape.m), min_size=shape.n, max_size=shape.n))
    parts = tuple(sorted(parts, reverse=True))
    listed = _classes_at_seven(shape)
    assert len(listed) == classes_per_degree(shape)
    assert oracle_enumerate_class(shape, (parts, 7 - sum(parts))).canonical in {c.canonical for c in listed}


def test_classes_at_degree_reads_no_diagram_of_the_box(monkeypatch):
    """The classes of a degree come from their Dyck diagrams alone: no
    walk over the box, and one ``enumerate_class`` call per class."""
    calls = []
    exact = orbit.enumerate_class

    def refuse(shape):
        raise AssertionError("the box was walked")

    def counting(shape, pair):
        calls.append(pair)
        return exact(shape, pair)

    monkeypatch.setattr(orbit, "all_diagrams", refuse, raising=False)
    monkeypatch.setattr(orbit, "enumerate_class", counting)
    shape = RectShape(9, 10)
    assert len(classes_at_degree(shape, 0)) == 4_862
    assert len(calls) == 4_862 == classes_per_degree(shape)


def test_approx_decompose_example():
    parts = approx_decompose(enumerate_class(S23, ((0, 0), 0)))
    assert len(parts) == 3
    assert {frozenset(p) for p in parts} == {
        frozenset({((0, 0), 0), ((3, 0), -3), ((3, 3), -6)}),
        frozenset({((2, 2), -4)}),
        frozenset({((1, 1), -2)}),
    }


def test_row_class_chain_structure():
    rc = row_class(S23, ((0, 0), 0))
    assert isinstance(rc, tuple) and all(isinstance(p, AnchoredPair) for p in rc)
    assert rc == (((3, 3), -6), ((3, 0), -3), ((0, 0), 0))
    for (p1, k1), (p2, k2) in zip(rc, rc[1:]):
        assert diagram_edge(S23, p1, "-r") == p2 and k2 == k1 + S23.m
    assert row_class(S23, ((2, 1), 0)) == (((2, 1), 0),)


def test_vss_check_noncoprime():
    with pytest.raises(NonCoprimeShape):
        class_check(verify._vss, RectShape(2, 2), (0, 3))


def test_build_graph_hasse_degrees_and_edges():
    graph = build_graph(S23, 0, 6, "hasse")
    assert len(graph.vertices) == 14
    for d in range(0, 7):
        assert sum(1 for c in graph.vertices if c.degree == d) == 2
    for a, b, root in graph.edges:
        assert root.sign == 1
        assert graph.vertices[b].degree == graph.vertices[a].degree + 1


HASSE_23_WINDOW = {
    (((0, 0), 0), ((1, 0), 0)),
    (((1, 0), 0), ((1, 1), 0)),
    (((1, 0), 0), ((2, 0), 0)),
    (((1, 1), 0), ((2, 1), 0)),
    (((1, 1), 3), ((2, 1), 3)),
    (((2, 0), 0), ((2, 1), 0)),
    (((2, 0), 0), ((3, 0), 0)),
    (((2, 1), -3), ((1, 0), 0)),
    (((2, 1), -3), ((2, 2), -3)),
    (((2, 1), 0), ((2, 2), 0)),
    (((2, 1), 0), ((3, 1), 0)),
    (((2, 2), -3), ((2, 0), 0)),
    (((2, 2), 0), ((3, 2), 0)),
    (((3, 0), 0), ((3, 1), 0)),
    (((3, 1), 0), ((1, 1), 3)),
    (((3, 1), 0), ((3, 2), 0)),
    (((3, 2), 0), ((2, 1), 3)),
    (((3, 2), 0), ((3, 3), 0)),
}


def test_full_hasse_window_edge_set():
    """The complete cover-relation set of the degree 0..6 window, one labeled
    edge per covering pair, matching the published picture arrow for arrow."""
    graph = build_graph(S23, 0, 6, "hasse")
    got = {
        (graph.vertices[a].canonical, graph.vertices[b].canonical)
        for a, b, root in graph.edges
    }
    expected = {
        (enumerate_class(S23, src).canonical, enumerate_class(S23, dst).canonical)
        for src, dst in HASSE_23_WINDOW
    }
    assert len(graph.edges) == 18
    assert got == expected


def test_build_graph_cayley_contains_inverses():
    graph = build_graph(S23, 0, 3, "cayley")
    pairs = {(a, b, root.sign) for a, b, root in graph.edges}
    for a, b, root in graph.edges:
        assert (b, a, -root.sign) in pairs


def test_graph_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_graph(S23, 0, 3, "poset")
    with pytest.raises(ValueError):
        build_graph(S23, 3, 0, "hasse")
    with pytest.raises(NonCoprimeShape):
        build_graph(RectShape(2, 4), 0, 3)


@pytest.mark.parametrize("mode", ["hasse", "cayley"])
@pytest.mark.parametrize("shape", CLASS_SHAPES, ids=lambda s: f"{s.n}x{s.m}")
def test_build_graph_matches_vertex_by_vertex_oracle(shape, mode):
    """The shifted build of one degree equals the per-degree build on windows
    that start below zero, hold a single degree or span more than a period."""
    mn = shape.n * shape.m
    for lo, hi in ((-mn - 2, mn + 1), (-3, -3), (5, 5), (-1, 2 * mn)):
        got = oracle_graph_json(build_graph(shape, lo, hi, mode))
        assert got == oracle_graph_json(oracle_build_graph(shape, lo, hi, mode)), (lo, hi)


@pytest.mark.parametrize("mode", ["hasse", "cayley"])
@pytest.mark.parametrize("shape", CLASS_SHAPES, ids=lambda s: f"{s.n}x{s.m}")
def test_graph_json_chunks_match_the_dict_oracle(shape, mode):
    """The streamed text is json.dumps(..., indent=2) of the dict document,
    byte for byte, on the windows of the build oracle; a single degree has
    no edges in either mode."""
    mn = shape.n * shape.m
    for lo, hi in ((-mn - 2, mn + 1), (-3, -3), (5, 5), (-1, 2 * mn)):
        graph = build_graph(shape, lo, hi, mode)
        text = "".join(graph_json_chunks(graph))
        assert text == json.dumps(oracle_graph_json(graph), indent=2), (lo, hi)
        assert text.endswith('"edges": []\n}') == (lo == hi), (lo, hi)


@pytest.mark.parametrize("shape", CLASS_SHAPES, ids=lambda s: f"{s.n}x{s.m}")
def test_degree_json_chunks_match_class_json(shape):
    for d in (-shape.n * shape.m - 1, 0, 7):
        classes = classes_at_degree(shape, d)
        obj = {"n": shape.n, "m": shape.m, "degree": d, "classes": [class_json(c) for c in classes]}
        assert "".join(degree_json_chunks(shape, d, classes)) == json.dumps(obj, indent=2), d


def test_graph_json_renders_each_diagram_once(monkeypatch):
    """One period of 5x6 has 13 860 representatives but only C(11, 5) = 462
    distinct diagrams, and each diagram's word is rendered once."""
    calls = []
    exact = orbit.word_of_diagram

    def counting(shape, parts):
        calls.append(parts)
        return exact(shape, parts)

    graph = build_graph(RectShape(5, 6), 0, 29, "hasse")
    monkeypatch.setattr(orbit, "word_of_diagram", counting)
    assert sum(len(c.reps) for c in graph.vertices) == 13_860
    assert "".join(graph_json_chunks(graph)).count('"word"') == 13_860
    assert len(calls) <= comb(11, 5)


def test_build_graph_acts_on_one_degree_only(monkeypatch):
    """One degree is enumerated and acted on, and each graph edge costs at
    most one root rotation on top of the one ``out_edges`` makes per base
    out-edge."""
    calls = {"classes_at_degree": 0, "out_edges": 0, "rotate_root": 0}

    def counting(name):
        exact = getattr(orbit, name)

        def wrapper(*args):
            calls[name] += 1
            return exact(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(orbit, name, counting(name))
    graph = build_graph(S34, -20, 30, "cayley")
    assert len(graph.vertices) == 51 * classes_per_degree(S34)
    assert calls["classes_at_degree"] == 1
    assert calls["out_edges"] == classes_per_degree(S34)
    base_edges = 2 * comb(S34.size - 2, S34.n - 1)
    assert calls["rotate_root"] <= len(graph.edges) + base_edges


def test_build_graph_refuses_windows_over_the_vertex_cap(monkeypatch):
    monkeypatch.setattr(orbit, "MAX_GRAPH_VERTICES", 10)
    assert len(build_graph(S23, 0, 4).vertices) == 10
    with pytest.raises(GraphTooLarge, match="12 classes"):
        build_graph(S23, 0, 5)


def test_classes_at_degree_refuses_a_degree_over_the_cap_promptly():
    start = time.perf_counter()
    with pytest.raises(GraphTooLarge, match="classes in degree 0"):
        classes_at_degree(RectShape(13, 17), 0)
    assert time.perf_counter() - start < 0.5


def test_shifted_class_is_the_class_of_the_shifted_pair():
    for shape in (S23, S34):
        for cls in classes_at_degree(shape, 0):
            for s in (-7, 1, 13):
                assert cls.shifted(s) == enumerate_class(shape, (cls.canonical.diagram, cls.canonical.k + s))


def test_graph_json_and_dot_output():
    graph = build_graph(S23, 0, 2, "hasse")
    obj = json.loads("".join(graph_json_chunks(graph)))
    assert obj == oracle_graph_json(graph)
    assert obj["n"] == 2 and obj["m"] == 3
    assert len(obj["classes"]) == 6
    assert json.loads(json.dumps(obj)) == obj
    ids = {class_id(c) for c in graph.vertices}
    assert {e["src"] for e in obj["edges"]} <= ids
    dot = "".join(graph_dot(graph))
    assert dot.startswith("digraph classes {")
    for cid in ids:
        assert f'"{cid}"' in dot
    assert "rank=same" in dot


def test_class_json_shape():
    obj = class_json(enumerate_class(S23, ((3, 1), 0)))
    assert obj["degree"] == 4
    assert obj["canonical"] == {"partition": [3, 2], "k": -1}
    assert len(obj["reps"]) == 5
    assert obj["reps"][0]["word"] == "rrdrd"


def test_noncoprime_and_tiny_guards():
    with pytest.raises(NonCoprimeShape):
        enumerate_class(RectShape(2, 2), ((0, 0), 0))
    with pytest.raises(NonCoprimeShape):
        classes_at_degree(RectShape(4, 6), 0)
    with pytest.raises(ShapeUnsupported):
        enumerate_class(RectShape(1, 1), ((0,), 0))


@settings(deadline=None)
@given(st.sampled_from(CLASS_SHAPES), st.data(), st.integers(-30, 30))
def test_class_anatomy_random(shape, data, k):
    parts = data.draw(st.sampled_from(sorted(all_diagrams(shape))))
    cls = enumerate_class(shape, (parts, k))
    ks = [rep.k for rep in cls.reps]
    assert len(cls.reps) == shape.size
    assert len(set(ks)) == len(ks)
    assert len({rep.diagram for rep in cls.reps}) == len(cls.reps)
    assert {rep.degree() for rep in cls.reps} == {sum(parts) + k}
    assert cls.canonical.k == min(ks)
    again = enumerate_class(shape, cls.reps[-1])
    assert again == cls
