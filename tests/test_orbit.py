import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CLASS_SHAPES, oracle_build_graph
from oddbox import orbit, verify
from oddbox.orbit import (
    AnchoredPair,
    GraphTooLarge,
    OrbitClass,
    UndefinedMorphism,
    act,
    admitting_reps,
    all_signed_roots,
    approx_decompose,
    build_graph,
    class_id,
    class_json,
    classes_at_degree,
    classes_per_degree,
    edge_shift,
    enumerate_class,
    graph_dot,
    graph_json,
    row_class,
)
from oddbox.rect import (
    NonCoprimeShape,
    OddRoot,
    RectShape,
    ShapeUnsupported,
    all_diagrams,
    word_of_diagram,
)
from oddbox.reflect import EDGE_OPS, NotEligible, diagram_edge, t_apply

S23 = RectShape(2, 3)
S34 = RectShape(3, 4)


def closure_by_raw_moves(shape, pair):
    """Independent oracle: close under the four moves with their k shifts."""
    seen = {AnchoredPair(tuple(pair[0]), pair[1])}
    frontier = list(seen)
    while frontier:
        nxt = []
        for parts, k in frontier:
            for which in EDGE_OPS:
                try:
                    moved = diagram_edge(shape, parts, which)
                except NotEligible:
                    continue
                q = AnchoredPair(moved, k + edge_shift(shape, which))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


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
    for shape in (S23, S34):
        for d in range(0, shape.n * shape.m + 1):
            for cls in classes_at_degree(shape, d):
                for root in all_signed_roots(shape):
                    hits = admitting_reps(cls, root)
                    targets = {
                        enumerate_class(shape, (t_apply(shape, rep.diagram, rot), rep.k)).canonical
                        for rep, rot in hits
                    }
                    assert len(targets) <= 1
                    if hits:
                        assert act(cls, root).canonical == targets.pop()


def test_act_undefined_raises():
    cls = enumerate_class(S23, ((0, 0), 0))
    undefined = [r for r in all_signed_roots(S23) if not admitting_reps(cls, r)]
    assert undefined
    with pytest.raises(UndefinedMorphism):
        act(cls, undefined[0])


def test_act_restricts_to_plain_action_at_k_zero():
    for shape in (S23, RectShape(2, 5)):
        assert verify._plain_embedding(shape, None) == []


def test_classes_at_degree_counts():
    assert len(classes_at_degree(S23, 0)) == 2
    assert {class_id(c) for c in classes_at_degree(S23, 0)} == {"3,3@-6", "3,2@-5"}
    for d in range(-3, 9):
        assert len(classes_at_degree(S23, d)) == 2
        assert len(classes_at_degree(S34, d)) == 5
    assert classes_per_degree(RectShape(4, 5)) == 14


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
    assert isinstance(rc, OrbitClass)
    assert rc.reps == (((3, 3), -6), ((3, 0), -3), ((0, 0), 0))
    for (p1, k1), (p2, k2) in zip(rc.reps, rc.reps[1:]):
        assert diagram_edge(S23, p1, "-r") == p2 and k2 == k1 + S23.m
    single = row_class(S23, ((2, 1), 0))
    assert single.reps == (((2, 1), 0),)


def test_vss_check_noncoprime():
    with pytest.raises(NonCoprimeShape):
        verify._vss(RectShape(2, 2), (0, 3))


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
        got = graph_json(build_graph(shape, lo, hi, mode))
        assert got == graph_json(oracle_build_graph(shape, lo, hi, mode)), (lo, hi)


def test_build_graph_acts_on_one_degree_only(monkeypatch):
    calls = {"classes_at_degree": 0, "act": 0}

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
    assert calls["act"] <= classes_per_degree(S34) * len(all_signed_roots(S34))


def test_build_graph_refuses_windows_over_the_vertex_cap(monkeypatch):
    monkeypatch.setattr(orbit, "MAX_GRAPH_VERTICES", 10)
    assert len(build_graph(S23, 0, 4).vertices) == 10
    with pytest.raises(GraphTooLarge, match="12 classes"):
        build_graph(S23, 0, 5)


def test_shifted_class_is_the_class_of_the_shifted_pair():
    for shape in (S23, S34):
        for cls in classes_at_degree(shape, 0):
            for s in (-7, 1, 13):
                assert cls.shifted(s) == enumerate_class(shape, (cls.canonical.diagram, cls.canonical.k + s))


def test_graph_json_and_dot_output():
    graph = build_graph(S23, 0, 2, "hasse")
    obj = graph_json(graph)
    assert obj["n"] == 2 and obj["m"] == 3
    assert len(obj["classes"]) == 6
    assert json.loads(json.dumps(obj)) == obj
    ids = {class_id(c) for c in graph.vertices}
    assert {e["src"] for e in obj["edges"]} <= ids
    dot = graph_dot(graph)
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
