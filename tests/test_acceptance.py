"""Acceptance criteria, one test per criterion, one printed line each.

Class-level sweeps use one degree period [0, mn) unless the criterion names
a window: the degree-shift bijection (checked in criterion 2) carries every
class into that window, so the period is exhaustive up to that symmetry.
Criteria 01, 02 and 06-09 call the ``oddbox.verify`` checks that own their
invariants, each over the criterion's own shapes and windows.
"""

import time

import pytest

from oddbox import affine, orbit, rect, reflect, verify

SIX_SHAPES = [rect.RectShape(*nm) for nm in [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5)]]
COPRIME_9 = [
    rect.RectShape(n, m)
    for total in range(2, 10)
    for n in range(1, total)
    for m in [total - n]
    if rect.RectShape(n, m).coprime
]
CLASS_9 = [s for s in COPRIME_9 if (s.n, s.m) != (1, 1)]

S23 = rect.RectShape(2, 3)
S34 = rect.RectShape(3, 4)


def report(num: int, violations: list, detail: str = "") -> None:
    status = "PASS" if not violations else f"FAIL ({len(violations)}; first: {violations[0]})"
    print(f"criterion {num:02d} {status} {detail}")
    assert not violations, f"criterion {num}: {violations[:5]}"


def test_01_class_size_and_anatomy():
    bad = []
    started = time.perf_counter()
    for shape in SIX_SHAPES:
        bad.extend(f"{shape}: {v}" for v in verify._class_anatomy(shape, (0, 2 * shape.n * shape.m)))
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        bad.append(f"sweep took {elapsed:.1f}s, budget 10s")
    report(1, bad, f"[{elapsed:.1f}s over {len(SIX_SHAPES)} shapes]")


def test_02_counting_and_periodicity():
    bad = []
    expected = {(2, 3): 2, (3, 4): 5, (4, 5): 14}
    for (n, m), count in expected.items():
        shape = rect.RectShape(n, m)
        if orbit.classes_per_degree(shape) != count:
            bad.append(f"{shape}: formula gives {orbit.classes_per_degree(shape)}")
        bad.extend(f"{shape}: {v}" for v in verify._degree_counts(shape, (0, 2 * n * m)))
    report(2, bad)


E3_VERTICES = [
    ((0, 0), 0), ((1, 0), 0), ((1, 1), 0), ((2, 1), 0),
    ((2, 2), 0), ((3, 2), 0), ((3, 3), 0),
    ((2, 1), -3), ((2, 2), -3), ((2, 0), 0), ((3, 0), 0),
    ((3, 1), 0), ((1, 1), 3), ((2, 1), 3),
]

E3_EDGES = [
    (((3, 1), 0), ((1, 1), 3), rect.OddRoot(1, 2, 1)),
    (((3, 2), 0), ((2, 1), 3), rect.OddRoot(1, 2, 1)),
    (((2, 1), -3), ((1, 0), 0), rect.OddRoot(1, 1, 3)),
    (((2, 2), -3), ((2, 0), 0), rect.OddRoot(1, 1, 3)),
]


def test_03_hasse_window_reproduction():
    bad = []
    graph = orbit.build_graph(S23, 0, 6, "hasse")
    expected = {orbit.enumerate_class(S23, pair).canonical for pair in E3_VERTICES}
    if len(expected) != 14:
        bad.append("the 14 listed pairs do not name 14 distinct classes")
    got = {c.canonical for c in graph.vertices}
    if got != expected:
        bad.append(f"vertex sets differ: {sorted(got ^ expected)}")
    edge_set = {
        (graph.vertices[a].canonical, graph.vertices[b].canonical, root)
        for a, b, root in graph.edges
    }
    for src, dst, root in E3_EDGES:
        key = (
            orbit.enumerate_class(S23, src).canonical,
            orbit.enumerate_class(S23, dst).canonical,
            root,
        )
        if key not in edge_set:
            bad.append(f"missing edge {src} -> {dst} [{rect.render_root(root)}]")
    report(3, bad)


GLH_TABLE = [
    (((4, 1, 1), 0), ["d1 - e1", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4", "d4 - e3"]),
    (((1, 1, 0), 4), ["dbar - d1 + e3", "d1 - e1", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4"]),
    (((1, 1, 1), 4), ["-dbar + d1 - e3", "dbar - e1 + e3", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4"]),
    (((0, 0, 0), 7), ["dbar - e1 + e3", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4", "dbar - d1 + d4"]),
]


def test_04_global_name_table_reproduction():
    bad = []
    for pair, expected in GLH_TABLE:
        b = affine.borel_at(S34, pair)
        got = [r.render() for r in b.simple_global()]
        if got != expected:
            bad.append(f"{pair}: {got}")
    report(4, bad)


def test_05_word_extraction_reproduction():
    bad = []
    patterns = {(0, 2): "ddrrr", (0, 3): "rrrdd", (1, 2, 3, 4): "rdrdr"}
    for greys, word in patterns.items():
        flags = [t in greys for t in range(5)]
        got = affine.words_from_greys(S23, flags)
        if got != word:
            bad.append(f"greys {greys}: got {got}")
        b = affine.extend(S23, rect.shuffle_of_word(S23, word))
        if tuple(t for t, g in enumerate(b.dk.greys) if g) != greys:
            bad.append(f"extend({word}) has greys {b.dk.greys}")
    first = affine.extend(S23, rect.identity_shuffle(S23)).dk
    words = affine.dta_words(first)
    if words != tuple(rect.rotate_word("ddrrr", i) for i in range(5)):
        bad.append(f"rotation family wrong: {words}")
    report(5, bad)


def test_06_identity_suites():
    bad = []
    for shape in COPRIME_9:
        for check in (verify._corner_actions, verify._row_col_compat):
            bad.extend(f"{shape}: {v}" for v in check(shape, None))
    report(6, bad, f"[{len(COPRIME_9)} shapes]")


def test_07_action_well_defined():
    bad = []
    for shape in CLASS_9:
        bad.extend(f"{shape}: {v}" for v in verify._action_well_defined(shape, (0, shape.n * shape.m)))
    report(7, bad, f"[{len(CLASS_9)} shapes]")


def test_08_refinement_and_bijection():
    bad = []
    for shape, hi in ((S23, 6), (S34, 11)):
        bad.extend(f"{shape}: {v}" for v in verify._approx_parts(shape, (0, shape.n * shape.m)))
        bad.extend(f"{shape}: {v}" for v in verify._vss(shape, (0, hi + 1)))
    report(8, bad)


def test_09_borel_pairing():
    bad = []
    for shape in (S23, S34):
        mn = shape.n * shape.m
        for check in (verify._borel_invariants, verify._borel_bijection, verify._borel_equivariance):
            bad.extend(f"{shape}: {v}" for v in check(shape, (-mn, mn + 1)))
    report(9, bad)


def test_10_noncoprime_guard():
    bad = []
    shape = rect.RectShape(2, 2)
    start = orbit.AnchoredPair((2, 2), -2)
    chain = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for parts, k in frontier:
            for which in reflect.EDGE_OPS:
                try:
                    moved = reflect.diagram_edge(shape, parts, which)
                except reflect.NotEligible:
                    continue
                q = orbit.AnchoredPair(moved, k + orbit.edge_shift(shape, which))
                if q not in chain:
                    chain.add(q)
                    nxt.append(q)
        frontier = nxt
    if orbit.AnchoredPair((2, 0), 0) not in chain or orbit.AnchoredPair((1, 1), 0) not in chain:
        bad.append(f"collision chain not reproduced: {sorted(chain)}")
    if (2, 0) == (1, 1):
        bad.append("endpoints unexpectedly equal")
    for call in (
        lambda: orbit.enumerate_class(shape, ((0, 0), 0)),
        lambda: orbit.classes_at_degree(shape, 0),
        lambda: orbit.build_graph(shape, 0, 1),
        lambda: verify._vss(shape, (0, 2)),
        lambda: affine.borel_at(shape, ((0, 0), 0)),
    ):
        with pytest.raises(rect.NonCoprimeShape):
            call()
    report(10, bad)
