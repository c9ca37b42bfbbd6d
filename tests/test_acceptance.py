"""Acceptance criteria, one test per criterion, one printed line each.

Class-level sweeps use one degree period [0, mn) unless the criterion names
a window: the degree-shift bijection (checked in criterion 2) carries every
class into that window, so the period is exhaustive up to that symmetry.
"""

import time

import pytest

from oddbox import affine, orbit, rect, reflect

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
        mn = shape.n * shape.m
        for d in range(0, 2 * mn):
            for cls in orbit.classes_at_degree(shape, d):
                ks = [rep.k for rep in cls.reps]
                if len(cls.reps) != shape.size:
                    bad.append(f"{shape}: size {len(cls.reps)}")
                if len(set(ks)) != len(ks):
                    bad.append(f"{shape}: repeated k in {orbit.class_id(cls)}")
                if len({(rep.diagram, rep.k % mn) for rep in cls.reps}) != len(cls.reps):
                    bad.append(f"{shape}: repeated rep mod {mn} in {orbit.class_id(cls)}")
                if {rep.degree() for rep in cls.reps} != {d}:
                    bad.append(f"{shape}: mixed degrees in {orbit.class_id(cls)}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        bad.append(f"sweep took {elapsed:.1f}s, budget 10s")
    report(1, bad, f"[{elapsed:.1f}s over {len(SIX_SHAPES)} shapes]")


def test_02_counting_and_periodicity():
    bad = []
    expected = {(2, 3): 2, (3, 4): 5, (4, 5): 14}
    for (n, m), count in expected.items():
        shape = rect.RectShape(n, m)
        mn = n * m
        if orbit.classes_per_degree(shape) != count:
            bad.append(f"{shape}: formula gives {orbit.classes_per_degree(shape)}")
        for d in range(0, 2 * mn):
            got = orbit.classes_at_degree(shape, d)
            if len(got) != count:
                bad.append(f"{shape}: degree {d} has {len(got)} classes")
        for d in range(0, mn):
            now = orbit.classes_at_degree(shape, d)
            shifted = {
                orbit.enumerate_class(shape, (c.canonical.diagram, c.canonical.k + mn)).canonical
                for c in now
            }
            later = {c.canonical for c in orbit.classes_at_degree(shape, d + mn)}
            if shifted != later:
                bad.append(f"{shape}: shift at degree {d} not a bijection")
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
        cls = orbit.enumerate_class(S34, pair)
        b = affine.anchor_at(affine.borel_of_class(cls), pair)
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
        nu = lambda r: rect.rotate_root(shape, r, 0, 1)
        eta = lambda r: rect.rotate_root(shape, r, 1, 0)
        for parts in rect.all_diagrams(shape):
            word = rect.word_of_diagram(shape, parts)
            shuf = rect.shuffle_of_word(shape, word)
            flags = reflect.edge_flags(shape, parts)
            for root in orbit.all_signed_roots(shape):
                if not reflect.admits(shape, parts, root):
                    for apply_fn, arg in ((reflect.p_apply, word), (reflect.r_apply, shuf)):
                        try:
                            apply_fn(shape, arg, root)
                            bad.append(f"{shape} {parts} {rect.render_root(root)}: defined on one carrier only")
                        except reflect.NotSimple:
                            pass
                    continue
                moved = reflect.t_apply(shape, parts, root)
                moved_word = reflect.p_apply(shape, word, root)
                moved_shuf = reflect.r_apply(shape, shuf, root)
                if rect.word_of_diagram(shape, moved) != moved_word:
                    bad.append(f"{shape} {parts}: diagram/word square")
                if rect.shuffle_of_word(shape, moved_word) != moved_shuf:
                    bad.append(f"{shape} {parts}: word/shuffle square")
                if reflect.t_apply(shape, moved, root.negated()) != parts:
                    bad.append(f"{shape} {parts}: involution")
                if root.sign > 0:
                    for which, turn, eligible in (
                        ("-r", nu, flags.row_full),
                        ("-c", eta, flags.col_full),
                    ):
                        if not eligible:
                            continue
                        down = reflect.diagram_edge(shape, parts, which)
                        turned = turn(root)
                        if not reflect.admits(shape, down, turned):
                            bad.append(f"{shape} {parts} {which}: turned root rejected")
                            continue
                        if reflect.diagram_edge(shape, moved, which) != reflect.t_apply(shape, down, turned):
                            bad.append(f"{shape} {parts} {which}: diagram compatibility")
                        if reflect.word_edge(shape, moved_word, which) != reflect.p_apply(
                            shape, reflect.word_edge(shape, word, which), turned
                        ):
                            bad.append(f"{shape} {parts} {which}: word compatibility")
                        if reflect.shuffle_edge(shape, moved_shuf, which) != reflect.r_apply(
                            shape, reflect.shuffle_edge(shape, shuf, which), turned
                        ):
                            bad.append(f"{shape} {parts} {which}: shuffle compatibility")
    report(6, bad, f"[{len(COPRIME_9)} shapes]")


def test_07_action_well_defined():
    bad = []
    for shape in CLASS_9:
        mn = shape.n * shape.m
        for d in range(0, mn):
            for cls in orbit.classes_at_degree(shape, d):
                for root in orbit.all_signed_roots(shape):
                    targets = {
                        orbit.enumerate_class(
                            shape, (reflect.t_apply(shape, rep.diagram, rot), rep.k)
                        ).canonical
                        for rep, rot in orbit.admitting_reps(cls, root)
                    }
                    if len(targets) > 1:
                        bad.append(f"{shape} {orbit.class_id(cls)} {rect.render_root(root)}")
    report(7, bad, f"[{len(CLASS_9)} shapes]")


def test_08_refinement_and_bijection():
    bad = []
    for shape, hi in ((S23, 6), (S34, 11)):
        for d in range(0, shape.n * shape.m):
            for cls in orbit.classes_at_degree(shape, d):
                split = orbit.approx_decompose(cls)
                if len(split) != shape.m or any(not part for part in split):
                    bad.append(f"{shape} {orbit.class_id(cls)}: bad refinement split")
        report_obj = orbit.vss_check(shape, 0, hi)
        bad.extend(f"{shape}: {v}" for v in report_obj.violations)
    report(8, bad)


def test_09_borel_pairing():
    bad = []
    for shape in (S23, S34):
        mn = shape.n * shape.m
        atlas = affine.BorelAtlas(shape)
        one = affine.dbar_root(shape)
        seen = {}
        for d in range(-mn, mn + 1):
            for cls in orbit.classes_at_degree(shape, d):
                b = atlas.borel_of_class(cls)
                if b.dk.node_sum() != one:
                    bad.append(f"{shape} {orbit.class_id(cls)}: node sum")
                if any(sum(row) != 0 for row in b.dk.gram()):
                    bad.append(f"{shape} {orbit.class_id(cls)}: gram row sums")
                key = tuple(sorted(b.dk.nodes))
                if key in seen:
                    bad.append(f"{shape}: {orbit.class_id(cls)} collides with {seen[key]}")
                seen[key] = orbit.class_id(cls)
                if affine.class_of_borel(b).canonical != cls.canonical:
                    bad.append(f"{shape} {orbit.class_id(cls)}: inverse fails")
                for root in orbit.all_signed_roots(shape):
                    try:
                        image = orbit.act(cls, root)
                    except orbit.UndefinedMorphism:
                        image = None
                    try:
                        moved = affine.borel_act(b, root)
                    except orbit.UndefinedMorphism:
                        moved = None
                    if (image is None) != (moved is None):
                        bad.append(f"{shape} {orbit.class_id(cls)} {rect.render_root(root)}: definedness")
                        continue
                    if image is None:
                        continue
                    if moved.dk.node_sum() != one or any(sum(row) != 0 for row in moved.dk.gram()):
                        bad.append(f"{shape} {orbit.class_id(cls)} {rect.render_root(root)}: invariants after reflection")
                    if atlas.borel_of_class(image).dk != moved.dk:
                        bad.append(f"{shape} {orbit.class_id(cls)} {rect.render_root(root)}: equivariance")
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
        lambda: orbit.vss_check(shape, 0, 1),
        lambda: affine.BorelAtlas(shape),
    ):
        with pytest.raises(rect.NonCoprimeShape):
            call()
    report(10, bad)
