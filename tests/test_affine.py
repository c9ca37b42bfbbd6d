import pytest

from oddbox.affine import (
    BorelAtlas,
    DeletedNode,
    GlobalRoot,
    NotIsotropic,
    NotTypeA,
    affine_reflect,
    anchor_at,
    basis_root,
    borel_act,
    borel_at,
    borel_json,
    borel_of_class,
    class_of_borel,
    dbar_root,
    dta_words,
    extend,
    global_root_of_pair,
    gram,
    node_move,
    step_forward,
    transitions,
    words_from_greys,
)
from oddbox.orbit import UndefinedMorphism, act, all_signed_roots, classes_at_degree, enumerate_class
from oddbox.rect import (
    NonCoprimeShape,
    OddRoot,
    RectShape,
    ShapeUnsupported,
    identity_shuffle,
    render_shuffle,
    rotate_word,
    shuffle_of_diagram,
)
from oddbox.reflect import NotEligible

from conftest import oracle_borel_search

S23 = RectShape(2, 3)
S34 = RectShape(3, 4)


def vec(shape, **coeffs):
    """Global root from keyword coefficients like e1=1, d2=-1, dbar=1."""
    eps = [0] * shape.n
    dels = [0] * shape.m
    dbar = coeffs.pop("dbar", 0)
    for name, value in coeffs.items():
        index = int(name[1:]) - 1
        if name.startswith("e"):
            eps[index] = value
        else:
            dels[index] = value
    return GlobalRoot(tuple(eps), tuple(dels), dbar)


def test_global_root_arithmetic_and_form():
    a = vec(S23, e1=1, d2=-1)
    b = vec(S23, e1=1, e2=-1)
    assert (a + b) == vec(S23, e1=2, e2=-1, d2=-1)
    assert -a == vec(S23, e1=-1, d2=1)
    assert b.pair(b) == 2
    assert a.pair(a) == 0 and a.isotropic
    assert vec(S23, d1=1, d2=-1).pair(vec(S23, d1=1, d2=-1)) == -2
    assert dbar_root(S23).pair(a) == 0 and dbar_root(S23).isotropic


def test_global_root_render():
    assert vec(S34, dbar=1, d1=-1, e3=1).render() == "dbar - d1 + e3"
    assert vec(S34, dbar=-1, d1=1, e3=-1).render() == "-dbar + d1 - e3"
    assert vec(S23, e1=1, e2=-1).render() == "e1 - e2"
    assert vec(S23, e2=1, d2=-1).render() == "-d2 + e2"
    assert GlobalRoot((0, 0), (0, 0, 0), 0).render() == "0"


def test_basis_and_pair_roots():
    assert basis_root(S23, 1) == vec(S23, e1=1)
    assert basis_root(S23, 4) == vec(S23, d2=1)
    assert global_root_of_pair(S23, (2, 3)) == vec(S23, e2=1, d1=-1)


def test_extend_examples():
    hook = extend(S34, shuffle_of_diagram(S34, (4, 1, 1)))
    assert hook.dk.nodes[0] == vec(S34, dbar=1, d1=-1, e3=1)
    assert hook.deleted == 0 and hook.k == 0
    assert hook.dk.node_sum() == dbar_root(S34)

    distinguished = extend(S23, identity_shuffle(S23))
    assert distinguished.dk.nodes[0] == vec(S23, dbar=1, e1=-1, d3=1)
    assert distinguished.dk.node_sum() == dbar_root(S23)
    assert [g for g in distinguished.dk.greys] == [True, False, True, False, False]


def test_extend_rejects_square_shapes():
    with pytest.raises(ShapeUnsupported):
        extend(RectShape(1, 1), (1, 2))
    with pytest.raises(ShapeUnsupported):
        extend(RectShape(2, 2), (1, 2, 3, 4))


def test_simple_global_reduce_to_finite_roots_at_k_zero():
    for parts in [(0, 0), (3, 1), (2, 2)]:
        b = extend(S23, shuffle_of_diagram(S23, parts))
        for root in b.simple_global():
            assert root.dbar == 0


GLH_ROWS = {
    "hook": ["d1 - e1", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4", "d4 - e3"],
    "row_deleted": ["dbar - d1 + e3", "d1 - e1", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4"],
    "reflected": ["-dbar + d1 - e3", "dbar - e1 + e3", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4"],
    "empty_seven": ["dbar - e1 + e3", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4", "dbar - d1 + d4"],
}


def test_node_move_and_reflection_reproduce_global_name_table():
    b0 = extend(S34, shuffle_of_diagram(S34, (4, 1, 1)))
    assert [r.render() for r in b0.simple_global()] == GLH_ROWS["hook"]
    b1 = node_move(b0, "-r")
    assert [r.render() for r in b1.simple_global()] == GLH_ROWS["row_deleted"]
    assert (b1.diagram(), b1.k) == ((1, 1, 0), 4)
    assert b1.deleted == 6
    b2 = affine_reflect(b1, 0)
    assert [r.render() for r in b2.simple_global()] == GLH_ROWS["reflected"]
    assert (b2.diagram(), b2.k) == ((1, 1, 1), 4)
    b3 = node_move(b2, "-c")
    assert [r.render() for r in b3.simple_global()] == GLH_ROWS["empty_seven"]
    assert (b3.diagram(), b3.k) == ((0, 0, 0), 7)
    assert b3.deleted == 0
    for b in (b0, b1, b2, b3):
        assert b.dk.node_sum() == dbar_root(S34)


def test_node_move_directions_and_inverses():
    b = extend(S23, shuffle_of_diagram(S23, (3, 1)))
    down = node_move(b, "-r")
    assert down.deleted == (b.deleted - 1) % 5
    assert node_move(down, "+r") == b
    wide = node_move(b, "-c")
    assert wide.deleted == (b.deleted + 1) % 5
    assert node_move(wide, "+c") == b
    with pytest.raises(NotEligible):
        node_move(b, "+r")
    with pytest.raises(ValueError):
        node_move(b, "++r")


def test_anchor_walks_the_full_cycle():
    b = extend(S23, identity_shuffle(S23))
    cur = b
    seen = set()
    for _ in range(5):
        seen.add(cur.pair())
        assert cur.dk == b.dk
        cur = step_forward(cur)
    assert cur == b
    assert seen == set(enumerate_class(S23, ((0, 0), 0)).reps)
    re_anchored = anchor_at(b, ((2, 2), -4))
    assert re_anchored.pair() == ((2, 2), -4)


def test_node_move_keeps_local_in_same_class():
    b = extend(S34, shuffle_of_diagram(S34, (4, 1, 1)))
    cls = enumerate_class(S34, b.pair())
    for which in ("-r", "-c"):
        assert node_move(b, which).pair() in cls.reps


def test_affine_reflect_guards_and_involution():
    b = extend(S23, identity_shuffle(S23))
    with pytest.raises(DeletedNode):
        affine_reflect(b, 0)
    with pytest.raises(NotIsotropic):
        affine_reflect(b, 1)
    twice = affine_reflect(affine_reflect(b, 2), 2)
    assert twice == b


def test_affine_reflect_preserves_invariants():
    b = affine_reflect(node_move(extend(S34, shuffle_of_diagram(S34, (4, 1, 1))), "-r"), 0)
    assert b.dk.node_sum() == dbar_root(S34)
    greys = b.dk.greys
    assert sum(greys) % 2 == 0 and sum(greys) > 0
    matrix = b.dk.gram()
    assert all(sum(row) == 0 for row in matrix)


def test_gram_of_distinguished_shape():
    b = extend(S23, identity_shuffle(S23))
    finite = gram(b)
    assert finite == [
        [2, -1, 0, 0],
        [-1, 0, 1, 0],
        [0, 1, -2, 1],
        [0, 0, 1, -2],
    ]
    full = gram(b.dk)
    assert all(sum(row) == 0 for row in full)
    assert [full[t][t] for t in range(5)] == [0, 2, 0, -2, -2]
    for t in range(5):
        for u in range(5):
            assert full[t][u] == full[u][t]


def test_second_affinization_example():
    sigma = shuffle_of_diagram(S23, (3, 1))
    tau = node_move(extend(S23, sigma), "-r")
    assert render_shuffle(S23, tau.shuffle) == "1,1',2,2',3'"
    sigma1 = shuffle_of_diagram(S23, (3, 2))
    tau1 = node_move(extend(S23, sigma1), "-r")
    assert render_shuffle(S23, tau1.shuffle) == "1,1',2',2,3'"
    from oddbox.reflect import r_apply

    assert r_apply(S23, tau.shuffle, OddRoot(1, 2, 2)) == tau1.shuffle


IOB_WORDS = {
    (0, 2): "ddrrr",
    (0, 3): "rrrdd",
    (1, 2, 3, 4): "rdrdr",
}


@pytest.mark.parametrize("greys, word", sorted(IOB_WORDS.items()))
def test_words_from_grey_patterns(greys, word):
    pattern = [t in greys for t in range(5)]
    assert words_from_greys(S23, pattern) == word


def test_dta_words_examples():
    words = dta_words(extend(S23, identity_shuffle(S23)).dk)
    assert words == ("ddrrr", "drrrd", "rrrdd", "rrddr", "rddrr")
    assert all(words[i] == rotate_word(words[0], i) for i in range(5))
    assert dta_words(extend(S23, shuffle_of_diagram(S23, (3, 3))).dk)[0] == "rrrdd"


def test_dta_words_match_extend_grey_patterns():
    from oddbox.rect import shuffle_of_word

    for greys, word in IOB_WORDS.items():
        b = extend(S23, shuffle_of_word(S23, word))
        assert tuple(t for t, g in enumerate(b.dk.greys) if g) == greys
        assert dta_words(b.dk)[0] == word


def test_words_from_greys_rejections():
    with pytest.raises(NotTypeA):
        words_from_greys(S23, [True, False, False, False, False])
    with pytest.raises(NotTypeA):
        words_from_greys(S23, [True, True, False, False, False])
    with pytest.raises(ShapeUnsupported):
        words_from_greys(RectShape(2, 2), [True, True, False, False])
    with pytest.raises(ValueError):
        words_from_greys(S23, [True, True])


def test_atlas_base_point():
    base_class = enumerate_class(S23, ((0, 0), 0))
    b = borel_of_class(base_class)
    reference = extend(S23, identity_shuffle(S23))
    assert b.dk == reference.dk
    assert anchor_at(b, ((0, 0), 0)) == reference


def test_borel_class_roundtrip():
    cls = enumerate_class(S23, ((3, 1), 0))
    assert class_of_borel(borel_of_class(cls)) == cls
    cls34 = enumerate_class(S34, ((4, 1, 1), 0))
    assert class_of_borel(borel_of_class(cls34)) == cls34


def test_class_of_borel_rejects_desynced_input():
    b = extend(S23, identity_shuffle(S23))
    broken = type(b)(b.dk, b.deleted, shuffle_of_diagram(S23, (3, 1)), 5)
    with pytest.raises(ValueError):
        class_of_borel(broken)


def test_borel_of_class_matches_global_name_table():
    cls = enumerate_class(S34, ((4, 1, 1), 0))
    b = anchor_at(borel_of_class(cls), ((4, 1, 1), 0))
    assert [r.render() for r in b.simple_global()] == GLH_ROWS["hook"]
    empty7 = enumerate_class(S34, ((0, 0, 0), 7))
    b7 = anchor_at(borel_of_class(empty7), ((0, 0, 0), 7))
    assert [r.render() for r in b7.simple_global()] == GLH_ROWS["empty_seven"]


def test_borel_act_equivariance_spot():
    from oddbox.orbit import admitting_reps

    cls = enumerate_class(S23, ((3, 1), 0))
    b = borel_of_class(cls)
    root = OddRoot(1, 2, 1)
    moved = borel_act(b, root)
    assert moved.dk == borel_of_class(act(cls, root)).dk
    undefined = next(r for r in all_signed_roots(S23) if not admitting_reps(cls, r))
    with pytest.raises(UndefinedMorphism):
        borel_act(b, undefined)


def test_atlas_distinct_diagrams_over_window():
    atlas = BorelAtlas(S23)
    seen = set()
    for d in range(-3, 7):
        for cls in classes_at_degree(S23, d):
            key = tuple(sorted(atlas.borel_of_class(cls).dk.nodes))
            assert key not in seen
            seen.add(key)


def test_atlas_guards():
    with pytest.raises(NonCoprimeShape):
        BorelAtlas(RectShape(2, 2))
    with pytest.raises(ShapeUnsupported):
        BorelAtlas(RectShape(1, 1))


def test_atlas_replay_matches_direct_extension():
    """Dual route: the pairing of classes must reproduce, for every
    diagram at k = 0, the Borel built directly from its shuffle."""
    from oddbox.rect import all_diagrams

    for shape in (S23, S34, RectShape(1, 4)):
        atlas = BorelAtlas(shape)
        for parts in all_diagrams(shape):
            direct = extend(shape, shuffle_of_diagram(shape, parts))
            cls = enumerate_class(shape, (parts, 0))
            assert anchor_at(atlas.borel_of_class(cls), (parts, 0)) == direct


def test_equivariance_sampled_on_larger_shape():
    shape = RectShape(3, 5)
    atlas = BorelAtlas(shape)
    for d in (0, 3, 7):
        for cls in classes_at_degree(shape, d)[:3]:
            b = atlas.borel_of_class(cls)
            for root in all_signed_roots(shape)[::4]:
                try:
                    image = act(cls, root)
                except UndefinedMorphism:
                    with pytest.raises(UndefinedMorphism):
                        borel_act(b, root)
                    continue
                assert borel_act(b, root).dk == atlas.borel_of_class(image).dk


def test_random_walk_preserves_diagram_invariants():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from([S23, S34, RectShape(2, 5)]),
        st.lists(st.integers(0, 10**6), max_size=25),
    )
    def walk(shape, choices):
        one = dbar_root(shape)
        b = extend(shape, identity_shuffle(shape))
        for pick in choices:
            moves = []
            for which in ("-r", "+r", "-c", "+c"):
                try:
                    moves.append(node_move(b, which))
                except NotEligible:
                    pass
            for node in range(b.dk.size):
                if node != b.deleted and b.dk.nodes[node].isotropic:
                    moves.append(affine_reflect(b, node))
            b = moves[pick % len(moves)]
            assert b.dk.node_sum() == one
            greys = b.dk.greys
            assert sum(greys) % 2 == 0 and sum(greys) >= 2
            matrix = b.dk.gram()
            assert all(sum(row) == 0 for row in matrix)
            assert all(matrix[t][t] in (2, -2, 0) for t in range(b.dk.size))
            assert dta_words(b.dk)[b.deleted] == b.word()

    walk()


def test_borel_json_schema():
    b = anchor_at(borel_of_class(enumerate_class(S34, ((4, 1, 1), 0))), ((4, 1, 1), 0))
    obj = borel_json(b)
    assert obj["deleted"] == 0
    assert obj["local"] == {"partition": [4, 1, 1], "k": 0}
    assert obj["nodes"][0] == {"root": "dbar - d1 + e3", "grey": True}
    assert len(obj["nodes"]) == 7


@pytest.mark.parametrize(
    "nm", [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (1, 4)], ids=lambda nm: f"{nm[0]}x{nm[1]}"
)
def test_borel_at_matches_search(nm):
    """The closed form agrees with the search at every anchor of degree -2mn..2mn."""
    shape = RectShape(*nm)
    mn = shape.n * shape.m
    found = oracle_borel_search(shape, -2 * mn, 2 * mn)
    classes = sum(len(classes_at_degree(shape, d)) for d in range(-2 * mn, 2 * mn + 1))
    assert len(found) == classes * shape.size
    for pair, b in found.items():
        assert borel_at(shape, pair) == b


def test_borel_at_far_from_zero():
    """Periodicity in k and the diagram invariants hold out to |k| = 10^6."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    shapes = [S23, S34, RectShape(2, 5), RectShape(5, 8), RectShape(7, 9)]

    @st.composite
    def anchors(draw):
        shape = draw(st.sampled_from(shapes))
        parts = draw(st.lists(st.integers(0, shape.m), min_size=shape.n, max_size=shape.n))
        return shape, tuple(sorted(parts, reverse=True)), draw(st.integers(-10**6 + 500, 10**6 - 500))

    @settings(deadline=None, max_examples=150)
    @given(anchors(), st.integers(-5, 5))
    def check(anchor, q):
        shape, parts, k = anchor
        b = borel_at(shape, (parts, k))
        assert b.pair() == (parts, k)
        assert b.dk.node_sum() == dbar_root(shape)
        assert all(sum(row) == 0 for row in b.dk.gram())
        greys = sum(b.dk.greys)
        assert greys > 0 and greys % 2 == 0
        assert dta_words(b.dk)[b.deleted] == b.word()
        for nb in transitions(b):
            assert nb == borel_at(shape, nb.pair())
        turn = q * shape.m
        far = borel_at(shape, (parts, k + q * shape.n * shape.m))
        assert far.deleted == (b.deleted + turn) % shape.size
        for t, r in enumerate(b.dk.nodes):
            raised = GlobalRoot(r.eps, r.dels, r.dbar + q * sum(r.eps))
            assert far.dk.nodes[(t + turn) % shape.size] == raised

    check()
