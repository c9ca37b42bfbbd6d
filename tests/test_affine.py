from itertools import permutations
from operator import add, mul, neg

import pytest

from oddbox import affine
from oddbox.affine import (
    BorelAtlas,
    CyclicDK,
    GlobalRoot,
    NotIsotropic,
    NotTypeA,
    borel_act,
    borel_at,
    borel_json,
    class_of_borel,
    extend,
    reflected_pairs,
    site_pairs,
)
from oddbox.orbit import AnchoredPair, UndefinedMorphism, act, all_signed_roots, classes_at_degree, enumerate_class
from oddbox.rect import (
    NonCoprimeShape,
    OddRoot,
    RectShape,
    ShapeUnsupported,
    all_diagrams,
    diagram_of_word,
    identity_shuffle,
    render_shuffle,
    rotate_word,
    shuffle_of_diagram,
    word_of_diagram,
)
from oddbox.reflect import NotEligible

from conftest import (
    CLASS_SHAPES,
    affine_reflect,
    dense,
    dense_borel,
    dta_words,
    node_move,
    oracle_borel_at,
    oracle_borel_search,
    oracle_enumerate_class,
    oracle_scan,
    oracle_steps,
    site_words,
    words_from_greys,
)

S23 = RectShape(2, 3)
S34 = RectShape(3, 4)


def vec(shape, **coeffs):
    """Dense coefficients (eps, dels, dbar) from keywords like e1=1, d2=-1, dbar=1."""
    eps = [0] * shape.n
    dels = [0] * shape.m
    dbar = coeffs.pop("dbar", 0)
    for name, value in coeffs.items():
        index = int(name[1:]) - 1
        if name.startswith("e"):
            eps[index] = value
        else:
            dels[index] = value
    return tuple(eps), tuple(dels), dbar


def form(x, y):
    """The bilinear form on dense coefficients; dbar contributes nothing."""
    return sum(map(mul, x[0], y[0])) - sum(map(mul, x[1], y[1]))


def simple_gram(b):
    """The Gram matrix of a finite Borel's simple roots, in local order."""
    roots = [dense(b.shape, r) for r in b.simple_global()]
    return [[form(x, y) for y in roots] for x in roots]


def gram_row_sums(dk):
    """The row sums of the full cyclic Gram matrix, pair by pair."""
    roots = [dense(dk.shape, r) for r in dk.nodes]
    return [sum(form(r, s) for s in roots) for r in roots]


def node_sum_is_dbar(dk):
    """``node_sum`` reads 1, and the dense node sum is dbar."""
    eps, dels, dbar = zip(*(dense(dk.shape, r) for r in dk.nodes))
    total = tuple(map(sum, zip(*eps))), tuple(map(sum, zip(*dels))), sum(dbar)
    return dk.node_sum() == 1 and total == vec(dk.shape, dbar=1)


def test_global_root_isotropic_is_the_form():
    """A node is grey exactly when its dense form value is 0; every root
    e_x - e_y + c dbar pairs with itself to 2, -2 or 0."""
    for up, down in permutations([1, 2, -1, -2, -3], 2):
        for c in (-2, 0, 1):
            r = GlobalRoot(up, down, c)
            value = form(dense(S23, r), dense(S23, r))
            assert value in (2, -2, 0) and r.isotropic == (value == 0)
    assert GlobalRoot(1, -2, 0).isotropic and GlobalRoot(-3, 2, 5).isotropic
    assert not GlobalRoot(1, 2, 0).isotropic and not GlobalRoot(-1, -2, 1).isotropic


def test_value_types_of_the_affinization():
    with pytest.raises(ValueError, match="expected 5 dbar coefficients, got 4"):
        CyclicDK(S23, (1, -1, 2, -2, -3), (1, 0, 0, 0))
    dk = CyclicDK(S23, [1, -1, 2, -2, -3], [1, 0, 0, 0, 0])
    assert dk.labels == (1, -1, 2, -2, -3) and dk.dbar == (1, 0, 0, 0, 0)
    assert hash(dk) == hash(CyclicDK(S23, dk.labels, dk.dbar))
    with pytest.raises(AttributeError):
        dk.labels = (1, -1, 2, -2, -3)
    assert repr(dk) == "CyclicDK(shape=RectShape(n=2, m=3), labels=(1, -1, 2, -2, -3), dbar=(1, 0, 0, 0, 0))"
    a, b = GlobalRoot(1, -2, 0), GlobalRoot(2, 1, -1)
    with pytest.raises(AttributeError):
        a.dbar = 1
    assert sorted([a, b]) == sorted([a, b], key=lambda r: (r.up, r.down, r.dbar))
    assert repr(a) == "GlobalRoot(up=1, down=-2, dbar=0)"


def test_value_types_refuse_a_bad_replace():
    """``_replace`` builds through the validating constructor."""
    with pytest.raises(ValueError, match="positive dimensions"):
        S23._replace(n=0)
    assert S23._replace(m=5) == RectShape(2, 5)
    with pytest.raises(ValueError, match="sign"):
        OddRoot(1, 1, 1)._replace(sign=7)
    assert OddRoot(1, 1, 1)._replace(sign=-1) == OddRoot(-1, 1, 1)
    dk = borel_at(S23, ((0, 0), 0)).dk
    with pytest.raises(NotTypeA, match="every basis vector once"):
        dk._replace(labels=dk.labels[:1] * 2 + dk.labels[2:])
    with pytest.raises(ValueError, match="expected 5 dbar coefficients, got 4"):
        dk._replace(dbar=dk.dbar[1:])
    assert dk._replace(dbar=dk.dbar) == dk


def test_cyclic_dk_refuses_a_broken_chain():
    """The labels must cover every basis vector once, and then the nodes
    chain by construction, each down label the next up label.  A word that
    repeats a label misses a basis vector; one too short, too long or with
    a label outside the box is no permutation of the basis."""
    dk = CyclicDK(S23, (1, -1, 2, -2, -3), (1, 0, 0, 0, 0))
    assert dk.node_sum() == 1
    assert [r.down for r in dk.nodes] == [r.up for r in dk.nodes[1:] + dk.nodes[:1]]
    assert [r.render() for r in dk.nodes] == ["dbar - d1 + e1", "d1 - e2", "-d2 + e2", "d2 - d3", "d3 - e1"]
    for labels in (
        (1, -1, 1, -2, -3),  # repeats e1, misses e2
        (1, -1, 2, -2),
        (1, -1, 2, -2, -3, -3),
        (1, -1, 3, -2, -3),
        (1, -1, 2, -2, 0),
    ):
        with pytest.raises(NotTypeA, match="every basis vector once"):
            CyclicDK(S23, labels, (1, 0, 0, 0, 0))


def test_global_root_render():
    assert GlobalRoot(3, -1, 1).render() == "dbar - d1 + e3"
    assert GlobalRoot(-1, 3, -1).render() == "-dbar + d1 - e3"
    assert GlobalRoot(1, 2, 0).render() == "e1 - e2"
    assert GlobalRoot(2, -2, 0).render() == "-d2 + e2"
    assert GlobalRoot(-4, -1, 1).render() == "dbar - d1 + d4"
    assert GlobalRoot(2, -1, 3).render() == "3dbar - d1 + e2"
    assert GlobalRoot(-1, 1, -2).render() == "-2dbar + d1 - e1"
    assert GlobalRoot(1, 1, 0).render() == "0"


def test_extend_examples():
    hook = extend(S34, shuffle_of_diagram(S34, (4, 1, 1)))
    assert dense(S34, hook.dk.nodes[0]) == vec(S34, dbar=1, d1=-1, e3=1)
    assert hook.deleted == 0 and hook.pair.k == 0
    assert node_sum_is_dbar(hook.dk)

    distinguished = extend(S23, identity_shuffle(S23))
    assert dense(S23, distinguished.dk.nodes[0]) == vec(S23, dbar=1, e1=-1, d3=1)
    assert node_sum_is_dbar(distinguished.dk)
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
    assert b1.pair == ((1, 1, 0), 4)
    assert b1.deleted == 6
    b2 = affine_reflect(b1, 0)
    assert [r.render() for r in b2.simple_global()] == GLH_ROWS["reflected"]
    assert b2.pair == ((1, 1, 1), 4)
    b3 = node_move(b2, "-c")
    assert [r.render() for r in b3.simple_global()] == GLH_ROWS["empty_seven"]
    assert b3.pair == ((0, 0, 0), 7)
    assert b3.deleted == 0
    for b in (b0, b1, b2, b3):
        assert node_sum_is_dbar(b.dk)


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


def test_borel_at_is_one_diagram_on_a_class():
    """Every anchor of a class has the same cyclic diagram, deleted at a
    different node each time."""
    dk = extend(S23, identity_shuffle(S23)).dk
    deleted = set()
    for rep in enumerate_class(S23, ((0, 0), 0)).reps:
        b = borel_at(S23, rep)
        assert b.dk == dk and b.pair == rep
        deleted.add(b.deleted)
    assert deleted == set(range(5))


def test_node_move_keeps_local_in_same_class():
    b = extend(S34, shuffle_of_diagram(S34, (4, 1, 1)))
    cls = enumerate_class(S34, b.pair)
    for which in ("-r", "-c"):
        assert node_move(b, which).pair in cls.reps


def test_affine_reflect_guards_and_involution():
    b = extend(S23, identity_shuffle(S23))
    with pytest.raises(NotIsotropic):
        affine_reflect(b, 1)
    twice = affine_reflect(affine_reflect(b, 2), 2)
    assert twice == b
    # node 2 is grey, but the shuffle of (3, 3) holds 2', 3' under it
    with pytest.raises(ValueError, match="even local root"):
        affine_reflect(b._replace(pair=AnchoredPair((3, 3), 0)), 2)


def test_reflected_pairs_cover_the_grey_undeleted_nodes():
    """Each grey node other than the deleted one moves the local diagram by
    one box at the same k, as ``affine_reflect`` does there."""
    for rep in enumerate_class(S34, ((4, 1, 1), 0)).reps:
        b = borel_at(S34, rep)
        pairs = reflected_pairs(b)
        assert sorted(pairs) == [t for t, grey in enumerate(b.dk.greys) if grey and t != b.deleted]
        for t, pair in pairs.items():
            assert pair.k == rep.k and abs(sum(pair.diagram) - sum(rep.diagram)) == 1
            assert affine_reflect(b, t).pair == pair


def test_affine_reflect_preserves_invariants():
    b = affine_reflect(node_move(extend(S34, shuffle_of_diagram(S34, (4, 1, 1))), "-r"), 0)
    assert node_sum_is_dbar(b.dk)
    assert gram_row_sums(b.dk) == [0] * 7
    greys = b.dk.greys
    assert sum(greys) % 2 == 0 and sum(greys) > 0


def test_gram_of_distinguished_shape():
    b = extend(S23, identity_shuffle(S23))
    finite = simple_gram(b)
    assert finite == [
        [2, -1, 0, 0],
        [-1, 0, 1, 0],
        [0, 1, -2, 1],
        [0, 0, 1, -2],
    ]
    assert node_sum_is_dbar(b.dk)
    assert gram_row_sums(b.dk) == [0] * 5
    assert [form(dense(S23, r), dense(S23, r)) for r in b.dk.nodes] == [0, 2, 0, -2, -2]


def test_second_affinization_example():
    sigma = shuffle_of_diagram(S23, (3, 1))
    tau = shuffle_of_diagram(S23, node_move(extend(S23, sigma), "-r").pair.diagram)
    assert render_shuffle(S23, tau) == "1,1',2,2',3'"
    sigma1 = shuffle_of_diagram(S23, (3, 2))
    tau1 = shuffle_of_diagram(S23, node_move(extend(S23, sigma1), "-r").pair.diagram)
    assert render_shuffle(S23, tau1) == "1,1',2',2,3'"
    from oddbox.reflect import r_apply

    assert r_apply(S23, tau, OddRoot(1, 2, 2)) == tau1


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
    """The grey-pattern reference and the decoder's words agree."""
    dk = extend(S23, identity_shuffle(S23)).dk
    words = dta_words(dk)
    assert words == ("ddrrr", "drrrd", "rrrdd", "rrddr", "rddrr")
    assert all(words[i] == rotate_word(words[0], i) for i in range(5))
    assert site_words(dk) == words
    dk33 = extend(S23, shuffle_of_diagram(S23, (3, 3))).dk
    assert dta_words(dk33)[0] == "rrrdd"
    assert site_words(dk33)[0] == "rrrdd"


def test_dta_words_match_extend_grey_patterns():
    from oddbox.rect import shuffle_of_word

    for greys, word in IOB_WORDS.items():
        b = extend(S23, shuffle_of_word(S23, word))
        assert tuple(t for t, g in enumerate(b.dk.greys) if g) == greys
        assert dta_words(b.dk)[0] == word
        assert site_words(b.dk)[0] == word


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
    b = borel_at(S23, base_class.canonical)
    reference = extend(S23, identity_shuffle(S23))
    assert b.dk == reference.dk
    assert borel_at(S23, ((0, 0), 0)) == reference


def test_borel_class_roundtrip():
    cls = enumerate_class(S23, ((3, 1), 0))
    assert class_of_borel(borel_at(S23, cls.canonical).dk) == cls
    cls34 = enumerate_class(S34, ((4, 1, 1), 0))
    assert class_of_borel(borel_at(S34, cls34.canonical).dk) == cls34


def test_class_of_borel_rejects_a_diagram_no_shuffle_fits():
    """A word that repeats a label is no ``CyclicDK``; a diagram whose node
    sum is off dbar, one dbar coefficient moved, reads no class."""
    dk = borel_at(S34, ((4, 1, 1), 0)).dk
    with pytest.raises(NotTypeA):
        dk._replace(labels=dk.labels[:1] * 2 + dk.labels[2:])
    for t in range(dk.size):
        for shift in (1, -1):
            skewed = dk.dbar[:t] + (dk.dbar[t] + shift,) + dk.dbar[t + 1:]
            with pytest.raises(NotTypeA):
                class_of_borel(dk._replace(dbar=skewed))


def test_class_of_borel_reads_no_borel_at(monkeypatch):
    """The decoder reads the node vectors only: with ``borel_at`` gone, a
    diagram built beforehand still names its class."""
    cls = enumerate_class(S34, ((4, 1, 1), 5))
    dk = borel_at(S34, cls.reps[3]).dk

    def gone(shape, pair):
        raise AssertionError("borel_at called")

    monkeypatch.setattr(affine, "borel_at", gone)
    assert class_of_borel(dk) == cls


def big_anchors():
    """A hypothesis strategy of (shape, word, k) on 5x8, 7x9 and 13x17 with a
    random border word and |k| <= 10^6."""
    from hypothesis import strategies as st

    @st.composite
    def anchors(draw):
        shape = draw(st.sampled_from([RectShape(5, 8), RectShape(7, 9), RectShape(13, 17)]))
        word = "".join(draw(st.permutations("r" * shape.m + "d" * shape.n)))
        return shape, word, draw(st.integers(-10**6, 10**6))

    return anchors()


def test_site_pairs_sampled_past_the_exhaustive_range():
    """On big boxes and far rotation numbers, the deleted node reads back the
    pair the Borel was built for, the sites read its class, and their words
    are the rotations of its word.  ``conftest.dta_words``, the paper's
    reader of the grey pattern, gives the same words there and on the
    canonical Borel of every class over one period of every shape with
    m + n <= 9."""
    from hypothesis import given, settings

    for shape in CLASS_SHAPES:
        for d in range(shape.n * shape.m):
            for cls in classes_at_degree(shape, d):
                dk = borel_at(shape, cls.canonical).dk
                assert site_words(dk) == dta_words(dk), (shape, cls.canonical)

    @settings(deadline=None, max_examples=60)
    @given(big_anchors())
    def check(anchor):
        shape, word, k = anchor
        pair = AnchoredPair(diagram_of_word(shape, word), k)
        b = borel_at(shape, pair)
        pairs = site_pairs(b.dk)
        assert pairs[b.deleted] == pair
        assert set(pairs) == set(oracle_enumerate_class(shape, pair).reps)
        words = tuple(word_of_diagram(shape, q.diagram) for q in pairs)
        assert words == dta_words(b.dk)
        assert all(words[(b.deleted + t) % shape.size] == rotate_word(word, t) for t in range(shape.size))

    check()


def test_label_form_is_the_vector_form_past_the_exhaustive_range():
    """On big boxes and far rotation numbers, ``borel_at`` expands to the
    rotated extension, its nodes view chains, and reflecting at each grey
    node swaps exactly its two labels and expands to the vector reflection:
    negate the node and add it to both cyclic neighbours."""
    from hypothesis import given, settings

    @settings(deadline=None, max_examples=40)
    @given(big_anchors())
    def check(anchor):
        shape, word, k = anchor
        pair = AnchoredPair(diagram_of_word(shape, word), k)
        b = borel_at(shape, pair)
        assert dense_borel(b) == oracle_borel_at(shape, pair)

        def flat(dk):
            return [eps + dels + (dbar,) for eps, dels, dbar in (dense(shape, r) for r in dk.nodes)]

        nodes = b.dk.nodes
        assert [r.up for r in nodes] == list(b.dk.labels)
        assert [r.down for r in nodes] == [r.up for r in nodes[1:] + nodes[:1]]
        vecs = flat(b.dk)
        for t, grey in enumerate(b.dk.greys):
            if grey:
                want = list(vecs)
                want[t] = tuple(map(neg, vecs[t]))
                for s in (t - 1, (t + 1) % shape.size):
                    want[s] = tuple(map(add, want[s], vecs[t]))
                moved = b.dk.reflect(t)
                assert flat(moved) == want
                s = (t + 1) % shape.size
                assert [u for u, (x, y) in enumerate(zip(b.dk.labels, moved.labels)) if x != y] == sorted({t, s})
                assert (moved.labels[t], moved.labels[s]) == (b.dk.labels[s], b.dk.labels[t])

    check()


def test_borel_of_class_matches_global_name_table():
    b = borel_at(S34, ((4, 1, 1), 0))
    assert [r.render() for r in b.simple_global()] == GLH_ROWS["hook"]
    b7 = borel_at(S34, ((0, 0, 0), 7))
    assert [r.render() for r in b7.simple_global()] == GLH_ROWS["empty_seven"]


def test_borel_act_equivariance_spot():
    cls = enumerate_class(S23, ((3, 1), 0))
    dk = borel_at(S23, cls.canonical).dk
    root = OddRoot(1, 2, 1)
    assert borel_act(dk, root) == borel_at(S23, act(cls, root).canonical).dk
    admitted = oracle_scan(S23, cls.reps)
    undefined = next(r for r in all_signed_roots(S23) if r not in admitted)
    with pytest.raises(UndefinedMorphism):
        borel_act(dk, undefined)
    with pytest.raises(ValueError, match="out of range"):
        borel_act(dk, OddRoot(1, 3, 1))


@pytest.mark.parametrize("shape", [S23, S34, RectShape(2, 5)], ids=lambda s: f"{s.n}x{s.m}")
def test_borel_act_swaps_the_adjacent_label_pair_of_the_root(shape):
    """s(e_i - d_j) swaps the adjacent labels (i, -j) for s = + and (-j, i)
    for s = -, negates that node's dbar coefficient and adds it to both
    neighbours; where the pair is not adjacent in that order it is
    undefined."""
    size = shape.size
    for d in range(3):
        for cls in classes_at_degree(shape, d):
            dk = borel_at(shape, cls.canonical).dk
            at = {(dk.labels[t], dk.labels[(t + 1) % size]): t for t in range(size)}
            for root in all_signed_roots(shape):
                t = at.get((root.i, -root.j) if root.sign > 0 else (-root.j, root.i))
                if t is None:
                    with pytest.raises(UndefinedMorphism):
                        borel_act(dk, root)
                    continue
                s = (t + 1) % size
                labels, dbar = list(dk.labels), list(dk.dbar)
                labels[t], labels[s] = labels[s], labels[t]
                dbar[t - 1], dbar[s], dbar[t] = dbar[t - 1] + dbar[t], dbar[s] + dbar[t], -dbar[t]
                assert borel_act(dk, root) == CyclicDK(shape, tuple(labels), tuple(dbar))


@pytest.mark.parametrize("root", [OddRoot(1, 2, 4), OddRoot(-1, 3, 1)])
def test_act_and_borel_act_refuse_a_root_outside_the_box(root):
    cls = enumerate_class(S23, ((1, 0), 0))
    messages = []
    for call in (lambda: act(cls, root), lambda: borel_act(borel_at(S23, cls.canonical).dk, root)):
        with pytest.raises(ValueError, match="out of range for 2x3") as caught:
            call()
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


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
            assert atlas.borel_of_class(cls).dk == direct.dk
            assert borel_at(shape, (parts, 0)) == direct


def test_equivariance_sampled_on_larger_shape():
    shape = RectShape(3, 5)
    atlas = BorelAtlas(shape)
    for d in (0, 3, 7):
        for cls in classes_at_degree(shape, d)[:3]:
            dk = atlas.borel_of_class(cls).dk
            for root in all_signed_roots(shape)[::4]:
                try:
                    image = act(cls, root)
                except UndefinedMorphism:
                    with pytest.raises(UndefinedMorphism):
                        borel_act(dk, root)
                    continue
                assert borel_act(dk, root) == atlas.borel_of_class(image).dk


def test_random_walk_preserves_diagram_invariants():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from([S23, S34, RectShape(2, 5)]),
        st.lists(st.integers(0, 10**6), max_size=25),
    )
    def walk(shape, choices):
        b = extend(shape, identity_shuffle(shape))
        for pick in choices:
            moves = oracle_steps(b)
            b = moves[pick % len(moves)]
            assert node_sum_is_dbar(b.dk)
            assert not any(gram_row_sums(b.dk))
            greys = b.dk.greys
            assert sum(greys) % 2 == 0 and sum(greys) >= 2
            assert all(form(dense(shape, r), dense(shape, r)) in (2, -2, 0) for r in b.dk.nodes)
            assert site_pairs(b.dk)[b.deleted] == b.pair

    walk()


def test_borel_json_schema():
    b = borel_at(S34, ((4, 1, 1), 0))
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


@pytest.mark.parametrize("shape", CLASS_SHAPES, ids=lambda s: f"{s.n}x{s.m}")
def test_borel_at_matches_rotated_extension(shape):
    """The cyclic-difference form equals extending the shuffle and rotating
    every node, at every pair of degree -2mn..2mn."""
    mn = shape.n * shape.m
    for parts in all_diagrams(shape):
        for d in range(-2 * mn, 2 * mn + 1):
            pair = (parts, d - sum(parts))
            assert dense_borel(borel_at(shape, pair)) == oracle_borel_at(shape, pair)


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
        assert dense_borel(b) == oracle_borel_at(shape, (parts, k))
        assert b.pair == (parts, k)
        assert node_sum_is_dbar(b.dk)
        assert not any(gram_row_sums(b.dk))
        greys = sum(b.dk.greys)
        assert greys > 0 and greys % 2 == 0
        assert site_pairs(b.dk)[b.deleted] == b.pair
        for nb in oracle_steps(b):
            assert nb == borel_at(shape, nb.pair)
        turn = q * shape.m
        far = borel_at(shape, (parts, k + q * shape.n * shape.m))
        assert far.deleted == (b.deleted + turn) % shape.size
        for t, r in enumerate(b.dk.nodes):
            raised = r._replace(dbar=r.dbar + q * sum(dense(shape, r)[0]))
            assert far.dk.nodes[(t + turn) % shape.size] == raised

    check()
