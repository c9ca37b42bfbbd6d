import pytest
from hypothesis import given, strategies as st

from conftest import ALL_SHAPES, oracle_corners
from oddbox import verify
from oddbox.rect import (
    OddRoot,
    RectShape,
    all_diagrams,
    parse_shuffle,
    render_shuffle,
    rotate_root,
    shuffle_of_word,
    word_of_diagram,
)
from oddbox.reflect import (
    NotACorner,
    NotEligible,
    NotSimple,
    admits,
    corners,
    diagram_edge,
    edge_flags,
    p_apply,
    pair_root,
    r_apply,
    render_pair,
    root_pair,
    simple_roots,
    t_apply,
    word_edge,
)

S23 = RectShape(2, 3)
S34 = RectShape(3, 4)


def signed_roots(shape):
    return [
        OddRoot(s, i, j)
        for s in (1, -1)
        for i in range(1, shape.n + 1)
        for j in range(1, shape.m + 1)
    ]


@pytest.mark.parametrize(
    "parts, outer, inner",
    [
        ((3, 1), {(1, 2)}, {(1, 1), (2, 3)}),
        ((0, 0), {(2, 1)}, set()),
        ((3, 3), set(), {(1, 3)}),
    ],
)
def test_corners_examples(parts, outer, inner):
    got_outer, got_inner = corners(S23, parts)
    assert {(r.i, r.j) for r in got_outer} == outer
    assert {(r.i, r.j) for r in got_inner} == inner


def test_corners_match_box_surgery_oracle():
    for shape in ALL_SHAPES:
        for parts in all_diagrams(shape):
            outer, inner = corners(shape, parts)
            expect_outer, expect_inner = oracle_corners(shape, parts)
            assert {(r.i, r.j) for r in outer} == expect_outer
            assert {(r.i, r.j) for r in inner} == expect_inner
            for root in signed_roots(shape):
                member = (root.i, root.j) in (expect_outer if root.sign > 0 else expect_inner)
                assert admits(shape, parts, root) == member


@pytest.mark.parametrize(
    "parts, root, expected",
    [
        ((3, 1), OddRoot(1, 1, 2), (3, 2)),
        ((1, 1), OddRoot(-1, 1, 1), (1, 0)),
    ],
)
def test_t_apply_examples(parts, root, expected):
    assert t_apply(S23, parts, root) == expected


def test_t_apply_rejects_non_corner():
    with pytest.raises(NotACorner):
        t_apply(S23, (0, 0), OddRoot(1, 1, 1))


@pytest.mark.parametrize(
    "word, root, expected",
    [
        ("rdrrd", OddRoot(1, 1, 2), "rrdrd"),
        ("ddrrr", OddRoot(1, 2, 1), "drdrr"),
    ],
)
def test_p_apply_examples(word, root, expected):
    assert p_apply(S23, word, root) == expected


def test_p_apply_rejects_non_simple():
    with pytest.raises(NotSimple):
        p_apply(S23, "ddrrr", OddRoot(1, 1, 1))


@pytest.mark.parametrize(
    "shuffle, expected",
    [
        ("1,2,1',2',3'", ["e1-e2", "e2-d1", "d1-d2", "d2-d3"]),
        ("1',1,2',3',2", ["d1-e1", "e1-d2", "d2-d3", "d3-e2"]),
    ],
)
def test_simple_roots_examples(shuffle, expected):
    shuf = parse_shuffle(S23, shuffle)
    assert [render_pair(S23, p) for p in simple_roots(S23, shuf)] == expected


def test_simple_roots_hook_3x4():
    shuf = shuffle_of_word(S34, word_of_diagram(S34, (4, 1, 1)))
    assert [render_pair(S34, p) for p in simple_roots(S34, shuf)] == [
        "d1-e1", "e1-e2", "e2-d2", "d2-d3", "d3-d4", "d4-e3",
    ]


def test_odd_simple_roots_sit_at_sign_changes():
    for shape in ALL_SHAPES:
        for parts in all_diagrams(shape):
            word = word_of_diagram(shape, parts)
            shuf = shuffle_of_word(shape, word)
            for t, pair in enumerate(simple_roots(shape, shuf)):
                odd = pair_root(shape, pair) is not None
                assert odd == (word[t] != word[t + 1])


@pytest.mark.parametrize(
    "shuffle, root, expected",
    [
        ("1',1,2',3',2", OddRoot(1, 1, 2), "1',2',1,3',2"),
        ("1',2',1,3',2", OddRoot(-1, 1, 2), "1',1,2',3',2"),
        ("1,2,1',2',3'", OddRoot(1, 2, 1), "1,1',2,2',3'"),
    ],
)
def test_r_apply_examples(shuffle, root, expected):
    got = r_apply(S23, parse_shuffle(S23, shuffle), root)
    assert render_shuffle(S23, got) == expected


def test_r_apply_rejects_non_simple():
    with pytest.raises(NotSimple):
        r_apply(S23, parse_shuffle(S23, "1,2,1',2',3'"), OddRoot(1, 1, 1))


def test_root_pair_roundtrip():
    for shape in ALL_SHAPES:
        for root in signed_roots(shape):
            assert pair_root(shape, root_pair(shape, root)) == root
    assert pair_root(S23, (1, 2)) is None
    assert pair_root(S23, (4, 3)) is None


def test_three_actions_agree_everywhere():
    for shape in ALL_SHAPES:
        assert verify._corner_actions(shape, None) == []


@pytest.mark.parametrize(
    "parts, which, expected, words",
    [
        ((3, 1), "-r", (1, 0), ("rdrrd", "drdrr")),
        ((0, 0), "+r", (3, 0), ("ddrrr", "drrrd")),
        ((1, 1), "-c", (0, 0), ("rddrr", "ddrrr")),
        ((2, 1), "+c", (3, 2), ("rdrdr", "rrdrd")),
    ],
)
def test_edge_op_examples(parts, which, expected, words):
    assert diagram_edge(S23, parts, which) == expected
    before, after = words
    assert word_of_diagram(S23, parts) == before
    assert word_edge(S23, before, which) == after


def test_edge_ops_not_eligible():
    with pytest.raises(NotEligible):
        diagram_edge(S23, (2, 1), "-r")
    with pytest.raises(NotEligible):
        diagram_edge(S23, (3, 1), "+r")
    with pytest.raises(NotEligible):
        word_edge(S23, "drdrr", "-r")
    with pytest.raises(ValueError):
        diagram_edge(S23, (0, 0), "+q")


def test_edge_ops_word_diagram_agree_and_invert():
    for shape in ALL_SHAPES:
        assert verify._edge_moves(shape, None) == []


@pytest.mark.parametrize(
    "parts, expected",
    [((3, 1), (True, False)), ((0, 0), (False, True)), ((3, 0), (False, False))],
)
def test_pseudo_corner_examples(parts, expected):
    flags = edge_flags(S23, parts)
    assert (flags.contains_hook, flags.reduced) == expected


def test_pseudo_corners_match_hook_containment():
    for shape in ALL_SHAPES:
        hook = (shape.m,) + (1,) * (shape.n - 1)
        for parts in all_diagrams(shape):
            flags = edge_flags(shape, parts)
            contains = all(parts[t] >= hook[t] for t in range(shape.n))
            assert flags.contains_hook == contains
            assert flags.reduced == (parts[-1] == 0 and parts[0] < shape.m)
            word = word_of_diagram(shape, parts)
            assert flags.contains_hook == (word[0] == "r" and word[-1] == "d")
            assert flags.reduced == (word[0] == "d" and word[-1] == "r")


def test_row_and_column_compatibility():
    for shape in ALL_SHAPES:
        assert verify._row_col_compat(shape, None) == []


@given(st.sampled_from(ALL_SHAPES), st.data())
def test_restore_moves_compatibility_random(shape, data):
    """Mirrored identities for the restoring moves, whenever both sides are defined."""
    parts = data.draw(st.sampled_from(sorted(all_diagrams(shape))))
    flags = edge_flags(shape, parts)
    for root in signed_roots(shape):
        if not admits(shape, parts, root):
            continue
        moved = t_apply(shape, parts, root)
        if flags.row_empty:
            up = diagram_edge(shape, parts, "+r")
            turned = rotate_root(shape, root, 0, -1)
            if moved[-1] == 0 and admits(shape, up, turned):
                assert diagram_edge(shape, moved, "+r") == t_apply(shape, up, turned)
        if flags.col_empty:
            wide = diagram_edge(shape, parts, "+c")
            turned = rotate_root(shape, root, -1, 0)
            if moved[0] < shape.m and admits(shape, wide, turned):
                assert diagram_edge(shape, moved, "+c") == t_apply(shape, wide, turned)
