from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_SHAPES, boxes, oracle_word
from oddbox import verify
from oddbox.rect import (
    NonCoprimeShape,
    OddRoot,
    RectShape,
    all_diagrams,
    diagram_of_shuffle,
    diagram_of_word,
    dual,
    identity_shuffle,
    parse_diagram,
    parse_root,
    parse_shuffle,
    render_diagram,
    render_root,
    render_shuffle,
    rotate_root,
    rotate_word,
    shuffle_of_word,
    solve_rotation,
    word_of_diagram,
    word_of_shuffle,
)

S23 = RectShape(2, 3)


@st.composite
def shape_and_word(draw):
    shape = draw(st.sampled_from(ALL_SHAPES))
    letters = draw(st.permutations("r" * shape.m + "d" * shape.n))
    return shape, "".join(letters)


@pytest.mark.parametrize(
    "parts, expected",
    [((3, 1), (2, 1, 1)), ((0, 0), (0, 0, 0)), ((3, 3), (2, 2, 2))],
)
def test_dual_examples(parts, expected):
    assert dual(S23, parts) == expected


def test_dual_matches_column_heights():
    for shape in ALL_SHAPES:
        for parts in all_diagrams(shape):
            heights = tuple(
                sum(1 for i in range(1, shape.n + 1) if parts[shape.n - i] >= j)
                for j in range(1, shape.m + 1)
            )
            assert dual(shape, parts) == heights


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([RectShape(40, 41), RectShape(97, 100)]), st.data())
def test_dual_matches_column_heights_past_the_exhaustive_range(shape, data):
    parts = diagram_of_word(shape, "".join(data.draw(st.permutations("r" * shape.m + "d" * shape.n))))
    heights = Counter(j for _, j in boxes(shape, parts))
    assert dual(shape, parts) == tuple(heights[j] for j in range(1, shape.m + 1))


@pytest.mark.parametrize(
    "parts, word",
    [((0, 0), "ddrrr"), ((3, 1), "rdrrd"), ((3, 3), "rrrdd")],
)
def test_word_of_diagram_examples(parts, word):
    assert word_of_diagram(S23, parts) == word
    assert diagram_of_word(S23, word) == parts


@pytest.mark.parametrize(
    "word, parts",
    [("ddrrr", (0, 0)), ("drdrr", (1, 0)), ("rrdrd", (3, 2))],
)
def test_diagram_of_word_examples(word, parts):
    assert diagram_of_word(S23, word) == parts


def test_word_matches_border_walk_oracle():
    for shape in ALL_SHAPES:
        for parts in all_diagrams(shape):
            assert word_of_diagram(shape, parts) == oracle_word(shape, parts)


def test_word_count_mismatch_rejected():
    with pytest.raises(ValueError):
        diagram_of_word(S23, "ddddr")
    with pytest.raises(ValueError):
        diagram_of_word(S23, "ddrr")


@pytest.mark.parametrize(
    "word, shuffle",
    [
        ("ddrrr", "1,2,1',2',3'"),
        ("rdrrd", "1',1,2',3',2"),
        ("rrdrd", "1',2',1,3',2"),
    ],
)
def test_shuffle_of_word_examples(word, shuffle):
    shape = S23
    got = shuffle_of_word(shape, word)
    assert render_shuffle(shape, got) == shuffle
    assert parse_shuffle(shape, shuffle) == got
    assert word_of_shuffle(shape, got) == word


@pytest.mark.parametrize(
    "shuffle, parts",
    [
        ("1,2,1',2',3'", (0, 0)),
        ("1',1,2',3',2", (3, 1)),
        ("1',2',1,3',2", (3, 2)),
    ],
)
def test_diagram_of_shuffle_examples(shuffle, parts):
    assert diagram_of_shuffle(S23, parse_shuffle(S23, shuffle)) == parts


def test_identity_shuffle_is_empty_diagram():
    for shape in ALL_SHAPES:
        assert diagram_of_shuffle(shape, identity_shuffle(shape)) == (0,) * shape.n


def test_roundtrips_and_triangle_exhaustive():
    for shape in ALL_SHAPES:
        assert verify._roundtrips(shape, None) == []


def test_double_dual_transposes():
    for shape in ALL_SHAPES:
        assert verify._dual_involution(shape, None) == []


@pytest.mark.parametrize(
    "word, i, expected",
    [("rdrrd", 1, "drrdr"), ("rdrrd", 5, "rdrrd"), ("ddrrr", 2, "rrrdd")],
)
def test_rotate_word_examples(word, i, expected):
    assert rotate_word(word, i) == expected


@given(shape_and_word())
def test_rotate_word_order(pair):
    shape, word = pair
    assert rotate_word(word, shape.size) == word
    assert rotate_word(rotate_word(word, 2), shape.size - 2) == word


def test_rotate_root_examples():
    assert rotate_root(S23, OddRoot(1, 2, 1), 0, 1) == OddRoot(1, 1, 1)
    assert rotate_root(S23, OddRoot(1, 1, 3), 1, 0) == OddRoot(1, 1, 2)
    assert rotate_root(S23, OddRoot(-1, 2, 1), 0, 0) == OddRoot(-1, 2, 1)


def test_rotate_root_orders_and_commutation():
    for shape in ALL_SHAPES:
        for sign in (1, -1):
            for i in range(1, shape.n + 1):
                for j in range(1, shape.m + 1):
                    root = OddRoot(sign, i, j)
                    assert rotate_root(shape, root, 0, shape.n) == root
                    assert rotate_root(shape, root, shape.m, 0) == root
                    one_way = rotate_root(shape, rotate_root(shape, root, 1, 0), 0, 1)
                    other = rotate_root(shape, rotate_root(shape, root, 0, 1), 1, 0)
                    assert one_way == other


@pytest.mark.parametrize("k, expected", [(3, (0, 1)), (0, (0, 0)), (-4, (1, 0))])
def test_solve_rotation_examples(k, expected):
    assert solve_rotation(S23, k) == expected


def test_solve_rotation_residues():
    for shape in [s for s in ALL_SHAPES if s.coprime]:
        for k in range(-3 * shape.n * shape.m, 3 * shape.n * shape.m + 1):
            i, j = solve_rotation(shape, k)
            assert 0 <= i < shape.m and 0 <= j < shape.n
            assert (i * shape.n - k) % shape.m == 0
            assert (j * shape.m - k) % shape.n == 0


def test_solve_rotation_noncoprime():
    with pytest.raises(NonCoprimeShape):
        solve_rotation(RectShape(2, 2), 1)


def test_shape_validation():
    with pytest.raises(ValueError, match="box needs positive dimensions, got 0x3"):
        RectShape(0, 3)
    assert RectShape(1, 1).coprime
    assert not RectShape(4, 6).coprime


def test_value_types_validate_order_and_stay_frozen():
    with pytest.raises(ValueError, match="root sign must be \\+1 or -1, got 0"):
        OddRoot(0, 1, 1)
    root = OddRoot(1, 2, 3)
    for value, field in ((root, "i"), (S23, "n")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    assert repr(root) == "OddRoot(sign=1, i=2, j=3)"
    assert repr(S23) == "RectShape(n=2, m=3)"
    roots = [OddRoot(1, 2, 1), OddRoot(-1, 3, 3), OddRoot(1, 1, 2), OddRoot(-1, 1, 3)]
    assert sorted(roots) == sorted(roots, key=lambda r: (r.sign, r.i, r.j))
    assert sorted(roots)[0] == OddRoot(-1, 1, 3)


def test_parse_render_diagram():
    assert parse_diagram(S23, "3,1") == (3, 1)
    assert parse_diagram(S23, "3") == (3, 0)
    assert render_diagram((3, 1)) == "3,1"
    with pytest.raises(ValueError):
        parse_diagram(S23, "1,3")
    with pytest.raises(ValueError):
        parse_diagram(S23, "4,1")
    with pytest.raises(ValueError):
        parse_diagram(S23, "1,1,1")
    s34 = RectShape(3, 4)
    assert parse_diagram(s34, "") == parse_diagram(s34, " ") == (0, 0, 0)
    for text in ("3,,1", "3,1,", ",3,1"):
        with pytest.raises(ValueError, match="must not be empty"):
            parse_diagram(s34, text)


def test_parse_render_root():
    assert parse_root(S23, "+e2-d1") == OddRoot(1, 2, 1)
    assert parse_root(S23, "e2-d1") == OddRoot(1, 2, 1)
    assert parse_root(S23, "-e1-d3") == OddRoot(-1, 1, 3)
    assert render_root(OddRoot(-1, 1, 3)) == "-e1-d3"
    with pytest.raises(ValueError):
        parse_root(S23, "e3-d1")
    with pytest.raises(ValueError):
        parse_root(S23, "d1-e1")


def test_one_by_one_box_supported_here():
    tiny = RectShape(1, 1)
    assert word_of_diagram(tiny, (0,)) == "dr"
    assert word_of_diagram(tiny, (1,)) == "rd"
    assert diagram_of_word(tiny, "rd") == (1,)


@given(shape_and_word())
def test_word_roundtrip_random(pair):
    shape, word = pair
    assert word_of_diagram(shape, diagram_of_word(shape, word)) == word
    shuf = shuffle_of_word(shape, word)
    assert word_of_shuffle(shape, shuf) == word
    assert diagram_of_shuffle(shape, shuf) == diagram_of_word(shape, word)
