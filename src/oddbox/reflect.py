"""Corners, odd-reflection morphisms, simple roots and row/column moves.

A signed root sign * (e_i - d_j) acts on all three encodings of a diagram:
on diagrams by adding or removing the named box, on words by swapping an
adjacent ``dr`` pair to ``rd`` (or back), and on shuffles by swapping the
adjacent entries i and j'.  The three actions commute with the encoding
bijections, so each is defined exactly when the others are.

Eligibility failures are raised as subclasses of DomainError: the morphisms
of the groupoid are partial by nature and callers that explore orbits treat
these errors as "undefined here" rather than as faults.
"""

from typing import NamedTuple

from .rect import (
    DomainError,
    OddRoot,
    Parts,
    RectShape,
    Shuffle,
    dual,
    render_diagram,
    render_root,
    rotate_word,
    shuffle_of_word,
    word_of_shuffle,
)


class NotACorner(DomainError):
    """The named box is not addable/removable at this diagram."""


class NotSimple(DomainError):
    """The signed root is not simple for this word or shuffle."""


class NotEligible(DomainError):
    """The diagram is not in the domain of the requested row/column move."""


def admits(shape: RectShape, parts: Parts, root: OddRoot) -> bool:
    """Whether the signed morphism is defined at this diagram.

    A positive root needs the box addable: row i holds j - 1 boxes and the
    row below (if any) reaches column j.  A negative root needs the box
    removable: row i ends exactly at column j and the row above (if any)
    stops short of it.
    """
    n = shape.n
    i, j = root.i, root.j
    row = parts[n - i]
    if root.sign > 0:
        return row == j - 1 and (i == n or parts[n - i - 1] >= j)
    return row == j and (i == 1 or parts[n - i + 1] < j)


def corners(shape: RectShape, parts: Parts) -> tuple[tuple[OddRoot, ...], tuple[OddRoot, ...]]:
    """Outer (addable) and inner (removable) boxes, both as positive roots.

    Row i can gain a box only at column row + 1 and lose one only at column
    row, so each row tests those two columns against the column lengths.
    """
    n = shape.n
    dl = dual(shape, parts)
    outer, inner = [], []
    for i in range(1, n + 1):
        row = parts[n - i]
        if row < shape.m and dl[row] == n - i:
            outer.append(OddRoot(1, i, row + 1))
        if row and dl[row - 1] == n + 1 - i:
            inner.append(OddRoot(1, i, row))
    return tuple(outer), tuple(inner)


def t_apply(shape: RectShape, parts: Parts, root: OddRoot) -> Parts:
    """Add (positive sign) or remove (negative sign) the box named by the root."""
    if not admits(shape, parts, root):
        raise NotACorner(f"{render_root(root)} undefined at {render_diagram(parts)}")
    out = list(parts)
    out[shape.n - root.i] += root.sign
    return tuple(out)


def root_pair(shape: RectShape, root: OddRoot) -> tuple[int, int]:
    """A signed odd root as the ordered pair (a, b) meaning e_a - e_b, with d_j = e_{n+j}."""
    if root.sign > 0:
        return (root.i, shape.n + root.j)
    return (shape.n + root.j, root.i)


def pair_root(shape: RectShape, pair: tuple[int, int]):
    """Inverse of root_pair; None for even pairs (e-e or d-d)."""
    a, b = pair
    if a <= shape.n < b:
        return OddRoot(1, a, b - shape.n)
    if b <= shape.n < a:
        return OddRoot(-1, b, a - shape.n)
    return None


def simple_roots(shape: RectShape, shuf: Shuffle) -> tuple[tuple[int, int], ...]:
    """Consecutive differences of the shuffle: m+n-1 pairs (a, b) meaning e_a - e_b."""
    return tuple((shuf[t], shuf[t + 1]) for t in range(len(shuf) - 1))


def r_apply(shape: RectShape, shuf: Shuffle, root: OddRoot) -> Shuffle:
    """Odd reflection on a shuffle: swap the adjacent entries i, j' (order fixed by the sign)."""
    a, b = root_pair(shape, root)
    for t in range(len(shuf) - 1):
        if shuf[t] == a and shuf[t + 1] == b:
            out = list(shuf)
            out[t], out[t + 1] = out[t + 1], out[t]
            return tuple(out)
    raise NotSimple(f"{render_root(root)} is not simple for this shuffle")


def p_apply(shape: RectShape, word: str, root: OddRoot) -> str:
    """Odd reflection on a word: swap the adjacent letters under the entries i, j'."""
    shuf = shuffle_of_word(shape, word)
    a, b = root_pair(shape, root)
    for t in range(len(shuf) - 1):
        if shuf[t] == a and shuf[t + 1] == b:
            return word[:t] + word[t + 1] + word[t] + word[t + 2:]
    raise NotSimple(f"{render_root(root)} is not simple for {word!r}")


# each row/column move turns the border word by one letter: the letter it
# carries across the ends, and the turn (+1 front to back, -1 back to front)
_EDGE_TURNS = {"-r": ("d", -1), "+r": ("d", 1), "-c": ("r", 1), "+c": ("r", -1)}
EDGE_OPS = tuple(_EDGE_TURNS)


def edge_turn(which: str) -> tuple[str, int]:
    """The letter a row/column move carries and its turn of the word."""
    if which not in _EDGE_TURNS:
        raise ValueError(f"unknown edge move {which!r}, expected one of {EDGE_OPS}")
    return _EDGE_TURNS[which]


class EdgeFlags(NamedTuple):
    """Membership of a diagram in the domains of the four row/column moves.

    row_full:      bottom row has m boxes, "-r" deletes it
    row_empty:     top row is empty, "+r" prepends a full bottom row
    col_full:      first column has n boxes, "-c" deletes it
    col_empty:     no row reaches column m, "+c" prepends a full column
    contains_hook: (m, 1, ..., 1) fits inside; the outer pseudo-corner e_n - d_1
    reduced:       top row and last column are empty; the inner pseudo-corner e_1 - d_m

    Neither pseudo-corner is an actual corner: they act only through class
    representatives with shifted rotation numbers.
    """

    row_full: bool
    row_empty: bool
    col_full: bool
    col_empty: bool
    contains_hook: bool
    reduced: bool


def edge_flags(shape: RectShape, parts: Parts) -> EdgeFlags:
    row_full = parts[0] == shape.m
    row_empty = parts[-1] == 0
    col_full = parts[-1] >= 1
    col_empty = parts[0] < shape.m
    return EdgeFlags(
        row_full=row_full,
        row_empty=row_empty,
        col_full=col_full,
        col_empty=col_empty,
        contains_hook=row_full and col_full,
        reduced=row_empty and col_empty,
    )


def diagram_edge(shape: RectShape, parts: Parts, which: str) -> Parts:
    """Apply a row/column move to a diagram.

    "-r" deletes the full bottom row, "+r" restores one, "-c" deletes the
    full first column, "+c" restores one.
    """
    flags = edge_flags(shape, parts)
    if which == "-r":
        if not flags.row_full:
            raise NotEligible(f"bottom row of {render_diagram(parts)} is not full")
        return parts[1:] + (0,)
    if which == "+r":
        if not flags.row_empty:
            raise NotEligible(f"top row of {render_diagram(parts)} is not empty")
        return (shape.m,) + parts[:-1]
    if which == "-c":
        if not flags.col_full:
            raise NotEligible(f"first column of {render_diagram(parts)} is not full")
        return tuple(p - 1 for p in parts)
    if which == "+c":
        if not flags.col_empty:
            raise NotEligible(f"last column of {render_diagram(parts)} is not empty")
        return tuple(p + 1 for p in parts)
    raise ValueError(f"unknown edge move {which!r}, expected one of {EDGE_OPS}")


def word_edge(shape: RectShape, word: str, which: str) -> str:
    """The row/column moves on words: each turns the word by one letter,
    the letter and the turn of ``edge_turn``.

    "-r": xd -> dx, "+r": dx -> xd, "-c": rx -> xr, "+c": xr -> rx.
    """
    letter, turn = edge_turn(which)
    end = "start" if turn > 0 else "end"
    if word[0 if turn > 0 else -1] != letter:
        raise NotEligible(f"{word!r} does not {end} with {letter}")
    return rotate_word(word, turn)


def shuffle_edge(shape: RectShape, shuf: Shuffle, which: str) -> Shuffle:
    return shuffle_of_word(shape, word_edge(shape, word_of_shuffle(shape, shuf), which))

