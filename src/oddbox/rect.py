"""Young diagrams in an n x m box, their border words and their shuffles.

Conventions, fixed here once for the whole package:

* A diagram is a tuple of n parts, weakly decreasing, each between 0 and m.
  Rows of the box are numbered 1..n from the top and columns 1..m from the
  left, and row i holds part ``parts[n - i]``: the largest part lies in the
  bottom row, so the diagram fills the bottom-left corner of the box.  The
  box in row i, column j is named by the root ``e_i - d_j``.
* The border word of a diagram traces the upper border of the diagram from
  the top-left to the bottom-right corner of the box, one letter per unit
  step: ``r`` for right, ``d`` for down.  It has m ``r``s and n ``d``s, and
  the i-th ``d`` is preceded by exactly ``parts[n - i]`` ``r``s.  The empty
  diagram reads ``d^n r^m`` and the full box reads ``r^m d^n``.
* A shuffle is a sequence of the symbols 1..n and 1'..m' in which the
  unprimed symbols appear in increasing order and so do the primed ones.
  The primed symbol j' is stored as the integer n + j; rendering restores
  the prime.  Replacing each ``d`` of a word by the smallest unused
  unprimed symbol and each ``r`` by the smallest unused primed symbol gives
  the shuffle of the word.

The three encodings are in bijection, the triangle of conversions commutes,
and every operation in this module is a pure function over immutable
values, so everything here can be shared freely between threads or tasks.
"""

import re
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import gcd

Parts = tuple[int, ...]
Shuffle = tuple[int, ...]


class DomainError(Exception):
    """A partial operation is undefined at the given input."""


class NonCoprimeShape(DomainError):
    """The construction requires gcd(n, m) = 1."""


class ShapeUnsupported(DomainError):
    """The box shape lies outside this operation's domain."""


@dataclass(frozen=True)
class RectShape:
    """An n-row, m-column box."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"box needs positive dimensions, got {self.n}x{self.m}")

    @property
    def coprime(self) -> bool:
        return gcd(self.n, self.m) == 1

    @property
    def size(self) -> int:
        """Length of a border word, m + n."""
        return self.n + self.m


@dataclass(frozen=True, order=True)
class OddRoot:
    """A signed isotropic root, sign * (e_i - d_j).

    One signed root names one groupoid morphism: +(e_i - d_j) adds the box
    in row i, column j, and -(e_i - d_j) removes it.
    """

    sign: int
    i: int
    j: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"root sign must be +1 or -1, got {self.sign!r}")

    def negated(self) -> "OddRoot":
        return OddRoot(-self.sign, self.i, self.j)


def check_root(shape: RectShape, root: OddRoot) -> None:
    if not (1 <= root.i <= shape.n and 1 <= root.j <= shape.m):
        raise ValueError(f"root {render_root(root)} out of range for {shape.n}x{shape.m}")


def check_diagram(shape: RectShape, parts: Parts) -> None:
    if len(parts) != shape.n:
        raise ValueError(f"expected {shape.n} parts, got {len(parts)}")
    if any(p < 0 or p > shape.m for p in parts):
        raise ValueError(f"parts must lie in 0..{shape.m}: {parts}")
    if any(parts[t] < parts[t + 1] for t in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")


def check_word(shape: RectShape, word: str) -> None:
    if len(word) != shape.size or set(word) - {"r", "d"}:
        raise ValueError(f"word must be {shape.size} letters over r/d: {word!r}")
    if word.count("r") != shape.m:
        raise ValueError(f"word needs {shape.m} r's and {shape.n} d's: {word!r}")


def check_shuffle(shape: RectShape, shuf: Shuffle) -> None:
    if sorted(shuf) != list(range(1, shape.size + 1)):
        raise ValueError(f"shuffle must use each of 1..{shape.n} and 1'..{shape.m}' once")
    unprimed = [s for s in shuf if s <= shape.n]
    primed = [s for s in shuf if s > shape.n]
    if unprimed != sorted(unprimed) or primed != sorted(primed):
        raise ValueError(f"unprimed and primed symbols must each increase: {shuf}")


def identity_shuffle(shape: RectShape) -> Shuffle:
    """The distinguished shuffle 1, ..., n, 1', ..., m'."""
    return tuple(range(1, shape.size + 1))


def all_diagrams(shape: RectShape):
    """Yield every diagram in the box, C(m+n, n) in total."""
    for combo in combinations_with_replacement(range(shape.m + 1), shape.n):
        yield tuple(reversed(combo))


def dual(shape: RectShape, parts: Parts) -> Parts:
    """Column lengths: entry j counts the parts of size at least j + 1."""
    return tuple(sum(1 for p in parts if p > j) for j in range(shape.m))


def word_of_diagram(shape: RectShape, parts: Parts) -> str:
    pieces = []
    prev = 0
    for c in reversed(parts):
        pieces.append("r" * (c - prev))
        pieces.append("d")
        prev = c
    pieces.append("r" * (shape.m - prev))
    return "".join(pieces)


def diagram_of_word(shape: RectShape, word: str) -> Parts:
    check_word(shape, word)
    counts = []
    seen_r = 0
    for ch in word:
        if ch == "r":
            seen_r += 1
        else:
            counts.append(seen_r)
    return tuple(reversed(counts))


def shuffle_of_word(shape: RectShape, word: str) -> Shuffle:
    out = []
    next_unprimed, next_primed = 1, shape.n + 1
    for ch in word:
        if ch == "d":
            out.append(next_unprimed)
            next_unprimed += 1
        else:
            out.append(next_primed)
            next_primed += 1
    return tuple(out)


def word_of_shuffle(shape: RectShape, shuf: Shuffle) -> str:
    return "".join("d" if s <= shape.n else "r" for s in shuf)


def diagram_of_shuffle(shape: RectShape, shuf: Shuffle) -> Parts:
    """Boxes below the path whose k-th step is down iff entry k is unprimed."""
    counts = []
    seen_right = 0
    for s in shuf:
        if s <= shape.n:
            counts.append(seen_right)
        else:
            seen_right += 1
    return tuple(reversed(counts))


def shuffle_of_diagram(shape: RectShape, parts: Parts) -> Shuffle:
    return shuffle_of_word(shape, word_of_diagram(shape, parts))


def rotate_word(word: str, i: int = 1) -> str:
    """Cyclic rotation moving the first i letters to the end."""
    i %= len(word)
    return word[i:] + word[:i]


def rotate_root(shape: RectShape, root: OddRoot, i: int = 0, j: int = 0) -> OddRoot:
    """Rotate a signed root: the row index gains j mod n, the column index loses i mod m."""
    return OddRoot(
        root.sign,
        (root.i - 1 + j) % shape.n + 1,
        (root.j - 1 - i) % shape.m + 1,
    )


def solve_rotation(shape: RectShape, k: int) -> tuple[int, int]:
    """Split k as i*n + j*m; only i mod m and j mod n matter and both are unique.

    >>> solve_rotation(RectShape(2, 3), 3)
    (0, 1)
    >>> solve_rotation(RectShape(2, 3), -4)
    (1, 0)
    """
    if not shape.coprime:
        raise NonCoprimeShape(f"gcd({shape.n}, {shape.m}) != 1")
    n, m = shape.n, shape.m
    i = (k * pow(n, -1, m)) % m if m > 1 else 0
    j = ((k - i * n) // m) % n if n > 1 else 0
    return i, j


def rotated_root_at(shape: RectShape, root: OddRoot, k: int) -> OddRoot:
    """The root seen from the copy with rotation number k."""
    i, j = solve_rotation(shape, k)
    return rotate_root(shape, root, i, j)


def render_diagram(parts: Parts) -> str:
    return ",".join(str(p) for p in parts)


def parse_diagram(shape: RectShape, text: str) -> Parts:
    """Parse a comma list such as "3,1"; short lists are padded with zero parts."""
    entries = [e.strip() for e in text.split(",") if e.strip() != ""]
    try:
        parts = [int(e) for e in entries]
    except ValueError:
        raise ValueError(f"partition entries must be integers: {text!r}") from None
    if len(parts) > shape.n:
        raise ValueError(f"at most {shape.n} parts allowed: {text!r}")
    parts += [0] * (shape.n - len(parts))
    out = tuple(parts)
    check_diagram(shape, out)
    return out


def render_shuffle(shape: RectShape, shuf: Shuffle) -> str:
    return ",".join(str(s) if s <= shape.n else f"{s - shape.n}'" for s in shuf)


def parse_shuffle(shape: RectShape, text: str) -> Shuffle:
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            if token.endswith("'"):
                out.append(shape.n + int(token[:-1]))
            else:
                out.append(int(token))
        except ValueError:
            raise ValueError(f"bad shuffle entry {token!r}") from None
    shuf = tuple(out)
    check_shuffle(shape, shuf)
    return shuf


def render_root(root: OddRoot) -> str:
    return f"{'+' if root.sign > 0 else '-'}e{root.i}-d{root.j}"


_ROOT_RE = re.compile(r"^([+-]?)e(\d+)-d(\d+)$")


def parse_root(shape: RectShape, text: str) -> OddRoot:
    match = _ROOT_RE.match(text.strip())
    if not match:
        raise ValueError(f"roots look like +e1-d2 or -e1-d2, got {text!r}")
    sign = -1 if match.group(1) == "-" else 1
    root = OddRoot(sign, int(match.group(2)), int(match.group(3)))
    check_root(shape, root)
    return root
