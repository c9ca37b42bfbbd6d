"""Symbolic Borel data for the affinization: cyclic diagrams of global roots.

A Borel of the affinization is recorded as a cyclic sequence of m + n
integer root vectors over the basis e_1..e_n, d_1..d_m, dbar, summing to
dbar.  The basis pairing is (e_i, e_j) = delta_ij = -(d_i, d_j) with e and
d orthogonal; dbar is isotropic and orthogonal to everything, the standard
affine convention, which is exactly what makes all row sums of the full
cyclic Gram matrix vanish.  Grey nodes are the isotropic ones.

A finite Borel inside the affinization is the same cyclic diagram plus a
deleted node: the other m + n - 1 node vectors, read cyclically starting
after the deleted node, are the global names of its simple roots, while
the attached (shuffle, k) gives their local names.  Moving the deletion
site one step corresponds to a row/column move on the local pair ("+r" and
"-c" step forward, "-r" and "+c" step back) and never changes the cyclic
diagram; reflecting at a grey node negates its vector, adds it to both
cyclic neighbours, and applies the matching odd reflection to the local
shuffle at a fixed k.

The Borel paired with an anchored pair (diagram, k) has a closed form.
Split k = i*n + j*m - c*mn with 0 <= i < m and 0 <= j < n
(``solve_rotation``) and extend the shuffle of the diagram.  Each node of
the extension has its e coefficients rotated j steps down (e_a moves to
e_{a-j}), its d coefficients rotated i steps up (d_b moves to d_{b+i}),
and c*sum(e) - sum_{a<=j} e_a + sum_{b>m-i} d_b, taken over the old
coefficients, subtracted from its dbar coefficient.  Node t lands at
position (D + t) mod (m + n) with D = i - j - c*m, and D is the deleted
node.  Raising k by mn lowers c by one, so it rotates the positions by m
and raises each dbar coefficient by the sum of the node's e coefficients.
The formula is checked, not assumed: ``verify`` compares it with every
node move and odd reflection out of every anchor in its window, and the
tests compare it with a breadth-first search over those moves and
reflections from the extension of the distinguished shuffle.
"""

from dataclasses import dataclass

from .rect import (
    DomainError,
    OddRoot,
    Parts,
    RectShape,
    Shuffle,
    ShapeUnsupported,
    check_diagram,
    check_shuffle,
    diagram_of_shuffle,
    render_root,
    rotate_word,
    rotated_root_at,
    shuffle_of_diagram,
    solve_rotation,
    word_of_shuffle,
)
from .reflect import NotEligible, root_pair, shuffle_edge, simple_roots
from .orbit import (
    AnchoredPair,
    OrbitClass,
    UndefinedMorphism,
    edge_shift,
    enumerate_class,
    require_class_shape,
)


class NotIsotropic(DomainError):
    """Reflections exist only at grey (isotropic) nodes."""


class DeletedNode(DomainError):
    """The deleted node is not a simple root and cannot be reflected."""


class NotTypeA(DomainError):
    """The cyclic diagram does not encode a border word."""


@dataclass(frozen=True, order=True)
class GlobalRoot:
    """An integer vector over the basis e_1..e_n, d_1..d_m, dbar."""

    eps: tuple[int, ...]
    dels: tuple[int, ...]
    dbar: int

    def __add__(self, other: "GlobalRoot") -> "GlobalRoot":
        return GlobalRoot(
            tuple(a + b for a, b in zip(self.eps, other.eps)),
            tuple(a + b for a, b in zip(self.dels, other.dels)),
            self.dbar + other.dbar,
        )

    def __neg__(self) -> "GlobalRoot":
        return GlobalRoot(
            tuple(-a for a in self.eps), tuple(-a for a in self.dels), -self.dbar
        )

    def __sub__(self, other: "GlobalRoot") -> "GlobalRoot":
        return self + (-other)

    def pair(self, other: "GlobalRoot") -> int:
        """The bilinear form; dbar contributes nothing."""
        plus = sum(a * b for a, b in zip(self.eps, other.eps))
        minus = sum(a * b for a, b in zip(self.dels, other.dels))
        return plus - minus

    @property
    def isotropic(self) -> bool:
        return self.pair(self) == 0

    def render(self) -> str:
        terms: list[tuple[int, str]] = []
        if self.dbar:
            terms.append((self.dbar, "dbar"))
        terms.extend((c, f"d{j}") for j, c in enumerate(self.dels, 1) if c)
        terms.extend((c, f"e{i}") for i, c in enumerate(self.eps, 1) if c)
        if not terms:
            return "0"
        out = []
        for t, (c, name) in enumerate(terms):
            body = name if abs(c) == 1 else f"{abs(c)}{name}"
            if t == 0:
                out.append(body if c > 0 else "-" + body)
            else:
                out.append((" + " if c > 0 else " - ") + body)
        return "".join(out)


def basis_root(shape: RectShape, a: int) -> GlobalRoot:
    """e_a for a in 1..n, d_{a-n} for a in n+1..n+m."""
    eps = [0] * shape.n
    dels = [0] * shape.m
    if a <= shape.n:
        eps[a - 1] = 1
    else:
        dels[a - shape.n - 1] = 1
    return GlobalRoot(tuple(eps), tuple(dels), 0)


def global_root_of_pair(shape: RectShape, pair: tuple[int, int]) -> GlobalRoot:
    return basis_root(shape, pair[0]) - basis_root(shape, pair[1])


def dbar_root(shape: RectShape) -> GlobalRoot:
    return GlobalRoot((0,) * shape.n, (0,) * shape.m, 1)


@dataclass(frozen=True)
class CyclicDK:
    """A cyclic arrangement of m + n global roots; grey nodes are isotropic.

    Valid diagrams have node sum dbar, an even positive number of grey
    nodes, and a full Gram matrix with all row sums zero.
    """

    shape: RectShape
    nodes: tuple[GlobalRoot, ...]

    def __post_init__(self):
        if len(self.nodes) != self.shape.size:
            raise ValueError(f"expected {self.shape.size} nodes, got {len(self.nodes)}")

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def greys(self) -> tuple[bool, ...]:
        return tuple(r.isotropic for r in self.nodes)

    def node_sum(self) -> GlobalRoot:
        total = self.nodes[0]
        for r in self.nodes[1:]:
            total = total + r
        return total

    def gram(self) -> list[list[int]]:
        return [[a.pair(b) for b in self.nodes] for a in self.nodes]


@dataclass(frozen=True)
class FiniteBorel:
    """A finite Borel of one copy inside the affinization.

    The node vectors other than ``nodes[deleted]`` are, read cyclically
    starting after the deleted node, the global names of the simple roots
    of the Borel locally named by (shuffle, k).
    """

    dk: CyclicDK
    deleted: int
    shuffle: Shuffle
    k: int

    @property
    def shape(self) -> RectShape:
        return self.dk.shape

    def diagram(self) -> Parts:
        return diagram_of_shuffle(self.shape, self.shuffle)

    def word(self) -> str:
        return word_of_shuffle(self.shape, self.shuffle)

    def pair(self) -> AnchoredPair:
        return AnchoredPair(self.diagram(), self.k)

    @property
    def degree(self) -> int:
        return self.pair().degree()

    def simple_global(self) -> tuple[GlobalRoot, ...]:
        """Global names of the simple roots, in local order."""
        size = self.dk.size
        return tuple(
            self.dk.nodes[(self.deleted + 1 + t) % size] for t in range(size - 1)
        )


def extend(shape: RectShape, shuf: Shuffle) -> FiniteBorel:
    """Adjoin the extending root dbar - theta to the simple roots of a shuffle.

    theta, the highest root, is the telescoping sum of the simple roots.
    The result is anchored at rotation number zero with the extending root
    at node 0, which is also the deleted node.
    """
    if shape.n == shape.m:
        raise ShapeUnsupported(f"extension needs n != m, got {shape.n}x{shape.m}")
    check_shuffle(shape, shuf)
    finite = tuple(global_root_of_pair(shape, p) for p in simple_roots(shape, shuf))
    theta = global_root_of_pair(shape, (shuf[0], shuf[-1]))
    alpha0 = dbar_root(shape) - theta
    dk = CyclicDK(shape, (alpha0,) + finite)
    return FiniteBorel(dk, 0, tuple(shuf), 0)


_MOVE_STEP = {"+r": 1, "-c": 1, "-r": -1, "+c": -1}


def node_move(b: FiniteBorel, which: str) -> FiniteBorel:
    """Re-anchor a Borel by one row/column move; the cyclic diagram is unchanged."""
    if which not in _MOVE_STEP:
        raise ValueError(f"unknown edge move {which!r}")
    shape = b.shape
    moved = shuffle_edge(shape, b.shuffle, which)
    return FiniteBorel(
        b.dk,
        (b.deleted + _MOVE_STEP[which]) % b.dk.size,
        moved,
        b.k + edge_shift(shape, which),
    )


def step_forward(b: FiniteBorel) -> FiniteBorel:
    """Advance the deletion site by one; exactly one of "+r", "-c" applies."""
    return node_move(b, "+r" if b.word().startswith("d") else "-c")


def anchor_at(b: FiniteBorel, pair) -> FiniteBorel:
    """Re-anchor at the given (diagram, k) representative."""
    target = AnchoredPair(tuple(pair[0]), pair[1])
    cur = b
    for _ in range(b.dk.size):
        if cur.pair() == target:
            return cur
        cur = step_forward(cur)
    raise ValueError(f"{target} is not an anchor of this Borel")


def affine_reflect(b: FiniteBorel, node: int) -> FiniteBorel:
    """Odd reflection at a grey, undeleted node.

    The node vector is negated, both cyclic neighbours gain it (the deleted
    node included, keeping the node sum at dbar), and the local shuffle
    swaps the two entries under the node at an unchanged rotation number.
    """
    size = b.dk.size
    node %= size
    if node == b.deleted:
        raise DeletedNode(f"node {node} is the deleted node")
    gamma = b.dk.nodes[node]
    if not gamma.isotropic:
        raise NotIsotropic(f"node {node} ({gamma.render()}) is not isotropic")
    nodes = list(b.dk.nodes)
    nodes[node] = -gamma
    nodes[(node - 1) % size] = nodes[(node - 1) % size] + gamma
    nodes[(node + 1) % size] = nodes[(node + 1) % size] + gamma
    pos = (node - b.deleted - 1) % size
    a, c = b.shuffle[pos], b.shuffle[pos + 1]
    if (a <= b.shape.n) == (c <= b.shape.n):
        raise ValueError("cyclic diagram out of sync: grey node over an even local root")
    shuf = list(b.shuffle)
    shuf[pos], shuf[pos + 1] = shuf[pos + 1], shuf[pos]
    return FiniteBorel(CyclicDK(b.shape, tuple(nodes)), b.deleted, tuple(shuf), b.k)


def borel_act(b: FiniteBorel, root: OddRoot) -> FiniteBorel:
    """Apply a groupoid morphism to a Borel.

    Walk the anchors of the class; at the first whose local simple roots
    contain the rotated signed root, reflect at the matching node.
    """
    shape = b.shape
    cur = b
    for _ in range(b.dk.size):
        rot = rotated_root_at(shape, root, cur.k)
        pairs = simple_roots(shape, cur.shuffle)
        want = root_pair(shape, rot)
        if want in pairs:
            node = (cur.deleted + 1 + pairs.index(want)) % b.dk.size
            return affine_reflect(cur, node)
        cur = step_forward(cur)
    raise UndefinedMorphism(f"{render_root(root)} undefined on this Borel")


def gram(obj) -> list[list[int]]:
    """Gram matrix: full cyclic for a diagram, simple roots only for a Borel."""
    if isinstance(obj, CyclicDK):
        return obj.gram()
    roots = obj.simple_global()
    return [[a.pair(b) for b in roots] for a in roots]


def words_from_greys(shape: RectShape, greys) -> str:
    """Recover the border word read off a cyclic grey/white pattern.

    Edge labels start after node 0, keep their letter across white nodes
    and flip across grey ones; of the two letter assignments the one with
    m letters ``r`` wins.
    """
    if shape.n == shape.m:
        raise ShapeUnsupported("cyclic diagrams encode words only for n != m")
    greys = tuple(bool(g) for g in greys)
    if len(greys) != shape.size:
        raise ValueError(f"expected {shape.size} parities, got {len(greys)}")
    if sum(greys) % 2:
        raise NotTypeA("odd number of grey nodes: edge labels are inconsistent")
    flip = {"r": "d", "d": "r"}
    letters = ["r"]
    for t in range(1, shape.size):
        prev = letters[-1]
        letters.append(flip[prev] if greys[t] else prev)
    word = "".join(letters)
    rs = word.count("r")
    if rs == shape.n:
        word = "".join(flip[ch] for ch in word)
    elif rs != shape.m:
        raise NotTypeA(f"edge labels give {rs} r's, expected {shape.m} or {shape.n}")
    return word


def dta_words(dk: CyclicDK) -> tuple[str, ...]:
    """One border word per node: entry i is the word anchored at deletion site i."""
    w0 = words_from_greys(dk.shape, dk.greys)
    return tuple(rotate_word(w0, i) for i in range(dk.size))


def borel_at(shape: RectShape, pair) -> FiniteBorel:
    """The Borel paired with a class, anchored at the given representative.

    >>> b = borel_at(RectShape(3, 4), ((0, 0, 0), 7))
    >>> [r.render() for r in b.simple_global()]
    ['dbar - e1 + e3', 'e1 - e2', '-d2 + e2', 'd2 - d3', 'd3 - d4', 'dbar - d1 + d4']
    """
    require_class_shape(shape)
    parts, k = tuple(pair[0]), pair[1]
    check_diagram(shape, parts)
    n, m = shape.n, shape.m
    i, j = solve_rotation(shape, k)
    c = (i * n + j * m - k) // (n * m)
    base = extend(shape, shuffle_of_diagram(shape, parts))
    deleted = (i - j - c * m) % shape.size
    nodes = [None] * shape.size
    for t, r in enumerate(base.dk.nodes):
        shift = c * sum(r.eps) - sum(r.eps[:j]) + sum(r.dels[m - i:])
        nodes[(deleted + t) % shape.size] = GlobalRoot(
            r.eps[j:] + r.eps[:j], r.dels[m - i:] + r.dels[:m - i], r.dbar - shift
        )
    return FiniteBorel(CyclicDK(shape, tuple(nodes)), deleted, base.shuffle, k)


def transitions(b: FiniteBorel) -> list[FiniteBorel]:
    """Every Borel one step away: the defined node moves, then the
    reflections at the grey undeleted nodes."""
    out = []
    for which in _MOVE_STEP:
        try:
            out.append(node_move(b, which))
        except NotEligible:
            pass
    for node in range(b.dk.size):
        if node != b.deleted and b.dk.nodes[node].isotropic:
            out.append(affine_reflect(b, node))
    return out


def borel_of_class(cls: OrbitClass) -> FiniteBorel:
    """The Borel paired with a class, anchored at the canonical representative."""
    return borel_at(cls.shape, cls.canonical)


class BorelAtlas:
    """The class-to-Borel pairing of one shape; refuses unsupported shapes."""

    def __init__(self, shape: RectShape):
        require_class_shape(shape)
        self.shape = shape

    def borel_of_class(self, cls: OrbitClass) -> FiniteBorel:
        return borel_of_class(cls)


def class_of_borel(b: FiniteBorel) -> OrbitClass:
    """The class paired with a Borel, after a consistency check of its diagram."""
    require_class_shape(b.shape)
    words = dta_words(b.dk)
    if words[b.deleted] != b.word():
        raise ValueError("cyclic diagram out of sync with its local name")
    return enumerate_class(b.shape, b.pair())


def borel_json(b: FiniteBorel) -> dict:
    return {
        "nodes": [
            {"root": r.render(), "grey": r.isotropic} for r in b.dk.nodes
        ],
        "deleted": b.deleted,
        "local": {"partition": list(b.diagram()), "k": b.k},
    }
