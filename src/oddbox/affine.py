"""Symbolic Borel data for the affinization: cyclic diagrams of global roots.

A Borel of the affinization is recorded as a cyclic sequence of m + n real
roots e_x - e_y + c*dbar over the basis e_1..e_n, d_1..d_m, dbar, summing to
dbar.  ``CyclicDK`` stores the cyclic word of basis labels (a for e_a, -b
for d_b), each once, and one c per position; node t runs from label t to
label t + 1, so the nodes chain, their finite parts telescope to 0 and
the node sum is dbar exactly when the c's sum to 1.  ``nodes`` renders
them as ``GlobalRoot`` values.  The basis pairing is (e_i, e_j) = delta_ij
= -(d_i, d_j) with e and d orthogonal; dbar is isotropic and orthogonal to
everything, the standard affine convention, which is exactly what makes
all row sums of the full cyclic Gram matrix vanish.  Grey nodes are the
isotropic ones, which pair an e with a d.

A finite Borel inside the affinization is the same cyclic diagram plus a
deleted node: the other m + n - 1 nodes, read cyclically starting after
the deleted node, are the global names of its simple roots, while the
attached anchored pair (diagram, k) gives their local names, the
consecutive differences of the diagram's shuffle.  A row/column move on
the local pair steps the deletion site by the move's turn of the word
(``reflect.edge_turn``) and never changes the cyclic diagram.  Reflecting
at a grey node negates it, adds it to both cyclic neighbours, and moves
the local diagram by the box under the node at a fixed k; on the labels
it swaps the node's two, as the class action swaps a mixed adjacent pair
of the border word.  The morphism s(e_i - d_j) acts on the cyclic diagram
alone: it swaps the adjacent labels of s(e_i - d_j), and is undefined
when they are not adjacent in that order (``borel_act``).

The Borel paired with an anchored pair (diagram, k) has a closed form.
The extension of a shuffle sigma (``extend``) is its cyclic consecutive
differences: node t is basis(sigma[t-1]) - basis(sigma[t]), and node 0 also
gets dbar.  Split k = i*n + j*m - c*mn with 0 <= i < m and 0 <= j < n
(``solve_rotation``).  Moving the extension of the diagram's shuffle to k
sends e_a to e_{a-j} and d_b to d_{b+i}, and lowers the dbar coefficient of
a node by c - [a <= j] for each e_a and by [b > m - i] for each d_b, counted
with the node's coefficients.  Node t lands at position (D + t) mod (m + n)
with D = i - j - c*m, and D is the deleted node.  ``borel_at`` fills each
label and c straight from the shuffle symbols, without ``extend``.
Raising k by mn lowers c by one, so it rotates the positions by m and raises
each dbar coefficient by the sum of the node's e coefficients.
The formula is checked, not assumed, and decoded as well as computed:
``site_pair`` reads a deletion site's anchored pair back from the cyclic
diagram alone, and is the one reader of a diagram's words (the ``borel``
command prints them).  ``verify`` compares the formula with ``extend`` at
the empty diagram and k = 0, with the deletion site of every anchor along
its class, with every odd reflection out of every anchor in its window and
with the decoder.  The tests compare it with rotating ``extend`` node by
node, and with a breadth-first search from the extension of the
distinguished shuffle that takes its own steps: row/column moves with the
site step above, and ``CyclicDK.reflect`` with ``reflected_pairs``.
"""

from typing import NamedTuple

from .rect import (
    DomainError,
    OddRoot,
    RectShape,
    Shuffle,
    ShapeUnsupported,
    check_diagram,
    check_root,
    check_shuffle,
    diagram_of_shuffle,
    diagram_of_word,
    render_root,
    shuffle_of_diagram,
    solve_rotation,
)
from .reflect import pair_root, t_apply
from .orbit import (
    AnchoredPair,
    OrbitClass,
    UndefinedMorphism,
    enumerate_class,
    require_class_shape,
)


class NotIsotropic(DomainError):
    """Reflections exist only at grey (isotropic) nodes."""


class NotTypeA(DomainError):
    """The cyclic diagram does not encode a border word."""


class GlobalRoot(NamedTuple):
    """The real root e_up - e_down + c*dbar of the affinization, c = ``dbar``:
    the rendered view of one node of a ``CyclicDK``.

    A basis label is a for e_a (1 <= a <= n) and -b for d_b (1 <= b <= m).
    The root is isotropic, a grey node, exactly when it pairs an e with a d.
    """

    up: int
    down: int
    dbar: int

    @property
    def isotropic(self) -> bool:
        return (self.up > 0) != (self.down > 0)

    def render(self) -> str:
        """dbar first, then the d terms, then the e terms, each by index."""
        terms = [(self.dbar, "dbar")] if self.dbar else []
        if self.up != self.down:
            ends = sorted([(self.up, 1), (self.down, -1)], key=lambda end: (end[0] > 0, abs(end[0])))
            terms.extend((c, f"e{a}" if a > 0 else f"d{-a}") for a, c in ends)
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


class _Cycle(NamedTuple):
    shape: RectShape
    labels: tuple[int, ...]
    dbar: tuple[int, ...]


class CyclicDK(_Cycle):
    """The cyclic word of the m + n basis labels, each once, and one dbar
    coefficient per position; node t is e_{labels[t]} - e_{labels[t+1]} +
    dbar[t]*dbar.  Valid diagrams have node sum dbar, so their dbar
    coefficients sum to 1, and an even positive number of grey (isotropic)
    nodes, the e/d turns of the word."""

    __slots__ = ()

    def __new__(cls, shape: RectShape, labels: tuple[int, ...], dbar: tuple[int, ...]):
        if len(dbar) != shape.size:
            raise ValueError(f"expected {shape.size} dbar coefficients, got {len(dbar)}")
        if len(labels) != shape.size or set(labels) != {*range(-shape.m, 0), *range(1, shape.n + 1)}:
            raise NotTypeA("the labels do not cover every basis vector once")
        return tuple.__new__(cls, (shape, tuple(labels), tuple(dbar)))

    @classmethod
    def _make(cls, iterable) -> "CyclicDK":
        return cls(*iterable)

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def nodes(self) -> tuple[GlobalRoot, ...]:
        """Each node as a ``GlobalRoot``, its label, the next label and its dbar."""
        labels = self.labels
        return tuple(map(GlobalRoot, labels, labels[1:] + labels[:1], self.dbar))

    @property
    def greys(self) -> tuple[bool, ...]:
        labels = self.labels
        return tuple((x > 0) != (y > 0) for x, y in zip(labels, labels[1:] + labels[:1]))

    def node_sum(self) -> int:
        """The dbar coefficient of the node sum; the finite parts cancel."""
        return sum(self.dbar)

    def reflect(self, node: int) -> "CyclicDK":
        """Negate a grey node and add it to both cyclic neighbours, which
        keeps the node sum: swap its two labels, negate its dbar
        coefficient and add that to both neighbours' coefficients."""
        succ = (node + 1) % self.size
        labels, dbar = list(self.labels), list(self.dbar)
        if (labels[node] > 0) == (labels[succ] > 0):
            raise NotIsotropic(f"node {node} ({self.nodes[node].render()}) is not isotropic")
        labels[node], labels[succ] = labels[succ], labels[node]
        dbar[node - 1] += dbar[node]
        dbar[succ] += dbar[node]
        dbar[node] = -dbar[node]
        return CyclicDK(self.shape, tuple(labels), tuple(dbar))


class FiniteBorel(NamedTuple):
    """A finite Borel of one copy inside the affinization.

    The nodes other than ``nodes[deleted]`` are, read cyclically
    starting after the deleted node, the global names of the simple roots
    of the Borel locally named by ``pair``: the consecutive differences of
    the shuffle of ``pair.diagram``, at rotation number ``pair.k``.  The
    shuffle and the diagram are in bijection, so either names the Borel.
    """

    dk: CyclicDK
    deleted: int
    pair: AnchoredPair

    @property
    def shape(self) -> RectShape:
        return self.dk.shape

    def simple_global(self) -> tuple[GlobalRoot, ...]:
        """Global names of the simple roots, in local order."""
        nodes = self.dk.nodes
        return nodes[self.deleted + 1:] + nodes[:self.deleted]


def extend(shape: RectShape, shuf: Shuffle) -> FiniteBorel:
    """Adjoin the extending root dbar - theta to the simple roots of a shuffle.

    theta, the highest root, is the telescoping sum of the simple roots.
    The result is anchored at rotation number zero with the extending root
    at node 0, which is also the deleted node.
    """
    if shape.n == shape.m:
        raise ShapeUnsupported(f"extension needs n != m, got {shape.n}x{shape.m}")
    check_shuffle(shape, shuf)
    labels = [a if a <= shape.n else shape.n - a for a in shuf]  # d_b is symbol n + b, label -b
    dk = CyclicDK(shape, tuple(labels[-1:] + labels[:-1]), (1,) + (0,) * (shape.size - 1))
    return FiniteBorel(dk, 0, AnchoredPair(diagram_of_shuffle(shape, shuf), 0))


def reflected_pairs(b: FiniteBorel) -> dict[int, AnchoredPair]:
    """For each grey, undeleted node, the local pair after the odd reflection
    there: the diagram gains or loses the box under the node, at the same k.

    >>> reflected_pairs(borel_at(RectShape(2, 3), ((0, 0), 0)))
    {2: AnchoredPair(diagram=(1, 0), k=0)}
    """
    shape, size = b.shape, b.dk.size
    shuf = shuffle_of_diagram(shape, b.pair.diagram)
    out = {}
    for node, grey in enumerate(b.dk.greys):
        if node == b.deleted or not grey:
            continue
        pos = (node - b.deleted - 1) % size
        box = pair_root(shape, (shuf[pos], shuf[pos + 1]))
        if box is None:
            raise ValueError("cyclic diagram out of sync: grey node over an even local root")
        out[node] = AnchoredPair(t_apply(shape, b.pair.diagram, box), b.pair.k)
    return out


def borel_act(dk: CyclicDK, root: OddRoot) -> CyclicDK:
    """Swap the adjacent labels of s(e_i - d_j), (i, -j) for s = + and
    (-j, i) for s = -: the reflection at that node, which is grey."""
    check_root(dk.shape, root)
    up, down = (root.i, -root.j) if root.sign > 0 else (-root.j, root.i)
    node = dk.labels.index(up)
    if dk.labels[(node + 1) % dk.size] == down:
        return dk.reflect(node)
    raise UndefinedMorphism(f"{render_root(root)} undefined on this Borel")


def borel_at(shape: RectShape, pair) -> FiniteBorel:
    """The Borel paired with a class, anchored at the given representative.

    Node t of the cyclic diagram is the difference of the basis vectors of
    shuffle symbols t - 1 and t (cyclically), rotated to k, with dbar
    coefficient [t = 0] minus the lifts of the two symbols; it sits at
    position (deleted + t) mod (m + n).  See the module docstring.

    >>> b = borel_at(RectShape(3, 4), ((0, 0, 0), 7))
    >>> [r.render() for r in b.simple_global()]
    ['dbar - e1 + e3', 'e1 - e2', '-d2 + e2', 'd2 - d3', 'd3 - d4', 'dbar - d1 + d4']
    """
    require_class_shape(shape)
    parts, k = tuple(pair[0]), pair[1]
    check_diagram(shape, parts)
    n, m, size = shape.n, shape.m, shape.size
    i, j = solve_rotation(shape, k)
    c = (i * n + j * m - k) // (n * m)
    shuf = shuffle_of_diagram(shape, parts)
    # per shuffle symbol (a for e_a, n + b for d_b): its basis label after
    # the rotation and what it takes off the dbar coefficient
    label, lift = [0] * (size + 1), [0] * (size + 1)
    for a in range(1, n + 1):
        label[a], lift[a] = (a - 1 - j) % n + 1, c - (a <= j)
    for b in range(1, m + 1):
        label[n + b], lift[n + b] = -((b - 1 + i) % m + 1), int(b > m - i)
    deleted = (i - j - c * m) % size
    labels, dbar = [0] * size, [0] * size
    for t in range(size):
        up, down = shuf[t - 1], shuf[t]
        labels[(deleted + t) % size] = label[up]
        dbar[(deleted + t) % size] = (t == 0) - lift[up] + lift[down]
    return FiniteBorel(CyclicDK(shape, tuple(labels), tuple(dbar)), deleted, AnchoredPair(parts, k))


class BorelAtlas:
    """The class-to-Borel pairing of one shape, anchored at each class's
    canonical pair; refuses unsupported shapes."""

    def __init__(self, shape: RectShape):
        require_class_shape(shape)
        self.shape = shape

    def borel_of_class(self, cls: OrbitClass) -> FiniteBorel:
        return borel_at(cls.shape, cls.canonical)


def site_pair(dk: CyclicDK, site: int) -> AnchoredPair:
    """The anchored pair whose Borel deletes node ``site``, read from the
    labels and dbar coefficients alone.  After the site, the labels are the
    rotated shuffle symbols, so they spell the border word (``d`` for an e
    label, ``r`` for a d label), and the running sum of the dbar
    coefficients gives each symbol's lift: the first e and the first d give
    j and i, and the lift is 0 at d_1 and c - [j > 0] at e_1."""
    require_class_shape(dk.shape)
    n, m = dk.shape.n, dk.shape.m
    start = (site + 1) % dk.size
    labels = dk.labels[start:] + dk.labels[:start]
    lift, first = 0, {}  # running dbar sum; is-e -> (label, lift) of the first such symbol
    for x, c in zip(labels, dk.dbar[start:] + dk.dbar[:start]):
        first.setdefault(x > 0, (x, lift))
        lift += c
    (a, e_lift), (b, d_lift) = first[True], first[False]
    i, j = -b - 1, (1 - a) % n
    k = i * n + j * m - (e_lift - d_lift + (j > 0)) * n * m
    word = "".join("d" if x > 0 else "r" for x in labels)
    return AnchoredPair(diagram_of_word(dk.shape, word), k)


def site_pairs(dk: CyclicDK) -> tuple[AnchoredPair, ...]:
    """Entry s is ``site_pair(dk, s)``, the anchored pair that deletes node s.

    >>> b = borel_at(RectShape(2, 3), ((1, 0), 4))
    >>> b.deleted, site_pairs(b.dk)[b.deleted]
    (2, AnchoredPair(diagram=(1, 0), k=4))
    """
    return tuple(site_pair(dk, s) for s in range(dk.size))


def class_of_borel(dk: CyclicDK) -> OrbitClass:
    """The class whose members are the ``site_pairs`` of a cyclic diagram, or
    ``NotTypeA``: a left inverse of the pairing, read from the diagram alone."""
    pairs = site_pairs(dk)
    cls = enumerate_class(dk.shape, pairs[0])
    if set(cls.reps) != set(pairs):
        raise NotTypeA("the deletion sites do not read one class")
    return cls


def borel_json(b: FiniteBorel) -> dict:
    return {
        "nodes": [
            {"root": r.render(), "grey": r.isotropic} for r in b.dk.nodes
        ],
        "deleted": b.deleted,
        "local": {"partition": list(b.pair.diagram), "k": b.pair.k},
    }
