"""Rotation-number classes of diagrams and the extended groupoid action.

A pair (diagram, k) moves by four elementary steps: deleting a full bottom row
adds m to k, restoring one subtracts m, deleting a full first column adds n to
k, restoring one subtracts n.  On border words every step cycles the word by
one letter, so for coprime n, m the class of a pair has exactly m + n members,
one per rotation of its word.  The member of least rotation number, the
canonical pair, names the class; ``canonical_pair`` finds it in one pass over
the parts.  By the cycle lemma its diagram is the rational Dyck one: a full
bottom row, and more than i*m/n boxes in row i from the top.
``enumerate_class`` walks the members from it with two of the moves and no
words: while the top row is nonempty (the word starts with ``r``) it deletes
the first column, adding n to k, and otherwise (the word starts with ``d``) it
restores a full bottom row, subtracting m.  The ``edge-moves`` check of the
verification suite ties these moves to word rotation, and ``class-generators``
ties the walk to the closure under all four moves.

The groupoid acts on classes by swapping one mixed adjacent pair of the
cyclic border word, as odd reflections act on affine Borels.  At the
canonical representative (diagram, k) every mixed adjacent pair of the word
is a box move; the pair that wraps around from the last letter to the first
is one at the next representative, whose word is rotated by one letter.
Split k = i*n + j*m: the box move adding row a, column b (the pair ``d``
then ``r``, the shuffle entries a and b') is named by the global root
+(e_{a-j} - d_{b+i}), indices mod n and m, and the reverse pair by the
negative root.  ``out_edges`` lists the roots with the canonical pair of
the class each one reaches, and ``act`` looks a root up there and
enumerates that class.  The verification suite compares them with an
independent scan that reads the corners of every representative, rotates
each box move back to its global root and collects the classes the moves
reach: every root lands in one class, whichever representative it is
applied at, which is what makes the action well defined.

Row moves alone refine each class into m chains (``row_class``), each a
tuple of pairs grown by ``raw_move``; the ``refinement-bijection`` check of
the verification suite acts on a chain through the same scan.

Shifting every rotation number by one, ``(diagram, k) -> (diagram, k + 1)``,
maps the classes of degree d onto those of degree d + 1 and commutes with the
action up to a fixed rotation of the roots: ``act(c.shifted(1), r)`` is
``act(c, rho(r)).shifted(1)`` with ``rho`` the root rotation of k = 1.  So
``build_graph`` reads each out-edge of one degree once and relabels it for
every degree of its window, turning its root back by ``rho`` once per degree;
the ``degree-shift`` check of the verification suite tests both facts.
Everything here is an immutable value.
"""

from itertools import groupby
from math import comb
from typing import Iterator, NamedTuple

from .rect import (
    DomainError,
    OddRoot,
    Parts,
    RectShape,
    NonCoprimeShape,
    ShapeUnsupported,
    check_diagram,
    check_root,
    render_diagram,
    render_root,
    rotate_root,
    shuffle_of_diagram,
    solve_rotation,
    word_of_diagram,
)
from .reflect import diagram_edge, edge_turn, pair_root, t_apply


class UndefinedMorphism(DomainError):
    """The signed root is not among the out-edges of the class."""


class GraphTooLarge(DomainError):
    """A graph, degree listing or verification sweep would cover more
    classes (or diagrams) than ``MAX_GRAPH_VERTICES``."""


# Refusing a graph, a degree listing or a verification sweep before it starts
# keeps huge boxes and windows from hanging or exhausting memory; the largest
# graph the tests and the benchmark build has 1 260 vertices.
MAX_GRAPH_VERTICES = 10_000


def _refuse_over_cap(shape: RectShape, count: int, what: str) -> None:
    """Raise ``GraphTooLarge`` when ``count`` exceeds ``MAX_GRAPH_VERTICES``.

    ``what`` names the counted things, e.g. "classes in degrees 0..5".
    Callers check before enumerating anything, so a huge box or window is
    refused at once instead of hanging.
    """
    if count > MAX_GRAPH_VERTICES:
        raise GraphTooLarge(
            f"the {shape.n}x{shape.m} box has {count} {what}, "
            f"more than the {MAX_GRAPH_VERTICES} a single command may sweep"
        )


def require_class_shape(shape: RectShape) -> None:
    """Classes need gcd(n, m) = 1, and the 1x1 box is excluded outright."""
    if (shape.n, shape.m) == (1, 1):
        raise ShapeUnsupported("the 1x1 box is not supported by class operations")
    if not shape.coprime:
        raise NonCoprimeShape(
            f"gcd({shape.n}, {shape.m}) != 1: rotation-number classes are ill-defined"
        )


class AnchoredPair(NamedTuple):
    """A diagram together with its rotation number."""

    diagram: Parts
    k: int

    def degree(self) -> int:
        return sum(self.diagram) + self.k


class OrbitClass(NamedTuple):
    """The m + n representatives of one class in rotation order, from
    ``enumerate_class``, starting at the canonical pair that names the
    class.  Equality and hashing compare ``reps``, so they are class
    equality.

    In rotation order the raw move of turn +1 out of ``reps[t]`` reaches
    ``reps[t + 1]``; the ``verify`` check ``class-generators`` owns that.
    ``out_edges``, ``approx_decompose`` and the Borel pairing read it.
    """

    shape: RectShape
    reps: tuple[AnchoredPair, ...]

    @property
    def canonical(self) -> AnchoredPair:
        return self.reps[0]

    @property
    def degree(self) -> int:
        return self.canonical.degree()

    def __contains__(self, pair) -> bool:
        return AnchoredPair(tuple(pair[0]), pair[1]) in self.reps

    def shifted(self, s: int) -> "OrbitClass":
        """Every rotation number raised by s, representatives in the same order."""
        return OrbitClass(self.shape, tuple(AnchoredPair(p.diagram, p.k + s) for p in self.reps))


def edge_shift(shape: RectShape, which: str) -> int:
    """Rotation-number shift of a row/column move: n per ``r``, -m per ``d`` turned to the back."""
    letter, turn = edge_turn(which)
    return turn * shape.n if letter == "r" else -turn * shape.m


def raw_move(shape: RectShape, pair, which: str) -> AnchoredPair:
    """A row/column move on a pair: ``diagram_edge`` and the k shift."""
    return AnchoredPair(diagram_edge(shape, tuple(pair[0]), which), pair[1] + edge_shift(shape, which))


def canonical_pair(shape: RectShape, pair) -> AnchoredPair:
    """The member of least rotation number of the class of a pair, found in
    one pass over the parts.

    Moving an ``r`` from the front of the word to its back adds n to k and
    moving a ``d`` subtracts m, so k is least just after some ``d``.  The
    word has parts[n - i] letters ``r`` before its i-th ``d``, so rotating
    past that ``d`` moves k by n*parts[n - i] - i*m; for coprime n, m the
    least shift over i = 0..n is unique.  With c = parts[n - i], the rotated
    diagram is the last i parts raised by m - c, then the others lowered by c.
    The pair is not checked: the callers pass diagrams the library made, and
    ``enumerate_class`` checks outside input before it calls this.

    >>> canonical_pair(RectShape(2, 3), ((3, 1), 0))
    AnchoredPair(diagram=(3, 2), k=-1)
    """
    parts, k = tuple(pair[0]), pair[1]
    n, m = shape.n, shape.m
    shifts = [0] + [n * parts[n - i] - i * m for i in range(1, n + 1)]
    i = shifts.index(min(shifts))
    c = parts[n - i] if i else 0
    rotated = tuple(m - c + x for x in parts[n - i:]) + tuple(x - c for x in parts[:n - i])
    return AnchoredPair(rotated, k + shifts[i])


def enumerate_class(shape: RectShape, pair) -> OrbitClass:
    """The class of a pair: one representative per rotation of its word,
    from the canonical pair on.

    Rotating the word by one letter is one raw move, so the walk never builds
    a word: a word starting with ``r`` (nonempty top row) loses its first
    column and k rises by n; one starting with ``d`` (empty top row) gets a
    full bottom row back and k falls by m.  After m + n moves the walk is
    back at ``canonical_pair(shape, pair)``, where it started.
    """
    require_class_shape(shape)
    check_diagram(shape, tuple(pair[0]))
    p, k = canonical_pair(shape, pair)
    n, m = shape.n, shape.m
    seq = []
    for _ in range(shape.size):
        seq.append(AnchoredPair(p, k))
        if p[-1]:
            p, k = tuple([x - 1 for x in p]), k + n
        else:
            p, k = (m,) + p[:-1], k - m
    return OrbitClass(shape, tuple(seq))


def all_signed_roots(shape: RectShape, signs=(1, -1)) -> tuple[OddRoot, ...]:
    return tuple(
        OddRoot(s, i, j)
        for s in signs
        for i in range(1, shape.n + 1)
        for j in range(1, shape.m + 1)
    )


def out_edges(cls: OrbitClass) -> dict[OddRoot, AnchoredPair]:
    """Every signed root defined on a class, with the canonical pair of the
    class it moves to.

    Each mixed adjacent pair of the cyclic shuffle is one root: the pairs
    inside the shuffle of ``reps[0]``, and the wrap pair, which is the last
    pair of ``reps[1]``, the next rotation.  A box move at a representative
    (diagram, k) is named globally by rotating it back by
    ``solve_rotation(k)``, and its image is the class of the moved diagram at
    the same k.

    >>> cls = enumerate_class(RectShape(2, 3), ((3, 1), 0))
    >>> out_edges(cls)[OddRoot(1, 2, 1)]
    AnchoredPair(diagram=(3, 3), k=-1)
    """
    shape, size = cls.shape, cls.shape.size
    edges = {}
    for rep, starts in ((cls.reps[0], range(size - 1)), (cls.reps[1], (size - 2,))):
        shuf = shuffle_of_diagram(shape, rep.diagram)
        i, j = solve_rotation(shape, rep.k)
        for t in starts:
            box = pair_root(shape, (shuf[t], shuf[t + 1]))
            if box is not None:
                moved = AnchoredPair(t_apply(shape, rep.diagram, box), rep.k)
                edges[rotate_root(shape, box, -i, -j)] = canonical_pair(shape, moved)
    return edges


def act(cls: OrbitClass, root: OddRoot) -> OrbitClass:
    """Apply a signed root to a class: the class of its entry in
    ``out_edges``, or ``UndefinedMorphism`` when the root has none.  A root
    outside the box raises ``ValueError``, as in ``affine.borel_act``."""
    check_root(cls.shape, root)
    image = out_edges(cls).get(root)
    if image is None:
        raise UndefinedMorphism(f"{render_root(root)} undefined on the class of {pair_id(cls.canonical)}")
    return enumerate_class(cls.shape, image)


def classes_at_degree(shape: RectShape, d: int) -> tuple[OrbitClass, ...]:
    """All C(m+n, n)/(m+n) classes of degree d, by canonical pair: one
    ``enumerate_class`` walk from each rational Dyck diagram.  Grown from (m,)
    a row up, row i from the top taking each value from i*m//n + 1 to the row
    below, those come in lexicographic, that is canonical-pair, order.  Over
    ``MAX_GRAPH_VERTICES`` classes raise ``GraphTooLarge`` first."""
    require_class_shape(shape)
    _refuse_over_cap(shape, classes_per_degree(shape), f"classes in degree {d}")
    dyck = [(shape.m,)]
    for i in range(shape.n - 1, 0, -1):
        dyck = [p + (v,) for p in dyck for v in range(i * shape.m // shape.n + 1, p[-1] + 1)]
    return tuple(enumerate_class(shape, (p, d - sum(p))) for p in dyck)


def classes_per_degree(shape: RectShape) -> int:
    return comb(shape.size, shape.n) // shape.size


def row_class(shape: RectShape, pair) -> tuple[AnchoredPair, ...]:
    """The chain of a pair under "delete/restore a full bottom row"
    (``raw_move`` by "-r" and "+r"), k ascending."""
    require_class_shape(shape)
    chain = [AnchoredPair(tuple(pair[0]), pair[1])]
    check_diagram(shape, chain[0].diagram)
    while chain[-1].diagram[0] == shape.m:
        chain.append(raw_move(shape, chain[-1], "-r"))
    while chain[0].diagram[-1] == 0:
        chain.insert(0, raw_move(shape, chain[0], "+r"))
    return tuple(chain)


def approx_decompose(cls: OrbitClass) -> tuple[tuple[AnchoredPair, ...], ...]:
    """Split a class into the m parts of its row-move-only refinement.

    In rotation order every step is a row move except the step into a
    member whose bottom row is not full; a part starts at each such member.
    """
    m = cls.shape.m
    idx = next(t for t, rep in enumerate(cls.reps) if rep.diagram[0] < m)
    parts: list[list[AnchoredPair]] = []
    for rep in cls.reps[idx:] + cls.reps[:idx]:
        if rep.diagram[0] < m:
            parts.append([])
        parts[-1].append(rep)
    return tuple(tuple(p) for p in parts)


class MorphismGraph(NamedTuple):
    """Classes in a degree window with their morphism edges.

    Vertices are sorted by degree.  Edges are (source index, target index,
    signed root); hasse mode keeps positive roots only, so every edge raises
    degree by one.  Vertices outside the window are dropped together with
    their incident edges.
    """

    shape: RectShape
    mode: str
    lo: int
    hi: int
    vertices: tuple[OrbitClass, ...]
    edges: tuple[tuple[int, int, OddRoot], ...]


def build_graph(shape: RectShape, lo: int, hi: int, mode: str = "hasse") -> MorphismGraph:
    """The classes of degrees lo..hi (inclusive) and their morphism edges.

    Only degree lo is enumerated, and each out-edge of its P classes is read
    once.  Base class t shifted by s = 0..hi-lo is vertex s*P + t.  A base
    edge from t by root r of sign e reaches the class whose canonical diagram
    has rank u; at each shift s with s + e in the window it is the edge from
    s*P + t to (s + e)*P + u by r rotated back s times by
    ``solve_rotation(shape, 1)``.  Hasse mode skips negative roots.  Windows
    of more than ``MAX_GRAPH_VERTICES`` classes raise ``GraphTooLarge`` first.
    """
    if mode not in ("hasse", "cayley"):
        raise ValueError(f"mode must be hasse or cayley, got {mode!r}")
    require_class_shape(shape)
    if lo > hi:
        raise ValueError(f"empty degree window {lo}:{hi}")
    per_degree, span = classes_per_degree(shape), hi - lo + 1
    _refuse_over_cap(shape, per_degree * span, f"classes in degrees {lo}..{hi}")
    base = classes_at_degree(shape, lo)
    rank = {c.canonical.diagram: t for t, c in enumerate(base)}
    i1, j1 = solve_rotation(shape, 1)
    edges = []
    for t, cls in enumerate(base):
        for root, image in out_edges(cls).items():
            if mode == "hasse" and root.sign < 0:
                continue
            u = rank[image.diagram]
            for s in range(max(0, -root.sign), min(span, span - root.sign)):
                shifted = rotate_root(shape, root, -s * i1, -s * j1)
                edges.append((s * per_degree + t, (s + root.sign) * per_degree + u, shifted))
    vertices = tuple(c.shifted(s) for s in range(span) for c in base)
    return MorphismGraph(shape, mode, lo, hi, vertices, tuple(sorted(edges)))


def graph_layers(graph: MorphismGraph) -> dict[int, tuple[OrbitClass, ...]]:
    """The vertices grouped by degree, in one pass over the sorted vertices."""
    return {d: tuple(group) for d, group in groupby(graph.vertices, key=lambda c: c.degree)}


def pair_id(pair: AnchoredPair) -> str:
    """The label ``diagram@k`` of a pair, e.g. "3,1@0"."""
    return f"{render_diagram(pair.diagram)}@{pair.k}"


def class_id(cls: OrbitClass) -> str:
    """Stable identifier built from the canonical representative, e.g. "3,1@0"."""
    return pair_id(cls.canonical)


def class_json(cls: OrbitClass) -> dict:
    return {
        "degree": cls.degree,
        "canonical": {"partition": list(cls.canonical.diagram), "k": cls.canonical.k},
        "reps": [
            {
                "partition": list(rep.diagram),
                "word": word_of_diagram(cls.shape, rep.diagram),
                "k": rep.k,
            }
            for rep in cls.reps
        ],
    }


def _int_list(items, pad: str) -> str:
    """A nonempty list of ints as ``json.dumps(..., indent=2)`` lays it out
    after a key on a line indented by ``pad``."""
    return "[\n" + ",\n".join(f"{pad}  {x}" for x in items) + f"\n{pad}]"


def _class_blocks(classes) -> Iterator[str]:
    """``json.dumps(class_json(c), indent=2)`` for each class, as an element of
    a list under a top-level key (four more spaces on every line), one block
    per class, each after the first led by the separating comma.

    A diagram's ``"partition"`` and ``"word"`` lines are rendered the first
    time it is met and reused for every later representative with that
    diagram, in any class or degree; only ``k`` is filled in.  The strings
    of the schema (words, modes, class ids, roots) hold only letters, digits
    and ``,@+-``, so none needs escaping.
    """
    heads: dict[Parts, str] = {}
    sep = ""
    for cls in classes:
        reps = []
        for rep in cls.reps:
            head = heads.get(rep.diagram)
            if head is None:
                head = heads[rep.diagram] = (
                    '        {\n          "partition": ' + _int_list(rep.diagram, " " * 10)
                    + f',\n          "word": "{word_of_diagram(cls.shape, rep.diagram)}",'
                    + '\n          "k": '
                )
            reps.append(f"{head}{rep.k}\n        }}")
        c = cls.canonical
        yield (
            f'{sep}    {{\n      "degree": {cls.degree},\n      "canonical": {{\n'
            f'        "partition": {_int_list(c.diagram, " " * 8)},\n        "k": {c.k}\n'
            '      },\n      "reps": [\n' + ",\n".join(reps) + "\n      ]\n    }"
        )
        sep = ",\n"


def degree_json_chunks(shape: RectShape, d: int, classes) -> Iterator[str]:
    """The ``degree --format json`` document in pieces, one per class: the
    text of ``json.dumps({"n", "m", "degree", "classes": [class_json(c) ...]},
    indent=2)``."""
    yield f'{{\n  "n": {shape.n},\n  "m": {shape.m},\n  "degree": {d},\n  "classes": [\n'
    yield from _class_blocks(classes)
    yield "\n  ]\n}"


def graph_json_chunks(graph: MorphismGraph) -> Iterator[str]:
    """The graph as JSON text in pieces, with the layout of ``json.dumps(...,
    indent=2)``: a header, one block per class (``class_json``), then the
    edges ``{"src", "dst", "root"}`` 512 at a time.

    Nothing document-sized is built, so a caller can write the pieces as
    they come.  Class ids and root names are rendered once each.
    """
    yield (
        f'{{\n  "n": {graph.shape.n},\n  "m": {graph.shape.m},\n  "mode": "{graph.mode}",\n'
        f'  "degrees": [\n    {graph.lo},\n    {graph.hi}\n  ],\n  "classes": [\n'
    )
    yield from _class_blocks(graph.vertices)
    if not graph.edges:
        yield '\n  ],\n  "edges": []\n}'
        return
    yield '\n  ],\n  "edges": [\n'
    ids = [class_id(c) for c in graph.vertices]
    names = {root: render_root(root) for root in {root for _, _, root in graph.edges}}
    sep = ""
    for start in range(0, len(graph.edges), 512):
        yield sep + ",\n".join(
            f'    {{\n      "src": "{ids[a]}",\n      "dst": "{ids[b]}",\n'
            f'      "root": "{names[root]}"\n    }}'
            for a, b, root in graph.edges[start:start + 512]
        )
        sep = ",\n"
    yield "\n  ]\n}"


def graph_dot(graph: MorphismGraph) -> Iterator[str]:
    """Graphviz output in pieces: a header, the node lines 512 at a time,
    in hasse mode one rank line per degree, then the edge lines 512 at a
    time and the closing brace.

    As with ``graph_json_chunks``, nothing document-sized is built.
    """
    yield "digraph classes {\n" + ("  rankdir=LR;\n" if graph.mode == "hasse" else "")
    ids = [class_id(c) for c in graph.vertices]
    for start in range(0, len(ids), 512):
        yield "".join(
            f'  "{cid}" [label="{render_diagram(cls.canonical.diagram)}^{cls.canonical.k}"];\n'
            for cid, cls in zip(ids[start:start + 512], graph.vertices[start:start + 512])
        )
    if graph.mode == "hasse":
        for _, layer in groupby(zip(ids, graph.vertices), key=lambda pair: pair[1].degree):
            yield "  { rank=same; " + " ".join(f'"{cid}";' for cid, _ in layer) + " }\n"
    names = {root: render_root(root) for root in {root for _, _, root in graph.edges}}
    for start in range(0, len(graph.edges), 512):
        yield "".join(
            f'  "{ids[a]}" -> "{ids[b]}" [label="{names[root]}"];\n'
            for a, b, root in graph.edges[start:start + 512]
        )
    yield "}\n"
