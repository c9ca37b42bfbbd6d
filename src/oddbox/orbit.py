"""Rotation-number classes of diagrams and the extended groupoid action.

A pair (diagram, k) moves by four elementary steps: deleting a full bottom
row adds m to k, restoring one subtracts m, deleting a full first column
adds n to k, restoring one subtracts n.  On border words every step cycles
the word by one letter, so for coprime n, m the class of a pair has exactly
m + n members, one per rotation of its word.  Rotation numbers are read off
the letters as they wrap around: an ``r`` moving from front to back adds n,
a ``d`` subtracts m.

The groupoid acts on classes through rotated roots: to apply a signed root
to a class, pick any representative (diagram, k), split k = i*n + j*m, and
apply the root rotated i times in columns and j times in rows, if that
rotated box move is defined at the representative.  All admitting
representatives land in the same class, which is what makes the action
well defined; the verification suite checks this exhaustively.

Row moves alone refine each class into m chains (``row_class``).  A chain
is an ``OrbitClass`` too, and ``act`` takes it to the full class of the
moved pair, which is how the ``refinement-bijection`` check of the
verification suite compares the two actions.

Shifting every rotation number by one, ``(diagram, k) -> (diagram, k + 1)``,
maps the classes of degree d onto those of degree d + 1 and commutes with the
action up to a fixed rotation of the roots: ``act(c.shifted(1), r)`` is
``act(c, rho(r)).shifted(1)`` with ``rho`` the root rotation of k = 1.  So
``build_graph`` computes one degree's edges and relabels them for every other
degree of its window; the ``degree-shift`` check of the verification suite
tests both facts.  Everything here is an immutable value.
"""

from dataclasses import dataclass
from itertools import groupby
from math import comb
from typing import NamedTuple

from .rect import (
    DomainError,
    OddRoot,
    Parts,
    RectShape,
    NonCoprimeShape,
    ShapeUnsupported,
    all_diagrams,
    check_diagram,
    diagram_of_word,
    render_diagram,
    render_root,
    rotate_root,
    rotated_root_at,
    solve_rotation,
    word_of_diagram,
)
from .reflect import admits, t_apply


class UndefinedMorphism(DomainError):
    """No representative of the class admits the (rotated) signed root."""


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


@dataclass(frozen=True)
class OrbitClass:
    """The representatives of one class, canonical first.

    ``enumerate_class`` lists all m + n members of a class in rotation
    order, ``row_class`` the chain of a refinement class with k ascending.
    ``reps[0]`` is the member of minimal rotation number, unique because
    the rotation numbers of a class are pairwise distinct.  Equality and
    hashing compare ``reps``, so they agree with class equality for two
    values from the same constructor.
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
    """Rotation-number shift of a row/column move."""
    return {"-r": shape.m, "+r": -shape.m, "-c": shape.n, "+c": -shape.n}[which]


def _rotation_orbit(shape: RectShape, word: str, k: int) -> list[AnchoredPair]:
    seq = []
    w, kk = word, k
    for _ in range(shape.size):
        seq.append(AnchoredPair(diagram_of_word(shape, w), kk))
        kk = kk + shape.n if w[0] == "r" else kk - shape.m
        w = w[1:] + w[0]
    return seq


def enumerate_class(shape: RectShape, pair) -> OrbitClass:
    """The class of a pair: one representative per rotation of its word."""
    require_class_shape(shape)
    parts, k = tuple(pair[0]), pair[1]
    check_diagram(shape, parts)
    seq = _rotation_orbit(shape, word_of_diagram(shape, parts), k)
    start = min(range(len(seq)), key=lambda t: seq[t].k)
    return OrbitClass(shape, tuple(seq[start:] + seq[:start]))


def all_signed_roots(shape: RectShape, signs=(1, -1)) -> tuple[OddRoot, ...]:
    return tuple(
        OddRoot(s, i, j)
        for s in signs
        for i in range(1, shape.n + 1)
        for j in range(1, shape.m + 1)
    )


def admitting_reps(cls: OrbitClass, root: OddRoot) -> list[tuple[AnchoredPair, OddRoot]]:
    """Representatives at which the rotated root is an actual box move."""
    out = []
    for rep in cls.reps:
        rot = rotated_root_at(cls.shape, root, rep.k)
        if admits(cls.shape, rep.diagram, rot):
            out.append((rep, rot))
    return out


def act(cls: OrbitClass, root: OddRoot) -> OrbitClass:
    """Apply a signed root to a class via the first admitting representative."""
    shape = cls.shape
    for rep in cls.reps:
        rot = rotated_root_at(shape, root, rep.k)
        if admits(shape, rep.diagram, rot):
            moved = t_apply(shape, rep.diagram, rot)
            return enumerate_class(shape, AnchoredPair(moved, rep.k))
    raise UndefinedMorphism(
        f"{render_root(root)} undefined on the class of "
        f"{render_diagram(cls.canonical.diagram)}@{cls.canonical.k}"
    )


def classes_at_degree(shape: RectShape, d: int) -> tuple[OrbitClass, ...]:
    """All classes of degree d; always C(m+n, n)/(m+n) of them."""
    require_class_shape(shape)
    seen: dict[AnchoredPair, OrbitClass] = {}
    for parts in all_diagrams(shape):
        cls = enumerate_class(shape, AnchoredPair(parts, d - sum(parts)))
        seen.setdefault(cls.canonical, cls)
    return tuple(seen[key] for key in sorted(seen))


def classes_per_degree(shape: RectShape) -> int:
    return comb(shape.size, shape.n) // shape.size


def row_class(shape: RectShape, pair) -> OrbitClass:
    """The chain of a pair under "delete/restore a full bottom row"."""
    require_class_shape(shape)
    parts, k = tuple(pair[0]), pair[1]
    check_diagram(shape, parts)
    chain = [AnchoredPair(parts, k)]
    p, kk = parts, k
    while p[0] == shape.m:
        p, kk = p[1:] + (0,), kk + shape.m
        chain.append(AnchoredPair(p, kk))
    p, kk = parts, k
    while p[-1] == 0:
        p, kk = (shape.m,) + p[:-1], kk - shape.m
        chain.insert(0, AnchoredPair(p, kk))
    return OrbitClass(shape, tuple(chain))


def approx_decompose(cls: OrbitClass) -> tuple[tuple[AnchoredPair, ...], ...]:
    """Split a class into the m parts of its row-move-only refinement.

    Parts are keyed by the residue of k_i - k_0 modulo m, relative to an
    anchor whose word ends in ``r`` (re-anchoring avoids wrap-around runs
    of ``d``); every part is nonempty.
    """
    shape = cls.shape
    idx = next(t for t, rep in enumerate(cls.reps) if rep.diagram[0] < shape.m)
    seq = cls.reps[idx:] + cls.reps[:idx]
    k0 = seq[0].k
    inv_n = pow(shape.n, -1, shape.m) if shape.m > 1 else 0
    parts: list[list[AnchoredPair]] = [[] for _ in range(shape.m)]
    for rep in seq:
        parts[((rep.k - k0) % shape.m) * inv_n % shape.m].append(rep)
    return tuple(tuple(p) for p in parts)


@dataclass(frozen=True)
class MorphismGraph:
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

    Only degree lo is enumerated and acted on.  The vertex for shift
    s = 0..hi-lo and base class t is base class t shifted by s, at index
    s*P + t for P classes per degree.  Its edge by root r is the base edge by
    r rotated s times by ``solve_rotation(shape, 1)``, shifted by s; the
    target keeps its canonical diagram, which names it among the P classes of
    its degree.  Windows of more than ``MAX_GRAPH_VERTICES`` classes raise
    ``GraphTooLarge`` before any class is enumerated.
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
    roots = all_signed_roots(shape, (1,) if mode == "hasse" else (1, -1))
    targets: dict[tuple[int, OddRoot], int] = {}
    for t, cls in enumerate(base):
        for root in roots:
            try:
                targets[t, root] = rank[act(cls, root).canonical.diagram]
            except UndefinedMorphism:
                pass
    i1, j1 = solve_rotation(shape, 1)
    edges = []
    for s in range(span):
        for root in roots:
            if not 0 <= s + root.sign < span:
                continue
            seen_from = rotate_root(shape, root, s * i1, s * j1)
            for t in range(per_degree):
                u = targets.get((t, seen_from))
                if u is not None:
                    edges.append((s * per_degree + t, (s + root.sign) * per_degree + u, root))
    vertices = tuple(c.shifted(s) for s in range(span) for c in base)
    return MorphismGraph(shape, mode, lo, hi, vertices, tuple(sorted(edges)))


def graph_layers(graph: MorphismGraph) -> dict[int, tuple[OrbitClass, ...]]:
    """The vertices grouped by degree, in one pass over the sorted vertices."""
    return {d: tuple(group) for d, group in groupby(graph.vertices, key=lambda c: c.degree)}


def class_id(cls: OrbitClass) -> str:
    """Stable identifier built from the canonical representative, e.g. "3,1@0"."""
    return f"{render_diagram(cls.canonical.diagram)}@{cls.canonical.k}"


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


def graph_json(graph: MorphismGraph) -> dict:
    ids = [class_id(c) for c in graph.vertices]
    return {
        "n": graph.shape.n,
        "m": graph.shape.m,
        "mode": graph.mode,
        "degrees": [graph.lo, graph.hi],
        "classes": [class_json(c) for c in graph.vertices],
        "edges": [
            {"src": ids[a], "dst": ids[b], "root": render_root(root)}
            for a, b, root in graph.edges
        ],
    }


def graph_dot(graph: MorphismGraph) -> str:
    """Graphviz output; hasse mode ranks the nodes by degree."""
    lines = ["digraph classes {"]
    if graph.mode == "hasse":
        lines.append("  rankdir=LR;")
    ids = [class_id(c) for c in graph.vertices]
    for cid, cls in zip(ids, graph.vertices):
        label = f"{render_diagram(cls.canonical.diagram)}^{cls.canonical.k}"
        lines.append(f'  "{cid}" [label="{label}"];')
    if graph.mode == "hasse":
        for layer in graph_layers(graph).values():
            lines.append("  { rank=same; " + " ".join(f'"{class_id(c)}";' for c in layer) + " }")
    for a, b, root in graph.edges:
        lines.append(f'  "{ids[a]}" -> "{ids[b]}" [label="{render_root(root)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
