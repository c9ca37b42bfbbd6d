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
moved pair, which is how ``vss_check`` compares the two actions.

Class enumeration and graph building are embarrassingly parallel over
vertices; everything here is an immutable value.
"""

from dataclasses import dataclass
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
    rotated_root_at,
    word_of_diagram,
)
from .reflect import admits, t_apply


class UndefinedMorphism(DomainError):
    """No representative of the class admits the (rotated) signed root."""


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
class VssReport:
    """Outcome of checking the refinement-to-class bijection on a window."""

    shape: RectShape
    lo: int
    hi: int
    left_counts: tuple[int, ...]
    right_counts: tuple[int, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def vss_check(shape: RectShape, lo: int, hi: int) -> VssReport:
    """Verify that refinement classes anchored at multiples of m biject with classes.

    For each degree in the window the refinement classes of pairs whose
    rotation number is divisible by m are matched against the full classes:
    the map must be well defined, injective, surjective and must preserve
    definedness and targets of every signed-root morphism.
    """
    require_class_shape(shape)
    violations: list[str] = []
    left_counts, right_counts = [], []
    roots = all_signed_roots(shape)
    for d in range(lo, hi + 1):
        right = classes_at_degree(shape, d)
        right_counts.append(len(right))
        left: dict[AnchoredPair, OrbitClass] = {}
        for parts in all_diagrams(shape):
            k = d - sum(parts)
            if k % shape.m:
                continue
            rc = row_class(shape, AnchoredPair(parts, k))
            left.setdefault(rc.canonical, rc)
        left_counts.append(len(left))
        images: dict[AnchoredPair, AnchoredPair] = {}
        for key in sorted(left):
            rc = left[key]
            targets = {enumerate_class(shape, rep).canonical for rep in rc.reps}
            if len(targets) != 1:
                violations.append(f"degree {d}: refinement class {key} maps to {len(targets)} classes")
            images[key] = min(targets)
        if len(set(images.values())) != len(images):
            violations.append(f"degree {d}: map is not injective")
        if set(images.values()) != {c.canonical for c in right}:
            violations.append(f"degree {d}: map is not onto the {len(right)} classes")
        for key in sorted(left):
            rc = left[key]
            cls = enumerate_class(shape, rc.canonical)
            for root in roots:
                try:
                    fine = act(rc, root)
                except UndefinedMorphism:
                    fine = None
                try:
                    coarse = act(cls, root)
                except UndefinedMorphism:
                    coarse = None
                if (fine is None) != (coarse is None):
                    violations.append(
                        f"degree {d}: definedness of {render_root(root)} differs at {key}"
                    )
                elif fine != coarse:
                    violations.append(f"degree {d}: {render_root(root)} images differ at {key}")
    return VssReport(shape, lo, hi, tuple(left_counts), tuple(right_counts), tuple(violations))


@dataclass(frozen=True)
class MorphismGraph:
    """Classes in a degree window with their morphism edges.

    Edges are (source index, target index, signed root); hasse mode keeps
    positive roots only, so every edge raises degree by one.  Vertices
    outside the window are dropped together with their incident edges.
    """

    shape: RectShape
    mode: str
    lo: int
    hi: int
    vertices: tuple[OrbitClass, ...]
    edges: tuple[tuple[int, int, OddRoot], ...]


def build_graph(shape: RectShape, lo: int, hi: int, mode: str = "hasse") -> MorphismGraph:
    if mode not in ("hasse", "cayley"):
        raise ValueError(f"mode must be hasse or cayley, got {mode!r}")
    require_class_shape(shape)
    if lo > hi:
        raise ValueError(f"empty degree window {lo}:{hi}")
    vertices: list[OrbitClass] = []
    for d in range(lo, hi + 1):
        vertices.extend(classes_at_degree(shape, d))
    vertices.sort(key=lambda c: (c.degree, c.canonical))
    index = {c.canonical: t for t, c in enumerate(vertices)}
    signs = (1,) if mode == "hasse" else (1, -1)
    edges = set()
    for t, cls in enumerate(vertices):
        for root in all_signed_roots(shape, signs):
            try:
                target = act(cls, root)
            except UndefinedMorphism:
                continue
            u = index.get(target.canonical)
            if u is not None:
                edges.add((t, u, root))
    return MorphismGraph(shape, mode, lo, hi, tuple(vertices), tuple(sorted(edges)))


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
    return {
        "n": graph.shape.n,
        "m": graph.shape.m,
        "mode": graph.mode,
        "degrees": [graph.lo, graph.hi],
        "classes": [class_json(c) for c in graph.vertices],
        "edges": [
            {
                "src": class_id(graph.vertices[a]),
                "dst": class_id(graph.vertices[b]),
                "root": render_root(root),
            }
            for a, b, root in graph.edges
        ],
    }


def graph_dot(graph: MorphismGraph) -> str:
    """Graphviz output; hasse mode ranks the nodes by degree."""
    lines = ["digraph classes {"]
    if graph.mode == "hasse":
        lines.append("  rankdir=LR;")
    for cls in graph.vertices:
        label = f"{render_diagram(cls.canonical.diagram)}^{cls.canonical.k}"
        lines.append(f'  "{class_id(cls)}" [label="{label}"];')
    if graph.mode == "hasse":
        for d in range(graph.lo, graph.hi + 1):
            ids = [class_id(c) for c in graph.vertices if c.degree == d]
            if ids:
                lines.append("  { rank=same; " + " ".join(f'"{i}";' for i in ids) + " }")
    for a, b, root in graph.edges:
        lines.append(
            f'  "{class_id(graph.vertices[a])}" -> "{class_id(graph.vertices[b])}"'
            f' [label="{render_root(root)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
