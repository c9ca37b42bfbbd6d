"""Shared shape lists and independent oracles for the test suite."""

from collections import deque

from oddbox.affine import affine_reflect, extend, node_move
from oddbox.orbit import (
    MorphismGraph,
    UndefinedMorphism,
    act,
    all_signed_roots,
    classes_at_degree,
)
from oddbox.rect import RectShape, identity_shuffle
from oddbox.reflect import NotEligible

# every shape with m + n <= 9, and the coprime ones among them
ALL_SHAPES = [
    RectShape(n, m) for total in range(2, 10) for n in range(1, total) for m in [total - n]
]
COPRIME_SHAPES = [s for s in ALL_SHAPES if s.coprime]
CLASS_SHAPES = [s for s in COPRIME_SHAPES if (s.n, s.m) != (1, 1)]


def boxes(shape, parts):
    """The diagram as a set of (row, column) boxes; row n is the bottom row."""
    return {
        (i, j)
        for i in range(1, shape.n + 1)
        for j in range(1, parts[shape.n - i] + 1)
    }


def is_box_diagram(shape, cells):
    """Whether a set of boxes is bottom-left justified inside the box."""
    for (i, j) in cells:
        if not (1 <= i <= shape.n and 1 <= j <= shape.m):
            return False
        if i + 1 <= shape.n and (i + 1, j) not in cells:
            return False
        if j > 1 and (i, j - 1) not in cells:
            return False
    return True


def oracle_corners(shape, parts):
    """Brute-force addable/removable boxes via box-set surgery."""
    cells = boxes(shape, parts)
    outer, inner = set(), set()
    for i in range(1, shape.n + 1):
        for j in range(1, shape.m + 1):
            if (i, j) not in cells and is_box_diagram(shape, cells | {(i, j)}):
                outer.add((i, j))
            if (i, j) in cells and is_box_diagram(shape, cells - {(i, j)}):
                inner.add((i, j))
    return outer, inner


def oracle_word(shape, parts):
    """Border word by walking the boundary lattice path point by point."""
    word = []
    a = b = 0
    while a < shape.n or b < shape.m:
        if a < shape.n and parts[shape.n - a - 1] == b:
            word.append("d")
            a += 1
        else:
            word.append("r")
            b += 1
    return "".join(word)


def oracle_borel_search(shape, lo, hi, margin=2):
    """Every anchored Borel of degree lo..hi, found by breadth-first search.

    The search starts at the extension of the distinguished shuffle and
    follows node moves and odd reflections at grey nodes through the degrees
    lo - margin..hi + margin (0 included), so that paths may leave the
    window and come back.  It asserts that no anchor is reached with two
    different diagrams, and returns a dict from (diagram, k) to its Borel.
    """
    lo_band, hi_band = min(lo, 0) - margin, max(hi, 0) + margin
    base = extend(shape, identity_shuffle(shape))
    seen = {base.pair(): base}
    queue = deque([base])
    while queue:
        b = queue.popleft()
        steps = []
        for which in ("-r", "+r", "-c", "+c"):
            try:
                steps.append(node_move(b, which))
            except NotEligible:
                pass
        steps.extend(
            affine_reflect(b, t)
            for t, root in enumerate(b.dk.nodes)
            if t != b.deleted and root.isotropic
        )
        for nb in steps:
            if not lo_band <= nb.degree <= hi_band:
                continue
            prev = seen.setdefault(nb.pair(), nb)
            if prev is nb:
                queue.append(nb)
            else:
                assert prev == nb, f"anchor {nb.pair()} reached with two different diagrams"
    return {pair: b for pair, b in seen.items() if lo <= pair.degree() <= hi}


def oracle_build_graph(shape, lo, hi, mode):
    """The graph of degrees lo..hi built vertex by vertex.

    Every degree of the window is enumerated on its own and every class is
    acted on by every root of the mode; an edge is kept when its target lies
    in the window.
    """
    vertices = []
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
