"""Shared shape lists, helpers, and independent oracles and references for
the test suite."""

from collections import deque

from oddbox.affine import FiniteBorel, NotTypeA, extend, reflected_pairs, site_pairs
from oddbox.orbit import (
    AnchoredPair,
    MorphismGraph,
    OrbitClass,
    all_signed_roots,
    class_id,
    class_json,
    enumerate_class,
    raw_move,
)
from oddbox.rect import (
    RectShape,
    ShapeUnsupported,
    all_diagrams,
    diagram_of_word,
    identity_shuffle,
    render_root,
    rotate_root,
    rotate_word,
    shuffle_of_diagram,
    solve_rotation,
    word_of_diagram,
)
from oddbox.reflect import EDGE_OPS, NotEligible, admits, diagram_edge, edge_turn, t_apply
from oddbox.verify import _sweep

# every shape with m + n <= 9, and the coprime ones among them
ALL_SHAPES = [
    RectShape(n, m) for total in range(2, 10) for n in range(1, total) for m in [total - n]
]
COPRIME_SHAPES = [s for s in ALL_SHAPES if s.coprime]
CLASS_SHAPES = [s for s in COPRIME_SHAPES if (s.n, s.m) != (1, 1)]


def class_check(check, shape, window):
    """The violations of one class-level check of ``oddbox.verify`` over a
    window, swept alone degree by degree on its own table; an exception the
    check raised is raised again."""
    (bad,) = _sweep(shape, window, [check])
    if isinstance(bad, Exception):
        raise bad
    return bad


def closure_by_raw_moves(shape, pair):
    """Independent oracle: close under the four moves with their k shifts."""
    shift = {"-r": shape.m, "+r": -shape.m, "-c": shape.n, "+c": -shape.n}
    seen = {AnchoredPair(tuple(pair[0]), pair[1])}
    frontier = list(seen)
    while frontier:
        nxt = []
        for parts, k in frontier:
            for which in EDGE_OPS:
                try:
                    moved = diagram_edge(shape, parts, which)
                except NotEligible:
                    continue
                q = AnchoredPair(moved, k + shift[which])
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


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


def node_move(b, which):
    """Re-anchor a Borel by one row/column move: the cyclic diagram is
    unchanged and the deletion site steps by the move's turn of the word."""
    turn = edge_turn(which)[1]
    return FiniteBorel(b.dk, (b.deleted + turn) % b.dk.size, raw_move(b.shape, b.pair, which))


def affine_reflect(b, node):
    """Odd reflection at a grey, undeleted node: ``CyclicDK.reflect`` on the
    cyclic diagram and ``reflected_pairs`` on the local pair."""
    return FiniteBorel(b.dk.reflect(node), b.deleted, reflected_pairs(b)[node])


def words_from_greys(shape, greys):
    """The paper's word extraction: the border word read off a cyclic
    grey/white pattern.

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


def dta_words(dk):
    """One border word per node by the grey pattern: entry i is the word
    anchored at deletion site i."""
    w0 = words_from_greys(dk.shape, dk.greys)
    return tuple(rotate_word(w0, i) for i in range(dk.size))


def site_words(dk):
    """One border word per node by the decoder, as the ``borel`` command
    prints them: entry s is the word of ``site_pairs(dk)[s]``."""
    return tuple(word_of_diagram(dk.shape, q.diagram) for q in site_pairs(dk))


def oracle_steps(b):
    """Every Borel one step away from ``b``: the defined node moves, then the
    odd reflections at the grey undeleted nodes, each by ``affine_reflect``."""
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
    return steps


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
    seen = {base.pair: base}
    queue = deque([base])
    while queue:
        b = queue.popleft()
        for nb in oracle_steps(b):
            if not lo_band <= nb.pair.degree() <= hi_band:
                continue
            prev = seen.setdefault(nb.pair, nb)
            if prev is nb:
                queue.append(nb)
            else:
                assert prev == nb, f"anchor {nb.pair} reached with two different diagrams"
    return {pair: b for pair, b in seen.items() if lo <= pair.degree() <= hi}


def oracle_scan(shape, reps, signs=(1, -1)):
    """The class action as the paper defines it, root by root: rotate each
    signed root to every pair of ``reps`` and keep it where it is a box
    move.  Returns a dict from each root kept to the canonical pairs of the
    classes its moves reach; a moved pair that lies in a class already
    found adds nothing."""
    found = {}
    roots = all_signed_roots(shape, signs)
    for rep in reps:
        i, j = solve_rotation(shape, rep.k)
        for root in roots:
            local = rotate_root(shape, root, i, j)
            if admits(shape, rep.diagram, local):
                moved = (t_apply(shape, rep.diagram, local), rep.k)
                targets = found.setdefault(root, [])
                if not any(moved in cls for cls in targets):
                    targets.append(enumerate_class(shape, moved))
    return {root: {cls.canonical for cls in targets} for root, targets in found.items()}


def oracle_build_graph(shape, lo, hi, mode):
    """The graph of degrees lo..hi built vertex by vertex.

    Every degree of the window is enumerated on its own and every class is
    acted on by every root of the mode through ``oracle_scan``, not through
    ``out_edges``; an edge is kept for each target that lies in the window.
    """
    vertices = []
    for d in range(lo, hi + 1):
        vertices.extend(oracle_classes_at_degree(shape, d))
    vertices.sort(key=lambda c: (c.degree, c.canonical))
    index = {c.canonical: t for t, c in enumerate(vertices)}
    signs = (1,) if mode == "hasse" else (1, -1)
    edges = set()
    for t, cls in enumerate(vertices):
        for root, targets in oracle_scan(shape, cls.reps, signs).items():
            for target in targets:
                u = index.get(target)
                if u is not None:
                    edges.add((t, u, root))
    return MorphismGraph(shape, mode, lo, hi, tuple(vertices), tuple(sorted(edges)))


def oracle_graph_json(graph):
    """The graph document as nested dicts, classes by ``class_json``;
    ``json.dumps(..., indent=2)`` of it is the text ``graph_json_chunks``
    writes."""
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


def oracle_enumerate_class(shape, pair):
    """The class of a pair by rotating its border word one letter at a time.

    Each rotation is parsed back into a diagram; an ``r`` moving from front
    to back adds n to k, a ``d`` subtracts m.  The members are listed in
    rotation order starting from the one of minimal k.
    """
    word, k = word_of_diagram(shape, tuple(pair[0])), pair[1]
    seq = []
    for _ in range(shape.size):
        seq.append(AnchoredPair(diagram_of_word(shape, word), k))
        k = k + shape.n if word[0] == "r" else k - shape.m
        word = word[1:] + word[0]
    start = min(range(len(seq)), key=lambda t: seq[t].k)
    return OrbitClass(shape, tuple(seq[start:] + seq[:start]))


def oracle_classes_at_degree(shape, d):
    """The classes of degree d from every diagram of the box: the class of
    each diagram at degree d by word rotation, one per canonical pair,
    sorted by it."""
    classes = {}
    for parts in all_diagrams(shape):
        cls = oracle_enumerate_class(shape, (parts, d - sum(parts)))
        classes.setdefault(cls.canonical, cls)
    return tuple(classes[c] for c in sorted(classes))


def dense(shape, r):
    """A node's coefficients (eps, dels, dbar) over e_1..e_n, d_1..d_m and dbar."""
    eps, dels = [0] * shape.n, [0] * shape.m
    for label, c in ((r.up, 1), (r.down, -1)):
        if label > 0:
            eps[label - 1] += c
        else:
            dels[-label - 1] += c
    return tuple(eps), tuple(dels), r.dbar


def dense_borel(b):
    """A Borel as (dense nodes, deleted node, local pair), the form of
    ``oracle_borel_at``."""
    return tuple(dense(b.shape, r) for r in b.dk.nodes), b.deleted, b.pair


def oracle_borel_at(shape, pair):
    """The Borel of a pair by extending its shuffle and rotating every node,
    as ``dense_borel`` gives it.

    With k = i*n + j*m - c*mn, each node of the extension has its e
    coefficients rotated j steps down, its d coefficients i steps up, and
    c*sum(e) - sum_{a<=j} e_a + sum_{b>m-i} d_b, over the old coefficients,
    taken off its dbar coefficient; node t moves to position D + t with
    D = i - j - c*m the deleted node.
    """
    parts, k = tuple(pair[0]), pair[1]
    n, m = shape.n, shape.m
    i, j = solve_rotation(shape, k)
    c = (i * n + j * m - k) // (n * m)
    base = extend(shape, shuffle_of_diagram(shape, parts))
    deleted = (i - j - c * m) % shape.size
    nodes = [None] * shape.size
    for t, r in enumerate(base.dk.nodes):
        eps, dels, dbar = dense(shape, r)
        shift = c * sum(eps) - sum(eps[:j]) + sum(dels[m - i:])
        nodes[(deleted + t) % shape.size] = (eps[j:] + eps[:j], dels[m - i:] + dels[:m - i], dbar - shift)
    return tuple(nodes), deleted, AnchoredPair(parts, k)
