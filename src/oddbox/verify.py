"""Cross-module invariant suite backing the ``verify`` command.

Each check sweeps one family of identities exhaustively over a shape (and,
for class-level checks, over a degree window) and reports violations as
strings; an empty list is a pass.  Checks that need coprimality or exclude
the 1x1 box are skipped with a note on other shapes, except for the guard
checks, which assert that those shapes are refused.

Each class-level check covers one degree.  ``_sweep`` owns the degree loop:
at each degree of the window it calls every check, and the checks read one
shared table (``_ClassTable``) instead of enumerating, acting on and
pairing each degree themselves: each degree's classes come from one
``orbit.classes_at_degree`` call, each class's out-edges (canonical pairs)
from one ``orbit.out_edges`` call and each pair's Borel from one
``affine.borel_at`` call.  The checks read only the window, its upper end,
the Borels of the degree below it and, for ``degree-counts``, the classes
mn degrees up.  The table is built inside each run, so a function patched
before the run is what the table reads, and it drops the degrees no check
can still read; no check keeps anything between degrees.  The checks keep
their own references: the representative scan (``_scan``) of
``action-well-defined`` and ``refinement-bijection`` reads
``reflect.corners`` at every pair, not ``orbit.out_edges``, and
``borel-equivariance`` reads every odd reflection out of every
representative itself.  The rotation order of a class has one owner,
``class-generators``: ``borel-equivariance`` reads re-anchoring off it,
one deletion site per representative, and moves no pair.
"""

from typing import Callable, NamedTuple

from math import comb, gcd

from . import affine, orbit, rect, reflect


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _roundtrips(shape, window):
    bad = []
    words = set()
    for parts in rect.all_diagrams(shape):
        w = rect.word_of_diagram(shape, parts)
        words.add(w)
        if rect.diagram_of_word(shape, w) != parts:
            bad.append(f"word roundtrip fails at {parts}")
        sh = rect.shuffle_of_word(shape, w)
        if rect.word_of_shuffle(shape, sh) != w:
            bad.append(f"shuffle roundtrip fails at {w}")
        if rect.diagram_of_shuffle(shape, sh) != parts:
            bad.append(f"conversion triangle fails at {parts}")
    expect = comb(shape.size, shape.n)
    if len(words) != expect:
        bad.append(f"{len(words)} words, expected {expect}")
    return bad


def _dual_involution(shape, window):
    flipped = rect.RectShape(shape.m, shape.n)
    return [
        f"dual involution fails at {parts}"
        for parts in rect.all_diagrams(shape)
        if rect.dual(flipped, rect.dual(shape, parts)) != parts
    ]


def _rotation_orders(shape, window):
    bad = []
    for parts in rect.all_diagrams(shape):
        w = rect.word_of_diagram(shape, parts)
        if rect.rotate_word(w, shape.size) != w:
            bad.append(f"word rotation order fails at {w}")
    for root in orbit.all_signed_roots(shape):
        if rect.rotate_root(shape, root, 0, shape.n) != root:
            bad.append(f"row rotation order fails at {rect.render_root(root)}")
        if rect.rotate_root(shape, root, shape.m, 0) != root:
            bad.append(f"column rotation order fails at {rect.render_root(root)}")
    return bad


def _corner_actions(shape, window):
    bad = []
    for parts in rect.all_diagrams(shape):
        w = rect.word_of_diagram(shape, parts)
        sh = rect.shuffle_of_word(shape, w)
        outer, inner = reflect.corners(shape, parts)
        if set(outer) & set(inner):
            bad.append(f"outer and inner corners overlap at {parts}")
        for root in orbit.all_signed_roots(shape):
            ok_t = reflect.admits(shape, parts, root)
            base = root if root.sign > 0 else root.negated()
            in_corners = base in (outer if root.sign > 0 else inner)
            if ok_t != in_corners:
                bad.append(f"corner bookkeeping differs at {parts}, {rect.render_root(root)}")
            try:
                pw = reflect.p_apply(shape, w, root)
            except reflect.NotSimple:
                pw = None
            try:
                rs = reflect.r_apply(shape, sh, root)
            except reflect.NotSimple:
                rs = None
            if (pw is None) != (rs is None) or ok_t != (pw is not None):
                bad.append(f"definedness differs at {parts}, {rect.render_root(root)}")
                continue
            if not ok_t:
                continue
            moved = reflect.t_apply(shape, parts, root)
            if rect.word_of_diagram(shape, moved) != pw:
                bad.append(f"diagram/word square fails at {parts}, {rect.render_root(root)}")
            if rect.shuffle_of_word(shape, pw) != rs:
                bad.append(f"word/shuffle square fails at {parts}, {rect.render_root(root)}")
            if reflect.t_apply(shape, moved, root.negated()) != parts:
                bad.append(f"involution fails at {parts}, {rect.render_root(root)}")
    return bad


def _edge_moves(shape, window):
    bad = []
    for parts in rect.all_diagrams(shape):
        w = rect.word_of_diagram(shape, parts)
        sh = rect.shuffle_of_word(shape, w)
        flags = reflect.edge_flags(shape, parts)
        if not (flags.row_empty or flags.col_full):
            bad.append(f"{parts} in neither row-empty nor column-full set")
        if not (flags.col_empty or flags.row_full):
            bad.append(f"{parts} in neither column-empty nor row-full set")
        for which in reflect.EDGE_OPS:
            try:
                moved = reflect.diagram_edge(shape, parts, which)
            except reflect.NotEligible:
                try:
                    reflect.word_edge(shape, w, which)
                    bad.append(f"word move {which} defined but diagram move is not at {parts}")
                except reflect.NotEligible:
                    pass
                continue
            moved_word = reflect.word_edge(shape, w, which)
            if rect.word_of_diagram(shape, moved) != moved_word:
                bad.append(f"move {which} disagrees between words and diagrams at {parts}")
            if reflect.shuffle_edge(shape, sh, which) != rect.shuffle_of_word(shape, moved_word):
                bad.append(f"move {which} disagrees between shuffles and words at {parts}")
            inverse = ("+" if which[0] == "-" else "-") + which[1]
            if reflect.diagram_edge(shape, moved, inverse) != parts:
                bad.append(f"moves {which}/{inverse} are not inverse at {parts}")
    return bad


def _row_col_compat(shape, window):
    bad = []
    nu = lambda root: rect.rotate_root(shape, root, 0, 1)
    eta = lambda root: rect.rotate_root(shape, root, 1, 0)
    for parts in rect.all_diagrams(shape):
        w = rect.word_of_diagram(shape, parts)
        sh = rect.shuffle_of_word(shape, w)
        flags = reflect.edge_flags(shape, parts)
        for root in orbit.all_signed_roots(shape, signs=(1,)):
            if not reflect.admits(shape, parts, root):
                continue
            for which, turn, flag in (("-r", nu, flags.row_full), ("-c", eta, flags.col_full)):
                if not flag:
                    continue
                down = reflect.diagram_edge(shape, parts, which)
                turned = turn(root)
                if not reflect.admits(shape, down, turned):
                    bad.append(f"{which}: turned root not admitted at {parts}, {rect.render_root(root)}")
                    continue
                lhs = reflect.diagram_edge(shape, reflect.t_apply(shape, parts, root), which)
                rhs = reflect.t_apply(shape, down, turned)
                if lhs != rhs:
                    bad.append(f"{which} compatibility fails at {parts}, {rect.render_root(root)}")
                wl = reflect.word_edge(shape, reflect.p_apply(shape, w, root), which)
                wr = reflect.p_apply(shape, reflect.word_edge(shape, w, which), turned)
                if wl != wr:
                    bad.append(f"{which} word compatibility fails at {parts}")
                sl = reflect.shuffle_edge(shape, reflect.r_apply(shape, sh, root), which)
                sr = reflect.r_apply(shape, reflect.shuffle_edge(shape, sh, which), turned)
                if sl != sr:
                    bad.append(f"{which} shuffle compatibility fails at {parts}")
    return bad


class _ClassTable:
    """The classes of each degree, their out-edges and the Borels of their
    pairs, shared by the class checks of one sweep.

    ``classes(d)`` calls ``orbit.classes_at_degree``, ``edges(d)`` calls
    ``orbit.out_edges`` on each class of degree d and ``borel(pair)`` calls
    ``affine.borel_at``, each once while the degree is held.  The window
    runs from ``lo`` and the sweep stops at ``hi``; ``keep(d)`` drops every
    degree below d - 1 or above ``hi``, so memory stays flat in its width.
    """

    def __init__(self, shape: rect.RectShape, lo: int, hi: int):
        self.shape = shape
        self.lo, self.hi = lo, hi
        self._classes: dict[int, tuple[orbit.OrbitClass, ...]] = {}
        self._edges: dict[int, dict[orbit.OrbitClass, dict]] = {}
        self._borels: dict[int, dict[orbit.AnchoredPair, affine.FiniteBorel]] = {}

    def classes(self, d: int) -> tuple[orbit.OrbitClass, ...]:
        if d not in self._classes:
            self._classes[d] = orbit.classes_at_degree(self.shape, d)
        return self._classes[d]

    def edges(self, d: int) -> dict[orbit.OrbitClass, dict]:
        """``{cls: orbit.out_edges(cls)}`` for the classes of degree d."""
        if d not in self._edges:
            self._edges[d] = {cls: orbit.out_edges(cls) for cls in self.classes(d)}
        return self._edges[d]

    def borel(self, pair: orbit.AnchoredPair) -> affine.FiniteBorel:
        known = self._borels.setdefault(pair.degree(), {})
        if pair not in known:
            known[pair] = affine.borel_at(self.shape, pair)
        return known[pair]

    def keep(self, d: int) -> None:
        for held in (self._classes, self._edges, self._borels):
            for e in [e for e in held if e < d - 1 or e > self.hi]:
                del held[e]


def _sweep(shape: rect.RectShape, window: tuple[int, int], checks) -> list:
    """Run class-level checks degree by degree over one ``_ClassTable``.

    A check is a function ``check(shape, table, d)`` that returns the
    violations of degree d; a once-per-run clause runs at ``table.lo``.  At
    each degree of the window the sweep drops the degrees that no check can
    still read, then calls each check that has not raised.  Returns, check
    by check, its violations or the exception it raised.
    """
    table = _ClassTable(shape, *window)
    results = [[] for _ in checks]
    for d in range(*window):
        table.keep(d)
        for t, check in enumerate(checks):
            if isinstance(results[t], Exception):
                continue
            try:
                results[t] += check(shape, table, d)
            except Exception as exc:  # a crash fails its own check, not the sweep
                results[t] = exc
    return results


def _class_anatomy(shape, table, d):
    """Each class has m + n representatives of its degree, no two alike in
    k or mod mn, and ``reps[0]`` has the least k and is what
    ``orbit.canonical_pair`` gives at every representative: out-edges, table
    keys and class ids all name a class by it."""
    bad = []
    mn = shape.n * shape.m
    for cls in table.classes(d):
        ks = [rep.k for rep in cls.reps]
        if len(cls.reps) != shape.size:
            bad.append(f"class {orbit.class_id(cls)} has {len(cls.reps)} representatives")
        if len(set(ks)) != len(ks):
            bad.append(f"class {orbit.class_id(cls)} repeats a rotation number")
        named = all(orbit.canonical_pair(shape, rep) == cls.canonical for rep in cls.reps)
        if min(ks) != cls.canonical.k or not named:
            bad.append(f"class {orbit.class_id(cls)} is not named by its least rotation number")
        reduced = {(rep.diagram, rep.k % mn) for rep in cls.reps}
        if len(reduced) != len(cls.reps):
            bad.append(f"class {orbit.class_id(cls)} repeats a representative mod {mn}")
        if {rep.degree() for rep in cls.reps} != {d}:
            bad.append(f"class {orbit.class_id(cls)} mixes degrees")
    return bad


def _class_generators(shape, table, d):
    """This check owns the rotation order of a class: out of ``reps[t]``
    the raw moves reach ``reps[t - 1]`` by turn -1 and ``reps[t + 1]`` by
    turn +1 (``reflect.edge_turn``), indices cyclic, and nothing else."""
    bad = []
    for cls in table.classes(d):
        reps = cls.reps
        for t, rep in enumerate(reps):
            moves = []
            for which in reflect.EDGE_OPS:
                try:
                    moves.append((reflect.edge_turn(which)[1], orbit.raw_move(shape, rep, which)))
                except reflect.NotEligible:
                    pass
            if sorted(moves) != [(-1, reps[t - 1]), (1, reps[(t + 1) % len(reps)])]:
                bad.append(f"raw generators disagree at {orbit.class_id(cls)}")
                break
    return bad


def _scan(shape, reps):
    """The representative scan: every box move at every pair of ``reps``
    (the members of a class or a row-move chain), named globally, with the
    canonical pairs of the classes it reaches.

    A pair (diagram, k) admits its outer corners as positive roots and its
    inner corners as negative roots; each is named globally by rotating it
    back by ``solve_rotation(k)``.  This reads ``reflect.corners`` at every
    pair, not the shuffle adjacency that ``out_edges`` reads at two, and
    ``corner-actions`` ties ``corners`` to ``reflect.admits``.
    """
    found: dict[rect.OddRoot, set[orbit.AnchoredPair]] = {}
    for rep in reps:
        i, j = rect.solve_rotation(shape, rep.k)
        outer, inner = reflect.corners(shape, rep.diagram)
        for box in outer + tuple(root.negated() for root in inner):
            moved = orbit.AnchoredPair(reflect.t_apply(shape, rep.diagram, box), rep.k)
            root = rect.rotate_root(shape, box, -i, -j)
            found.setdefault(root, set()).add(orbit.canonical_pair(shape, moved))
    return found


def _action_well_defined(shape, table, d):
    """The scan of a class's representatives sends each root to at most one
    class, and that class is the root's entry in ``out_edges``; a root no
    representative admits has no entry."""
    bad = []
    roots = orbit.all_signed_roots(shape)
    edges_of = table.edges(d)
    for cls in table.classes(d):
        edges = edges_of[cls]
        found = _scan(shape, cls.reps)
        scan = {}
        for root in roots:
            targets = found.get(root, set())
            if len(targets) > 1:
                bad.append(f"{rect.render_root(root)} at {orbit.class_id(cls)} hits {len(targets)} classes")
            elif targets:
                scan[root] = targets.pop()
        for root in sorted(set(scan) | set(edges)):
            if scan.get(root) != edges.get(root):
                bad.append(f"out_edges and the scan differ on {rect.render_root(root)} at {orbit.class_id(cls)}")
    return bad


def _plain_embedding(shape, table, d):
    """At degree d, the representatives (p, k) with mn dividing k hold each
    diagram p with |p| = d mod mn once, and a root that p admits as a box
    move sends the class of (p, k) to that of (moved p, k).

    ``solve_rotation`` of a multiple of mn is (0, 0), so no root is rotated
    there: at k = 0 this is the plain embedding p -> (p, 0), elsewhere the
    embedding and the period shift that ``degree-counts`` and
    ``degree-shift`` check.  Any mn consecutive degrees cover each diagram.
    """
    bad = []
    mn = shape.n * shape.m
    roots = orbit.all_signed_roots(shape)
    held = {}  # diagram -> how many representatives hold it
    for cls, edges in table.edges(d).items():
        for rep in cls.reps:
            if rep.k % mn:
                continue
            held[rep.diagram] = held.get(rep.diagram, 0) + 1
            for root in roots:
                if not reflect.admits(shape, rep.diagram, root):
                    continue
                image = edges.get(root)
                plain = orbit.AnchoredPair(reflect.t_apply(shape, rep.diagram, root), rep.k)
                if image is None or orbit.canonical_pair(shape, plain) != image:
                    bad.append(f"embedding not equivariant at {orbit.pair_id(rep)}, {rect.render_root(root)}")
    for parts in rect.all_diagrams(shape):
        if (sum(parts) - d) % mn == 0 and held.get(parts) != 1:
            bad.append(f"degree {d} holds {parts} {held.get(parts, 0)} times at k divisible by {mn}")
    return bad


def _degree_counts(shape, table, d):
    bad = []
    mn = shape.n * shape.m
    expect = orbit.classes_per_degree(shape)
    now = table.classes(d)
    if len(now) != expect:
        bad.append(f"degree {d} has {len(now)} classes, expected {expect}")
    shifted = {orbit.canonical_pair(shape, (c.canonical.diagram, c.canonical.k + mn)) for c in now}
    later = {c.canonical for c in table.classes(d + mn)}
    if shifted != later:
        bad.append(f"degree shift {d} -> {d + mn} is not a bijection")
    return bad


def _degree_shift(shape, table, d):
    """Raising every rotation number by one maps the classes of degree d onto
    those of degree d + 1, and ``act(c.shifted(1), r)`` equals
    ``act(c, rho(r)).shifted(1)``, undefined matching undefined, where rho
    rotates roots by ``solve_rotation(shape, 1)``.  At degree d this reads
    degrees d and d + 1, so the last degree of the window reads its upper
    end."""
    bad = []
    i1, j1 = rect.solve_rotation(shape, 1)
    roots = orbit.all_signed_roots(shape)
    before, after = table.edges(d), table.edges(d + 1)
    if {cls.shifted(1) for cls in before} != set(after):
        bad.append(f"degree {d} does not shift onto degree {d + 1}")
    for cls, edges in before.items():
        up = after.get(cls.shifted(1))
        if up is None:
            continue
        for root in roots:
            image = edges.get(rect.rotate_root(shape, root, i1, j1))
            if up.get(root) != (None if image is None else orbit.AnchoredPair(image.diagram, image.k + 1)):
                bad.append(f"{rect.render_root(root)} does not commute with the shift at {orbit.class_id(cls)}")
    return bad


def _approx_parts(shape, table, d):
    bad = []
    for cls in table.classes(d):
        parts = orbit.approx_decompose(cls)
        if len(parts) != shape.m or any(not p for p in parts):
            bad.append(f"{orbit.class_id(cls)} does not split into {shape.m} nonempty parts")
            continue
        if sorted(rep for p in parts for rep in p) != sorted(cls.reps):
            bad.append(f"{orbit.class_id(cls)} parts do not hold each representative exactly once")
        got = {frozenset(p) for p in parts}
        expect = {frozenset(orbit.row_class(shape, rep)) for rep in cls.reps}
        if got != expect:
            bad.append(f"{orbit.class_id(cls)} split disagrees with row-move closures")
    return bad


def _vss(shape, table, d):
    """Refinement classes anchored at multiples of m biject with the classes.

    At degree d the row-move chains of the pairs whose rotation number is
    divisible by m are matched against the classes: the map must be well
    defined, injective and onto, and the action must agree on a chain and
    on its class, undefined matching undefined, for every signed root.  The
    chain's side is ``_scan`` over its pairs, one call per chain; the class
    side is the table's ``out_edges`` of the class of the chain's first
    pair.
    """
    bad = []
    roots = orbit.all_signed_roots(shape)
    edges_of = {cls.canonical: edges for cls, edges in table.edges(d).items()}
    right = set(edges_of)
    left = {}
    for parts in rect.all_diagrams(shape):
        k = d - sum(parts)
        if k % shape.m == 0:
            rc = orbit.row_class(shape, orbit.AnchoredPair(parts, k))
            left.setdefault(rc[0], rc)
    images, homes = {}, {}
    for key in sorted(left):
        names = [orbit.canonical_pair(shape, rep) for rep in left[key]]
        targets = set(names)
        if len(targets) != 1:
            bad.append(f"degree {d}: refinement class {key} maps to {len(targets)} classes")
        images[key] = min(targets)
        homes[key] = names[0]
    if len(set(images.values())) != len(images):
        bad.append(f"degree {d}: map is not injective")
    if set(images.values()) != right:
        bad.append(f"degree {d}: map is not onto the {len(right)} classes")
    for key in sorted(left):
        edges = edges_of.get(homes[key])
        if edges is None:
            bad.append(f"degree {d}: refinement class {key} lies in no class of degree {d}")
            continue
        found = _scan(shape, left[key])
        for root in roots:
            fine, coarse = found.get(root, set()), edges.get(root)
            if (not fine) != (coarse is None):
                bad.append(f"degree {d}: definedness of {rect.render_root(root)} differs at {key}")
            elif fine and fine != {coarse}:
                bad.append(f"degree {d}: {rect.render_root(root)} images differ at {key}")
    return bad


def _borel_invariants(shape, table, d):
    """Node sum dbar, so Gram row t sums to (nodes[t], dbar) = 0, and the
    deleted node reads back the local pair.  A ``CyclicDK`` node is the
    difference of two adjacent labels of a word of the basis, so the finite
    parts sum to 0, each node pairs with itself to 2, -2 or 0, and the grey
    count (e/d turns) is even, not 0; the node sum is dbar when the dbar
    coefficients sum to 1."""
    bad = []
    for cls in table.classes(d):
        b = table.borel(cls.canonical)
        if b.dk.node_sum() != 1:
            bad.append(f"node sum wrong for {orbit.class_id(cls)}")
        read = affine.site_pair(b.dk, b.deleted)
        if read != b.pair:
            bad.append(f"the deleted node of {orbit.class_id(cls)} reads back {read}")
    return bad


def _borel_bijection(shape, table, d):
    """``affine.class_of_borel`` reads only the cyclic diagram and gives back
    each class: a left inverse, so the pairing is injective."""
    bad = []
    for cls in table.classes(d):
        if affine.class_of_borel(table.borel(cls.canonical).dk) != cls:
            bad.append(f"roundtrip fails at {orbit.class_id(cls)}")
    return bad


def _borel_equivariance(shape, table, d):
    """The closed-form pairing starts at the extension of the distinguished
    shuffle, checked at ``table.lo``, re-anchors along each class and agrees
    with every odd reflection out of every anchor in the window.  The class
    action, read from the table's ``out_edges``, and the Borel action, which
    reads only the cyclic diagram, agree on every class and root of the
    window, so with ``borel-bijection`` making the vertex map a bijection,
    this is the labelled Cayley-graph isomorphism on the window.  Each
    reflected diagram keeps its node sum dbar: ``CyclicDK.reflect`` negates
    the node and adds it to both neighbours, so the sum cannot change, and
    ``borel-invariants`` checks it on the table's Borels.

    A row/column move keeps the cyclic diagram and steps the deleted node by
    its turn, and ``class-generators`` owns the order of ``reps``, so the
    Borel of ``reps[t]`` deletes the node t places after the canonical's;
    the reflections of a representative that disagrees are skipped.  Each
    grey node of the canonical's diagram is reflected once, and the flip
    paired with the ``affine.reflected_pairs`` of every representative.
    Degree d reads the table's anchors of degrees d - 1..d + 1."""
    bad = []
    borel = table.borel
    zero = orbit.AnchoredPair((0,) * shape.n, 0)
    if d == table.lo and borel(zero) != affine.extend(shape, rect.identity_shuffle(shape)):
        bad.append("the empty diagram at k = 0 is not the extension of the distinguished shuffle")
    roots = orbit.all_signed_roots(shape)
    edges_of = table.edges(d)
    for cls in table.classes(d):
        first = borel(cls.canonical)
        dk = first.dk
        flips = {t: dk.reflect(t) for t, grey in enumerate(dk.greys) if grey}
        for t, rep in enumerate(cls.reps):
            b = borel(rep)
            site = (first.deleted + t) % dk.size
            if b != affine.FiniteBorel(dk, site, rep):
                bad.append(f"the Borel of {orbit.pair_id(rep)} disagrees with {orbit.class_id(cls)} at node {site}")
                continue
            for u, pair in affine.reflected_pairs(b).items():
                if affine.FiniteBorel(flips[u], b.deleted, pair) != borel(pair):
                    bad.append(f"a reflection from {orbit.pair_id(rep)} disagrees at {orbit.pair_id(pair)}")
        edges = edges_of[cls]
        for root in roots:
            image = edges.get(root)
            try:
                moved = affine.borel_act(dk, root)
            except orbit.UndefinedMorphism:
                moved = None
            if (image is None) != (moved is None):
                bad.append(f"definedness differs at {orbit.class_id(cls)}, {rect.render_root(root)}")
                continue
            if image is not None and borel(image).dk != moved:
                bad.append(f"equivariance fails at {orbit.class_id(cls)}, {rect.render_root(root)}")
    return bad


def _noncoprime_guard(shape, window):
    bad = []
    for call in (
        lambda: orbit.enumerate_class(shape, ((0,) * shape.n, 0)),
        lambda: orbit.classes_at_degree(shape, 0),
        lambda: affine.borel_at(shape, ((0,) * shape.n, 0)),
    ):
        try:
            call()
            bad.append("class operation did not refuse a non-coprime shape")
        except (rect.NonCoprimeShape, rect.ShapeUnsupported):
            pass
    if (shape.n, shape.m) == (1, 1):
        return bad
    g = gcd(shape.n, shape.m)
    a, bb = shape.n // g, shape.m // g
    lam = (shape.m,) * shape.n
    mu, kmu = lam, -shape.m * (shape.n - a)
    for _ in range(shape.n - a):
        mu, kmu = reflect.diagram_edge(shape, mu, "-r"), kmu + shape.m
    xi, kxi = lam, -shape.n * (shape.m - bb)
    for _ in range(shape.m - bb):
        xi, kxi = reflect.diagram_edge(shape, xi, "-c"), kxi + shape.n
    if kmu != 0 or kxi != 0 or mu == xi:
        bad.append("could not reproduce the colliding chain from the raw generators")
    return bad


_GENERIC = (
    ("encoding-roundtrips", _roundtrips),
    ("dual-involution", _dual_involution),
    ("rotation-orders", _rotation_orders),
    ("corner-actions", _corner_actions),
    ("edge-moves", _edge_moves),
    ("row-column-compatibility", _row_col_compat),
)

_CLASS_LEVEL = (
    ("class-anatomy", _class_anatomy),
    ("class-generators", _class_generators),
    ("action-well-defined", _action_well_defined),
    ("plain-embedding", _plain_embedding),
    ("degree-counts", _degree_counts),
    ("degree-shift", _degree_shift),
    ("refinement-parts", _approx_parts),
    ("refinement-bijection", _vss),
    ("borel-invariants", _borel_invariants),
    ("borel-bijection", _borel_bijection),
    ("borel-equivariance", _borel_equivariance),
)


def run_all(shape: rect.RectShape, lo: int | None = None, hi: int | None = None) -> list[CheckResult]:
    """Run every applicable check; class-level sweeps default to one period.

    The degree window lo..hi is half-open, so it must satisfy lo < hi, and
    takes both ends or neither.  A box of more than
    ``orbit.MAX_GRAPH_VERTICES`` diagrams, or a window of more classes,
    raises ``GraphTooLarge`` before any check runs.
    """
    if (lo is None) != (hi is None):
        raise ValueError(f"verify windows are half-open LO:HI and need both ends, got {lo}:{hi}")
    if lo is None:
        lo, hi = 0, shape.n * shape.m
    if lo >= hi:
        raise ValueError(f"verify windows are half-open, so LO:HI needs LO < HI, got {lo}:{hi}")
    classy = shape.coprime and (shape.n, shape.m) != (1, 1)
    orbit._refuse_over_cap(shape, comb(shape.size, shape.n), "diagrams")
    if classy:
        count = orbit.classes_per_degree(shape) * (hi - lo)
        orbit._refuse_over_cap(shape, count, f"classes in degrees {lo}..{hi - 1}")
    window = (lo, hi)
    results = []

    def record(name: str, bad) -> None:
        if isinstance(bad, Exception):
            results.append(CheckResult(name, False, f"{type(bad).__name__}: {bad}"))
            return
        detail = "" if not bad else f"{len(bad)} violation(s); first: {bad[0]}"
        results.append(CheckResult(name, not bad, detail))

    def run(name: str, fn: Callable) -> None:
        try:
            bad = fn(shape, window)
        except Exception as exc:  # a crash is a failure, not an abort
            bad = exc
        record(name, bad)

    for name, fn in _GENERIC:
        run(name, fn)
    if classy:
        names, checks = zip(*_CLASS_LEVEL)
        for name, bad in zip(names, _sweep(shape, window, checks)):
            record(name, bad)
    else:
        run("shape-guard", _noncoprime_guard)
    return results
