"""Cross-module invariant suite backing the ``verify`` command.

Each check sweeps one family of identities exhaustively over a shape (and,
for class-level checks, over a degree window) and reports violations as
strings; an empty list is a pass.  Checks that need coprimality or exclude
the 1x1 box are skipped with a note on other shapes, except for the guard
checks, which assert that those shapes are refused.
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
            inverse = {"-r": "+r", "+r": "-r", "-c": "+c", "+c": "-c"}[which]
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


def _class_anatomy(shape, window):
    bad = []
    mn = shape.n * shape.m
    for d in range(*window):
        for cls in orbit.classes_at_degree(shape, d):
            ks = [rep.k for rep in cls.reps]
            if len(cls.reps) != shape.size:
                bad.append(f"class {orbit.class_id(cls)} has {len(cls.reps)} representatives")
            if len(set(ks)) != len(ks):
                bad.append(f"class {orbit.class_id(cls)} repeats a rotation number")
            reduced = {(rep.diagram, rep.k % mn) for rep in cls.reps}
            if len(reduced) != len(cls.reps):
                bad.append(f"class {orbit.class_id(cls)} repeats a representative mod {mn}")
            if {rep.degree() for rep in cls.reps} != {d}:
                bad.append(f"class {orbit.class_id(cls)} mixes degrees")
    return bad


def _class_generators(shape, window):
    """Rotation enumeration matches the closure under the four raw moves."""
    bad = []
    for d in range(*window):
        for cls in orbit.classes_at_degree(shape, d):
            closure = {cls.canonical}
            frontier = [cls.canonical]
            while frontier:
                nxt = []
                for parts, k in frontier:
                    for which in reflect.EDGE_OPS:
                        try:
                            moved = reflect.diagram_edge(shape, parts, which)
                        except reflect.NotEligible:
                            continue
                        q = orbit.AnchoredPair(moved, k + orbit.edge_shift(shape, which))
                        if q not in closure:
                            closure.add(q)
                            nxt.append(q)
                frontier = nxt
            if closure != set(cls.reps):
                bad.append(f"raw generators disagree at {orbit.class_id(cls)}")
    return bad


def _action_well_defined(shape, window):
    bad = []
    for d in range(*window):
        for cls in orbit.classes_at_degree(shape, d):
            for root in orbit.all_signed_roots(shape):
                targets = {
                    orbit.enumerate_class(
                        shape,
                        orbit.AnchoredPair(reflect.t_apply(shape, rep.diagram, rot), rep.k),
                    ).canonical
                    for rep, rot in orbit.admitting_reps(cls, root)
                }
                if len(targets) > 1:
                    bad.append(f"{rect.render_root(root)} at {orbit.class_id(cls)} hits {len(targets)} classes")
    return bad


def _plain_embedding(shape, window):
    bad = []
    for parts in rect.all_diagrams(shape):
        cls = orbit.enumerate_class(shape, (parts, 0))
        for root in orbit.all_signed_roots(shape):
            if not reflect.admits(shape, parts, root):
                continue
            image = orbit.act(cls, root)
            plain = orbit.AnchoredPair(reflect.t_apply(shape, parts, root), 0)
            if plain not in image.reps:
                bad.append(f"embedding not equivariant at {parts}, {rect.render_root(root)}")
    return bad


def _degree_counts(shape, window):
    bad = []
    mn = shape.n * shape.m
    expect = orbit.classes_per_degree(shape)
    for d in range(*window):
        now = orbit.classes_at_degree(shape, d)
        if len(now) != expect:
            bad.append(f"degree {d} has {len(now)} classes, expected {expect}")
        shifted = {
            orbit.enumerate_class(shape, (c.canonical.diagram, c.canonical.k + mn)).canonical
            for c in now
        }
        later = {c.canonical for c in orbit.classes_at_degree(shape, d + mn)}
        if shifted != later:
            bad.append(f"degree shift {d} -> {d + mn} is not a bijection")
    return bad


def _image(cls, root):
    """``act(cls, root)``, or None where the root is undefined on the class."""
    try:
        return orbit.act(cls, root)
    except orbit.UndefinedMorphism:
        return None


def _degree_shift(shape, window):
    """Raising every rotation number by one maps the classes of degree d onto
    those of degree d + 1, and ``act(c.shifted(1), r)`` equals
    ``act(c, rho(r)).shifted(1)``, undefined matching undefined, where rho
    rotates roots by ``solve_rotation(shape, 1)``.  Checked from every degree
    d of the window to d + 1, computing each degree's acts once."""
    bad = []
    i1, j1 = rect.solve_rotation(shape, 1)
    roots = orbit.all_signed_roots(shape)

    def acts(d):
        classes = orbit.classes_at_degree(shape, d)
        return classes, {(cls, root): _image(cls, root) for cls in classes for root in roots}

    lo, hi = window
    below, before = acts(lo)
    for d in range(lo, hi):
        above, after = acts(d + 1)
        if {cls.shifted(1) for cls in below} != set(above):
            bad.append(f"degree {d} does not shift onto degree {d + 1}")
        for cls in below:
            up = cls.shifted(1)
            for root in roots:
                if (up, root) not in after:
                    continue
                image = before[cls, rect.rotate_root(shape, root, i1, j1)]
                if after[up, root] != (None if image is None else image.shifted(1)):
                    bad.append(f"{rect.render_root(root)} does not commute with the shift at {orbit.class_id(cls)}")
        below, before = above, after
    return bad


def _approx_parts(shape, window):
    bad = []
    for d in range(*window):
        for cls in orbit.classes_at_degree(shape, d):
            parts = orbit.approx_decompose(cls)
            if len(parts) != shape.m or any(not p for p in parts):
                bad.append(f"{orbit.class_id(cls)} does not split into {shape.m} nonempty parts")
                continue
            if sorted(rep for p in parts for rep in p) != sorted(cls.reps):
                bad.append(f"{orbit.class_id(cls)} parts do not hold each representative exactly once")
            got = {frozenset(p) for p in parts}
            expect = {frozenset(orbit.row_class(shape, rep).reps) for rep in cls.reps}
            if got != expect:
                bad.append(f"{orbit.class_id(cls)} split disagrees with row-move closures")
    return bad


def _vss(shape, window):
    """Refinement classes anchored at multiples of m biject with the classes.

    For each degree of the window the row-move chains of the pairs whose
    rotation number is divisible by m are matched against the classes: the
    map must be well defined, injective and onto, and ``act`` must agree on a
    chain and on its class, undefined matching undefined, for every signed
    root.
    """
    bad = []
    roots = orbit.all_signed_roots(shape)
    for d in range(*window):
        right = {c.canonical for c in orbit.classes_at_degree(shape, d)}
        left = {}
        for parts in rect.all_diagrams(shape):
            k = d - sum(parts)
            if k % shape.m == 0:
                rc = orbit.row_class(shape, orbit.AnchoredPair(parts, k))
                left.setdefault(rc.canonical, rc)
        images = {}
        for key in sorted(left):
            targets = {orbit.enumerate_class(shape, rep).canonical for rep in left[key].reps}
            if len(targets) != 1:
                bad.append(f"degree {d}: refinement class {key} maps to {len(targets)} classes")
            images[key] = min(targets)
        if len(set(images.values())) != len(images):
            bad.append(f"degree {d}: map is not injective")
        if set(images.values()) != right:
            bad.append(f"degree {d}: map is not onto the {len(right)} classes")
        for key in sorted(left):
            rc = left[key]
            cls = orbit.enumerate_class(shape, rc.canonical)
            for root in roots:
                fine, coarse = _image(rc, root), _image(cls, root)
                if (fine is None) != (coarse is None):
                    bad.append(f"degree {d}: definedness of {rect.render_root(root)} differs at {key}")
                elif fine != coarse:
                    bad.append(f"degree {d}: {rect.render_root(root)} images differ at {key}")
    return bad


def _borel_invariants(shape, window):
    bad = []
    one = affine.dbar_root(shape)
    for d in range(*window):
        for cls in orbit.classes_at_degree(shape, d):
            b = affine.borel_of_class(cls)
            if b.dk.node_sum() != one:
                bad.append(f"node sum wrong for {orbit.class_id(cls)}")
            matrix = b.dk.gram()
            if any(sum(row) != 0 for row in matrix):
                bad.append(f"gram row sums nonzero for {orbit.class_id(cls)}")
            greys = b.dk.greys
            if sum(greys) % 2 or not any(greys):
                bad.append(f"grey count invalid for {orbit.class_id(cls)}")
            for t, grey in enumerate(greys):
                if (matrix[t][t] == 0) != grey or matrix[t][t] not in (2, -2, 0):
                    bad.append(f"diagonal entry invalid for {orbit.class_id(cls)} node {t}")
            if affine.dta_words(b.dk)[b.deleted] != b.word():
                bad.append(f"word extraction disagrees for {orbit.class_id(cls)}")
    return bad


def _borel_bijection(shape, window):
    bad = []
    seen = {}
    for d in range(*window):
        for cls in orbit.classes_at_degree(shape, d):
            b = affine.borel_of_class(cls)
            key = tuple(sorted(b.dk.nodes))
            if key in seen and seen[key] != cls.canonical:
                bad.append(f"{orbit.class_id(cls)} shares a diagram with {seen[key]}")
            seen[key] = cls.canonical
            back = affine.class_of_borel(b)
            if back.canonical != cls.canonical:
                bad.append(f"roundtrip fails at {orbit.class_id(cls)}")
    return bad


def _pair_id(pair):
    return f"{rect.render_diagram(pair.diagram)}@{pair.k}"


def _borel_equivariance(shape, window):
    """The closed-form pairing starts at the extension of the distinguished
    shuffle and agrees with every node move and odd reflection out of every
    anchor in the window.  The class action and the Borel action, which reads
    only the cyclic diagram, agree on every class and root of the window, so
    with ``borel-bijection`` making the vertex map a bijection, this is the
    labelled Cayley-graph isomorphism on the window.  Each reflected diagram
    keeps its node sum and its zero Gram row sums."""
    bad = []
    one = affine.dbar_root(shape)
    zero = orbit.AnchoredPair((0,) * shape.n, 0)
    if affine.borel_at(shape, zero) != affine.extend(shape, rect.identity_shuffle(shape)):
        bad.append("the empty diagram at k = 0 is not the extension of the distinguished shuffle")
    for d in range(*window):
        for cls in orbit.classes_at_degree(shape, d):
            for rep in cls.reps:
                for nb in affine.transitions(affine.borel_at(shape, rep)):
                    if nb != affine.borel_at(shape, nb.pair()):
                        bad.append(f"a move or reflection from {_pair_id(rep)} disagrees at {_pair_id(nb.pair())}")
            dk = affine.borel_of_class(cls).dk
            for root in orbit.all_signed_roots(shape):
                image = _image(cls, root)
                try:
                    moved = affine.borel_act(dk, root)
                except orbit.UndefinedMorphism:
                    moved = None
                if (image is None) != (moved is None):
                    bad.append(f"definedness differs at {orbit.class_id(cls)}, {rect.render_root(root)}")
                    continue
                if image is None:
                    continue
                if moved.node_sum() != one or any(sum(row) != 0 for row in moved.gram()):
                    bad.append(f"invariants fail after reflection at {orbit.class_id(cls)}, {rect.render_root(root)}")
                if affine.borel_of_class(image).dk != moved:
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

    The degree window lo..hi is half-open, so it must satisfy lo < hi.  A box
    of more than ``orbit.MAX_GRAPH_VERTICES`` diagrams, or a window of more
    classes, raises ``GraphTooLarge`` before any check runs.
    """
    if lo is None or hi is None:
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

    def run(name: str, fn: Callable) -> None:
        try:
            bad = fn(shape, window)
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            return
        detail = "" if not bad else f"{len(bad)} violation(s); first: {bad[0]}"
        results.append(CheckResult(name, not bad, detail))

    for name, fn in _GENERIC:
        run(name, fn)
    if classy:
        for name, fn in _CLASS_LEVEL:
            run(name, fn)
    else:
        run("shape-guard", _noncoprime_guard)
    return results
