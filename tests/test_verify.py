import pytest
from hypothesis import given, settings, strategies as st

from conftest import class_check, oracle_enumerate_class
from oddbox import affine, orbit, rect, reflect, verify
from oddbox.rect import RectShape
from oddbox.verify import run_all


@pytest.mark.parametrize("nm", [(2, 3), (1, 2), (3, 4)])
def test_suite_passes_on_coprime_shapes(nm):
    results = run_all(RectShape(*nm))
    assert len(results) == 17
    failures = [r for r in results if not r.ok]
    assert not failures, failures


@pytest.mark.parametrize("nm", [(2, 2), (1, 1), (2, 4)])
def test_suite_guards_excluded_shapes(nm):
    results = run_all(RectShape(*nm))
    names = [r.name for r in results]
    assert "shape-guard" in names
    assert "class-anatomy" not in names
    failures = [r for r in results if not r.ok]
    assert not failures, failures


def test_shape_guard_catches_a_class_operation_that_accepts_any_shape(monkeypatch):
    """With the shape check gone, the class operations of ``orbit`` run on a
    non-coprime box, and only ``shape-guard`` fails."""
    monkeypatch.setattr(orbit, "require_class_shape", lambda shape: None)
    failures = [(r.name, r.detail) for r in run_all(RectShape(2, 2)) if not r.ok]
    assert failures == [
        ("shape-guard", "2 violation(s); first: class operation did not refuse a non-coprime shape")
    ]


def test_window_override_is_respected():
    results = run_all(RectShape(2, 3), 0, 2)
    assert all(r.ok for r in results)
    for lo, hi in ((3, 3), (5, 1), (5, None), (None, 2)):
        with pytest.raises(ValueError, match="half-open"):
            run_all(RectShape(2, 3), lo, hi)


def test_borel_equivariance_catches_a_skewed_coefficient(monkeypatch):
    """One dbar coefficient off by one at one k fails the check."""
    exact = affine.borel_at

    def skewed(shape, pair):
        b = exact(shape, pair)
        if pair[1] != 2:
            return b
        dbar = b.dk.dbar[:1] + (b.dk.dbar[1] + 1,) + b.dk.dbar[2:]
        return affine.FiniteBorel(b.dk._replace(dbar=dbar), b.deleted, b.pair)

    monkeypatch.setattr(affine, "borel_at", skewed)
    results = {r.name: r for r in run_all(RectShape(2, 3))}
    assert not results["borel-equivariance"].ok
    assert "disagrees" in results["borel-equivariance"].detail


def test_borel_equivariance_catches_a_reflection_at_the_wrong_node(monkeypatch):
    """Reflecting at the next grey node in cyclic order, not at the node
    named by the root, fails the check."""
    exact = affine.borel_act

    def next_grey(dk, root):
        exact(dk, root)  # keeps definedness exact
        want = (root.i, -root.j) if root.sign > 0 else (-root.j, root.i)
        node = next(t for t, r in enumerate(dk.nodes) if (r.up, r.down) == want)
        greys = [t for t, grey in enumerate(dk.greys) if grey]
        return dk.reflect(greys[(greys.index(node) + 1) % len(greys)])

    monkeypatch.setattr(affine, "borel_act", next_grey)
    results = {r.name: r for r in run_all(RectShape(2, 3))}
    assert not results["borel-equivariance"].ok
    assert "equivariance fails" in results["borel-equivariance"].detail


def test_borel_equivariance_reflects_once_per_grey_node_of_a_class(monkeypatch):
    """A class reflects its cyclic diagram once per grey node for the local
    reflections and once per defined root for the Borel action, whatever
    the number of its representatives."""
    shape, window = RectShape(3, 4), (0, 12)
    greys = sum(
        sum(affine.borel_at(shape, cls.canonical).dk.greys)
        for d in range(*window)
        for cls in orbit.classes_at_degree(shape, d)
    )
    exact, calls = affine.CyclicDK.reflect, []

    def counted(dk, node):
        calls.append(node)
        return exact(dk, node)

    monkeypatch.setattr(affine.CyclicDK, "reflect", counted)
    assert class_check(verify._borel_equivariance, shape, window) == []
    assert 0 < len(calls) <= 2 * greys


def test_borel_equivariance_reports_a_representative_with_another_diagram(monkeypatch):
    """A representative whose Borel has grey nodes that its canonical's has
    not is reported as a disagreeing step, not raised as a missing flip."""
    exact = affine.borel_at
    shape = RectShape(2, 3)

    def other(shape, pair):
        pair = orbit.AnchoredPair(tuple(pair[0]), pair[1])
        if orbit.canonical_pair(shape, pair) == pair:
            return exact(shape, pair)
        return exact(shape, (pair.diagram, pair.k + 1))

    strays = [
        rep
        for cls in orbit.classes_at_degree(shape, 0)
        for rep in cls.reps
        if any(g > h for g, h in zip(other(shape, rep).dk.greys, exact(shape, cls.canonical).dk.greys))
    ]
    assert strays
    monkeypatch.setattr(affine, "borel_at", other)
    bad = class_check(verify._borel_equivariance, shape, (0, 6))
    assert any("disagrees" in v for v in bad)
    results = {r.name: r for r in run_all(shape, 0, 6)}
    assert not results["borel-equivariance"].ok and "violation(s)" in results["borel-equivariance"].detail


def test_borel_equivariance_catches_a_reflection_off_the_node_sum(monkeypatch):
    """A ``CyclicDK.reflect`` that passes the node's dbar to one neighbour
    only swaps the labels right but moves the node sum off dbar.
    ``borel-equivariance`` has no node-sum clause: the moved diagram
    disagrees with the table's Borel of its pair."""
    exact = affine.CyclicDK.reflect

    def one_sided(dk, node):
        moved = exact(dk, node)
        dbar = list(moved.dbar)
        dbar[node - 1] -= dk.dbar[node]
        return moved._replace(dbar=tuple(dbar))

    monkeypatch.setattr(affine.CyclicDK, "reflect", one_sided)
    bad = class_check(verify._borel_equivariance, RectShape(2, 3), (0, 6))
    assert any("disagrees" in v for v in bad)
    assert any("equivariance fails" in v for v in bad)


def test_class_generators_catches_two_representatives_out_of_rotation_order(monkeypatch):
    """Swapping reps[2] and reps[3] keeps each class's set of pairs, so a
    closure under the raw moves cannot see it; the moves out of reps[1]
    reach reps[3] by turn +1, not the new reps[2]."""
    exact = orbit.classes_at_degree

    def swapped(shape, d):
        return tuple(
            orbit.OrbitClass(shape, c.reps[:2] + (c.reps[3], c.reps[2]) + c.reps[4:]) for c in exact(shape, d)
        )

    monkeypatch.setattr(orbit, "classes_at_degree", swapped)
    bad = class_check(verify._class_generators, RectShape(3, 4), (0, 12))
    assert bad and all("raw generators disagree" in v for v in bad)


def test_borel_equivariance_moves_no_pair(monkeypatch):
    """Re-anchoring along a class is read off the rotation order that
    ``class-generators`` owns, so the check makes no row/column move."""

    def refuse(*args):
        raise AssertionError("borel-equivariance made a row/column move")

    monkeypatch.setattr(orbit, "raw_move", refuse)
    assert class_check(verify._borel_equivariance, RectShape(3, 4), (0, 12)) == []


def test_borel_bijection_catches_a_borel_a_period_away_from_its_label(monkeypatch):
    """A ``borel_at`` that builds the Borel of (p, k + mn) under the label
    (p, k) is a symmetry of the Borel side, so only the decoder sees it:
    every class reads back as the class a period up."""
    exact = affine.borel_at
    shape = RectShape(2, 3)

    def shifted(shape, pair):
        b = exact(shape, (pair[0], pair[1] + shape.n * shape.m))
        return affine.FiniteBorel(b.dk, b.deleted, orbit.AnchoredPair(tuple(pair[0]), pair[1]))

    monkeypatch.setattr(affine, "borel_at", shifted)
    bad = class_check(verify._borel_bijection, shape, (0, 6))
    assert len(bad) == 12 and all("roundtrip fails" in v for v in bad)
    results = {r.name: r for r in run_all(shape, 0, 6)}
    assert not results["borel-bijection"].ok and "12 violation(s)" in results["borel-bijection"].detail
    assert not results["borel-invariants"].ok


def test_borel_bijection_catches_classes_that_share_a_diagram(monkeypatch):
    """A ``borel_at`` that gives every class of a degree the cyclic diagram
    of the degree's first class, each under its own label, is not
    injective, and the roundtrip reports the classes it mislabels."""
    exact = affine.borel_at
    shape = RectShape(2, 3)

    def shared(shape, pair):
        pair = orbit.AnchoredPair(tuple(pair[0]), pair[1])
        first = orbit.classes_at_degree(shape, pair.degree())[0]
        return affine.FiniteBorel(exact(shape, first.canonical).dk, exact(shape, pair).deleted, pair)

    monkeypatch.setattr(affine, "borel_at", shared)
    bad = class_check(verify._borel_bijection, shape, (0, 6))
    assert len(bad) == 6 and all("roundtrip fails" in v for v in bad)
    results = {r.name: r for r in run_all(shape, 0, 6)}
    assert not results["borel-bijection"].ok and "violation(s)" in results["borel-bijection"].detail


def test_refinement_checks_catch_a_collapsed_row_class(monkeypatch):
    """A row_class that drops every row move fails both refinement checks."""

    def single(shape, pair):
        return (orbit.AnchoredPair(tuple(pair[0]), pair[1]),)

    monkeypatch.setattr(orbit, "row_class", single)
    results = {r.name: r for r in run_all(RectShape(2, 3))}
    assert not results["refinement-parts"].ok
    assert not results["refinement-bijection"].ok


def _canonical_only(exact):
    """out_edges without the wrap-pair edge: only the roots that the canonical
    representative admits as box moves."""

    def fault(cls):
        admitted = verify._scan(cls.shape, cls.reps[:1])
        return {root: image for root, image in exact(cls).items() if root in admitted}

    return fault


def test_degree_shift_catches_an_action_that_sees_the_parity_of_k(monkeypatch):
    """An out_edges that drops the wrap-pair edge on classes of odd canonical
    k misses a root there; the shift by one turns odd k into even, so the two
    sides disagree."""
    exact = orbit.out_edges
    drop_wrap = _canonical_only(exact)

    def parity_of_k(cls):
        return exact(cls) if cls.canonical.k % 2 == 0 else drop_wrap(cls)

    monkeypatch.setattr(orbit, "out_edges", parity_of_k)
    results = {r.name: r for r in run_all(RectShape(2, 3))}
    assert not results["degree-shift"].ok
    assert "does not commute with the shift" in results["degree-shift"].detail


def test_degree_counts_catches_an_out_edge_dropped_on_one_class(monkeypatch):
    """Each degree holds C(m+n-2, n-1) positive out-edges and as many
    negative ones; an out_edges that drops the least root of one class
    leaves its degree one negative edge short, and no other degree."""
    exact = orbit.out_edges
    shape = RectShape(3, 4)
    victim = orbit.classes_at_degree(shape, 5)[2]

    def drop_one(cls):
        edges = dict(exact(cls))
        if cls == victim:
            del edges[min(edges)]
        return edges

    monkeypatch.setattr(orbit, "out_edges", drop_one)
    bad = class_check(verify._degree_counts, shape, (0, 12))
    assert bad == ["degree 5 has 10 positive and 9 negative out-edges, expected 10 each"]


def test_degree_counts_catches_a_root_moved_between_classes(monkeypatch):
    """Moving one positive root between two degree-5 classes with two
    positive out-edges each keeps the totals, but not the per-j Narayana
    counts {1: 1, 2: 3, 3: 1} of 3x4: exactly one violation."""
    exact = orbit.out_edges
    shape = RectShape(3, 4)
    outs = {cls: exact(cls) for cls in orbit.classes_at_degree(shape, 5)}
    giver, taker = [cls for cls, out in outs.items() if sum(r.sign > 0 for r in out) == 2][:2]
    root = next(r for r in outs[giver] if r.sign > 0 and r not in outs[taker])

    def move_one(cls):
        edges = dict(exact(cls))
        if cls == giver:
            del edges[root]
        if cls == taker:
            edges[root] = outs[giver][root]
        return edges

    monkeypatch.setattr(orbit, "out_edges", move_one)
    bad = class_check(verify._degree_counts, shape, (0, 12))
    assert bad == [
        "degree 5 counts {1: 2, 2: 1, 3: 2} classes per number of positive out-edges, expected {1: 1, 2: 3, 3: 1}"
    ]


@pytest.mark.parametrize(
    "fault",
    [
        _canonical_only,
        lambda exact: lambda cls: {root: cls.canonical for root in exact(cls)},
        lambda exact: lambda cls: {
            **exact(cls),
            next(r for r in orbit.all_signed_roots(cls.shape) if r not in exact(cls)): cls.canonical,
        },
    ],
    ids=["missing-edge", "wrong-image", "extra-root"],
)
def test_action_well_defined_catches_a_broken_out_edges(monkeypatch, fault):
    """The representative scan is independent of out_edges, so a missing
    edge, a wrong image or an edge for a root no representative admits is
    reported."""
    monkeypatch.setattr(orbit, "out_edges", fault(orbit.out_edges))
    bad = class_check(verify._action_well_defined, RectShape(2, 3), (0, 6))
    assert bad and all("out_edges and the scan differ" in v for v in bad)


def test_the_scan_reads_the_inner_corners(monkeypatch):
    """A ``reflect.corners`` that drops the inner corners loses every
    negative root from the scan, so both checks that read it report
    violations."""
    exact = reflect.corners
    monkeypatch.setattr(reflect, "corners", lambda shape, parts: (exact(shape, parts)[0], ()))
    shape, window = RectShape(2, 3), (0, 6)
    bad = class_check(verify._action_well_defined, shape, window)
    assert bad and all("out_edges and the scan differ on -" in v for v in bad)
    bad = class_check(verify._vss, shape, window)
    assert bad and all("definedness of -" in v for v in bad)
    results = {r.name: r for r in run_all(shape, *window)}
    assert not results["action-well-defined"].ok
    assert not results["refinement-bijection"].ok


def _repeat_a_rep(exact):
    def fault(cls):
        parts = exact(cls)
        return (parts[0] + parts[0][:1],) + parts[1:]

    return fault


def _skew_node_one(exact):
    def fault(shape, pair):
        b = exact(shape, pair)
        dbar = b.dk.dbar[:1] + (b.dk.dbar[1] + 1,) + b.dk.dbar[2:]
        return affine.FiniteBorel(b.dk._replace(dbar=dbar), b.deleted, b.pair)

    return fault


# check name -> (module, function the check reads, maker of a broken version)
FAULTS = {
    "encoding-roundtrips": (rect, "diagram_of_shuffle", lambda exact: lambda shape, sh: (0,) * shape.n),
    "dual-involution": (rect, "dual", lambda exact: lambda shape, parts: (0,) * shape.m),
    "rotation-orders": (rect, "rotate_word", lambda exact: lambda word, i=1: exact(word, i + 1)),
    "corner-actions": (reflect, "corners", lambda exact: lambda shape, parts: exact(shape, parts)[::-1]),
    "edge-moves": (reflect, "shuffle_edge", lambda exact: lambda shape, shuf, which: shuf),
    "row-column-compatibility": (rect, "rotate_root", lambda exact: lambda shape, root, i=0, j=0: root),
    "plain-embedding": (orbit, "out_edges", lambda exact: lambda cls: {root: cls.canonical for root in exact(cls)}),
    "class-anatomy": (
        orbit,
        "classes_at_degree",
        lambda exact: lambda shape, d: tuple(orbit.OrbitClass(shape, c.reps[:-1]) for c in exact(shape, d)),
    ),
    "class-generators": (
        orbit,
        "enumerate_class",
        lambda exact: lambda shape, pair: orbit.OrbitClass(shape, exact(shape, pair).reps[:-1]),
    ),
    "action-well-defined": (rect, "solve_rotation", lambda exact: lambda shape, k: exact(shape, 0)),
    "degree-counts": (orbit, "classes_per_degree", lambda exact: lambda shape: exact(shape) + 1),
    "refinement-parts": (orbit, "approx_decompose", _repeat_a_rep),
    "borel-invariants": (affine, "borel_at", _skew_node_one),
    "borel-bijection": (affine, "class_of_borel", lambda exact: lambda dk: exact(dk).shifted(1)),
    "borel-equivariance": (affine, "reflected_pairs", lambda exact: lambda b: {t: b.pair for t in exact(b)}),
}


@pytest.mark.parametrize("name", FAULTS)
def test_each_delegated_check_reports_a_broken_function(monkeypatch, name):
    """Breaking one function a check reads makes it return violations, not
    crash, and fails it in ``run_all``.  The class table is built inside the
    call, after the patch, so it reads the broken function too."""
    module, attr, fault = FAULTS[name]
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    shape, window = RectShape(2, 3), (0, 6)
    if name in dict(verify._CLASS_LEVEL):
        assert class_check(dict(verify._CLASS_LEVEL)[name], shape, window)
    else:
        assert dict(verify._GENERIC)[name](shape, window)
    results = {r.name: r for r in run_all(shape, *window)}
    assert not results[name].ok and "violation(s)" in results[name].detail


def test_a_crashing_check_fails_alone(monkeypatch):
    """A check that raises fails with the exception as its detail, the
    sweep calls it at no later degree, and every other check runs on."""
    exact, degrees = orbit.approx_decompose, set()

    def crash(cls):
        degrees.add(cls.degree)
        if cls.degree == 2:
            raise RuntimeError("no split at degree 2")
        return exact(cls)

    monkeypatch.setattr(orbit, "approx_decompose", crash)
    results = run_all(RectShape(2, 3))
    assert len(results) == 17
    assert [(r.name, r.detail) for r in results if not r.ok] == [
        ("refinement-parts", "RuntimeError: no split at degree 2")
    ]
    assert degrees == {0, 1, 2}


def test_class_anatomy_reports_a_class_not_named_by_its_least_k(monkeypatch):
    """A class whose first representative is not the one of least rotation
    number is misnamed everywhere a class is named by ``reps[0]``."""
    exact = orbit.classes_at_degree

    def rotated(shape, d):
        return tuple(orbit.OrbitClass(shape, c.reps[1:] + c.reps[:1]) for c in exact(shape, d))

    monkeypatch.setattr(orbit, "classes_at_degree", rotated)
    bad = class_check(verify._class_anatomy, RectShape(2, 3), (0, 6))
    assert bad and all("is not named by its least rotation number" in v for v in bad)


def test_class_anatomy_reports_a_canonical_pair_that_names_nothing(monkeypatch):
    """With the table's classes built by the word-rotation oracle, a
    ``canonical_pair`` that returns its input names a class by each of its
    representatives in turn, and ``class-anatomy`` reports it."""

    def classes(shape, d):
        found = {}
        for parts in rect.all_diagrams(shape):
            cls = oracle_enumerate_class(shape, (parts, d - sum(parts)))
            found.setdefault(cls.canonical, cls)
        return tuple(found[key] for key in sorted(found))

    monkeypatch.setattr(orbit, "classes_at_degree", classes)
    monkeypatch.setattr(orbit, "canonical_pair", lambda shape, pair: orbit.AnchoredPair(tuple(pair[0]), pair[1]))
    bad = class_check(verify._class_anatomy, RectShape(2, 3), (0, 6))
    assert bad and all("is not named by its least rotation number" in v for v in bad)


def _record_table_reads(monkeypatch):
    """Patch ``orbit`` to log the degree of every ``classes_at_degree`` call
    and the class of every ``out_edges`` call into the two returned lists."""
    exact_classes, exact_edges = orbit.classes_at_degree, orbit.out_edges
    degrees, acted = [], []

    def classes(shape, d):
        degrees.append(d)
        return exact_classes(shape, d)

    def edges(cls):
        acted.append(cls)
        return exact_edges(cls)

    monkeypatch.setattr(orbit, "classes_at_degree", classes)
    monkeypatch.setattr(orbit, "out_edges", edges)
    return degrees, acted


def test_one_run_builds_each_degree_once(monkeypatch):
    """One run on 3x4 enumerates each degree the checks read once, and reads
    the out-edges of each class of those degrees once: the window 0..11, its
    upper end 12 (degree-shift), and d + 12 (degree-counts).  No pair
    reaches ``affine.borel_at`` twice."""
    exact_classes, exact_borel = orbit.classes_at_degree, affine.borel_at
    degrees, acted = _record_table_reads(monkeypatch)
    paired = []

    def borel(shape, pair):
        paired.append(orbit.AnchoredPair(tuple(pair[0]), pair[1]))
        return exact_borel(shape, pair)

    monkeypatch.setattr(affine, "borel_at", borel)
    shape = RectShape(3, 4)
    assert all(r.ok for r in run_all(shape))
    assert sorted(degrees) == list(range(24))
    assert len(acted) == len(set(acted))
    assert set(acted) == {c for d in range(13) for c in exact_classes(shape, d)}
    assert paired and len(paired) == len(set(paired))


def test_a_window_reads_only_its_own_degrees(monkeypatch):
    """A one-degree window away from 0..mn reads that degree, its upper end
    (degree-shift) and d + mn (degree-counts), each once, and acts only on
    the classes of the window and its upper end."""
    exact_classes = orbit.classes_at_degree
    degrees, acted = _record_table_reads(monkeypatch)
    shape = RectShape(3, 4)
    assert all(r.ok for r in run_all(shape, 40, 41))
    assert sorted(degrees) == [40, 41, 52]
    assert len(acted) == len(set(acted))
    assert set(acted) == {c for d in (40, 41) for c in exact_classes(shape, d)}


def test_plain_embedding_reports_a_diagram_no_class_holds(monkeypatch):
    """Coverage: with the last class of each degree dropped, the diagrams
    that class held at a multiple of mn are reported missing."""
    exact = orbit.classes_at_degree
    monkeypatch.setattr(orbit, "classes_at_degree", lambda shape, d: exact(shape, d)[:-1])
    bad = class_check(verify._plain_embedding, RectShape(2, 3), (0, 6))
    assert "degree 0 holds (0, 0) 0 times at k divisible by 6" in bad
    assert all(" 0 times at k divisible by 6" in v for v in bad)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([RectShape(3, 5), RectShape(4, 5)]), st.integers(-10**6, 10**6))
def test_plain_embedding_holds_on_one_degree_far_from_zero(shape, d):
    assert class_check(verify._plain_embedding, shape, (d, d + 1)) == []


def test_the_table_holds_few_degrees_on_a_wide_window(monkeypatch):
    """Memory stays flat in the width of the window: the table keeps the
    out-edges and the Borels of at most three degrees, and the classes of
    at most one period ahead."""
    held = []
    exact = verify._ClassTable.keep

    def keep(table, d):
        exact(table, d)
        held.append((len(table._edges), len(table._classes), len(table._borels)))

    monkeypatch.setattr(verify._ClassTable, "keep", keep)
    shape = RectShape(2, 3)
    assert all(r.ok for r in run_all(shape, -30, 40))
    assert max(e for e, _, _ in held) <= 3
    assert max(c for _, c, _ in held) <= shape.n * shape.m + 3
    assert max(b for _, _, b in held) <= 3
