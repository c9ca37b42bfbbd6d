import pytest

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


def test_window_override_is_respected():
    results = run_all(RectShape(2, 3), 0, 2)
    assert all(r.ok for r in results)
    for lo, hi in ((3, 3), (5, 1)):
        with pytest.raises(ValueError, match="half-open"):
            run_all(RectShape(2, 3), lo, hi)


def test_borel_equivariance_catches_a_skewed_coefficient(monkeypatch):
    """One dbar coefficient off by one at one k fails the check."""
    exact = affine.borel_at

    def skewed(shape, pair):
        b = exact(shape, pair)
        if pair[1] != 2:
            return b
        nodes = list(b.dk.nodes)
        nodes[1] = affine.GlobalRoot(nodes[1].eps, nodes[1].dels, nodes[1].dbar + 1)
        return affine.FiniteBorel(affine.CyclicDK(shape, tuple(nodes)), b.deleted, b.shuffle, b.k)

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
        want = affine.global_root_of_pair(dk.shape, reflect.root_pair(dk.shape, root))
        node = next(t for t, r in enumerate(dk.nodes) if (r.eps, r.dels) == (want.eps, want.dels))
        greys = [t for t, grey in enumerate(dk.greys) if grey]
        return dk.reflect(greys[(greys.index(node) + 1) % len(greys)])

    monkeypatch.setattr(affine, "borel_act", next_grey)
    results = {r.name: r for r in run_all(RectShape(2, 3))}
    assert not results["borel-equivariance"].ok
    assert "equivariance fails" in results["borel-equivariance"].detail


def test_refinement_checks_catch_a_collapsed_row_class(monkeypatch):
    """A row_class that drops every row move fails both refinement checks."""

    def single(shape, pair):
        return orbit.OrbitClass(shape, (orbit.AnchoredPair(tuple(pair[0]), pair[1]),))

    monkeypatch.setattr(orbit, "row_class", single)
    results = {r.name: r for r in run_all(RectShape(2, 3))}
    assert not results["refinement-parts"].ok
    assert not results["refinement-bijection"].ok


def test_degree_shift_catches_an_action_that_sees_the_parity_of_k(monkeypatch):
    """An act that tries only the canonical representative on classes of odd
    canonical k misses the roots that representative does not admit; the
    shift by one turns odd k into even, so the two sides disagree."""
    exact = orbit.act

    def canonical_only(cls, root):
        if cls.canonical.k % 2 == 0:
            return exact(cls, root)
        return exact(orbit.OrbitClass(cls.shape, cls.reps[:1]), root)

    monkeypatch.setattr(orbit, "act", canonical_only)
    results = {r.name: r for r in run_all(RectShape(2, 3))}
    assert not results["degree-shift"].ok
    assert "does not commute with the shift" in results["degree-shift"].detail


def _repeat_a_rep(exact):
    def fault(cls):
        parts = exact(cls)
        return (parts[0] + parts[0][:1],) + parts[1:]

    return fault


# check name -> (module, function the check reads, maker of a broken version)
FAULTS = {
    "encoding-roundtrips": (rect, "diagram_of_shuffle", lambda exact: lambda shape, sh: (0,) * shape.n),
    "dual-involution": (rect, "dual", lambda exact: lambda shape, parts: (0,) * shape.m),
    "corner-actions": (reflect, "corners", lambda exact: lambda shape, parts: exact(shape, parts)[::-1]),
    "edge-moves": (reflect, "shuffle_edge", lambda exact: lambda shape, shuf, which: shuf),
    "row-column-compatibility": (rect, "rotate_root", lambda exact: lambda shape, root, i=0, j=0: root),
    "plain-embedding": (orbit, "act", lambda exact: lambda cls, root: cls),
    "class-anatomy": (
        orbit,
        "classes_at_degree",
        lambda exact: lambda shape, d: tuple(orbit.OrbitClass(shape, c.reps[:-1]) for c in exact(shape, d)),
    ),
    "degree-counts": (orbit, "classes_per_degree", lambda exact: lambda shape: exact(shape) + 1),
    "refinement-parts": (orbit, "approx_decompose", _repeat_a_rep),
}


@pytest.mark.parametrize("name", FAULTS)
def test_each_delegated_check_reports_a_broken_function(monkeypatch, name):
    """Breaking one function a check reads makes it return violations, not crash."""
    module, attr, fault = FAULTS[name]
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    check = dict(verify._GENERIC + verify._CLASS_LEVEL)[name]
    assert check(RectShape(2, 3), (0, 6))
