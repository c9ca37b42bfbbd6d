"""Checks of oddbox command output, written apart from oddbox.

Nothing here imports oddbox.  Every fact a check relies on is computed from
the definitions: a diagram is a set of boxes justified to the bottom-left
corner of an n x m box; a class is the closure of a pair (diagram, k) under
the four raw row/column moves; a signed root acts on a class through any
representative (diagram, k), rotated by the split k = i*n + j*m that this
module finds by search.  The paper's published 2x3 Hasse window and 3x4
table of global simple roots are the only fixed data.

Every ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

import json
import re
from itertools import combinations
from math import comb

# -- diagrams, words and classes ---------------------------------------------


def all_diagrams(n, m):
    """Every diagram in the box, read off the positions of the n down steps."""
    for downs in combinations(range(n + m), n):
        rights_before = [pos - t for t, pos in enumerate(downs)]
        yield tuple(reversed(rights_before))


def border_word(n, m, parts):
    """Walk the upper border from the top-left corner one lattice step at a time."""
    out = []
    row = col = 0
    while row < n or col < m:
        if row < n and parts[n - 1 - row] == col:
            out.append("d")
            row += 1
        else:
            out.append("r")
            col += 1
    return "".join(out)


def raw_moves(n, m, pair):
    """The pairs one raw move away: delete or restore a full bottom row or first column."""
    parts, k = pair
    out = []
    if parts[0] == m:
        out.append((parts[1:] + (0,), k + m))
    if parts[-1] == 0:
        out.append(((m,) + parts[:-1], k - m))
    if parts[-1] >= 1:
        out.append((tuple(p - 1 for p in parts), k + n))
    if parts[0] < m:
        out.append((tuple(p + 1 for p in parts), k - n))
    return out


def closure(n, m, pair):
    """The class of a pair, as the closure under the raw moves."""
    start = (tuple(pair[0]), pair[1])
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for q in frontier:
            for r in raw_moves(n, m, q):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)


def canonical(members):
    """The member with the least rotation number."""
    return min(members, key=lambda pair: pair[1])


def classes_per_degree(n, m):
    return comb(n + m, n) // (n + m)


def classes_at_degree(n, m, d):
    """Canonical pairs of every class of degree d, sorted."""
    found = {canonical(closure(n, m, (parts, d - sum(parts)))) for parts in all_diagrams(n, m)}
    return sorted(found)


def split_rotation(n, m, k):
    """(i, j) with k = i*n + j*m, i taken mod m and j mod n, found by search."""
    for i in range(m):
        if (k - i * n) % m == 0:
            return i, ((k - i * n) // m) % n
    raise ValueError(f"{n}x{m}: no split of {k}")


def boxes(n, parts):
    return {(i, j) for i in range(1, n + 1) for j in range(1, parts[n - i] + 1)}


def is_diagram(n, m, cells):
    for i, j in cells:
        if not (1 <= i <= n and 1 <= j <= m):
            return False
        if i < n and (i + 1, j) not in cells:
            return False
        if j > 1 and (i, j - 1) not in cells:
            return False
    return True


def parts_of(n, cells):
    return tuple(sum(1 for (i, _) in cells if i == n - t) for t in range(n))


def box_move(n, m, parts, root):
    """Add (sign +1) or remove (sign -1) the box (i, j); None when the result is no diagram."""
    sign, i, j = root
    cells = boxes(n, parts)
    if sign > 0:
        if (i, j) in cells:
            return None
        cells = cells | {(i, j)}
    else:
        if (i, j) not in cells:
            return None
        cells = cells - {(i, j)}
    return parts_of(n, cells) if is_diagram(n, m, cells) else None


def rotated(n, m, root, k):
    """The root seen from a representative with rotation number k."""
    sign, a, b = root
    i, j = split_rotation(n, m, k)
    return (sign, (a - 1 + j) % n + 1, (b - 1 - i) % m + 1)


def act_all(n, m, members, root):
    """Canonical pairs of every class the root reaches from some representative."""
    out = set()
    for parts, k in members:
        moved = box_move(n, m, parts, rotated(n, m, root, k))
        if moved is not None:
            out.add(canonical(closure(n, m, (moved, k))))
    return out


def signed_roots(n, m, mode):
    signs = (1,) if mode == "hasse" else (1, -1)
    return [(s, i, j) for s in signs for i in range(1, n + 1) for j in range(1, m + 1)]


# -- parsing ------------------------------------------------------------------

_ROOT = re.compile(r"^([+-])e(\d+)-d(\d+)$")


def parse_root(text):
    match = _ROOT.match(text)
    if not match:
        raise ValueError(f"bad root {text!r}")
    return (1 if match.group(1) == "+" else -1, int(match.group(2)), int(match.group(3)))


def render_root(root):
    sign, i, j = root
    return f"{'+' if sign > 0 else '-'}e{i}-d{j}"


def parse_class_id(text):
    parts, _, k = text.rpartition("@")
    return tuple(int(p) for p in parts.split(",")), int(k)


_TERM = re.compile(r"([+-]?)(\d*)(dbar|e\d+|d\d+)")


def parse_vector(n, m, text):
    """A global root such as "dbar - d1 + e3" as (e coefficients, d coefficients, dbar)."""
    body = text.replace(" ", "")
    eps, dels, dbar = [0] * n, [0] * m, 0
    if body == "0":
        return tuple(eps), tuple(dels), 0
    pos = 0
    for match in _TERM.finditer(body):
        if match.start() != pos:
            break
        pos = match.end()
        coeff = int(match.group(2) or 1) * (-1 if match.group(1) == "-" else 1)
        name = match.group(3)
        if name == "dbar":
            dbar += coeff
        elif name[0] == "e":
            eps[int(name[1:]) - 1] += coeff
        else:
            dels[int(name[1:]) - 1] += coeff
    if pos != len(body) or not body:
        raise ValueError(f"bad global root {text!r}")
    return tuple(eps), tuple(dels), dbar


def form(u, v):
    """(e_a, e_b) = delta_ab = -(d_a, d_b); dbar pairs to zero with everything."""
    return sum(a * b for a, b in zip(u[0], v[0])) - sum(a * b for a, b in zip(u[1], v[1]))


# -- graphs -------------------------------------------------------------------

# (edges re-derived, sources whose out-edges are recomputed) per graph
SAMPLES = (100, 10)


def check_graph(n, m, lo, hi, mode, vertices, edges, rng, samples=SAMPLES):
    """Vertices are canonical pairs, edges (source pair, target pair, signed root).

    Every degree of the inclusive window holds exactly its C(m+n, n)/(m+n)
    classes; every vertex is the canonical member of its class; a sample of
    edges is re-derived from box moves at rotated roots; and at a sample of
    sources the out-edges are recomputed in full, so a dropped edge shows.
    """
    bad = []
    per_degree = {}
    for pair in vertices:
        per_degree.setdefault(sum(pair[0]) + pair[1], []).append(pair)
    want = classes_per_degree(n, m)
    for d in range(lo, hi + 1):
        got = per_degree.pop(d, [])
        if len(got) != want or len(set(got)) != len(got):
            bad.append(f"degree {d}: {len(got)} classes ({len(set(got))} distinct), expected {want}")
    if per_degree:
        bad.append(f"classes outside the window at degrees {sorted(per_degree)}")
    members = {}
    for pair in vertices:
        cls = closure(n, m, pair)
        if canonical(cls) != pair:
            bad.append(f"vertex {pair} is not the canonical member of its class")
        members[pair] = cls
    vset = set(vertices)
    by_source = {}
    for src, dst, root in edges:
        if src not in vset or dst not in vset:
            bad.append(f"edge {src} -> {dst} leaves the vertex set")
            return bad
        if mode == "hasse" and root[0] < 0:
            bad.append(f"negative root {render_root(root)} in a Hasse graph")
        by_source.setdefault(src, set()).add((root, dst))
    if len(set(edges)) != len(edges):
        bad.append("repeated edges")
    edge_list = sorted(set(edges))
    for src, dst, root in rng.sample(edge_list, min(samples[0], len(edge_list))):
        if dst not in act_all(n, m, members[src], root):
            bad.append(f"edge {src} -> {dst} [{render_root(root)}] is no box move")
    for src in rng.sample(sorted(vset), min(samples[1], len(vset))):
        expect = set()
        for root in signed_roots(n, m, mode):
            targets = act_all(n, m, members[src], root)
            if len(targets) > 1:
                bad.append(f"{render_root(root)} sends {src} to {len(targets)} classes")
            expect |= {(root, t) for t in targets if t in vset}
        got = by_source.get(src, set())
        if got != expect:
            bad.append(f"out-edges of {src}: {len(expect - got)} missing, {len(got - expect)} extra")
    return bad


def check_graph_json(n, m, lo, hi, mode, text, rng, samples=SAMPLES):
    try:
        obj = json.loads(text)
        if (obj["n"], obj["m"], obj["mode"], obj["degrees"]) != (n, m, mode, [lo, hi]):
            return ["header does not match the request"]
        bad = []
        vertices = []
        for cls in obj["classes"]:
            pair = (tuple(cls["canonical"]["partition"]), cls["canonical"]["k"])
            reps = {(tuple(r["partition"]), r["k"]) for r in cls["reps"]}
            if len(cls["reps"]) != n + m or reps != closure(n, m, pair):
                bad.append(f"representatives of {pair} are not its class")
            if any(r["word"] != border_word(n, m, tuple(r["partition"])) for r in cls["reps"]):
                bad.append(f"a representative word of {pair} is wrong")
            if cls["degree"] != sum(pair[0]) + pair[1]:
                bad.append(f"degree of {pair} is wrong")
            vertices.append(pair)
        edges = [
            (parse_class_id(e["src"]), parse_class_id(e["dst"]), parse_root(e["root"]))
            for e in obj["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable graph JSON: {exc!r}"]
    return bad + check_graph(n, m, lo, hi, mode, vertices, edges, rng, samples)


_DOT_NODE = re.compile(r'^  "([^"]+)" \[label="([^"]+)"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[label="([^"]+)"\];$')
_DOT_RANK = re.compile(r'^  \{ rank=same; (.*) \}$')


def check_graph_dot(n, m, lo, hi, mode, text, rng, samples=SAMPLES):
    lines = text.splitlines()
    if not lines or lines[0] != "digraph classes {" or lines[-1] != "}":
        return ["not a digraph"]
    bad, vertices, edges, ranks = [], [], [], []
    try:
        for line in lines[1:-1]:
            if (match := _DOT_NODE.match(line)):
                pair = parse_class_id(match.group(1))
                if match.group(2) != match.group(1).replace("@", "^"):
                    bad.append(f"label of {match.group(1)} is wrong")
                vertices.append(pair)
            elif (match := _DOT_EDGE.match(line)):
                edges.append(
                    (parse_class_id(match.group(1)), parse_class_id(match.group(2)), parse_root(match.group(3)))
                )
            elif (match := _DOT_RANK.match(line)):
                ranks.append([parse_class_id(t) for t in re.findall(r'"([^"]+)"', match.group(1))])
            elif line != "  rankdir=LR;":
                bad.append(f"unexpected line {line!r}")
    except ValueError as exc:
        return [f"unreadable DOT: {exc}"]
    if mode == "hasse":
        if sorted(p for group in ranks for p in group) != sorted(vertices):
            bad.append("rank groups do not partition the vertices")
        if any(len({sum(p) + k for p, k in group}) != 1 for group in ranks):
            bad.append("a rank group mixes degrees")
    return bad + check_graph(n, m, lo, hi, mode, vertices, edges, rng, samples)


# The paper's degree 0..6 Hasse window for the 2x3 box: fourteen classes,
# each named by one member, and four of its edges.
HASSE_2X3_PAIRS = [
    ((0, 0), 0), ((1, 0), 0), ((1, 1), 0), ((2, 1), 0),
    ((2, 2), 0), ((3, 2), 0), ((3, 3), 0),
    ((2, 1), -3), ((2, 2), -3), ((2, 0), 0), ((3, 0), 0),
    ((3, 1), 0), ((1, 1), 3), ((2, 1), 3),
]
HASSE_2X3_EDGES = [
    (((3, 1), 0), ((1, 1), 3), (1, 2, 1)),
    (((3, 2), 0), ((2, 1), 3), (1, 2, 1)),
    (((2, 1), -3), ((1, 0), 0), (1, 1, 3)),
    (((2, 2), -3), ((2, 0), 0), (1, 1, 3)),
]


def check_published_window(text):
    """The 2x3 Hasse graph over degrees 0..6 against the paper's figure."""
    try:
        obj = json.loads(text)
        got = {(tuple(c["canonical"]["partition"]), c["canonical"]["k"]) for c in obj["classes"]}
        edges = {
            (parse_class_id(e["src"]), parse_class_id(e["dst"]), parse_root(e["root"]))
            for e in obj["edges"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable graph JSON: {exc!r}"]
    canon = lambda pair: canonical(closure(2, 3, pair))
    bad = []
    if got != {canon(p) for p in HASSE_2X3_PAIRS}:
        bad.append("vertex set differs from the published window")
    for src, dst, root in HASSE_2X3_EDGES:
        if (canon(src), canon(dst), root) not in edges:
            bad.append(f"published edge {src} -> {dst} [{render_root(root)}] missing")
    return bad


# -- Borel data ---------------------------------------------------------------


def local_simple_roots(n, m, word):
    """Simple roots of the shuffle of a word, as (e part, d part) vectors."""
    symbols, next_e, next_d = [], 1, 1
    for ch in word:
        if ch == "d":
            symbols.append(("e", next_e))
            next_e += 1
        else:
            symbols.append(("d", next_d))
            next_d += 1
    out = []
    for (ka, a), (kb, b) in zip(symbols, symbols[1:]):
        eps, dels = [0] * n, [0] * m
        for kind, idx, sign in ((ka, a, 1), (kb, b, -1)):
            (eps if kind == "e" else dels)[idx - 1] += sign
        out.append((tuple(eps), tuple(dels)))
    return out


def check_borel_json(n, m, pair, text):
    """One ``borel --format json`` answer for the queried pair (diagram, k)."""
    parts, k = pair
    try:
        obj = json.loads(text)
        nodes = [parse_vector(n, m, node["root"]) for node in obj["nodes"]]
        greys = [node["grey"] for node in obj["nodes"]]
        simple = [parse_vector(n, m, r) for r in obj["simple_roots"]]
        deleted = obj["deleted"]
        words = obj["words"]
        local = (tuple(obj["local"]["partition"]), obj["local"]["k"])
        cls = obj["class"]
        canon = (tuple(cls["canonical"]["partition"]), cls["canonical"]["k"])
        reps = {(tuple(r["partition"]), r["k"]) for r in cls["reps"]}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable borel JSON: {exc!r}"]
    bad = []
    size = n + m
    members = closure(n, m, pair)
    if (obj.get("n"), obj.get("m")) != (n, m) or local != pair:
        bad.append("answer is not anchored at the queried pair")
    if reps != members or canon != canonical(members):
        bad.append("class of the queried pair is wrong")
    if len(nodes) != size or not 0 <= deleted < size:
        return bad + [f"{len(nodes)} nodes, deleted {deleted}"]
    total = tuple(sum(col) for col in zip(*(eps + dels + (dbar,) for eps, dels, dbar in nodes)))
    if total != (0,) * size + (1,):
        bad.append("node sum is not dbar")
    gram = [[form(u, v) for v in nodes] for u in nodes]
    if any(sum(row) for row in gram):
        bad.append("a Gram row sum is not zero")
    if [gram[t][t] == 0 for t in range(size)] != greys or any(gram[t][t] not in (2, -2, 0) for t in range(size)):
        bad.append("grey flags do not match the diagonal of the Gram matrix")
    if sum(greys) % 2 or not any(greys):
        bad.append(f"{sum(greys)} grey nodes: expected an even, positive number")
    if len(words) != size or words[deleted] != border_word(n, m, parts):
        bad.append("words[deleted] is not the border word of the queried diagram")
    if simple != [nodes[(deleted + 1 + t) % size] for t in range(size - 1)]:
        bad.append("simple roots are not the nodes after the deleted one")
    i, j = split_rotation(n, m, k)
    want = [
        (
            tuple(e[(a + j) % n] for a in range(n)),
            tuple(d[(b - i) % m] for b in range(m)),
        )
        for e, d in local_simple_roots(n, m, border_word(n, m, parts))
    ]
    if [(v[0], v[1]) for v in simple] != want:
        bad.append("global simple roots break the rotation law")
    return bad


# The paper's table of global simple roots for four pairs of the 3x4 box.
GLOBAL_NAMES_3X4 = [
    (((4, 1, 1), 0), ["d1 - e1", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4", "d4 - e3"]),
    (((1, 1, 0), 4), ["dbar - d1 + e3", "d1 - e1", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4"]),
    (((1, 1, 1), 4), ["-dbar + d1 - e3", "dbar - e1 + e3", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4"]),
    (((0, 0, 0), 7), ["dbar - e1 + e3", "e1 - e2", "-d2 + e2", "d2 - d3", "d3 - d4", "dbar - d1 + d4"]),
]


def check_published_names(pair, text):
    """Global simple roots of one pair of the paper's 3x4 table."""
    expect = dict(GLOBAL_NAMES_3X4)[pair]
    try:
        got = [parse_vector(3, 4, r) for r in json.loads(text)["simple_roots"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable borel JSON: {exc!r}"]
    if got != [parse_vector(3, 4, r) for r in expect]:
        return [f"global simple roots of {pair} differ from the published table"]
    return []


# -- verify -------------------------------------------------------------------


def check_verify(n, m, window, returncode, text):
    """``verify`` passes exactly when its class-level window sweeps some class.

    ``window`` is the half-open degree range the command's class-level
    checks sweep.  A window that holds no class checks nothing, so a run
    over it must not exit 0.
    """
    lo, hi = window
    swept = max(0, hi - lo) * classes_per_degree(n, m)
    lines = text.splitlines()
    if not swept:
        return [] if returncode != 0 else [f"exit 0 after sweeping no class (window {lo}:{hi})"]
    checks = lines[:-1]
    bad = []
    if returncode != 0:
        bad.append(f"exit {returncode}")
    if not checks or any(not line.startswith("PASS  ") for line in checks):
        bad.append("a check did not pass")
    if not lines or lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        bad.append("summary line does not count the checks")
    return bad
