"""Command line surface: conversions, actions, classes, graphs, Borel data
and the invariant suite.

Exit codes separate the two failure worlds: a partial morphism that happens
to be undefined at the input exits 1 with a structured message naming the
error class, so scripts can probe definedness, while malformed flags or
values exit 2.
"""

import argparse
import json
import sys

from . import affine, orbit, verify
from .rect import (
    DomainError,
    RectShape,
    dual,
    parse_diagram,
    parse_root,
    parse_shuffle,
    diagram_of_shuffle,
    diagram_of_word,
    render_diagram,
    render_root,
    render_shuffle,
    shuffle_of_diagram,
    word_of_diagram,
)
from .reflect import edge_flags, corners


def _shape(args) -> RectShape:
    return RectShape(args.n, args.m)


def _input_diagram(shape, args):
    if args.partition is not None:
        return parse_diagram(shape, args.partition)
    if args.word is not None:
        return diagram_of_word(shape, args.word)
    return diagram_of_shuffle(shape, parse_shuffle(shape, args.shuffle))


def _emit(args, text_lines, json_obj) -> None:
    if getattr(args, "format", "text") == "json":
        payload = json.dumps(json_obj, indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    _write(args, payload)


def _write(args, payload: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload)


def cmd_convert(args) -> int:
    shape = _shape(args)
    parts = _input_diagram(shape, args)
    word = word_of_diagram(shape, parts)
    shuf = shuffle_of_diagram(shape, parts)
    dl = dual(shape, parts)
    _emit(
        args,
        [
            f"partition: {render_diagram(parts)}",
            f"word:      {word}",
            f"shuffle:   {render_shuffle(shape, shuf)}",
            f"dual:      {render_diagram(dl)}",
        ],
        {
            "n": shape.n,
            "m": shape.m,
            "partition": list(parts),
            "word": word,
            "shuffle": render_shuffle(shape, shuf),
            "dual": list(dl),
        },
    )
    return 0


def cmd_corners(args) -> int:
    shape = _shape(args)
    parts = _input_diagram(shape, args)
    outer, inner = corners(shape, parts)
    flags = edge_flags(shape, parts)
    _emit(
        args,
        [
            f"partition:     {render_diagram(parts)}",
            "outer:         " + (" ".join(render_root(r) for r in outer) or "-"),
            "inner:         " + (" ".join(render_root(r.negated()) for r in inner) or "-"),
            f"pseudo-outer:  {str(flags.contains_hook).lower()}",
            f"pseudo-inner:  {str(flags.reduced).lower()}",
            f"row-full:      {str(flags.row_full).lower()}",
            f"row-empty:     {str(flags.row_empty).lower()}",
            f"col-full:      {str(flags.col_full).lower()}",
            f"col-empty:     {str(flags.col_empty).lower()}",
        ],
        {
            "n": shape.n,
            "m": shape.m,
            "partition": list(parts),
            "outer": [render_root(r) for r in outer],
            "inner": [render_root(r.negated()) for r in inner],
            "pseudo_outer": flags.contains_hook,
            "pseudo_inner": flags.reduced,
            "row_full": flags.row_full,
            "row_empty": flags.row_empty,
            "col_full": flags.col_full,
            "col_empty": flags.col_empty,
        },
    )
    return 0


def _class_lines(shape, cls) -> list[str]:
    lines = [
        f"class:     {orbit.class_id(cls)}",
        f"degree:    {cls.degree}",
    ]
    for rep in cls.reps:
        lines.append(
            f"rep:       {render_diagram(rep.diagram)} @ {rep.k}"
            f"  word {word_of_diagram(shape, rep.diagram)}"
        )
    return lines


def cmd_act(args) -> int:
    shape = _shape(args)
    parts = _input_diagram(shape, args)
    root = parse_root(shape, args.root)
    cls = orbit.enumerate_class(shape, (parts, args.k))
    image = orbit.act(cls, root)
    obj = {"n": shape.n, "m": shape.m, "root": render_root(root), "class": orbit.class_json(image)}
    _emit(args, _class_lines(shape, image), obj)
    return 0


def cmd_class(args) -> int:
    shape = _shape(args)
    parts = _input_diagram(shape, args)
    cls = orbit.enumerate_class(shape, (parts, args.k))
    lines = _class_lines(shape, cls)
    obj = {"n": shape.n, "m": shape.m, "class": orbit.class_json(cls)}
    if args.approx:
        groups = orbit.approx_decompose(cls)
        obj["refinement"] = [
            [{"partition": list(rep.diagram), "k": rep.k} for rep in group]
            for group in groups
        ]
        for t, group in enumerate(groups):
            body = "  ".join(f"{render_diagram(r.diagram)}@{r.k}" for r in group)
            lines.append(f"part {t}:    {body}")
    _emit(args, lines, obj)
    return 0


def cmd_degree(args) -> int:
    shape = _shape(args)
    orbit.require_class_shape(shape)
    orbit._refuse_over_cap(shape, orbit.classes_per_degree(shape), f"classes in degree {args.d}")
    classes = orbit.classes_at_degree(shape, args.d)
    lines = [f"degree {args.d}: {len(classes)} classes"]
    for cls in classes:
        lines.append(f"  {orbit.class_id(cls)}")
    obj = {
        "n": shape.n,
        "m": shape.m,
        "degree": args.d,
        "classes": [orbit.class_json(c) for c in classes],
    }
    _emit(args, lines, obj)
    return 0


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"degree window looks like LO:HI, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"degree window looks like LO:HI, got {text!r}") from None


def cmd_graph(args) -> int:
    shape = _shape(args)
    lo, hi = _parse_window(args.deg)
    graph = orbit.build_graph(shape, lo, hi, args.mode)
    if args.format == "dot":
        _write(args, orbit.graph_dot(graph))
        return 0
    if args.format == "json":
        _write(args, json.dumps(orbit.graph_json(graph), indent=2) + "\n")
        return 0
    lines = [f"{args.mode} graph, degrees {lo}..{hi}: "
             f"{len(graph.vertices)} classes, {len(graph.edges)} edges"]
    layers = orbit.graph_layers(graph)
    for d in range(lo, hi + 1):
        lines.append(f"degree {d}: " + " ".join(orbit.class_id(c) for c in layers.get(d, ())))
    ids = [orbit.class_id(c) for c in graph.vertices]
    for a, b, root in graph.edges:
        lines.append(f"{ids[a]} -> {ids[b]}  [{render_root(root)}]")
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_borel(args) -> int:
    shape = _shape(args)
    parts = _input_diagram(shape, args)
    pair = orbit.AnchoredPair(parts, args.k)
    cls = orbit.enumerate_class(shape, pair)
    b = affine.borel_at(shape, pair)
    words = affine.dta_words(b.dk)
    lines = [
        f"borel of:      {render_diagram(parts)} @ {args.k}   (class {orbit.class_id(cls)})",
        "simple roots:  " + ", ".join(r.render() for r in b.simple_global()),
        f"deleted node:  {b.deleted}  ({b.dk.nodes[b.deleted].render()})",
        "cycle:         " + ", ".join(
            ("[" + r.render() + "]") if t == b.deleted else r.render()
            for t, r in enumerate(b.dk.nodes)
        ),
        "greys:         " + " ".join(str(t) for t, g in enumerate(b.dk.greys) if g),
        "words:         " + " ".join(words),
    ]
    obj = {"n": shape.n, "m": shape.m, "class": orbit.class_json(cls)}
    obj.update(affine.borel_json(b))
    obj["simple_roots"] = [r.render() for r in b.simple_global()]
    obj["words"] = list(words)
    _emit(args, lines, obj)
    return 0


def cmd_verify(args) -> int:
    shape = _shape(args)
    lo, hi = (None, None)
    if args.deg is not None:
        lo, hi = _parse_window(args.deg)
    results = verify.run_all(shape, lo, hi)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failed += not r.ok
        line = f"{status}  {r.name.ljust(width)}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _add_shape(parser) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of rows")
    parser.add_argument("--m", type=int, required=True, help="number of columns")


def _add_input(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", help='diagram as a comma list, e.g. "3,1"')
    group.add_argument("--word", help='border word over r/d, e.g. "rdrrd"')
    group.add_argument("--shuffle", help="shuffle as a comma list, e.g. \"1',1,2',3',2\"")


def _add_format(parser, choices=("text", "json")) -> None:
    parser.add_argument("--format", choices=choices, default="text")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddbox",
        description="Young diagrams in a box under odd reflections: "
        "encodings, classes, graphs and affine Borel data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="translate between the three encodings")
    _add_shape(p)
    _add_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("corners", help="corner roots, pseudo-corners and edge flags")
    _add_shape(p)
    _add_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_corners)

    p = sub.add_parser("act", help="apply a signed root to the class of (diagram, k)")
    _add_shape(p)
    _add_input(p)
    p.add_argument("--k", type=int, default=0, help="rotation number (default 0)")
    p.add_argument(
        "--root",
        required=True,
        help='signed root, e.g. "+e2-d1"; write negative roots as --root=-e1-d2',
    )
    _add_format(p)
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("class", help="enumerate the class of (diagram, k)")
    _add_shape(p)
    _add_input(p)
    p.add_argument("--k", type=int, default=0, help="rotation number (default 0)")
    p.add_argument("--approx", action="store_true", help="include the row-move refinement parts")
    _add_format(p)
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("degree", help="all classes of one degree")
    _add_shape(p)
    p.add_argument("--d", type=int, required=True, help="degree")
    _add_format(p)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("graph", help="Cayley or Hasse graph over a degree window")
    _add_shape(p)
    p.add_argument("--deg", required=True, help="degree window LO:HI")
    p.add_argument("--mode", choices=("hasse", "cayley"), default="hasse")
    _add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("borel", help="global simple roots and cyclic diagram of a class")
    _add_shape(p)
    _add_input(p)
    p.add_argument("--k", type=int, default=0, help="rotation number (default 0)")
    _add_format(p)
    p.set_defaults(func=cmd_borel)

    p = sub.add_parser("verify", help="run the invariant suite for a shape")
    _add_shape(p)
    p.add_argument("--deg", help="half-open degree window LO:HI (LO < HI) for class-level checks")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
