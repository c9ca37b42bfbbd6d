"""Run one oddbox command with its layer boundaries traced from outside.

Usage: python3 cmdbench/traced_cli.py STATS_FILE COMMAND [ARGS...]

No oddbox source is edited.  An import hook times the execution of each
oddbox module.  After import, every public function of the layers rect,
reflect, orbit, affine, verify and cli, and every public method of
affine.BorelAtlas, is replaced by a timing wrapper, and the wrapper is
rebound under every name by which an oddbox module refers to the function,
so calls from one module into another are seen.  Private helpers are not
wrapped: their time is charged to the public function that called them.

Each call adds to the count of its (caller, callee) pair and to the self
time of its layer (its duration minus that of the wrapped calls inside it).
Calls that return, and calls that make any traced call themselves, are
counted apart.
Calls up to SPAN_DEPTH deep also keep a span (id, name, start, end, parent)
in memory; deeper calls are only counted and timed.  Everything is written
to STATS_FILE as JSON when the command returns.
"""

import importlib.machinery
import inspect
import json
import sys
import time

LAYERS = ("rect", "reflect", "orbit", "affine", "verify", "cli")
SPAN_DEPTH = 3
_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.stack = []  # one [name, child_ns, span_id] per open call
        self.pairs = {}  # (caller, callee) -> calls; the caller is "" at top level
        self.returned = {}  # callee -> calls that returned rather than raised
        self.busy = {}  # callee -> calls that made at least one traced call
        self.self_ns = {}  # layer -> ns
        self.outer_ns = {}  # callee -> ns spent in its outermost calls
        self.open = {}  # callee -> calls now on the stack
        self.spans = []
        self._span_ids = 0

    def timed(self, name, layer, fn):
        """fn, counted and timed as ``name`` in ``layer``."""
        stack, pairs, returned, busy, self_ns, outer_ns, open_calls = (
            self.stack, self.pairs, self.returned, self.busy, self.self_ns, self.outer_ns, self.open
        )
        self_ns.setdefault(layer, 0)
        outer_ns.setdefault(name, 0)
        open_calls.setdefault(name, 0)

        def call(*args, **kwargs):
            depth = len(stack)
            caller = stack[-1] if depth else None
            key = (caller[0] if caller else "", name)
            pairs[key] = pairs.get(key, 0) + 1
            span_id = -1
            if depth < SPAN_DEPTH:
                span_id = self._span_ids
                self._span_ids += 1
            frame = [name, 0, span_id]
            stack.append(frame)
            open_calls[name] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spent = end - start
                self_ns[layer] += spent - frame[1]
                if caller:
                    caller[1] += spent
                if frame[1]:
                    busy[name] = busy.get(name, 0) + 1
                open_calls[name] -= 1
                if not open_calls[name]:
                    outer_ns[name] += spent
                if span_id >= 0:
                    self.spans.append((span_id, name, start, end, caller[2] if caller else -1))
            returned[name] = returned.get(name, 0) + 1
            return result

        return call

    def report(self) -> dict:
        return {
            "pairs": [[a, b, n] for (a, b), n in sorted(self.pairs.items())],
            "returned": self.returned,
            "busy": self.busy,
            "self_ns": self.self_ns,
            "outer_ns": self.outer_ns,
            "spans": sorted(self.spans),
        }


class _ImportTimer:
    """Meta-path finder that times the execution of each oddbox module."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "oddbox" and not fullname.startswith("oddbox."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            layer = fullname.rpartition(".")[2]
            spec.loader.exec_module = self.tracer.timed(f"{layer}.<import>", layer, spec.loader.exec_module)
        return spec


def install(tracer):
    """Wrap the public functions of every layer and rebind them everywhere."""
    modules = {name: mod for name, mod in sys.modules.items() if name == "oddbox" or name.startswith("oddbox.")}
    wrapped = {}
    for layer in LAYERS:
        mod = modules[f"oddbox.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[id(obj)] = tracer.timed(f"{layer}.{name}", layer, obj)
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, name, wrapped[id(obj)])
    atlas = modules["oddbox.affine"].BorelAtlas
    for name, obj in list(vars(atlas).items()):
        if inspect.isfunction(obj) and not name.startswith("_"):
            setattr(atlas, name, tracer.timed(f"affine.BorelAtlas.{name}", "affine", obj))


def main(argv) -> int:
    stats_file, args = argv[0], argv[1:]
    tracer = Tracer()
    sys.meta_path.insert(0, _ImportTimer(tracer))
    import oddbox.cli

    install(tracer)
    try:
        return oddbox.cli.run(args)
    finally:
        sys.stdout.flush()
        with open(stats_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
