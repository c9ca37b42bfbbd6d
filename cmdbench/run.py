"""End-to-end and per-layer benchmark of the oddbox graph, borel and verify commands.

Run from the root of a checkout:

    python3 cmdbench/run.py --workload graph-period --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of one-shot ``oddbox`` commands (see
workloads.py).  Every command runs in a fresh interpreter on ``src/``, one
at a time, so no program state carries over from one command to the next,
just as for a user of the CLI.  A pass runs every command of the list once,
in an order drawn from the seed, and checks each output against the oracles
in oracles.py; a command whose check fails counts as failed.  Passes repeat
for about ``--seconds``; a run always completes whole passes.

With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median wall time of a fresh interpreter importing oddbox.cli
    pass_s       median over passes of the wall time of the pass's commands
    pass_cpu_s   median over passes of their user + system CPU time
    peak_rss_mb  largest peak resident set of any command process

With ``--trace 1`` every command runs under traced_cli.py instead, and the
run reports per-layer counts (from the first pass; every pass must repeat
them exactly) and self times (medians over passes).  Spans and per-command
figures go to cmdbench/out/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
LAUNCH = "from oddbox.cli import main; main()"
IMPORT_ONLY = "import oddbox.cli"
SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "rect.rotated_root_at.calls": "count",
    "rect.diagram_of_word.calls": "count",
    "rect.self_s": "s",
    "reflect.admits.calls": "count",
    "reflect.t_apply.calls": "count",
    "reflect.self_s": "s",
    "orbit.act.calls": "count",
    "orbit.act.defined_ratio": "ratio",
    "orbit.act.admits_per_call": "admits/call",
    "orbit.enumerate_class.calls": "count",
    "orbit.classes_at_degree.calls": "count",
    "orbit.self_s": "s",
    "affine.ensure_band.calls": "count",
    "affine.transitions": "count",
    "affine.enumerate_class.calls": "count",
    "affine.borel_of_class.calls": "count",
    "affine.borel_act.calls": "count",
    "affine.self_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
}


class Outcome(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts command processes one at a time and reaps each with its resource usage."""

    def __init__(self, root: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        self.stdout = open(OUT / f"stdout-{os.getpid()}.tmp", "w+b")
        self.stderr = open(OUT / f"stderr-{os.getpid()}.tmp", "w+b")

    def close(self):
        for handle in (self.stdout, self.stderr):
            handle.close()
            os.unlink(handle.name)

    def execute(self, argv) -> Outcome:
        for handle in (self.stdout, self.stderr):
            handle.seek(0)
            handle.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=self.stdout, stderr=self.stderr, env=self.env, cwd=self.root)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.stdout.seek(0)
        self.stderr.seek(0)
        return Outcome(
            proc.returncode,
            self.stdout.read().decode("utf-8", "replace"),
            self.stderr.read().decode("utf-8", "replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
        )

    def setup_time(self) -> float:
        outcome = self.execute([sys.executable, "-c", IMPORT_ONLY])
        if outcome.returncode != 0:
            raise RuntimeError(f"importing oddbox.cli failed: {outcome.stderr.strip()}")
        return outcome.wall_s


def layer_metrics(stats: list[dict], out_bytes: int) -> dict:
    """Per-layer metrics of one pass from the stats files of its commands."""
    pairs, returned, busy, self_ns = {}, {}, {}, {}
    for one in stats:
        for caller, callee, n in one["pairs"]:
            pairs[(caller, callee)] = pairs.get((caller, callee), 0) + n
        for total, part in ((returned, one["returned"]), (busy, one["busy"]), (self_ns, one["self_ns"])):
            for name, n in part.items():
                total[name] = total.get(name, 0) + n
    calls = {}
    for (_, callee), n in pairs.items():
        calls[callee] = calls.get(callee, 0) + n
    acts = calls.get("orbit.act", 0)
    values = {
        "rect.rotated_root_at.calls": calls.get("rect.rotated_root_at", 0),
        "rect.diagram_of_word.calls": calls.get("rect.diagram_of_word", 0),
        "reflect.admits.calls": calls.get("reflect.admits", 0),
        "reflect.t_apply.calls": calls.get("reflect.t_apply", 0),
        "orbit.act.calls": acts,
        "orbit.act.defined_ratio": returned.get("orbit.act", 0) / acts if acts else 0.0,
        "orbit.act.admits_per_call": pairs.get(("orbit.act", "reflect.admits"), 0) / acts if acts else 0.0,
        "orbit.enumerate_class.calls": calls.get("orbit.enumerate_class", 0),
        "orbit.classes_at_degree.calls": calls.get("orbit.classes_at_degree", 0),
        # calls that (re)build the band; a call whose band is covered returns at once
        "affine.ensure_band.calls": busy.get("affine.BorelAtlas.ensure_band", 0),
        "affine.transitions": calls.get("affine.node_move", 0) + calls.get("affine.affine_reflect", 0),
        "affine.enumerate_class.calls": pairs.get(("affine.BorelAtlas.ensure_band", "orbit.enumerate_class"), 0),
        "affine.borel_of_class.calls": calls.get("affine.BorelAtlas.borel_of_class", 0),
        "affine.borel_act.calls": calls.get("affine.borel_act", 0),
        "cli.out_bytes": out_bytes,
    }
    for layer in ("rect", "reflect", "orbit", "affine", "verify", "cli"):
        values[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
    return values


def run_pass(runner, commands, rng, trace, pass_index):
    """Run every command once; return the pass record and the commands that failed."""
    record = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "out_bytes": 0, "commands": [], "stats": []}
    failures = []
    for position, cmd in enumerate(commands):
        if trace:
            stats_file = OUT / f"stats-{os.getpid()}.tmp"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(stats_file), *cmd.argv]
        else:
            argv = [sys.executable, "-c", LAUNCH, *cmd.argv]
        outcome = runner.execute(argv)
        try:
            problems = cmd.check(outcome.returncode, outcome.stdout, rng)
        except Exception as exc:  # a check that cannot read the output fails the command
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(cmd)
            print(f"FAIL {cmd.label}: {problems[:3]} {outcome.stderr.strip()[-300:]}", file=sys.stderr)
        record["wall_s"] += outcome.wall_s
        record["cpu_s"] += outcome.cpu_s
        record["rss_mb"] = max(record["rss_mb"], outcome.rss_mb)
        record["out_bytes"] += len(outcome.stdout.encode("utf-8"))
        record["commands"].append(
            {"id": f"{pass_index}.{position}", "label": cmd.label, "argv": list(cmd.argv),
             "wall_s": outcome.wall_s, "cpu_s": outcome.cpu_s, "rss_mb": outcome.rss_mb,
             "ok": not problems}
        )
        if trace:
            with open(stats_file, encoding="utf-8") as handle:
                stats = json.load(handle)
            stats_file.unlink()
            stats["id"] = f"{pass_index}.{position}"
            record["stats"].append(stats)
    return record, failures


def summarize(trace, passes, setup):
    """The metrics of a run, and a per-command table for the record."""
    per_command = {}
    for record in passes:
        for entry in record["commands"]:
            per_command.setdefault(entry["label"], []).append(entry["wall_s"])
    table = {label: statistics.median(walls) for label, walls in per_command.items()}
    if not trace:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(r["wall_s"] for r in passes),
            "pass_cpu_s": statistics.median(r["cpu_s"] for r in passes),
            "peak_rss_mb": max(r["rss_mb"] for r in passes),
        }
        units = END_TO_END_UNITS
    else:
        per_pass = [layer_metrics(r["stats"], r["out_bytes"]) for r in passes]
        values = dict(per_pass[0])
        for name, unit in LAYER_UNITS.items():
            if unit == "s":
                values[name] = statistics.median(p[name] for p in per_pass)
            elif any(p[name] != per_pass[0][name] for p in per_pass):
                print(f"WARNING {name} differs between passes", file=sys.stderr)
        units = LAYER_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "oddbox" / "cli.py").is_file():
        print(f"no oddbox sources under {root / 'src'}: run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    commands = workloads.build(args.workload, args.seed)
    rng = random.Random(f"{args.workload}/{args.seed}/passes")
    runner = Runner(root)
    try:
        runner.setup_time()  # writes the bytecode cache, as an installed package has it
        setup = [runner.setup_time() for _ in range(SETUP_SAMPLES)]
        passes, failed, attempted = [], [], 0
        started = time.perf_counter()
        # Start another pass while it would end, by the median pass so far,
        # no more than half a pass after --seconds.
        while not passes or (
            time.perf_counter() - started + statistics.median(r["wall_s"] for r in passes) / 2 < args.seconds
        ):
            order = rng.sample(commands, len(commands))
            record, failures = run_pass(runner, order, rng, args.trace, len(passes))
            passes.append(record)
            failed += failures
            attempted += len(order)
            setup.append(runner.setup_time())
    finally:
        runner.close()

    metrics, table = summarize(args.trace, passes, setup)
    correct = all(cmd.known_fault for cmd in failed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "python": sys.version.split()[0], "elapsed_s": time.perf_counter() - run_started,
             "passes": len(passes), "setup_s": setup,
             "pass_wall_s": [r["wall_s"] for r in passes], "pass_cpu_s": [r["cpu_s"] for r in passes],
             "command_median_wall_s": table, "metrics": metrics},
            handle, indent=1,
        )
    if args.trace:
        spans = [
            [stats["id"], *span] for record in passes for stats in record["stats"] for span in stats["spans"]
        ]
        outer = [{s["id"]: s["outer_ns"] for s in record["stats"]} for record in passes]
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as handle:
            json.dump({"commands": [c for r in passes for c in r["commands"]],
                       "span_fields": ["command", "span", "name", "start_ns", "end_ns", "parent"],
                       "spans": spans, "outer_ns": outer}, handle)

    for label, wall in sorted(table.items()):
        print(f"command {label}: median {wall:.4f} s")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} commands attempted, {len(failed)} failed")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
