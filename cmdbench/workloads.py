"""The fixed command lists of the three workloads.

Shapes, degree windows and query degrees are constants, so the work in a
pass never depends on the seed.  The seed picks only which class is queried
inside each fixed degree (and through which representative), the order of
the commands in each pass, and which outputs the oracles sample.
"""

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles

# graph-period: one degree period 0..mn-1 (graph windows are inclusive) of
# two mid-size coprime shapes, each in JSON and in DOT, plus the paper's
# 2x3 window.
GRAPHS = ((4, 5, "cayley"), (5, 6, "hasse"))

# borel-cold: query degrees from 0 out to twenty periods on both sides.
# The atlas search costs grow with |degree|; the near-zero points keep a
# change that makes every query pay for deep precomputation visible.
BOREL_DEGREES = {
    (3, 4): (0, 12, -12, 60, -60, 240, -240),
    (2, 5): (0, 10, -10, 50, -50, 200, -200),
}

# verify-suite: the default one-period window on two shapes, and a window
# that sweeps no class, which the program today wrongly passes.
VERIFY = (((3, 4), None), ((2, 5), None), ((2, 3), "3:3"))

WORKLOADS = ("graph-period", "borel-cold", "verify-suite")


@dataclass(frozen=True)
class Command:
    """One oddbox invocation and the check of its exit status and output.

    ``check(returncode, stdout, rng)`` returns the problems found; ``rng``
    picks the outputs an oracle samples.  A ``known_fault`` command fails
    on every run because of a fault in the program.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str, random.Random], list[str]]
    known_fault: bool = False


def _needs_exit_zero(check):
    def checked(returncode, text, rng):
        if returncode != 0:
            return [f"exit {returncode}"]
        return check(text, rng)

    return checked


def _ignoring_rng(check):
    return lambda text, rng: check(text)


def graph_period() -> list[Command]:
    out = []
    for n, m, mode in GRAPHS:
        hi = n * m - 1
        for fmt, check in (("json", oracles.check_graph_json), ("dot", oracles.check_graph_dot)):
            out.append(
                Command(
                    f"graph {n}x{m} {mode} {fmt}",
                    ("graph", "--n", str(n), "--m", str(m), "--deg", f"0:{hi}", "--mode", mode, "--format", fmt),
                    _needs_exit_zero(partial(check, n, m, 0, hi, mode)),
                )
            )
    out.append(
        Command(
            "graph 2x3 published window",
            ("graph", "--n", "2", "--m", "3", "--deg", "0:6", "--mode", "hasse", "--format", "json"),
            _needs_exit_zero(_ignoring_rng(oracles.check_published_window)),
        )
    )
    return out


def borel_argv(n, m, pair):
    parts, k = pair
    return (
        "borel", "--n", str(n), "--m", str(m),
        "--partition", ",".join(map(str, parts)), f"--k={k}", "--format", "json",
    )


def borel_cold(seed: int) -> list[Command]:
    rng = random.Random(f"borel-cold/{seed}")
    out = []
    for (n, m), degrees in BOREL_DEGREES.items():
        for d in degrees:
            cls = rng.choice(oracles.classes_at_degree(n, m, d))
            pair = rng.choice(sorted(oracles.closure(n, m, cls)))
            out.append(
                Command(
                    f"borel {n}x{m} degree {d}",
                    borel_argv(n, m, pair),
                    _needs_exit_zero(_ignoring_rng(partial(oracles.check_borel_json, n, m, pair))),
                )
            )
    for pair, _ in oracles.GLOBAL_NAMES_3X4:
        out.append(
            Command(
                f"borel 3x4 published {','.join(map(str, pair[0]))}@{pair[1]}",
                borel_argv(3, 4, pair),
                _needs_exit_zero(_ignoring_rng(partial(_published_borel, pair))),
            )
        )
    return out


def _published_borel(pair, text):
    return oracles.check_published_names(pair, text) + oracles.check_borel_json(3, 4, pair, text)


def verify_suite() -> list[Command]:
    out = []
    for (n, m), deg in VERIFY:
        argv = ("verify", "--n", str(n), "--m", str(m))
        if deg is None:
            window = (0, n * m)
        else:
            argv += ("--deg", deg)
            lo, hi = deg.split(":")
            window = (int(lo), int(hi))
        out.append(
            Command(
                f"verify {n}x{m}" + (f" --deg {deg}" if deg else ""),
                argv,
                lambda rc, text, rng, n=n, m=m, window=window: oracles.check_verify(n, m, window, rc, text),
                known_fault=window[0] >= window[1],
            )
        )
    return out


def build(name: str, seed: int) -> list[Command]:
    if name == "graph-period":
        return graph_period()
    if name == "borel-cold":
        return borel_cold(seed)
    if name == "verify-suite":
        return verify_suite()
    raise ValueError(f"unknown workload {name!r}")
