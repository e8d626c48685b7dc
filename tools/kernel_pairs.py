"""Alternated parent/change timings of the spreading kernel, as one JSON record.

    python3 tools/kernel_pairs.py --parent DIR --change DIR \\
        [--sizes 30,1000,10000] [--alternations 24]

DIR is a source checkout holding `src/semgame`. Both checkouts' packages
are imported into this one process under their own names, and each
builds, with its own `build_network`, the same seeded graph per size: n
nodes and 4n edges drawn like `perfbench/gen.py`. Each side's
`spreading._spread_once` then runs on two frontiers (`FRONTIERS`):
every node firing, which it pulls, and every second position, which it
pushes. Before any timing both sides must give the same output bit for
bit (by `float.hex`) at every size and frontier; the script stops
otherwise. Per size and frontier it then times both sides per
alternation, on graphs built afresh for it, alternating which side goes
first and, every second alternation, which side is built first; each
side's time in an alternation is the fastest of a few timings of a
calibrated number of calls with the garbage collector off. It prints,
per size and frontier, the change/parent ratio of every alternation,
their median and how many the change won, and the Python version. Only
the standard library is used, so any installed Python can run it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import importlib.util
import json
import math
import platform
import random
import statistics
import sys
import time
from collections.abc import Callable
from pathlib import Path

SIDES = ("parent", "change")
EDGES_PER_NODE = 4
DELTA = 0.2
SEED = 18
# Frontier name -> stride of the firing positions: every node firing
# (the pull) and every second position (the push).
FRONTIERS = {"full": 1, "partial": 2}
# Each timing lasts at least this long, so that the clock's resolution
# is small against it; of REPEATS timings per side and alternation the
# fastest counts, so that a stall from another process drops out.
TIMING_S = 0.05
REPEATS = 5

Kernel = Callable[[], list]


def load_gen():
    """`perfbench/gen.py`, whose `random_edges` draws the graphs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("kernel_pairs_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_package(checkout: Path, alias: str) -> None:
    """The checkout's `src/semgame` imported as the package `alias`, in
    place of any package loaded under that name before."""
    for name in [m for m in sys.modules if m == alias or m.startswith(alias + ".")]:
        del sys.modules[name]
    init = checkout / "src" / "semgame" / "__init__.py"
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)


def kernel_for(alias: str, edges: list[tuple[int, int, float]], values: list[float], stride: int) -> Kernel:
    """The package's `_spread_once` on its own build of the graph, every
    `stride`-th position firing."""
    network = importlib.import_module(f"{alias}.network")
    spreading = importlib.import_module(f"{alias}.spreading")
    nodes = [network.ConceptNode(i, f"c{i}") for i in range(len(values))]
    net = network.build_network(nodes, [network.WeightedEdge(a, b, w) for a, b, w in edges])
    firing = list(range(0, len(values), stride))
    return lambda: spreading._spread_once(net, values, firing, DELTA)


def check_identical(kernels: dict[str, Kernel], n: int, frontier: str) -> None:
    """Stop unless both sides' outputs are the same floats bit for bit."""
    parent, change = ([v.hex() for v in kernels[side]()] for side in SIDES)
    if parent != change:
        k = next((k for k, (a, b) in enumerate(zip(parent, change)) if a != b), min(len(parent), len(change)))
        sys.exit(f"kernel_pairs: at {n} nodes with the {frontier} frontier the kernels differ first"
                 f" at position {k}; nothing was timed")


def time_kernel(kernel: Kernel, calls: int) -> float:
    """Seconds per call over `calls` back-to-back calls, the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            kernel()
        return (time.perf_counter() - start) / calls
    finally:
        if enabled:
            gc.enable()


def alternate(builders: dict[str, Callable[[], Kernel]], alternations: int) -> dict:
    """Both sides timed REPEATS times per alternation, each on a graph
    built afresh, and the fastest timing of each kept.

    The side timed first swaps every alternation, the parent first in
    even ones. The side built first swaps every second alternation: the
    graph built later can lie better in memory, and with one build per
    side a parent-against-parent run read 0.954 at 1k nodes on 3.12,
    and 1.066 with the build order reversed.
    """
    calls = max(1, math.ceil(TIMING_S / time_kernel(builders["parent"](), 3)))
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for i in range(alternations):
        kernels = {side: builders[side]() for side in (SIDES if i // 2 % 2 == 0 else SIDES[::-1])}
        best = {side: math.inf for side in SIDES}
        for _ in range(REPEATS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                best[side] = min(best[side], time_kernel(kernels[side], calls))
        for side in SIDES:
            times[side].append(best[side])
        del kernels
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {
        "calls_per_timing": calls,
        "median_ratio": statistics.median(ratios),
        "change_wins": sum(r < 1.0 for r in ratios),
        "ratios": ratios,
        "parent_s": times["parent"],
        "change_s": times["change"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--sizes", default="30,1000,10000", help="comma-separated node counts")
    parser.add_argument("--alternations", type=int, default=24)
    args = parser.parse_args(argv)
    if args.alternations < 1:
        parser.error("--alternations must be at least 1")
    sizes = [int(s) for s in args.sizes.split(",")]
    gen = load_gen()
    aliases = {side: f"kernel_pairs_{side}" for side in SIDES}
    for side, alias in aliases.items():
        load_package(getattr(args, side), alias)
    record: dict = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "alternations": args.alternations,
        "seed": SEED,
        "sizes": {},
    }
    cases = []
    for n in sizes:
        rng = random.Random(SEED + n)
        edges = gen.random_edges(n, min(EDGES_PER_NODE * n, n * (n - 1) // 2), rng)
        values = [rng.random() for _ in range(n)]
        record["sizes"][str(n)] = {"nodes": n, "edges": len(edges), "python": record["python"], "frontiers": {}}
        for frontier, stride in FRONTIERS.items():
            builders = {side: functools.partial(kernel_for, alias, edges, values, stride)
                        for side, alias in aliases.items()}
            check_identical({side: build() for side, build in builders.items()}, n, frontier)
            cases.append((n, frontier, stride, builders))
    for n, frontier, stride, builders in cases:
        record["sizes"][str(n)]["frontiers"][frontier] = {
            "firing": len(range(0, n, stride)), **alternate(builders, args.alternations)}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
