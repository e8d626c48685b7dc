"""Alternated parent/change benchmark pairs, summarised as one JSON record.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --run relatedness-10k:11:10 --run game-1k:12:5 --out BENCH.json

DIR is a source checkout holding `BENCHMARK.json`, `perfbench/` and
`src/`. Each `--run WORKLOAD:SEED:PAIRS` runs `perfbench/run.py
--trace 0` PAIRS times in each checkout on the same seed, alternating
which side goes first, then `--trace 1` TRACED_RUNS times per side,
alternating the same way; run.py sets the run length. The record keeps
every run's end-to-end metrics, their median and quartiles per side,
how many pairs the change won on each metric (in the direction the
change's `BENCHMARK.json` gives it), every traced run's per-layer
metrics with their median per side, the run length, and the machine
and Python version, with whether Python was told not to write bytecode.

A bytecode cache in one checkout's `src/` and not the other's makes
that side skip compiling the package in every setup probe, which alone
moves `setup_s` by about 20% on `game-1k`; the script stops when
exactly one side has one.

A traced time swings between runs of the same tree by more than most
changes move it, so read per-layer times by their medians. Where spans
are many and short, the span wrappers' own cost swamps what they time:
on `game-1k` about 461k `game.gain` spans add about 1.8 s of
`trace.overhead_s` to a run whose `game.run_game_s` is about 3 s, so a
traced time there can move against the untraced ops. Layer claims on
such a workload rest on the counts, which repeat exactly per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


TRACED_RUNS = 3


def alternated(sides: dict[str, Path], workload: str, seed: int, trace: int, n: int) -> dict[str, list[dict]]:
    """n runs per side, the parent first in even rounds and the change first in odd ones."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], workload, seed, trace))
            print(f"{workload} trace {trace} {i + 1}/{n} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
    return runs


def pairs_for(args, bench: dict, workload: str, seed: int, n_pairs: int) -> dict:
    sides = {"parent": args.parent, "change": args.change}
    runs = alternated(sides, workload, seed, 0, n_pairs)
    record: dict = {"seed": seed, "pairs": n_pairs, "seconds": bench["run_seconds"], "end_to_end": {}}
    for metric in bench["end_to_end"]:
        before = [r[metric["name"]] for r in runs["parent"]]
        after = [r[metric["name"]] for r in runs["change"]]
        better = (lambda a, b: a > b) if metric["better"] == "higher" else (lambda a, b: a < b)
        record["end_to_end"][metric["name"]] = {
            "parent": spread(before),
            "change": spread(after),
            "change_wins": sum(better(a, b) for a, b in zip(after, before)),
        }
    traced = alternated(sides, workload, seed, 1, TRACED_RUNS)
    record["traced"] = {
        side: {
            name: {"median": statistics.median(r[name] for r in rs), "runs": [r[name] for r in rs]}
            for name in rs[0]
        }
        for side, rs in traced.items()
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--run", action="append", required=True, help="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    cached = [side for side, checkout in (("parent", args.parent), ("change", args.change))
              if any(p.is_dir() for p in (checkout / "src").rglob("__pycache__"))]
    if len(cached) == 1:
        parser.error(f"only the {cached[0]} checkout's src/ holds a __pycache__ directory; "
                     "delete it, or fill the other side's too")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.platform(),
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        },
        "command": f"perfbench/run.py --trace 0 per pair, --trace 1 {TRACED_RUNS} times per side",
        "workloads": {},
    }
    for spec in args.run:
        workload, seed, n_pairs = spec.split(":")
        record["workloads"][workload] = pairs_for(args, bench, workload, int(seed), int(n_pairs))
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
