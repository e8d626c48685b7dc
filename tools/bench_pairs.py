"""Alternated parent/change benchmark pairs, summarised as one JSON record.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --run relatedness-10k:11:10 --run game-1k:12:5 --out BENCH.json

DIR is a source checkout holding `BENCHMARK.json`, `perfbench/` and
`src/`. Every `--run WORKLOAD:SEED:PAIRS` is checked before the first
run: WORKLOAD must be named in the change's `BENCHMARK.json`, SEED an
int and PAIRS an int of at least 2. Each runs `perfbench/run.py
--trace 0` PAIRS times in each checkout on the same seed, alternating
which side goes first, then `--trace 1` TRACED_RUNS times per side,
alternating the same way; run.py sets the run length. The record keeps
every run's end-to-end metrics, their median and quartiles per side,
how many pairs the change won on each metric (in the direction the
change's `BENCHMARK.json` gives it), a verdict on each (see `verdict`),
every traced run's per-layer metrics with their median per side, the
run length, and the machine and Python version, with whether Python was
told not to write bytecode.

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


def verdict(parent: dict, change: dict, wins: int, sign: float, bound: float) -> str:
    """One end-to-end metric's verdict from both sides' spreads, the pairs
    the change won, the metric's direction (sign +1.0 when higher is
    better, -1.0 when lower is) and its bound, checked in this order:

    - "worse": the change median is worse than the parent median by more
      than bound * |parent median|;
    - "unresolved": the parent IQR is larger than that margin, unless
      every change run beats every parent run;
    - "better": at least 10 pairs ran, the change won at least 9 in 10
      of them, and its median beats the parent's by more than the parent
      IQR; fewer pairs cannot show a gain;
    - "no_worse": any other case.
    """
    margin = bound * abs(parent["median"])
    gain = sign * (change["median"] - parent["median"])
    if gain < -margin:
        return "worse"
    beats_all = min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"])
    if parent["iqr"] > margin and not beats_all:
        return "unresolved"
    pairs = len(parent["runs"])
    if pairs >= 10 and 10 * wins >= 9 * pairs and gain > parent["iqr"]:
        return "better"
    return "no_worse"


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
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * a > sign * b for a, b in zip(after, before))
        parent, change = spread(before), spread(after)
        record["end_to_end"][metric["name"]] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "verdict": verdict(parent, change, wins, sign, metric["bound"]),
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


def parse_run(spec: str, workloads: list[str]) -> tuple[str, int, int]:
    """A `--run WORKLOAD:SEED:PAIRS` spec as (workload, seed, pairs).

    Raises ValueError, naming the fault, unless WORKLOAD is one of
    `workloads`, SEED is an int, and PAIRS an int of at least 2 (the
    fewest runs a side's quartiles can be taken over).
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--run {spec!r}: expected WORKLOAD:SEED:PAIRS")
    workload, seed, pairs = parts
    if workload not in workloads:
        raise ValueError(f"--run {spec!r}: workload {workload!r} is not one of {', '.join(workloads)}")
    try:
        seed_n, pairs_n = int(seed), int(pairs)
    except ValueError:
        raise ValueError(f"--run {spec!r}: SEED and PAIRS must be integers") from None
    if pairs_n < 2:
        raise ValueError(f"--run {spec!r}: PAIRS must be at least 2")
    return workload, seed_n, pairs_n


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
    try:
        runs = [parse_run(spec, [w["name"] for w in bench["workloads"]]) for spec in args.run]
    except ValueError as exc:
        parser.error(str(exc))
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
    for workload, seed, n_pairs in runs:
        record["workloads"][workload] = pairs_for(args, bench, workload, seed, n_pairs)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
