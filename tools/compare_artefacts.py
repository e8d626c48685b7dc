"""Run one set of CLI invocations in two checkouts and compare their artefacts byte for byte.

    python3 tools/compare_artefacts.py --parent DIR --change DIR [--work DIR]

DIR is a source checkout holding `perfbench/gen.py` and `src/`. The
change's `gen.py` writes the inputs once: 60- and 300-node networks
with judgment pairs over 8 concepts. Each checkout then runs the same
23 invocations with this Python: on each network `spread`, `game` at
budgets 100, 10 and 1 and at budget 1 with `--screen-threshold` 0.001
and 0, `evaluate` at budgets 100 and 1, `relatedness` with and without
the game; and the three `compare` experiments. Every `summary.json`,
`trace.csv`, `pairs.csv` and `compare.csv` that differs, and every
invocation that fails on either side, is listed; the exit status is 1
if there is any. Outputs stay under `--work` (default: a temporary
directory that is removed).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ARTEFACTS = ("summary.json", "trace.csv", "pairs.csv", "compare.csv")


def invocations(inputs: Path) -> dict[str, list[str]]:
    """Name -> semgame arguments (without --out)."""
    runs: dict[str, list[str]] = {}
    for size in (60, 300):
        net = str(inputs / f"n{size}" / "network.json")
        pairs = str(inputs / f"n{size}" / "pairs.tsv")
        runs[f"n{size}-spread"] = ["spread", "--network", net, "--trace"]
        for budget in ("100", "10", "1"):
            runs[f"n{size}-game-b{budget}"] = ["game", "--network", net, "--budget", budget, "--trace"]
        for screen in ("0.001", "0"):
            runs[f"n{size}-game-b1-screen{screen}"] = [
                "game", "--network", net, "--budget", "1", "--screen-threshold", screen, "--trace"]
        for budget in ("100", "1"):
            runs[f"n{size}-evaluate-b{budget}"] = ["evaluate", "--network", net, "--pairs", pairs, "--budget", budget]
        runs[f"n{size}-relatedness"] = ["relatedness", "--network", net, "--pair", "0,1"]
        runs[f"n{size}-relatedness-no-game"] = ["relatedness", "--network", net, "--pair", "0,1", "--no-game"]
    for experiment in ("load-balance", "utilization", "cycles"):
        runs[f"compare-{experiment}"] = ["compare", "--experiment", experiment, "--seeds", "3"]
    return runs


def write_inputs(change: Path, inputs: Path) -> None:
    for size in (60, 300):
        cmd = [sys.executable, "perfbench/gen.py", "--nodes", str(size), "--edges", str(4 * size),
               "--concepts", "8", "--pairing", "all", "--seed", "0", "--out", str(inputs / f"n{size}")]
        subprocess.run(cmd, cwd=change, check=True)


def run_side(checkout: Path, args: list[str], out: Path) -> str | None:
    """Run one invocation; None on success, else the exit status and stderr."""
    cmd = [sys.executable, "-m", "semgame.cli", *args, "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    return None if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()}"


def compare(parent: Path, change: Path, work: Path) -> list[str]:
    """Every difference between the two checkouts' artefacts, one line each."""
    work = work.resolve()
    inputs = work / "inputs"
    write_inputs(change, inputs)
    problems = []
    for name, args in invocations(inputs).items():
        outs = {side: work / side / name for side in ("parent", "change")}
        for side, checkout in (("parent", parent), ("change", change)):
            error = run_side(checkout, args, outs[side])
            if error:
                problems.append(f"{name}: {side} failed, {error}")
        for artefact in ARTEFACTS:
            a, b = outs["parent"] / artefact, outs["change"] / artefact
            if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
                problems.append(f"{name}/{artefact} differs")
        print(f"{name}: compared", file=sys.stderr, flush=True)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, default=None, help="keep the inputs and outputs here")
    args = parser.parse_args(argv)
    if args.work is not None:
        problems = compare(args.parent, args.change, args.work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            problems = compare(args.parent, args.change, Path(tmp))
    for line in problems:
        print(line)
    print(f"{len(invocations(Path()))} invocations, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
