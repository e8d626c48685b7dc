"""Run one set of CLI invocations and compare their artefacts byte for byte.

    python3 tools/compare_artefacts.py --parent DIR --change DIR [--work DIR]
    python3 tools/compare_artefacts.py --golden FILE [--write] [--work DIR]

DIR is a source checkout holding `perfbench/gen.py` and `src/`. The
change's `gen.py` writes the inputs once: 60- and 300-node networks
with judgment pairs over 8 concepts. The same 25 invocations then run
with this Python: on each network `spread`, `game` at budgets 100, 10
and 1 and at budget 1 with `--screen-threshold` 0.001 and 0, `evaluate`
at budgets 100 and 1, `relatedness` with and without the game; the
three `compare` experiments, load-balance once more on small dense
networks at budget 1, and a traced `cobweb` run. Every invocation runs
in the work directory and names its inputs by relative path, so the
artefacts do not depend on where that directory is.

With `--parent` and `--change`, both checkouts run every invocation and
each `summary.json`, `trace.csv`, `pairs.csv` and `compare.csv` that
differs is listed. With `--golden`, only the checkout holding this
script runs them, and the sha256 of every input and artefact is checked
against FILE, or written to it with `--write`; the file has `sha256sum`
format, with paths relative to the work directory. Every invocation
that fails is listed too; the exit status is 1 if anything is listed.
Outputs stay under `--work` (default: a temporary directory that is
removed).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ARTEFACTS = ("summary.json", "trace.csv", "pairs.csv", "compare.csv")
SIZES = (60, 300)
INPUTS = Path("inputs")  # under the work directory


def invocations(inputs: Path) -> dict[str, list[str]]:
    """Name -> semgame arguments (without --out)."""
    runs: dict[str, list[str]] = {}
    for size in SIZES:
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
    runs["compare-load-balance-n12-b1"] = [
        "compare", "--experiment", "load-balance", "--seeds", "5", "--n", "12", "--edge-prob", "0.4",
        "--budget", "1", "--delta", "0.5"]
    runs["cobweb"] = ["cobweb", "--nodes", "5", "--r", "0.9", "--demand-slope", "2", "--supply-slope", "2",
                      "--trace"]
    return runs


def write_inputs(checkout: Path, work: Path) -> None:
    for size in SIZES:
        cmd = [sys.executable, "perfbench/gen.py", "--nodes", str(size), "--edges", str(4 * size),
               "--concepts", "8", "--pairing", "all", "--seed", "0", "--out", str(work / INPUTS / f"n{size}")]
        subprocess.run(cmd, cwd=checkout, check=True)


def run_side(checkout: Path, args: list[str], out: Path, work: Path) -> str | None:
    """Run one invocation in `work`; None on success, else the exit status and stderr."""
    cmd = [sys.executable, "-m", "semgame.cli", *args, "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
    return None if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()}"


def compare(parent: Path, change: Path, work: Path) -> list[str]:
    """Every difference between the two checkouts' artefacts, one line each."""
    write_inputs(change, work)
    problems = []
    for name, args in invocations(INPUTS).items():
        outs = {side: work / side / name for side in ("parent", "change")}
        for side, checkout in (("parent", parent), ("change", change)):
            error = run_side(checkout, args, outs[side], work)
            if error:
                problems.append(f"{name}: {side} failed, {error}")
        for artefact in ARTEFACTS:
            a, b = outs["parent"] / artefact, outs["change"] / artefact
            if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
                problems.append(f"{name}/{artefact} differs")
        print(f"{name}: compared", file=sys.stderr, flush=True)
    return problems


def digests(checkout: Path, work: Path) -> tuple[dict[str, str], list[str]]:
    """The sha256 of every input and artefact, keyed by its path under
    `work`, and one line per failed invocation."""
    write_inputs(checkout, work)
    files = [INPUTS / f"n{size}" / name for size in SIZES for name in ("network.json", "pairs.tsv")]
    problems = []
    for name, args in invocations(INPUTS).items():
        error = run_side(checkout, args, work / "out" / name, work)
        if error:
            problems.append(f"{name}: failed, {error}")
        files += [Path("out", name, a) for a in ARTEFACTS if (work / "out" / name / a).exists()]
        print(f"{name}: run", file=sys.stderr, flush=True)
    hashes = {p.as_posix(): hashlib.sha256((work / p).read_bytes()).hexdigest() for p in files}
    return hashes, problems


def check_golden(checkout: Path, golden: Path, write: bool, work: Path) -> list[str]:
    """Write the manifest, or every way the artefacts differ from it."""
    got, problems = digests(checkout, work)
    if write:
        if not problems:
            text = "".join(f"{digest}  {name}\n" for name, digest in sorted(got.items()))
            golden.write_text(text, encoding="utf-8")
        return problems
    want = {}
    for line in golden.read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        want[name] = digest
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{name} missing")
        elif name not in want:
            problems.append(f"{name} not in {golden}")
        elif got[name] != want[name]:
            problems.append(f"{name} differs")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--golden", type=Path, help="sha256 manifest to check (or write)")
    parser.add_argument("--write", action="store_true", help="with --golden: write the manifest")
    parser.add_argument("--work", type=Path, default=None, help="keep the inputs and outputs here")
    args = parser.parse_args(argv)
    sides = [args.parent, args.change]
    if None in sides if args.golden is None else sides != [None, None]:
        parser.error("give either --parent and --change, or --golden")
    if args.write and args.golden is None:
        parser.error("--write needs --golden")

    def run(work: Path) -> list[str]:
        work = work.resolve()
        if args.golden is not None:
            checkout = Path(__file__).resolve().parent.parent
            return check_golden(checkout, args.golden.resolve(), args.write, work)
        return compare(args.parent, args.change, work)

    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        problems = run(args.work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            problems = run(Path(tmp))
    for line in problems:
        print(line)
    print(f"{len(invocations(INPUTS))} invocations, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
