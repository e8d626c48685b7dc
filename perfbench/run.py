"""semgame benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload evaluate-1k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The script generates the workload's inputs from --seed, times
ops until --seconds of op time has passed, checks every output (checks
are not timed) and prints a report. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. Their times are scaled to a
reference machine speed by a calibration loop run alongside (see
probe.calibrate); the report also prints them unscaled.

--trace 1 runs a fixed number of ops, each first untraced and then with
spans recorded at every module boundary, and reports the per-layer
metrics; the spans are written to perfbench/work/. See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from probe import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-9  # digests are exact today; the slack admits reordered float sums
SETUP_REPS = {"full": 11, "tiny": 2}  # fresh processes timed for setup_s
# End-to-end times are scaled to the machine speed at which probe.calibrate()
# takes this long (see README).
REFERENCE_CALIBRATION_S = 0.010
SAMPLE_PERIOD_S = 0.2  # calibrations while ops run

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)
RUN_SECONDS = 20


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json."""
    from spans import per_layer_names
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_names()],
    }


def generate_inputs(workload, size: str, seed: int, out: Path) -> list[Path]:
    """Write the workload's input files; return their paths.

    A child process does the work, so that its memory does not count in
    this process's peak_rss_mb.
    """
    spec = workload.inputs[size]
    if spec is None:
        return []
    cmd = [
        sys.executable, str(HERE / "gen.py"),
        "--nodes", str(spec.nodes), "--edges", str(spec.edges),
        "--concepts", str(spec.concepts), "--pairing", spec.pairing,
        "--seed", str(seed), "--out", str(out),
    ]
    subprocess.run(cmd, check=True, timeout=170)
    files = [out / "network.json"]
    if spec.concepts:
        files.append(out / "pairs.tsv")
    return files


def load_inputs(files: list[Path]):
    from semgame import network

    net = network.load_network(files[0]) if files else None
    pairs = network.load_pairs(files[1]) if len(files) > 1 else None
    return net, pairs


class SpeedSampler:
    """Runs probe.calibrate() every SAMPLE_PERIOD_S from a SIGALRM handler.

    An op is timed between two marks. It loses the time the handler took
    inside it, and is scaled by the calibrations taken during it and the
    nearest one on either side, so speed changes inside a long op count.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0  # time spent in the handler so far

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.stolen += time.perf_counter() - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.stolen

    def scaled(self, seconds: float, start: tuple[int, float], end: tuple[int, float]) -> float:
        """`seconds` (handler time already removed) at reference speed; call after running()."""
        window = self.samples[max(start[0] - 1, 0) : end[0] + 1]
        return seconds * REFERENCE_CALIBRATION_S / statistics.fmean(window)


def measure_setup(files: list[Path], reps: int) -> tuple[list[float], list[float]]:
    """Time `import semgame` plus input loading in `reps` fresh processes.

    Returns the times as measured and scaled to reference speed by the
    calibrations each probe runs just before and after (see probe.py).
    """
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), *map(str, files)]
    raw, scaled = [], []
    for k in range(reps + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
        elapsed, before, after = map(float, done.stdout.split())
        if k:  # the first probe also fills the bytecode cache; not counted
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_CALIBRATION_S / math.sqrt(before * after))
    return raw, scaled


def reference_for(workload: str, size: str, seed: int) -> list:
    if seed != REFERENCE_SEED or not REFERENCE.exists():
        return []
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(f"{workload}/{size}", [])


def reference_problems(got: list[float], want: list[float]) -> list[str]:
    if len(got) != len(want) or not all(
        math.isclose(g, w, rel_tol=REFERENCE_RTOL, abs_tol=1e-12) for g, w in zip(got, want)
    ):
        return [f"digest {got} differs from reference {want}"]
    return []


class Outcomes:
    """Op durations and failures of one pass."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.scaled: list[float] = []  # durations at reference speed
        self.failed = 0
        self.messages: list[str] = []

    def record(self, i: int, seconds: float, problems: list[str]) -> None:
        self.durations.append(seconds)
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {i}: " + "; ".join(problems[:3]))


def run_op(plan, i: int, span):
    """Time op i; return (output or None, seconds, problems)."""
    t0 = time.perf_counter()
    try:
        with span:
            out = plan.op(i)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        return None, time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    return out, time.perf_counter() - t0, []


def check_op(plan, i: int, out, reference: list) -> list[str]:
    problems = plan.check(i, out)
    if not problems and i < len(reference):
        problems = reference_problems(plan.digest(out), reference[i])
    return problems


def measure(plan, seconds: float, reference: list) -> Outcomes:
    """Closed loop: run ops until `seconds` of op time has passed (at least one op)."""
    result = Outcomes()
    sampler = SpeedSampler()
    marks = []
    busy = 0.0
    i = 0
    with sampler.running():
        while (i == 0 or busy < seconds) and (plan.limit is None or i < plan.limit):
            start = sampler.mark()
            out, dt, problems = run_op(plan, i, nullcontext())
            end = sampler.mark()
            dt -= end[1] - start[1]
            marks.append((dt, start, end))
            busy += dt
            result.record(i, dt, problems or check_op(plan, i, out, reference))
            i += 1
    result.scaled = [sampler.scaled(dt, start, end) for dt, start, end in marks]
    return result


def run_untraced(workload, size: str, seed: int, seconds: float, files: list[Path]) -> dict:
    from workloads import make_plan

    setup_raw, setup_scaled = measure_setup(files, SETUP_REPS[size])
    net, pairs = load_inputs(files)
    plan = make_plan(workload.name, seed, net, pairs)
    res = measure(plan, seconds, reference_for(workload.name, size, seed))
    units = plan.units
    busy = sum(res.durations)
    attempted = len(res.durations)
    completed = (attempted - res.failed) * units
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": completed / sum(res.scaled),
        "op_p50_s": statistics.median(res.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_raw)} fresh processes; unscaled {statistics.median(setup_raw):.6g} s",
        "ops_per_s": f"{workload.units_per_op}; unscaled {completed / busy:.6g} ({attempted * units} in {busy:.3f} s)",
        "op_p50_s": f"n={attempted}; unscaled {statistics.median(res.durations):.6g} s",
    }
    if attempted >= 100:  # the 90th percentile has at least ten samples beyond it
        p90 = statistics.quantiles(res.scaled, n=10)[8]
        notes["op_p90_s"] = f"{p90:.6g} s, n={attempted}"
    notes["ops_failed_frac"] = f"{res.failed / attempted:.6g} ({res.failed}/{attempted})"
    return {
        "attempted": attempted * units,
        "failed": res.failed * units,
        "messages": res.messages,
        "metrics": metrics,
        "notes": notes,
    }


def run_traced(workload, size: str, seed: int, files: list[Path], spans_path: Path) -> dict:
    """Per-layer metrics from a fixed op count.

    Each op runs twice in a row, untraced and then traced, so that both
    runs see the same machine state; the difference of the two sums is
    the tracing overhead.
    """
    from spans import Recorder
    from workloads import check_outcome, check_spread_final, make_plan

    reference = reference_for(workload.name, size, seed)
    rec = Recorder()
    with rec.recording():
        with rec.span("network.load") if files else nullcontext():
            net, pairs = load_inputs(files)
    plan = make_plan(workload.name, seed, net, pairs)
    n_ops = min(workload.trace_ops[size], plan.limit or workload.trace_ops[size])
    res = Outcomes()
    untraced = 0.0
    for i in range(n_ops):
        untraced += run_op(plan, i, nullcontext())[1]
        rec.op = i
        with rec.recording():
            out, dt, problems = run_op(plan, i, rec.span(workload.op_span) if workload.op_span else nullcontext())
        finals, outcomes = rec.take_checked()
        if not problems:
            problems = check_op(plan, i, out, reference)
        for final, sp in finals:
            problems += check_spread_final(final, sp)
        for g_net, outcome, gp in outcomes:
            problems += check_outcome(g_net, outcome, gp, plan.spread.max_steps)
        res.record(i, dt, problems)
    traced = sum(res.durations)
    rec.write(spans_path)
    return {
        "attempted": n_ops * plan.units,
        "failed": res.failed * plan.units,
        "messages": res.messages,
        "metrics": rec.metrics(sum(f.stat().st_size for f in files), traced - untraced),
        "notes": {"trace.overhead_s": f"traced {traced:.4f} s - untraced {untraced:.4f} s over {n_ops} ops"},
        "recorder": rec,
        "traced_s": traced,
    }


def write_reference(workload, size: str, files: list[Path]) -> None:
    """Record digests of the first ops for the reference seed."""
    from workloads import make_plan

    net, pairs = load_inputs(files)
    plan = make_plan(workload.name, REFERENCE_SEED, net, pairs)
    digests = []
    for i in range(workload.reference_ops):
        out, _, problems = run_op(plan, i, nullcontext())
        problems = problems or plan.check(i, out)
        if problems:
            raise RuntimeError(f"op {i} fails its checks: {problems}")
        digests.append(plan.digest(out))
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    table[f"{workload.name}/{size}"] = digests
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run(argv: list[str] | None = None) -> dict:
    """Parse arguments, run the benchmark and return its result (see main)."""
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="semgame benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: smoke-test inputs")
    parser.add_argument("--write-reference", action="store_true", help="record reference digests for seed 0")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = REFERENCE_SEED if args.write_reference else args.seed

    tag = f"{workload.name}-{args.size}-{seed}"
    inputs_dir = WORK / f"inputs-{tag}-{os.getpid()}"
    try:
        files = generate_inputs(workload, args.size, seed, inputs_dir)
        if args.write_reference:
            write_reference(workload, args.size, files)
            return {}
        if args.trace:
            result = run_traced(workload, args.size, seed, files, WORK / f"spans-{tag}.csv")
        else:
            result = run_untraced(workload, args.size, seed, args.seconds, files)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    result["header"] = (
        f"workload {workload.name}  seed {seed}  size {args.size}  trace {args.trace}  "
        f"python {platform.python_version()}  nproc {os.cpu_count()}"
    )
    return result


def report(result: dict) -> None:
    """Print the human-readable report, then the JSON result line."""
    from spans import per_layer_names

    units = {n: u for n, u, _, _ in END_TO_END} | {n: u for n, u, _ in per_layer_names()}
    print(result["header"])
    for name, value in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:40s} {value:>16.6g} {units[name]:6s} {note}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"  {name:40s} {note}")
    for message in result["messages"]:
        print(f"  FAILED {message}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }
    print(json.dumps(line), flush=True)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "semgame" / "__init__.py").is_file():
        print(f"perfbench: no semgame package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(argv)
    if result:
        report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
