"""tools/bench_pairs.py with its benchmark runs stubbed out."""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_traced_runs_keep_their_medians(monkeypatch):
    """Untraced pairs and then traced runs alternate which side goes first;
    each traced metric keeps every run and its median per side."""
    bench_pairs = load_bench_pairs()
    calls = []

    def run_bench(checkout, workload, seed, trace):
        calls.append((str(checkout), trace))
        k = len(calls)
        return {"ops_per_s": float(k), "game.cost.calls": 40} if trace == 0 else {"game.self_s": float(k)}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    bench = {
        "run_seconds": 20,
        "end_to_end": [
            {"name": "ops_per_s", "better": "higher", "bound": 0.25},
            {"name": "game.cost.calls", "better": "lower", "bound": 0.25},
        ],
    }
    args = argparse.Namespace(parent=Path("P"), change=Path("C"))
    record = bench_pairs.pairs_for(args, bench, "game-1k", 11, 4)

    assert bench_pairs.TRACED_RUNS == 3
    assert calls == [
        ("P", 0), ("C", 0), ("C", 0), ("P", 0), ("P", 0), ("C", 0), ("C", 0), ("P", 0),
        ("P", 1), ("C", 1), ("C", 1), ("P", 1), ("P", 1), ("C", 1),
    ]
    ops = record["end_to_end"]["ops_per_s"]
    assert ops["parent"]["runs"] == [1.0, 4.0, 5.0, 8.0]
    assert ops["change"]["runs"] == [2.0, 3.0, 6.0, 7.0]
    assert ops["change_wins"] == 2
    assert record["end_to_end"]["game.cost.calls"]["change_wins"] == 0
    assert record["traced"] == {
        "parent": {"game.self_s": {"median": 12.0, "runs": [9.0, 12.0, 13.0]}},
        "change": {"game.self_s": {"median": 11.0, "runs": [10.0, 11.0, 14.0]}},
    }


def test_a_bytecode_cache_in_one_checkout_only_stops_the_run(tmp_path, monkeypatch, capsys):
    """With a __pycache__ under one side's src/ the script exits with an
    error before any run; with one under both it runs, and the record
    says whether bytecode writing was off."""
    bench_pairs = load_bench_pairs()
    bench = {"run_seconds": 20, "workloads": [{"name": "game-1k"}],
             "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "pkg").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    (tmp_path / "change" / "src" / "pkg" / "__pycache__").mkdir()
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--run", "game-1k:1:4", "--out", str(out)]

    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: pytest.fail("a benchmark ran"))
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main(argv)
    assert stopped.value.code == 2
    assert "only the change checkout's src/ holds a __pycache__ directory" in capsys.readouterr().err
    assert not out.exists()

    (tmp_path / "parent" / "src" / "pkg" / "__pycache__").mkdir()
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: {"ops_per_s": 1.0})
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["machine"]["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
    assert record["workloads"]["game-1k"]["pairs"] == 4


@pytest.mark.parametrize("spec, message", [
    ("game-1k:12", "--run 'game-1k:12': expected WORKLOAD:SEED:PAIRS"),
    ("game-1k:1:4:2", "--run 'game-1k:1:4:2': expected WORKLOAD:SEED:PAIRS"),
    ("game-10k:1:4", "--run 'game-10k:1:4': workload 'game-10k' is not one of evaluate-1k, game-1k"),
    ("game-1k:x:4", "--run 'game-1k:x:4': SEED and PAIRS must be integers"),
    ("game-1k:1:2.5", "--run 'game-1k:1:2.5': SEED and PAIRS must be integers"),
    ("game-1k:1:1", "--run 'game-1k:1:1': PAIRS must be at least 2"),
], ids=["two-fields", "four-fields", "unknown-workload", "seed-not-int", "pairs-not-int", "one-pair"])
def test_every_run_spec_is_checked_before_the_first_run(tmp_path, monkeypatch, capsys, spec, message):
    """A bad spec in second place stops the script with a usage error
    before any benchmark runs, and writes no record."""
    bench_pairs = load_bench_pairs()
    bench = {"run_seconds": 20, "workloads": [{"name": "evaluate-1k"}, {"name": "game-1k"}],
             "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    out = tmp_path / "bench.json"
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: pytest.fail("a benchmark ran"))
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--run", "evaluate-1k:1:4", "--run", spec, "--out", str(out)])
    assert stopped.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f" error: {message}")
    assert not out.exists()


# One metric over 10 pairs (3 in the last case) with bound 0.25; parent
# [99, 101] * 5 has median 100 and IQR 2, parent [40, 160] * 5 median 100
# and IQR 120.
@pytest.mark.parametrize("better, parent, change, expected", [
    ("higher", [100.0] * 10, [70.0] * 10, "worse"),
    ("lower", [100.0] * 10, [130.0] * 10, "worse"),
    ("higher", [40.0, 160.0] * 5, [101.0, 99.0] * 5, "unresolved"),
    ("higher", [40.0, 160.0] * 5, [250.0] * 10, "better"),
    ("lower", [99.0, 101.0] * 5, [90.0] * 10, "better"),
    ("higher", [99.0, 101.0] * 5, [110.0] * 8 + [90.0] * 2, "no_worse"),
    ("higher", [99.0, 101.0] * 5, [100.0] * 10, "no_worse"),
    ("higher", [99.0, 100.0, 101.0], [110.0] * 3, "no_worse"),
], ids=[
    "worse-higher", "worse-lower", "unresolved", "better-beats-every-parent-run",
    "better-lower", "no-worse-8-of-10", "no-worse-equal", "no-worse-3-of-3-pairs",
])
def test_each_end_to_end_metric_gets_a_verdict(monkeypatch, better, parent, change, expected):
    """worse is checked first, then unresolved (unless every change run beats
    every parent run), then better (at least 10 pairs, 9 in 10 of them won
    and a median gain beyond the parent IQR); any other case is no_worse."""
    bench_pairs = load_bench_pairs()
    values = {"P": iter(parent), "C": iter(change)}
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda checkout, workload, seed, trace: {"m": next(values[str(checkout)])} if trace == 0 else {})
    bench = {"run_seconds": 20, "end_to_end": [{"name": "m", "better": better, "bound": 0.25}]}
    args = argparse.Namespace(parent=Path("P"), change=Path("C"))
    record = bench_pairs.pairs_for(args, bench, "game-1k", 11, len(parent))
    assert record["end_to_end"]["m"]["verdict"] == expected

