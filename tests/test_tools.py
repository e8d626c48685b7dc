"""tools/bench_pairs.py with its benchmark runs stubbed out."""

import argparse
import importlib.util
from pathlib import Path

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
        "end_to_end": [{"name": "ops_per_s", "better": "higher"}, {"name": "game.cost.calls", "better": "lower"}],
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
