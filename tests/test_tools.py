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


def test_a_bytecode_cache_in_one_checkout_only_stops_the_run(tmp_path, monkeypatch, capsys):
    """With a __pycache__ under one side's src/ the script exits with an
    error before any run; with one under both it runs, and the record
    says whether bytecode writing was off."""
    bench_pairs = load_bench_pairs()
    bench = {"run_seconds": 20, "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
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
