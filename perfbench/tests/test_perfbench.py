"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import spans
from workloads import WORKLOADS

from semgame import evaluate

REPO = Path(run.ROOT)

# Spans each workload must enter at least once in its traced run.
USED_SPANS = {
    "evaluate-1k": {"network.load", "network.build", "evaluate.evaluate_pairs", "evaluate.relatedness",
                    "evaluate.run_pipeline", "evaluate.spearman"},
    "relatedness-10k": {"network.load", "network.build", "evaluate.relatedness", "evaluate.run_pipeline"},
    "game-1k": {"network.load", "network.build", "evaluate.run_pipeline"},
    "compare-lb-30": {"evaluate.load_balance_experiment", "generate", "network.build",
                      "baselines.run_traditional", "evaluate.run_pipeline"},
}
COMMON_SPANS = {"spreading.run_spread", "spreading.step", "game.run_game", "game.gain", "game.cost", "game.rescale"}


def tiny(workload: str, trace: int, seed: int = 0) -> dict:
    return run.run(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                    "--trace", str(trace), "--size", "tiny"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_untraced(workload):
    result = tiny(workload, 0)
    assert result["failed"] == 0, result["messages"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, *_ in run.END_TO_END}
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced(workload):
    result = tiny(workload, 1)
    assert result["failed"] == 0, result["messages"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in spans.per_layer_names()]
    for span in USED_SPANS[workload] | COMMON_SPANS:
        assert metrics[f"{span}.calls"] > 0, span
    assert "trace.overhead_s" in metrics


def test_last_line_is_the_result():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-lb-30", "--seed", "4",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=120, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["metrics"]["ops_per_s"]["unit"] == "1/s"


def test_tampered_score_counts_as_failed(monkeypatch):
    real = evaluate.relatedness
    monkeypatch.setattr(evaluate, "relatedness", lambda *a, **k: real(*a, **k) + 1.5)
    result = tiny("relatedness-10k", 0, seed=5)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_tampered_rho_counts_as_failed(monkeypatch):
    real = evaluate.evaluate_pairs

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, rho=-report.rho)

    monkeypatch.setattr(evaluate, "evaluate_pairs", flipped)
    result = tiny("evaluate-1k", 0, seed=5)
    assert result["failed"] == result["attempted"] > 0


def test_unconserved_budget_counts_as_failed_in_traced_run(monkeypatch):
    real = evaluate.run_game

    def leaky(net, initial, gp):
        outcome = real(net, initial, gp)
        held = {k: v * 0.5 for k, v in outcome.final.held.items()}
        return dataclasses.replace(outcome, final=dataclasses.replace(outcome.final, held=held))

    monkeypatch.setattr(evaluate, "run_game", leaky)
    result = tiny("relatedness-10k", 1, seed=5)
    assert result["failed"] == result["attempted"] > 0


def test_reference_mismatch_counts_as_failed(monkeypatch):
    real = evaluate.load_balance_experiment

    def nudged(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows[0]["snm_stddev"] *= 1 + 1e-6
        return rows

    monkeypatch.setattr(evaluate, "load_balance_experiment", nudged)
    assert tiny("compare-lb-30", 0, seed=run.REFERENCE_SEED)["failed"] >= 1
    assert tiny("compare-lb-30", 0, seed=run.REFERENCE_SEED + 1)["failed"] == 0


def test_self_times_fit_in_traced_wall_time():
    result = tiny("evaluate-1k", 1)
    rec = result["recorder"]
    own = [s for span, s in zip(rec.spans, rec.self_times()) if span[4] >= 0]
    assert own and min(own) >= -1e-9
    assert sum(own) <= result["traced_s"]


def test_per_layer_counts_repeat_exactly():
    count_names = [n for n, unit, _ in spans.per_layer_names() if unit == "count"]
    first = tiny("game-1k", 1, seed=7)["metrics"]
    second = tiny("game-1k", 1, seed=7)["metrics"]
    assert {n: first[n] for n in count_names} == {n: second[n] for n in count_names}
    assert first["game.accepts"] > 0


def test_benchmark_json_matches_spec():
    assert json.loads((REPO / "BENCHMARK.json").read_text()) == run.benchmark_spec()


def test_exits_nonzero_without_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game-1k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_generator_is_connected_and_seeded():
    edges = gen.random_edges(50, 120, random.Random(3))
    assert edges == gen.random_edges(50, 120, random.Random(3))
    assert len(edges) == 120 == len({(a, b) for a, b, _ in edges})
    assert all(a < b and 0.0 < w <= 1.0 for a, b, w in edges)
    reach, frontier = {0}, [0]
    adjacency = {}
    for a, b, _ in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    while frontier:
        for y in adjacency.get(frontier.pop(), []):
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    assert reach == set(range(50))
