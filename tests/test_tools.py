"""tools/bench_pairs.py and tools/compare_artefacts.py with their runs stubbed out, and a
smoke run of tools/heap_layout.py."""

import argparse
import importlib.util
import json
import subprocess
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



def load_compare_artefacts():
    spec = importlib.util.spec_from_file_location("compare_artefacts", TOOLS / "compare_artefacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_pinned_default_restates_its_twin_with_the_cli_default():
    """A `SAME_AS_DEFAULT` invocation is its twin's arguments plus one flag
    given the value the CLI uses when the flag is left out."""
    from semgame.cli import build_parser

    compare_artefacts = load_compare_artefacts()
    runs = compare_artefacts.invocations(compare_artefacts.INPUTS)
    assert sorted(compare_artefacts.SAME_AS_DEFAULT) == ["n300-game-b1-screen0", "n60-game-b1-screen0"]
    for pinned, default in compare_artefacts.SAME_AS_DEFAULT.items():
        extra = list(runs[pinned])
        for arg in runs[default]:
            extra.remove(arg)
        assert extra == ["--screen-threshold", "0"]
        parse = build_parser().parse_args
        assert vars(parse([*runs[pinned], "--out", "o"])) == vars(parse([*runs[default], "--out", "o"]))


def test_a_pinned_default_that_drifts_from_its_twin_is_listed_and_not_written(tmp_path, monkeypatch, capsys):
    """With stubbed inputs and invocations: a pinned invocation whose trace
    differs from its default twin's is listed in check mode, even against
    a manifest it matches, and under --write the manifest is left as it is."""
    compare_artefacts = load_compare_artefacts()
    drift = {"on": False}

    def write_inputs(checkout, work):
        for name in ("network.json", "pairs.tsv"):
            path = work / compare_artefacts.INPUTS / "n5" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(name)

    def run_invocation(checkout, args, out, work):
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text("summary")
        (out / "trace.csv").write_text("drifted" if drift["on"] and args == ["pinned"] else "rows")
        return None

    monkeypatch.setattr(compare_artefacts, "SIZES", (5,))
    monkeypatch.setattr(compare_artefacts, "SAME_AS_DEFAULT", {"pinned": "default"})
    monkeypatch.setattr(compare_artefacts, "invocations", lambda inputs: {
        "default": ["default"], "pinned": ["pinned"], "other": ["other"]})
    monkeypatch.setattr(compare_artefacts, "write_inputs", write_inputs)
    monkeypatch.setattr(compare_artefacts, "run_invocation", run_invocation)
    golden = tmp_path / "golden.sha256"

    def run(*flags):
        code = compare_artefacts.main(["--golden", str(golden), "--work", str(tmp_path / "work"), *flags])
        return code, capsys.readouterr().out.splitlines()

    assert run("--write") == (0, ["3 invocations, 0 difference(s)"])
    written = golden.read_text(encoding="utf-8")
    assert len(written.splitlines()) == 2 + 3 * 2
    assert run() == (0, ["3 invocations, 0 difference(s)"])

    drift["on"] = True
    drifted = "out/pinned/trace.csv differs from out/default/trace.csv"
    assert run() == (1, [drifted, "out/pinned/trace.csv differs", "3 invocations, 2 difference(s)"])
    assert run("--write") == (1, [drifted, "3 invocations, 1 difference(s)"])
    assert golden.read_text(encoding="utf-8") == written


def test_heap_layout_prints_three_shares_in_the_unit_interval(tmp_path):
    """On a small generated network, run as its own process, the script
    prints one JSON line: this Python's version and the int, float and
    tuple shares, each in [0, 1]."""
    from semgame.generate import generate_network
    from semgame.network import save_network

    path = tmp_path / "network.json"
    save_network(generate_network(300, 0.05, 0), path)
    done = subprocess.run([sys.executable, str(TOOLS / "heap_layout.py"), "--network", str(path)],
                          capture_output=True, text=True, check=True)
    (line,) = done.stdout.splitlines()
    shares = json.loads(line)
    assert shares.pop("python") == "{}.{}.{}".format(*sys.version_info[:3])
    assert sorted(shares) == ["floats", "ints", "tuples"]
    assert all(0.0 <= share <= 1.0 for share in shares.values()), shares
