"""CLI commands: artifacts, reproducibility, exit codes, generation."""

import csv
import gc
import importlib.util
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from semgame import cli
from semgame.cli import main
from semgame.errors import ValidationError
from semgame.evaluate import load_balance_experiment, relatedness
from semgame.game import GameParams, RoundRecord
from semgame.generate import complete_network, generate_network
from semgame.network import (
    ConceptNode,
    build_network,
    load_network,
    save_network,
)
from semgame.spreading import SpreadParams

from conftest import MALFORMED_NETWORK_FILES


def write_chain(tmp_path, weights=(1.0, 1.0)):
    nodes = [ConceptNode(id=i, label=f"n{i}") for i in range(len(weights) + 1)]
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    net = build_network(nodes, edges)
    path = tmp_path / "net.json"
    save_network(net, path)
    return net, path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


class TestSpreadCommand:
    def test_chain_example_delegation(self, tmp_path):
        """CLI spread reproduces the geometric chain profile."""
        _, net_path = write_chain(tmp_path)
        out = tmp_path / "out"
        code = main([
            "spread", "--network", str(net_path), "--source", "0=1",
            "--delta", "0.5", "--budget", "1", "--max-steps", "2",
            "--fire-threshold", "1e-9", "--out", str(out),
        ])
        assert code == 0
        summary = read_summary(out)
        assert summary["final_held"]["1"] == 0.5
        assert summary["final_held"]["2"] == 0.25

    def test_trace_csv_rows(self, tmp_path):
        _, net_path = write_chain(tmp_path)
        out = tmp_path / "out"
        main([
            "spread", "--network", str(net_path), "--source", "0=1",
            "--budget", "1", "--trace", "--out", str(out),
        ])
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "node", "held"]
        steps = {int(r[0]) for r in rows[1:]}
        assert 0 in steps  # seed state included

    def test_byte_identical_reruns(self, tmp_path):
        _, net_path = write_chain(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["spread", "--network", str(net_path), "--source", "0=1", "--budget", "1"]
        main(argv + ["--out", str(out_a)])
        main(argv + ["--out", str(out_b)])
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_input_file_never_mutated(self, tmp_path):
        _, net_path = write_chain(tmp_path)
        before = net_path.read_bytes()
        main(["spread", "--network", str(net_path), "--source", "0=1", "--out", str(tmp_path / "o")])
        assert net_path.read_bytes() == before

    def test_default_seeding_ignores_node_histories(self, tmp_path):
        """Without --source the lowest id holds the whole budget, whatever
        histories the file's nodes carry (the key is not read)."""
        path = tmp_path / "hist.json"
        path.write_text(json.dumps({
            "nodes": [{"id": 5, "label": "fresh", "history": [8.0, 9.0, 9.5]},
                      {"id": 2, "label": "stale", "history": [1.0]},
                      {"id": 9, "label": "none"}],
            "edges": [{"a": 5, "b": 2, "w": 0.5}, {"a": 2, "b": 9, "w": 0.25}],
        }))
        out = tmp_path / "out"
        code = main(["spread", "--network", str(path), "--budget", "10", "--max-steps", "1", "--out", str(out)])
        assert code == 0
        assert read_summary(out)["sources"] == {"2": 10.0}

    def test_sources_that_sum_to_the_budget_by_rounding(self, tmp_path):
        """The three energies sum to 1000000.0000000001 in floats; that is
        within the budget's relative rounding allowance, as in run_spread."""
        _, net_path = write_chain(tmp_path)
        out = tmp_path / "out"
        energies = ["238504.9", "658929.3", "102565.8"]
        sources = [arg for k, e in enumerate(energies) for arg in ("--source", f"n{k}={e}")]
        code = main(["spread", "--network", str(net_path), "--budget", "1e6", *sources, "--out", str(out)])
        assert code == 0
        assert read_summary(out)["sources"] == {str(k): float(e) for k, e in enumerate(energies)}

    def test_numeric_source_names_a_label_when_no_id_matches(self, tmp_path):
        """--source 7 names node 7 if there is one, else the node labelled "7"."""
        nodes = [ConceptNode(id=0, label="7"), ConceptNode(id=1, label="x")]
        path = tmp_path / "net.json"
        save_network(build_network(nodes, [(0, 1, 0.5)]), path)
        out = tmp_path / "out"
        assert main(["spread", "--network", str(path), "--source", "7", "--out", str(out)]) == 0
        assert read_summary(out)["sources"] == {"0": 100.0}
        with_id_7 = build_network([*nodes, ConceptNode(id=7, label="y")], [])
        assert cli._node_ref(with_id_7, "7") == 7


def write_generated(tmp_path, nodes=2000):
    """A `perfbench/gen.py` network of five edges per node (seed 0)."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write_inputs(tmp_path / "in", nodes, 5 * nodes, 0, "all", 0)[0]


def traced_peaks(*calls):
    """Each call's tracemalloc peak above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    peaks = []
    try:
        for call in calls:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            del result
    finally:
        if started:
            tracemalloc.stop()
    return peaks


def test_spread_keeps_one_step_in_memory(tmp_path):
    """Without --trace, `spread` holds only the step in hand: its traced
    peak stays within 1.3x the peak of loading the network it spreads on,
    instead of growing with one n-entry state per step."""
    net_path = write_generated(tmp_path)
    load_peak, spread_peak = traced_peaks(
        lambda: load_network(net_path),
        lambda: main(["spread", "--network", str(net_path), "--out", str(tmp_path / "out")]),
    )
    assert read_summary(tmp_path / "out")["steps"] == SpreadParams().max_steps
    assert spread_peak <= 1.3 * load_peak, (spread_peak, load_peak)


@pytest.mark.parametrize("command", [["spread"], ["game", "--budget", "1", "--epsilon", "1e-9"]])
def test_trace_rows_are_made_while_written(tmp_path, command):
    """--trace keeps what the run holds anyway (each spread step's state,
    each game round's record) and makes its rows only while trace.csv is
    written, so a traced run peaks within 1.2x the untraced one. Rows
    built as lists before writing took about 1.8x on this network."""
    net_path = write_generated(tmp_path, 1000)
    args = [*command, "--network", str(net_path)]
    plain, traced = traced_peaks(
        lambda: main([*args, "--out", str(tmp_path / "plain")]),
        lambda: main([*args, "--trace", "--out", str(tmp_path / "traced")]),
    )
    assert read_summary(tmp_path / "traced") == read_summary(tmp_path / "plain")
    assert (tmp_path / "traced" / "trace.csv").stat().st_size > 0
    assert traced <= 1.2 * plain, (traced, plain)


class TestGameCommand:
    def test_summary_and_trace(self, tmp_path):
        _, net_path = write_chain(tmp_path, weights=(0.8, 0.6, 0.9))
        out = tmp_path / "out"
        code = main([
            "game", "--network", str(net_path), "--source", "0",
            "--budget", "1", "--trace", "--out", str(out),
        ])
        assert code == 0
        summary = read_summary(out)
        assert summary["converged"] is True
        assert summary["rounds"] >= 1
        assert len(summary["ranking"]) == min(10, 4)
        held = summary["final_held"]
        assert sum(held.values()) == pytest.approx(1.0, rel=1e-9)
        with open(out / "trace.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["round", "node", "held", "strategy", "utility", "round_cost"]

    def test_trace_reads_strategies_once_per_record(self, tmp_path, monkeypatch):
        """Each read of `strategies` builds a dict, so the trace reads it
        once per record, not once per node, and the summary once more."""
        _, net_path = write_chain(tmp_path, weights=(0.8, 0.6, 0.9))
        reads = []
        derive = RoundRecord.strategies.fget
        monkeypatch.setattr(RoundRecord, "strategies", property(lambda rec: reads.append(rec) or derive(rec)))
        out = tmp_path / "out"
        assert main([
            "game", "--network", str(net_path), "--source", "0",
            "--budget", "1", "--trace", "--out", str(out),
        ]) == 0
        rounds = read_summary(out)["rounds"]
        assert rounds >= 2
        assert len(reads) <= rounds + 1


class TestRelatednessCommand:
    def test_matches_library_call(self, tmp_path):
        net, net_path = write_chain(tmp_path, weights=(0.9, 0.4))
        out = tmp_path / "out"
        code = main([
            "relatedness", "--network", str(net_path), "--pair", "n0,n2", "--out", str(out),
        ])
        assert code == 0
        sp = SpreadParams(budget=100.0)
        gp = GameParams(budget=100.0)
        expected = relatedness(net, 0, 2, sp, gp)
        assert read_summary(out)["score"] == expected

    def test_no_game_flag(self, tmp_path):
        net, net_path = write_chain(tmp_path, weights=(0.9, 0.4))
        out = tmp_path / "out"
        main([
            "relatedness", "--network", str(net_path), "--pair", "0,2",
            "--no-game", "--out", str(out),
        ])
        sp = SpreadParams(budget=100.0)
        assert read_summary(out)["score"] == relatedness(net, 0, 2, sp, None)

    def test_bad_pair_spec(self, tmp_path):
        _, net_path = write_chain(tmp_path)
        assert main(["relatedness", "--network", str(net_path), "--pair", "onlyone"]) == 2


class TestEvaluateCommand:
    @pytest.mark.parametrize("game", [True, False], ids=["game", "no-game"])
    def test_monotone_pairs_give_rho_one(self, tmp_path, game):
        nodes = [ConceptNode(id=i, label=f"n{i}") for i in range(4)]
        edges = [(0, 1, 0.2), (0, 2, 0.5), (0, 3, 0.9)]
        net = build_network(nodes, edges)
        net_path = tmp_path / "net.json"
        save_network(net, net_path)

        sp = SpreadParams(budget=100.0)
        gp = GameParams(budget=100.0) if game else None
        models = {i: relatedness(net, 0, i, sp, gp) for i in (1, 2, 3)}
        order = sorted(models, key=models.get)
        human = {nid: 0.1 + 0.4 * pos for pos, nid in enumerate(order)}
        pairs_path = tmp_path / "pairs.tsv"
        pairs_path.write_text("".join(f"n0\tn{i}\t{human[i]}\n" for i in (1, 2, 3)))

        out = tmp_path / "out"
        code = main([
            "evaluate", "--network", str(net_path), "--pairs", str(pairs_path),
            "--scale", "unit", *([] if game else ["--no-game"]), "--out", str(out),
        ])
        assert code == 0
        summary = read_summary(out)
        assert summary["rho"] == 1.0
        assert summary["n_pairs"] == 3
        with open(out / "pairs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label_a", "label_b", "human_score", "model_score"]
        assert len(rows) == 4

    def test_unknown_label_exits_2(self, tmp_path):
        _, net_path = write_chain(tmp_path)
        pairs_path = tmp_path / "pairs.tsv"
        pairs_path.write_text("n0\tzebra\t0.5\nn0\tn1\t0.7\n")
        assert main(["evaluate", "--network", str(net_path), "--pairs", str(pairs_path)]) == 2


class TestCobwebCommand:
    def test_summary_fields(self, tmp_path):
        out = tmp_path / "out"
        code = main(["cobweb", "--nodes", "3", "--budget", "100", "--trace", "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["converged"] is True
        assert set(summary["allocations"]) == {"0", "1", "2"}
        assert (out / "trace.csv").exists()

    def test_summary_records_every_setting_that_moves_the_run(self, tmp_path):
        """Two runs that differ only in --demand-slope record different
        settings, so a summary says which run it came from."""
        outputs = {"iters", "converged", "allocations", "final_values"}
        settings = []
        for slope in ("1", "2"):
            out = tmp_path / slope
            assert main(["cobweb", "--r", "0.2", "--demand-slope", slope, "--seed", "3", "--out", str(out)]) == 0
            summary = read_summary(out)
            settings.append({k: v for k, v in summary.items() if k not in outputs})
        assert settings[0] == {"command": "cobweb", "r": 0.2, "demand_slope": 1.0, "supply_slope": 1.0,
                               "demand": 20.0, "nodes": 6, "budget": 100.0, "max_rounds": 100, "seed": 3}
        assert settings[1] == {**settings[0], "demand_slope": 2.0}


class TestCompareCommand:
    def test_load_balance_csv(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "compare", "--experiment", "load-balance", "--seeds", "3",
            "--n", "10", "--edge-prob", "0.3", "--out", str(out),
        ])
        assert code == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["seed", "snm_stddev", "traditional_stddev"]
        assert len(rows) == 4
        summary = read_summary(out)
        assert 0.0 <= summary["win_fraction"] <= 1.0

    def test_utilization_and_cycles(self, tmp_path):
        common = {"command", "experiment", "seeds", "base_seed"}
        extra = {
            "utilization": {"mean_snm_util", "mean_cobweb_util"},
            "cycles": {"mean_snm_rounds", "mean_cobweb_iters"},
        }
        for experiment in ("utilization", "cycles"):
            out = tmp_path / experiment
            code = main([
                "compare", "--experiment", experiment, "--seeds", "2", "--seed", "3",
                "--out", str(out),
            ])
            assert code == 0
            assert set(read_summary(out)) == common | extra[experiment]
        # Both experiments share one run: their row tables match byte for byte.
        csvs = [(tmp_path / e / "compare.csv").read_bytes() for e in ("utilization", "cycles")]
        assert csvs[0] == csvs[1]

    def test_same_seed_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["compare", "--experiment", "load-balance", "--seeds", "2", "--n", "8",
                "--seed", "11"]
        main(argv + ["--out", str(out_a)])
        main(argv + ["--out", str(out_b)])
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()


    def test_explicit_default_sizes_byte_identical(self, tmp_path):
        """Passing --n and --edge-prob at their defaults changes nothing."""
        argv = ["compare", "--experiment", "load-balance", "--seeds", "2"]
        main(argv + ["--out", str(tmp_path / "a")])
        main(argv + ["--n", "30", "--edge-prob", "0.15", "--out", str(tmp_path / "b")])
        for name in ("summary.json", "compare.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("experiment", ["utilization", "cycles"])
    @pytest.mark.parametrize("flag, value", [("--n", "5"), ("--edge-prob", "0.9")])
    def test_size_flags_rejected_outside_load_balance(self, tmp_path, capsys, experiment, flag, value):
        """Only load-balance generates networks; the size flags are an error elsewhere."""
        out = tmp_path / "o"
        code = main(["compare", "--experiment", experiment, "--seeds", "1", flag, value,
                     "--out", str(out)])
        assert code == 2
        assert f"{flag} is read only by --experiment load-balance" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_missing_network_file(self, tmp_path):
        assert main(["spread", "--network", str(tmp_path / "nope.json")]) == 2

    def test_invalid_network_content(self, tmp_path):
        bad = tmp_path / "bad.json"
        for text in (
            '{"nodes": [{"id": 0, "label": "a"}], "edges": [{"a": 0, "b": 9, "w": 2}]}',
            '{"nodes": 5, "edges": []}',
            '{"nodes": null, "edges": []}',
            '{"nodes": [{"id": 0, "label": "a"}], "edges": 3}',
        ):
            bad.write_text(text)
            assert main(["spread", "--network", str(bad), "--out", str(tmp_path / "o")]) == 2, text

    @pytest.mark.parametrize("case", MALFORMED_NETWORK_FILES)
    def test_undecodable_network_file_exits_2(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        bad.write_bytes(MALFORMED_NETWORK_FILES[case][0])
        out = tmp_path / "o"
        assert main(["spread", "--network", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("semgame: error: ") and str(bad) in err
        assert not (out / "summary.json").exists()

    def test_runtime_error_exits_3(self, tmp_path):
        _, net_path = write_chain(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["spread", "--network", str(net_path), "--source", "0=1",
                     "--out", str(blocker / "sub")])
        assert code == 3

    def test_non_finite_source_exits_2(self, tmp_path):
        _, net_path = write_chain(tmp_path)
        code = main(["spread", "--network", str(net_path), "--source", "0=nan",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unparsable_source_energy_exits_2(self, tmp_path, capsys):
        _, net_path = write_chain(tmp_path)
        out = tmp_path / "o"
        assert main(["spread", "--network", str(net_path), "--source", "n1=abc", "--out", str(out)]) == 2
        assert "semgame: error: --source 'n1=abc': bad energy value" in capsys.readouterr().err
        assert not out.exists()

    # Nothing builds an empty network on purpose; unchecked, one reaches
    # the default source (the lowest id) and fails as a runtime error.
    @pytest.mark.parametrize("command", ["spread", "game"])
    def test_network_without_nodes_exits_2(self, tmp_path, capsys, command):
        net_path = tmp_path / "empty.json"
        net_path.write_text('{"nodes": [], "edges": []}')
        out = tmp_path / "o"
        assert main([command, "--network", str(net_path), "--out", str(out)]) == 2
        assert "semgame: error: network has no nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_edge_exits_2(self, tmp_path, capsys):
        """A pair given twice, here in reversed orientation, repeats a target
        in a node's adjacency row; the error names the later edge."""
        net_path = tmp_path / "dup.json"
        net_path.write_text(json.dumps({
            "nodes": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
            "edges": [{"a": 0, "b": 1, "w": 0.5}, {"a": 1, "b": 0, "w": 0.2}],
        }))
        out = tmp_path / "o"
        assert main(["spread", "--network", str(net_path), "--source", "a", "--out", str(out)]) == 2
        assert "semgame: error: edges[1]: duplicate edge for pair (0, 1)" in capsys.readouterr().err.splitlines()
        assert not out.exists()

    @pytest.mark.parametrize("first, second", [("0=30", "0=50"), ("0", "0=50"), ("0", "n0")])
    def test_node_named_twice_in_source_exits_2(self, tmp_path, capsys, first, second):
        _, net_path = write_chain(tmp_path)
        out = tmp_path / "o"
        code = main(["spread", "--network", str(net_path), "--source", first,
                     "--source", second, "--out", str(out)])
        assert code == 2
        assert "node 0 more than once" in capsys.readouterr().err
        assert not out.exists()

    # The first overruns the budget by 1e-13, which left the bare source
    # a negative share; the second overruns it plainly.
    @pytest.mark.parametrize("budget, sources", [
        ("0.001", ["0=0.0010000000001", "1"]),
        ("1", ["0=0.7", "1=0.4"]),
    ], ids=["by-1e-13", "by-0.1"])
    @pytest.mark.parametrize("command", ["spread", "game"])
    def test_sources_over_budget_exit_2(self, tmp_path, capsys, command, budget, sources):
        _, net_path = write_chain(tmp_path)
        out = tmp_path / "o"
        flags = [arg for spec in sources for arg in ("--source", spec)]
        assert main([command, "--network", str(net_path), "--budget", budget, *flags, "--out", str(out)]) == 2
        assert f"exceeds budget {float(budget)}" in capsys.readouterr().err
        assert not out.exists()

    def test_spread_overflow_exits_2(self, tmp_path):
        net_path = tmp_path / "complete.json"
        save_network(complete_network(30), net_path)
        code = main(["spread", "--network", str(net_path), "--max-steps", "300",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    # Each of these once exited 0 and wrote NaN, Infinity or empty
    # allocations into summary.json; the last overflowed to NaN values
    # that compared as quiet, so the run reported convergence.
    @pytest.mark.parametrize("args", [
        ["--r", "nan"],
        ["--demand", "inf"],
        ["--demand-slope", "nan"],
        ["--budget", "nan"],
        ["--nodes", "0"],
        ["--r", "0.9", "--demand-slope", "10", "--supply-slope", "10", "--max-rounds", "1000"],
    ], ids=lambda args: " ".join(args))
    def test_bad_cobweb_numbers_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert main(["cobweb", *args, "--out", str(out)]) == 2
        assert "semgame: error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["load-balance", "utilization"])
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_compare_without_seeds_exits_2(self, tmp_path, capsys, experiment, seeds):
        out = tmp_path / "o"
        code = main(["compare", "--experiment", experiment, "--seeds", seeds, "--out", str(out)])
        assert code == 2
        assert f"seeds {seeds} must be an int >= 1" in capsys.readouterr().err
        assert not out.exists()

    # The default fire threshold and epsilon are derived from --budget;
    # a bad budget is reported as the budget, not as either of them.
    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["spread", "game", "compare"])
    def test_bad_budget_exits_2_naming_the_budget(self, tmp_path, capsys, command, budget):
        _, net_path = write_chain(tmp_path)
        required = {
            "spread": ["--network", str(net_path)],
            "game": ["--network", str(net_path)],
            "compare": ["--experiment", "load-balance", "--seeds", "1"],
        }[command]
        out = tmp_path / "o"
        assert main([command, *required, "--budget", budget, "--out", str(out)]) == 2
        assert f"budget {float(budget)} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--experiment", "bogus"])
        assert exc.value.code == 2


@pytest.mark.parametrize("budget", [1.0, 100.0, 844.4, 1e6])
def test_default_params_are_the_library_defaults(budget):
    """Without --fire-threshold and --epsilon the CLI builds the params
    a library caller gets from the budget alone."""
    args = cli.build_parser().parse_args(["game", "--network", "net.json", "--budget", repr(budget)])
    assert cli._spread_params(args) == SpreadParams(delta=0.2, budget=budget)
    assert cli._game_params(args) == GameParams(delta=0.2, budget=budget)


# Flags a subcommand does not read are rejected, not silently ignored.
IGNORED_FLAGS = [
    ("spread", "--epsilon", "1"),
    ("spread", "--screen-threshold", "1"),
    ("spread", "--max-rounds", "5"),
    ("relatedness", "--trace", None),
    ("evaluate", "--trace", None),
    ("cobweb", "--delta", "0.5"),
    ("cobweb", "--epsilon", "1"),
    ("cobweb", "--screen-threshold", "1"),
    ("cobweb", "--fire-threshold", "1"),
    ("cobweb", "--max-steps", "5"),
    ("compare", "--epsilon", "1"),
    ("compare", "--screen-threshold", "1"),
    ("compare", "--fire-threshold", "1"),
    ("compare", "--max-steps", "5"),
    ("compare", "--max-rounds", "5"),
    ("compare", "--trace", None),
]


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS)
def test_unread_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    _, net_path = write_chain(tmp_path)
    required = {
        "spread": ["--network", str(net_path)],
        "relatedness": ["--network", str(net_path), "--pair", "n0,n1"],
        "evaluate": ["--network", str(net_path), "--pairs", str(tmp_path / "pairs.tsv")],
        "cobweb": [],
        "compare": ["--experiment", "load-balance", "--seeds", "1"],
    }[command]
    argv = [command, *required, flag, *([value] if value else []), "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestGenerateNetwork:
    def test_deterministic_per_seed(self):
        a = generate_network(30, 0.2, 7)
        b = generate_network(30, 0.2, 7)
        assert a.nodes == b.nodes
        assert a.edges == b.edges
        c = generate_network(30, 0.2, 8)
        assert c.edges != a.edges

    def test_two_nodes_full_probability(self):
        net = generate_network(2, 1.0, 123)
        assert len(net.edges) == 1

    def test_connected_by_traversal_oracle(self):
        """Reachability check: every node is reachable from node 0."""
        for seed in (7, 21, 99):
            net = generate_network(30, 0.2, seed)
            seen = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for y, _ in net.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            assert seen == set(net.node_ids())

    def test_weights_in_unit_interval(self):
        net = generate_network(20, 0.5, 3)
        assert all(0.0 < w <= 1.0 for _, _, w in net.edges)

    def test_parameter_validation(self):
        # A float size once raised a bare TypeError from range().
        for n in (1, 2.5, True, math.nan):
            message = f"^n {re.escape(repr(n))} must be an int >= 2$"
            with pytest.raises(ValidationError, match=message):
                generate_network(n, 0.5, 0)
            with pytest.raises(ValidationError, match=message):
                complete_network(n)
        with pytest.raises(ValidationError, match="^n 2.5 must be an int >= 2$"):
            load_balance_experiment(1, n=2.5)
        with pytest.raises(ValidationError):
            generate_network(5, 0.0, 0)
        # A bool probability or weight once ran as 1.0 or 0.0, and a network
        # built with weight True was saved as `"w": true`, which the load
        # then refused.
        for flag in (True, False):
            with pytest.raises(ValidationError, match=f"^edge_prob {flag} is not a number$"):
                generate_network(5, flag, 0)
            with pytest.raises(ValidationError, match=rf"^edge \(0, 1\): weight {flag} is not a number$"):
                complete_network(3, flag)


def test_golden_manifest_covers_every_invocation():
    """tests/golden/artefacts.sha256 pins both input sets and a summary for
    each of compare_artefacts' invocations, and nothing else: a renamed or
    added invocation needs the manifest regenerated."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("compare_artefacts", root / "tools" / "compare_artefacts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = (root / "tests" / "golden" / "artefacts.sha256").read_text().splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    assert names == sorted(names)
    invocations = tool.invocations(tool.INPUTS)
    assert {n.split("/")[1] for n in names if n.startswith("out/")} == set(invocations)
    assert {f"out/{name}/summary.json" for name in invocations} <= set(names)
    assert {n for n in names if not n.startswith("out/")} == {
        f"inputs/n{size}/{f}" for size in tool.SIZES for f in ("network.json", "pairs.tsv")
    }
