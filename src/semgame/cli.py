"""Command-line front end: run spreads, games, baselines, evaluations, and
comparison experiments from files; emit CSV/JSON artifacts.

Every run is reproducible: the same flags and seed produce byte-identical
artefacts on every supported Python version. Exit codes: 0 success, 2
validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .baselines import CobwebParams, run_cobweb
from .errors import ValidationError
from .evaluate import (
    evaluate_pairs,
    load_balance_experiment,
    relatedness,
    run_pipeline,
    utilization_experiment,
)
from .game import GameParams, rank_nodes
from .network import SemanticNetwork, load_network, load_pairs
from .spreading import SpreadParams, _left_sum, iter_spread

__all__ = ["main"]


def _spread_params(args) -> SpreadParams:
    return SpreadParams(
        delta=args.delta, fire_threshold=args.fire_threshold, max_steps=args.max_steps, budget=args.budget
    )


def _game_params(args) -> GameParams:
    return GameParams(
        epsilon=args.epsilon,
        max_rounds=args.max_rounds,
        screen_threshold=args.screen_threshold,
        delta=args.delta,
        budget=args.budget,
    )


def _node_ref(net: SemanticNetwork, ref: str) -> int:
    """Resolve a node reference that may be an id or a label."""
    try:
        nid = int(ref)
    except ValueError:
        return net.id_by_label(ref)
    if net.has_node(nid):
        return nid
    return net.id_by_label(ref)


def _resolve_sources(net: SemanticNetwork, specs: list[str] | None, budget: float) -> dict[int, float]:
    """Source energies from --source specs, or the whole budget on the lowest id.

    Specs look like "NODE" or "NODE=ENERGY" (NODE is an id or label,
    and each node may be named once); bare specs split whatever budget
    the explicit ones leave.
    """
    if specs:
        explicit: dict[int, float] = {}
        bare: list[int] = []
        for spec in specs:
            name, eq, energy = spec.partition("=")
            nid = _node_ref(net, name.strip())
            if nid in explicit or nid in bare:
                raise ValidationError(f"--source names node {nid} more than once")
            if eq:
                try:
                    explicit[nid] = float(energy)
                except ValueError:
                    raise ValidationError(f"--source {spec!r}: bad energy value") from None
            else:
                bare.append(nid)
        # The spread reports explicit energies that overrun the budget.
        remaining = max(0.0, budget - _left_sum(explicit.values()))
        for nid in bare:
            explicit[nid] = explicit.get(nid, 0.0) + remaining / len(bare)
        return explicit
    return {net.node_ids()[0]: budget}


def _write_summary(out_dir: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (out_dir / "summary.json").write_text(text, encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _held_json(state) -> dict[str, float]:
    return {str(nid): v for nid, v in state.held.items()}


def _cmd_spread(args) -> tuple[dict, dict]:
    net = load_network(args.network)
    sp = _spread_params(args)
    sources = _resolve_sources(net, args.source, args.budget)
    # Only the step in hand is kept; a trace keeps each step's state.
    states = []
    for final in iter_spread(net, sources, sp):
        if args.trace:
            states.append(final)
    rows = ([s.t, nid, v] for s in states for nid, v in s.held.items())
    tables = {"trace.csv": (["step", "node", "held"], rows)} if args.trace else {}
    summary = {
        "network": str(args.network),
        "sources": {str(k): v for k, v in sorted(sources.items())},
        "delta": sp.delta,
        "budget": sp.budget,
        "steps": final.t,
        "final_held": _held_json(final),
    }
    return summary, tables


def _game_rows(history) -> Iterator[list]:
    """Each round's trace rows, made only as they are written."""
    for index, rec in enumerate(history, 1):
        # Read once per record: each read builds the dict anew. The
        # utilities are copied through items(), which zips the view's
        # tuples, so no node's lookup bisects the view's ids.
        strategies, utilities = rec.strategies, dict(rec.utilities.items())
        for nid, v in rec.state.held.items():
            yield [index, nid, v, strategies[nid].value if nid in strategies else "",
                   utilities.get(nid, ""), rec.cost]


def _cmd_game(args) -> tuple[dict, dict]:
    net = load_network(args.network)
    sp = _spread_params(args)
    gp = _game_params(args)
    sources = _resolve_sources(net, args.source, args.budget)
    outcome = run_pipeline(net, sources, sp, gp)
    tables = {}
    if args.trace:
        header = ["round", "node", "held", "strategy", "utility", "round_cost"]
        tables["trace.csv"] = (header, _game_rows(outcome.history))
    summary = {
        "network": str(args.network),
        "sources": {str(k): v for k, v in sorted(sources.items())},
        "converged": outcome.converged,
        "rounds": outcome.rounds,
        "round_costs": [rec.cost for rec in outcome.history],
        "ranking": [[nid, energy] for nid, energy in rank_nodes(outcome.final, 10)],
        "final_held": _held_json(outcome.final),
        "strategies": {str(nid): strat.value for nid, strat in sorted(outcome.history[-1].strategies.items())},
    }
    return summary, tables


def _cmd_relatedness(args) -> tuple[dict, dict]:
    net = load_network(args.network)
    sp = _spread_params(args)
    gp = None if args.no_game else _game_params(args)
    try:
        ref_a, ref_b = (part.strip() for part in args.pair.split(","))
    except ValueError:
        raise ValidationError(f"--pair {args.pair!r}: expected two comma-separated nodes") from None
    a = _node_ref(net, ref_a)
    b = _node_ref(net, ref_b)
    summary = {
        "network": str(args.network),
        "pair": [ref_a, ref_b],
        "no_game": bool(args.no_game),
        "score": relatedness(net, a, b, sp, gp),
    }
    return summary, {}


def _cmd_evaluate(args) -> tuple[dict, dict]:
    net = load_network(args.network)
    pairs = load_pairs(args.pairs, scale=args.scale)
    sp = _spread_params(args)
    gp = None if args.no_game else _game_params(args)
    report = evaluate_pairs(net, pairs, sp, gp)
    summary = {
        "network": str(args.network),
        "pairs_file": str(args.pairs),
        "scale": args.scale,
        "no_game": bool(args.no_game),
        "rho": report.rho,
        "n_pairs": len(report.pairs),
        "tie_warning": report.tie_warning,
    }
    header = ["label_a", "label_b", "human_score", "model_score"]
    return summary, {"pairs.csv": (header, [list(row) for row in report.pairs])}


def _cmd_cobweb(args) -> tuple[dict, dict]:
    params = CobwebParams(r=args.r, demand_slope=args.demand_slope, supply_slope=args.supply_slope,
                          max_iters=args.max_rounds)
    rng = random.Random(args.seed)
    nodes = [(args.demand * (0.5 + rng.random()), args.demand) for _ in range(args.nodes)]
    run = run_cobweb(nodes, params, args.budget)
    tables = {}
    if args.trace:
        rows = [[t.iteration, t.node, t.o, t.excess_demand, t.allocated] for t in run.trace]
        tables["trace.csv"] = (["iter", "node", "o", "excess_demand", "allocated"], rows)
    # Every flag that moves the run, so a summary names the run it came from.
    settings = ("r", "demand_slope", "supply_slope", "demand", "nodes", "budget", "max_rounds", "seed")
    summary = {
        **{name: getattr(args, name) for name in settings},
        "iters": run.iters,
        "converged": run.converged,
        "allocations": {str(k): v for k, v in sorted(run.allocations.items())},
        "final_values": {str(k): v for k, v in sorted(run.final_values.items())},
    }
    return summary, tables


def _cmd_compare(args) -> tuple[dict, dict]:
    # Only load-balance generates networks; its signature holds the size defaults.
    sizes = {k: v for k, v in (("n", args.n), ("edge_prob", args.edge_prob)) if v is not None}
    if args.experiment == "load-balance":
        rows = load_balance_experiment(
            args.seeds, budget=args.budget, delta=args.delta, base_seed=args.seed, **sizes
        )
        wins = sum(1 for r in rows if r["snm_stddev"] < r["traditional_stddev"])
        extra = {"snm_wins": wins, "win_fraction": wins / len(rows)}
    elif sizes:
        flag = "--" + next(iter(sizes)).replace("_", "-")
        raise ValidationError(f"{flag} is read only by --experiment load-balance")
    else:  # utilization and cycles read different columns of the same rows
        rows = utilization_experiment(
            args.seeds, budget=args.budget, delta=args.delta, base_seed=args.seed
        )
        if args.experiment == "utilization":
            extra = {
                "mean_snm_util": _left_sum(r["snm_util"] for r in rows) / len(rows),
                "mean_cobweb_util": _left_sum(r["cobweb_mean_util"] for r in rows) / len(rows),
            }
        else:
            iters_cols = [k for k in rows[0] if k.startswith("cobweb_iters_")]
            extra = {
                "mean_snm_rounds": _left_sum(r["snm_rounds"] for r in rows) / len(rows),
                "mean_cobweb_iters": _left_sum(r[c] for r in rows for c in iters_cols)
                / (len(rows) * len(iters_cols)),
            }

    header = list(rows[0])
    summary = {"experiment": args.experiment, "seeds": args.seeds, "base_seed": args.seed, **extra}
    return summary, {"compare.csv": (header, [[r[k] for k in header] for r in rows])}


# Every flag once; each subcommand below lists the ones it reads.
_FLAGS = {
    "--budget": dict(type=float, default=100.0, help="total activation energy"),
    "--seed": dict(type=int, default=0, help="base seed for generated inputs"),
    "--out": dict(default=".", help="output directory"),
    "--delta": dict(type=float, default=0.2, help="attenuation factor in [0, 1]"),
    "--fire-threshold": dict(type=float, default=None, help="minimum held energy to fire (default 1e-6*budget)"),
    "--max-steps": dict(type=int, default=20, help="spreading step limit"),
    "--epsilon": dict(type=float, default=None, help="convergence threshold (default 1e-3*budget)"),
    "--screen-threshold": dict(type=float, default=0.0,
                               help="held energy a node needs to take part in a game round (default 0: every node)"),
    "--max-rounds": dict(type=int, default=100, help="game round limit (cobweb: iteration limit)"),
    "--trace": dict(action="store_true", help="write trace.csv"),
    "--network": dict(required=True, help="network JSON file"),
    "--source": dict(action="append",
                     help="source NODE or NODE=ENERGY (repeatable); default: the whole budget on the lowest id"),
    "--pair": dict(required=True, help="two nodes, comma separated (ids or labels)"),
    "--no-game": dict(action="store_true", help="score from spreading alone"),
    "--pairs": dict(required=True, help="TSV file of scored pairs"),
    "--scale": dict(choices=["unit", "five-point"], default="unit", help="score scale in the pairs file"),
    "--nodes": dict(type=int, default=6, help="number of nodes"),
    "--demand": dict(type=float, default=20.0, help="per-node demand target"),
    "--r": dict(type=float, default=0.5, help="adjustment rate"),
    "--demand-slope": dict(type=float, default=1.0),
    "--supply-slope": dict(type=float, default=1.0),
    "--experiment": dict(choices=["load-balance", "utilization", "cycles"], required=True),
    "--seeds": dict(type=int, default=20, help="number of seeded repetitions"),
    "--n": dict(type=int, default=None, help="generated network size (load-balance only, default 30)"),
    "--edge-prob": dict(type=float, default=None, help="extra-edge probability (load-balance only, default 0.15)"),
}
_SPREADING = ("--delta", "--fire-threshold", "--max-steps")
_GAME = ("--epsilon", "--screen-threshold", "--max-rounds")

# name: (handler, help, flags it reads beyond --budget, --seed and --out).
# A handler returns (summary, {file name: (header, rows)}); main writes both.
_COMMANDS = {
    "spread": (
        _cmd_spread,
        "run spreading activation",
        (*_SPREADING, "--trace", "--network", "--source"),
    ),
    "game": (
        _cmd_game,
        "spread then play the attention game",
        (*_SPREADING, *_GAME, "--trace", "--network", "--source"),
    ),
    "relatedness": (
        _cmd_relatedness,
        "score one concept pair",
        (*_SPREADING, *_GAME, "--network", "--pair", "--no-game"),
    ),
    "evaluate": (
        _cmd_evaluate,
        "correlate model scores with human judgments",
        (*_SPREADING, *_GAME, "--network", "--pairs", "--scale", "--no-game"),
    ),
    "cobweb": (
        _cmd_cobweb,
        "run the cobweb baseline",
        ("--max-rounds", "--trace", "--nodes", "--demand", "--r", "--demand-slope", "--supply-slope"),
    ),
    "compare": (
        _cmd_compare,
        "run a comparison experiment",
        ("--delta", "--experiment", "--seeds", "--n", "--edge-prob"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgame",
        description="Spreading activation and attention-game allocation over semantic networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("--budget", "--seed", "--out", *flags):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary, tables = args.func(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            _write_csv(out_dir / name, header, rows)
        _write_summary(out_dir, {"command": args.command, **summary})
        return 0
    except ValidationError as exc:
        print(f"semgame: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"semgame: runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
