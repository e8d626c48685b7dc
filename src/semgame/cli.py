"""Command-line front end: run spreads, games, baselines, evaluations, and
comparison experiments from files; emit CSV/JSON artifacts.

Every run is reproducible: the same flags and seed produce byte-identical
summary output. Exit codes: 0 success, 2 validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

from .baselines import CobwebParams, run_cobweb
from .errors import ValidationError
from .evaluate import (
    EvalReport,
    evaluate_pairs,
    load_balance_experiment,
    relatedness,
    run_pipeline,
    utilization_experiment,
)
from .game import GameParams, Strategy, rank_nodes, rescale_to_budget, run_game
from .generate import generate_network
from .network import SemanticNetwork, load_network, load_pairs
from .spreading import SpreadParams, initial_activation, iter_spread

__all__ = ["main", "generate_network"]


def _spread_params(args) -> SpreadParams:
    fire = args.fire_threshold if args.fire_threshold is not None else 1e-6 * args.budget
    return SpreadParams(
        delta=args.delta, fire_threshold=fire, max_steps=args.max_steps, budget=args.budget
    )


def _game_params(args) -> GameParams:
    eps = args.epsilon if args.epsilon is not None else 1e-3 * args.budget
    return GameParams(
        epsilon=eps,
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
    """Source energies from --source specs, node histories, or the lowest id.

    Specs look like "NODE" or "NODE=ENERGY" (NODE is an id or label);
    bare specs split whatever budget the explicit ones leave. Without
    specs, nodes with activation histories are seeded from them and
    scaled to the budget; a history-free network seeds its lowest id.
    """
    if specs:
        explicit: dict[int, float] = {}
        bare: list[int] = []
        for spec in specs:
            name, eq, energy = spec.partition("=")
            nid = _node_ref(net, name.strip())
            if eq:
                try:
                    explicit[nid] = float(energy)
                except ValueError:
                    raise ValidationError(f"--source {spec!r}: bad energy value") from None
            else:
                bare.append(nid)
        remaining = budget - sum(explicit.values())
        if remaining < -1e-12:
            raise ValidationError(f"--source energies exceed budget {budget}")
        for nid in bare:
            explicit[nid] = explicit.get(nid, 0.0) + remaining / len(bare)
        return explicit

    stamps = [t for nd in net.nodes for t in nd.history]
    if stamps:
        now = max(stamps) + 1.0
        acts = {nd.id: initial_activation(nd.history, now) for nd in net.nodes}
        total = sum(acts.values())
        if total > 0:
            return {nid: v * budget / total for nid, v in sorted(acts.items()) if v > 0}
    lowest = min(net.node_ids())
    return {lowest: budget}


def _write_summary(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (out_dir / "summary.json").write_text(text, encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _held_json(state) -> dict[str, float]:
    return {str(nid): state.held[nid] for nid in sorted(state.held)}


def _cmd_spread(args, out_dir: Path) -> int:
    net = load_network(args.network)
    sp = _spread_params(args)
    sources = _resolve_sources(net, args.source, args.budget)
    states = list(iter_spread(net, sources, sp))
    final = states[-1]
    if args.trace:
        rows = [[st.t, nid, st.held[nid]] for st in states for nid in sorted(st.held)]
        _write_csv(out_dir / "trace.csv", ["step", "node", "held"], rows)
    _write_summary(
        out_dir,
        {
            "command": "spread",
            "network": str(args.network),
            "sources": {str(k): v for k, v in sorted(sources.items())},
            "delta": sp.delta,
            "budget": sp.budget,
            "steps": final.t,
            "final_held": _held_json(final),
        },
    )
    return 0


def _cmd_game(args, out_dir: Path) -> int:
    net = load_network(args.network)
    sp = _spread_params(args)
    gp = _game_params(args)
    sources = _resolve_sources(net, args.source, args.budget)
    outcome = run_pipeline(net, sources, sp, gp)
    if args.trace:
        rows = []
        for rec in outcome.history:
            for nid in sorted(rec.state.held):
                strat = rec.strategies.get(nid)
                rows.append(
                    [
                        rec.index,
                        nid,
                        rec.state.held[nid],
                        strat.value if strat else "",
                        rec.utilities.get(nid, ""),
                        rec.cost,
                    ]
                )
        _write_csv(
            out_dir / "trace.csv",
            ["round", "node", "held", "strategy", "utility", "round_cost"],
            rows,
        )
    _write_summary(
        out_dir,
        {
            "command": "game",
            "network": str(args.network),
            "sources": {str(k): v for k, v in sorted(sources.items())},
            "converged": outcome.converged,
            "rounds": outcome.rounds,
            "round_costs": list(outcome.round_costs),
            "ranking": [[nid, energy] for nid, energy in rank_nodes(outcome.final, 10)],
            "final_held": _held_json(outcome.final),
            "strategies": {
                str(nid): strat.value for nid, strat in sorted(outcome.strategies.items())
            },
        },
    )
    return 0


def _cmd_relatedness(args, out_dir: Path) -> int:
    net = load_network(args.network)
    sp = _spread_params(args)
    gp = None if args.no_game else _game_params(args)
    try:
        ref_a, ref_b = (part.strip() for part in args.pair.split(","))
    except ValueError:
        raise ValidationError(f"--pair {args.pair!r}: expected two comma-separated nodes") from None
    a = _node_ref(net, ref_a)
    b = _node_ref(net, ref_b)
    score = relatedness(net, a, b, sp, gp)
    _write_summary(
        out_dir,
        {
            "command": "relatedness",
            "network": str(args.network),
            "pair": [ref_a, ref_b],
            "no_game": bool(args.no_game),
            "score": score,
        },
    )
    return 0


def _cmd_evaluate(args, out_dir: Path) -> int:
    net = load_network(args.network)
    pairs = load_pairs(args.pairs, scale=args.scale)
    sp = _spread_params(args)
    gp = None if args.no_game else _game_params(args)
    report: EvalReport = evaluate_pairs(net, pairs, sp, gp)
    _write_csv(
        out_dir / "pairs.csv",
        ["label_a", "label_b", "human_score", "model_score"],
        [list(row) for row in report.pairs],
    )
    _write_summary(
        out_dir,
        {
            "command": "evaluate",
            "network": str(args.network),
            "pairs_file": str(args.pairs),
            "scale": args.scale,
            "no_game": bool(args.no_game),
            "rho": report.rho,
            "n_pairs": report.n_pairs,
            "tie_warning": report.tie_warning,
        },
    )
    return 0


def _cmd_cobweb(args, out_dir: Path) -> int:
    params = CobwebParams(
        r=args.r,
        demand_intercept=2 * args.demand,
        demand_slope=args.demand_slope,
        supply_intercept=0.0,
        supply_slope=args.supply_slope,
        max_iters=args.max_rounds,
        tol=1e-6,
    )
    rng = random.Random(args.seed)
    nodes = [(args.demand * (0.5 + rng.random()), args.demand) for _ in range(args.nodes)]
    run = run_cobweb(nodes, params, args.budget)
    if args.trace:
        rows = [[t.iteration, t.node, t.o, t.excess_demand, t.allocated] for t in run.trace]
        _write_csv(
            out_dir / "trace.csv", ["iter", "node", "o", "excess_demand", "allocated"], rows
        )
    _write_summary(
        out_dir,
        {
            "command": "cobweb",
            "r": args.r,
            "demand": args.demand,
            "nodes": args.nodes,
            "budget": args.budget,
            "iters": run.iters,
            "converged": run.converged,
            "allocations": {str(k): v for k, v in sorted(run.allocations.items())},
            "final_values": {str(k): v for k, v in sorted(run.final_values.items())},
        },
    )
    return 0


def _cmd_compare(args, out_dir: Path) -> int:
    if args.experiment == "load-balance":
        rows = load_balance_experiment(
            args.seeds, n=args.n, edge_prob=args.edge_prob, budget=args.budget,
            delta=args.delta, base_seed=args.seed,
        )
        wins = sum(1 for r in rows if r["snm_stddev"] < r["traditional_stddev"])
        summary_extra = {"snm_wins": wins, "win_fraction": wins / len(rows)}
    else:  # utilization and cycles read different columns of the same rows
        rows = utilization_experiment(
            args.seeds, budget=args.budget, delta=args.delta, base_seed=args.seed
        )
        if args.experiment == "utilization":
            summary_extra = {
                "mean_snm_util": sum(r["snm_util"] for r in rows) / len(rows),
                "mean_cobweb_util": sum(r["cobweb_mean_util"] for r in rows) / len(rows),
            }
        else:
            iters_cols = [k for k in rows[0] if k.startswith("cobweb_iters_")]
            summary_extra = {
                "mean_snm_rounds": sum(r["snm_rounds"] for r in rows) / len(rows),
                "mean_cobweb_iters": sum(r[c] for r in rows for c in iters_cols)
                / (len(rows) * len(iters_cols)),
            }

    header = list(rows[0])
    _write_csv(out_dir / "compare.csv", header, [[r[k] for k in header] for r in rows])
    _write_summary(
        out_dir,
        {
            "command": "compare",
            "experiment": args.experiment,
            "seeds": args.seeds,
            "base_seed": args.seed,
            **summary_extra,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgame",
        description="Spreading activation and attention-game allocation over semantic networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--delta", type=float, default=0.2, help="attenuation factor in [0, 1]")
    common.add_argument("--budget", type=float, default=100.0, help="total activation energy")
    common.add_argument("--epsilon", type=float, default=None, help="convergence threshold (default budget/1000)")
    common.add_argument("--screen-threshold", type=float, default=None, help="global screening threshold (overrides per-node)")
    common.add_argument("--fire-threshold", type=float, default=None, help="minimum held energy to fire (default budget*1e-6)")
    common.add_argument("--max-steps", type=int, default=20, help="spreading step limit")
    common.add_argument("--max-rounds", type=int, default=100, help="game round limit")
    common.add_argument("--seed", type=int, default=0, help="base seed for generated inputs")
    common.add_argument("--trace", action="store_true", help="write trace.csv")
    common.add_argument("--out", default=".", help="output directory")

    net_arg = argparse.ArgumentParser(add_help=False)
    net_arg.add_argument("--network", required=True, help="network JSON file")
    src_arg = argparse.ArgumentParser(add_help=False)
    src_arg.add_argument(
        "--source",
        action="append",
        help="source NODE or NODE=ENERGY (repeatable); default: node histories",
    )

    p = sub.add_parser("spread", parents=[common, net_arg, src_arg], help="run spreading activation")
    p.set_defaults(func=_cmd_spread)

    p = sub.add_parser("game", parents=[common, net_arg, src_arg], help="spread then play the attention game")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("relatedness", parents=[common, net_arg], help="score one concept pair")
    p.add_argument("--pair", required=True, help="two nodes, comma separated (ids or labels)")
    p.add_argument("--no-game", action="store_true", help="score from spreading alone")
    p.set_defaults(func=_cmd_relatedness)

    p = sub.add_parser("evaluate", parents=[common, net_arg], help="correlate model scores with human judgments")
    p.add_argument("--pairs", required=True, help="TSV file of scored pairs")
    p.add_argument("--scale", choices=["unit", "five-point"], default="unit", help="score scale in the pairs file")
    p.add_argument("--no-game", action="store_true", help="score from spreading alone")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("cobweb", parents=[common], help="run the cobweb baseline")
    p.add_argument("--nodes", type=int, default=6, help="number of nodes")
    p.add_argument("--demand", type=float, default=20.0, help="per-node demand target")
    p.add_argument("--r", type=float, default=0.5, help="adjustment rate")
    p.add_argument("--demand-slope", type=float, default=1.0)
    p.add_argument("--supply-slope", type=float, default=1.0)
    p.set_defaults(func=_cmd_cobweb)

    p = sub.add_parser("compare", parents=[common], help="run a comparison experiment")
    p.add_argument("--experiment", choices=["load-balance", "utilization", "cycles"], required=True)
    p.add_argument("--seeds", type=int, default=20, help="number of seeded repetitions")
    p.add_argument("--n", type=int, default=30, help="generated network size")
    p.add_argument("--edge-prob", type=float, default=0.15, help="extra-edge probability")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        return args.func(args, out_dir)
    except ValidationError as exc:
        print(f"semgame: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"semgame: runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
