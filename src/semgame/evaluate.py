"""Metrics and experiment harness.

Spearman rank correlation scores model-vs-human relatedness judgments;
relatedness itself is read off the full spread-then-game pipeline. The
experiment runners measure load balance, budget utilization, and
cycles-to-equilibrium for the game model against the baselines.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass

from .baselines import CobwebParams, run_cobweb, run_traditional
from .errors import ValidationError, _check_budget, _check_limit, _check_real
from .game import GameOutcome, GameParams, rescale_to_budget, run_game
from .generate import complete_network, generate_network
from .network import PairJudgment, SemanticNetwork
from .spreading import ActivationState, SpreadParams, _left_sum, run_spread

__all__ = [
    "EvalReport",
    "spearman",
    "run_pipeline",
    "relatedness",
    "evaluate_pairs",
    "load_balance",
    "utilization",
    "load_balance_experiment",
    "utilization_experiment",
]


@dataclass(frozen=True)
class EvalReport:
    """Relatedness evaluation result: rho plus the per-pair score table."""

    rho: float
    pairs: tuple[tuple[str, str, float, float], ...]
    tie_warning: bool

    def __post_init__(self) -> None:
        _check_real("rho", self.rho, -1, 1)
        if len(self.pairs) < 2:
            raise ValidationError("report needs at least 2 pairs")


def _average_ranks(values: list[float]) -> list[float]:
    """1-based ranks; tied values share the average of their positions."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _has_ties(values: list[float]) -> bool:
    return len(set(values)) < len(values)


def _pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = _left_sum(xs) / n
    my = _left_sum(ys) / n
    cov = _left_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = _left_sum((x - mx) ** 2 for x in xs)
    vy = _left_sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        raise ValidationError("zero rank variance: correlation undefined")
    return cov / math.sqrt(vx * vy)


def spearman(xs: list[float], ys: list[float]) -> float:
    """Rank correlation of two equally long samples: the Pearson
    correlation of their average-rank vectors (tied values share the
    mean of their positions).

    Ranks are multiples of 0.5, so the sums are exact: monotone
    agreement gives +1.0 and reversal -1.0. A NaN in either sample
    raises; ±inf ranks like any other value.
    """
    if len(xs) != len(ys):
        raise ValidationError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValidationError("need at least 2 observations")
    if any(map(math.isnan, xs)) or any(map(math.isnan, ys)):
        raise ValidationError("spearman: a NaN sample value has no rank")
    rho = _pearson(_average_ranks(xs), _average_ranks(ys))
    return min(1.0, max(-1.0, rho))


def run_pipeline(
    net: SemanticNetwork,
    sources: Mapping[int, float],
    sp: SpreadParams,
    gp: GameParams,
    *,
    _spread: ActivationState | None = None,
) -> GameOutcome:
    """Spread from the sources, rescale to the game budget, then play the game.

    `_spread`, when given, must be the caller's own
    `run_spread(net, sources, sp)` result; the pipeline starts from it
    instead of spreading again. It exists so that
    load_balance_experiment, which reports the spread on its own as a
    baseline, spreads once per seed.
    """
    spread_final = run_spread(net, sources, sp) if _spread is None else _spread
    return run_game(net, rescale_to_budget(spread_final, gp.budget), gp)


def relatedness(
    net: SemanticNetwork,
    a: int,
    b: int,
    sp: SpreadParams,
    gp: GameParams | None,
    *,
    _finals: dict[int, Mapping[int, float]] | None = None,
) -> float:
    """Model relatedness of two concepts, in [0, 1].

    Seeds one concept with the whole budget, runs the pipeline, and
    reads the other concept's final energy relative to the maximum;
    the two directions are averaged, so the score is symmetric. Pass
    gp=None to score from spreading alone (no game phase).

    A direction depends only on its source, so each source's final
    `held` mapping is kept in `_finals` (source id -> held) and reused
    when that source comes up again. The dict must only ever be shared
    between calls with the same network and parameters; evaluate_pairs
    creates one per call.
    """
    for nid in (a, b):
        if not net.has_node(nid):
            raise ValidationError(f"unknown node id {nid}")
    if not any(e.weight > 0.0 for e in net.edges):
        raise ValidationError("relatedness undefined on an edgeless network")
    finals = {} if _finals is None else _finals

    def one_direction(src: int, dst: int) -> float:
        held = finals.get(src)
        if held is None:
            sources = {src: sp.budget}
            if gp is None:
                final = run_spread(net, sources, sp)
            else:
                final = run_pipeline(net, sources, sp, gp).final
            held = finals[src] = final.held
        return held[dst] / max(held.values())

    return (one_direction(a, b) + one_direction(b, a)) / 2.0


def evaluate_pairs(
    net: SemanticNetwork,
    pairs: list[PairJudgment],
    sp: SpreadParams,
    gp: GameParams | None,
) -> EvalReport:
    """Score every pair with the model and rank-correlate against humans.

    The pipeline runs once per distinct concept: a concept's final
    state is kept from its first pair to its last and then dropped.
    """
    if len(pairs) < 2:
        raise ValidationError("need at least 2 pairs to correlate")
    labels = dict.fromkeys(label for p in pairs for label in (p.label_a, p.label_b))
    ids = {label: net.id_by_label(label) for label in labels}
    last_use = {ids[label]: i for i, p in enumerate(pairs) for label in (p.label_a, p.label_b)}
    finals: dict[int, Mapping[int, float]] = {}
    table = []
    for i, p in enumerate(pairs):
        ia, ib = ids[p.label_a], ids[p.label_b]
        model = relatedness(net, ia, ib, sp, gp, _finals=finals)
        for nid in (ia, ib):
            if last_use[nid] == i:
                finals.pop(nid, None)
        table.append((p.label_a, p.label_b, p.human_score, model))
    humans = [row[2] for row in table]
    models = [row[3] for row in table]
    rho = spearman(humans, models)
    return EvalReport(
        rho=rho,
        pairs=tuple(table),
        tie_warning=_has_ties(humans) or _has_ties(models),
    )


def load_balance(state: ActivationState) -> float:
    """Population standard deviation of held energies (0 iff uniform);
    a non-finite result raises."""
    values = [v for _, v in sorted(state.held.items())]
    if len(values) < 2:
        raise ValidationError("load balance needs at least 2 nodes")
    mean = _left_sum(values) / len(values)
    try:
        result = math.sqrt(_left_sum((v - mean) ** 2 for v in values) / len(values))
    except OverflowError:  # a square beyond the float range
        result = math.inf
    if not math.isfinite(result):
        raise ValidationError(f"load balance {result} is not finite (mean held energy {mean})")
    return result


def utilization(
    allocations: Mapping[int, float], demands: Mapping[int, float], budget: float
) -> float:
    """Fraction of the budget that lands within demand: sum(min(a_i, d_i)) / budget.
    A non-number (a bool too), NaN, negative or infinite allocation or demand raises."""
    _check_budget(budget)
    if set(allocations) != set(demands):
        raise ValidationError("allocations and demands keyed over different nodes")
    for name, given in (("utilization: allocation", allocations), ("utilization: demand", demands)):
        for v in given.values():
            _check_real(name, v, 0, math.inf)
    useful = _left_sum(min(allocations[k], demands[k]) for k in sorted(allocations))
    return min(1.0, useful / budget)


# Adjustment-rate / slope grid for the cobweb comparison experiments;
# combos with r * 2s >= 1 oscillate without settling.
_COBWEB_GRID: tuple[tuple[float, float], ...] = tuple(
    (r, s) for r in (0.2, 0.5, 0.9) for s in (0.5, 1.0, 2.0)
)

# Shortfall below demand that still counts as met in utilization_experiment.
_MET_TOL = 1e-6


def _all_met(allocations: dict[int, float], demand: float) -> bool:
    """Every allocation reaches the demand within _MET_TOL."""
    return all(v >= demand - _MET_TOL for v in allocations.values())


def _utilization_initial(seed: int, n_nodes: int, budget: float) -> dict[int, float]:
    """One seed's initial values in utilization_experiment: n_nodes
    positive draws scaled so they sum to the budget."""
    rng = random.Random(seed)
    raw = [rng.random() + 1e-9 for _ in range(n_nodes)]
    scale = budget / _left_sum(raw)
    return {i: raw[i] * scale for i in range(n_nodes)}


def load_balance_experiment(
    seeds: int,
    n: int = 30,
    edge_prob: float = 0.15,
    budget: float = 100.0,
    delta: float = 0.2,
    base_seed: int = 0,
) -> list[dict]:
    """Final-state dispersion of the game model vs. spreading alone.

    One random connected network per seed, a single full-budget source;
    rows carry the population std-dev of both models' final states. One
    spread per seed feeds both columns: its unscaled final is the
    baseline, and the game starts from it rescaled to the budget.
    """
    _check_limit("seeds", seeds)
    sp = SpreadParams(delta=delta, budget=budget)
    gp = GameParams(delta=delta, budget=budget)
    rows = []
    for k in range(seeds):
        seed = base_seed + k
        net = generate_network(n, edge_prob, seed)
        source = random.Random(seed).randrange(n)
        sources = {source: budget}
        traditional = run_traditional(net, sources, sp)
        outcome = run_pipeline(net, sources, sp, gp, _spread=traditional)
        rows.append(
            {
                "seed": seed,
                "snm_stddev": load_balance(outcome.final),
                "traditional_stddev": load_balance(traditional),
                "snm_rounds": outcome.rounds,
                "snm_converged": outcome.converged,
            }
        )
    return rows


def utilization_experiment(
    seeds: int,
    budget: float = 100.0,
    delta: float = 0.2,
    base_seed: int = 0,
) -> list[dict]:
    """Budget utilization and cycle counts: game model vs. cobweb grid.

    The scenario is a symmetric network of six concepts, each
    demanding 20.0; seeds vary the initial distribution.
    Both models start from the identical initial values. Cobweb runs
    once per (r, slope) grid combo; a demand counts as met when the
    allocation reaches it within _MET_TOL.
    """
    _check_limit("seeds", seeds)
    n_nodes, demand = 6, 20.0
    net = complete_network(n_nodes, 1.0)
    demands = {i: demand for i in range(n_nodes)}
    sp = SpreadParams(delta=delta, budget=budget)
    gp = GameParams(delta=delta, budget=budget)
    rows = []
    for k in range(seeds):
        seed = base_seed + k
        initial = _utilization_initial(seed, n_nodes, budget)

        outcome = run_pipeline(net, initial, sp, gp)
        held = dict(outcome.final.held.items())
        row = {
            "seed": seed,
            "snm_util": utilization(held, demands, budget),
            "snm_rounds": outcome.rounds,
            "snm_converged": outcome.converged,
            "snm_all_met": _all_met(held, demand),
        }
        cobweb_utils = []
        for r, slope in _COBWEB_GRID:
            params = CobwebParams(r=r, demand_slope=slope, supply_slope=slope, max_iters=100)
            run = run_cobweb([(initial[i], demand) for i in range(n_nodes)], params, budget)
            util = utilization(run.allocations, demands, budget)
            cobweb_utils.append(util)
            tag = f"r{r}_s{slope}"
            row[f"cobweb_util_{tag}"] = util
            row[f"cobweb_iters_{tag}"] = run.iters
            row[f"cobweb_converged_{tag}"] = run.converged
            row[f"cobweb_all_met_{tag}"] = _all_met(run.allocations, demand)
        row["cobweb_mean_util"] = _left_sum(cobweb_utils) / len(cobweb_utils)
        rows.append(row)
    return rows
