"""The four benchmark workloads: their inputs, one op each, and output checks.

Every op calls the same public function the CLI command calls, looked
up on its module at call time so the traced run's wrappers see it. A
check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from semgame import evaluate
from semgame.game import GameParams, rank_nodes, verify_nash
from semgame.spreading import SpreadParams

# CLI defaults: delta 0.2, budget 100, fire threshold budget*1e-6,
# epsilon budget/1000, max_steps 20, max_rounds 100.
CLI_SPREAD = SpreadParams(delta=0.2, fire_threshold=1e-4, max_steps=20, budget=100.0)
CLI_GAME = GameParams(epsilon=0.1, max_rounds=100, delta=0.2, budget=100.0)
# game-1k: budget 1.0 and epsilon 1e-9*budget, where every participant accepts.
UNIT_SPREAD = SpreadParams(delta=0.2, fire_threshold=1e-6, max_steps=20, budget=1.0)
UNIT_GAME = GameParams(epsilon=1e-9, max_rounds=100, delta=0.2, budget=1.0)

BUDGET_RTOL = 1e-9  # final held total vs. budget
RHO_TOL = 1e-9  # reported rho vs. rank correlation recomputed from the table


@dataclass(frozen=True)
class Inputs:
    """Arguments for gen.write_inputs (concepts 0: no pairs file)."""

    nodes: int
    edges: int
    concepts: int = 0
    pairing: str = "all"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: dict  # size -> Inputs, or None for a workload without input files
    trace_ops: dict  # size -> ops in each pass of the traced run
    reference_ops: int  # ops whose digests are kept as reference values
    op_span: str | None  # span the benchmark opens around an op, if no wrapper covers it
    units_per_op: str  # what ops_per_s counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate-1k",
            "evaluate_pairs, 28 pairs over 8 concepts, 1k nodes: spreading-bound, game inert, 8 distinct sources in 56 runs",
            {"full": Inputs(1000, 5000, 8, "all"), "tiny": Inputs(60, 240, 8, "all")},
            {"full": 3, "tiny": 1},
            1,
            "evaluate.evaluate_pairs",
            "scored pairs",
        ),
        Workload(
            "relatedness-10k",
            "relatedness on disjoint pairs, 10k nodes: working set beyond L2, large load, no source repeats",
            {"full": Inputs(10000, 50000, 10000, "disjoint"), "tiny": Inputs(200, 800, 200, "disjoint")},
            {"full": 3, "tiny": 2},
            2,
            None,
            "queries",
        ),
        Workload(
            "game-1k",
            "run_pipeline from distinct sources at budget 1, 1k nodes: game-bound, every participant accepts",
            {"full": Inputs(1000, 5000), "tiny": Inputs(60, 240)},
            {"full": 20, "tiny": 3},
            3,
            None,
            "pipeline runs",
        ),
        Workload(
            "compare-lb-30",
            "load_balance_experiment per seed on 30-node graphs: fixed per-call costs, generate and baselines",
            {"full": None, "tiny": None},
            {"full": 1000, "tiny": 5},
            20,
            "evaluate.load_balance_experiment",
            "seeds",
        ),
    )
}


def _finite_unit(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0


def _average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_correlation(xs: list[float], ys: list[float]) -> float:
    """Pearson correlation of average ranks, written apart from semgame's spearman."""
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return cov / math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))


def check_spread_final(final, sp: SpreadParams) -> list[str]:
    problems = []
    if final.t > sp.max_steps:
        problems.append(f"spread ran {final.t} steps > max_steps {sp.max_steps}")
    if not all(math.isfinite(v) and v >= 0.0 for v in final.held.values()):
        problems.append("spread produced a negative or non-finite energy")
    return problems


def check_outcome(net, outcome, gp: GameParams, max_steps: int) -> list[str]:
    """Budget conservation, Nash equilibrium and step/round limits of one game."""
    problems = []
    if not 1 <= outcome.rounds <= gp.max_rounds or outcome.rounds != len(outcome.history):
        problems.append(f"game reports {outcome.rounds} rounds, history {len(outcome.history)}")
    if outcome.initial.t > max_steps:
        problems.append(f"spread ran {outcome.initial.t} steps > max_steps {max_steps}")
    held = list(outcome.final.held.values())
    if not all(math.isfinite(v) and v >= 0.0 for v in held):
        problems.append("game produced a negative or non-finite energy")
    else:
        total = math.fsum(held)
        if abs(total - gp.budget) > BUDGET_RTOL * gp.budget:
            problems.append(f"held total {total!r} != budget {gp.budget!r}")
    if not verify_nash(net, outcome, gp):
        problems.append("final round is not a Nash equilibrium")
    return problems


class Plan:
    """A workload bound to its generated inputs: `op(i)`, `check(i, out)`, `digest(out)`."""

    limit: int | None = None  # number of distinct ops available (None: unbounded)
    spread: SpreadParams = CLI_SPREAD
    game: GameParams = CLI_GAME

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> list[float]:
        """Values compared against the recorded reference for the default seed."""
        raise NotImplementedError


class EvaluatePlan(Plan):
    def __init__(self, net, pairs) -> None:
        self.net, self.pairs = net, pairs
        self.units = len(pairs)

    def op(self, i: int):
        return evaluate.evaluate_pairs(self.net, self.pairs, self.spread, self.game)

    def check(self, i: int, report) -> list[str]:
        if len(report.pairs) != len(self.pairs):
            return [f"report has {len(report.pairs)} rows for {len(self.pairs)} pairs"]
        problems = []
        for row, p in zip(report.pairs, self.pairs):
            if row[:3] != (p.label_a, p.label_b, p.human_score):
                problems.append(f"row {row[:3]} does not match input pair")
            if not _finite_unit(row[3]):
                problems.append(f"score {row[3]!r} for {row[:2]} outside [0, 1]")
        if problems:
            return problems
        if not (math.isfinite(report.rho) and -1.0 <= report.rho <= 1.0):
            return [f"rho {report.rho!r} outside [-1, 1]"]
        recomputed = rank_correlation([r[2] for r in report.pairs], [r[3] for r in report.pairs])
        if abs(recomputed - report.rho) > RHO_TOL:
            problems.append(f"rho {report.rho!r} != recomputed {recomputed!r}")
        return problems

    def digest(self, report) -> list[float]:
        return [report.rho] + [row[3] for row in report.pairs]


class RelatednessPlan(Plan):
    def __init__(self, net, pairs) -> None:
        self.net = net
        self.ids = [(net.id_by_label(p.label_a), net.id_by_label(p.label_b)) for p in pairs]
        self.limit = len(self.ids)
        self.units = 1

    def op(self, i: int):
        a, b = self.ids[i]
        return evaluate.relatedness(self.net, a, b, self.spread, self.game)

    def check(self, i: int, score) -> list[str]:
        return [] if _finite_unit(score) else [f"score {score!r} for {self.ids[i]} outside [0, 1]"]

    def digest(self, score) -> list[float]:
        return [score]


class GamePlan(Plan):
    spread, game = UNIT_SPREAD, UNIT_GAME

    def __init__(self, net, seed: int) -> None:
        self.net = net
        self.sources = random.Random(seed).sample(net.node_ids(), net.n)
        self.limit = len(self.sources)
        self.units = 1

    def op(self, i: int):
        return evaluate.run_pipeline(self.net, {self.sources[i]: self.spread.budget}, self.spread, self.game)

    def check(self, i: int, outcome) -> list[str]:
        return check_outcome(self.net, outcome, self.game, self.spread.max_steps)

    def digest(self, outcome) -> list[float]:
        top = rank_nodes(outcome.final, 10)
        return [outcome.rounds, float(outcome.converged)] + [nid for nid, _ in top] + [e for _, e in top]


class ComparePlan(Plan):
    N, EDGE_PROB = 30, 0.15

    def __init__(self, seed: int) -> None:
        # Op i runs the experiment's seed seed*10^6 + i, as `semgame compare
        # --experiment load-balance --seed <that> --seeds 1` would.
        self.base = seed * 1_000_000
        self.units = 1

    def op(self, i: int):
        return evaluate.load_balance_experiment(1, n=self.N, edge_prob=self.EDGE_PROB, base_seed=self.base + i)

    def check(self, i: int, rows) -> list[str]:
        if len(rows) != 1 or rows[0]["seed"] != self.base + i:
            return [f"expected one row for seed {self.base + i}, got {rows!r}"]
        row = rows[0]
        problems = []
        for key in ("snm_stddev", "traditional_stddev"):
            if not (isinstance(row[key], float) and math.isfinite(row[key]) and row[key] >= 0.0):
                problems.append(f"{key} {row[key]!r} is negative or not finite")
        if not 1 <= row["snm_rounds"] <= self.game.max_rounds:
            problems.append(f"snm_rounds {row['snm_rounds']} outside [1, {self.game.max_rounds}]")
        return problems

    def digest(self, rows) -> list[float]:
        row = rows[0]
        return [row["snm_stddev"], row["traditional_stddev"], row["snm_rounds"], float(row["snm_converged"])]


def make_plan(workload: str, seed: int, net, pairs) -> Plan:
    if workload == "evaluate-1k":
        return EvaluatePlan(net, pairs)
    if workload == "relatedness-10k":
        return RelatednessPlan(net, pairs)
    if workload == "game-1k":
        return GamePlan(net, seed)
    return ComparePlan(seed)
