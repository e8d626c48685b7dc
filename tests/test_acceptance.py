"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import functools
import itertools
import json
import math
import random
import time

from semgame.baselines import CobwebParams, run_cobweb
from semgame.cli import main
from semgame.evaluate import (
    evaluate_pairs,
    load_balance_experiment,
    relatedness,
    run_pipeline,
    spearman,
    utilization_experiment,
)
from semgame.game import (
    GameParams,
    Strategy,
    cost,
    gain,
    rank_nodes,
    run_game,
    verify_nash,
)
from semgame.generate import complete_network, generate_network
from semgame.network import ConceptNode, PairJudgment, WeightedEdge, build_network
from semgame.spreading import ActivationState, SpreadParams, seed_state, step

from conftest import first_round, quick_net, two_cluster_net
from oracles import counting_ranks, pearson, round_oracle, step_oracle

_MODULE_START = time.perf_counter()


def criterion(number: int, description: str):
    """Print the [criterion N] PASS/FAIL line around the wrapped test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] {description}: FAIL")
                raise
            print(f"[criterion {number:2d}] {description}: PASS")
            return result

        return wrapper

    return decorate


def _connected(n: int, edges: list[tuple[int, int, float]]) -> bool:
    adj = {i: [] for i in range(n)}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


@criterion(1, "equation arithmetic matches hand-computed values")
def test_c01_equation_arithmetic():
    start = time.perf_counter()

    def one_edge_delivery(o, w, delta):
        net = quick_net(2, [(0, 1, w)])
        return step(net, seed_state(net, {0: o}), SpreadParams(delta=delta)).held[1]

    assert one_edge_delivery(1.0, 0.5, 0.2) == 0.4
    assert one_edge_delivery(1.0, 0.5, 1.0) == 0.0
    assert one_edge_delivery(2.0, 0.3, 0.1) == 2.0 * 0.3 * (1 - 0.1)
    assert abs(one_edge_delivery(2.0, 0.3, 0.1) - 0.54) < 1e-15

    held = [1.0] * 9
    assert cost(held, held) == 0.0
    moved = [4.0] + [1.0] * 8
    assert cost(held, moved) == 1.0

    # gain(change, degree, delta) on the neighborhood change Σ(offered − held).
    # Node 0 with neighbors 1, 2, each going 1.0 -> 1.5, at delta 0: 1.0 / 2.
    assert gain((1.5 - 1.0) + (1.5 - 1.0), 2, 0.0) == 0.5
    # Node 0 with neighbors 1, 2, 3 going 1.0 -> 3.0, 2.0, 2.0, at delta 0.5: 4^0.5 / 3.
    assert abs(gain((3.0 - 1.0) + (2.0 - 1.0) + (2.0 - 1.0), 3, 0.5) - 2.0 / 3.0) < 1e-15

    params = CobwebParams(r=0.5, demand_slope=1.0, supply_slope=1.0)
    # One node at its target 4 (base 4), D(o) = 8 - o, S(e) = e: 4 + 0.5*((8-4)-4) = 4.
    assert run_cobweb([(4.0, 4.0)], params, 100.0).trace[0].o == 4.0
    zero_r = CobwebParams(r=0.0, demand_slope=1.0, supply_slope=1.0)
    # r = 0 moves a node from any start straight to its base, the target 5.
    assert run_cobweb([(7.0, 5.0)], zero_r, 100.0).trace[0].o == 5.0

    assert time.perf_counter() - start < 1.0


@criterion(2, "spreading matches the brute-force oracle on small networks")
def test_c02_spreading_oracle_equivalence():
    """Three steps of `step` equal the dense-matrix oracle with zero error.

    Full Cartesian weight enumeration for n <= 4; at n = 5 the grid has
    4^10 weightings (beyond the stated runtime in pure Python), so every
    connected 5-node topology is swept with all uniform weights plus
    seeded mixed assignments instead. The grid's weights are dyadic and
    delta is 0.25, so every edge product there is exact; a second sweep
    draws non-dyadic weights at delta 0.2, where o * w * (1 - delta) and
    o * (w * (1 - delta)) round differently.
    """
    start = time.perf_counter()
    weights = (0.0, 0.25, 0.5, 1.0)
    checked = 0

    def check(n, edges, delta=0.25):
        nonlocal checked
        nodes = [ConceptNode(id=i, label=f"n{i}") for i in range(n)]
        net = build_network(nodes, [WeightedEdge(a, b, w) for a, b, w in edges])
        params = SpreadParams(delta=delta, fire_threshold=1e-6, budget=1.0)
        state = seed_state(net, {0: 1.0})
        held = dict(state.held)
        activated = set(state.activated)
        for _ in range(3):
            state = step(net, state, params)
            held, activated = step_oracle(n, edges, held, activated, delta, 1e-6)
            assert dict(state.held) == held, (n, edges)
            assert set(state.activated) == activated, (n, edges)
        checked += 1

    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for combo in itertools.product(weights, repeat=len(pairs)):
            edges = [(a, b, w) for (a, b), w in zip(pairs, combo) if w > 0.0]
            if _connected(n, edges):
                check(n, edges)

    pairs5 = list(itertools.combinations(range(5), 2))
    topologies = 0
    for mask in range(1 << 10):
        present = [pairs5[i] for i in range(10) if mask >> i & 1]
        if not _connected(5, [(a, b, 1.0) for a, b in present]):
            continue
        topologies += 1
        assignments = [[w] * len(present) for w in (0.25, 0.5, 1.0)]
        rng = random.Random(mask)
        for _ in range(5):
            assignments.append([weights[1 + rng.randrange(3)] for _ in present])
        for assignment in assignments:
            check(5, [(a, b, w) for (a, b), w in zip(present, assignment)])

    assert topologies == 728  # connected labeled graphs on 5 vertices
    assert checked > 9000

    non_dyadic = (0.1, 0.3, 0.7, 0.9)
    for n in (2, 3, 4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            present = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if not _connected(n, [(a, b, 1.0) for a, b in present]):
                continue
            rng = random.Random(1000 * n + mask)
            for _ in range(2):
                check(n, [(a, b, rng.choice(non_dyadic)) for a, b in present], delta=0.2)
    assert checked > 9000 + 2 * 728
    assert time.perf_counter() - start < 30.0


@criterion(3, "rank correlation matches the Pearson-of-ranks oracle")
def test_c03_spearman_oracle():
    start = time.perf_counter()
    rng = random.Random(100)
    for _ in range(100):
        n = rng.randrange(5, 51)
        xs = [rng.random() for _ in range(n)]
        ys = [rng.random() for _ in range(n)]
        expected = pearson(counting_ranks(xs), counting_ranks(ys))
        assert abs(spearman(xs, ys) - expected) < 1e-12

    xs = sorted(rng.random() for _ in range(20))
    assert spearman(xs, [3 * x + 1 for x in xs]) == 1.0
    assert spearman(xs, [-2 * x for x in xs]) == -1.0
    assert time.perf_counter() - start < 1.0


@criterion(4, "converged games' final rounds replay as dominant-strategy profiles")
def test_c04_nash_verification():
    start = time.perf_counter()
    weights = (0.0, 0.25, 0.5, 1.0)
    params = GameParams(budget=1.0, delta=0.2, epsilon=1e-3)
    converged_count = 0
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        nodes = [ConceptNode(id=i, label=f"n{i}") for i in range(n)]
        seedings = [{0: 1.0}, {i: 1.0 / n for i in range(n)}]
        for combo in itertools.product(weights, repeat=len(pairs)):
            edges = [(a, b, w) for (a, b), w in zip(pairs, combo) if w > 0.0]
            net = build_network(nodes, [WeightedEdge(*e) for e in edges])
            for seeding in seedings:
                held = {i: seeding.get(i, 0.0) for i in range(n)}
                initial = ActivationState(0, held, frozenset(seeding))
                outcome = run_game(net, initial, params)
                if not outcome.converged:
                    assert outcome.rounds == params.max_rounds
                    continue
                converged_count += 1
                assert verify_nash(net, outcome, params)
                pre = outcome.initial if outcome.rounds == 1 else outcome.history[-2].state
                utils = round_oracle(n, edges, dict(pre.held), [0.0] * n, None, params.delta)
                last = outcome.history[-1]
                chosen = {nid: s is Strategy.ACCEPT for nid, s in last.strategies.items()}
                assert chosen == {nid: u > 0.0 for nid, u in utils.items()}
    assert converged_count > 8000
    assert time.perf_counter() - start < 60.0


@criterion(5, "total energy equals the budget after every game round")
def test_c05_energy_conservation():
    sp = SpreadParams()
    gp = GameParams()
    for seed in range(20):
        net = generate_network(50, 0.15, seed)
        source = random.Random(seed).randrange(50)
        outcome = run_pipeline(net, {source: 100.0}, sp, gp)
        for index, record in enumerate(outcome.history, 1):
            total = sum(record.state.held.values())
            assert abs(total - 100.0) / 100.0 < 1e-9, (seed, index)


@criterion(6, "game converges within 100 rounds on >= 95% of random networks")
def test_c06_convergence():
    sp = SpreadParams()
    gp = GameParams()  # delta 0.2, epsilon = 1e-3 * budget
    converged = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randrange(5, 51)
        net = generate_network(n, 0.15, seed)
        source = rng.randrange(n)
        outcome = run_pipeline(net, {source: 100.0}, sp, gp)
        if outcome.converged:
            converged += 1
            assert outcome.history[-1].cost < gp.epsilon
        else:
            # Non-convergence is reported, never silent.
            assert outcome.rounds == gp.max_rounds
    assert converged >= 95, f"only {converged}/100 converged"


@criterion(7, "top rank locks in by round 2 and survives convergence")
def test_c07_rank_stabilization():
    net = two_cluster_net()
    # Budget 1.0 keeps per-node energies small enough that proposals get
    # accepted, so the game genuinely plays out over several rounds.
    sp = SpreadParams(budget=1.0, fire_threshold=1e-6)
    gp = GameParams(budget=1.0, epsilon=1e-3)
    outcome = run_pipeline(net, {0: 1.0}, sp, gp)
    assert outcome.converged
    assert outcome.rounds >= 2, "game ended before round 2; criterion would be vacuous"

    tops = [rank_nodes(rec.state, 1)[0][0] for rec in outcome.history]
    assert len(set(tops[1:])) == 1, f"top-1 changed after round 2: {tops}"

    extra_state = first_round(net, outcome.final, gp).state
    before = [nid for nid, _ in rank_nodes(outcome.final, net.n)]
    after = [nid for nid, _ in rank_nodes(extra_state, net.n)]
    assert before == after

    # Same stability holds at the default budget.
    outcome_default = run_pipeline(net, {0: 100.0}, SpreadParams(), GameParams())
    assert outcome_default.converged
    extra_default = first_round(net, outcome_default.final, GameParams()).state
    assert [n for n, _ in rank_nodes(extra_default, net.n)] == [
        n for n, _ in rank_nodes(outcome_default.final, net.n)
    ]


@criterion(8, "game model balances load better than spreading alone")
def test_c08_load_balance():
    start = time.perf_counter()
    rows = load_balance_experiment(20, n=30, edge_prob=0.15, budget=100.0)
    wins = sum(1 for r in rows if r["snm_stddev"] < r["traditional_stddev"])
    assert wins >= 16, f"game model won only {wins}/20"
    assert time.perf_counter() - start < 60.0


@criterion(9, "budget utilization beats the cobweb model in both regimes")
def test_c09_utilization():
    # Scarcity: budget 100 against total demand 120.
    scarcity = utilization_experiment(10, budget=100.0)
    for row in scarcity:
        assert row["snm_util"] >= row["cobweb_mean_util"], row["seed"]

    # Surplus: budget 120 covers six demands of 20; the game meets all of
    # them while an unstable cobweb setting (|r|*(slopes sum) = 3.6 > 1)
    # leaves demand unmet.
    surplus = utilization_experiment(10, budget=120.0)
    for row in surplus:
        assert row["snm_all_met"], row["seed"]
        assert not row["cobweb_all_met_r0.9_s2.0"], row["seed"]


@criterion(10, "relatedness sanity: identity, disconnection, monotonicity, rho")
def test_c10_relatedness_sanity():
    sp = SpreadParams()
    gp = GameParams()

    # Identity pairs score exactly 1 where the source keeps the peak.
    two = quick_net(2, [(0, 1, 0.6)])
    assert relatedness(two, 0, 0, sp, gp) == 1.0
    assert relatedness(complete_network(4, 0.7), 2, 2, sp, gp) == 1.0

    # Disconnected concepts score exactly 0.
    split = quick_net(4, [(0, 1, 0.7), (2, 3, 0.7)])
    assert relatedness(split, 0, 2, sp, gp) == 0.0

    # A heavier bridging edge strictly raises the path score.
    weak = relatedness(quick_net(3, [(0, 1, 0.1), (1, 2, 0.5)]), 0, 2, sp, gp)
    strong = relatedness(quick_net(3, [(0, 1, 0.9), (1, 2, 0.5)]), 0, 2, sp, gp)
    assert strong > weak

    # Human scores generated from edge weights correlate positively, and
    # shuffling the weights destroys the advantage.
    seed = 5
    rng = random.Random(seed)
    net = generate_network(12, 0.25, seed)
    pairs = []
    for edge in sorted(net.edges, key=lambda e: (e.a, e.b)):
        noisy = edge.weight + rng.uniform(-0.08, 0.08)
        pairs.append(PairJudgment(f"c{edge.a}", f"c{edge.b}", min(1.0, max(0.0, noisy))))
    linked = {(e.a, e.b) for e in net.edges}
    gaps = [(a, b) for a in range(12) for b in range(a + 1, 12) if (a, b) not in linked][:6]
    for a, b in gaps:
        pairs.append(PairJudgment(f"c{a}", f"c{b}", rng.uniform(0.0, 0.12)))

    rho = evaluate_pairs(net, pairs, sp, gp).rho
    shuffled_weights = [e.weight for e in net.edges]
    random.Random(seed + 1000).shuffle(shuffled_weights)
    shuffled_net = build_network(
        list(net.nodes),
        [WeightedEdge(e.a, e.b, w) for e, w in zip(net.edges, shuffled_weights)],
    )
    rho_shuffled = evaluate_pairs(shuffled_net, pairs, sp, gp).rho
    assert rho > 0.0
    assert rho > rho_shuffled


@criterion(11, "runs are byte-reproducible and the suite fits the time budget")
def test_c11_reproducibility_and_runtime(tmp_path):
    net = generate_network(10, 0.3, 3)
    from semgame.network import save_network

    net_path = tmp_path / "net.json"
    save_network(net, net_path)

    for argv_tail in (
        ["game", "--network", str(net_path), "--source", "0", "--seed", "4"],
        ["compare", "--experiment", "load-balance", "--seeds", "3", "--n", "8", "--seed", "4"],
    ):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv_tail + ["--out", str(out_a)]) == 0
        assert main(argv_tail + ["--out", str(out_b)]) == 0
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        for extra in ("compare.csv",):
            if (out_a / extra).exists():
                assert (out_a / extra).read_bytes() == (out_b / extra).read_bytes()

    # Generous proxy for the <5 minute whole-suite budget: this module
    # dominates the runtime and must finish far inside it.
    assert time.perf_counter() - _MODULE_START < 300.0
