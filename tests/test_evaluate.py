"""Metrics: rank correlation, relatedness scoring, balance/utilization."""

import math
import random

import pytest

from semgame import baselines, evaluate
from semgame.errors import ValidationError
from semgame.baselines import CobwebParams, run_cobweb, run_traditional
from semgame.evaluate import (
    _has_ties,
    evaluate_pairs,
    load_balance,
    load_balance_experiment,
    relatedness,
    run_pipeline,
    spearman,
    utilization,
    utilization_experiment,
)
from semgame.game import GameParams, rescale_to_budget
from semgame.generate import complete_network, generate_network
from semgame.network import PairJudgment
from semgame.spreading import ActivationState, SpreadParams, run_spread

from conftest import quick_net
from oracles import counting_ranks, pearson


SP = SpreadParams(budget=100.0)
GP = GameParams(budget=100.0)


class TestSpearman:
    def test_identical_rankings_are_exactly_one(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(xs, xs) == 1.0

    def test_reversed_rankings_are_exactly_minus_one(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        ys = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0]
        assert spearman(xs, ys) == -1.0

    def test_monotone_of_self_is_one(self):
        rng = random.Random(0)
        xs = [rng.uniform(-5, 5) for _ in range(25)]
        while _has_ties(xs):  # pragma: no cover - astronomically unlikely
            xs = [rng.uniform(-5, 5) for _ in range(25)]
        ys = [math.exp(0.3 * x) + x ** 3 for x in xs]
        assert spearman(xs, ys) == 1.0

    def test_matches_pearson_of_ranks_oracle(self):
        """Tie-free random vectors agree with rank-then-Pearson to 1e-12."""
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randrange(5, 51)
            xs = [rng.random() for _ in range(n)]
            ys = [rng.random() for _ in range(n)]
            expected = pearson(counting_ranks(xs), counting_ranks(ys))
            assert abs(spearman(xs, ys) - expected) < 1e-12

    def test_invariant_under_strictly_increasing_transform(self):
        rng = random.Random(7)
        xs = [rng.random() for _ in range(30)]
        ys = [rng.random() for _ in range(30)]
        base = spearman(xs, ys)
        assert spearman([10 * x + 3 for x in xs], ys) == base
        assert spearman(xs, [math.atan(y) for y in ys]) == pytest.approx(base, abs=1e-12)

    def test_ties_use_average_ranks(self):
        """With ties present, the Pearson-of-average-ranks fallback applies."""
        xs = [1.0, 2.0, 2.0, 3.0]
        ys = [10.0, 20.0, 30.0, 40.0]
        expected = pearson(counting_ranks(xs), counting_ranks(ys))
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            spearman([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValidationError, match="at least 2"):
            spearman([1.0], [1.0])

    def test_constant_input_is_undefined(self):
        with pytest.raises(ValidationError, match="zero rank variance"):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_nan_sample_raises_and_infinities_rank(self):
        """A NaN has no rank: it raises instead of giving rho 1.0. ±inf
        rank below and above every finite value."""
        for xs, ys in (([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, 2.0, math.nan])):
            with pytest.raises(ValidationError, match="^spearman: a NaN sample value has no rank$"):
                spearman(xs, ys)
        assert spearman([-math.inf, 0.0, math.inf], [1.0, 2.0, 3.0]) == 1.0
        assert spearman([math.inf, 5.0, -math.inf], [1.0, 2.0, 3.0]) == -1.0


class TestRelatedness:
    def test_self_pair_is_one_on_symmetric_networks(self):
        """The seeded concept keeps the energy peak on these topologies."""
        two = quick_net(2, [(0, 1, 0.6)])
        assert relatedness(two, 0, 0, SP, GP) == 1.0
        k4 = complete_network(4, 0.7)
        assert relatedness(k4, 2, 2, SP, GP) == 1.0

    def test_disconnected_pair_is_zero(self):
        net = quick_net(4, [(0, 1, 0.7), (2, 3, 0.7)])
        assert relatedness(net, 0, 2, SP, GP) == 0.0

    def test_stronger_bridge_scores_higher(self):
        """3-node path: a heavier a-m edge carries more energy through to b."""
        def path_with_bridge(w):
            return quick_net(3, [(0, 1, w), (1, 2, 0.5)])

        weak = relatedness(path_with_bridge(0.1), 0, 2, SP, GP)
        strong = relatedness(path_with_bridge(0.9), 0, 2, SP, GP)
        assert strong > weak

    def test_symmetric_by_construction(self):
        net = generate_network(9, 0.3, 21)
        assert relatedness(net, 1, 6, SP, GP) == relatedness(net, 6, 1, SP, GP)

    def test_range_and_no_game_variant(self):
        net = generate_network(8, 0.4, 3)
        with_game = relatedness(net, 0, 5, SP, GP)
        without = relatedness(net, 0, 5, SP, None)
        for value in (with_game, without):
            assert 0.0 <= value <= 1.0

    def test_unknown_node(self):
        net = quick_net(2, [(0, 1, 0.5)])
        with pytest.raises(ValidationError, match="unknown node"):
            relatedness(net, 0, 9, SP, GP)

    def test_edgeless_network_rejected(self):
        """No edges, or only edges of weight 0.0: nothing can spread."""
        for edges in ([], [(0, 1, 0.0)]):
            net = quick_net(2, edges)
            with pytest.raises(ValidationError, match="edgeless"):
                relatedness(net, 0, 1, SP, GP)


class TestEvaluatePairs:
    def star(self):
        return quick_net(4, [(0, 1, 0.2), (0, 2, 0.5), (0, 3, 0.9)])

    def test_monotone_human_scores_give_rho_one(self):
        """Humans agreeing with the model ordering correlate perfectly."""
        net = self.star()
        models = {i: relatedness(net, 0, i, SP, GP) for i in (1, 2, 3)}
        order = sorted(models, key=models.get)
        humans = {nid: 0.2 + 0.3 * pos for pos, nid in enumerate(order)}
        pairs = [PairJudgment("n0", f"n{i}", humans[i]) for i in (1, 2, 3)]
        report = evaluate_pairs(net, pairs, SP, GP)
        assert report.rho == 1.0
        assert len(report.pairs) == 3
        assert not report.tie_warning

    def test_two_pairs_reversed_give_rho_minus_one(self):
        net = self.star()
        models = {i: relatedness(net, 0, i, SP, GP) for i in (1, 3)}
        low, high = sorted(models, key=models.get)
        pairs = [PairJudgment("n0", f"n{low}", 0.9), PairJudgment("n0", f"n{high}", 0.1)]
        assert evaluate_pairs(net, pairs, SP, GP).rho == -1.0

    def test_rho_invariant_under_pair_permutation(self):
        net = self.star()
        pairs = [
            PairJudgment("n0", "n1", 0.1),
            PairJudgment("n0", "n2", 0.8),
            PairJudgment("n0", "n3", 0.5),
        ]
        rho = evaluate_pairs(net, pairs, SP, GP).rho
        shuffled = [pairs[2], pairs[0], pairs[1]]
        assert evaluate_pairs(net, shuffled, SP, GP).rho == rho

    def test_tie_warning_set(self):
        net = self.star()
        pairs = [
            PairJudgment("n0", "n1", 0.5),
            PairJudgment("n0", "n2", 0.5),
            PairJudgment("n0", "n3", 0.9),
        ]
        assert evaluate_pairs(net, pairs, SP, GP).tie_warning

    def test_unresolvable_label(self):
        net = self.star()
        pairs = [PairJudgment("n0", "zebra", 0.5), PairJudgment("n0", "n1", 0.2)]
        with pytest.raises(ValidationError, match="zebra"):
            evaluate_pairs(net, pairs, SP, GP)

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError, match="at least 2"):
            evaluate_pairs(self.star(), [PairJudgment("n0", "n1", 0.5)], SP, GP)

    # Concepts repeat across pairs, in both positions, and (c4, c4) is a self-pair.
    REPEATS = [(1, 6), (6, 1), (1, 4), (4, 4), (7, 1), (4, 6), (2, 7)]

    def repeat_pairs(self):
        return [PairJudgment(f"c{a}", f"c{b}", 0.1 * k) for k, (a, b) in enumerate(self.REPEATS)]

    @pytest.mark.parametrize("gp", [GP, None], ids=["game", "no-game"])
    def test_scores_equal_per_pair_relatedness(self, gp):
        net = generate_network(9, 0.3, 21)
        report = evaluate_pairs(net, self.repeat_pairs(), SP, gp)
        assert [row[3] for row in report.pairs] == [relatedness(net, a, b, SP, gp) for a, b in self.REPEATS]

    @pytest.mark.parametrize("gp, runner", [(GP, "run_pipeline"), (None, "run_spread")], ids=["game", "no-game"])
    def test_one_run_per_distinct_concept(self, monkeypatch, gp, runner):
        net = generate_network(9, 0.3, 21)
        real = getattr(evaluate, runner)
        seeded = []

        def counting(net, sources, *rest):
            seeded.extend(sources)
            return real(net, sources, *rest)

        monkeypatch.setattr(evaluate, runner, counting)
        evaluate_pairs(net, self.repeat_pairs(), SP, gp)
        assert sorted(seeded) == sorted({nid for pair in self.REPEATS for nid in pair})
        seeded.clear()
        relatedness(net, 4, 4, SP, gp)
        assert seeded == [4]

    def test_final_states_dropped_after_last_pair(self, monkeypatch):
        net = generate_network(9, 0.3, 21)
        real = evaluate.relatedness
        held_before, memos = [], []

        def spy(net, a, b, sp, gp, *, _finals):
            held_before.append(set(_finals))
            memos.append(_finals)
            return real(net, a, b, sp, gp, _finals=_finals)

        monkeypatch.setattr(evaluate, "relatedness", spy)
        evaluate_pairs(net, self.repeat_pairs(), SP, GP)
        for k, held in enumerate(held_before):
            assert held <= {nid for pair in self.REPEATS[k:] for nid in pair}
        assert memos[-1] == {}

    def test_memo_does_not_outlive_a_call(self):
        net = generate_network(9, 0.3, 21)
        pairs = self.repeat_pairs()
        for sp in (SP, SpreadParams(delta=0.6, max_steps=3, budget=100.0)):
            report = evaluate_pairs(net, pairs, sp, GP)
            assert [row[3] for row in report.pairs] == [relatedness(net, a, b, sp, GP) for a, b in self.REPEATS]


class TestLoadBalance:
    def state(self, held):
        return ActivationState(0, dict(held), frozenset())

    def test_uniform_is_zero(self):
        assert load_balance(self.state({0: 2.0, 1: 2.0, 2: 2.0})) == 0.0

    def test_two_values(self):
        assert load_balance(self.state({0: 0.0, 1: 2.0})) == 1.0

    def test_matches_scalar_stddev_oracle(self):
        rng = random.Random(17)
        held = {i: rng.uniform(0, 9) for i in range(11)}
        mean = sum(held.values()) / 11
        expected = math.sqrt(sum((v - mean) ** 2 for v in held.values()) / 11)
        assert load_balance(self.state(held)) == pytest.approx(expected, rel=1e-14)

    def test_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            load_balance(self.state({0: 1.0}))

    def test_non_finite_mean_or_result_raises(self):
        """A NaN or infinite energy makes the mean non-finite, and energies
        whose squared deviations overflow make the result infinite: each
        raises instead of returning nan or inf."""
        for held, result, mean in (({0: math.nan, 1: 1.0}, "nan", "nan"), ({0: math.inf, 1: 1.0}, "nan", "inf"),
                                   ({0: 1.0, 1: -math.inf}, "nan", "-inf"),
                                   ({0: math.inf, 1: -math.inf}, "nan", "nan")):
            with pytest.raises(ValidationError,
                               match=rf"^load balance {result} is not finite \(mean held energy {mean}\)$"):
                load_balance(self.state(held))
        # 2.5e154 squares within range but the squares' sum overflows;
        # 1e200's square is beyond the float range.
        for big, mean in ((2.5e154, r"1\.25e\+154"), (1e200, r"5e\+199")):
            with pytest.raises(ValidationError, match=rf"^load balance inf is not finite \(mean held energy {mean}\)$"):
                load_balance(self.state({0: big, 1: 0.0}))


class TestUtilization:
    def test_demands_met_under_budget(self):
        alloc = {0: 30.0, 1: 50.0}
        demand = {0: 30.0, 1: 50.0}
        assert utilization(alloc, demand, 100.0) == pytest.approx(0.8)

    def test_zero_allocations(self):
        assert utilization({0: 0.0}, {0: 5.0}, 10.0) == 0.0

    def test_oversupply_clipped_by_demand(self):
        assert utilization({0: 90.0}, {0: 20.0}, 100.0) == pytest.approx(0.2)

    def test_never_exceeds_demand_ratio(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randrange(1, 6)
            alloc = {i: rng.uniform(0, 40) for i in range(n)}
            demand = {i: rng.uniform(0, 40) for i in range(n)}
            budget = rng.uniform(10, 120)
            u = utilization(alloc, demand, budget)
            assert 0.0 <= u <= 1.0
            assert u <= min(1.0, sum(demand.values()) / budget) + 1e-12

    def test_mismatched_keys(self):
        with pytest.raises(ValidationError, match="different nodes"):
            utilization({0: 1.0}, {1: 1.0}, 10.0)

    def test_nan_allocation_or_demand_raises(self):
        """min() passes a NaN allocation through and drops a NaN demand, so
        either used to give a quiet figure (0.0 here); now each raises."""
        for allocations, demands, message in (
            ({0: math.nan, 1: 1.0}, {0: 1.0, 1: 1.0}, "allocation nan"),
            ({0: 1.0, 1: 1.0}, {0: 1.0, 1: math.nan}, "demand nan"),
        ):
            with pytest.raises(ValidationError, match=f"^utilization: {message} must be finite and >= 0$"):
                utilization(allocations, demands, 2.0)

    def test_negative_or_infinite_allocation_or_demand_raises(self):
        """A negative value dragged the useful sum down to a clamped 0.0, and
        an infinite allocation against an infinite demand gave 1.0."""
        for allocations, demands, message in (
            ({0: -5.0, 1: 1.0}, {0: 1.0, 1: 1.0}, r"allocation -5\.0"),
            ({0: 1.0, 1: 1.0}, {0: -3.0, 1: 1.0}, r"demand -3\.0"),
            ({0: math.inf, 1: 1.0}, {0: math.inf, 1: 1.0}, "allocation inf"),
            ({0: 1.0, 1: 1.0}, {0: 1.0, 1: -math.inf}, "demand -inf"),
        ):
            with pytest.raises(ValidationError, match=f"^utilization: {message} must be finite and >= 0$"):
                utilization(allocations, demands, 2.0)

    def test_bool_allocation_or_demand_raises(self):
        """True once counted as 1.0: utilization({0: True}, {0: 1.0}, 2.0) gave 0.5."""
        with pytest.raises(ValidationError, match="^utilization: allocation True is not a number$"):
            utilization({0: True}, {0: 1.0}, 2.0)
        with pytest.raises(ValidationError, match="^utilization: demand False is not a number$"):
            utilization({0: 1.0}, {0: False}, 2.0)

    def test_budget_must_be_finite_and_positive(self):
        """A NaN or infinite budget raises instead of giving a quiet 0.0 (or,
        in a rescale, NaN values), with the message every budget check
        gives."""
        cobweb = CobwebParams(r=0.1, demand_slope=1.0, supply_slope=1.0)
        for budget in (math.nan, math.inf, 0.0, -1.0, True, False):
            message = (f"^budget {budget} is not a number$" if type(budget) is bool
                       else f"^budget {budget} must be finite and positive$")
            with pytest.raises(ValidationError, match=message):
                utilization({0: 1.0}, {0: 2.0}, budget)
            with pytest.raises(ValidationError, match=message):
                SpreadParams(budget=budget)
            with pytest.raises(ValidationError, match=message):
                GameParams(budget=budget)
            with pytest.raises(ValidationError, match=message):
                run_cobweb([(1.0, 1.0)], cobweb, budget)
            with pytest.raises(ValidationError, match=message):
                rescale_to_budget(ActivationState(0, {0: 1.0, 1: 3.0}, frozenset()), budget)


class TestExperiments:
    def test_load_balance_rows_shape(self):
        rows = load_balance_experiment(3, n=12, edge_prob=0.3)
        assert len(rows) == 3
        assert {"seed", "snm_stddev", "traditional_stddev"} <= set(rows[0])

    def test_utilization_rows_have_grid_columns(self):
        rows = utilization_experiment(2, budget=100.0)
        assert len(rows) == 2
        assert "cobweb_util_r0.2_s0.5" in rows[0]
        assert "cobweb_mean_util" in rows[0]
        assert 0.0 <= rows[0]["snm_util"] <= 1.0

    @pytest.mark.parametrize("experiment", [load_balance_experiment, utilization_experiment])
    # A float once raised a bare TypeError from range(), and True ran one seed.
    @pytest.mark.parametrize("seeds", [0, -1, 2.5, True, "3"])
    def test_experiments_need_a_seed(self, experiment, seeds):
        with pytest.raises(ValidationError, match="seeds"):
            experiment(seeds)

    def test_experiments_deterministic_per_seed(self):
        a = load_balance_experiment(2, n=10, edge_prob=0.3, base_seed=5)
        b = load_balance_experiment(2, n=10, edge_prob=0.3, base_seed=5)
        assert a == b


def exact(value):
    """A value's type and exact value: floats by float.hex, so 0.0 and
    -0.0 differ and nothing is rounded."""
    return (type(value), value.hex() if isinstance(value, float) else value)


def exact_map(mapping):
    return {k: exact(v) for k, v in mapping.items()}


def exact_state(state):
    return state.t, state.activated, exact_map(state.held)


class TestLoadBalanceSpreadsOnce:
    """load_balance_experiment spreads once per seed and starts the game
    from that spread, with the rows of two separate runs."""

    # The CLI defaults, and a smaller, denser network at budget 1.
    SETTINGS = [{}, {"n": 12, "edge_prob": 0.4, "budget": 1.0, "delta": 0.5}]

    @staticmethod
    def rows_from_two_spreads(seeds, n=30, edge_prob=0.15, budget=100.0, delta=0.2):
        sp, gp = SpreadParams(delta=delta, budget=budget), GameParams(delta=delta, budget=budget)
        rows = []
        for seed in range(seeds):
            net = generate_network(n, edge_prob, seed)
            sources = {random.Random(seed).randrange(n): budget}
            traditional = run_traditional(net, sources, sp)
            outcome = run_pipeline(net, sources, sp, gp)
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

    @pytest.mark.parametrize("kwargs", SETTINGS, ids=["defaults", "n12-b1"])
    def test_rows_equal_two_separate_runs(self, kwargs):
        got = load_balance_experiment(10, **kwargs)
        want = self.rows_from_two_spreads(10, **kwargs)
        assert [exact_map(row) for row in got] == [exact_map(row) for row in want]

    @pytest.mark.parametrize("kwargs", SETTINGS, ids=["defaults", "n12-b1"])
    def test_one_spread_per_seed(self, monkeypatch, kwargs):
        # The two names the package spreads through (perfbench/spans.WRAPPED).
        nets = []
        for module in (evaluate, baselines):
            real = module.run_spread

            def counting(net, sources, *rest, real=real):
                nets.append(net)
                return real(net, sources, *rest)

            monkeypatch.setattr(module, "run_spread", counting)
        load_balance_experiment(4, **kwargs)
        assert len(nets) == 4
        assert len({id(net) for net in nets}) == 4

    @pytest.mark.parametrize("budget", [1.0, 100.0])
    def test_pipeline_from_given_spread_equals_own_spread(self, budget):
        sp, gp = SpreadParams(budget=budget), GameParams(budget=budget)

        def record(rec):
            return exact_state(rec.state), rec.strategies, exact_map(rec.utilities), exact(rec.cost)

        for seed in range(4):
            net = generate_network(20, 0.2, seed)
            sources = {seed: budget}
            given = run_pipeline(net, sources, sp, gp, _spread=run_spread(net, sources, sp))
            own = run_pipeline(net, sources, sp, gp)
            assert exact_state(given.initial) == exact_state(own.initial)
            assert [record(r) for r in given.history] == [record(r) for r in own.history]
            assert (given.rounds, given.converged) == (own.rounds, own.converged)
