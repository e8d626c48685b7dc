"""Cobweb dynamics and the spread-only traditional baseline."""

import math
import re

import pytest

from semgame.baselines import CobwebParams, run_cobweb, run_traditional
from semgame.errors import ValidationError
from semgame.generate import generate_network
from semgame.spreading import SpreadParams, run_spread

from conftest import chain_net


def linear_params(r: float, ds: float = 1.0, ss: float = 1.0, **kw) -> CobwebParams:
    return CobwebParams(r=r, demand_slope=ds, supply_slope=ss, **kw)


class TestCobwebStep:
    """One node's first cycles. With target t, D(o) = 2t - o and S(e) = e,
    so the base is t - r * (2t - t - t) = t."""

    def test_zero_adjustment_rate(self):
        # r = 0 makes the base the target and pins o there from any start.
        run = run_cobweb([(7.0, 5.0)], linear_params(r=0.0, max_iters=1), budget=100.0)
        assert run.trace[0].o == 5.0
        assert run.final_values[0] == 5.0

    def test_scalar_re_evaluation(self):
        """r=0.5, start 4 and target 4 (base 4): 4 + 0.5*((8-4)-4) = 4."""
        run = run_cobweb([(4.0, 4.0)], linear_params(r=0.5), budget=100.0)
        assert run.trace[0].o == 4.0 + 0.5 * ((8.0 - 4.0) - 4.0)
        assert run.trace[0].o == 4.0
        assert run.trace[0].excess_demand == 0.0

    def test_expectation_becomes_previous_value(self):
        # r = 0.25, target 2 (base 2), start 6: o goes 6 -> 0, and the
        # second cycle's supply is evaluated at the previous value 6.
        run = run_cobweb([(6.0, 2.0)], linear_params(r=0.25, max_iters=2), budget=100.0)
        assert run.trace[0].o == 0.0
        assert run.trace[1].excess_demand == (4.0 - 0.0) - 6.0
        assert run.final_values[0] == 2.0 + 0.25 * -2.0


class TestRunCobweb:
    def test_equilibrium_start_converges_first_iteration(self):
        run = run_cobweb([(20.0, 20.0)], linear_params(r=0.5), budget=100.0)
        assert run.converged
        assert run.iters == 1
        assert run.final_values[0] == pytest.approx(20.0)

    def test_five_node_recurrence_replay(self):
        """Final values and allocations match an independent scalar replay."""
        params = linear_params(r=0.3, ds=0.8, ss=0.9, max_iters=40)
        nodes = [(12.0, 10.0), (25.0, 20.0), (8.0, 15.0), (30.0, 20.0), (18.0, 12.0)]
        budget = 60.0
        run = run_cobweb(nodes, params, budget)

        def demand(i, o):
            return 2 * nodes[i][1] - params.demand_slope * o

        def supply(e):
            return params.supply_slope * e

        o = {i: float(init) for i, (init, _) in enumerate(nodes)}
        e = dict(o)
        base = {
            i: target - params.r * (demand(i, target) - supply(target))
            for i, (_, target) in enumerate(nodes)
        }
        allocations = {}
        for _ in range(run.iters):
            remaining = budget
            for i in range(5):
                new_o = base[i] + params.r * (demand(i, o[i]) - supply(e[i]))
                e[i] = o[i]
                o[i] = new_o
                granted = min(max(new_o, 0.0), remaining)
                remaining -= granted
                allocations[i] = granted
        for i in range(5):
            assert run.final_values[i] == pytest.approx(o[i], rel=1e-12)
            assert run.allocations[i] == pytest.approx(allocations[i], rel=1e-12)

    def test_stable_settings_converge(self):
        """|r| * (demand_slope + supply_slope) < 1 settles at the target."""
        for r in (0.2, 0.5, 0.9):
            for s in (0.5, 1.0, 2.0):
                if r * (s + s) >= 1.0:
                    continue
                params = CobwebParams(r=r, demand_slope=s, supply_slope=s, max_iters=200)
                run = run_cobweb([(28.0, 20.0)], params, budget=100.0)
                assert run.converged, (r, s)
                assert run.final_values[0] == pytest.approx(20.0, abs=1e-4)

    def test_unstable_setting_leaves_demand_unmet_despite_surplus(self):
        """Oscillation on |r|*(slopes) > 1 misses targets even with spare budget."""
        params = CobwebParams(r=0.9, demand_slope=2.0, supply_slope=2.0, max_iters=100)
        nodes = [(24.0, 20.0), (17.0, 20.0), (22.0, 20.0)]
        run = run_cobweb(nodes, params, budget=1000.0)
        assert not run.converged
        assert run.iters == 100
        assert any(run.allocations[i] < 20.0 - 1e-6 for i in range(3))

    def test_greedy_allocation_in_node_order(self):
        """Earlier nodes drain the pool before later ones see it."""
        params = linear_params(r=0.0, max_iters=1)
        run = run_cobweb([(30.0, 30.0), (30.0, 30.0), (30.0, 30.0)], params, budget=70.0)
        # r = 0 pins every value at its base (here the target, 30).
        assert run.allocations[0] == pytest.approx(30.0)
        assert run.allocations[1] == pytest.approx(30.0)
        assert run.allocations[2] == pytest.approx(10.0)

    def test_trace_rows_cover_every_iteration_and_node(self):
        params = linear_params(r=0.4, max_iters=10)
        run = run_cobweb([(5.0, 4.0), (3.0, 4.0)], params, budget=10.0)
        assert len(run.trace) == run.iters * 2
        assert run.trace[0].iteration == 1

    def test_budget_must_be_positive(self):
        for budget in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="budget"):
                run_cobweb([(1.0, 1.0)], linear_params(r=0.1), budget=budget)

    @pytest.mark.parametrize("node", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_initial_value_and_target_must_be_finite(self, node):
        with pytest.raises(ValidationError, match="must be finite"):
            run_cobweb([(1.0, 1.0), node], linear_params(r=0.1), budget=10.0)

    def test_bool_initial_value_or_target_rejected(self):
        """True once ran as the number 1."""
        with pytest.raises(ValidationError, match="^cobweb initial value True is not a number$"):
            run_cobweb([(1.0, 1.0), (True, 1.0)], linear_params(r=0.1), budget=10.0)
        with pytest.raises(ValidationError, match="^cobweb target False is not a number$"):
            run_cobweb([(1.0, False)], linear_params(r=0.1), budget=10.0)

    def test_needs_a_node(self):
        with pytest.raises(ValidationError, match="at least one node"):
            run_cobweb([], linear_params(r=0.1), budget=10.0)

    def test_overflowing_value_raises(self):
        """At r = 0.9 and slopes 10 the oscillation grows about 7.9x per
        cycle and overflows in cycle 344. Unchecked, the value turned into
        NaN a cycle later, and a NaN move compares as quiet, so the run
        reported convergence."""
        params = CobwebParams(r=0.9, demand_slope=10.0, supply_slope=10.0, max_iters=1000)
        with pytest.raises(ValidationError, match="overflowed"):
            run_cobweb([(24.0, 20.0)], params, budget=100.0)


class TestCobwebParams:
    @pytest.mark.parametrize("field", ["r", "demand_slope", "supply_slope"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_coefficients_must_be_finite(self, field, value):
        kw = dict(r=0.5, demand_slope=1.0, supply_slope=1.0)
        with pytest.raises(ValidationError, match="must be finite"):
            CobwebParams(**{**kw, field: value})

    @pytest.mark.parametrize("field", ["r", "demand_slope", "supply_slope"])
    def test_coefficients_must_not_be_bools(self, field):
        kw = dict(r=0.5, demand_slope=1.0, supply_slope=1.0)
        for flag in (True, False):
            with pytest.raises(ValidationError, match=f"^{field} {flag} is not a number$"):
                CobwebParams(**{**kw, field: flag})

    def test_negative_slope_and_zero_iterations_rejected(self):
        with pytest.raises(ValidationError, match=r"^demand_slope -1\.0 must be finite and >= 0$"):
            linear_params(r=0.5, ds=-1.0)
        for bad in (0, 2.5, math.inf, math.nan, True):
            with pytest.raises(ValidationError, match=re.escape(f"max_iters {bad!r} must be an int >= 1")):
                linear_params(r=0.5, max_iters=bad)


class TestRunTraditional:
    def test_equals_run_spread_exactly(self):
        for seed in range(6):
            net = generate_network(10, 0.3, seed)
            sources = {seed % 10: 40.0, (seed + 3) % 10: 25.0}
            params = SpreadParams(delta=0.25, budget=100.0)
            assert run_traditional(net, sources, params) == run_spread(net, sources, params)

    def test_chain_profile_inherited(self):
        net = chain_net([1.0, 1.0])
        params = SpreadParams(delta=0.5, fire_threshold=1e-9, max_steps=2, budget=1.0)
        final = run_traditional(net, {0: 1.0}, params)
        assert final.held[1] == 0.5
        assert final.held[2] == 0.25
