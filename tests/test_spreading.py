"""Spreading activation: per-edge transfer, stepping, full runs, the held view."""

import dataclasses
import itertools
import math
import pickle
import random
import tracemalloc

import pytest

from semgame.errors import ValidationError
from semgame.game import GameOutcome, GameParams, RoundRecord, rescale_to_budget, run_game, verify_nash
from semgame.generate import complete_network, generate_network
from semgame.network import ConceptNode, WeightedEdge, build_network
from semgame.spreading import (
    ActivationState,
    SpreadParams,
    _Held,
    iter_spread,
    run_spread,
    seed_state,
    step,
)

from conftest import assert_dict_lookups, chain_net, quick_net
from oracles import step_oracle


def one_edge_delivery(o: float, w: float, delta: float) -> float:
    """What one step carries across a single edge from a source holding o."""
    net = quick_net(2, [(0, 1, w)])
    return step(net, seed_state(net, {0: o}), SpreadParams(delta=delta)).held[1]


class TestEdgeSpread:
    def test_basic_attenuation(self):
        assert one_edge_delivery(1.0, 0.5, 0.2) == 0.4
        assert one_edge_delivery(1.0, 0.5, 0.2) == 1.0 * 0.5 * (1 - 0.2)

    def test_total_attenuation(self):
        assert one_edge_delivery(1.0, 0.5, 1.0) == 0.0

    def test_scaled_source(self):
        assert one_edge_delivery(2.0, 0.3, 0.1) == 2.0 * 0.3 * (1 - 0.1)
        assert one_edge_delivery(2.0, 0.3, 0.1) == pytest.approx(0.54)

    def test_never_exceeds_source(self):
        rng = random.Random(5)
        for _ in range(200):
            o, w, d = rng.uniform(0, 10), rng.random(), rng.random()
            out = one_edge_delivery(o, w, d)
            assert 0.0 <= out <= o


class TestStep:
    def test_no_activated_nodes_only_ticks(self):
        net = quick_net(3, [(0, 1, 0.5)])
        state = ActivationState(0, {0: 1.0, 1: 0.0, 2: 0.0}, frozenset())
        nxt = step(net, state, SpreadParams())
        assert nxt.t == 1
        assert dict(nxt.held) == dict(state.held)
        assert nxt.activated == frozenset()

    def test_single_edge_transfer(self):
        net = quick_net(2, [(0, 1, 0.5)])
        state = seed_state(net, {0: 1.0})
        nxt = step(net, state, SpreadParams(delta=0.0, fire_threshold=0.0, budget=1.0))
        assert nxt.held[1] == 0.5
        assert nxt.held[0] == 1.0
        assert nxt.activated == frozenset({1})

    def test_receiver_below_fire_threshold_does_not_fire(self):
        net = quick_net(2, [(0, 1, 0.5)])
        state = seed_state(net, {0: 1.0})
        nxt = step(net, state, SpreadParams(delta=0.0, fire_threshold=0.6, budget=1.0))
        assert nxt.held[1] == 0.5
        assert nxt.activated == frozenset()

    def test_two_steps_match_adjacency_oracle(self):
        """4-node graph stepped twice against the dense-matrix oracle."""
        edges = [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0), (0, 3, 0.75)]
        net = quick_net(4, edges)
        params = SpreadParams(delta=0.3, fire_threshold=1e-6, budget=2.0)
        state = seed_state(net, {0: 2.0})
        held = dict(state.held)
        activated = set(state.activated)
        for _ in range(2):
            state = step(net, state, params)
            held, activated = step_oracle(4, edges, held, activated, 0.3, 1e-6)
            assert dict(state.held) == held
            assert set(state.activated) == activated

    def test_non_dyadic_weights_match_oracle_exactly(self):
        """With weights that are not dyadic, o * w * (1 - delta) rounds
        differently once w * (1 - delta) is folded into one factor."""
        edges = [(0, 1, 0.37), (1, 2, 0.91), (2, 3, 0.13), (0, 3, 0.58), (1, 3, 0.29)]
        net = quick_net(4, edges)
        params = SpreadParams(delta=0.3, fire_threshold=1e-6, budget=2.0)
        state = seed_state(net, {0: 2.0})
        held = dict(state.held)
        activated = set(state.activated)
        for _ in range(4):
            state = step(net, state, params)
            held, activated = step_oracle(4, edges, held, activated, 0.3, 1e-6)
            assert dict(state.held) == held
            assert set(state.activated) == activated

    def test_partial_or_extra_state_rejected(self):
        """A state that leaves nodes 1 and 3 out is rejected by a step, by a
        game round under every screening and by verify_nash, with a message
        naming them; so is a state that holds an id the network lacks."""
        net = quick_net(5, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.1), (3, 4, 0.9), (0, 4, 0.6)])
        partial = ActivationState(0, {0: 0.6, 2: 0.3, 4: 0.1}, frozenset({0, 2}))
        sp = SpreadParams(delta=0.2, fire_threshold=0.01, budget=1.0)
        missing = r"no value for 2 node\(s\): 1, 3$"
        with pytest.raises(ValidationError, match=missing):
            step(net, partial, sp)
        outcome = GameOutcome(partial, True, (RoundRecord(partial, {}, 0.0),), partial)
        for screen_threshold in (0.0, 0.2, 0.7):
            gp = GameParams(budget=1.0, screen_threshold=screen_threshold)
            with pytest.raises(ValidationError, match=missing):
                run_game(net, partial, gp)
            with pytest.raises(ValidationError, match=missing):
                verify_nash(net, outcome, gp)

        extra = ActivationState(0, {**dict.fromkeys(range(5), 0.2), 7: 0.0}, frozenset({0}))
        with pytest.raises(ValidationError, match="unknown node id 7"):
            step(net, extra, sp)
        with pytest.raises(ValidationError, match="unknown node id 7"):
            run_game(net, extra, GameParams(budget=1.0))

        # A NaN after the first position, which min() does not see.
        nan = ActivationState(0, {0: 0.6, 1: 0.0, 2: math.nan, 3: 0.3, 4: 0.1}, frozenset({0}))
        non_finite = "^non-finite energy in activation state$"
        with pytest.raises(ValidationError, match=non_finite):
            step(net, nan, sp)
        outcome = GameOutcome(nan, True, (RoundRecord(nan, {}, 0.0),), nan)
        for screen_threshold in (0.0, 0.2, 0.7):
            gp = GameParams(budget=1.0, screen_threshold=screen_threshold)
            with pytest.raises(ValidationError, match=non_finite):
                run_game(net, nan, gp)
            with pytest.raises(ValidationError, match=non_finite):
                verify_nash(net, outcome, gp)

    def test_negative_held_energy_rejected(self):
        """A state holding a negative or non-finite energy is rejected, not
        spread, and a step whose total overflows raises instead of
        returning inf."""
        net = quick_net(5, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.1), (3, 4, 0.9)])
        for position, bad, message in (
            (3, -1.0, "negative energy"),
            (3, -math.inf, "negative energy"),
            (0, math.nan, "non-finite energy"),
            (3, math.nan, "non-finite energy"),
            (0, math.inf, "non-finite energy"),
            (3, math.inf, "non-finite energy"),
        ):
            state = ActivationState(0, {**dict.fromkeys(range(5), 0.2), position: bad}, frozenset({0, 3}))
            with pytest.raises(ValidationError, match=f"^{message} in activation state$"):
                step(net, state, SpreadParams(budget=1.0))
        # Finite sources whose first step overflows.
        net = complete_network(3)
        with pytest.raises(ValidationError, match="^spreading overflowed to a non-finite total at step 1$"):
            step(net, seed_state(net, {0: 1e308}), SpreadParams(budget=1e308))

    def test_full_activated_set_skips_no_check(self):
        """A state whose activated set is the network's own all-ids set, as
        a step in which every node fired leaves it, is checked as any other:
        a negative, a NaN, a missing or an extra id raises what check_state
        names, whichever order the held dict is keyed in."""
        net = quick_net(5, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.1), (3, 4, 0.9)])
        good = dict.fromkeys(range(5), 0.2)
        for held, message in (
            ({**good, 3: -1.0}, "^negative energy in activation state$"),
            ({**good, 3: math.nan}, "^non-finite energy in activation state$"),
            ({k: v for k, v in good.items() if k != 3}, r"^state holds no value for 1 node\(s\): 3$"),
            ({**good, 7: 0.0}, "^state holds unknown node id 7$"),
        ):
            for keyed in (held, dict(reversed(held.items()))):
                state = ActivationState(0, keyed, net._id_set)
                with pytest.raises(ValidationError, match=message):
                    step(net, state, SpreadParams(budget=1.0))
                with pytest.raises(ValidationError, match=message):
                    run_game(net, state, GameParams(budget=1.0))

    def test_activated_id_outside_network_rejected(self):
        """An activated id the network lacks is a ValidationError naming the
        activated set, not a bare KeyError."""
        net = quick_net(5, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.1), (3, 4, 0.9)])
        state = ActivationState(0, dict.fromkeys(range(5), 0.2), frozenset({0, 9}))
        with pytest.raises(ValidationError, match="activated set contains nodes without a held value"):
            step(net, state, SpreadParams(budget=1.0))

    def test_deterministic(self):
        net = quick_net(5, [(0, 1, 0.4), (1, 2, 0.6), (2, 3, 0.8), (3, 4, 0.2), (0, 4, 0.9)])
        params = SpreadParams()
        a = step(net, seed_state(net, {0: 50.0, 2: 25.0}), params)
        b = step(net, seed_state(net, {0: 50.0, 2: 25.0}), params)
        assert a == b

    def test_brute_force_equivalence_small_graphs(self):
        """step matches the exhaustive-adjacency oracle on a weight-grid sample.

        The full sweep over every small network lives in the acceptance
        suite; this keeps a fast sample in the unit tests.
        """
        weights = (0.0, 0.25, 0.5, 1.0)
        pairs = list(itertools.combinations(range(3), 2))
        for combo in itertools.product(weights, repeat=len(pairs)):
            edges = [(a, b, w) for (a, b), w in zip(pairs, combo) if w > 0.0]
            net = quick_net(3, edges)
            params = SpreadParams(delta=0.25, fire_threshold=1e-6, budget=1.0)
            state = seed_state(net, {0: 1.0})
            held = dict(state.held)
            activated = set(state.activated)
            for _ in range(3):
                state = step(net, state, params)
                held, activated = step_oracle(3, edges, held, activated, 0.25, 1e-6)
                assert dict(state.held) == held
                assert set(state.activated) == activated


class TestRunSpread:
    def test_isolated_source_stops_at_one_step(self):
        net = quick_net(3, [(1, 2, 0.5)])
        final = run_spread(net, {0: 1.0}, SpreadParams(budget=1.0))
        assert final.t == 1
        assert final.held[0] == 1.0
        assert final.activated == frozenset()

    def test_chain_geometric_attenuation(self):
        net = chain_net([1.0, 1.0])
        params = SpreadParams(delta=0.5, fire_threshold=1e-9, max_steps=2, budget=1.0)
        final = run_spread(net, {0: 1.0}, params)
        assert final.held[1] == 0.5
        assert final.held[2] == 0.25

    def test_three_steps_equal_manual_composition(self):
        """run_spread(max_steps=3) is step applied three times."""
        rng = random.Random(8)
        edges = [
            (a, b, rng.random())
            for a in range(8)
            for b in range(a + 1, 8)
            if rng.random() < 0.4
        ]
        net = quick_net(8, edges)
        params = SpreadParams(delta=0.2, fire_threshold=1e-6, max_steps=3, budget=10.0)
        final = run_spread(net, {0: 6.0, 3: 4.0}, params)
        manual = seed_state(net, {0: 6.0, 3: 4.0})
        for _ in range(3):
            if not manual.activated:
                break
            manual = step(net, manual, params)
        assert final == manual

    def test_empty_sources_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            run_spread(quick_net(2, []), {}, SpreadParams())

    def test_unknown_source_rejected(self):
        with pytest.raises(ValidationError, match="source id 9"):
            run_spread(quick_net(2, []), {9: 1.0}, SpreadParams())

    def test_over_budget_sources_rejected(self):
        with pytest.raises(ValidationError, match="exceeds budget"):
            run_spread(quick_net(2, []), {0: 2.0, 1: 3.0}, SpreadParams(budget=4.0))

    def test_negative_source_rejected(self):
        with pytest.raises(ValidationError, match=r"^source 0: energy -1\.0 must be finite and >= 0$"):
            run_spread(quick_net(2, []), {0: -1.0}, SpreadParams())
        for energy in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"^source 0: energy {energy} must be finite and >= 0$"):
                seed_state(quick_net(2, []), {0: energy})

    def test_bool_source_energy_rejected(self):
        """True once seeded the source with 1.0."""
        with pytest.raises(ValidationError, match="^source 0: energy True is not a number$"):
            seed_state(quick_net(2, []), {0: True})

    def test_non_finite_params_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="budget"):
                SpreadParams(budget=bad)
            with pytest.raises(ValidationError, match="fire_threshold"):
                SpreadParams(fire_threshold=bad)

    @pytest.mark.parametrize("kwargs, message", [
        ({"delta": 1.5}, r"^delta 1\.5 outside \[0, 1\]$"),
        ({"max_steps": 0}, "^max_steps 0 must be an int >= 1$"),
        ({"max_steps": 2.5}, r"^max_steps 2\.5 must be an int >= 1$"),
        ({"max_steps": math.inf}, "^max_steps inf must be an int >= 1$"),
        ({"max_steps": math.nan}, "^max_steps nan must be an int >= 1$"),
        ({"max_steps": True}, "^max_steps True must be an int >= 1$"),
        ({"delta": True}, "^delta True is not a number$"),
        ({"delta": False}, "^delta False is not a number$"),
        ({"fire_threshold": True}, "^fire_threshold True is not a number$"),
        ({"fire_threshold": False}, "^fire_threshold False is not a number$"),
    ], ids=["delta-1.5", "max-steps-0", "max-steps-2.5", "max-steps-inf", "max-steps-nan", "max-steps-True",
            "delta-True", "delta-False", "fire-threshold-True", "fire-threshold-False"])
    def test_out_of_range_params_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            SpreadParams(**kwargs)

    def test_bad_budget_reported_before_the_threshold_derived_from_it(self):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValidationError, match=f"budget {bad} must be finite"):
                SpreadParams(fire_threshold=1e-6 * bad, budget=bad)

    @pytest.mark.parametrize("budget", [1.0, 100.0, 844.4, 1e6])
    def test_fire_threshold_derived_from_the_budget(self, budget):
        assert SpreadParams(budget=budget).fire_threshold.hex() == (1e-6 * budget).hex()
        for explicit in (0.0, 0.5):
            assert SpreadParams(fire_threshold=explicit, budget=budget).fire_threshold == explicit
        # The derived value is stored: replacing the budget keeps it.
        assert dataclasses.replace(SpreadParams(budget=1.0), budget=budget).fire_threshold == 1e-6

    def test_overflow_fails_loudly(self):
        """Energy that grows past float range raises instead of turning inf.

        On a complete graph the total grows by about (1 - delta) * (n - 1)
        per step; at n=200 held values reach inf at step 139, after which
        inf + x == inf would read as "unchanged" and stop the spread.
        """
        with pytest.raises(ValidationError, match="non-finite total at step 139"):
            run_spread(complete_network(200), {0: 100.0}, SpreadParams(max_steps=200))

    def test_delta_one_stops_immediately(self):
        """Full attenuation: no energy ever leaves a source."""
        net = quick_net(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        final = run_spread(net, {0: 5.0}, SpreadParams(delta=1.0, budget=5.0))
        assert final.t == 1
        assert final.held == {0: 5.0, 1: 0.0, 2: 0.0, 3: 0.0}

    def test_iter_spread_yields_seed_first(self):
        net = quick_net(2, [(0, 1, 0.5)])
        states = list(iter_spread(net, {0: 1.0}, SpreadParams(budget=1.0)))
        assert states[0].t == 0
        assert [s.t for s in states] == list(range(len(states)))

    def test_steady_full_frontier_spread_shares_one_activated_set(self):
        """From the first step in which every node fires, each state's
        activated set is the network's own all-ids frozenset; a step that
        fires only some nodes still builds a set of its own."""
        net = generate_network(200, 0.05, 0)
        states = list(iter_spread(net, {0: 100.0}, SpreadParams()))
        assert states[-1].t == SpreadParams().max_steps
        full = next(t for t, state in enumerate(states) if len(state.activated) == net.n)
        assert 1 < full < len(states) - 1
        assert all(state.activated is net._id_set for state in states[full:])
        for before, state in zip(states, states[1:full]):
            fired = {nid for nid, v in state.held.items() if v != before.held[nid] and v >= 1e-4}
            assert state.activated == fired and len(fired) < net.n
            assert state.activated is not net._id_set


class TestHeldView:
    """Every state the package builds holds a read-only `_Held` view that
    behaves as the id-keyed dict the package built before it."""

    @staticmethod
    def package_states():
        """A network with scattered ids, listed out of order, and the states
        seed_state, step, rescale_to_budget and each game round build on it."""
        ids = (-7, 2, 9, 30, 31)
        nodes = [ConceptNode(nid, f"c{nid}") for nid in reversed(ids)]
        edges = [WeightedEdge(9, -7, 0.6), WeightedEdge(2, 9, 0.3), WeightedEdge(30, 2, 0.9),
                 WeightedEdge(9, 31, 0.45)]
        net = build_network(nodes, edges)
        assert net.node_ids() == ids
        seeded = seed_state(net, {9: 0.75})
        stepped = step(net, seeded, SpreadParams(budget=1.0))
        scaled = rescale_to_budget(stepped, 1.0)
        assert scaled != stepped
        history = run_game(net, scaled, GameParams(budget=1.0, max_rounds=4)).history
        assert any(rec.state != scaled for rec in history)
        return net, [seeded, stepped, scaled, *(rec.state for rec in history)]

    def test_package_states_hold_a_view_that_acts_as_a_dict(self):
        """Iteration is ascending by id; len, in, reversed(items()), ==,
        repr and dict() agree with the dict over the same values; an unknown
        id raises KeyError; item assignment raises TypeError; values() is
        an immutable tuple; pickle round-trips under every protocol to an
        equal state that steps to the same state."""
        net, states = self.package_states()
        ids = net.node_ids()
        for state in states:
            held = state.held
            assert type(held) is _Held
            as_dict = {nid: held[nid] for nid in ids}
            assert list(held) == list(held.keys()) == list(as_dict) == sorted(ids)
            assert len(held) == len(as_dict) == 5
            assert all(nid in held for nid in ids) and 8 not in held and "9" not in held
            assert list(held.items()) == list(as_dict.items())
            assert list(reversed(held.items())) == list(reversed(as_dict.items()))
            assert list(held.values()) == list(as_dict.values())
            assert dict(held) == as_dict and held == as_dict and as_dict == held
            assert repr(held) == repr(as_dict)
            assert held.get(8) is None and held.get(9) == as_dict[9]
            assert_dict_lookups(held)
            with pytest.raises(KeyError):
                held[8]
            with pytest.raises(TypeError):
                held[9] = 1.0
            with pytest.raises(TypeError):
                del held[9]
            assert type(held.values()) is tuple
            with pytest.raises(TypeError):
                held.values()[0] = 1.0
            params = SpreadParams(budget=1.0)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(state, protocol))
                assert copy == state and type(copy.held) is _Held
                assert step(net, copy, params) == step(net, state, params)

    def test_lookups_answer_as_a_dict_on_ids_from_zero(self):
        """On ids 0..5, where True and False are hash-equal to ids 1 and 0,
        a state's view and a screened round's utilities find those ids by
        True, False and their floats, as a dict does, and no absent key."""
        net = quick_net(6, [(0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.3), (3, 4, 0.6), (4, 5, 0.2)])
        state = rescale_to_budget(run_spread(net, {1: 1.0}, SpreadParams(budget=1.0)), 1.0)
        record = run_game(net, state, GameParams(budget=1.0, screen_threshold=0.05, max_rounds=1)).history[0]
        assert 0 < len(record.utilities) < net.n and 0 in record.utilities and 1 in record.utilities
        for view in (state.held, record.utilities):
            assert type(view) is _Held and view[True] is view[1] and view[0.0] is view[0]
            assert_dict_lookups(view)

    def test_an_unorderable_key_is_found_without_a_copy(self):
        """A key the ids cannot be ordered against (a str, None, a complex)
        is looked up by equality over the ids: one lookup on a 10k-node
        state allocates under 10 KB, where a dict copy of the view takes
        hundreds."""
        held = seed_state(quick_net(10_000, [(0, 1, 0.5)]), {0: 1.0}).held
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for key, found in (("x", False), (None, False), (3 + 0j, True), (complex(10_000), False)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert (key in held) is found
                assert tracemalloc.get_traced_memory()[1] - base < 10_000, key
        finally:
            if started:
                tracemalloc.stop()

    def test_checks_fire_on_views(self):
        """A view holding a negative, NaN or inf value, or a view over
        another network with a node fewer or one more, raises what
        check_state names from step and from run_game, with a partial or
        the network's own all-ids activated set: the min/sum validation
        runs on views as on dicts."""
        net = quick_net(5, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.1), (3, 4, 0.9)])
        cases = []
        for position, bad, message in (
            (3, -1.0, "^negative energy in activation state$"),
            (3, -math.inf, "^negative energy in activation state$"),
            (0, math.nan, "^non-finite energy in activation state$"),
            (3, math.nan, "^non-finite energy in activation state$"),
            (3, math.inf, "^non-finite energy in activation state$"),
        ):
            values = [0.2] * 5
            values[position] = bad
            cases.append((_Held(net.node_ids(), tuple(values)), message))
        for other, message in ((4, r"^state holds no value for 1 node\(s\): 4$"),
                               (6, "^state holds unknown node id 5$")):
            cases.append((seed_state(quick_net(other, [(0, 1, 0.5)]), {0: 0.2}).held, message))
        for held, message in cases:
            assert type(held) is _Held
            for activated in (frozenset({0}), net._id_set):
                state = ActivationState(0, held, activated)
                with pytest.raises(ValidationError, match=message):
                    step(net, state, SpreadParams(budget=1.0))
                with pytest.raises(ValidationError, match=message):
                    run_game(net, state, GameParams(budget=1.0))


class TestSpreadingProperties:
    def test_attenuation_bound_on_chains(self):
        """First arrival k hops out is exactly the per-hop product, below (1-d)^k."""
        for delta in (0.1, 0.4, 0.7):
            weights = [0.9, 0.8, 0.6, 1.0]
            net = chain_net(weights)
            k = len(weights)
            params = SpreadParams(delta=delta, fire_threshold=0.0, max_steps=k, budget=3.0)
            final = run_spread(net, {0: 3.0}, params)
            expected = 3.0
            for w in weights:
                expected = expected * w * (1 - delta)
            assert final.held[k] == expected
            assert final.held[k] <= 3.0 * (1 - delta) ** k + 1e-12

    def test_monotone_in_edge_weight(self):
        """A heavier edge never delivers less in one step, all else fixed."""
        params = SpreadParams(delta=0.3, fire_threshold=0.0, budget=1.0)
        delivered = []
        for w in (0.1, 0.2, 0.5, 0.8, 1.0):
            net = quick_net(2, [(0, 1, w)])
            nxt = step(net, seed_state(net, {0: 1.0}), params)
            delivered.append(nxt.held[1])
        assert delivered == sorted(delivered)
        assert len(set(delivered)) == len(delivered)

    def test_incoming_bounded_by_neighbor_count(self):
        """A node can receive from at most (n-1) neighbors in one step."""
        rng = random.Random(31)
        for seed in range(5):
            n = rng.randrange(3, 10)
            edges = [
                (a, b, rng.random())
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.6
            ]
            net = quick_net(n, edges)
            held = {i: rng.uniform(0, 5) for i in range(n)}
            state = ActivationState(0, held, frozenset(range(n)))
            params = SpreadParams(delta=0.3, fire_threshold=0.0, budget=100.0)
            nxt = step(net, state, params)
            bound = (n - 1) * max(held.values()) * (1 - params.delta)
            for nid in range(n):
                assert nxt.held[nid] - held[nid] <= bound + 1e-12

    def test_state_validation_rejects_unknown_ids(self):
        net = quick_net(2, [(0, 1, 0.5)])
        bad = ActivationState(0, {5: 1.0}, frozenset({5}))
        with pytest.raises(ValidationError, match="unknown node"):
            from semgame.spreading import check_state

            check_state(net, bad)
