"""Attention game: screening, cost/gain, rounds, equilibrium checks."""

import dataclasses
import gc
import itertools
import math
import pickle
import random
import re
import tracemalloc

import pytest

from semgame import game
from semgame.errors import ValidationError
from semgame.game import (
    GameOutcome,
    GameParams,
    RoundRecord,
    Strategy,
    cost,
    gain,
    rank_nodes,
    rescale_to_budget,
    run_game,
    verify_nash,
)
from semgame.generate import generate_network
from semgame.network import ConceptNode, build_network
from semgame.spreading import ActivationState, SpreadParams, _Held, run_spread, seed_state

from conftest import assert_dict_lookups, first_round, quick_net, two_cluster_net
from oracles import round_oracle


def state_of(held: dict[int, float], t: int = 0):
    return ActivationState(t, dict(held), frozenset())


def unit_budget_game(n: int, degree: float, seed: int):
    """A budget-1 game on a random n-node network of the given mean
    degree, started from a spread and played to epsilon 1e-9."""
    net = generate_network(n, degree / n, seed)
    initial = rescale_to_budget(run_spread(net, {0: 1.0}, SpreadParams(budget=1.0)), 1.0)
    return net, initial, GameParams(budget=1.0, epsilon=1e-9)


# Held values of a 3-node state that are not all finite: a NaN first, a NaN
# later (where min() does not see it), and an inf.
NON_FINITE_HELD = ({0: math.nan, 1: 0.0, 2: 0.0}, {0: 0.5, 1: math.nan, 2: 0.0}, {0: 0.5, 1: 0.0, 2: math.inf})


class TestCost:
    """cost(held, offered) on two value sequences in node order."""

    def test_identical_states(self):
        held = [1.0, 2.0]
        assert cost(held, held) == 0.0

    def test_single_difference(self):
        """Nine nodes, one moves by 3: sqrt(9 / 9) = 1."""
        held = [1.0] * 9
        offered = list(held)
        offered[4] = 4.0
        assert cost(held, offered) == 1.0

    def test_matches_scalar_rms_oracle(self):
        rng = random.Random(3)
        held = [rng.uniform(0, 10) for _ in range(12)]
        offered = [rng.uniform(0, 10) for _ in range(12)]
        expected = math.sqrt(sum((offered[i] - held[i]) ** 2 for i in range(12)) / 12)
        assert cost(held, offered) == pytest.approx(expected, rel=1e-15)

    def test_metric_like_on_committed_states(self):
        """Non-negative, zero only at equality, symmetric between states."""
        a = [1.0, 4.0]
        b = [2.0, 2.0]
        assert cost(a, b) > 0
        assert cost(a, b) == cost(b, a)
        assert cost(a, a) == 0.0

    def test_mismatched_node_sets(self):
        """Sequences of different lengths cover different node sets."""
        with pytest.raises(ValidationError, match="1 held values but 2 offered"):
            cost([1.0], [1.0, 1.0])

    def test_empty_states(self):
        with pytest.raises(ValidationError, match="^cost: empty states$"):
            cost([], [])

    @pytest.mark.parametrize("held, offered, rms", [
        ([math.nan], [0.0], "nan"),
        ([0.0, 1.0], [0.0, math.nan], "nan"),
        ([math.inf], [math.inf], "nan"),  # inf - inf
        ([0.0], [math.inf], "inf"),
        ([1e200], [-1e200], "inf"),  # a square beyond the float range
        ([0.0, 0.0], [1e154, 1e154], "inf"),  # two squares in range, their sum beyond it
    ])
    def test_non_finite_rms_raises(self, held, offered, rms):
        """A NaN or an overflowing change raises, naming the RMS, instead
        of coming back as nan or inf."""
        with pytest.raises(ValidationError, match=f"^cost: RMS change {rms} is not finite$"):
            cost(held, offered)

    def test_largest_finite_rms_returned(self):
        """Squares that stay in range give their RMS: 1e150 apart, sqrt(1e300)."""
        assert cost([0.0, 0.0], [1e150, -1e150]) == math.sqrt((1e300 + 1e300) / 2)


class TestGain:
    """gain(change, degree, delta): the change is the round's
    neighborhood sum Σ(offered − held), which the round computes."""

    def test_zero_change(self):
        assert gain(0.0, 2, 0.5) == 0.0
        # A change of -0.0 is no change either, and gives +0.0, not -0.0.
        assert math.copysign(1.0, gain(-0.0, 2, 0.5)) == 1.0

    def test_delta_zero_identity_power(self):
        """Two neighbors, each up by 0.5: change 1.0, delta 0."""
        assert gain(0.5 + 0.5, 2, 0.0) == 0.5

    def test_fractional_power(self):
        """Three neighbors, change 2 + 1 + 1 = 4, delta 0.5: sign(4) * 4^0.5 / 3."""
        result = gain(2.0 + 1.0 + 1.0, 3, 0.5)
        assert result == pytest.approx(math.copysign(abs(4.0) ** 0.5, 4.0) / 3, rel=1e-15)
        assert result == pytest.approx(2.0 / 3.0)

    def test_negative_change_keeps_sign(self):
        """One neighbor, down from 2.0 to 1.0."""
        assert gain(1.0 - 2.0, 1, 0.5) == -1.0

    def test_isolated_node_rejected(self):
        with pytest.raises(ValidationError, match="no neighbors"):
            gain(0.0, 0, 0.2)


class TestRescale:
    def test_sum_hits_budget(self):
        st = state_of({0: 3.0, 1: 1.0})
        scaled = rescale_to_budget(st, 100.0)
        assert sum(scaled.held.values()) == pytest.approx(100.0, rel=1e-12)
        assert scaled.held[0] / scaled.held[1] == pytest.approx(3.0)

    def test_zero_state_untouched(self):
        st = state_of({0: 0.0, 1: 0.0})
        assert rescale_to_budget(st, 10.0) is st

    def test_non_finite_total_rejected(self):
        """A total that is not finite raises instead of scaling to NaN."""
        for held in ({0: math.inf, 1: 1.0}, {0: 1.0, 1: math.nan}, {0: 1e308, 1: 1e308}):
            with pytest.raises(ValidationError, match="^cannot rescale energies totalling (inf|nan) to the budget$"):
                rescale_to_budget(state_of(held), 1.0)

    def test_negative_energy_rejected(self):
        """A negative energy used to scale along with the rest
        ({0: -1.0, 1: 3.0} to budget 1 gave {0: -0.5, 1: 1.5})."""
        for held in ({0: -1.0, 1: 3.0}, {0: 2.0, 1: -math.inf}):
            with pytest.raises(ValidationError, match="^negative energy in activation state$"):
                rescale_to_budget(state_of(held), 1.0)

    def test_subnormal_total_scales_without_nan(self):
        """A valid state totalling 5e-324 makes budget / total overflow; the
        zeros stay 0.0 rather than become 0.0 * inf = nan, and a game from
        it plays instead of raising at its next rescale."""
        scaled = rescale_to_budget(state_of({0: 0.0, 1: 5e-324, 2: 5e-324}), 1.0)
        assert scaled.held == {0: 0.0, 1: 0.5, 2: 0.5}
        net = quick_net(3, [(1, 2, 0.1)])
        outcome = run_game(net, state_of({0: 0.0, 1: 0.0, 2: 5e-324}), GameParams(budget=1.0, max_rounds=3))
        for rec in outcome.history:
            assert all(math.isfinite(v) for v in rec.state.held.values())
            assert sum(rec.state.held.values()) == pytest.approx(1.0)


class TestBestResponseRound:
    """One best-response round: run_game's only record at max_rounds 1."""

    def test_single_node_network(self):
        """No neighbors, no proposal: the lone node rejects and keeps the budget."""
        net = quick_net(1, [])
        st = state_of({0: 1.0})
        record = first_round(net, st, GameParams(budget=1.0))
        new_state, strategies, utilities = record.state, record.strategies, record.utilities
        assert strategies == {0: Strategy.REJECT}
        assert utilities == {0: 0.0}
        assert new_state.held == {0: 1.0}
        assert sum(new_state.held.values()) == 1.0

    def test_gain_called_once_per_participant_with_neighbors(self, monkeypatch):
        """The round calls the module-level gain once for each participant
        that has neighbors, in ascending id order, with its degree."""
        net = quick_net(4, [(0, 1, 0.5), (1, 2, 0.5)])  # node 3 is isolated
        calls = []
        real = game.gain
        monkeypatch.setattr(game, "gain", lambda *args: calls.append(args) or real(*args))
        strategies = first_round(net, state_of({i: 1.0 for i in range(4)}), GameParams(budget=4.0)).strategies
        assert list(strategies) == [0, 1, 2, 3]
        assert [(degree, delta) for _, degree, delta in calls] == [(1, 0.2), (2, 0.2), (1, 0.2)]

    def test_two_node_round_matches_sign_profile(self):
        """Each node accepts iff the oracle's accept-utility is strictly positive."""
        edges = [(0, 1, 0.6)]
        net = quick_net(2, edges)
        held = {0: 0.8, 1: 0.2}
        params = GameParams(budget=1.0, delta=0.2)
        utilities = round_oracle(2, edges, held, 0.0, 0.2)
        expected = {nid: utilities[nid] > 0.0 for nid in (0, 1)}

        record = first_round(net, state_of(held), params)
        new_state, strategies, realized = record.state, record.strategies, record.utilities
        assert {nid: s is Strategy.ACCEPT for nid, s in strategies.items()} == expected
        assert realized == pytest.approx({nid: max(utilities[nid], 0.0) for nid in (0, 1)}, abs=1e-12)

        offered = {
            0: held[0] + held[1] * 0.6 * 0.8,
            1: held[1] + held[0] * 0.6 * 0.8,
        }
        committed = {
            nid: offered[nid] if expected[nid] else held[nid] for nid in (0, 1)
        }
        scale = 1.0 / sum(committed.values())
        for nid in (0, 1):
            assert new_state.held[nid] == pytest.approx(committed[nid] * scale, rel=1e-12)

    def test_round_output_sums_to_budget(self):
        """The held values start below the budget (at most 11 x 10 of 150)
        and the round rescales them up to it."""
        rng = random.Random(9)
        for seed in range(10):
            net = generate_network(rng.randrange(3, 12), 0.4, seed)
            held = {i: rng.uniform(0, 10) for i in net.node_ids()}
            params = GameParams(budget=150.0)
            new_state = first_round(net, state_of(held), params).state
            assert sum(new_state.held.values()) == pytest.approx(150.0, rel=1e-9)

    def test_empty_participant_set_returns_state_unchanged(self):
        net = quick_net(2, [(0, 1, 0.5)])
        st = state_of({0: 1.0, 1: 1.0})
        params = GameParams(budget=2.0, screen_threshold=5.0)
        record = first_round(net, st, params)
        new_state, strategies, utilities = record.state, record.strategies, record.utilities
        assert new_state is st
        assert strategies == {} and utilities == {}

    def test_screening_soundness(self):
        """Nodes below the threshold at round start take no strategy; a node
        holding exactly the threshold takes part (boundary inclusive)."""
        net = quick_net(3, [(0, 1, 0.5), (1, 2, 0.5)])
        for held, expected in (({0: 10.0, 1: 0.5, 2: 4.0}, {0, 2}), ({0: 0.5, 1: 1.0, 2: 0.25}, {1})):
            params = GameParams(budget=sum(held.values()), screen_threshold=1.0)
            strategies = first_round(net, state_of(held), params).strategies
            assert set(strategies) == expected
        # The default threshold, 0.0, admits every node, those holding 0.0 too.
        strategies = first_round(net, state_of({0: 0.0, 1: 1.0, 2: 0.0}), GameParams(budget=1.0)).strategies
        assert set(strategies) == {0, 1, 2}


class TestRunGame:
    def test_fixed_point_converges_in_one_round(self):
        net = quick_net(2, [(0, 1, 0.6)])
        st = state_of({0: 60.0, 1: 40.0})
        params = GameParams(budget=100.0)
        outcome = run_game(net, st, params)
        assert outcome.converged
        assert outcome.rounds == 1
        assert outcome.history[0].cost < params.epsilon
        assert outcome.final.held == st.held

    def test_converged_implies_last_cost_below_epsilon(self):
        for seed in range(5):
            net = generate_network(10, 0.3, seed)
            st = seed_state(net, {0: 100.0})
            params = GameParams()
            outcome = run_game(net, st, params)
            assert outcome.rounds <= params.max_rounds
            if outcome.converged:
                assert outcome.history[-1].cost < params.epsilon

    def test_deterministic(self):
        net = generate_network(12, 0.3, 4)
        params = GameParams()
        a = run_game(net, seed_state(net, {3: 100.0}), params)
        b = run_game(net, seed_state(net, {3: 100.0}), params)
        assert a == b

    def test_energy_conserved_every_round(self):
        net = generate_network(15, 0.25, 2)
        st = rescale_to_budget(seed_state(net, {0: 80.0, 5: 20.0}), 100.0)
        outcome = run_game(net, st, GameParams())
        for record in outcome.history:
            assert sum(record.state.held.values()) == pytest.approx(100.0, rel=1e-9)

    def test_initial_over_budget_rejected(self):
        net = quick_net(2, [(0, 1, 0.5)])
        with pytest.raises(ValidationError, match="exceeds budget"):
            run_game(net, state_of({0: 150.0, 1: 0.0}), GameParams(budget=100.0))

    def test_partial_initial_state(self):
        """An initial state that leaves nodes 1 and 3 out is rejected before
        round 1, whatever the screening, with a message naming them."""
        net = quick_net(5, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.1), (3, 4, 0.9), (0, 4, 0.6)])
        initial = ActivationState(0, {0: 0.6, 2: 0.3, 4: 0.1}, frozenset({0, 2}))
        for screen_threshold in (0.2, 0.0, 0.7):
            params = GameParams(budget=1.0, epsilon=1e-3, screen_threshold=screen_threshold)
            with pytest.raises(ValidationError, match=r"no value for 2 node\(s\): 1, 3$"):
                run_game(net, initial, params)
        # A long list is cut after ten ids.
        net = quick_net(12, [])
        with pytest.raises(ValidationError, match=r"no value for 11 node\(s\): 1, 2, .*, 10, \.\.\.$"):
            run_game(net, ActivationState(0, {0: 1.0}, frozenset()), GameParams(budget=1.0))

    def test_negative_or_unheld_activated_initial_state_rejected(self, monkeypatch):
        """A negative or non-finite energy, or an activated id the state does
        not hold, is rejected before round 1 with check_state's message."""
        net = quick_net(3, [(0, 1, 0.5), (1, 2, 0.5)])
        monkeypatch.setattr(game, "_offer", lambda *args: pytest.fail("a round was played"))
        negative = ActivationState(0, {0: 0.5, 1: -0.25, 2: 0.25}, frozenset({0}))
        with pytest.raises(ValidationError, match="^negative energy in activation state$"):
            run_game(net, negative, GameParams(budget=1.0))
        unheld = ActivationState(0, {0: 0.5, 1: 0.25, 2: 0.25}, frozenset({0, 9}))
        with pytest.raises(ValidationError, match="^activated set contains nodes without a held value$"):
            run_game(net, unheld, GameParams(budget=1.0))
        for held in NON_FINITE_HELD:
            with pytest.raises(ValidationError, match="^non-finite energy in activation state$"):
                run_game(net, ActivationState(0, held, frozenset({0})), GameParams(budget=1.0))

    def test_steady_all_accept_rounds_share_one_activated_set(self):
        """A round that accepts the set the state before it activated keeps
        that state's frozenset, so a steady game holds one for all rounds."""
        net, initial, params = unit_budget_game(400, 10, 0)
        outcome = run_game(net, initial, params)
        assert outcome.rounds >= 3
        for record in outcome.history:
            assert list(record.strategies.values()) == [Strategy.ACCEPT] * net.n
        assert len({id(record.state.activated) for record in outcome.history}) == 1
        assert outcome.final.activated == set(net.node_ids())

        # Where only some accept, from round 4 on always the same 50 of 60.
        outcome = run_game(*unit_budget_game(60, 5, 1))
        states = [outcome.initial, *(record.state for record in outcome.history)]
        assert len({id(state.activated) for state in states[4:]}) == 1
        for before, after in zip(states, states[1:]):
            assert (before.activated is after.activated) is (before.activated == after.activated)

    def test_round_one_shares_a_full_initial_activated_set(self):
        """A first round that accepts every node keeps the initial state's
        activated set when that is the network's own all-ids set, as a
        spread whose whole network fires leaves it: a round in which every
        node accepts holds that set, as a step in which every node fires."""
        net, initial, params = unit_budget_game(400, 10, 0)
        assert initial.activated is net._id_set
        record = run_game(net, initial, params).history[0]
        assert list(record.strategies.values()) == [Strategy.ACCEPT] * net.n
        assert record.state.activated is net._id_set

    def test_round_records_keep_about_two_id_keyed_dicts(self):
        """Per round, a finished game keeps the held values and the realized
        utilities and little more: under three n-entry id -> float dicts,
        floats included. A stored strategies dict and a fresh activated set
        per round made it about four."""
        net, initial, params = unit_budget_game(400, 10, 0)
        ids = net.node_ids()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            one = dict(zip(ids, [k + 0.5 for k in range(len(ids))]))
            unit = tracemalloc.get_traced_memory()[0] - base
            del one
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            outcome = run_game(net, initial, params)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            if started:
                tracemalloc.stop()
        assert outcome.rounds >= 5
        assert kept / outcome.rounds < 3.0 * unit, kept / outcome.rounds / unit

    def test_all_accept_round_keeps_under_80_bytes_per_node(self):
        """A finished 1000-node game in which every node accepts every round
        keeps under 80 traced bytes per node per round: the held values and
        the utilities, each a tuple of floats behind a view that shares the
        network's ids, and the record itself. About 64 bytes on CPython
        3.10-3.13; an id-keyed utilities dict per round made it about 93."""
        net, initial, params = unit_budget_game(1000, 10, 0)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            outcome = run_game(net, initial, params)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            if started:
                tracemalloc.stop()
        assert outcome.rounds >= 5
        for record in outcome.history:
            assert len(record.utilities) == net.n
            assert all(u > 0.0 for u in record.utilities.values())
        per_node = kept / outcome.rounds / net.n
        assert per_node < 80.0, per_node

    def test_outcome_reads_its_round_count_off_the_history(self):
        """A finished game stores no round count; `rounds` is read off the
        history, and `final` is the last round's state."""
        outcome = run_game(*unit_budget_game(60, 5, 1))
        assert [f.name for f in dataclasses.fields(GameOutcome)] == ["final", "converged", "history", "initial"]
        assert outcome.final is outcome.history[-1].state
        assert outcome.rounds == len(outcome.history) >= 2
        with pytest.raises(AttributeError):
            outcome.rounds = 1

    def test_strategies_keyed_by_final_round_participants(self):
        net = two_cluster_net()
        st = rescale_to_budget(seed_state(net, {0: 1.0}), 1.0)
        params = GameParams(budget=1.0, epsilon=1e-3)
        outcome = run_game(net, st, params)
        last = outcome.history[-1]
        pre = outcome.initial if outcome.rounds == 1 else outcome.history[-2].state
        participants = {nid for nid in net.node_ids() if pre.held[nid] >= params.screen_threshold}
        assert set(last.strategies) == set(last.utilities) == participants

    def test_rank_stable_after_convergence(self):
        """One extra round after convergence must not reorder the ranking."""
        net = two_cluster_net()
        params = GameParams(budget=1.0, epsilon=1e-3)
        st = rescale_to_budget(seed_state(net, {0: 1.0}), 1.0)
        outcome = run_game(net, st, params)
        assert outcome.converged
        extra = first_round(net, outcome.final, params).state
        before = [nid for nid, _ in rank_nodes(outcome.final, net.n)]
        after = [nid for nid, _ in rank_nodes(extra, net.n)]
        assert before == after


def scattered_game(screen_threshold: float):
    """A budget-1 game on a 40-node generated network relabeled to ids
    3, 10, 17, ... (ascending, with gaps, so ids are not positions),
    started from a spread."""
    base = generate_network(40, 0.1, 4)
    nodes = [ConceptNode(7 * nd.id + 3, nd.label) for nd in base.nodes]
    edges = [(7 * a + 3, 7 * b + 3, w) for a, b, w in base.edges]
    net = build_network(nodes, edges)
    initial = rescale_to_budget(run_spread(net, {3: 1.0}, SpreadParams(budget=1.0)), 1.0)
    return net, initial, GameParams(budget=1.0, epsilon=1e-9, screen_threshold=screen_threshold)


class TestUtilitiesView:
    """`RoundRecord.utilities` is a read-only view over the participants'
    ids and a tuple of their realized utilities, on every round."""

    CASES = {
        "all-participants": 0.0,
        "global-screen": 0.025,
        "low-global-screen": 0.01,
        "no-participants": 2.0,
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_round_is_a_view_equal_to_the_oracle(self, case):
        """Ids ascend; the view equals its dict copy and round_oracle's
        realized utilities bit for bit; a screened-out id reads as absent;
        it takes no assignment, pickles under every protocol, and gives the
        same strategies, and the final round replays (verify_nash)."""
        net, initial, params = scattered_game(self.CASES[case])
        ids, positions = net.node_ids(), net._positions
        edges = [(positions[a], positions[b], w) for a, b, w in net.edges]
        outcome = run_game(net, initial, params)
        mixed_rounds = accepts = 0
        pre = initial
        for record in outcome.history:
            utilities = record.utilities
            assert type(utilities) is _Held
            want = round_oracle(net.n, edges, dict(enumerate(pre.held.values())), params.screen_threshold,
                                params.delta)
            participants = [ids[k] for k in want]
            assert list(utilities) == sorted(utilities) == participants
            copy = dict(utilities)
            assert type(copy) is dict and utilities == copy and copy == utilities
            assert [u.hex() for u in utilities.values()] == [(u if u > 0.0 else 0.0).hex() for u in want.values()]
            assert [copy[nid].hex() for nid in participants] == [utilities[nid].hex() for nid in participants]
            if len(participants) == net.n:
                assert utilities._ids is ids
            assert_dict_lookups(utilities)
            screened_out = [nid for nid in ids if nid not in copy]
            # A mixed round leaves some nodes out while others accept.
            mixed_rounds += bool(screened_out) and any(u > 0.0 for u in copy.values())
            for nid in screened_out + [float(nid) for nid in screened_out] + [0, ids[-1] + 1, "x", 3.5]:
                assert nid not in utilities
                assert utilities.get(nid, "") == ""
                with pytest.raises(KeyError):
                    utilities[nid]
            for nid in ids[:2]:
                with pytest.raises(TypeError):
                    utilities[nid] = 1.0
                with pytest.raises(TypeError):
                    del utilities[nid]
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(utilities, protocol))
                assert type(back) is _Held and list(back) == participants
                assert [u.hex() for u in back.values()] == [u.hex() for u in utilities.values()]
                assert pickle.loads(pickle.dumps(record, protocol)) == record
            assert record.strategies == {nid: Strategy.ACCEPT if u > 0.0 else Strategy.REJECT
                                         for nid, u in copy.items()}
            accepts += sum(u > 0.0 for u in copy.values())
            pre = record.state
        assert verify_nash(net, outcome, params)
        # Each case plays the rounds it names.
        if case == "no-participants":
            assert outcome.rounds == 1 and len(outcome.history[0].utilities) == 0
        else:
            assert outcome.rounds >= 2 and accepts > 0
            assert (mixed_rounds > 0) is (case != "all-participants")


class TestVerifyNash:
    def test_converged_outcomes_pass(self):
        for seed in range(8):
            net = generate_network(8, 0.3, seed)
            params = GameParams()
            outcome = run_game(net, seed_state(net, {0: 100.0}), params)
            if outcome.converged:
                assert verify_nash(net, outcome, params)

    @staticmethod
    def with_last_utility(outcome, nid, realized):
        last = outcome.history[-1]
        utilities = {**last.utilities, nid: realized}
        history = (*outcome.history[:-1], dataclasses.replace(last, utilities=utilities))
        return dataclasses.replace(outcome, history=history)

    def test_flipped_strategy_detected(self):
        """Forcing a strictly losing strategy into the profile must fail:
        a rejector shown as an acceptor (a positive realized utility)."""
        net = quick_net(2, [(0, 1, 0.6)])
        st = state_of({0: 60.0, 1: 40.0})
        params = GameParams(budget=100.0)
        outcome = run_game(net, st, params)
        assert verify_nash(net, outcome, params)
        utilities = round_oracle(2, [(0, 1, 0.6)], dict(outcome.history[-1].state.held)
                                 if outcome.rounds > 1 else dict(st.held), 0.0, 0.2)
        victim = min(utilities, key=utilities.get)
        assert utilities[victim] < 0.0
        assert outcome.history[-1].strategies[victim] is Strategy.REJECT
        tampered = self.with_last_utility(outcome, victim, 1.0)
        assert tampered.history[-1].strategies[victim] is Strategy.ACCEPT
        assert not verify_nash(net, tampered, params)

    def test_acceptor_shown_as_rejector_detected(self):
        """An acceptor whose realized utility is set to 0.0 reads as a
        rejector that would gain by accepting, so the profile fails."""
        net = generate_network(8, 0.3, 1)
        params = GameParams()
        outcome = run_game(net, seed_state(net, {0: 100.0}), params)
        assert verify_nash(net, outcome, params)
        assert outcome.history[-1].strategies[0] is Strategy.ACCEPT
        tampered = self.with_last_utility(outcome, 0, 0.0)
        assert tampered.history[-1].strategies[0] is Strategy.REJECT
        assert not verify_nash(net, tampered, params)

    def test_acceptor_with_another_positive_utility_detected(self):
        """The replay compares values, not only signs: an acceptor shown
        with twice the utility it realized is still shown accepting, and
        the record fails."""
        net = generate_network(8, 0.3, 1)
        params = GameParams()
        outcome = run_game(net, seed_state(net, {0: 100.0}), params)
        realized = outcome.history[-1].utilities[0]
        assert realized > 0.0
        tampered = self.with_last_utility(outcome, 0, 2.0 * realized)
        assert tampered.history[-1].strategies == outcome.history[-1].strategies
        assert not verify_nash(net, tampered, params)

    def test_participants_differing_from_the_replay_detected(self):
        """A last record that names a node the replayed offer left out, or
        leaves out one it screened in, fails whatever the utilities say."""
        net = generate_network(8, 0.3, 1)
        params = GameParams(screen_threshold=1.0)
        outcome = run_game(net, seed_state(net, {0: 50.0, 1: 30.0, 2: 20.0}), params)
        assert verify_nash(net, outcome, params)
        last = outcome.history[-1]
        outsiders = [nid for nid in net.node_ids() if nid not in last.utilities]
        assert outsiders and len(last.utilities) > 1
        assert not verify_nash(net, self.with_last_utility(outcome, outsiders[0], 0.0), params)
        first = next(iter(last.utilities))
        fewer = {nid: u for nid, u in last.utilities.items() if nid != first}
        history = (*outcome.history[:-1], dataclasses.replace(last, utilities=fewer))
        assert not verify_nash(net, dataclasses.replace(outcome, history=history), params)

    def test_outcome_without_rounds_rejected(self):
        """An outcome whose history holds no round has no final round to
        replay: a ValidationError naming the empty history, not an IndexError."""
        net = generate_network(5, 0.5, 0)
        state = seed_state(net, {0: 1.0})
        outcome = GameOutcome(state, True, (), state)
        with pytest.raises(ValidationError, match="^verify_nash: the outcome's history holds no round$"):
            verify_nash(net, outcome, GameParams(budget=1.0))

    def test_negative_or_unheld_activated_state_rejected(self, monkeypatch):
        """The state that entered the final round is validated before its
        offer is replayed, with check_state's messages."""
        net = quick_net(3, [(0, 1, 0.5), (1, 2, 0.5)])
        monkeypatch.setattr(game, "_offer", lambda *args: pytest.fail("an offer was replayed"))
        for state, message in (
            (ActivationState(0, {0: 0.5, 1: -0.25, 2: 0.25}, frozenset({0})), "negative energy in activation state"),
            (
                ActivationState(0, {0: 0.5, 1: 0.25, 2: 0.25}, frozenset({0, 9})),
                "activated set contains nodes without a held value",
            ),
            *((ActivationState(0, held, frozenset({0})), "non-finite energy in activation state") for held in NON_FINITE_HELD),
        ):
            outcome = GameOutcome(state, True, (RoundRecord(state, {}, 0.0),), state)
            with pytest.raises(ValidationError, match=f"^{message}$"):
                verify_nash(net, outcome, GameParams(budget=1.0))

    def test_small_networks_choose_the_sign_profile(self):
        """Across a 3-node weight grid, the final round accepts exactly where
        the oracle's accept-utility is strictly positive, and verify_nash
        accepts it."""
        weights = (0.0, 0.25, 0.5, 1.0)
        pairs = list(itertools.combinations(range(3), 2))
        params = GameParams(budget=1.0, delta=0.2)
        for combo in itertools.product(weights, repeat=3):
            edges = [(a, b, w) for (a, b), w in zip(pairs, combo) if w > 0.0]
            net = quick_net(3, edges)
            initial = rescale_to_budget(state_of({0: 0.7, 1: 0.2, 2: 0.1}), 1.0)
            outcome = run_game(net, initial, params)
            assert verify_nash(net, outcome, params)

            pre = outcome.initial if outcome.rounds == 1 else outcome.history[-2].state
            utilities = round_oracle(3, edges, dict(pre.held), params.screen_threshold, params.delta)
            chosen = {nid: s is Strategy.ACCEPT for nid, s in outcome.history[-1].strategies.items()}
            assert chosen == {nid: u > 0.0 for nid, u in utilities.items()}


class TestRankNodes:
    def test_direct_sort(self):
        st = state_of({0: 3.0, 1: 1.0, 2: 2.0})
        assert rank_nodes(st, 2) == [(0, 3.0), (2, 2.0)]

    def test_tie_broken_by_id(self):
        st = state_of({1: 2.0, 0: 2.0})
        assert rank_nodes(st, 2) == [(0, 2.0), (1, 2.0)]

    def test_k_beyond_n_returns_all(self):
        st = state_of({0: 1.0, 1: 2.0})
        assert len(rank_nodes(st, 10)) == 2

    def test_nan_energy_raises(self):
        """Sorting by -energy once ranked around a NaN and returned
        [(0, 1.0), (1, nan), (2, 2.0)] here; infinities still rank."""
        st = state_of({0: 1.0, 1: math.nan, 2: 2.0, 3: 0.5})
        with pytest.raises(ValidationError, match="^rank_nodes: node 1 holds NaN energy$"):
            rank_nodes(st, 3)
        st = state_of({0: 1.0, 1: math.inf, 2: -math.inf})
        assert rank_nodes(st, 3) == [(1, math.inf), (0, 1.0), (2, -math.inf)]

    def test_k_must_be_positive(self):
        # A float or nan k once raised a bare TypeError from the slice,
        # and True returned one node.
        for k in (0, 2.5, True, math.nan):
            with pytest.raises(ValidationError, match=f"^k {re.escape(repr(k))} must be an int >= 1$"):
                rank_nodes(state_of({0: 1.0}), k)


class TestGameParams:
    def test_epsilon_must_be_positive(self):
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                GameParams(epsilon=epsilon)

    def test_real_valued_fields_reject_bools(self):
        """True and False would pass every range check as 1 and 0."""
        for field in ("epsilon", "screen_threshold", "delta"):
            for flag in (True, False):
                with pytest.raises(ValidationError, match=f"^{field} {flag} is not a number$"):
                    GameParams(**{field: flag})

    def test_non_finite_budget_and_screen_threshold_rejected(self):
        for bad in (math.nan, math.inf, -math.inf, -0.1):
            with pytest.raises(ValidationError, match="budget"):
                GameParams(budget=bad)
            with pytest.raises(ValidationError, match="screen_threshold"):
                GameParams(screen_threshold=bad)

    def test_screen_threshold_is_one_number_defaulting_to_zero(self):
        """One number screens every node: 0.0 by default, and None is
        refused like any other non-number."""
        assert GameParams().screen_threshold == 0.0
        with pytest.raises(ValidationError, match="^screen_threshold None is not a number$"):
            GameParams(screen_threshold=None)

    def test_bad_budget_reported_before_the_epsilon_derived_from_it(self):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValidationError, match=f"budget {bad} must be finite"):
                GameParams(epsilon=1e-3 * bad, budget=bad)

    @pytest.mark.parametrize("budget", [1.0, 100.0, 844.4, 1e6])
    def test_epsilon_derived_from_the_budget(self, budget):
        assert GameParams(budget=budget).epsilon.hex() == (1e-3 * budget).hex()
        assert GameParams(epsilon=0.5, budget=budget).epsilon == 0.5

    def test_max_rounds_at_least_one(self):
        for bad in (0, 2.5, math.inf, math.nan, True):
            with pytest.raises(ValidationError, match=re.escape(f"max_rounds {bad!r} must be an int >= 1")):
                GameParams(max_rounds=bad)

    def test_delta_in_unit_interval(self):
        with pytest.raises(ValidationError, match=r"^delta -0\.1 outside \[0, 1\]$"):
            GameParams(delta=-0.1)
