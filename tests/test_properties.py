"""Property tests: invariants of the pipeline on random generated networks.

Budgets 1 and 100 cover the game's two regimes: the accept rule depends
on the budget, and participants accept at 1 but reject at 100. Thresholds
scale with the budget the way the CLI sets them.
"""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semgame.baselines import CobwebParams, run_cobweb
from semgame.errors import ValidationError
from semgame.evaluate import _all_met, _utilization_initial, evaluate_pairs, load_balance, relatedness, run_pipeline
from semgame.game import GameParams, Strategy, rescale_to_budget, run_game, verify_nash
from semgame.generate import complete_network, generate_network
from semgame.network import ConceptNode, PairJudgment, WeightedEdge, build_network
from semgame.spreading import ActivationState, SpreadParams, _Held, run_spread, seed_state, step

from conftest import first_round
from oracles import cobweb_oracle, game_oracle, round_oracle, step_oracle

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def cases(draw):
    """(network, spread params, game params, a node id)."""
    n = draw(st.integers(2, 12))
    net = generate_network(n, draw(st.floats(0.05, 1.0)), draw(st.integers(0, 2**32 - 1)))
    budget = draw(st.sampled_from([1.0, 100.0]))
    sp, gp = SpreadParams(budget=budget), GameParams(budget=budget)
    return net, sp, gp, draw(st.integers(0, n - 1))


@SETTINGS
@given(cases())
def test_every_round_holds_the_budget(case):
    net, sp, gp, source = case
    outcome = run_pipeline(net, {source: sp.budget}, sp, gp)
    for state in (outcome.initial, *(rec.state for rec in outcome.history)):
        values = list(state.held.values())
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        assert math.isclose(sum(values), gp.budget, rel_tol=1e-9)


@SETTINGS
@given(cases(), st.data())
def test_relatedness_is_bounded_symmetric_and_repeatable(case, data):
    net, sp, gp, a = case
    b = data.draw(st.integers(0, net.n - 1))
    for game in (gp, None):
        score = relatedness(net, a, b, sp, game)
        assert 0.0 <= score <= 1.0
        assert relatedness(net, b, a, sp, game) == score
        assert relatedness(net, a, b, sp, game) == score


@SETTINGS
@given(cases(), st.data())
def test_relabelling_leaves_final_energies_unchanged(case, data):
    net, sp, gp, source = case
    perm = data.draw(st.permutations(range(net.n)))
    relabelled = build_network(
        [ConceptNode(perm[nd.id], nd.label, nd.threshold, nd.history) for nd in net.nodes],
        [WeightedEdge(perm[e.a], perm[e.b], e.weight) for e in net.edges],
    )
    held = run_pipeline(net, {source: sp.budget}, sp, gp).final.held
    moved = run_pipeline(relabelled, {perm[source]: sp.budget}, sp, gp).final.held
    assert len(moved) == len(held)
    for nid, energy in held.items():
        assert math.isclose(moved[perm[nid]], energy, rel_tol=1e-9, abs_tol=1e-12)


@SETTINGS
@given(cases(), st.data())
def test_evaluate_pairs_scores_equal_per_pair_relatedness(case, data):
    net, sp, gp, _ = case
    node = st.integers(0, net.n - 1)
    ids = data.draw(st.lists(st.tuples(node, node), min_size=2, max_size=8))
    pairs = [PairJudgment(f"c{a}", f"c{b}", k / len(ids)) for k, (a, b) in enumerate(ids)]
    for game in (gp, None):
        expected = [relatedness(net, a, b, sp, game) for a, b in ids]
        if len(set(expected)) < 2:
            with pytest.raises(ValidationError, match="zero rank variance"):
                evaluate_pairs(net, pairs, sp, game)
        else:
            assert [row[3] for row in evaluate_pairs(net, pairs, sp, game).pairs] == expected


WEIGHTS = st.one_of(st.sampled_from([0.1, 0.37, 0.58, 0.91, 1.0]), st.floats(0.0, 1.0))


@st.composite
def scattered_networks(draw, weight=WEIGHTS):
    """(network, its ids ascending, its edges over positions 0..n-1).

    The ids have gaps, start below zero, and nodes and edges are listed
    in shuffled order with shuffled endpoints, so a position is never
    an id and no list is in id order.
    """
    n = draw(st.integers(1, 8))
    ids = [draw(st.integers(-50, -1))]
    for _ in range(n - 1):
        ids.append(ids[-1] + draw(st.integers(2, 30)))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(a, b, draw(weight)) for a, b in pairs if draw(st.booleans())]
    nodes = [ConceptNode(ids[k], f"c{k}") for k in draw(st.permutations(range(n)))]
    records = [
        WeightedEdge(ids[b], ids[a], w) if draw(st.booleans()) else WeightedEdge(ids[a], ids[b], w)
        for a, b, w in draw(st.permutations(edges))
    ]
    return build_network(nodes, records), ids, edges


# -0.0 is a valid weight and a valid held value (both compare >= 0.0);
# with it the sign of every zero in the step's result is compared too.
SIGNED_ZERO = st.just(-0.0)


@settings(max_examples=200, deadline=None)
@given(scattered_networks(st.one_of(SIGNED_ZERO, WEIGHTS)), st.data())
def test_step_on_scattered_ids_equals_the_oracle_bit_for_bit(case, data):
    net, ids, edges = case
    n = len(ids)
    assert net.node_ids() == tuple(ids)
    for k, nid in enumerate(ids):
        expected = sorted((ids[b if a == k else a], w) for a, b, w in edges if k in (a, b))
        assert net.neighbors(nid) == tuple(expected)

    held = data.draw(st.lists(st.one_of(SIGNED_ZERO, st.floats(0.0, 100.0)), min_size=n, max_size=n))
    # Every node firing is drawn as such: _spread_once pulls then, and a
    # random subset is the full set only with probability 2**-n.
    activated = data.draw(st.one_of(st.just(set(range(n))), st.sets(st.integers(0, n - 1))))
    delta = data.draw(st.one_of(st.sampled_from([0.0, 0.2, 0.3, 1.0]), st.floats(0.0, 1.0)))
    threshold = data.draw(st.sampled_from([0.0, 1e-6, 1.0]))
    state = ActivationState(0, dict(zip(ids, held)), frozenset(ids[k] for k in activated))
    nxt = step(net, state, SpreadParams(delta=delta, fire_threshold=threshold, budget=1.0))
    want, fired = step_oracle(n, edges, dict(enumerate(held)), activated, delta, threshold)
    assert list(nxt.held) == ids
    assert [nxt.held[nid].hex() for nid in ids] == [want[k].hex() for k in range(n)]
    assert nxt.activated == {ids[k] for k in fired}


@settings(max_examples=200, deadline=None)
@given(scattered_networks(st.floats(0.05, 1.0)), st.data())
def test_step_from_the_full_activated_set_equals_the_oracle_bit_for_bit(case, data):
    """A step in which every node fires leaves the network's own all-ids
    set as `activated`. The next step from that state equals the oracle
    bit for bit, and equals the step from a copy with an equal but
    distinct set and a held dict in reverse key order, which is read by a
    subscript per id and a lookup per activated id."""
    net, ids, edges = case
    n = len(ids)
    # With a neighbour each, held values of at least 1, weights of at
    # least 0.05 and keep at least 0.1, every node's value moves, and
    # stays at or above every drawn threshold: every node fires.
    assume(all(net._dense))
    held = data.draw(st.lists(st.floats(1.0, 100.0), min_size=n, max_size=n))
    delta = data.draw(st.one_of(st.sampled_from([0.0, 0.2]), st.floats(0.0, 0.9)))
    threshold = data.draw(st.sampled_from([0.0, 1e-6, 1.0]))
    params = SpreadParams(delta=delta, fire_threshold=threshold, budget=1.0)
    state = step(net, ActivationState(0, dict(zip(ids, held)), frozenset(ids)), params)
    assert state.activated is net._id_set

    nxt = step(net, state, params)
    values = {k: state.held[nid] for k, nid in enumerate(ids)}
    want, fired = step_oracle(n, edges, values, set(range(n)), delta, threshold)
    assert [nxt.held[nid].hex() for nid in ids] == [want[k].hex() for k in range(n)]
    assert nxt.activated == {ids[k] for k in fired}
    assert (nxt.activated is net._id_set) is (len(fired) == n)

    copy = ActivationState(state.t, dict(reversed(state.held.items())), frozenset(list(state.activated)))
    assert copy.activated == state.activated and copy.activated is not state.activated
    assert list(copy.held) != list(state.held)
    again = step(net, copy, params)
    assert list(again.held) == ids
    assert [again.held[nid].hex() for nid in ids] == [nxt.held[nid].hex() for nid in ids]
    assert again.activated == nxt.activated


@settings(max_examples=200, deadline=None)
@given(scattered_networks(), st.data())
def test_round_equals_the_oracle_bit_for_bit(case, data):
    """One round's strategies and utilities, screened by the nodes' own
    thresholds or by a global one, on networks with isolated nodes.
    Neither depends on the budget, which here only has to cover the
    drawn held values (at most 8 x 100)."""
    net, ids, edges = case
    n = len(ids)
    thresholds = data.draw(st.lists(st.sampled_from([0.0, 0.5, 5.0]), min_size=n, max_size=n))
    own = dict(zip(ids, thresholds))
    net = build_network([dataclasses.replace(nd, threshold=own[nd.id]) for nd in net.nodes], list(net.edges))
    held = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)), min_size=n, max_size=n))
    delta = data.draw(st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0)))
    screen_threshold = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 1.0, 10.0])))
    params = GameParams(delta=delta, screen_threshold=screen_threshold, budget=800.0)
    state = ActivationState(0, dict(zip(ids, held)), frozenset())
    record = first_round(net, state, params)
    strategies, utilities = record.strategies, record.utilities
    want = round_oracle(n, edges, dict(enumerate(held)), thresholds, screen_threshold, delta)
    assert list(strategies) == list(utilities) == [ids[k] for k in want]
    assert strategies == {ids[k]: Strategy.ACCEPT if u > 0.0 else Strategy.REJECT for k, u in want.items()}
    assert [u.hex() for u in utilities.values()] == [(u if u > 0.0 else 0.0).hex() for u in want.values()]


def _assert_game_equals_the_oracle(net, ids, edges, thresholds, held, activated, params):
    """run_game from `held` and `activated` (by position) against
    tests/oracles.game_oracle, record by record, by float.hex; returns
    the oracle's rounds."""
    n = len(ids)
    own = dict(zip(ids, thresholds))
    net = build_network([dataclasses.replace(nd, threshold=own[nd.id]) for nd in net.nodes], list(net.edges))
    initial = ActivationState(0, dict(zip(ids, held)), frozenset(ids[k] for k in activated))
    outcome = run_game(net, initial, params)
    rounds, converged = game_oracle(
        n, edges, dict(enumerate(held)), set(activated), thresholds, params.screen_threshold,
        params.delta, params.budget, params.epsilon, params.max_rounds,
    )
    assert len(outcome.history) == len(rounds)
    assert outcome.converged == converged
    for record, (want, want_activated, accepts, realized, want_cost) in zip(outcome.history, rounds):
        assert list(record.state.held) == ids
        assert [record.state.held[nid].hex() for nid in ids] == [want[k].hex() for k in range(n)]
        assert record.state.activated == {ids[k] for k in want_activated}
        assert list(record.strategies) == list(record.utilities) == [ids[k] for k in accepts]
        assert record.strategies == {ids[k]: Strategy.ACCEPT if a else Strategy.REJECT for k, a in accepts.items()}
        assert [u.hex() for u in record.utilities.values()] == [u.hex() for u in realized.values()]
        assert record.cost.hex() == want_cost.hex()
    return rounds


@SETTINGS
@given(scattered_networks(), st.data())
def test_game_equals_the_oracle_bit_for_bit(case, data):
    """Every round of a game (held values in id order, activated set,
    strategies, realized utilities, cost) and its convergence, at budgets
    1 and 100, screened by the nodes' own thresholds or by a global one."""
    net, ids, edges = case
    n = len(ids)
    budget = data.draw(st.sampled_from([1.0, 100.0]))
    thresholds = data.draw(st.lists(st.sampled_from([0.0, 0.05 * budget, 0.5 * budget]), min_size=n, max_size=n))
    held = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, budget / n)), min_size=n, max_size=n))
    activated = data.draw(st.sets(st.integers(0, n - 1)))
    params = GameParams(
        epsilon=budget * data.draw(st.sampled_from([1e-9, 1e-3, 0.1])),
        max_rounds=data.draw(st.integers(1, 6)),
        screen_threshold=data.draw(st.one_of(st.none(), st.sampled_from([0.0, 0.01 * budget, 0.2 * budget]))),
        delta=data.draw(st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0))),
        budget=budget,
    )
    _assert_game_equals_the_oracle(net, ids, edges, thresholds, held, activated, params)


def test_game_equals_the_oracle_without_participants_and_on_mixed_rounds():
    """Two games on scattered ids the random draws may miss: one whose
    first round has no participant, and one whose first round has
    acceptors and rejectors."""
    edges = [(0, 1, 0.37), (1, 2, 0.58)]
    ids = [-7, 4, 31]
    net = build_network(
        [ConceptNode(nid, f"c{k}") for k, nid in enumerate(ids)],
        [WeightedEdge(ids[a], ids[b], w) for a, b, w in edges],
    )
    held = [0.0, 0.0, 5.0]
    params = GameParams(budget=100.0, screen_threshold=10.0)
    rounds = _assert_game_equals_the_oracle(net, ids, edges, [0.0] * 3, held, {2}, params)
    assert len(rounds) == 1 and rounds[0][2] == {}
    params = dataclasses.replace(params, screen_threshold=None)
    rounds = _assert_game_equals_the_oracle(net, ids, edges, [0.0] * 3, held, {2}, params)
    assert set(rounds[0][2].values()) == {True, False}


def _bits(state: ActivationState) -> tuple[list, list]:
    """A state's (id, float.hex) pairs in iteration order and its activated ids."""
    return [(nid, v.hex()) for nid, v in state.held.items()], sorted(state.activated)


@SETTINGS
@given(scattered_networks(st.one_of(SIGNED_ZERO, WEIGHTS)), st.data())
def test_view_backed_states_run_as_their_dict_copies_bit_for_bit(case, data):
    """Two steps, a rescale, a game's whole history and the replay check
    give the same floats (by float.hex) from a package-built state, which
    holds a `_Held` view, from its copy holding `dict(s.held)`, and from
    the view carried to a second network built from the same nodes and
    edges, whose distinct node_ids() tuple sends the view through the
    checked read."""
    net, ids, _ = case
    n = len(ids)
    twin = build_network(list(net.nodes), list(net.edges))
    assert twin.node_ids() == net.node_ids() and twin.node_ids() is not net.node_ids()
    budget = data.draw(st.sampled_from([1.0, 100.0]))
    held = data.draw(st.lists(st.one_of(SIGNED_ZERO, st.floats(0.0, budget / n)), min_size=n, max_size=n))
    firing = data.draw(st.one_of(st.just(set(range(n))), st.sets(st.integers(0, n - 1))))
    view = dataclasses.replace(seed_state(net, dict(zip(ids, held))), activated=frozenset(ids[k] for k in firing))
    assert type(view.held) is _Held
    copy = ActivationState(view.t, dict(view.held), view.activated)
    delta = data.draw(st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0)))
    sp = SpreadParams(delta=delta, fire_threshold=data.draw(st.sampled_from([0.0, 1e-6 * budget])), budget=budget)
    gp = GameParams(
        max_rounds=data.draw(st.integers(1, 4)),
        screen_threshold=data.draw(st.one_of(st.none(), st.sampled_from([0.0, 0.01 * budget]))),
        delta=delta,
        budget=budget,
    )
    runs = []
    for network, state in ((net, view), (net, copy), (twin, view)):
        first = step(network, state, sp)
        outcome = run_game(network, state, gp)
        runs.append((
            _bits(first),
            _bits(step(network, first, sp)),
            _bits(rescale_to_budget(state, budget)),
            [(_bits(rec.state), [(k, u.hex()) for k, u in rec.utilities.items()], rec.cost.hex())
             for rec in outcome.history],
            outcome.converged,
            verify_nash(network, outcome, gp),
        ))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][-1] is True


@SETTINGS
@given(scattered_networks(), st.data())
def test_order_preserving_relabel_leaves_the_pipeline_bit_identical(case, data):
    """Renaming the ids to 0..n-1 in the same order changes no float operation."""
    net, ids, edges = case
    dense = build_network(
        [ConceptNode(k, f"c{k}") for k in range(len(ids))], [WeightedEdge(a, b, w) for a, b, w in edges]
    )
    source = data.draw(st.integers(0, len(ids) - 1))
    budget = data.draw(st.sampled_from([1.0, 100.0]))
    sp, gp = SpreadParams(budget=budget), GameParams(budget=budget)
    scattered = run_pipeline(net, {ids[source]: budget}, sp, gp)
    contiguous = run_pipeline(dense, {source: budget}, sp, gp)
    assert scattered.rounds == contiguous.rounds
    for a, b in zip((scattered.initial, scattered.final), (contiguous.initial, contiguous.final)):
        assert [a.held[nid].hex() for nid in ids] == [v.hex() for v in b.held.values()]


def _finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def cobweb_cases(draw):
    """(nodes, params, budget) that cannot overflow: the oscillation grows
    at most about (1 + r * (slopes)) ≤ 7x per cycle over ≤ 60 cycles."""
    nodes = draw(st.lists(st.tuples(_finite(-100, 100), _finite(-100, 100)), min_size=1, max_size=6))
    params = CobwebParams(
        r=draw(st.one_of(st.sampled_from([0.0, 0.2, 0.5, 0.9]), _finite(0, 1))),
        demand_slope=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), _finite(0, 3))),
        supply_slope=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), _finite(0, 3))),
        max_iters=draw(st.integers(1, 60)),
    )
    return nodes, params, draw(_finite(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(cobweb_cases())
def test_cobweb_equals_its_replay_and_stays_within_budget(case):
    nodes, params, budget = case
    run = run_cobweb(nodes, params, budget)
    grants, values, iters, converged, trace = cobweb_oracle(nodes, params, budget)
    assert run.allocations == dict(enumerate(grants))
    assert run.final_values == dict(enumerate(values))
    assert (run.iters, run.converged) == (iters, converged)
    assert [(t.iteration, t.node, t.o, t.excess_demand, t.allocated) for t in run.trace] == trace
    assert all(a >= 0.0 for a in run.allocations.values())
    # Each grant is at most what the running remainder holds; only the
    # rounding of that remainder can carry the total past the budget.
    assert math.fsum(run.allocations.values()) <= budget * (1 + 1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: spreading copies energy and always runs to max_steps, "
    "so every source ends near the same dominant eigenvector",
)
@pytest.mark.parametrize("with_game", [False, True], ids=["spread", "pipeline"])
def test_final_state_depends_on_the_source(with_game):
    """Seeding different nodes gives different unit-normalised final states."""
    sp, gp = SpreadParams(), GameParams()  # the CLI defaults at budget 100
    for seed in range(3):
        net = generate_network(200, 0.05, seed)
        finals = []
        for source in range(8):
            sources = {source: sp.budget}
            if with_game:
                final = run_pipeline(net, sources, sp, gp).final
            else:
                final = run_spread(net, sources, sp)
            values = [final.held[nid] for nid in net.node_ids()]
            norm = math.sqrt(sum(v * v for v in values))
            finals.append([v / norm for v in values])
        cosines = [sum(a * b for a, b in zip(u, w)) for u, w in itertools.combinations(finals, 2)]
        assert min(cosines) < 1 - 1e-3, (seed, min(cosines))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: at the default budget no participant accepts, so the "
    "game's final state is the rescaled spread",
)
def test_game_moves_load_balance_beyond_rescaling():
    """On load_balance_experiment's own seeds and CLI defaults, the game
    changes the load balance of the spread it starts from (outcome.initial,
    the spread rescaled to the budget) on at least one seed."""
    sp, gp = SpreadParams(), GameParams()  # the CLI defaults at budget 100
    n, edge_prob = 30, 0.15
    moves = []
    for seed in range(20):
        net = generate_network(n, edge_prob, seed)
        outcome = run_pipeline(net, {random.Random(seed).randrange(n): sp.budget}, sp, gp)
        rescaled = load_balance(outcome.initial)
        moves.append(abs(load_balance(outcome.final) - rescaled) / rescaled)
    assert max(moves) > 1e-9, max(moves)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: criterion 9's surplus case is met by spread and rescale "
    "alone, before any game round, so the game adds nothing to it",
)
def test_spread_and_rescale_alone_leave_a_surplus_demand_unmet():
    """On utilization_experiment's surplus case (six demands of 20 on
    complete_network(6), budget 120, seeds 0-9, initial values from the
    experiment's own draw), the pipeline's state before any game round
    (outcome.initial) leaves some demand unmet on at least one seed, by
    the experiment's own met test."""
    budget, demand, n = 120.0, 20.0, 6
    sp, gp = SpreadParams(budget=budget), GameParams(budget=budget)
    net = complete_network(n, 1.0)
    unmet = []
    for seed in range(10):
        outcome = run_pipeline(net, _utilization_initial(seed, n, budget), sp, gp)
        unmet.append(not _all_met(outcome.initial.held, demand))
    assert any(unmet), unmet
