"""Property tests: invariants of the pipeline on random generated networks.

Budgets 1 and 100 cover the game's two regimes: the accept rule depends
on the budget, and participants accept at 1 but reject at 100. Thresholds
scale with the budget the way the CLI sets them.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgame.errors import ValidationError
from semgame.evaluate import evaluate_pairs, relatedness, run_pipeline
from semgame.game import GameParams
from semgame.generate import generate_network
from semgame.network import ConceptNode, PairJudgment, WeightedEdge, build_network
from semgame.spreading import SpreadParams, run_spread

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def cases(draw):
    """(network, spread params, game params, a node id)."""
    n = draw(st.integers(2, 12))
    net = generate_network(n, draw(st.floats(0.05, 1.0)), draw(st.integers(0, 2**32 - 1)))
    budget = draw(st.sampled_from([1.0, 100.0]))
    sp = SpreadParams(fire_threshold=budget * 1e-6, budget=budget)
    gp = GameParams(epsilon=budget * 1e-3, budget=budget)
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
