"""Relatedness on planted partitions: tests that centrality cannot pass.

On criterion 10's data a scorer that ignores the source does as well as
the model (ROADMAP item 1). Here the data has known structure: 4 blocks
of 25 nodes, dense inside a block and sparse across, and a pair counts
as related iff both nodes sit in one block. The model must rank the
200 pairs better than the source-blind centrality scorer. Personalized
PageRank is printed as a reference, not held to a bound.

Multi-cue retrieval, the paper's comprehension task, is scored on the
same networks: three neighbours of a target share the budget as
sources, and the target should rank among the top 5 non-cue nodes.

    PYTHONPATH=src python tests/test_instrument.py [SEED ...]

prints the three rhos and both retrieval hit counts per seed (default
seeds 0-2).
"""

import itertools
import random
import sys

import pytest

from semgame.evaluate import evaluate_pairs, spearman
from semgame.network import ConceptNode, PairJudgment, build_network
from semgame.spreading import SpreadParams, run_spread

from oracles import centrality_scores, personalized_pagerank, planted_partition

BLOCKS, SIZE, P_IN, P_OUT, N_PAIRS = 4, 25, 0.3, 0.01, 200
BUDGET, DELTA = 100.0, 0.2
# CLI defaults: the fire threshold is derived from the budget.
SPREAD = SpreadParams(delta=DELTA, budget=BUDGET)
PPR_ALPHA = 0.2
TARGETS, CUES, TOP = 40, 3, 5


def planted(seed: int):
    """One seed's planted partition: (n, edges, network)."""
    n, edges = planted_partition(BLOCKS, SIZE, P_IN, P_OUT, seed)
    net = build_network([ConceptNode(id=i, label=f"c{i}") for i in range(n)], edges)
    return n, edges, net


def rhos(seed: int) -> dict[str, float]:
    """Spearman rho against same-block truth for the model (no game),
    the centrality scorer and personalized PageRank, over one seed's
    planted partition and pairs."""
    n, edges, net = planted(seed)
    pairs = random.Random(seed).sample(list(itertools.combinations(range(n), 2)), N_PAIRS)
    truth = [1.0 if a // SIZE == b // SIZE else 0.0 for a, b in pairs]

    judgments = [PairJudgment(f"c{a}", f"c{b}", t) for (a, b), t in zip(pairs, truth)]
    model = evaluate_pairs(net, judgments, SPREAD, None).rho

    # Both reference scores are read as the model's are: the other
    # node's score relative to the peak, averaged over both directions.
    c = centrality_scores(n, edges, DELTA)
    centrality = spearman(truth, [(c[a] + c[b]) / 2.0 for a, b in pairs])

    ppr = {}
    for s in sorted({x for pair in pairs for x in pair}):
        p = personalized_pagerank(n, edges, s, PPR_ALPHA)
        ppr[s] = [x / max(p) for x in p]
    pagerank = spearman(truth, [(ppr[a][b] + ppr[b][a]) / 2.0 for a, b in pairs])
    return {"model": model, "centrality": centrality, "pagerank": pagerank}


def retrieval_hits(seed: int) -> dict[str, int]:
    """Targets ranked in the top 5 non-cue nodes, for the model (no game)
    and the centrality scorer, over one seed's 40 retrievals.

    Targets are the first 40 nodes of a seeded shuffle that have at
    least 3 neighbours; each target's 3 cues are sampled from its
    neighbours and hold a third of the budget each.
    """
    n, edges, net = planted(seed)
    neighbours = [set() for _ in range(n)]
    for a, b, _ in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    targets = [v for v in order if len(neighbours[v]) >= CUES][:TARGETS]
    centrality = centrality_scores(n, edges, DELTA)
    hits = {"model": 0, "centrality": 0}
    for target in targets:
        cues = rng.sample(sorted(neighbours[target]), CUES)
        held = run_spread(net, dict.fromkeys(cues, BUDGET / CUES), SPREAD).held
        for name, score in (("model", held), ("centrality", centrality)):
            ranked = sorted((v for v in range(n) if v not in cues), key=lambda v: (-score[v], v))
            hits[name] += target in ranked[:TOP]
    return hits


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_model_beats_source_blind_centrality_on_planted_partitions(seed):
    got = rhos(seed)
    print(f"seed {seed}: " + ", ".join(f"{k} {v:.3f}" for k, v in got.items()))
    assert got["model"] > got["centrality"]


def test_multi_cue_retrieval_beats_source_blind_centrality():
    """Summed over seeds 0-2: per seed the margins are a few hits, so
    only the total is bounded."""
    per_seed = [retrieval_hits(seed) for seed in (0, 1, 2)]
    print("hit@5 per seed:", per_seed)
    assert sum(h["model"] for h in per_seed) > sum(h["centrality"] for h in per_seed)


if __name__ == "__main__":
    for seed in map(int, sys.argv[1:] or ["0", "1", "2"]):
        got = rhos(seed)
        hits = retrieval_hits(seed)
        print(seed, " ".join(f"{k}={v:.3f}" for k, v in got.items()),
              " ".join(f"hit@{TOP}_{k}={v}/{TARGETS}" for k, v in hits.items()))
