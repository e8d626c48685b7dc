"""Relatedness on planted partitions: a test that centrality cannot pass.

On criterion 10's data a scorer that ignores the source does as well as
the model (ROADMAP item 1). Here the data has known structure: 4 blocks
of 25 nodes, dense inside a block and sparse across, and a pair counts
as related iff both nodes sit in one block. The model must rank the
200 pairs better than the source-blind centrality scorer. Personalized
PageRank is printed as a reference, not held to a bound.

    PYTHONPATH=src python tests/test_instrument.py [SEED ...]

prints the three rhos per seed (default seeds 0-2).
"""

import itertools
import random
import sys

import pytest

from semgame.evaluate import evaluate_pairs, spearman
from semgame.network import ConceptNode, PairJudgment, WeightedEdge, build_network
from semgame.spreading import SpreadParams

from oracles import centrality_scores, personalized_pagerank, planted_partition

BLOCKS, SIZE, P_IN, P_OUT, N_PAIRS = 4, 25, 0.3, 0.01, 200
BUDGET, DELTA = 100.0, 0.2
# CLI defaults: the fire threshold is derived from the budget.
SPREAD = SpreadParams(delta=DELTA, budget=BUDGET)
PPR_ALPHA = 0.2


def rhos(seed: int) -> dict[str, float]:
    """Spearman rho against same-block truth for the model (no game),
    the centrality scorer and personalized PageRank, over one seed's
    planted partition and pairs."""
    n, edges = planted_partition(BLOCKS, SIZE, P_IN, P_OUT, seed)
    pairs = random.Random(seed).sample(list(itertools.combinations(range(n), 2)), N_PAIRS)
    truth = [1.0 if a // SIZE == b // SIZE else 0.0 for a, b in pairs]

    net = build_network(
        [ConceptNode(id=i, label=f"c{i}") for i in range(n)],
        [WeightedEdge(a, b, w) for a, b, w in edges],
    )
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_model_beats_source_blind_centrality_on_planted_partitions(seed):
    got = rhos(seed)
    print(f"seed {seed}: " + ", ".join(f"{k} {v:.3f}" for k, v in got.items()))
    assert got["model"] > got["centrality"]


if __name__ == "__main__":
    for seed in map(int, sys.argv[1:] or ["0", "1", "2"]):
        got = rhos(seed)
        print(seed, " ".join(f"{k}={v:.3f}" for k, v in got.items()))
