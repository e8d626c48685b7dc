"""Shared network builders and game helpers for the test suite."""

import dataclasses

from semgame.game import GameParams, RoundRecord, run_game
from semgame.network import ConceptNode, SemanticNetwork, WeightedEdge, build_network
from semgame.spreading import ActivationState


def quick_net(n: int, edges: list[tuple[int, int, float]], **node_kwargs) -> SemanticNetwork:
    """Network with nodes 0..n-1 labeled n0..n{n-1} and the given edges."""
    nodes = [ConceptNode(id=i, label=f"n{i}", **node_kwargs) for i in range(n)]
    return build_network(nodes, [WeightedEdge(a, b, w) for a, b, w in edges])


def chain_net(weights: list[float]) -> SemanticNetwork:
    """Path graph n0 - n1 - ... with the given edge weights."""
    return quick_net(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])


def two_cluster_net() -> SemanticNetwork:
    """Two dense clusters joined by one weak bridge edge.

    Cluster weights are all distinct so energy rankings have no ties;
    the bridge (3, 4) carries little energy across.
    """
    edges = [
        (0, 1, 0.92), (0, 2, 0.88), (0, 3, 0.85),
        (1, 2, 0.90), (1, 3, 0.83), (2, 3, 0.87),
        (4, 5, 0.78), (4, 6, 0.72), (4, 7, 0.70),
        (5, 6, 0.75), (5, 7, 0.68), (6, 7, 0.74),
        (3, 4, 0.15),
    ]
    return quick_net(8, edges)


def first_round(net: SemanticNetwork, state: ActivationState, params: GameParams) -> RoundRecord:
    """One game round from `state`: the only record of run_game at max_rounds 1."""
    return run_game(net, state, dataclasses.replace(params, max_rounds=1)).history[0]
