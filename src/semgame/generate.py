"""Deterministic synthetic network builders for experiments and tests."""

from __future__ import annotations

import random

from .errors import _check_limit, _check_real
from .network import ConceptNode, SemanticNetwork, WeightedEdge, build_network

__all__ = ["generate_network", "complete_network"]


def generate_network(n: int, edge_prob: float, seed: int) -> SemanticNetwork:
    """Seeded random connected network with uniform weights in (0, 1].

    A random spanning tree guarantees connectivity; every remaining pair
    then gets an edge with probability edge_prob. The same (n,
    edge_prob, seed) triple always yields the identical network.
    """
    _check_limit("n", n, 2)
    _check_real("edge_prob", edge_prob, 0, 1, above=True)
    rng = random.Random(seed)
    nodes = [ConceptNode(id=i, label=f"c{i}") for i in range(n)]

    order = list(range(n))
    rng.shuffle(order)
    # Each node's tree neighbours with a higher id.
    tree_above: list[set[int]] = [set() for _ in range(n)]
    for pos in range(1, n):
        anchor = order[rng.randrange(pos)]
        a, b = order[pos], anchor
        tree_above[min(a, b)].add(max(a, b))

    draw = rng.random
    edges = []
    for a in range(n):
        above = tree_above[a]
        for b in range(a + 1, n):
            if b in above or draw() < edge_prob:
                edges.append(WeightedEdge(a, b, 1.0 - draw()))
    return build_network(nodes, edges)


def complete_network(n: int, weight: float = 1.0) -> SemanticNetwork:
    """Complete graph with one uniform edge weight (symmetric scenario)."""
    _check_limit("n", n, 2)
    nodes = [ConceptNode(id=i, label=f"c{i}") for i in range(n)]
    edges = [WeightedEdge(a, b, weight) for a in range(n) for b in range(a + 1, n)]
    return build_network(nodes, edges)
