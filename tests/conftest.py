"""Shared network builders and game helpers for the test suite."""

import dataclasses
import math
from collections.abc import Mapping

import pytest

from semgame.game import GameParams, RoundRecord, run_game
from semgame.network import ConceptNode, SemanticNetwork, build_network
from semgame.spreading import ActivationState

# Network files that are malformed below the record level: the bytes
# written, and the start (after the path) and a stable part of the
# message their reader's ValidationError gives.
MALFORMED_NETWORK_FILES = {
    "not-utf-8": (b'{"nodes": [{"id": 0, "label": "\xff"}], "edges": []}',
                  "cannot read {path}: ", "'utf-8' codec can't decode byte 0xff in position 31"),
    "nested-100000-deep": (b"[" * 100_000 + b"]" * 100_000,
                           "{path}: invalid JSON: ", "maximum recursion depth exceeded"),
    "5000-digit-id": (b'{"nodes": [{"id": ' + b"1" * 5000 + b', "label": "a"}], "edges": []}',
                      "{path}: invalid JSON: ", "Exceeds the limit (4300 digits) for integer string conversion"),
}


def quick_net(n: int, edges: list[tuple[int, int, float]]) -> SemanticNetwork:
    """Network with nodes 0..n-1 labeled n0..n{n-1} and the given edges."""
    nodes = [ConceptNode(id=i, label=f"n{i}") for i in range(n)]
    return build_network(nodes, edges)


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


def assert_dict_lookups(view: Mapping) -> None:
    """`in`, `.get` and `[]` on a read-only view answer as on its dict copy.

    Each id and each key hash-equal to one (its float, its complex, and
    True or False where 1 or 0 is an id) finds that id's value; None,
    nan, "x", -1 and one past the last id, as an int and as a complex,
    are absent, and `[]` raises KeyError for them. An unhashable key
    raises TypeError from the view as from the copy.
    """
    copy = dict(view.items())
    ids = list(copy)
    past = (ids[-1] if ids else 0) + 1
    absent = [None, math.nan, "x", -1, past, complex(past)]
    assert not any(key in copy for key in absent)
    for key in [*ids, *map(float, ids), *map(complex, ids), True, False, *absent]:
        if key in copy:
            assert key in view and view.get(key) is copy[key] and view[key] is copy[key]
        else:
            assert key not in view and view.get(key, "") == ""
            with pytest.raises(KeyError):
                view[key]
    for lookup in (copy.__contains__, copy.get, copy.__getitem__,
                   view.__contains__, view.get, view.__getitem__):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            lookup([])
