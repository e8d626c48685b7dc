"""Weighted semantic networks and judgment datasets: data model, validation, file I/O.

A network is an undirected graph of concept nodes with edge weights in
[0, 1]. Networks are immutable after construction and safe to share
across threads; all mutation-free accessors precompute nothing beyond
the adjacency index built at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError

__all__ = [
    "ConceptNode",
    "WeightedEdge",
    "SemanticNetwork",
    "PairJudgment",
    "build_network",
    "load_network",
    "save_network",
    "network_from_dict",
    "network_to_dict",
    "load_pairs",
    "total_weight_sum",
]


@dataclass(frozen=True)
class ConceptNode:
    """A concept with an activation-energy threshold and a past-use history.

    `history` holds timestamps of past activations, sorted ascending.
    `threshold` is the minimum held energy this node needs to take part
    in a game round (unless a global screening threshold overrides it).
    """

    id: int
    label: str
    threshold: float = 0.0
    history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.label:
            raise ValidationError(f"node {self.id}: empty label")
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ValidationError(f"node {self.id}: threshold {self.threshold} must be finite and >= 0")
        if any(not math.isfinite(t) or t < 0 for t in self.history):
            raise ValidationError(f"node {self.id}: negative or non-finite history timestamp")
        if any(a > b for a, b in zip(self.history, self.history[1:])):
            raise ValidationError(f"node {self.id}: history timestamps not sorted ascending")


@dataclass(frozen=True)
class WeightedEdge:
    """Undirected link between two concepts, weight in [0, 1]."""

    a: int
    b: int
    weight: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError(f"edge ({self.a}, {self.b}): self-loop")
        if not 0.0 <= self.weight <= 1.0:
            raise ValidationError(
                f"edge ({self.a}, {self.b}): weight {self.weight} outside [0, 1]"
            )


@dataclass(frozen=True)
class SemanticNetwork:
    """Validated undirected weighted concept graph.

    Adjacency is symmetric by construction: every edge is indexed under
    both endpoints with the same weight.
    """

    nodes: tuple[ConceptNode, ...]
    edges: tuple[WeightedEdge, ...]
    _adjacency: dict[int, tuple[tuple[int, float], ...]] = field(repr=False, compare=False)
    _by_id: dict[int, ConceptNode] = field(repr=False, compare=False)
    _sorted_ids: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> tuple[int, ...]:
        """All node ids in ascending order."""
        return self._sorted_ids

    def has_node(self, node_id: int) -> bool:
        return node_id in self._adjacency

    def node(self, node_id: int) -> ConceptNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def neighbors(self, node_id: int) -> tuple[tuple[int, float], ...]:
        """(neighbor id, weight) pairs in ascending id order."""
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def id_by_label(self, label: str) -> int:
        matches = [nd.id for nd in self.nodes if nd.label == label]
        if not matches:
            raise ValidationError(f"no node labeled {label!r}")
        if len(matches) > 1:
            raise ValidationError(f"label {label!r} is ambiguous (nodes {matches})")
        return matches[0]


def build_network(nodes: list[ConceptNode], edges: list[WeightedEdge]) -> SemanticNetwork:
    """Assemble and validate a network from node and edge records."""
    seen_ids: set[int] = set()
    for i, nd in enumerate(nodes):
        if nd.id in seen_ids:
            raise ValidationError(f"nodes[{i}]: duplicate node id {nd.id}")
        seen_ids.add(nd.id)

    seen_pairs: set[tuple[int, int]] = set()
    adjacency: dict[int, list[tuple[int, float]]] = {nd.id: [] for nd in nodes}
    for i, e in enumerate(edges):
        for endpoint in (e.a, e.b):
            if endpoint not in seen_ids:
                raise ValidationError(f"edges[{i}]: endpoint {endpoint} references no node")
        pair = (min(e.a, e.b), max(e.a, e.b))
        if pair in seen_pairs:
            raise ValidationError(f"edges[{i}]: duplicate edge for pair {pair}")
        seen_pairs.add(pair)
        adjacency[e.a].append((e.b, e.weight))
        adjacency[e.b].append((e.a, e.weight))

    frozen = {nid: tuple(sorted(nbrs)) for nid, nbrs in adjacency.items()}
    by_id = {nd.id: nd for nd in nodes}
    return SemanticNetwork(tuple(nodes), tuple(edges), frozen, by_id, tuple(sorted(frozen)))


def _as_id(value, what: str) -> int:
    """A node id read from JSON: an int or an integral float (not a bool, string, inf or nan)."""
    if type(value) is int:  # the common case, checked first: files hold thousands of ids
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} {value!r} is not an integer")


def _as_number(value, what: str) -> float:
    """A threshold, timestamp or weight read from JSON: an int or a float (not a bool or string)."""
    if type(value) is float or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return float(value)
    raise ValidationError(f"{what} {value!r} is not a number")


_BAD_ENTRY = (ValidationError, KeyError, TypeError, ValueError, OverflowError)


def network_from_dict(data: dict) -> SemanticNetwork:
    """Build a validated network from the JSON-format dict."""
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValidationError("network file must be an object with 'nodes' and 'edges'")

    nodes = []
    for i, raw in enumerate(data["nodes"]):
        try:
            if not isinstance(raw["label"], str):
                raise ValidationError(f"label {raw['label']!r} is not a string")
            nodes.append(
                ConceptNode(
                    id=_as_id(raw["id"], "id"),
                    label=raw["label"],
                    threshold=_as_number(raw.get("threshold", 0.0), "threshold"),
                    history=tuple(_as_number(t, "history entry") for t in raw.get("history", ())),
                )
            )
        except _BAD_ENTRY as exc:
            raise ValidationError(f"nodes[{i}]: {exc}") from None

    edges = []
    for i, raw in enumerate(data["edges"]):
        try:
            a, b = _as_id(raw["a"], "endpoint"), _as_id(raw["b"], "endpoint")
            edges.append(WeightedEdge(a=a, b=b, weight=_as_number(raw["w"], "weight")))
        except _BAD_ENTRY as exc:
            raise ValidationError(f"edges[{i}]: {exc}") from None

    return build_network(nodes, edges)


def network_to_dict(net: SemanticNetwork) -> dict:
    """Inverse of network_from_dict (round-trips exactly)."""
    return {
        "nodes": [
            {
                "id": nd.id,
                "label": nd.label,
                "threshold": nd.threshold,
                "history": list(nd.history),
            }
            for nd in net.nodes
        ],
        "edges": [{"a": e.a, "b": e.b, "w": e.weight} for e in net.edges],
    }


def load_network(path: str | Path) -> SemanticNetwork:
    """Load and validate a network from a JSON file.

    Any invariant violation raises ValidationError with element context;
    no partially constructed network is ever returned.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return network_from_dict(data)


def save_network(net: SemanticNetwork, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class PairJudgment:
    """A human-scored concept pair, score normalized to [0, 1]."""

    label_a: str
    label_b: str
    human_score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.human_score <= 1.0:
            raise ValidationError(
                f"pair ({self.label_a}, {self.label_b}): score {self.human_score} outside [0, 1]"
            )


_SCALES = ("unit", "five-point")


def load_pairs(path: str | Path, scale: str = "unit") -> list[PairJudgment]:
    """Load tab-separated (label_a, label_b, score) rows, normalizing scores.

    `scale` is "unit" for scores already in [0, 1] or "five-point" for a
    1..5 scale mapped linearly onto [0, 1]. A first row whose score
    column does not parse as a number is treated as a header. Row order
    is preserved.
    """
    if scale not in _SCALES:
        raise ValidationError(f"unknown scale {scale!r}; expected one of {_SCALES}")
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None

    pairs: list[PairJudgment] = []
    first_data_row = True
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 tab-separated columns, got {len(cols)}")
        try:
            raw = float(cols[2])
        except ValueError:
            if first_data_row:
                first_data_row = False
                continue  # header row
            raise ValidationError(f"{path}:{lineno}: score {cols[2]!r} is not a number") from None
        first_data_row = False
        if scale == "five-point":
            if not 1.0 <= raw <= 5.0:
                raise ValidationError(f"{path}:{lineno}: score {raw} outside five-point scale [1, 5]")
            score = (raw - 1.0) / 4.0
        else:
            if not 0.0 <= raw <= 1.0:
                raise ValidationError(f"{path}:{lineno}: score {raw} outside unit scale [0, 1]")
            score = raw
        pairs.append(PairJudgment(cols[0], cols[1], score))
    return pairs


def total_weight_sum(net: SemanticNetwork) -> float:
    """Sum of all edge weights, each unordered edge counted once."""
    return sum(e.weight for e in net.edges)
