"""Weighted semantic networks and judgment datasets: data model, validation, file I/O.

A network is an undirected graph of concept nodes with edge weights in
[0, 1]. Networks are immutable after construction and safe to share
across threads. `build_network` precomputes, once at load time, the
ascending id order, each id's dense position in it, and one
node-ordered adjacency (see `SemanticNetwork`); nothing is cached
later.

`load_network` turns the parsed JSON into node and edge records and
drops it before `build_network` runs, and the build finds duplicate
edges within each node's row rather than in a set of every pair. So at
the load's memory peak only the records, the per-node rows and the
adjacency being built are alive, besides the network's own indexes.
An edge endpoint that names a node is that node's own `id` int, not a
copy the JSON parser made, so the edge records add no ints of their own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import ValidationError, _check_number, _check_real

__all__ = [
    "ConceptNode",
    "WeightedEdge",
    "SemanticNetwork",
    "PairJudgment",
    "build_network",
    "load_network",
    "save_network",
    "load_pairs",
]


@dataclass(frozen=True, slots=True)
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
        # A plain float in range is taken inline, as a load builds thousands
        # of nodes; anything else goes to the shared check to name the fault.
        if type(self.threshold) is not float or not 0.0 <= self.threshold < math.inf:
            _check_real(f"node {self.id}: threshold", self.threshold, 0, math.inf)
        if self.history:
            for t in self.history:
                if type(t) is not float or not 0.0 <= t < math.inf:
                    _check_real(f"node {self.id}: history entry", t, 0, math.inf)
            if any(a > b for a, b in zip(self.history, self.history[1:])):
                raise ValidationError(f"node {self.id}: history timestamps not sorted ascending")


@dataclass(frozen=True, slots=True)
class WeightedEdge:
    """Undirected link between two concepts, weight in [0, 1]."""

    a: int
    b: int
    weight: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError(f"edge ({self.a}, {self.b}): self-loop")
        # Inline for a plain float in range, as in ConceptNode.
        if type(self.weight) is not float or not 0.0 <= self.weight <= 1.0:
            _check_real(f"edge ({self.a}, {self.b}): weight", self.weight, 0, 1)


@dataclass(frozen=True)
class SemanticNetwork:
    """Validated undirected weighted concept graph.

    Adjacency is symmetric by construction: every edge is indexed under
    both endpoints with the same weight.

    Node `node_ids()[k]` sits at dense position k, and `_positions` maps
    each id to its position. `_dense[k]` holds node k's `(position,
    weight)` entries in ascending position order, which is ascending id
    order; the spreading kernel and the game round index flat lists
    with them. Each node's entries, with the position ints and weight
    floats they hold, are allocated together, in node order, so a pass
    over the whole graph walks memory in order.

    `_id_set` is the frozenset of every id, built once after `_dense`.
    A spreading step in which every node fires returns it as the new
    state's `activated`, and the next step knows it for the full set
    without looking at its members. `_thresholds[k]` is node k's
    screening threshold.
    """

    nodes: tuple[ConceptNode, ...]
    edges: tuple[WeightedEdge, ...]
    _sorted_ids: tuple[int, ...] = field(repr=False, compare=False)
    _positions: dict[int, int] = field(repr=False, compare=False)
    _dense: tuple[tuple[tuple[int, float], ...], ...] = field(repr=False, compare=False)
    _id_set: frozenset[int] = field(repr=False, compare=False)
    _thresholds: tuple[float, ...] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> tuple[int, ...]:
        """All node ids in ascending order."""
        return self._sorted_ids

    def has_node(self, node_id: int) -> bool:
        return node_id in self._positions

    def neighbors(self, node_id: int) -> tuple[tuple[int, float], ...]:
        """(neighbor id, weight) pairs in ascending id order."""
        try:
            row = self._dense[self._positions[node_id]]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None
        ids = self._sorted_ids
        return tuple([(ids[y], w) for y, w in row])

    def id_by_label(self, label: str) -> int:
        matches = [nd.id for nd in self.nodes if nd.label == label]
        if not matches:
            raise ValidationError(f"no node labeled {label!r}")
        if len(matches) > 1:
            raise ValidationError(f"label {label!r} is ambiguous (nodes {matches})")
        return matches[0]


def build_network(nodes: list[ConceptNode], edges: list[WeightedEdge]) -> SemanticNetwork:
    """Assemble and validate a network from node and edge records.

    Of the edges, the first faulty one in edge order is reported, whether
    an endpoint references no node or its pair repeats an earlier edge's.
    """
    by_id: dict[int, ConceptNode] = {}
    for i, nd in enumerate(nodes):
        if nd.id in by_id:
            raise ValidationError(f"nodes[{i}]: duplicate node id {nd.id}")
        by_id[nd.id] = nd
    if not by_id:
        raise ValidationError("network has no nodes")

    ids = tuple(sorted(by_id))
    positions = {nid: k for k, nid in enumerate(ids)}
    # Per position, the neighbours' positions and the weights, in edge order.
    targets: list[list[int]] = [[] for _ in ids]
    weights: list[list[float]] = [[] for _ in ids]
    for i, e in enumerate(edges):
        a, b = positions.get(e.a), positions.get(e.b)
        if a is None or b is None:
            _reject_duplicate_pair(edges[:i])
            missing = e.a if a is None else e.b
            raise ValidationError(f"edges[{i}]: endpoint {missing} references no node")
        w = e.weight
        targets[a].append(b)
        weights[a].append(w)
        targets[b].append(a)
        weights[b].append(w)
    # A pair given twice, in either orientation, repeats a target in a row.
    if any(len(set(ts)) < len(ts) for ts in targets):
        _reject_duplicate_pair(edges)

    # Every entry is built anew once its row is sorted, so a row's tuples,
    # ints and floats sit side by side and rows follow node order; reusing
    # the ints of `positions` and the floats of the edges would leave the
    # spreading kernel chasing pointers across the heap. The copies are on
    # purpose: `y + 0` equals y, and `w * 1.0` is exact and keeps -0.0.
    dense = tuple(
        tuple([(y + 0, w * 1.0) for y, w in sorted(zip(ts, ws))])
        for ts, ws in zip(targets, weights)
    )
    # The id set holds the ids' own ints and the thresholds the nodes' own
    # floats, so, built last, they leave the adjacency's layout as it is.
    return SemanticNetwork(tuple(nodes), tuple(edges), ids, positions, dense, frozenset(ids),
                           tuple([by_id[nid].threshold for nid in ids]))


def _reject_duplicate_pair(edges: list[WeightedEdge]) -> None:
    """Raise for the first edge whose pair repeats an earlier edge's, if any."""
    seen: set[tuple[int, int]] = set()
    for i, e in enumerate(edges):
        pair = (e.a, e.b) if e.a < e.b else (e.b, e.a)
        if pair in seen:
            raise ValidationError(f"edges[{i}]: duplicate edge for pair {pair}")
        seen.add(pair)


def _as_id(value, what: str) -> int:
    """A node id read from JSON: an int or an integral float (not a bool, string, inf or nan)."""
    if type(value) is int:  # the common case, checked first: files hold thousands of ids
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} {value!r} is not an integer")


def _as_number(value, what: str) -> float:
    """A threshold, timestamp or weight read from JSON: an int or a float (not a bool or string)."""
    if type(value) is not float:
        _check_number(what, value)
    return float(value)


_BAD_ENTRY = (ValidationError, KeyError, TypeError, ValueError, OverflowError)


def _records(data) -> tuple[list[ConceptNode], list[WeightedEdge]]:
    """The node and edge records of a JSON-format network, each one validated."""
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValidationError("network file must be an object with 'nodes' and 'edges'")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise ValidationError("network 'nodes' and 'edges' must be lists")

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

    ids = {nd.id: nd.id for nd in nodes}
    edges = []
    for i, raw in enumerate(data["edges"]):
        try:
            # Plain int endpoints skip _as_id and the record is built
            # positionally: a call and keyword matching per edge would slow
            # the load of a file with thousands of edges. Each endpoint that
            # names a node becomes that node's own id int (ints above 256 are
            # not cached, so the parser made a copy of each).
            a, b = raw["a"], raw["b"]
            if type(a) is not int or type(b) is not int:
                a, b = _as_id(a, "endpoint"), _as_id(b, "endpoint")
            # The weight is copied (`* 1.0` is exact and keeps -0.0): the
            # parsed weights share allocator pools with the parsed endpoint
            # ints, and kept between the ints' holes they would make
            # build_network fill those holes with the adjacency's ints and
            # floats out of row order, slowing spreading about 5% on a
            # loaded 10k-node network.
            edges.append(WeightedEdge(ids.get(a, a), ids.get(b, b), _as_number(raw["w"], "weight") * 1.0))
        except _BAD_ENTRY as exc:
            raise ValidationError(f"edges[{i}]: {exc}") from None
    return nodes, edges


def load_network(path: str | os.PathLike[str]) -> SemanticNetwork:
    """Load and validate a network from a JSON file.

    Any invariant violation raises ValidationError with element context;
    a file that cannot be read or decoded raises one naming the path. No
    partially constructed network is ever returned.
    """
    import json  # here and in save_network, so `import semgame` does not load the codec

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # nesting too deep, an int literal too long
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    del text
    nodes, edges = _records(data)
    del data  # not needed while the network is built, when memory peaks
    return build_network(nodes, edges)


def save_network(net: SemanticNetwork, path: str | os.PathLike[str]) -> None:
    """Write the network as the JSON file that `load_network` reads back exactly."""
    import json

    data = {
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
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(data, indent=2) + "\n")


@dataclass(frozen=True, slots=True)
class PairJudgment:
    """A human-scored concept pair, score normalized to [0, 1]."""

    label_a: str
    label_b: str
    human_score: float

    def __post_init__(self) -> None:
        _check_real(f"pair ({self.label_a}, {self.label_b}): score", self.human_score, 0, 1)


_SCALES = ("unit", "five-point")


def load_pairs(path: str | os.PathLike[str], scale: str = "unit") -> list[PairJudgment]:
    """Load tab-separated (label_a, label_b, score) rows, normalizing scores.

    `scale` is "unit" for scores already in [0, 1] or "five-point" for a
    1..5 scale mapped linearly onto [0, 1]. A first row whose score
    column does not parse as a number is treated as a header. Row order
    is preserved; a leading UTF-8 byte-order mark is dropped.
    """
    if scale not in _SCALES:
        raise ValidationError(f"unknown scale {scale!r}; expected one of {_SCALES}")
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
