"""Weighted semantic networks and judgment datasets: data model, validation, file I/O.

A network is an undirected graph of concept nodes with edge weights in
[0, 1]. Networks are immutable after construction and safe to share
across threads. `build_network` precomputes, once at load time, the
ascending id order, each id's dense position in it, and one
node-ordered adjacency (see `SemanticNetwork`); nothing is cached
later.

An edge has one form, an `(a, b, weight)` triple: `build_network`
reads triples and `edges` returns them. The network keeps each edge
once, in the adjacency, and makes no per-edge object: `edges` builds
its triples on each read. `load_network` turns the parsed JSON into
node records and two edge columns, the endpoint ids in one flat list
and the weights in an `array`, and drops it before `build_network`
runs; the build reads one edge at a time and finds duplicate edges
within each node's row rather than in a set of every pair. So at the
load's memory peak only the node records, the two columns, the
per-node rows and the adjacency being built are alive, besides the
network's own indexes. An endpoint that names a node is that node's
own `id` int, not a copy the JSON parser made, so the endpoint list
adds no ints of its own.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import ValidationError, _check_id, _check_number, _check_real

__all__ = [
    "ConceptNode",
    "SemanticNetwork",
    "PairJudgment",
    "build_network",
    "load_network",
    "save_network",
    "load_pairs",
]


@dataclass(frozen=True, slots=True)
class ConceptNode:
    """A concept: an int id (not a bool) and a non-empty str label, so
    that a saved network loads back with the same ids."""

    id: int
    label: str

    def __post_init__(self) -> None:
        _check_id("node id", self.id)
        if not isinstance(self.label, str):
            raise ValidationError(f"label {self.label!r} is not a string")
        if not self.label:
            raise ValidationError(f"node {self.id}: empty label")


@dataclass(frozen=True)
class SemanticNetwork:
    """Validated undirected weighted concept graph.

    Adjacency is symmetric by construction: every edge is indexed under
    both endpoints with the same weight.

    Two networks are equal, and hash equal, when they hold the same
    nodes in the same order and the same weighted edges: `==` and
    `hash()` read `nodes` and `_dense`, which holds every edge but not
    the input's edge order or orientation.

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
    without looking at its members.
    """

    nodes: tuple[ConceptNode, ...]
    _dense: tuple[tuple[tuple[int, float], ...], ...] = field(repr=False)
    _sorted_ids: tuple[int, ...] = field(repr=False, compare=False)
    _positions: dict[int, int] = field(repr=False, compare=False)
    _id_set: frozenset[int] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Each edge once as an `(a, b, weight)` triple, from its lower id, in
        ascending `(a, b)` order, built on each read."""
        ids = self._sorted_ids
        return tuple([(ids[x], ids[y], w) for x, row in enumerate(self._dense) for y, w in row if x < y])

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


def build_network(
    nodes: list[ConceptNode], edges: Iterable[tuple[int, int, float]]
) -> SemanticNetwork:
    """Assemble and validate a network from node records and edges.

    `edges` is read once, one `(a, b, weight)` triple at a time, so any
    iterable of triples will do, a network's own `edges` included. An
    edge is faulty when an endpoint references no node, when it is a
    self-loop, when its weight is not a number in [0, 1], or when its
    pair repeats an earlier edge's, in either orientation. The first
    faulty edge in edge order is reported, and an edge with several
    faults is reported for the first of them in that order.
    """
    seen: set[int] = set()
    for i, nd in enumerate(nodes):
        if nd.id in seen:
            raise ValidationError(f"nodes[{i}]: duplicate node id {nd.id}")
        seen.add(nd.id)
    if not seen:
        raise ValidationError("network has no nodes")

    ids = tuple(sorted(seen))
    positions = {nid: k for k, nid in enumerate(ids)}
    # Per position, the neighbours' positions and the weights, in edge order.
    targets: list[list[int]] = [[] for _ in ids]
    weights: list[list[float]] = [[] for _ in ids]
    ends = array("q")  # input order, to name a faulty edge by its index
    for i, (a, b, w) in enumerate(edges):
        x, y = positions.get(a), positions.get(b)
        # A plain float in range between two nodes is taken inline, as a
        # load reads thousands of edges; anything else is looked at closely.
        if x is None or y is None or x == y or type(w) is not float or not 0.0 <= w <= 1.0:
            _check_edge(i, a, b, w, positions, ends)
        targets[x].append(y)
        weights[x].append(w)
        targets[y].append(x)
        weights[y].append(w)
        ends.append(x)
        ends.append(y)
    # A pair given twice, in either orientation, repeats a target in a row.
    if any(len(set(ts)) < len(ts) for ts in targets):
        _reject_duplicate_pair(positions, ends)

    # Every entry is built anew once its row is sorted, so a row's tuples,
    # ints and floats sit side by side and rows follow node order; reusing
    # the ints of `positions` and the floats of the edges would leave the
    # spreading kernel chasing pointers across the heap. The copies are on
    # purpose: `y + 0` equals y, and `w * 1.0` is exact and keeps -0.0.
    dense = tuple(
        tuple([(y + 0, w * 1.0) for y, w in sorted(zip(ts, ws))])
        for ts, ws in zip(targets, weights)
    )
    # The id set holds the ids' own ints, so, built last, it leaves the
    # adjacency's layout as it is.
    return SemanticNetwork(tuple(nodes), dense, ids, positions, frozenset(ids))


def _check_edge(i: int, a, b, w, positions: dict[int, int], ends: array) -> None:
    """Raise for edge i's first fault, or for an earlier edge that repeats a
    pair; return if edge i is sound (an int weight in range, say). `ends`
    holds the endpoint positions of the edges before i."""
    if a not in positions or b not in positions:
        fault = f"endpoint {b if a in positions else a} references no node"
    elif positions[a] == positions[b]:
        fault = f"edge ({a}, {b}): self-loop"
    else:
        try:
            _check_real(f"edge ({a}, {b}): weight", w, 0, 1)
            return
        except ValidationError as exc:
            fault = str(exc)
    _reject_duplicate_pair(positions, ends)
    raise ValidationError(f"edges[{i}]: {fault}")


def _reject_duplicate_pair(positions: dict[int, int], ends: array) -> None:
    """Raise for the first edge in `ends` whose pair repeats an earlier edge's, if any."""
    ids = tuple(positions)  # ascending, as positions are
    seen: set[tuple[int, int]] = set()
    it = iter(ends)
    for i, (x, y) in enumerate(zip(it, it)):
        pair = (x, y) if x < y else (y, x)
        if pair in seen:
            raise ValidationError(f"edges[{i}]: duplicate edge for pair {(ids[pair[0]], ids[pair[1]])}")
        seen.add(pair)


def _as_id(value, what: str) -> int:
    """A node id read from JSON: an int or an integral float (not a bool, string, inf or nan)."""
    if type(value) is int:  # the common case, checked first: files hold thousands of ids
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} {value!r} is not an integer")


def _as_number(value, what: str) -> float:
    """A weight read from JSON: an int or a float (not a bool or string)."""
    if type(value) is not float:
        _check_number(what, value)
    return float(value)


_BAD_ENTRY = (ValidationError, KeyError, TypeError, ValueError, OverflowError)


def _records(data) -> tuple[list[ConceptNode], list[int], array]:
    """The node records of a JSON-format network, each one validated, and
    its edges as two columns: both endpoint ids of every edge in turn in
    one flat list, and the weights.

    Each edge entry is checked here only for its keys and types (the
    endpoints integral, the weight a number); `build_network` checks
    the rest. Keys other than a node's `id` and `label` and an edge's
    `a`, `b` and `w` are not read, so files that carry the retired
    `threshold` and `history` keys still load."""
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValidationError("network file must be an object with 'nodes' and 'edges'")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise ValidationError("network 'nodes' and 'edges' must be lists")

    nodes = []
    for i, raw in enumerate(data["nodes"]):
        try:
            nodes.append(ConceptNode(id=_as_id(raw["id"], "id"), label=raw["label"]))
        except _BAD_ENTRY as exc:
            raise ValidationError(f"nodes[{i}]: {exc}") from None

    ids = {nd.id: nd.id for nd in nodes}
    ends: list[int] = []
    weights = array("d")
    for i, raw in enumerate(data["edges"]):
        try:
            # Plain int endpoints and float weights skip the conversions: a
            # call per edge would slow the load of a file with thousands of
            # edges. Each endpoint that names a node becomes that node's own
            # id int (ints above 256 are not cached, so the parser made a
            # copy of each), and the weights are kept as machine doubles, so
            # none of the parsed JSON outlives it.
            a, b = raw["a"], raw["b"]
            if type(a) is not int or type(b) is not int:
                a, b = _as_id(a, "endpoint"), _as_id(b, "endpoint")
            w = raw["w"]
            weights.append(w if type(w) is float else _as_number(w, "weight"))
            ends.append(ids.get(a, a))
            ends.append(ids.get(b, b))
        except _BAD_ENTRY as exc:
            raise ValidationError(f"edges[{i}]: {exc}") from None
    return nodes, ends, weights


def load_network(path: str | os.PathLike[str]) -> SemanticNetwork:
    """Load and validate a network from a JSON file.

    Any invariant violation raises ValidationError with element context;
    a file that cannot be read or decoded raises one naming the path. No
    partially constructed network is ever returned.

    Of two faulty edge entries, a malformed one (a missing key, an
    endpoint that is not an integer, a weight that is not a number) is
    reported first, at the first such entry; otherwise the first faulty
    edge in edge order is, by `build_network`'s rule.
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
    nodes, ends, weights = _records(data)
    del data  # not needed while the network is built, when memory peaks
    it = iter(ends)
    edges = zip(it, it, weights)
    del ends  # so the build's last read frees the list before the adjacency is built
    return build_network(nodes, edges)


def save_network(net: SemanticNetwork, path: str | os.PathLike[str]) -> None:
    """Write the JSON file `load_network` reads back equal; equal networks save the same bytes."""
    import json

    data = {
        "nodes": [{"id": nd.id, "label": nd.label} for nd in net.nodes],
        "edges": [{"a": a, "b": b, "w": w} for a, b, w in net.edges],
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
            lines = f.read().split("\n")  # not splitlines(), which also breaks at U+2028, \f and the like
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None

    pairs: list[PairJudgment] = []
    first_data_row = True
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
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
