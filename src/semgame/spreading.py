"""Spreading activation over a semantic network.

Seed source nodes with energy, then propagate step by step: every node
that fired at the previous step transmits a copy of its held energy to
each neighbor, scaled by the edge weight and damped by the attenuation
factor. Transmission copies energy rather than moving it, so totals can
grow; the attention game (see game.py) is what enforces the fixed
energy budget.

A step in which every node fires returns the network's one all-ids
frozenset (`SemanticNetwork._id_set`) as its `activated`, so a spread
whose whole network keeps firing holds one set for all those steps, and
the next step reads it as every position without sorting it.

Every state the package builds holds a read-only `_Held` view, which
the next step reads without a copy; `dict(state.held.items())` gives a
mutable or JSON-ready copy. One view type serves every state and every
game round's utilities: it holds ascending ids and their values, and
finds an id by bisecting its own ids.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import ItemsView, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .errors import ValidationError, _check_budget, _check_limit, _check_real
from .network import SemanticNetwork

__all__ = [
    "ActivationState",
    "SpreadParams",
    "seed_state",
    "step",
    "iter_spread",
    "run_spread",
]

@dataclass(frozen=True)
class ActivationState:
    """Per-node energies at one time step.

    `held` is what each node currently holds; `activated` is the set of
    nodes that fired (or, after a game round, accepted) at this step.
    Package-built states hold a read-only view; `dict(state.held.items())`
    copies it.
    """

    t: int
    held: Mapping[int, float]
    activated: frozenset[int]


class _Held(Mapping):
    """Read-only id -> value mapping over ascending ids and a tuple of
    values by their position. It finds an id by bisecting its own ids,
    so it adds no index to them: a state's view holds its network's
    `node_ids()`, and a screened round's utilities only the participants'
    ids. `values()` is the tuple; `items()` is a dict built from it."""

    __slots__ = ("_ids", "_values")

    def __init__(self, ids: tuple[int, ...], values: tuple[float, ...]) -> None:
        self._ids, self._values = ids, values

    def __getitem__(self, nid: int) -> float:
        ids = self._ids
        hash(nid)  # an unhashable key raises TypeError, as from a dict
        try:
            k = bisect_left(ids, nid)
        except TypeError:  # not orderable against the ids: find an equal one, as the dict copy does
            k = ids.index(nid) if nid in ids else len(ids)
        if k < len(ids) and ids[k] == nid:
            return self._values[k]
        raise KeyError(nid)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def values(self) -> tuple[float, ...]:
        return self._values

    def items(self) -> ItemsView[int, float]:
        return dict(zip(self._ids, self._values)).items()

    def __repr__(self) -> str:
        return repr(dict(zip(self._ids, self._values)))

    def __reduce__(self) -> tuple:
        # Protocols 0 and 1 cannot rebuild a slotted object on their own.
        return _Held, (self._ids, self._values)


@dataclass(frozen=True)
class SpreadParams:
    """Knobs for spreading activation.

    `delta` is the attenuation factor, `fire_threshold` the held energy
    a changed node needs to fire, and `budget` the energy the sources
    may hold in total. Left as None, `fire_threshold` is derived as
    1e-6·budget, the CLI's default. The derived value is stored, so
    `dataclasses.replace(p, budget=...)` keeps it; pass
    `fire_threshold=None` as well to derive it from the new budget.
    """

    delta: float = 0.2
    fire_threshold: float | None = None
    max_steps: int = 20
    budget: float = 100.0

    def __post_init__(self) -> None:
        # The budget first: the default fire_threshold is derived from it.
        _check_budget(self.budget)
        if self.fire_threshold is None:
            object.__setattr__(self, "fire_threshold", 1e-6 * self.budget)
        _check_real("delta", self.delta, 0, 1)
        _check_real("fire_threshold", self.fire_threshold, 0, math.inf)
        _check_limit("max_steps", self.max_steps)


def check_state(net: SemanticNetwork, state: ActivationState) -> None:
    """Validate a state against its companion network: a finite,
    non-negative value for every node and for no other id, and an
    activated set of held ids only."""
    for key in state.held:
        if not net.has_node(key):
            raise ValidationError(f"state holds unknown node id {key}")
    missing = [nid for nid in net.node_ids() if nid not in state.held]
    if missing:
        shown = ", ".join(map(str, missing[:10])) + (", ..." if len(missing) > 10 else "")
        raise ValidationError(f"state holds no value for {len(missing)} node(s): {shown}")
    if any(v < 0 for v in state.held.values()):
        raise ValidationError("negative energy in activation state")
    if not all(math.isfinite(v) for v in state.held.values()):
        raise ValidationError("non-finite energy in activation state")
    if not state.activated <= set(state.held):
        raise ValidationError("activated set contains nodes without a held value")


def _check_within_budget(energies: Iterable[float], budget: float, what: str) -> None:
    """Raise unless the energies total at most the budget, give or take
    a relative 1e-12 for rounding in the total."""
    total = sum(energies)
    if total > budget * (1 + 1e-12):
        raise ValidationError(f"{what} {total} exceeds budget {budget}")


def seed_state(net: SemanticNetwork, sources: Mapping[int, float]) -> ActivationState:
    """Initial state: sources hold their energies and are marked activated."""
    for nid, energy in sources.items():
        if not net.has_node(nid):
            raise ValidationError(f"source id {nid} not in network")
        _check_real(f"source {nid}: energy", energy, 0, math.inf)
    ids = net.node_ids()
    held = _Held(ids, tuple([float(sources.get(nid, 0.0)) for nid in ids]))
    return ActivationState(0, held, frozenset(sources))


def _left_sum(values: Iterable[float]) -> float:
    """Sum left to right from the int 0, as `sum()` did before Python 3.12.

    From 3.12 `sum()` over floats is compensated, which changes the last
    bits; every sum that reaches an artefact goes through here so the
    artefacts are the same bytes on every supported Python.
    """
    total = 0
    for v in values:
        total += v
    return total


def _held_list(net: SemanticNetwork, state: ActivationState) -> tuple[Sequence[float], list[int]]:
    """`state.held` by dense position (entry k is node `net.node_ids()[k]`)
    and the activated nodes' positions, ascending.

    A read-only view over this network's own ids, as every package-built
    state holds, is read as its values tuple with no copy; any other
    mapping by a subscript per id. Either read, one length check, a
    C-level min() and sum() find every fault check_state names; only
    then does it run, to raise naming the fault. (Finite values whose
    total overflows are valid.) When `activated` is the network's
    `_id_set`, the firing positions are all of them: the reads have
    already found held to hold exactly the network's ids.
    """
    held, ids, positions = state.held, net.node_ids(), net._positions
    try:
        values = held._values if type(held) is _Held and held._ids is ids else [held[nid] for nid in ids]
        if state.activated is net._id_set:
            firing = list(range(len(ids)))
        else:
            firing = sorted([positions[nid] for nid in state.activated])
    except KeyError:
        values = firing = None
    # min() misses a NaN after the first position; sum() carries it.
    if values is None or len(values) != len(held) or not (
        min(values, default=0.0) >= 0.0 and math.isfinite(sum(values))
    ):
        check_state(net, state)
    return values, firing


def _spread_once(
    net: SemanticNetwork, values: Sequence[float], firing: Sequence[int], delta: float
) -> list[float]:
    """Every node's held value plus what arrives from the firing set.

    `values` (a list or tuple) and the result are by dense position:
    entry k is node `net.node_ids()[k]`. `firing` holds positions in
    ascending order, which is ascending id order, so each target sums its
    arrivals `o * w * keep` left to right in ascending source order,
    starting from 0.0, and only then adds them to its own value: bit
    for bit what tests/oracles.step_oracle and criterion 2 compute.

    When every position fires, each target pulls its arrivals over its
    own row in one pass instead. Rows are symmetric and ascending by
    position, so a target adds the same products in the same ascending
    source order from 0.0, and the pull gives the push's floats. Any
    smaller frontier is pushed, so its cost follows the firing set.
    """
    adjacency = net._dense
    keep = 1.0 - delta
    if len(firing) == len(values):
        new = []
        for v, row in zip(values, adjacency):
            a = 0.0
            for x, w in row:
                a = a + values[x] * w * keep
            new.append(v + a)
        return new
    arriving = [0.0] * len(values)
    for x in firing:
        o = values[x]
        for y, w in adjacency[x]:
            # Accumulated here, never with sum(): from Python 3.12 sum()
            # of floats is compensated, which changes the last bit. And
            # left to right: folding w * keep changes it too. Not `+=`:
            # float has no __iadd__, so both forms make the same float_add
            # call, but from 3.11 `+=` on a subscript adds COPY/SWAP stack
            # shuffles per edge.
            arriving[y] = arriving[y] + o * w * keep
    return [v + a for v, a in zip(values, arriving)]


def step(net: SemanticNetwork, state: ActivationState, params: SpreadParams) -> ActivationState:
    """One synchronous propagation step.

    Every node adds the energy arriving from all activated neighbors.
    A node fires at the new step iff its held energy changed and sits
    at or above the fire threshold; unchanged nodes never re-fire. The
    state must hold a finite, non-negative value for every node and for
    no other id, and fire only nodes it holds. A step whose total
    overflows to a non-finite value raises. When every node fires, the
    new state's `activated` is the network's `_id_set`, not a new set,
    and its `held` a read-only view; `dict(state.held.items())` copies it.
    """
    ids, threshold = net.node_ids(), params.fire_threshold
    values, firing = _held_list(net, state)
    new = _spread_once(net, values, firing, params.delta)
    if not math.isfinite(sum(new)):
        raise ValidationError(f"spreading overflowed to a non-finite total at step {state.t + 1}")
    fired = [nid for nid, v, old in zip(ids, new, values) if v >= threshold and v != old]
    activated = net._id_set if len(fired) == len(ids) else frozenset(fired)
    return ActivationState(state.t + 1, _Held(ids, tuple(new)), activated)


def iter_spread(
    net: SemanticNetwork, sources: Mapping[int, float], params: SpreadParams
) -> Iterator[ActivationState]:
    """Yield the seed state and every step until quiescence or max_steps."""
    if not sources:
        raise ValidationError("sources must be non-empty")
    _check_within_budget(sources.values(), params.budget, "source energy")
    state = seed_state(net, sources)
    yield state
    while state.activated and state.t < params.max_steps:
        state = step(net, state, params)
        yield state


def run_spread(
    net: SemanticNetwork, sources: Mapping[int, float], params: SpreadParams
) -> ActivationState:
    """Spread from the sources until no node fires or max_steps is hit."""
    state = None
    for state in iter_spread(net, sources, params):
        pass
    assert state is not None
    return state
