"""Spreading activation over a semantic network.

Seed source nodes with energy, then propagate step by step: every node
that fired at the previous step transmits a copy of its held energy to
each neighbor, scaled by the edge weight and damped by the attenuation
factor. Transmission copies energy rather than moving it, so totals can
grow; the attention game (see game.py) is what enforces the fixed
energy budget.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .errors import ValidationError
from .network import SemanticNetwork

__all__ = [
    "ActivationState",
    "SpreadParams",
    "seed_state",
    "step",
    "iter_spread",
    "run_spread",
    "initial_activation",
]

@dataclass(frozen=True)
class ActivationState:
    """Per-node energies at one time step.

    `held` is what each node currently holds; `activated` is the set of
    nodes that fired (or, after a game round, accepted) at this step.
    """

    t: int
    held: Mapping[int, float]
    activated: frozenset[int]


@dataclass(frozen=True)
class SpreadParams:
    delta: float = 0.2
    fire_threshold: float = 1e-4  # 1e-6 x default budget
    max_steps: int = 20
    budget: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError(f"delta {self.delta} outside [0, 1]")
        if not math.isfinite(self.fire_threshold) or self.fire_threshold < 0:
            raise ValidationError(f"fire_threshold {self.fire_threshold} must be finite and >= 0")
        if self.max_steps < 1:
            raise ValidationError(f"max_steps {self.max_steps} < 1")
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise ValidationError(f"budget {self.budget} must be finite and positive")


def check_state(net: SemanticNetwork, state: ActivationState) -> None:
    """Validate a state against its companion network."""
    for key in state.held:
        if not net.has_node(key):
            raise ValidationError(f"state holds unknown node id {key}")
    if any(v < 0 for v in state.held.values()):
        raise ValidationError("negative energy in activation state")
    if not state.activated <= set(state.held):
        raise ValidationError("activated set contains nodes without a held value")


def seed_state(net: SemanticNetwork, sources: Mapping[int, float]) -> ActivationState:
    """Initial state: sources hold their energies and are marked activated."""
    for nid, energy in sources.items():
        if not net.has_node(nid):
            raise ValidationError(f"source id {nid} not in network")
        if not math.isfinite(energy) or energy < 0:
            raise ValidationError(f"source {nid}: negative or non-finite energy {energy}")
    held = {nid: float(sources.get(nid, 0.0)) for nid in net.node_ids()}
    return ActivationState(0, held, frozenset(sources))


def _spread_once(
    net: SemanticNetwork, held: Mapping[int, float], firing: frozenset[int], delta: float
) -> dict[int, float]:
    """Every node's held energy plus what arrives from the firing set.

    Arrivals are summed in ascending firing order before being added to
    what the node already holds.
    """
    arriving = dict.fromkeys(net.node_ids(), 0.0)
    keep = 1.0 - delta
    neighbors = net.neighbors
    for x in sorted(firing):
        o_x = held[x]
        for y, w in neighbors(x):
            # Left to right, bit for bit as tests/oracles.step_oracle and
            # criterion 2 compute it: folding w * keep changes the last bit.
            arriving[y] += o_x * w * keep
    return {nid: held.get(nid, 0.0) + a for nid, a in arriving.items()}


def step(net: SemanticNetwork, state: ActivationState, params: SpreadParams) -> ActivationState:
    """One synchronous propagation step.

    Every node adds the energy arriving from all activated neighbors.
    A node fires at the new step iff its held energy changed and sits
    at or above the fire threshold; unchanged nodes never re-fire.
    """
    old, threshold = state.held, params.fire_threshold
    new_held = _spread_once(net, old, state.activated, params.delta)
    fired = [nid for nid, new in new_held.items() if new >= threshold and new != old.get(nid, 0.0)]
    return ActivationState(state.t + 1, new_held, frozenset(fired))


def iter_spread(
    net: SemanticNetwork, sources: Mapping[int, float], params: SpreadParams
) -> Iterator[ActivationState]:
    """Yield the seed state and every step until quiescence or max_steps."""
    if not sources:
        raise ValidationError("sources must be non-empty")
    total = sum(sources.values())
    if total > params.budget * (1 + 1e-12):
        raise ValidationError(f"source energy {total} exceeds budget {params.budget}")
    state = seed_state(net, sources)
    yield state
    while state.activated and state.t < params.max_steps:
        state = step(net, state, params)
        if not math.isfinite(sum(state.held.values())):
            raise ValidationError(f"spreading overflowed to a non-finite total at step {state.t}")
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


_HISTORY_DECAY = 0.5


def initial_activation(history: tuple[float, ...] | list[float], now: float) -> float:
    """History-based starting energy with power-law forgetting.

    Each past use at age a contributes a**-0.5 (`_HISTORY_DECAY`); the
    energy is the log of the summed contributions, clamped at zero so
    stale or empty histories start cold. Same-moment uses are ignored.
    """
    if any(t > now for t in history):
        raise ValidationError("history timestamp in the future")
    terms = [(now - t) ** (-_HISTORY_DECAY) for t in history if now - t > 0]
    if not terms:
        return 0.0
    return max(0.0, math.log(sum(terms)))
