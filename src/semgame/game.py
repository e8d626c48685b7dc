"""Game-theoretic attention allocation under a fixed energy budget.

Each round, nodes holding enough energy to pass screening are offered a
redistribution (one spreading step over the participant set). Every
participant independently weighs the gain of the offer against the
global cost of changing the distribution and accepts or rejects it;
accepted values are committed and the whole distribution is rescaled so
total energy stays at the budget. Rounds repeat until the distribution
stops moving (Nash equilibrium of the accept/reject game) or the round
limit is hit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError
from .network import SemanticNetwork
from .spreading import ActivationState, _spread_once, check_state

__all__ = [
    "Strategy",
    "GameParams",
    "RoundRecord",
    "GameOutcome",
    "screen",
    "cost",
    "gain",
    "rescale_to_budget",
    "best_response_round",
    "run_game",
    "verify_nash",
    "rank_nodes",
]


class Strategy(Enum):
    ACCEPT = "accept"
    REJECT = "reject"


@dataclass(frozen=True)
class GameParams:
    """Knobs for the attention game.

    `screen_threshold`, when set, replaces every node's own activation
    threshold for screening. `epsilon` bounds the per-round distribution
    change (RMS) below which the game counts as converged.
    """

    epsilon: float = 0.1
    max_rounds: int = 100
    screen_threshold: float | None = None
    delta: float = 0.2
    budget: float = 100.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValidationError(f"epsilon {self.epsilon} must be finite and positive")
        if self.max_rounds < 1:
            raise ValidationError(f"max_rounds {self.max_rounds} < 1")
        if self.screen_threshold is not None and not (
            math.isfinite(self.screen_threshold) and self.screen_threshold >= 0
        ):
            raise ValidationError(f"screen_threshold {self.screen_threshold} must be finite and >= 0")
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError(f"delta {self.delta} outside [0, 1]")
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise ValidationError(f"budget {self.budget} must be finite and positive")


@dataclass(frozen=True)
class RoundRecord:
    """What one round produced: committed state, choices, realized utilities."""

    index: int
    state: ActivationState
    strategies: dict[int, Strategy]
    utilities: dict[int, float]
    cost: float


@dataclass(frozen=True)
class GameOutcome:
    final: ActivationState
    rounds: int
    converged: bool
    history: tuple[RoundRecord, ...]
    initial: ActivationState


def screen(state: ActivationState, threshold: float) -> frozenset[int]:
    """Nodes holding at least `threshold` energy (boundary inclusive)."""
    if threshold < 0:
        raise ValidationError(f"screen threshold {threshold} < 0")
    return frozenset(nid for nid, held in state.held.items() if held >= threshold)


def _participants(net: SemanticNetwork, state: ActivationState, params: GameParams) -> list[int]:
    """Screened participant set for a round, ascending id order."""
    if params.screen_threshold is not None:
        return sorted(screen(state, params.screen_threshold))
    return sorted(
        nid for nid in net.node_ids() if state.held.get(nid, 0.0) >= net.node(nid).threshold
    )


def cost(current: ActivationState, offered: Mapping[int, float]) -> float:
    """Root-mean-square change between the offered and current distributions."""
    if set(current.held) != set(offered):
        raise ValidationError("cost: states keyed over different node sets")
    n = len(current.held)
    if n == 0:
        raise ValidationError("cost: empty states")
    total = 0.0
    for nid in sorted(current.held):
        d = offered[nid] - current.held[nid]
        total += d * d
    return math.sqrt(total / n)


def gain(
    net: SemanticNetwork,
    i: int,
    current: ActivationState,
    offered: Mapping[int, float],
    delta: float,
) -> float:
    """Damped mean activation increase across node i's neighborhood.

    The neighborhood change is raised to the power (1 - delta) as a
    signed power (sign preserved, magnitude damped), then averaged over
    the neighbor count. Undefined for nodes without neighbors.
    """
    nbrs = net.neighbors(i)
    if not nbrs:
        raise ValidationError(f"gain undefined for node {i}: no neighbors")
    change = 0.0
    for x, _ in nbrs:
        change += offered.get(x, 0.0) - current.held.get(x, 0.0)
    if change == 0.0:
        return 0.0
    return math.copysign(abs(change) ** (1.0 - delta), change) / len(nbrs)


def rescale_to_budget(state: ActivationState, budget: float) -> ActivationState:
    """Scale all energies so held values sum to the budget (no-op on zero states)."""
    total = sum(state.held[nid] for nid in sorted(state.held))
    if total <= 0.0:
        return state
    scale = budget / total
    held = {nid: state.held[nid] * scale for nid in state.held}
    return ActivationState(state.t, held, state.activated)


def _offer(
    net: SemanticNetwork, state: ActivationState, params: GameParams
) -> tuple[dict[int, float], dict[int, float]]:
    """A round's offered values and each participant's accept-utility.

    The offer is one spreading step over the screened participants. A
    participant's accept-utility is its gain minus the global cost; an
    isolated node has no neighborhood to gain from, so accepting is
    worth 0.0 to it. Utilities are keyed by participant in ascending id
    order; with no participants both mappings are empty.
    """
    participants = _participants(net, state, params)
    if not participants:
        return {}, {}
    offered = _spread_once(net, state.held, frozenset(participants), params.delta)
    c = cost(state, offered)
    utilities = {
        i: gain(net, i, state, offered, params.delta) - c if net.neighbors(i) else 0.0
        for i in participants
    }
    return offered, utilities


def best_response_round(
    net: SemanticNetwork, state: ActivationState, params: GameParams
) -> tuple[ActivationState, dict[int, Strategy], dict[int, float]]:
    """Play one round: screen, offer, decide per node, commit, rescale.

    A participant accepts iff its accept-utility is strictly positive.
    Returns the committed state, every participant's strategy and the
    utility it realized (0.0 on reject).
    """
    offered, accept_utilities = _offer(net, state, params)
    if not accept_utilities:
        return state, {}, {}
    accepted = frozenset(i for i, u in accept_utilities.items() if u > 0.0)
    strategies = {i: Strategy.ACCEPT if i in accepted else Strategy.REJECT for i in accept_utilities}
    utilities = {i: u if i in accepted else 0.0 for i, u in accept_utilities.items()}
    held = {nid: offered[nid] if nid in accepted else state.held.get(nid, 0.0) for nid in net.node_ids()}
    committed = ActivationState(state.t + 1, held, accepted)
    return rescale_to_budget(committed, params.budget), strategies, utilities


def run_game(net: SemanticNetwork, initial: ActivationState, params: GameParams) -> GameOutcome:
    """Iterate rounds until the distribution change drops below epsilon.

    Deterministic: identical inputs give identical outcomes. The outcome
    keeps the full round history so equilibria can be re-verified.
    """
    check_state(net, initial)
    total = sum(initial.held.values())
    if total > params.budget * (1 + 1e-12):
        raise ValidationError(f"initial energy {total} exceeds budget {params.budget}")

    state = initial
    history: list[RoundRecord] = []
    converged = False
    for round_index in range(1, params.max_rounds + 1):
        new_state, strategies, utilities = best_response_round(net, state, params)
        round_cost = cost(state, new_state.held)
        history.append(RoundRecord(round_index, new_state, strategies, utilities, round_cost))
        state = new_state
        if round_cost < params.epsilon:
            converged = True
            break

    return GameOutcome(
        final=state,
        rounds=len(history),
        converged=converged,
        history=tuple(history),
        initial=initial,
    )


def verify_nash(net: SemanticNetwork, outcome: GameOutcome, params: GameParams) -> bool:
    """Check that no participant could gain by unilaterally switching strategy.

    Reconstructs the final round's offer from the state that entered it
    and compares both strategies for every participant.
    """
    pre = outcome.initial if outcome.rounds == 1 else outcome.history[-2].state
    _, accept_utilities = _offer(net, pre, params)
    strategies = outcome.history[-1].strategies
    if set(accept_utilities) != set(strategies):
        return False
    # Switching pays off when an acceptor's utility is negative or a
    # rejector's (who realizes 0.0) is positive.
    for i, u in accept_utilities.items():
        if (u < 0.0) if strategies[i] is Strategy.ACCEPT else (u > 0.0):
            return False
    return True


def rank_nodes(state: ActivationState, k: int) -> list[tuple[int, float]]:
    """Top-k nodes by held energy, descending; ties broken by ascending id."""
    if k < 1:
        raise ValidationError(f"k {k} must be >= 1")
    ordered = sorted(state.held.items(), key=lambda item: (-item[1], item[0]))
    return ordered[:k]
