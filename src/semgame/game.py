"""Game-theoretic attention allocation under a fixed energy budget.

Each round, nodes holding enough energy to pass screening are offered a
redistribution (one spreading step over the participant set). Every
participant independently weighs the gain of the offer against the
global cost of changing the distribution and accepts or rejects it;
accepted values are committed and the whole distribution is rescaled so
total energy stays at the budget. Rounds repeat until the distribution
stops moving (Nash equilibrium of the accept/reject game) or the round
limit is hit.

`run_game` validates its initial state once, then carries the
distribution from round to round as a list by dense position (entry k
is node `net.node_ids()[k]`); each round's record is the only place it
becomes an id-keyed state again. A record keeps only what cannot be
derived: the state, the realized utilities and the cost. Strategies
are read off the utilities, and a round that accepts the set the state
before it activated shares that state's frozenset. The outcome reads
its round count off the history; see `GameOutcome` for why its final
state is still stored. `verify_nash` replays a final round's offer
through the same list-level code.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError
from .network import SemanticNetwork
from .spreading import ActivationState, _check_budget, _check_within_budget, _held_list, _left_sum, _spread_once

__all__ = [
    "Strategy",
    "GameParams",
    "RoundRecord",
    "GameOutcome",
    "cost",
    "gain",
    "rescale_to_budget",
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
    change (RMS) below which the game counts as converged; left as None,
    it is derived as 1e-3·budget, the CLI's default. The derived value
    is stored, so `dataclasses.replace(p, budget=...)` keeps it.
    """

    epsilon: float | None = None
    max_rounds: int = 100
    screen_threshold: float | None = None
    delta: float = 0.2
    budget: float = 100.0

    def __post_init__(self) -> None:
        # The budget first: the default epsilon is derived from it.
        _check_budget(self.budget)
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 1e-3 * self.budget)
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


@dataclass(frozen=True)
class RoundRecord:
    """What one round produced: the committed state, every participant's
    realized utility, keyed by id in ascending order, and the round cost.

    An acceptor realizes its accept-utility, which is positive; a
    rejector realizes 0.0. So the choices are not stored but read off
    the utilities by `strategies`.
    """

    state: ActivationState
    utilities: dict[int, float]
    cost: float

    @property
    def strategies(self) -> dict[int, Strategy]:
        """Every participant's choice, keyed by id in ascending order:
        ACCEPT iff its realized utility is > 0.0. Built anew on each read."""
        accept, reject = Strategy.ACCEPT, Strategy.REJECT
        return {nid: accept if u > 0.0 else reject for nid, u in self.utilities.items()}


@dataclass(frozen=True)
class GameOutcome:
    """A finished game: its initial state, every round's record and
    whether the last round's cost fell below epsilon.

    `final` restates `history[-1].state`; it stays stored only because a
    benchmark test (`perfbench/tests`) tampers with an outcome through
    `dataclasses.replace(outcome, final=...)`.
    """

    final: ActivationState
    converged: bool
    history: tuple[RoundRecord, ...]
    initial: ActivationState

    @property
    def rounds(self) -> int:
        """How many rounds were played."""
        return len(self.history)


def _participants(net: SemanticNetwork, values: list[float], params: GameParams) -> list[int]:
    """Screened participants' dense positions, ascending.

    `values` is the round's held value by position. A position takes
    part when its value reaches the global `screen_threshold`, if one
    is set, or else its node's own threshold (boundary inclusive).
    """
    if params.screen_threshold is not None:
        return [k for k, v in enumerate(values) if v >= params.screen_threshold]
    by_id = net._by_id
    return [k for k, (nid, v) in enumerate(zip(net.node_ids(), values)) if v >= by_id[nid].threshold]


def cost(held: Sequence[float], offered: Sequence[float]) -> float:
    """Root-mean-square change between two distributions given as value
    sequences in the same node order; squares are summed left to right."""
    n = len(held)
    if len(offered) != n:
        raise ValidationError(f"cost: {n} held values but {len(offered)} offered")
    if n == 0:
        raise ValidationError("cost: empty states")
    total = 0.0
    for h, o in zip(held, offered):
        d = o - h
        total += d * d
    return math.sqrt(total / n)


def gain(change: float, degree: int, delta: float) -> float:
    """Damped mean activation increase across a node's neighborhood.

    `change` is the neighborhood change Σ(offered − held) over the
    node's `degree` neighbors. It is raised to the power (1 - delta) as
    a signed power (sign preserved, magnitude damped), then averaged
    over the neighbor count. Undefined for nodes without neighbors.
    """
    if degree == 0:
        raise ValidationError("gain undefined for a node with no neighbors")
    if change == 0.0:
        return 0.0
    return math.copysign(abs(change) ** (1.0 - delta), change) / degree


def _rescale(values: list[float], budget: float) -> list[float]:
    """`values` scaled so that their left-to-right sum is the budget; the
    list itself when that sum is not positive. A non-finite sum raises."""
    total = _left_sum(values)
    if not math.isfinite(total):
        raise ValidationError(f"cannot rescale energies totalling {total} to the budget")
    if total <= 0.0:
        return values
    scale = budget / total
    if math.isinf(scale):  # a subnormal total; 0.0 * inf would be nan
        return [v / total * budget for v in values]
    return [v * scale for v in values]


def rescale_to_budget(state: ActivationState, budget: float) -> ActivationState:
    """Scale all energies so held values sum to the budget (no-op on zero
    states; a non-finite total or budget raises).

    The sum runs in ascending id order, and the result holds its values
    in that order.
    """
    _check_budget(budget)
    ids = sorted(state.held)
    values = [state.held[nid] for nid in ids]
    scaled = _rescale(values, budget)
    if scaled is values:
        return state
    return ActivationState(state.t, dict(zip(ids, scaled)), state.activated)


def _offer(
    net: SemanticNetwork, values: list[float], params: GameParams
) -> tuple[list[float], list[int], list[float]]:
    """A round's offer, its participants and their accept-utilities.

    `values` and the offer are lists by dense position (entry k is node
    `net.node_ids()[k]`). The offer is one spreading step over the
    screened participants, whose positions come ascending; each one's
    accept-utility, at the same index, is its gain minus the global
    cost. An isolated node has no neighborhood to gain from, so
    accepting is worth 0.0 to it. With no participants the offer is
    `values` itself.
    """
    participants = _participants(net, values, params)
    if not participants:
        return values, participants, []
    offered = _spread_once(net, values, participants, params.delta)
    c = cost(values, offered)
    # Each participant pulls its neighbors' differences in ascending
    # position, from 0.0, left to right: the order tests/oracles.round_oracle
    # sums them in, so every utility matches it bit for bit.
    diff = [o - v for o, v in zip(offered, values)]
    adjacency, delta = net._dense, params.delta
    utilities = []
    for k in participants:
        row = adjacency[k]
        if row:
            change = 0.0
            for y, _ in row:
                change += diff[y]
            utilities.append(gain(change, len(row), delta) - c)
        else:
            utilities.append(0.0)
    return offered, participants, utilities


def run_game(net: SemanticNetwork, initial: ActivationState, params: GameParams) -> GameOutcome:
    """Iterate rounds until the distribution change drops below epsilon.

    Each round makes the offer to the screened participants. A
    participant accepts iff its accept-utility is > 0.0 and realizes
    it; a rejector realizes 0.0. Accepted positions take their offered
    value and the whole distribution is rescaled to the budget. A round
    without participants records the state it started from.

    Deterministic: identical inputs give identical outcomes. The outcome
    keeps the full round history so equilibria can be re-verified. The
    initial state must hold a finite, non-negative value for every node
    and no other id, and activate only nodes it holds; any other is
    rejected before round 1.
    """
    values, activated = _held_list(net, initial)
    _check_within_budget(initial.held.values(), params.budget, "initial energy")

    ids = net.node_ids()
    state = initial
    history: list[RoundRecord] = []
    converged = False
    for _ in range(params.max_rounds):
        offered, participants, accept_utilities = _offer(net, values, params)
        accepted = [k for k, u in zip(participants, accept_utilities) if u > 0.0]
        utilities = {ids[k]: u if u > 0.0 else 0.0 for k, u in zip(participants, accept_utilities)}
        new_values = values
        if participants:
            committed = offered
            if len(accepted) < len(values):
                committed = list(values)
                for k in accepted:
                    committed[k] = offered[k]
            new_values = _rescale(committed, params.budget)
            # Free the round's n-entry lists before the state's dict is built.
            del offered, committed, participants, accept_utilities
            # `activated` is `state.activated` by position. Both lists are
            # ascending, so equal lists are equal sets, and a steady game
            # keeps one activated frozenset instead of one per round.
            shared = state.activated if accepted == activated else frozenset([ids[k] for k in accepted])
            state = ActivationState(state.t + 1, dict(zip(ids, new_values)), shared)
            activated = accepted
        round_cost = cost(values, new_values)
        history.append(RoundRecord(state, utilities, round_cost))
        values = new_values
        if round_cost < params.epsilon:
            converged = True
            break

    return GameOutcome(state, converged, tuple(history), initial)


def verify_nash(net: SemanticNetwork, outcome: GameOutcome, params: GameParams) -> bool:
    """Check that no participant could gain by unilaterally switching strategy.

    Reconstructs the final round's offer from the state that entered it
    and compares both strategies for every participant. That state is
    validated as run_game validates an initial state.
    """
    pre = outcome.initial if outcome.rounds == 1 else outcome.history[-2].state
    _, participants, accept_utilities = _offer(net, _held_list(net, pre)[0], params)
    realized = outcome.history[-1].utilities
    ids = net.node_ids()
    if {ids[k] for k in participants} != realized.keys():
        return False
    # An acceptor realized a positive utility, a rejector 0.0. Switching
    # pays off when an acceptor's accept-utility is negative or a
    # rejector's is positive.
    for k, u in zip(participants, accept_utilities):
        if (u < 0.0) if realized[ids[k]] > 0.0 else (u > 0.0):
            return False
    return True


def rank_nodes(state: ActivationState, k: int) -> list[tuple[int, float]]:
    """Top-k nodes by held energy, descending; ties broken by ascending id."""
    if k < 1:
        raise ValidationError(f"k {k} must be >= 1")
    ordered = sorted(state.held.items(), key=lambda item: (-item[1], item[0]))
    return ordered[:k]
