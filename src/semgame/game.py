"""Game-theoretic attention allocation under a fixed energy budget.

Each round, nodes holding enough energy to pass screening are offered a
redistribution (one spreading step over the participant set). Every
participant weighs the gain of the offer against the global cost of
the whole offer; both are fixed before anyone chooses, so its payoff
does not depend on the others' choices. Accepting iff that
accept-utility is > 0.0 is therefore each participant's dominant
strategy, and every round plays the stage game's dominant-strategy
profile. Accepted values are committed and the whole distribution is
rescaled so total energy stays at the budget. Rounds repeat until the
distribution stops moving or the round limit is hit.

`run_game` validates its initial state once, then carries the
distribution from round to round as a tuple by dense position (entry k
is node `net.node_ids()[k]`); each round's record holds that tuple
behind a read-only view. A record keeps only what cannot be derived:
the state, the realized utilities and the cost. The utilities are a
tuple in participant order behind a `_Held` view too, over the
participants' ids, which are the network's own when every node takes
part; `dict(rec.utilities.items())` copies it. Strategies are read off
the utilities. A round names its activated set as a spreading step
does: the network's all-ids frozenset when every node accepted, the
frozenset of the state before it when a partial set equals that set,
else a new one. The outcome reads its round count off the history; see
`GameOutcome` for why its final state is still stored. `verify_nash` is
a replay check: it plays a final round's offer again through `_offer`
and compares.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError, _check_budget, _check_limit, _check_real
from .network import SemanticNetwork
from .spreading import ActivationState, _check_within_budget, _Held, _held_list, _left_sum, _spread_once

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

    `screen_threshold` is the held energy a node needs to take part in a
    round; the default 0.0 admits every node. `epsilon` bounds the
    per-round distribution change (RMS) below which the game counts as
    converged; left as None, it is derived as 1e-3·budget, the CLI's
    default. The derived value is stored, so
    `dataclasses.replace(p, budget=...)` keeps it.
    """

    epsilon: float | None = None
    max_rounds: int = 100
    screen_threshold: float = 0.0
    delta: float = 0.2
    budget: float = 100.0

    def __post_init__(self) -> None:
        # The budget first: the default epsilon is derived from it.
        _check_budget(self.budget)
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 1e-3 * self.budget)
        _check_real("epsilon", self.epsilon, 0, math.inf, above=True)
        _check_limit("max_rounds", self.max_rounds)
        _check_real("screen_threshold", self.screen_threshold, 0, math.inf)
        _check_real("delta", self.delta, 0, 1)


@dataclass(frozen=True)
class RoundRecord:
    """What one round produced: the committed state, every participant's
    realized utility, keyed by id in ascending order, and the round cost.

    `utilities` is a read-only view over the participants' ids and a
    tuple of their utilities; `dict(rec.utilities.items())` copies it.

    An acceptor realizes its accept-utility, which is positive; a
    rejector realizes 0.0. So the choices are not stored but read off
    the utilities by `strategies`.
    """

    state: ActivationState
    utilities: Mapping[int, float]
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


def cost(held: Sequence[float], offered: Sequence[float]) -> float:
    """Root-mean-square change between two distributions given as value
    sequences in the same node order; squares are summed left to right.
    A non-finite RMS (a NaN value, or squares beyond the float range) raises."""
    n = len(held)
    if len(offered) != n:
        raise ValidationError(f"cost: {n} held values but {len(offered)} offered")
    if n == 0:
        raise ValidationError("cost: empty states")
    total = 0.0
    for h, o in zip(held, offered):
        d = o - h
        total += d * d
    rms = math.sqrt(total / n)
    if not math.isfinite(rms):
        raise ValidationError(f"cost: RMS change {rms} is not finite")
    return rms


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


def _rescale(values: Sequence[float], budget: float) -> Sequence[float]:
    """`values` scaled so that their left-to-right sum is the budget; the
    sequence itself when that sum is not positive. A non-finite sum raises."""
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
    states; a negative energy, a non-finite total or budget raises).

    The sum runs in ascending id order, and the result holds its values
    in that order: a read-only view for a package-built state, else a
    dict. `dict(state.held.items())` copies a view.
    """
    _check_budget(budget)
    held = state.held
    view = type(held) is _Held
    ids = None if view else sorted(held)
    values = held.values() if view else [held[nid] for nid in ids]
    # A marked view holds no negative (see spreading._Held).
    if not (view and held._bounded) and min(values, default=0.0) < 0.0:
        raise ValidationError("negative energy in activation state")
    scaled = _rescale(values, budget)
    if scaled is values:
        return state
    rescaled = _Held(held._ids, tuple(scaled), bounded=held._bounded) if view else dict(zip(ids, scaled))
    return ActivationState(state.t, rescaled, state.activated)


def _offer(
    net: SemanticNetwork, values: Sequence[float], params: GameParams
) -> tuple[Sequence[float], list[int], _Held]:
    """A round's offer, the positions that accept it and every
    participant's realized utility.

    `values` and the offer are lists by dense position (entry k is node
    `net.node_ids()[k]`). The offer is one spreading step over the
    participants: the positions, ascending, whose value reaches
    `screen_threshold` (boundary inclusive), so at 0.0 every node takes
    part. Each participant's accept-utility is its gain minus the
    global cost; an isolated node has no neighborhood to gain from, so
    accepting is worth 0.0 to it. A participant accepts iff its
    accept-utility is > 0.0 and realizes it; a rejector realizes 0.0.
    The accepted positions come ascending. The utilities are a read-only
    view over the participants' ids, ascending, and a tuple in that
    order; when every node takes part, the view shares the network's
    ids. With no participants the offer is `values` itself
    and both are empty.
    """
    t = params.screen_threshold
    participants = [k for k, v in enumerate(values) if v >= t]
    if not participants:
        return values, [], _Held((), ())
    offered = _spread_once(net, values, participants, params.delta)
    c = cost(values, offered)
    # Each participant pulls its neighbors' differences in ascending
    # position, from 0.0, left to right: the order tests/oracles.round_oracle
    # sums them in, so every utility matches it bit for bit.
    diff = [o - v for o, v in zip(offered, values)]
    adjacency, delta = net._dense, params.delta
    accepted, utilities = [], []
    for k in participants:
        row = adjacency[k]
        u = 0.0
        if row:
            change = 0.0
            for y, _ in row:
                change += diff[y]
            u = gain(change, len(row), delta) - c
        if u > 0.0:
            accepted.append(k)
        else:
            u = 0.0
        utilities.append(u)
    ids = net.node_ids()
    if len(participants) < len(ids):
        ids = tuple([ids[k] for k in participants])
    return offered, accepted, _Held(ids, tuple(utilities))


def run_game(net: SemanticNetwork, initial: ActivationState, params: GameParams) -> GameOutcome:
    """Iterate rounds until the distribution change drops below epsilon.

    Each round plays `_offer`'s dominant-strategy profile: accepted
    positions take their offered value and the whole distribution is
    rescaled to the budget. A round without participants records the
    state it started from.

    Deterministic: identical inputs give identical outcomes. The outcome
    keeps the full round history so a final round can be replayed. The
    initial state must hold a finite, non-negative value for every node
    and no other id, and activate only nodes it holds; any other is
    rejected before round 1.
    """
    values = _held_list(net, initial)[0]
    _check_within_budget(initial.held.values(), params.budget, "initial energy")

    ids = net.node_ids()
    state = initial
    history: list[RoundRecord] = []
    converged = False
    for _ in range(params.max_rounds):
        offered, accepted, utilities = _offer(net, values, params)
        new_values = values
        if utilities:
            committed = list(values)
            for k in accepted:
                committed[k] = offered[k]
            new_values = tuple(_rescale(committed, params.budget))
            # Free the round's n-entry lists; the record keeps only the tuple.
            del offered, committed
            # `step`'s rule, and a partial set equal to the state's before
            # is that set, so a steady game keeps one frozenset. A full set
            # is never compared: frozenset == has no identity shortcut.
            activated = net._id_set if len(accepted) == len(ids) else frozenset([ids[k] for k in accepted])
            if activated is not net._id_set and activated == state.activated:
                activated = state.activated
            state = ActivationState(state.t + 1, _Held(ids, new_values, bounded=True), activated)
        round_cost = cost(values, new_values)
        history.append(RoundRecord(state, utilities, round_cost))
        values = new_values
        if round_cost < params.epsilon:
            converged = True
            break

    return GameOutcome(state, converged, tuple(history), initial)


def verify_nash(net: SemanticNetwork, outcome: GameOutcome, params: GameParams) -> bool:
    """Replay check: True iff the final round's record holds exactly the
    utilities `_offer` realizes again from the state that entered it.

    Each round plays the stage game's dominant-strategy profile, so this
    holds on any outcome `run_game` produced with these params. The
    entering state is validated as run_game validates an initial state,
    and an outcome with no round raises.
    """
    if not outcome.history:
        raise ValidationError("verify_nash: the outcome's history holds no round")
    pre = outcome.initial if outcome.rounds == 1 else outcome.history[-2].state
    return _offer(net, _held_list(net, pre)[0], params)[2] == outcome.history[-1].utilities


def rank_nodes(state: ActivationState, k: int) -> list[tuple[int, float]]:
    """Top-k nodes by held energy, descending; ties broken by ascending id.
    A NaN energy has no rank and raises, naming the lowest such id."""
    _check_limit("k", k)
    if any(map(math.isnan, state.held.values())):
        nid = min(nid for nid, v in state.held.items() if math.isnan(v))
        raise ValidationError(f"rank_nodes: node {nid} holds NaN energy")
    ordered = sorted(state.held.items(), key=lambda item: (-item[1], item[0]))
    return ordered[:k]
