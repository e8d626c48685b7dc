"""Comparison baselines: cobweb supply/demand dynamics and plain spreading.

The cobweb model adjusts each node's activation value by the lagged gap
between a linear demand curve and a linear supply curve evaluated at
the naive expectation (last period's value). It stands in for
equilibrium seeking without the attention game; plain spreading stands
in for allocation without any adjustment at all.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import ValidationError, _check_budget, _check_limit, _check_real
from .network import SemanticNetwork
from .spreading import ActivationState, SpreadParams, run_spread

__all__ = [
    "CobwebParams",
    "CobwebTraceRow",
    "CobwebRun",
    "run_cobweb",
    "run_traditional",
]

# Convergence tolerance of run_cobweb: on the value's move and on the
# fixed-point residual.
_TOL = 1e-6


@dataclass(frozen=True)
class CobwebParams:
    """Adjustment rate r, applied to the excess demand each iteration,
    and the slopes of the linear demand and supply curves (see
    `run_cobweb`). All three numbers must be finite, and the slopes >= 0."""

    r: float
    demand_slope: float
    supply_slope: float
    max_iters: int = 100

    def __post_init__(self) -> None:
        _check_real("r", self.r, -math.inf, math.inf)
        _check_real("demand_slope", self.demand_slope, 0, math.inf)
        _check_real("supply_slope", self.supply_slope, 0, math.inf)
        _check_limit("max_iters", self.max_iters)


@dataclass(frozen=True)
class CobwebTraceRow:
    """One node's step in one cycle of `run_cobweb`."""

    iteration: int
    node: int
    o: float
    excess_demand: float
    allocated: float


@dataclass(frozen=True)
class CobwebRun:
    """What `run_cobweb` returns: grants, cycles run, convergence, values and trace."""

    allocations: dict[int, float]
    iters: int
    converged: bool
    final_values: dict[int, float]
    trace: tuple[CobwebTraceRow, ...]


def run_cobweb(
    nodes: list[tuple[float, float]],
    params: CobwebParams,
    budget: float,
) -> CobwebRun:
    """Iterate per-node cobweb recurrences, granting budget greedily each cycle.

    `nodes` is a non-empty list of finite (initial value, demand target)
    pairs; `budget` is finite and positive. Node k with target T has
    demand D(o) = 2T - demand_slope * o and supply S(e) = supply_slope * e,
    a value o and a naive expectation e (both start at the initial value)
    and a base b = T - r * (D(T) - S(T)), which makes T the fixed point.
    Each cycle visits the nodes in list order: o becomes
    b + r * (D(o) - S(e)) and e the old o, and the node is granted
    min(max(o, 0), remaining budget). A trace row holds the cycle, the
    node, the new o, the excess D(o) - S(e) at the old values and the
    grant. The run converges in the first cycle where every node moved
    less than 1e-6 and has |b + r * (D(o) - S(o)) - o| < 1e-6, and stops
    after max_iters cycles otherwise. An overflowing value raises
    ValidationError. Other intercepts would cancel out of
    b + r * (D(o) - S(e)) and show only in the excess column.
    """
    if not nodes:
        raise ValidationError("cobweb needs at least one node")
    _check_budget(budget)
    for initial, target in nodes:
        _check_real("cobweb initial value", initial, -math.inf, math.inf)
        _check_real("cobweb target", target, -math.inf, math.inf)
    r, ds, ss = params.r, params.demand_slope, params.supply_slope
    values = [float(initial) for initial, _ in nodes]
    expected = list(values)
    # Per node, the demand intercept 2T and the base.
    curves = [(2 * t, t - r * ((2 * t - ds * t) - ss * t)) for _, t in nodes]

    allocations = [0.0] * len(nodes)
    trace: list[CobwebTraceRow] = []
    converged = False
    iters = 0
    for iteration in range(1, params.max_iters + 1):
        iters = iteration
        remaining = budget
        all_quiet = True
        for idx, (top, base) in enumerate(curves):
            prev = values[idx]
            excess = (top - ds * prev) - ss * expected[idx]
            o = base + r * excess
            if not math.isfinite(o):
                raise ValidationError(f"cobweb value of node {idx} overflowed in iteration {iteration}")
            expected[idx] = prev
            values[idx] = o
            # Quiet means the value stopped moving AND sits at a genuine
            # fixed point; the residual test keeps periodic orbits with
            # repeated values from masquerading as equilibria.
            residual = base + r * ((top - ds * o) - ss * o) - o
            if abs(o - prev) >= _TOL or abs(residual) >= _TOL:
                all_quiet = False
            granted = min(max(o, 0.0), remaining)
            remaining -= granted
            allocations[idx] = granted
            trace.append(CobwebTraceRow(iteration, idx, o, excess, granted))
        if all_quiet:
            converged = True
            break

    return CobwebRun(
        allocations=dict(enumerate(allocations)),
        iters=iters,
        converged=converged,
        final_values=dict(enumerate(values)),
        trace=tuple(trace),
    )


def run_traditional(
    net: SemanticNetwork, sources: Mapping[int, float], params: SpreadParams
) -> ActivationState:
    """Fixed-allocation baseline: spreading only, no game adjustment."""
    return run_spread(net, sources, params)
