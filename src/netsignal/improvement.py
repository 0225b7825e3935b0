"""Local best-response refinement and the two-stage decision pipeline.

Network-wide coordination minimizes total predicted balance, which can
strand vehicles on internal links when pushing others out reduces the sum.
A few synchronized best-response sweeps afterwards let every intersection
cut its own predicted balance given its neighbors' announced phases, which
recovers the throughput such "clean-out" assignments give up. Each sweep
scores every agent's four phases at once from the period's prediction
arrays (`PeriodModel.sweep_scores`).

`plan_phases_detailed` is the full per-period pipeline: build the
coordination graph, message-pass under a fraction of the time budget, then
sweep the remainder.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from netsignal import prediction
from netsignal.coordination import build_cg
from netsignal.messaging import CoorBudget, CoordResult, coordinate
from netsignal.network import RoadNetwork, _number_or_nan, movement_arrays
from netsignal.ordering import network_order
from netsignal.simulation import JointAssignment, QueueState, TurningModel, phase_indices

# full forward+reverse message cycles the planner runs at most per period
MAX_CYCLES = 2
# best-response sweeps the planner runs at most per period
MAX_SWEEPS = 4


@dataclass
class PlannerConfig:
    """Budget split for the two stages.

    `epsilon` is the fraction of the budget spent on message passing; the
    rest goes to best-response sweeps, so `epsilon=1.0` runs none. Message
    passing is also capped at `MAX_CYCLES` cycles in rounds and the sweeps
    at `MAX_SWEEPS`, so identical inputs give identical decisions regardless
    of hardware; the wall-clock budget still applies on top.
    """

    budget: CoorBudget = field(default_factory=lambda: CoorBudget(wall_ms=3000.0))
    epsilon: float = 0.8

    def __post_init__(self):
        if not 0.0 <= _number_or_nan(self.epsilon) <= 1.0:
            raise ValueError(f"epsilon must be a number in [0, 1], got {self.epsilon!r}")


def local_improvement(
    init: JointAssignment,
    state: QueueState,
    net: RoadNetwork,
    turning: TurningModel,
    budget: Optional[CoorBudget] = None,
    *,
    model: Optional[prediction.PeriodModel] = None,
) -> JointAssignment:
    """Synchronized best-response sweeps from `init`.

    Every sweep, each agent picks the phase that minimizes its own predicted
    balance (`PeriodModel.sweep_scores`) given the previous sweep's actions,
    keeping its current phase on ties and otherwise the lowest index. Stops
    after `MAX_SWEEPS` sweeps, or sooner on a sweep that changes nothing or
    when `budget` runs out; a rounds cap counts sweeps. A sweep is a gather
    of the period's pair terms and a sum per agent; the scores are
    phase-major (4, N), so the rule runs over their leading axis.
    `init` must cover every agent. `model` may pass in the `period_model`
    of the same inputs when the caller has it. The decision is an unchecked
    view over `arr.agent_ids`: `phase_indices` checks `init`, and each flip
    is an argmin over four rows.
    """
    start = time.perf_counter()
    arr = movement_arrays(net)
    if model is None:
        model = prediction.period_model(net, state, turning)
    actions = phase_indices(init, arr.agent_ids)
    positions = np.arange(len(actions))
    for done in range(MAX_SWEEPS):
        if budget is not None and budget.exhausted(start, done):
            break
        scores = model.sweep_scores(actions)
        keep = scores[actions, positions] <= np.minimum.reduce(scores, axis=0) + 1e-9
        if np.logical_and.reduce(keep):
            break
        actions = np.where(keep, actions, scores.argmin(axis=0))
    return JointAssignment._unchecked(arr.agent_ids, actions)


@dataclass
class PlanResult:
    assignment: JointAssignment
    coordination: CoordResult


def plan_phases_detailed(
    state: QueueState,
    net: RoadNetwork,
    turning: TurningModel,
    cfg: Optional[PlannerConfig] = None,
) -> PlanResult:
    """Coordinate under epsilon of the budget, then sweep under the rest.

    Both stages share one one-step prediction; messages pass on `network_order`.
    """
    cfg = cfg or PlannerConfig()
    model = prediction.period_model(net, state, turning)
    cg = build_cg(state, net, turning, model=model)
    order = network_order(net)
    cap = 2 * MAX_CYCLES * max(order.diameter, 1)
    nl_budget, sweep_budget = _stage_budgets(cfg.budget, cfg.epsilon, cap)
    coord = coordinate(cg, order, nl_budget)
    final = local_improvement(
        coord.assignment,
        state,
        net,
        turning,
        budget=sweep_budget,
        model=model,
    )
    return PlanResult(final, coord)


@lru_cache(maxsize=16)
def _stage_budgets(budget: CoorBudget, epsilon: float, cap: int) -> tuple[CoorBudget, CoorBudget]:
    """The coordination budget, `epsilon` of `budget` and at most `cap`
    rounds, and the sweeps' budget, the rest of it; built once per
    (budget, epsilon, cap), since budgets are frozen."""
    return budget.scaled(epsilon).capped_rounds(cap), budget.scaled(1.0 - epsilon)
