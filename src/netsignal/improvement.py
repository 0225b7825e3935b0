"""Local best-response refinement and the two-stage decision pipeline.

Network-wide coordination minimizes total predicted balance, which can
strand vehicles on internal links when pushing others out reduces the sum.
A few synchronized best-response sweeps afterwards let every intersection
cut its own predicted balance given its neighbors' announced phases, which
recovers the throughput such "clean-out" assignments give up. Each sweep
scores every agent's four phases at once from the period's prediction
arrays (`PeriodModel.sweep_scores`).

`plan_phases` is the full per-period pipeline: build the coordination graph,
message-pass under a fraction of the time budget, then sweep the remainder.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from netsignal.coordination import build_cg
from netsignal.messaging import CoorBudget, CoordResult, coordinate
from netsignal.network import PHASES, RoadNetwork, movement_arrays
from netsignal.ordering import network_order
from netsignal.prediction import PeriodModel
from netsignal.simulation import JointAssignment, QueueState, TurningModel

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

    budget: CoorBudget = field(default_factory=lambda: CoorBudget.wall_clock(3000.0))
    epsilon: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")


def local_improvement(
    init: JointAssignment,
    state: QueueState,
    net: RoadNetwork,
    turning: TurningModel,
    budget: Optional[CoorBudget] = None,
    *,
    model: Optional[PeriodModel] = None,
) -> JointAssignment:
    """Synchronized best-response sweeps from `init`.

    Every sweep, each agent picks the phase that minimizes its own predicted
    balance (`PeriodModel.sweep_scores`) given the previous sweep's actions,
    keeping its current phase on ties and otherwise the lowest index. Stops
    after `MAX_SWEEPS` sweeps, or sooner on a sweep that changes nothing or
    when `budget` runs out; a rounds cap counts sweeps.
    `init` must cover every agent. `model` may pass in the `period_model`
    of the same inputs when the caller has it.
    """
    from netsignal.prediction import period_model

    start = time.perf_counter()
    arr = movement_arrays(net)
    if model is None:
        model = period_model(net, state, turning)
    agents = arr.agent_ids
    try:
        actions = np.fromiter(map(init.__getitem__, agents), dtype=np.intp, count=len(agents))
    except KeyError:
        missing = [a for a in agents if a not in init]
        raise ValueError(f"init is missing agents {missing}") from None
    sweeps = MAX_SWEEPS
    if budget is not None and budget.rounds is not None:
        sweeps = min(sweeps, budget.rounds)
    for _ in range(sweeps):
        if (
            budget is not None
            and budget.wall_ms is not None
            and (time.perf_counter() - start) * 1e3 >= budget.wall_ms
        ):
            break
        scores = model.sweep_scores(actions)
        best = scores.min(axis=1)
        keep = scores[np.arange(len(actions)), actions] <= best + 1e-9
        proposal = np.where(keep, actions, np.argmin(scores, axis=1)).astype(np.intp)
        if np.array_equal(proposal, actions):
            break
        actions = proposal
    return dict(zip(agents, map(PHASES.__getitem__, actions.tolist())))


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
    from netsignal.prediction import period_model

    cfg = cfg or PlannerConfig()
    model = period_model(net, state, turning)
    cg = build_cg(state, net, turning, model=model)
    order = network_order(net)
    nl_budget = cfg.budget.scaled(cfg.epsilon).capped_rounds(2 * MAX_CYCLES * max(order.diameter, 1))
    coord = coordinate(cg, order, nl_budget)
    sweep_budget = cfg.budget.scaled(1.0 - cfg.epsilon)
    final = local_improvement(
        coord.assignment,
        state,
        net,
        turning,
        budget=sweep_budget,
        model=model,
    )
    return PlanResult(final, coord)


def plan_phases(
    state: QueueState,
    net: RoadNetwork,
    turning: TurningModel,
    cfg: Optional[PlannerConfig] = None,
) -> JointAssignment:
    return plan_phases_detailed(state, net, turning, cfg).assignment
