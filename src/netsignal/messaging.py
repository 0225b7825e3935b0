"""Anytime coordination by min-sum message passing on an oriented graph.

A pass sweeps the orientation level by level in one edge direction: a
forward pass takes the edges in order of their sender's longest-path depth,
a reverse pass in order of the height of their forward receiver. Each
message is computed once per pass, from inputs that are already final for
that pass, and one level counts as one round of the budget, so a pass is
`diameter` rounds. Passes alternate directions until the budget runs out or
a full forward+reverse cycle leaves every message unchanged. Messages
persist across passes, so the second (reverse) pass combines each agent's
own cost with everything learned on the first pass: on acyclic graphs one
cycle yields exact min-marginals and the recovered joint action is optimal.

A message from sender to receiver scores each receiver phase with the best
the sender can do given it: its own cost, the shared edge cost, and all
messages the sender has received from agents other than the receiver. A
complete joint decision can be extracted at any time by per-agent argmin
over own cost plus received messages, which is what makes the loop
interruptible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from netsignal.coordination import CoordinationGraph
from netsignal.network import _is_count, _number_or_nan, segment_sum
from netsignal.ordering import DagOrder
from netsignal.simulation import JointAssignment


@dataclass(frozen=True)
class CoorBudget:
    """Caps on coordination effort: message rounds, wall-clock, or both.

    Whichever cap trips first ends the run; rounds caps keep results
    hardware-independent, wall-clock caps bound latency.
    """

    rounds: Optional[int] = None
    wall_ms: Optional[float] = None

    def __post_init__(self):
        if self.rounds is None and self.wall_ms is None:
            raise ValueError("budget needs a rounds or wall-clock cap")
        if self.rounds is not None and not (_is_count(self.rounds) and self.rounds >= 0):
            raise ValueError(f"rounds cap must be an integer >= 0, got {self.rounds!r}")
        if self.wall_ms is not None and not 0 <= _number_or_nan(self.wall_ms) < np.inf:
            raise ValueError(f"wall-clock cap must be finite and >= 0, got {self.wall_ms!r}")

    def scaled(self, fraction: float) -> "CoorBudget":
        return CoorBudget(
            rounds=None if self.rounds is None else int(self.rounds * fraction),
            wall_ms=None if self.wall_ms is None else self.wall_ms * fraction,
        )

    def exhausted(self, start: float, done: int) -> bool:
        """Whether `done` rounds, or the time since the `time.perf_counter()`
        reading `start`, use up the budget."""
        if self.rounds is not None and done >= self.rounds:
            return True
        return self.wall_ms is not None and (time.perf_counter() - start) * 1e3 >= self.wall_ms

    def capped_rounds(self, cap: int) -> "CoorBudget":
        rounds = cap if self.rounds is None else min(self.rounds, cap)
        return CoorBudget(rounds=rounds, wall_ms=self.wall_ms)


class _Engine:
    """Messages of one coordination graph in an orientation's level schedule.

    The engine works in its schedule's `MessagePlan`: the phase-major
    message buffer holds the forward messages (along `order.edges`) and the
    reverse messages (against them) as columns, then the agents' own costs,
    and both directions persist so each new message can exclude exactly the
    recipient's own contribution. The graph's tables are read as they are:
    one gather by the schedule's `cost_cells` lays its edge tables out
    [x_sender][x_receiver][row], the min running over the leading axis.
    `update` recomputes one level's columns from the buffer as it stands;
    a pass applies it to each of a direction's levels in turn. Every engine
    on a schedule rewrites the same message and cost buffers, so only one of
    them may be live at a time, as inside `coordinate`.
    """

    def __init__(self, cg: CoordinationGraph, order: DagOrder):
        sched = order.schedule
        if cg.agents != sched.agents or cg.edges != sched.edges:
            raise ValueError("the orientation was built for a different coordination graph")
        self.schedule = sched
        self.plan = sched.plan
        self.buffer = self.plan.messages
        n_rows = len(sched.sender)
        self.buffer[:, :n_rows] = 0.0
        self.buffer[:, n_rows + 1 :] = cg.individual.T
        cg.edge_costs.take(sched.cost_cells, out=self.plan.costs, mode="clip")

    def update(self, level: int) -> None:
        """Recompute the message columns of level `level`: per row, the
        sender's incoming messages and own cost added in slot order, less
        the excluded message, plus each edge cost, minimized over the
        sender's phase."""
        table, gathered, summands, excluded, base, spread, cost, scores, out = self.plan.levels[level]
        self.plan.flat.take(table, out=gathered, mode="clip")
        # the slots lead and each holds 4 x n entries, so numpy adds them one
        # at a time in slot order, as `segment_sum` does, for any level width
        np.add.reduce(summands, axis=0, out=base, initial=0.0)
        base -= excluded
        np.add(spread, cost, out=scores)
        np.minimum.reduce(scores, axis=0, out=out)

    def picks(self, messages: Optional[np.ndarray] = None) -> np.ndarray:
        """Each agent's argmin phase given `messages`, a buffer of this
        engine's layout, or else the engine's own buffer."""
        if messages is None:
            messages = self.buffer
        totals = segment_sum(messages.reshape(-1), self.plan.totals)
        return np.argmin(totals, axis=0)


@dataclass
class CoordResult:
    assignment: JointAssignment
    passes: int
    rounds: int
    converged: bool


def coordinate(cg: CoordinationGraph, order: DagOrder, budget: CoorBudget) -> CoordResult:
    """Alternating forward/reverse passes under a budget; anytime.

    The messages are copied after every finished pass, into the plan's
    snapshot of that pass's parity; an interruption mid-pass returns the
    decision of the latest copy, or of the partial messages if no pass ever
    finished. Stops early once a full cycle no longer changes any message
    by more than 1e-9 (`_cycle_closed`). Only the returned decision is
    computed.
    """
    start = time.perf_counter()
    engine = _Engine(cg, order)
    if not order.edges:
        return CoordResult(JointAssignment(cg.agents, engine.picks()), 0, 0, True)

    diameter = order.diameter
    # even passes run the forward levels, odd passes the reverse ones
    directions = (range(diameter), range(diameter, 2 * diameter))
    # snapshots[p % 2] holds the messages after the latest finished pass p
    # of its parity, so a cycle compares with snapshots[0]
    snapshots = engine.plan.snapshots
    n_rows = 2 * len(order.edges)
    rounds_done = 0
    passes = 0
    while True:
        for level in directions[passes % 2]:
            if budget.exhausted(start, rounds_done):
                finished = snapshots[passes % 2] if passes else None
                return CoordResult(JointAssignment(cg.agents, engine.picks(finished)), passes, rounds_done, False)
            engine.update(level)
            rounds_done += 1
        passes += 1
        cycle_end = passes % 2 == 0 and passes > 2
        if cycle_end and _cycle_closed(engine.buffer[:, :n_rows], snapshots[0, :, :n_rows]):
            return CoordResult(JointAssignment(cg.agents, engine.picks()), passes, rounds_done, True)
        np.copyto(snapshots[passes % 2], engine.buffer)


def _cycle_closed(messages: np.ndarray, before: np.ndarray) -> bool:
    """Whether every message is within 1e-9 of its value a cycle before, or
    equal to it: `np.allclose(messages, before, rtol=0, atol=1e-9)`, whose
    infinities count as close only to themselves and NaN to nothing."""
    with np.errstate(invalid="ignore"):
        return bool(((np.abs(messages - before) <= 1e-9) | (messages == before)).all())
