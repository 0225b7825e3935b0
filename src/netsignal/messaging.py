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
from netsignal.network import NUM_PHASES, _is_count, _number_or_nan, segment_sum
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

    All messages live in one buffer laid out by `DagOrder.schedule`: forward
    messages travel along `order.edges`, reverse messages against them, and
    both persist so each new message can exclude exactly the recipient's own
    contribution. `update` recomputes a contiguous range of rows from the
    buffer as it stands; a pass applies it to one level at a time. The
    graph's tables are read as they are: one gather by the schedule's
    `cost_cells` lays its edge tables out [x_sender][row][x_receiver], the
    min running over the leading axis, and one by `sender` gives each row
    its sender's own cost. The first gather writes into the schedule's
    `cost_buffer`, which every engine on that schedule shares, so only one
    of them may be live at a time, as inside `coordinate`.
    """

    def __init__(self, cg: CoordinationGraph, order: DagOrder):
        sched = order.schedule
        if cg.agents != sched.agents or cg.edges != sched.edges:
            raise ValueError("the orientation was built for a different coordination graph")
        self.schedule = sched
        self.c_ind = cg.individual
        self.buffer = np.zeros((len(sched.sender) + 1, NUM_PHASES))
        self.cost = np.take(cg.edge_costs, sched.cost_cells, out=sched.cost_buffer, mode="clip")
        self.c_sender = self.c_ind[sched.sender]

    def update(self, start: int, stop: int) -> None:
        """Recompute buffer rows [start, stop)."""
        sched = self.schedule
        base = segment_sum(self.buffer, sched.inputs[:, start:stop])
        base += self.c_sender[start:stop]
        base -= np.take(self.buffer, sched.excluded[start:stop], axis=0)
        scores = base.T[:, :, None] + self.cost[:, start:stop]
        np.minimum.reduce(scores, axis=0, out=self.buffer[start:stop])

    def picks(self, messages: Optional[np.ndarray] = None) -> np.ndarray:
        """Each agent's argmin phase given `messages`, a buffer of this
        engine's layout, or else the engine's own buffer."""
        if messages is None:
            messages = self.buffer
        totals = self.c_ind + segment_sum(messages, self.schedule.slots)
        return np.argmin(totals, axis=1)


@dataclass
class CoordResult:
    assignment: JointAssignment
    passes: int
    rounds: int
    converged: bool


def coordinate(cg: CoordinationGraph, order: DagOrder, budget: CoorBudget) -> CoordResult:
    """Alternating forward/reverse passes under a budget; anytime.

    The messages are copied after every finished pass; an interruption
    mid-pass returns the decision of the latest copy, or of the partial
    messages if no pass ever finished. Stops early once a full cycle no
    longer changes any message. Only the returned decision is computed.
    """
    start = time.perf_counter()
    engine = _Engine(cg, order)
    if not order.edges:
        return CoordResult(JointAssignment(cg.agents, engine.picks()), 0, 0, True)

    levels, diameter = order.schedule.levels, order.diameter
    # even passes run the forward levels, odd passes the reverse ones
    directions = (levels[:diameter], levels[diameter:])
    rounds_done = 0
    passes = 0
    finished: Optional[np.ndarray] = None  # the messages after the latest pass
    previous_cycle: Optional[np.ndarray] = None
    while True:
        for level_start, level_stop in directions[passes % 2]:
            if budget.exhausted(start, rounds_done):
                return CoordResult(JointAssignment(cg.agents, engine.picks(finished)), passes, rounds_done, False)
            engine.update(level_start, level_stop)
            rounds_done += 1
        passes += 1
        finished = engine.buffer.copy()
        if passes % 2 == 0:
            if previous_cycle is not None and np.allclose(
                finished, previous_cycle, rtol=0.0, atol=1e-9
            ):
                return CoordResult(JointAssignment(cg.agents, engine.picks()), passes, rounds_done, True)
            previous_cycle = finished
