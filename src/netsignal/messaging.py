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

The messages live in a `MessagePlan`, laid out by the orientation's
`LevelSchedule` and kept with it: one buffer of every message and own
cost, the edge costs gathered into message order, and a gather table per
level. `coordinate` loads each period's graph into it and runs the passes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from netsignal.coordination import CoordinationGraph
from netsignal.network import NUM_PHASES, _is_count, _number_or_nan, segment_sum
from netsignal.ordering import DagOrder, LevelSchedule
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


class LevelPlan(NamedTuple):
    """One level's gather table and the buffers and views its update uses.

    The level has n rows and the schedule K slots. `table[k, x, c]` is the
    flat `messages` position that slot k of the level's row c reads for
    phase x: the rows in the sender's `slots` column, then the sender's
    own-cost column, then the `excluded` row. `summands` and `excluded` are
    the first K + 1 slots and the last slot of the slot-major (K + 2, 4, n)
    `gathered`; `spread` views the (4, n) `base` as (4, 1, n), which adds
    into the (4, 4, n) `scores` with `cost`, the level's columns of the cost
    buffer. `out` is the level's columns of the message buffer.
    """

    table: np.ndarray
    gathered: np.ndarray
    summands: np.ndarray
    excluded: np.ndarray
    base: np.ndarray
    spread: np.ndarray
    cost: np.ndarray
    scores: np.ndarray
    out: np.ndarray


class MessagePlan:
    """The messages of one level schedule and the buffers a pass works in.

    `messages` is the phase-major (4, 2E + 1 + N) buffer: message row r in
    column r, a zero column at 2E and agent n's own costs in column
    2E + 1 + n; `flat` is its flat view, which the gather tables index.
    Both directions persist, so each new message can exclude exactly the
    recipient's own contribution. `costs` is the (4, 4, 2E) table of edge
    costs by the schedule's `cost_cells`, indexed
    [x_sender][x_receiver][row], the min running over the leading axis.
    `snapshots` holds two copies of `messages`, where `coordinate` keeps
    the messages after the latest finished even and odd pass. `levels`
    holds a `LevelPlan` per level, whose `gathered`, `base` and `scores`
    are contiguous views of scratch buffers all levels share, sized for the
    widest level. `totals` is the slot-major (K + 1, 4, N) gather table of
    each agent's incoming rows (its `slots` column) and then its own-cost
    column, whose `segment_sum` scores the agent's phases.

    `load` puts a graph in the buffers, `update` recomputes one level and
    `picks` reads a decision. Every graph loaded rewrites the same buffers,
    so a plan serves one graph at a time, as inside `coordinate`.
    """

    def __init__(self, sched: LevelSchedule):
        self.n_rows, n_agents = len(sched.sender), len(sched.agents)
        own = self.n_rows + 1  # the first own-cost column
        self.cost_cells = sched.cost_cells
        # the (agents, edges) tuples that last passed `load`'s layout check
        self._layout = (sched.agents, sched.edges)
        self.messages = np.zeros((NUM_PHASES, own + n_agents))
        self.flat = self.messages.reshape(-1)
        self.snapshots = np.zeros((2, *self.messages.shape))
        self.costs = np.empty(sched.cost_cells.shape)
        # column c of phase x sits at flat position x * width + c
        phase_start = (np.arange(NUM_PHASES) * self.messages.shape[1])[:, None]
        columns = np.vstack((sched.slots, own + np.arange(n_agents)))
        self.totals = columns[:, None] + phase_start
        columns = np.vstack((sched.slots[:, sched.sender], own + sched.sender, sched.excluded))
        widest = max((b - a for a, b in sched.levels), default=0)
        scratch = tuple(np.empty(k * NUM_PHASES * widest) for k in (len(columns), 1, NUM_PHASES))
        self.levels = tuple(self._level(columns[:, None, a:b] + phase_start, a, b, scratch) for a, b in sched.levels)

    def _level(self, table: np.ndarray, start: int, stop: int, scratch: tuple) -> LevelPlan:
        n = stop - start
        gathered = scratch[0][: table.size].reshape(table.shape)
        base = scratch[1][: NUM_PHASES * n].reshape(NUM_PHASES, n)
        scores = scratch[2][: NUM_PHASES * NUM_PHASES * n].reshape(NUM_PHASES, NUM_PHASES, n)
        return LevelPlan(
            table=table,
            gathered=gathered,
            summands=gathered[:-1],
            excluded=gathered[-1],
            base=base,
            spread=base[:, None],
            cost=self.costs[:, :, start:stop],
            scores=scores,
            out=self.messages[:, start:stop],
        )

    def load(self, cg: CoordinationGraph) -> None:
        """Zero the messages and read `cg`'s tables as they are: its own
        costs into their columns and, by one gather through `cost_cells`,
        its edge tables into `costs`. The graph must have the schedule's
        agents and edges; tuples that passed before pass by identity."""
        agents, edges = self._layout
        if cg.agents is not agents or cg.edges is not edges:
            if cg.agents != agents or cg.edges != edges:
                raise ValueError("the orientation was built for a different coordination graph")
            self._layout = (cg.agents, cg.edges)
        self.messages[:, : self.n_rows] = 0.0
        self.messages[:, self.n_rows + 1 :] = cg.individual.T
        cg.edge_costs.take(self.cost_cells, out=self.costs, mode="clip")

    def update(self, level: int) -> None:
        """Recompute the message columns of level `level`: per row, the
        sender's incoming messages and own cost added in slot order, less
        the excluded message, plus each edge cost, minimized over the
        sender's phase."""
        table, gathered, summands, excluded, base, spread, cost, scores, out = self.levels[level]
        self.flat.take(table, out=gathered, mode="clip")
        # the slots lead and each holds 4 x n entries, so numpy adds them one
        # at a time in slot order, as `segment_sum` does, for any level width
        np.add.reduce(summands, axis=0, out=base, initial=0.0)
        base -= excluded
        np.add(spread, cost, out=scores)
        np.minimum.reduce(scores, axis=0, out=out)

    def picks(self, messages: Optional[np.ndarray] = None) -> np.ndarray:
        """Each agent's argmin phase given `messages`, a buffer of this
        plan's layout, or else the plan's own buffer."""
        if messages is None:
            messages = self.messages
        totals = segment_sum(messages.reshape(-1), self.totals)
        return totals.argmin(axis=0)


def message_plan(order: DagOrder) -> MessagePlan:
    """The message plan of an orientation's level schedule, made on first
    use and kept with the schedule, so every `coordinate` call on the
    orientation rewrites the same buffers."""
    sched = order.schedule
    if not hasattr(sched, "_plan"):
        sched._plan = MessagePlan(sched)
    return sched._plan


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
    computed. `cg.agents` passed the graph's layout check, and each phase is
    an argmin over four rows, so the decision is an unchecked view.
    """
    start = time.perf_counter()
    plan = message_plan(order)
    plan.load(cg)
    if not order.edges:
        return CoordResult(JointAssignment._unchecked(cg.agents, plan.picks()), 0, 0, True)

    diameter = order.diameter
    # even passes run the forward levels, odd passes the reverse ones
    directions = (range(diameter), range(diameter, 2 * diameter))
    # snapshots[p % 2] holds the messages after the latest finished pass p
    # of its parity, so a cycle compares with snapshots[0]
    snapshots = plan.snapshots
    n_rows = plan.n_rows
    rounds_done = 0
    passes = 0
    while True:
        for level in directions[passes % 2]:
            if budget.exhausted(start, rounds_done):
                finished = snapshots[passes % 2] if passes else None
                decision = JointAssignment._unchecked(cg.agents, plan.picks(finished))
                return CoordResult(decision, passes, rounds_done, False)
            plan.update(level)
            rounds_done += 1
        passes += 1
        cycle_end = passes % 2 == 0 and passes > 2
        if cycle_end and _cycle_closed(plan.messages[:, :n_rows], snapshots[0, :, :n_rows]):
            return CoordResult(JointAssignment._unchecked(cg.agents, plan.picks()), passes, rounds_done, True)
        np.copyto(snapshots[passes % 2], plan.messages)


def _cycle_closed(messages: np.ndarray, before: np.ndarray) -> bool:
    """Whether every message is within 1e-9 of its value a cycle before, or
    equal to it: `np.allclose(messages, before, rtol=0, atol=1e-9)`, whose
    infinities count as close only to themselves and NaN to nothing.

    One cell is compared first, as Python floats, whose arithmetic sets no
    numpy warning: a gap above 1e-9 shows the cell moved, so the cycle did
    not close. A close cell, or a NaN gap from an infinity or NaN, falls
    through to the whole buffer.
    """
    if abs(messages.item(0) - before.item(0)) > 1e-9:
        return False
    with np.errstate(invalid="ignore"):
        close = (np.abs(messages - before) <= 1e-9) | (messages == before)
    return bool(np.logical_and.reduce(close, axis=None))
