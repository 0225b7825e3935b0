"""Anytime coordination by min-sum message passing on an oriented graph.

A pass sweeps the orientation level by level in one edge direction: a
forward pass takes the edges in order of their sender's longest-path depth,
a reverse pass in order of the height of their forward receiver. Each
message is computed once per pass, from inputs that are already final for
that pass, and one level counts as one round of the budget, so a pass is
`diameter` rounds. `coordinate` runs one cycle, the forward pass and then
the reverse pass, unless its budget runs out first. The reverse pass
combines each agent's own cost with everything learned on the forward pass:
on acyclic graphs that one cycle yields exact min-marginals and the
recovered joint action is optimal (Kok & Vlassis, JMLR 7, 2006).

A message from sender to receiver scores each receiver phase with the best
the sender can do given it: its own cost, the shared edge cost, and all
messages the sender has received from agents other than the receiver. A
complete joint decision can be extracted at any time by per-agent argmin
over own cost plus received messages, which is what makes the loop
interruptible: wherever the budget stops it, even inside a pass, the
decision is read from the current messages, so every level run counts.

Each new message is shifted so that its phase-0 entry is 0 (Kok & Vlassis
normalize max-plus on cyclic graphs the same way). The shift is a
per-message constant, so it changes no argmin in exact arithmetic: exactness
on trees, the one-pass fixpoint and the decision at any interruption all
hold. Without it a message grows by the costs it sums at every level, and
on a graph with cycles it outgrows every cost until the costs are lost to
rounding: one pass on a 100x100 grid already reaches 2.7e28. So the shift
happens per level, not per pass, and keeps every message within the range
of one edge table.

The messages live in a `MessagePlan`, which lays them out by the
orientation and is kept with it: message rows grouped into levels, one
buffer of every message and own cost, the edge costs gathered into one
contiguous block per level, and a C-ordered gather table per level.
`coordinate` loads each period's graph into it and runs the cycle.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from netsignal.coordination import CoordinationGraph
from netsignal.network import NUM_PHASES, _is_count, _number_or_nan, gather_table
from netsignal.ordering import DagOrder, longest_paths
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
        # a cap above 2**53, which no run reaches, scales as 2**53, a float
        return CoorBudget(
            rounds=None if self.rounds is None else int(min(self.rounds, 2**53) * fraction),
            wall_ms=None if self.wall_ms is None else self.wall_ms * fraction,
        )

    def limits(self, start: float, most: int) -> tuple[int, float]:
        """The budget of one run of at most `most` rounds, read once: the
        rounds to run, `most` or the rounds cap if lower, and the deadline,
        the `time.perf_counter()` reading `start` plus the wall-clock cap
        (inf without one). A round starts only while the clock reads less
        than the deadline, so a run stops at a round boundary."""
        cap = most if self.rounds is None else min(most, self.rounds)
        return cap, math.inf if self.wall_ms is None else start + self.wall_ms / 1e3


# the level arithmetic's ufuncs, looked up once
_add, _subtract = np.add, np.subtract
_add_reduce, _min_reduce = np.add.reduce, np.minimum.reduce


class LevelPlan(NamedTuple):
    """One level's gather table and the buffers and views its update uses.

    The level has n rows and the plan K slots. `table[k, x, c]` is the
    flat `messages` position that slot k of the level's row c reads for
    phase x: the rows in the sender's `slots` column, then the sender's
    own-cost column, then the `excluded` row. The table is C-ordered, so
    its one gather walks it in the order it fills `gathered`. `summands`
    and `excluded` are the first K + 1 slots and the last slot of the
    slot-major (K + 2, 4, n) `gathered`; `spread` views the (4, n) `base`
    as (4, 1, n), which adds into the (4, 4, n) `scores` with `cost`, and
    `first` views its phase-0 row. `cost` is the level's block of the cost
    buffer, a C-contiguous (4, 4, n) view indexed [x_sender][x_receiver][c].
    `out` is the level's columns of the message buffer.
    """

    table: np.ndarray
    gathered: np.ndarray
    summands: np.ndarray
    excluded: np.ndarray
    base: np.ndarray
    spread: np.ndarray
    first: np.ndarray
    cost: np.ndarray
    scores: np.ndarray
    out: np.ndarray


class MessagePlan:
    """The message layout of one orientation and the buffers a pass works in.

    Agents sit at their position in sorted-id order, as `agents` lists them.
    Messages are numbered by row: the forward messages (along the
    orientation) are rows [0, E), the reverse messages rows [E, 2E).
    Forward rows are grouped by the longest-path depth of their sender,
    reverse rows by the height (longest path down to a sink) of their
    forward receiver; within a level rows keep edge order. `level_rows` are
    the (start, stop) rows of the `diameter` forward levels, then of the
    `diameter` reverse levels. A message only reads messages of lower levels
    in its own direction, so one sweep over a direction's levels leaves its
    messages at their fixpoint.

    Each row r has its sender's position in `sender[r]` and in `excluded[r]`
    the row of the message its receiver sends back over the same edge.
    `slots` is the (K, N) `gather_table` of the rows each agent receives:
    column n lists agent n's incoming forward messages, then its incoming
    reverse messages, each in edge order, padded with the zero row 2E, and
    they are added top to bottom. So an incoming-message sum does not depend
    on how rows are grouped into levels. `edges` are the order's edges as
    (i < j) pairs, which is the edge order of the `CoordinationGraph` it was
    built from, and `tree` whether they form a tree.

    `messages` is the phase-major (4, 2E + 1 + N) buffer: message row r in
    column r, the zero column at 2E and agent n's own costs in column
    2E + 1 + n; `flat` is its flat view, which the gather tables index.
    Both directions persist, so each new message can exclude exactly the
    recipient's own contribution. `costs` holds every row's edge costs
    level-major: the level of rows [a, b) owns the block [16a, 16b), a
    C-ordered (4, 4, b - a) table indexed [x_sender][x_receiver][row - a],
    the min running over the leading axis, which is the level's `cost`.
    `cost_cells` lists, for each entry of `costs`, the position of that
    edge cost, whichever end of the (i < j) table each agent sits at, in
    the flat phase-major (4, 4, E) stack of edge tables,
    `edge_costs.transpose(1, 2, 0)`, so one gather reads a graph's
    `edge_costs` as they are into every level's block. `levels` holds a
    `LevelPlan` per level, whose `gathered`, `base` and `scores` are
    contiguous views of scratch buffers all levels share, sized for the
    widest level. `totals` is the slot-major (K + 1, 4, N) gather
    table of each agent's incoming rows (its `slots` column) and then its
    own-cost column; its gather, summed over the leading slot axis, scores
    the agent's phases.

    `load` puts a graph in the buffers, `update` recomputes one level and
    `picks` reads a decision from the messages as they stand, at any level
    boundary. Every graph loaded rewrites the same buffers,
    so a plan serves one graph at a time, as inside `coordinate`.
    """

    def __init__(self, order: DagOrder):
        self.agents = tuple(sorted(order.dist))
        ids = np.array(self.agents, dtype=np.intp)
        n_agents, n_edges = len(ids), len(order.edges)
        self.n_rows = 2 * n_edges
        sender, receiver = np.searchsorted(ids, np.array(order.edges, dtype=np.intp).reshape(-1, 2)).T
        fwd, fwd_levels = _level_order(longest_paths(sender, receiver, n_agents)[sender])
        rev, rev_levels = _level_order(longest_paths(receiver, sender, n_agents)[receiver])
        self.level_rows = fwd_levels + tuple((a + n_edges, b + n_edges) for a, b in rev_levels)
        # message m < E runs along edge m, message E + m against it; `message`
        # lists them in row order and `row` is its inverse
        message = np.concatenate((fwd, rev + n_edges))
        row = np.empty(self.n_rows, dtype=np.intp)
        row[message] = np.arange(self.n_rows)
        source, target = np.concatenate((sender, receiver)), np.concatenate((receiver, sender))
        self.slots = gather_table(row, target, n_agents, self.n_rows)
        self.sender = source[message]
        self.excluded = row[(message + n_edges) % self.n_rows]
        x_s, x_r = np.arange(NUM_PHASES)[:, None, None], np.arange(NUM_PHASES)[:, None]
        # an (i < j) edge's table is indexed [x_i][x_j], by agent position
        low_first = self.sender < target[message]
        cells = np.where(low_first, x_s * NUM_PHASES + x_r, x_r * NUM_PHASES + x_s)
        cells = cells * n_edges + message % n_edges
        # level by level, each level's (4, 4, n) block C-ordered; none on E = 0
        blocks = [cells[:, :, a:b].reshape(-1) for a, b in self.level_rows]
        self.cost_cells = np.concatenate(blocks) if blocks else cells.reshape(-1)
        self.edges = tuple((u, v) if u < v else (v, u) for u, v in order.edges)
        # the (agents, edges) tuples that last passed `load`'s layout check
        self._layout = (self.agents, self.edges)
        # E = N - 1 on the connected graphs an orientation is made from
        self.tree = n_edges == n_agents - 1

        own = self.n_rows + 1  # the first own-cost column
        self.messages = np.zeros((NUM_PHASES, own + n_agents))
        self.flat = self.messages.reshape(-1)
        self.costs = np.empty(self.cost_cells.size)
        # column c of phase x sits at flat position x * width + c
        phase_start = (np.arange(NUM_PHASES) * self.messages.shape[1])[:, None]
        columns = np.vstack((self.slots, own + np.arange(n_agents)))
        self.totals = columns[:, None] + phase_start
        columns = np.vstack((self.slots[:, self.sender], own + self.sender, self.excluded))
        widest = max((b - a for a, b in self.level_rows), default=0)
        scratch = tuple(np.empty(k * NUM_PHASES * widest) for k in (len(columns), 1, NUM_PHASES))
        self.levels = tuple(
            self._level(np.ascontiguousarray(columns[:, None, a:b] + phase_start), a, b, scratch)
            for a, b in self.level_rows
        )

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
            first=base[:1],
            cost=self.costs[NUM_PHASES**2 * start : NUM_PHASES**2 * stop].reshape(scores.shape),
            scores=scores,
            out=self.messages[:, start:stop],
        )

    def load(self, cg: CoordinationGraph) -> None:
        """Zero the messages and read `cg`'s tables as they are: its own
        costs into their columns and, by one gather through `cost_cells`
        from the phase-major stack of its edge tables, which is what
        `build_cg`'s graphs hold, its edge tables into the level blocks of
        `costs`. The graph must have the plan's agents and edges; tuples that
        passed before pass by identity."""
        agents, edges = self._layout
        if cg.agents is not agents or cg.edges is not edges:
            if cg.agents != agents or cg.edges != edges:
                raise ValueError("the orientation was built for a different coordination graph")
            self._layout = (cg.agents, cg.edges)
        self.messages[:, : self.n_rows] = 0.0
        self.messages[:, self.n_rows + 1 :] = cg.individual.T
        cg.edge_costs.transpose(1, 2, 0).take(self.cost_cells, out=self.costs, mode="clip")

    def update(self, level: int) -> None:
        """Recompute the message columns of level `level`: per row, the
        sender's incoming messages and own cost added in slot order, less
        the excluded message, plus each edge cost, minimized over the
        sender's phase, less that minimum's phase-0 entry. The shift comes
        at every level, since messages outgrow their costs within one pass
        (see the module docstring); it reuses `base`, which the level no
        longer needs once `scores` is formed."""
        table, gathered, summands, excluded, base, spread, first, cost, scores, out = self.levels[level]
        self.flat.take(table, out=gathered, mode="clip")
        # the slots lead and each holds 4 x n entries, so numpy adds them one
        # at a time in slot order, for any level width
        _add_reduce(summands, axis=0, out=base, initial=0.0)
        base -= excluded
        _add(spread, cost, out=scores)
        _min_reduce(scores, axis=0, out=base)
        _subtract(base, first, out=out)

    def picks(self) -> np.ndarray:
        """Each agent's argmin phase given the current messages."""
        gather = self.flat.take(self.totals, axis=0, mode="clip")
        return _add_reduce(gather, axis=0, initial=0.0).argmin(axis=0)


def _level_order(level: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Edge indices sorted by level (edge order within a level) and the
    (start, stop) positions of each level in that order."""
    bounds = [0, *np.cumsum(np.bincount(level)).tolist()]
    return np.argsort(level, kind="stable"), tuple(zip(bounds[:-1], bounds[1:]))


def message_plan(order: DagOrder) -> MessagePlan:
    """The orientation's message plan, made on first use and kept in the
    order's `__dict__` as `functools.cached_property` would on a frozen
    dataclass: topology-derived arrays and scratch buffers that no period
    reads back, as in every per-network cache; a run's planner owns the rest."""
    plan = order.__dict__.get("_message_plan")
    if plan is None:
        plan = order.__dict__["_message_plan"] = MessagePlan(order)
    return plan


@dataclass
class CoordResult:
    assignment: JointAssignment
    passes: int
    rounds: int
    converged: bool


def coordinate(cg: CoordinationGraph, order: DagOrder, budget: CoorBudget) -> CoordResult:
    """One forward pass, then one reverse pass, under a budget; anytime.

    Whenever the budget runs out, at a pass end or between two levels, the
    decision is each agent's argmin over the current messages. `passes`
    counts the passes finished. `converged` holds when the whole cycle ran
    on a tree (E = N - 1 on the connected graphs an orientation is made
    from), where one cycle is the message fixpoint. `cg.agents` passed the
    plan's layout check, and each phase is an argmin over four rows, so the
    decision is an unchecked view.
    """
    start = time.perf_counter()
    plan = message_plan(order)
    plan.load(cg)
    # the forward levels are 0..diameter-1 and the reverse ones follow, so
    # round k runs level k
    levels = len(plan.levels)
    cap, deadline = budget.limits(start, levels)
    clock, update = time.perf_counter, plan.update
    rounds = 0
    while rounds < cap and clock() < deadline:
        update(rounds)
        rounds += 1
    passes = rounds // order.diameter if order.diameter else 0
    converged = rounds == levels and plan.tree
    return CoordResult(JointAssignment._unchecked(cg.agents, plan.picks()), passes, rounds, converged)
