"""Vectorized one-step prediction arrays shared by the planner's cost
tables and best-response sweeps.

Both evaluate the same quantities for every movement: how much a phase
choice drains its queue and how much upstream releases feed its link.
`period_model` computes them for a whole period as numpy expressions over
the network's `MovementArrays`. It takes the state's queue vector and the
turning shares into the network's `PairColumns` order once, which numbers
each edge's movements slot by slot, and computes in that order. Every
intermediate is phase-major, (4, C) over term columns or (4, L) over
links, so each ufunc runs along the movements or links rather than over
4-element rows; the release onto each link is a gather through
`to_link_table` summed over its slots in table order, by the rule that
`MovementArrays` states. The model squares every movement's next-period
queue under each pair of upstream and own phase once, into a pair-term
table it owns, from which `PeriodModel.cost_tables` sums the coordination
graph's tables and each sweep gathers its scores. The temporaries that are
never returned live in the buffers of the network's `PairColumns`; what a
call returns, the model and its pair terms among it, is a fresh array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from netsignal.network import NUM_PHASES, MovementArrays, RoadNetwork
from netsignal.network import gather_table, movement_arrays
from netsignal.simulation import QueueState, TurningModel


class PairColumns:
    """The column order of a network's pair-term tables (`PeriodModel.terms`)
    and the planner tables and buffers built from it. The network's first
    `period_model` makes it and keeps it with the network's `MovementArrays`,
    so runs that never model a period carry none of it. A buffer's contents
    never outlive the call that writes them.

    The tables have C term columns, then the zero column C that padding
    reads. The entry-link movements come first, in movement order; every
    other movement is on the edge of its input link, which is internal.
    The edge block is W = `width` = max(E, 2) columns wide: from
    `edge_start` on, column `edge_start + k * W + e` holds the k-th term of
    edge e, so each edge table sums the `slots` axis of one (slots, W)
    block: first the edge's unflipped movements (on a link from the lower
    id to the higher), then from `flip_start` on its flipped ones, each in
    movement order and padded to the most any edge has. With W >= 2 the
    slot axis never runs innermost, so a plain reduction adds the slots in
    order (see `MovementArrays`). A flipped column holds its terms
    transposed, at [x_own][x_up], which is the edge table's [x_i][x_j].

    - `movement` (C,) is each column's movement, 0 at the `pads`, whose
      terms `period_model` zeroes (None where there are none, as on grids
      with two edges or more; a single-edge network has one pad per slot);
      `column` (n_mov + 1,) is its inverse, C for the zero row n_mov. `sat`,
      `act` and `mov_from` are the movement arrays in column order;
      `to_link_table`, padded with C, lists the columns by output link, and
      `entry_key` keys the flat (4, edge_start) entry terms `phase * N + agent`.
    - `released` (4, C + 1) holds `period_model`'s releases; no call writes
      its zero column. `release_gather` is their (4, K, links) gather.
    - The sweeps gather through `agent_table`. Per entry, `upstream` is the
      position of the agent upstream of its input link (agent 0 where there
      is none and at pads, whose terms no upstream phase changes), `stride`
      how far apart its terms under successive upstream phases lie in the
      flat terms, and `cells` (K, 4, agents) where its term under upstream
      phase 0 and own phase x lies. `offsets` and `index` are the per-sweep
      buffers of those offsets and positions, and `sweep_gather` the
      terms' gather, which shares its memory with `release_gather`.
      `positions` are the agent positions, 0..N-1, at which the sweeps read
      each agent's score under its current phase.
    """

    def __init__(self, net: RoadNetwork):
        arr = movement_arrays(net)
        # a movement takes its input link's edge and orientation
        mov_edge, mov_flipped = arr.link_edge.take(arr.mov_from), arr.link_flipped.take(arr.mov_from)

        n_agents = len(arr.agent_ids)
        # two columns at least, so no block's slot axis runs innermost
        self.width = max(len(arr.edges), 2)
        # the entry-link movements are the ones on no edge
        entry = np.flatnonzero(mov_edge < 0)
        sides = (np.flatnonzero((mov_edge >= 0) & ~mov_flipped), np.flatnonzero(mov_flipped))
        blocks = [gather_table(side, mov_edge[side], self.width, -1) for side in sides]
        movement = np.concatenate((entry, *(block.reshape(-1) for block in blocks)))
        n_cols = len(movement)
        real = np.flatnonzero(movement >= 0)
        column = np.full(arr.n_mov + 1, n_cols, dtype=np.intp)
        column[movement[real]] = real
        pads = np.flatnonzero(movement < 0)
        movement[pads] = 0
        self.movement, self.column = movement, column
        self.pads = pads if pads.size else None
        self.sat = arr.sat.take(movement)
        self.act = arr.act.take(movement, axis=1)
        self.mov_from = arr.mov_from.take(movement)
        self.to_link_table = column.take(arr.to_link_table)
        self.entry_key = (np.arange(NUM_PHASES)[:, None] * n_agents + arr.mov_agent.take(entry)).reshape(-1)
        self.edge_start = len(entry)
        self.flip_start = len(entry) + blocks[0].size
        self.slots = len(blocks[0]) + len(blocks[1])

        table = arr.agent_table
        self.upstream = np.maximum(np.append(arr.link_upstream_agent[arr.mov_from], -1)[table], 0)
        col = column[table]
        width = n_cols + 1
        flipped = (col >= self.flip_start) & (col < n_cols)
        self.stride = np.where(flipped, width, NUM_PHASES * width)
        own = np.where(flipped, NUM_PHASES * width, width)
        self.cells = np.arange(NUM_PHASES)[:, None] * own[:, None] + col[:, None]
        self.offsets = np.empty(table.shape, dtype=np.intp)
        self.index = np.empty(self.cells.shape, dtype=np.intp)
        self.positions = np.arange(n_agents)

        self.released = np.zeros((NUM_PHASES, width))
        release_shape = (NUM_PHASES, *self.to_link_table.shape)
        gather = np.empty(max(self.to_link_table.size, table.size) * NUM_PHASES)
        self.release_gather = gather[: math.prod(release_shape)].reshape(release_shape)
        self.sweep_gather = gather[: self.cells.size].reshape(self.cells.shape)


@dataclass
class PeriodModel:
    """One period's pair terms, in the network's `PairColumns` order.

    `terms` is the phase-major (4, 4, C + 1) table of the movements'
    squared next-period queues, one term column each: at [x_up][x][c], when
    the intersection upstream of the movement's input link picks x_up and
    its own picks x, the movement's queue after phase x drains it, plus its
    turning share r times the volume released onto its input link under
    x_up. A flipped column holds the same terms transposed, at [x][x_up],
    which is its edge table's [x_i][x_j]. An entry-link movement takes its
    link's demand inflow, the turning model's `d`, under every x_up. Pad
    columns and column C are zero.
    """

    arrays: MovementArrays
    columns: PairColumns
    terms: np.ndarray

    def cost_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The coordination graph's tables, phase-major: the (4, 4, E) edge
        tables, one reduction over the slot axis of the (slots, W) edge
        block less its pad columns e >= E, and the (4, N) individual costs,
        one `np.bincount` of the entry-link terms over `entry_key`. Each
        table adds its terms in movement order, the unflipped links' first."""
        cols, terms, width = self.columns, self.terms, self.columns.width
        block = terms[:, :, cols.edge_start : cols.edge_start + cols.slots * width]
        block = block.reshape(NUM_PHASES, NUM_PHASES, cols.slots, width)
        edges = np.add.reduce(block, axis=2, initial=0.0)[:, :, : len(self.arrays.edges)]
        # an entry-link movement's terms are the same under every upstream
        # phase; with no entry links at all, bincount's zeros are integers
        n_keys = NUM_PHASES * len(self.arrays.agent_ids)
        own = np.bincount(cols.entry_key, weights=terms[0, :, : cols.edge_start].reshape(-1), minlength=n_keys)
        return edges, own.astype(float, copy=False).reshape(NUM_PHASES, -1)

    def sweep_scores(self, actions: np.ndarray) -> np.ndarray:
        """Per-agent predicted own balance for each candidate phase, given
        every other agent plays `actions` (indexed by agent position), as a
        phase-major (4, N) array: each agent's pair terms under its
        upstream agents' actions, added in `agent_table` order."""
        cols = self.columns
        actions.take(cols.upstream, out=cols.offsets, mode="clip")
        cols.offsets *= cols.stride
        np.add(cols.cells, cols.offsets[:, None], out=cols.index)
        self.terms.reshape(-1).take(cols.index, out=cols.sweep_gather, mode="clip")
        return np.add.reduce(cols.sweep_gather, axis=0, initial=0.0)


def period_model(net: RoadNetwork, state: QueueState, turning: TurningModel) -> PeriodModel:
    """The period's pair terms. The `PairColumns` kept on the arrays hold only topology-derived
    arrays and scratch buffers that no period reads back; a run's planner owns everything else."""
    arr = movement_arrays(net)
    if not hasattr(arr, "_pair_columns"):
        arr._pair_columns = PairColumns(net)
    cols = arr._pair_columns
    q = state.q.take(cols.movement)
    r = turning.r.take(cols.movement)
    cap = np.minimum(cols.sat, q)
    released = cols.released
    np.multiply(cols.act, cap, out=released[:, :-1])
    drained = q - released[:, :-1]
    gathered = cols.release_gather
    released.take(cols.to_link_table, axis=1, out=gathered, mode="clip")
    # numpy adds the slots one at a time in table order from 0.0 because
    # the links, not the slots, run innermost: a movement joins two links,
    # so a table with slots has two or more
    release_onto = np.add.reduce(gathered, axis=1, initial=0.0)
    inflow = np.where(arr.entry_link_mask, turning.d, release_onto)
    incoming = inflow.take(cols.mov_from, axis=1)
    incoming *= r
    terms = np.empty((NUM_PHASES, NUM_PHASES, len(r) + 1))
    terms[:, :, -1] = 0.0
    flip = cols.flip_start
    np.add(incoming[:, None, :flip], drained[:, :flip], out=terms[:, :, :flip])
    np.add(incoming[None, :, flip:], drained[:, None, flip:], out=terms[:, :, flip:-1])
    cells = terms[:, :, :-1]
    np.square(cells, out=cells)
    if cols.pads is not None:
        terms[:, :, cols.pads] = 0.0
    return PeriodModel(arr, cols, terms)
