"""Vectorized one-step prediction arrays shared by the planner's cost
tables and best-response sweeps.

Both evaluate the same quantities for every movement: how much a phase
choice drains its queue and how much upstream releases feed its link.
`period_model` computes them for a whole period as numpy expressions over
the network's `MovementArrays`. It takes the state's queue vector and the
turning shares into the arrays' `TermColumns` order once, which numbers
each edge's movements slot by slot, and computes in that order. Every
intermediate is phase-major, (4, C) over term columns or (4, L) over
links, so each ufunc runs along the movements or links rather than over
4-element rows; the release onto each link is a gather through
`to_link_table` summed over its slots in table order, as `segment_sum`
sums. The model squares every movement's next-period queue under each pair
of upstream and own phase once, into a pair-term table it owns, from which
`build_cg` sums its cost tables and each sweep gathers its scores. The
temporaries that are never returned live in per-network buffers of the
arrays; what a call returns, the model and its pair terms among it, is a
fresh array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netsignal.network import NUM_PHASES, MovementArrays, RoadNetwork, movement_arrays
from netsignal.simulation import QueueState, TurningModel


@dataclass
class PeriodModel:
    """One period's pair terms, in the network's `TermColumns` order.

    `terms` is the phase-major (4, 4, C + 1) table of the movements'
    squared next-period queues, one term column each: at [x_up][x][c], when
    the intersection upstream of the movement's input link picks x_up and
    its own picks x, the movement's queue after phase x drains it, plus its
    turning share r times the volume released onto its input link under
    x_up. A flipped column holds the same terms transposed, at [x][x_up],
    which is its edge table's [x_i][x_j]. A movement whose input link has no
    upstream intersection takes the link's demand inflow (the turning
    model's `d` on entry links, else 0.0) under every x_up. Pad columns and
    column C are zero.
    """

    arrays: MovementArrays
    terms: np.ndarray

    def sweep_scores(self, actions: np.ndarray) -> np.ndarray:
        """Per-agent predicted own balance for each candidate phase, given
        every other agent plays `actions` (indexed by agent position), as a
        phase-major (4, N) array: each agent's pair terms under its
        upstream agents' actions, added in `agent_table` order."""
        upstream, stride, cells, offsets, index, gathered = self.arrays.sweep_tables
        actions.take(upstream, out=offsets, mode="clip")
        offsets *= stride
        np.add(cells, offsets[:, None], out=index)
        self.terms.reshape(-1).take(index, out=gathered, mode="clip")
        return np.add.reduce(gathered, axis=0, initial=0.0)


def period_model(net: RoadNetwork, state: QueueState, turning: TurningModel) -> PeriodModel:
    arr = movement_arrays(net)
    cols = arr.term_columns
    q = state.q.take(cols.movement)
    r = turning.r.take(cols.movement)
    cap = np.minimum(cols.sat, q)
    released = arr.phase_rows
    np.multiply(cols.act, cap, out=released[:, :-1])
    drained = q - released[:, :-1]
    gathered = arr.phase_gather((NUM_PHASES, *cols.to_link_table.shape))
    released.take(cols.to_link_table, axis=1, out=gathered, mode="clip")
    # numpy adds the slots one at a time in table order from 0.0, as
    # `segment_sum` does, because the links, not the slots, run innermost:
    # a movement joins two links, so a table with slots has two or more
    release_onto = np.add.reduce(gathered, axis=1, initial=0.0)
    entry_inflow = np.where(arr.entry_link_mask, turning.d, 0.0)
    inflow = np.where(arr.fed_link_mask, release_onto, entry_inflow)
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
    return PeriodModel(arr, terms)
