"""Vectorized one-step prediction arrays shared by the planner's cost
tables and best-response sweeps.

Both evaluate the same quantities for every movement: how much a phase
choice drains its queue and how much upstream releases feed its link.
`period_model` computes them for a whole period as numpy expressions over
the network's `MovementArrays`, reading the state's queue vector and the
turning model's arrays as they are. Sums per link are `segment_sum`s
through the arrays' gather tables. The model squares every movement's
next-period queue under each pair of upstream and own phase once, into a
pair-term table it owns, from which `build_cg` sums its cost tables and
each sweep gathers its scores. The temporaries that are never returned
live in per-network buffers of the arrays; what a call returns, the model
and its pair terms among it, is a fresh array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netsignal.network import NUM_PHASES, MovementArrays, RoadNetwork, movement_arrays, segment_sum
from netsignal.simulation import QueueState, TurningModel


@dataclass
class PeriodModel:
    """One period's queue/turning data in array form.

    `drained[m, x]` is movement m's queue after its intersection picks phase
    x (before arrivals); `release_onto[l, x]` is the volume released onto
    link l when its upstream intersection picks x; `r` (per movement) and
    `demand` (per link) are the turning model's `r` and `d`.

    `terms` is the phase-major (4, 4, n_mov + 1) table of movement m's
    squared next-period queue at [x_up][x][m], when the intersection
    upstream of its input link picks x_up and its own picks x: the drained
    queue plus r times the release onto that link. A movement whose input
    link has no upstream intersection takes the link's demand inflow
    (`demand` on entry links, else 0.0) under every x_up. Column `n_mov` is
    zero, which the gather tables' padding reads.
    """

    arrays: MovementArrays
    r: np.ndarray
    drained: np.ndarray
    release_onto: np.ndarray
    demand: np.ndarray
    terms: np.ndarray

    def sweep_scores(self, actions: np.ndarray) -> np.ndarray:
        """Per-agent predicted own balance for each candidate phase, given
        every other agent plays `actions` (indexed by agent position), as a
        phase-major (4, N) array: each agent's pair terms under its
        upstream agents' actions, added in `agent_table` order."""
        terms = self.terms
        upstream, cells, scaled, offsets, index, gathered = self.arrays.sweep_tables
        # the terms under upstream phase x_up start at x_up * terms[0].size
        np.multiply(actions, terms[0].size, out=scaled)
        scaled.take(upstream, out=offsets, mode="clip")
        np.add(cells, offsets[:, None], out=index)
        terms.reshape(-1).take(index, out=gathered, mode="clip")
        return np.add.reduce(gathered, axis=0, initial=0.0)


def period_model(net: RoadNetwork, state: QueueState, turning: TurningModel) -> PeriodModel:
    arr = movement_arrays(net)
    q = state.q
    cap = np.minimum(arr.sat, q)
    released = arr.phase_rows
    np.multiply(arr.act, cap[:, None], out=released[:-1])
    drained = q[:, None] - released[:-1]
    gathered = arr.phase_gather((*arr.to_link_table.shape, NUM_PHASES))
    release_onto = segment_sum(released, arr.to_link_table, gathered)
    entry_inflow = np.where(arr.entry_link_mask, turning.d, 0.0)
    inflow = np.where(arr.fed_link_mask, release_onto.T, entry_inflow)
    incoming = inflow.take(arr.mov_from, axis=1)
    incoming *= turning.r
    terms = np.empty((NUM_PHASES, NUM_PHASES, arr.n_mov + 1))
    terms[:, :, -1] = 0.0
    cells = terms[:, :, :-1]
    np.add(incoming[:, None], drained.T, out=cells)
    np.square(cells, out=cells)
    return PeriodModel(arr, turning.r, drained, release_onto, turning.d, terms)
