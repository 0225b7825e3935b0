"""Vectorized one-step prediction arrays shared by the planner's cost
tables and best-response sweeps.

Both evaluate the same quantities for every movement: how much a phase
choice drains its queue and how much upstream releases feed its link.
`period_model` computes them for a whole period as numpy expressions over
the network's `MovementArrays`, reading the state's queue vector and the
turning model's arrays as they are. Sums per link are `segment_sum`s
through the arrays' gather tables. Once per period the model squares every
movement's next-period queue under each pair of upstream and own phase
into one pair-term table, from which `build_cg` sums its cost tables and
each sweep gathers its scores. The temporaries that are never returned,
the pair terms among them, live in per-network buffers of the arrays; what
a call returns is a fresh array.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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

    `pair_terms()` is the phase-major (4, 4, n_mov + 1) table of movement
    m's squared next-period queue at [x_up][x][m], when the intersection
    upstream of its input link picks x_up and its own picks x: the drained
    queue plus r times the release onto that link. A movement whose input
    link has no upstream intersection takes the link's demand inflow
    (`demand` on entry links, else 0.0) under every x_up. The table is the
    network's `contribution` buffer, which every model of the network
    writes, so the model recomputes it whenever another model's terms are
    there.
    """

    arrays: MovementArrays
    r: np.ndarray
    drained: np.ndarray
    release_onto: np.ndarray
    demand: np.ndarray
    # the `arrays.terms_stamp` of this model's last write of its pair terms
    _stamp: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def pair_terms(self) -> np.ndarray:
        """The pair-term table in the network's `contribution` buffer,
        written unless it holds this model's terms already."""
        arr = self.arrays
        terms = arr.contribution
        if self._stamp != arr.terms_stamp:
            entry_inflow = np.where(arr.entry_link_mask, self.demand, 0.0)
            inflow = np.where(arr.fed_link_mask, self.release_onto.T, entry_inflow)
            incoming = inflow.take(arr.mov_from, axis=1)
            incoming *= self.r
            cells = terms[:, :, :-1]
            np.add(incoming[:, None], self.drained.T, out=cells)
            np.square(cells, out=cells)
            arr.terms_stamp += 1
            self._stamp = arr.terms_stamp
        return terms

    def sweep_scores(self, actions: np.ndarray) -> np.ndarray:
        """Per-agent predicted own balance for each candidate phase, given
        every other agent plays `actions` (indexed by agent position), as a
        phase-major (4, N) array: each agent's pair terms under its
        upstream agents' actions, added in `agent_table` order."""
        terms = self.pair_terms()
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
    gathered = arr.phase_gather((*arr.to_link_table.shape, NUM_PHASES))
    return PeriodModel(
        arrays=arr,
        r=turning.r,
        drained=q[:, None] - released[:-1],
        release_onto=segment_sum(released, arr.to_link_table, gathered),
        demand=turning.d,
    )
