"""Vectorized one-step prediction arrays shared by the planner's cost
tables and best-response sweeps.

Both evaluate the same quantities for every movement: how much a phase
choice drains its queue and how much upstream releases feed its link.
`period_model` computes them for a whole period as numpy expressions over
the network's `MovementArrays`, reading the state's queue vector and the
turning model's arrays as they are. Sums per link and per agent are
`segment_sum`s through the arrays' gather tables. The temporaries that
are never returned live in per-network buffers of the arrays; what a call
returns is a fresh array.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from netsignal.network import MovementArrays, RoadNetwork, movement_arrays, segment_sum
from netsignal.simulation import QueueState, TurningModel


@dataclass
class PeriodModel:
    """One period's queue/turning data in array form.

    `drained[m, x]` is movement m's queue after its intersection picks phase
    x (before arrivals); `release_onto[l, x]` is the volume released onto
    link l when its upstream intersection picks x; `r` (per movement) and
    `demand` (per link) are the turning model's `r` and `d`.
    `entry_inflow` is `demand` on entry links and 0.0 elsewhere.
    """

    arrays: MovementArrays
    r: np.ndarray
    drained: np.ndarray
    release_onto: np.ndarray
    demand: np.ndarray

    @cached_property
    def entry_inflow(self) -> np.ndarray:
        return np.where(self.arrays.entry_link_mask, self.demand, 0.0)

    def sweep_scores(self, actions: np.ndarray) -> np.ndarray:
        """Per-agent predicted own balance for each candidate phase, given
        every other agent plays `actions` (indexed by agent position)."""
        arr = self.arrays
        inflow_link = self.entry_inflow.copy()
        rows = arr.fed_links
        inflow_link[rows] = self.release_onto[rows, actions[arr.feeding_agent]]
        inflow_m = inflow_link[arr.mov_from] * self.r
        terms = arr.phase_rows
        np.square(self.drained + inflow_m[:, None], out=terms[:-1])
        return segment_sum(terms, arr.agent_table, arr.phase_gather(arr.agent_table))


def period_model(net: RoadNetwork, state: QueueState, turning: TurningModel) -> PeriodModel:
    arr = movement_arrays(net)
    q = state.q
    cap = np.minimum(arr.sat, q)
    released = arr.phase_rows
    np.multiply(arr.act, cap[:, None], out=released[:-1])
    return PeriodModel(
        arrays=arr,
        r=turning.r,
        drained=q[:, None] - released[:-1],
        release_onto=segment_sum(released, arr.to_link_table, arr.phase_gather(arr.to_link_table)),
        demand=turning.d,
    )
