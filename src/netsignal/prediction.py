"""Vectorized one-step prediction arrays shared by the planner and the
max-pressure baseline.

Cost-table construction and best-response sweeps both evaluate the same
quantities for every movement: how much a phase choice drains its queue and
how much upstream releases feed its link. Doing that per movement in Python
dominates the per-period budget on large grids, so this module flattens the
network into index arrays once (`MovementArrays`, cached per network) and
evaluates whole periods as numpy expressions. Max-pressure reads the same
arrays for its per-phase pressures.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netsignal.network import NUM_PHASES, LinkKind, RoadNetwork
from netsignal.simulation import QueueState, TurningModel


class MovementArrays:
    """Static per-network index arrays over the movement list."""

    def __init__(self, net: RoadNetwork):
        movements = net.movements
        self.keys = [m.key for m in movements]
        self.n_mov = len(movements)
        self.agent_ids = sorted(net.intersections)
        agent_index = {a: k for k, a in enumerate(self.agent_ids)}
        self.agent_index = agent_index
        self.mov_agent = np.array([agent_index[m.intersection] for m in movements], dtype=np.intp)
        self.sat = np.array([m.sat_flow for m in movements])

        # each movement's phase, -1 for right turns, which run under every
        # phase; `act` is its activation under each phase of its intersection
        self.mov_phase = np.array(
            [-1 if m.phase is None else int(m.phase) for m in movements], dtype=np.intp
        )
        phases = np.arange(NUM_PHASES)
        self.act = ((self.mov_phase[:, None] < 0) | (self.mov_phase[:, None] == phases)).astype(float)

        link_ids = sorted(net.links)
        link_index = {l: k for k, l in enumerate(link_ids)}
        self.link_ids = link_ids
        self.link_index = link_index
        self.n_links = len(link_ids)
        self.mov_from = np.array([link_index[m.frm] for m in movements], dtype=np.intp)
        self.mov_to = np.array([link_index[m.to] for m in movements], dtype=np.intp)
        self.from_entry = np.array(
            [net.links[m.frm].kind is LinkKind.ENTRY for m in movements], dtype=bool
        )
        # upstream agent controlling releases onto each link (-1 for none)
        self.link_upstream_agent = np.full(self.n_links, -1, dtype=np.intp)
        self.entry_link_mask = np.zeros(self.n_links, dtype=bool)
        for l, link in net.links.items():
            if link.start is not None:
                self.link_upstream_agent[link_index[l]] = agent_index[link.start]
            if link.kind is LinkKind.ENTRY:
                self.entry_link_mask[link_index[l]] = True

        # one edge per neighboring pair; movements queueing on internal links
        # accumulate into their pair's table
        edges: list[tuple[int, int]] = []
        edge_index: dict[tuple[int, int], int] = {}
        for i in self.agent_ids:
            for j in net.neighbors[i]:
                key = (i, j) if i < j else (j, i)
                if key not in edge_index:
                    edge_index[key] = len(edges)
                    edges.append(key)
        mov_edge = np.full(self.n_mov, -1, dtype=np.intp)
        mov_edge_flip = np.zeros(self.n_mov, dtype=bool)
        for k, m in enumerate(movements):
            link = net.links[m.frm]
            if link.kind is not LinkKind.INTERNAL:
                continue
            a, b = link.start, link.end
            mov_edge[k] = edge_index[(a, b) if a < b else (b, a)]
            mov_edge_flip[k] = a > b  # contribution axes are [x_start][x_end]
        self.edges = edges
        self.mov_edge = mov_edge
        self.mov_edge_flip = mov_edge_flip
        self.internal_from = mov_edge >= 0

    def q_vector(self, state: QueueState) -> np.ndarray:
        q = state.q
        return np.array([q[k] for k in self.keys])

    def r_vector(self, turning: TurningModel) -> np.ndarray:
        r = turning.r
        return np.array([r.get(k, 0.0) for k in self.keys])

    def demand_vector(self, turning: TurningModel) -> np.ndarray:
        d = np.zeros(self.n_links)
        for l, value in turning.d.items():
            idx = self.link_index.get(l)
            if idx is not None:
                d[idx] = value
        return d


def movement_arrays(net: RoadNetwork) -> MovementArrays:
    cached = getattr(net, "_movement_arrays", None)
    if cached is None:
        cached = MovementArrays(net)
        net._movement_arrays = cached
    return cached


@dataclass
class PeriodModel:
    """One period's queue/turning data in array form.

    `drained[m, x]` is movement m's queue after its intersection picks phase
    x (before arrivals); `release_onto[l, x]` is the volume released onto
    link l when its upstream intersection picks x; `inflow_scalar[m]` is the
    phase-independent arrival term (entry demand split by turning).
    """

    arrays: MovementArrays
    q: np.ndarray
    r: np.ndarray
    drained: np.ndarray
    release_onto: np.ndarray
    demand: np.ndarray

    def sweep_scores(self, actions: np.ndarray) -> np.ndarray:
        """Per-agent predicted own balance for each candidate phase, given
        every other agent plays `actions` (indexed by agent position)."""
        arr = self.arrays
        upstream = arr.link_upstream_agent
        inflow_link = np.where(arr.entry_link_mask, self.demand, 0.0)
        has_upstream = upstream >= 0
        rows = np.nonzero(has_upstream)[0]
        inflow_link[rows] = self.release_onto[rows, actions[upstream[rows]]]
        inflow_m = inflow_link[arr.mov_from] * self.r
        scores_m = (self.drained + inflow_m[:, None]) ** 2
        agent_scores = np.zeros((len(arr.agent_ids), NUM_PHASES))
        np.add.at(agent_scores, arr.mov_agent, scores_m)
        return agent_scores


def period_model(net: RoadNetwork, state: QueueState, turning: TurningModel) -> PeriodModel:
    arr = movement_arrays(net)
    q = arr.q_vector(state)
    r = arr.r_vector(turning)
    cap = np.minimum(arr.sat, q)
    drained = q[:, None] - arr.act * cap[:, None]
    release_onto = np.zeros((arr.n_links, NUM_PHASES))
    np.add.at(release_onto, arr.mov_to, arr.act * cap[:, None])
    return PeriodModel(
        arrays=arr,
        q=q,
        r=r,
        drained=drained,
        release_onto=release_onto,
        demand=arr.demand_vector(turning),
    )
