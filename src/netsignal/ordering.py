"""Edge orientation for message passing: sink selection by eccentricity.

Every edge points from the agent farther from a minimum-eccentricity sink to
the nearer one (ties by id), which gives an acyclic orientation. The number
of message levels a pass needs is the longest directed path of that
orientation. On bipartite graphs such as grids no edge joins two agents at
the same distance, so every directed path shortens the distance to the sink
by one per hop and the longest path equals the sink's eccentricity. Elsewhere
same-distance edges can chain, and the longest path may exceed it.

All of it runs on agent positions (sorted-id order) as numpy arrays. Every
hop distance is a single-source `network.hop_distances` search over the
graph's neighbour table. The sink comes from eccentricity bounds (Takes &
Kosters, Algorithms 6(1), 2013), which need a few searches instead of one
per agent. The orientation's `LevelSchedule` numbers its messages as rows
and groups them into levels; it holds index arrays only, and
`messaging.MessagePlan` lays out the buffers a pass writes by it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from netsignal.coordination import CoordinationGraph
from netsignal.network import NUM_PHASES, RoadNetwork, gather_table, hop_distances, movement_arrays


class TopologyError(ValueError):
    """Raised when the coordination graph is not connected."""


class LevelSchedule:
    """Index arrays that let a pass compute every message exactly once.

    Agents sit at their position in sorted-id order. Messages are numbered
    by row: the forward messages (along the orientation) are rows [0, E),
    the reverse messages rows [E, 2E). Forward rows are grouped by the
    longest-path depth of their sender, reverse rows by the height (longest
    path down to a sink) of their forward receiver; within a level rows keep
    edge order. `levels` are the (start, stop) rows of the `diameter`
    forward levels, then of the `diameter` reverse levels. A message only
    reads messages of lower levels in its own direction, so one sweep over a
    direction's levels leaves its messages at their fixpoint.

    Each row r has its sender's position in `sender[r]` and in `excluded[r]`
    the row of the message its receiver sends back over the same edge.
    `cost_cells[x_s, x_r, r]` is the position of the edge's cost when the
    sender plays x_s and the receiver x_r, whichever end of the (i < j)
    table each sits at, in the flat phase-major (4, 4, E) stack of edge
    tables, `edge_costs.transpose(1, 2, 0)`.

    `slots` is the (K, N) `gather_table` of the rows each agent receives:
    column n lists agent n's incoming forward messages, then its incoming
    reverse messages, each in edge order, padded with the zero row 2E, and
    they are added top to bottom. So an incoming-message sum does not depend
    on how rows are grouped into levels.

    `edges` are the order's edges as (i < j) pairs, which is the edge order
    of the `CoordinationGraph` it was built from, so `cost_cells` read that
    graph's `edge_costs` as they are.
    """

    def __init__(self, order: "DagOrder"):
        self.agents = tuple(sorted(order.dist))
        ids = np.array(self.agents, dtype=np.intp)
        n_agents, n_edges = len(ids), len(order.edges)
        sender, receiver = np.searchsorted(ids, np.array(order.edges, dtype=np.intp).reshape(-1, 2)).T
        fwd, fwd_levels = _level_order(_longest_paths(sender, receiver, n_agents)[sender])
        rev, rev_levels = _level_order(_longest_paths(receiver, sender, n_agents)[receiver])
        self.levels = fwd_levels + tuple((a + n_edges, b + n_edges) for a, b in rev_levels)
        # message m < E runs along edge m, message E + m against it; `message`
        # lists them in row order and `row` is its inverse
        message = np.concatenate((fwd, rev + n_edges))
        row = np.empty(2 * n_edges, dtype=np.intp)
        row[message] = np.arange(2 * n_edges)
        source, target = np.concatenate((sender, receiver)), np.concatenate((receiver, sender))
        self.slots = gather_table(row, target, n_agents, 2 * n_edges)
        self.sender = source[message]
        self.excluded = row[(message + n_edges) % (2 * n_edges)]
        x_s, x_r = np.arange(NUM_PHASES)[:, None, None], np.arange(NUM_PHASES)[:, None]
        # an (i < j) edge's table is indexed [x_i][x_j], by agent position
        low_first = self.sender < target[message]
        cells = np.where(low_first, x_s * NUM_PHASES + x_r, x_r * NUM_PHASES + x_s)
        self.cost_cells = cells * n_edges + message % n_edges
        self.edges = tuple((u, v) if u < v else (v, u) for u, v in order.edges)


def _level_order(level: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Edge indices sorted by level (edge order within a level) and the
    (start, stop) positions of each level in that order."""
    bounds = [0, *np.cumsum(np.bincount(level)).tolist()]
    return np.argsort(level, kind="stable"), tuple(zip(bounds[:-1], bounds[1:]))


def _longest_paths(sender: np.ndarray, receiver: np.ndarray, n_agents: int) -> np.ndarray:
    """Edges on the longest directed path ending at each agent of a DAG,
    relaxed over every agent's incoming edges until nothing changes."""
    incoming = gather_table(sender, receiver, n_agents, n_agents)
    depth = np.zeros(n_agents + 1, dtype=np.intp)
    depth[-1] = -1  # so that padding offers a path of 0
    while True:
        relaxed = np.max(depth[incoming], axis=0, initial=-1) + 1
        if np.array_equal(relaxed, depth[:-1]):
            return relaxed
        depth[:-1] = relaxed


def _min_eccentricity_sink(neighbours: np.ndarray, ids: np.ndarray) -> int:
    """Position of the lowest-id agent of minimum eccentricity.

    A search from v with eccentricity e bounds every agent w by
    max(d(v, w), e - d(v, w)) <= ecc(w) <= e + d(v, w). The next search
    starts at the lowest lower bound among undecided agents (lower < upper);
    once none of them can reach the lowest upper bound, every agent that
    attains it is decided.
    """
    lower = np.zeros(len(ids), dtype=np.intp)
    upper = np.full(len(ids), len(ids), dtype=np.intp)
    while True:
        best = upper.min()
        candidates = np.where(lower < upper, lower, best + 1)
        source = int(np.argmin(candidates))
        if candidates[source] > best:
            return int(np.argmin(upper))
        dist = hop_distances(neighbours, [source])[0]
        if dist.min() < 0:
            missing = ids[dist < 0].tolist()
            raise TopologyError(f"coordination graph disconnected, unreachable from {ids[source]}: {missing}")
        ecc = dist.max()
        np.maximum(lower, np.maximum(dist, ecc - dist), out=lower)
        np.minimum(upper, ecc + dist, out=upper)


@dataclass(frozen=True)
class DagOrder:
    """An orientation of the CG edges plus the round count it implies.

    `edges` hold (sender, receiver) pairs; `dist` is hop distance to the
    sink; `diameter` is the number of edges on the longest directed path,
    which is the number of levels, and so of rounds, in one message pass.
    """

    sink: int
    edges: tuple[tuple[int, int], ...]
    dist: dict[int, int]

    @cached_property
    def schedule(self) -> LevelSchedule:
        """The level schedule, built on first use and kept with the order."""
        return LevelSchedule(self)

    @property
    def diameter(self) -> int:
        return len(self.schedule.levels) // 2


def _orient(agents, edges) -> DagOrder:
    """`min_diameter_dag` of sorted agent ids and their sorted (i < j) edges."""
    agents = np.array(agents, dtype=object)  # the callers' id objects, which the order shares
    ids = agents.astype(np.intp)
    low, high = np.searchsorted(ids, np.array(edges, dtype=np.intp).reshape(-1, 2)).T
    neighbours = gather_table(np.concatenate((high, low)), np.concatenate((low, high)), len(ids), len(ids))
    sink = _min_eccentricity_sink(neighbours, ids)
    dist = hop_distances(neighbours, [sink])[0]
    # the farther end sends, and on a tie the higher id, which is `high`
    toward_low = dist[low] <= dist[high]
    sender, receiver = np.where(toward_low, high, low), np.where(toward_low, low, high)
    return DagOrder(
        sink=agents[sink],
        edges=tuple(zip(agents[sender].tolist(), agents[receiver].tolist())),
        dist=dict(zip(agents.tolist(), dist.tolist())),
    )


def min_diameter_dag(cg: CoordinationGraph) -> DagOrder:
    """Orient every edge from the agent farther from the best sink to the
    nearer one.

    The sink is the agent of minimum eccentricity (lowest id on ties);
    equal-distance edges point from the higher id to the lower id, so the
    orientation is acyclic and deterministic. `diameter` is the longest
    directed path of the result. `edges[e]` orients `cg.edges[e]`, so the
    order's edges keep the graph's edge order. Raises `TopologyError` if
    the graph is not connected.
    """
    return _orient(cg.agents, cg.edges)


def network_order(net: RoadNetwork) -> DagOrder:
    """Message-passing orientation of a network; it depends on the topology
    only, so it is computed once and kept with the network's
    `MovementArrays`, which this builds on first use."""
    arr = movement_arrays(net)
    if not hasattr(arr, "_order"):
        arr._order = _orient(arr.agent_ids, arr.edges)
    return arr._order
