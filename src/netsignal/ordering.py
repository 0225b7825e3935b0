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
per agent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netsignal.coordination import CoordinationGraph
from netsignal.network import RoadNetwork, gather_table, hop_distances, movement_arrays


class TopologyError(ValueError):
    """Raised when the coordination graph is not connected."""


def longest_paths(sender: np.ndarray, receiver: np.ndarray, n_agents: int) -> np.ndarray:
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
    counted when the order is made, which is the number of levels, and so
    of rounds, in one message pass. Reversing every edge keeps it.
    """

    sink: int
    edges: tuple[tuple[int, int], ...]
    dist: dict[int, int]
    diameter: int


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
        diameter=int(longest_paths(sender, receiver, len(ids)).max(initial=0)),
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
    """Message-passing orientation of a network, computed once and kept with
    the network's `MovementArrays` (built here on first use): topology-derived
    arrays only, as in every per-network cache; a run's planner owns the rest."""
    arr = movement_arrays(net)
    if not hasattr(arr, "_order"):
        arr._order = _orient(arr.agent_ids, arr.edges)
    return arr._order
