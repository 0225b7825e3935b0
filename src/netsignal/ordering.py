"""Edge orientation for message passing: sink selection by eccentricity.

Every edge points from the agent farther from a minimum-eccentricity sink to
the nearer one (ties by id), which gives an acyclic orientation. The number
of message levels a pass needs is the longest directed path of that
orientation. On bipartite graphs such as grids no edge joins two agents at
the same distance, so every directed path shortens the distance to the sink
by one per hop and the longest path equals the sink's eccentricity. Elsewhere
same-distance edges can chain, and the longest path may exceed it.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from netsignal.coordination import CoordinationGraph
from netsignal.network import gather_table


class TopologyError(ValueError):
    """Raised when the coordination graph is not connected."""


class Sweep(NamedTuple):
    """Buffer rows of one message direction, in level order.

    `pairs[p]` is the (sender, receiver) of row `offset + p`; `levels` are
    the (start, stop) row ranges of each level; `sender` is each row's
    sender by agent position; column p of `inputs` is the slot row of that
    sender; and `excluded` the buffer row of the message its receiver sends
    back over the same edge.
    """

    pairs: tuple[tuple[int, int], ...]
    offset: int
    levels: tuple[tuple[int, int], ...]
    sender: np.ndarray
    inputs: np.ndarray
    excluded: np.ndarray


class LevelSchedule:
    """Index arrays that let a pass compute every message exactly once.

    Agents sit at their position in sorted-id order. One message buffer
    holds the forward messages (along the orientation) in rows [0, E), the
    reverse messages in rows [E, 2E) and a zero row at 2E. Forward rows are
    grouped by the longest-path depth of their sender, reverse rows by the
    height (longest path down to a sink) of their forward receiver; within a
    level rows keep edge order. A message only reads messages of lower
    levels in its own direction, so one sweep over the levels leaves every
    message of that direction at its fixpoint.

    `slots[n]` lists the rows of all messages agent n receives: incoming
    forward messages, then incoming reverse messages, each in edge order,
    padded with the zero row; `slots.T` is the `gather_table` of those rows,
    which `segment_sum` adds left to right. So an incoming-message sum does
    not depend on how rows are grouped into levels.

    `edges` are the order's edges as (i < j) pairs, which is the edge order
    of the `CoordinationGraph` it was built from; `table_rows` is the
    `edge_costs` row of each forward row's table, and `table_flipped` marks
    the rows whose sender is the higher id, whose table is stored transposed.
    """

    def __init__(self, order: "DagOrder"):
        self.agents = tuple(sorted(order.dist))
        index = {a: k for k, a in enumerate(self.agents)}
        edges = order.edges
        n_edges = len(edges)
        self.n_edges = n_edges
        depth = _longest_path_depths(self.agents, edges)
        height = _longest_path_depths(self.agents, [(v, u) for u, v in edges])

        fwd, fwd_levels = _level_order([depth[u] for u, _ in edges])
        rev, rev_levels = _level_order([height[v] for _, v in edges])
        fwd_row = np.empty(n_edges, dtype=np.intp)
        fwd_row[fwd] = np.arange(n_edges)
        rev_row = np.empty(n_edges, dtype=np.intp)
        rev_row[rev] = np.arange(n_edges, 2 * n_edges)

        ends = np.array([(index[u], index[v]) for u, v in edges], dtype=np.intp).reshape(-1, 2)
        self.slots = gather_table(
            np.concatenate((fwd_row, rev_row)),
            np.concatenate((ends[:, 1], ends[:, 0])),
            len(self.agents),
            2 * n_edges,
        ).T

        def sweep(pairs, offset, levels, excluded) -> Sweep:
            sender = np.array([index[s] for s, _ in pairs], dtype=np.intp)
            inputs = np.ascontiguousarray(self.slots[sender].T)
            return Sweep(pairs, offset, levels, sender, inputs, excluded)

        self.forward = sweep(tuple(edges[e] for e in fwd), 0, fwd_levels, rev_row[fwd])
        self.reverse = sweep(
            tuple((v, u) for u, v in (edges[e] for e in rev)), n_edges, rev_levels, fwd_row[rev]
        )
        self.edges = tuple((u, v) if u < v else (v, u) for u, v in edges)
        self.table_rows = np.array(fwd, dtype=np.intp)
        self.table_flipped = np.array([u > v for u, v in self.forward.pairs], dtype=bool)


def _level_order(level: list[int]) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """Edge indices sorted by level (edge order within a level) and the
    (start, stop) positions of each level in that order."""
    perm = sorted(range(len(level)), key=level.__getitem__)
    ordered = sorted(level)
    bounds = [bisect_left(ordered, k) for k in range(max(level, default=-1) + 2)]
    return perm, tuple(zip(bounds[:-1], bounds[1:]))


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
    diameter: int

    @cached_property
    def schedule(self) -> LevelSchedule:
        """The level schedule, built on first use and kept with the order."""
        return LevelSchedule(self)


def _longest_path_depths(agents, edges) -> dict[int, int]:
    """Edges on the longest directed path ending at each agent of a DAG."""
    depth = {a: 0 for a in agents}
    indeg = {a: 0 for a in agents}
    out: dict[int, list[int]] = {a: [] for a in agents}
    for u, v in edges:
        out[u].append(v)
        indeg[v] += 1
    ready = [a for a in agents if indeg[a] == 0]
    while ready:
        u = ready.pop()
        for v in out[u]:
            depth[v] = max(depth[v], depth[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return depth


def _adjacency(cg: CoordinationGraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {a: [] for a in cg.agents}
    for i, j in cg.edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _bfs_distances(adj: dict[int, list[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nbr in adj[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


def _eccentricity(adj: dict[int, list[int]], agent: int) -> int:
    dist = _bfs_distances(adj, agent)
    if len(dist) != len(adj):
        missing = sorted(adj.keys() - dist.keys())
        raise TopologyError(f"coordination graph disconnected, unreachable from {agent}: {missing}")
    return max(dist.values())


def eccentricity(cg: CoordinationGraph, agent: int) -> int:
    """Max BFS hop distance from `agent` to any other agent."""
    return _eccentricity(_adjacency(cg), agent)


def min_diameter_dag(cg: CoordinationGraph) -> DagOrder:
    """Orient every edge from the agent farther from the best sink to the
    nearer one.

    The sink is the agent of minimum eccentricity (lowest id on ties);
    equal-distance edges point from the higher id to the lower id, so the
    orientation is acyclic and deterministic. `diameter` is the longest
    directed path of the result. `edges[e]` orients `cg.edges[e]`, so the
    order's edges keep the graph's edge order.
    """
    adj = _adjacency(cg)
    best_sink = None
    best_ecc = None
    for a in cg.agents:
        ecc = _eccentricity(adj, a)
        if best_ecc is None or ecc < best_ecc or (ecc == best_ecc and a < best_sink):
            best_sink, best_ecc = a, ecc
    dist = _bfs_distances(adj, best_sink)
    edges = []
    for (i, j) in cg.edges:
        if dist[i] < dist[j]:
            edges.append((j, i))
        elif dist[j] < dist[i]:
            edges.append((i, j))
        else:
            edges.append((max(i, j), min(i, j)))
    longest = max(_longest_path_depths(cg.agents, edges).values())
    return DagOrder(sink=best_sink, edges=tuple(edges), dist=dict(dist), diameter=longest)
