"""Coordination graph: per-period cost tables over joint phase choices.

Each intersection is an agent with the four phases as its domain. The
predicted next-period squared-queue load of every link is charged to exactly
one cost term: internal links to the edge between their two endpoint agents,
entry links to the individual cost of their boundary agent. Summing all
terms under a joint assignment therefore reproduces the network-wide
predicted balance exactly, which is what `brute_force_optimum` and the
message-passing solver minimize.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from netsignal.network import NUM_PHASES, Phase, RoadNetwork
from netsignal.prediction import PeriodModel
from netsignal.simulation import JointAssignment, QueueState, TurningModel

BRUTE_FORCE_AGENT_CAP = 10


@dataclass
class CoordinationGraph:
    """Agents, 4-phase domains, pairwise edge tables and individual vectors.

    Edge tables are stored once per unordered pair under the (min, max) key,
    indexed [x_min][x_max]; `edge_cost(i, j)` returns the view indexed
    [x_i][x_j] for any orientation.
    """

    agents: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    edge_costs: dict[tuple[int, int], np.ndarray]
    individual: dict[int, np.ndarray]
    neighbors: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        self.agents = tuple(self.agents)
        canonical = []
        for (i, j) in self.edges:
            a, b = (i, j) if i < j else (j, i)
            canonical.append((a, b))
            if (a, b) not in self.edge_costs and (b, a) in self.edge_costs:
                self.edge_costs[(a, b)] = self.edge_costs.pop((b, a)).T
        self.edges = tuple(canonical)
        for a in self.agents:
            if a not in self.individual:
                self.individual[a] = np.zeros(NUM_PHASES)
        if not self.neighbors:
            nbrs: dict[int, list[int]] = {a: [] for a in self.agents}
            for (i, j) in self.edges:
                nbrs[i].append(j)
                nbrs[j].append(i)
            self.neighbors = {a: tuple(sorted(ns)) for a, ns in nbrs.items()}

    def edge_cost(self, i: int, j: int) -> np.ndarray:
        if i < j:
            return self.edge_costs[(i, j)]
        return self.edge_costs[(j, i)].T


def build_cg(
    state: QueueState,
    net: RoadNetwork,
    turning: TurningModel,
    *,
    model: Optional[PeriodModel] = None,
) -> CoordinationGraph:
    """Cost tables from the one-step queue prediction under each phase pair.

    A movement queueing on an internal link from a to b drains under b's
    phase and receives a's releases, so its squared next-period queue lands
    in the (a, b) edge table with axes [x_a][x_b]. Entry-link movements
    depend only on their boundary intersection's phase and go to its
    individual vector. `model` may pass in the `period_model` of the same
    inputs when the caller has it already.
    """
    from netsignal.prediction import movement_arrays, period_model

    arr = movement_arrays(net)
    if model is None:
        model = period_model(net, state, turning)
    agents = tuple(arr.agent_ids)
    edges = tuple(arr.edges)

    individual_mat = np.zeros((len(agents), NUM_PHASES))
    entry = arr.from_entry
    if entry.any():
        inflow = model.demand[arr.mov_from[entry]] * model.r[entry]
        vectors = (model.drained[entry] + inflow[:, None]) ** 2
        np.add.at(individual_mat, arr.mov_agent[entry], vectors)

    edge_stack = np.zeros((len(edges), NUM_PHASES, NUM_PHASES))
    sel = arr.internal_from
    if sel.any():
        incoming = model.release_onto[arr.mov_from[sel]] * model.r[sel][:, None]
        drained = model.drained[sel]
        contrib = (incoming[:, :, None] + drained[:, None, :]) ** 2  # [x_a][x_b]
        idx = arr.mov_edge[sel]
        flip = arr.mov_edge_flip[sel]
        np.add.at(edge_stack, idx[~flip], contrib[~flip])
        np.add.at(edge_stack, idx[flip], contrib[flip].transpose(0, 2, 1))

    edge_costs = {e: edge_stack[k] for k, e in enumerate(edges)}
    individual = {a: individual_mat[k] for k, a in enumerate(agents)}
    return CoordinationGraph(agents, edges, edge_costs, individual)


def global_cost(cg: CoordinationGraph, x: JointAssignment) -> float:
    """Sum of individual costs and edge costs under the joint assignment."""
    missing = set(cg.agents) - x.keys()
    if missing:
        raise ValueError(f"assignment missing agents: {sorted(missing)}")
    total = 0.0
    for a in cg.agents:
        total += float(cg.individual[a][int(x[a])])
    for (i, j) in cg.edges:
        total += float(cg.edge_costs[(i, j)][int(x[i]), int(x[j])])
    return total


def brute_force_optimum(cg: CoordinationGraph) -> tuple[JointAssignment, float]:
    """Exact argmin of `global_cost` by enumeration; lexicographic tie-break.

    Capped at 10 agents (4^10 evaluations).
    """
    n = len(cg.agents)
    if n > BRUTE_FORCE_AGENT_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_AGENT_CAP} agents, got {n}")
    index_of = {a: k for k, a in enumerate(cg.agents)}
    assign = np.indices((NUM_PHASES,) * n).reshape(n, -1)
    costs = np.zeros(assign.shape[1])
    for a in cg.agents:
        costs += cg.individual[a][assign[index_of[a]]]
    for (i, j) in cg.edges:
        costs += cg.edge_costs[(i, j)][assign[index_of[i]], assign[index_of[j]]]
    best = int(np.argmin(costs))
    assignment = {a: Phase(int(assign[index_of[a], best])) for a in cg.agents}
    return assignment, float(costs[best])


def dump_edge_costs(cg: CoordinationGraph, path: str) -> None:
    """Debug CSV of every edge-cost entry."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent_i", "agent_j", "x_i", "x_j", "cost"])
        for (i, j) in cg.edges:
            table = cg.edge_costs[(i, j)]
            for xi in range(NUM_PHASES):
                for xj in range(NUM_PHASES):
                    writer.writerow([i, j, xi, xj, table[xi, xj]])
