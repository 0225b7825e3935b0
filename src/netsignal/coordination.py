"""Coordination graph: per-period cost tables over joint phase choices.

Each intersection is an agent with the four phases as its domain. The
predicted next-period squared-queue load of every link is charged to exactly
one cost term: internal links to the edge between their two endpoint agents,
entry links to the individual cost of their boundary agent. Summing all
terms under a joint assignment therefore reproduces the network-wide
predicted balance exactly, which is what the message-passing solver
minimizes.

The graph holds its tables as arrays in sorted agent and edge order: one
(E, 4, 4) stack of edge tables and one (N, 4) matrix of individual costs.
`build_cg` computes both phase-major, (4, 4, E) and (4, N), and hands the
graph their transposed views, whose phase-major bases
`messaging.MessagePlan.load` reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from netsignal import prediction
from netsignal.network import NUM_PHASES, RoadNetwork, movement_arrays
from netsignal.simulation import JointAssignment, QueueState, TurningModel, _ascending, phase_indices


@dataclass(eq=False)
class CoordinationGraph:
    """Agents, 4-phase domains, one stack of edge tables, one cost matrix.

    `agents` are sorted ids and `edges` the sorted (i, j) pairs with i < j.
    Row e of `edge_costs` (E, 4, 4) is the table of `edges[e]`, indexed
    [x_i][x_j]; row k of `individual` (N, 4) is the cost vector of
    `agents[k]`. The constructor checks all four; `_unchecked` skips the
    checks for `build_cg`'s graphs, which are valid by construction.
    """

    agents: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    edge_costs: np.ndarray
    individual: np.ndarray

    def __post_init__(self):
        self.agents = tuple(self.agents)
        self.edges = tuple(self.edges)
        self.edge_costs = np.asarray(self.edge_costs, dtype=float)
        self.individual = np.asarray(self.individual, dtype=float)
        _check_layout(self.agents, self.edges)
        shapes = (self.edge_costs.shape, self.individual.shape)
        want = ((len(self.edges), NUM_PHASES, NUM_PHASES), (len(self.agents), NUM_PHASES))
        if shapes != want:
            raise ValueError(f"table shapes {shapes}, expected {want}")

    @classmethod
    def _unchecked(
        cls, agents: tuple, edges: tuple, edge_costs: np.ndarray, individual: np.ndarray
    ) -> "CoordinationGraph":
        """The graph of the tables as they are, without the constructor's
        checks: `agents` and `edges` are a network's `MovementArrays` tuples,
        which its constructor checks, and the tables float arrays of the
        shapes they give."""
        cg = cls.__new__(cls)
        cg.agents, cg.edges, cg.edge_costs, cg.individual = agents, edges, edge_costs, individual
        return cg


_EDGE_LAYOUT = "edges must be sorted, distinct (i, j) pairs with i < j"


def _check_layout(agents: tuple, edges: tuple) -> None:
    """Raise a `ValueError` naming what is wrong with a layout. An edge must
    be a 2-tuple, as a message plan's edges are, for the plan to accept the
    graph; a list such as JSON reads is none. Ascending edges hash, so
    their ends can be looked up, and ends that are agents compare."""
    if not _ascending(agents):
        raise ValueError("agents must be sorted and distinct")
    if not (all(type(e) is tuple and len(e) == 2 for e in edges) and _ascending(edges)):
        raise ValueError(_EDGE_LAYOUT)
    known = set(agents)
    if not all(i in known and j in known for i, j in edges):
        raise ValueError("edges must join agents")
    if not all(i < j for i, j in edges):
        raise ValueError(_EDGE_LAYOUT)


def build_cg(
    state: QueueState,
    net: RoadNetwork,
    turning: TurningModel,
    *,
    model: Optional[prediction.PeriodModel] = None,
) -> CoordinationGraph:
    """Cost tables from the one-step queue prediction under each phase pair.

    A movement queueing on an internal link from a to b drains under b's
    phase and receives a's releases, so its squared next-period queue lands
    in the (a, b) edge table with axes [x_a][x_b]. Entry-link movements
    depend only on their boundary intersection's phase and go to its
    individual vector. `PeriodModel.cost_tables` sums both, phase-major,
    (4, 4, E) and (4, N), and the graph holds their transposed views.
    `model` may pass in the `period_model` of the same inputs when the
    caller has it already.
    """
    arr = movement_arrays(net)
    if model is None:
        model = prediction.period_model(net, state, turning)
    edge_stack, individual = model.cost_tables()
    return CoordinationGraph._unchecked(arr.agent_ids, arr.edges, edge_stack.transpose(2, 0, 1), individual.T)


def global_cost(cg: CoordinationGraph, x: JointAssignment) -> float:
    """Sum of individual costs and edge costs under the joint assignment."""
    phase = phase_indices(x, cg.agents)
    ends = np.searchsorted(cg.agents, np.reshape(cg.edges, (-1, 2)))
    own = cg.individual[np.arange(len(phase)), phase]
    shared = cg.edge_costs[np.arange(len(ends)), phase[ends[:, 0]], phase[ends[:, 1]]]
    return float(own.sum() + shared.sum())
