"""Baseline signal controllers: fixed cycling and greedy pressure.

Both act per intersection with no communication. The pressure of a movement
is its saturation flow times the gap between its upstream queue and the
turning-weighted queues downstream; picking the phase with the highest
total pressure is the classic stabilizing greedy rule the coordinated
planner is measured against. Pressures for every intersection and phase
come from one pass over the network's movement arrays.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from netsignal.network import NUM_PHASES, RoadNetwork, movement_arrays, segment_sum
from netsignal.simulation import JointAssignment, QueueState, TurningModel


def fixed_time(period: int, intersections: Iterable[int]) -> JointAssignment:
    """Every intersection shows the same phase, cycling `PHASES` one period each."""
    agents = tuple(sorted(intersections))
    return JointAssignment(agents, np.full(len(agents), period % NUM_PHASES, dtype=np.intp))


def phase_pressures(state: QueueState, net: RoadNetwork, turning: TurningModel) -> np.ndarray:
    """Total pressure of each phase at each intersection, shape (N, 4) with
    rows in `movement_arrays(net).agent_ids` order.

    A phase's pressure sums its movements' sat_flow * (upstream queue -
    turning-weighted downstream queues). Right turns run regardless of phase
    and are excluded. Exit links have no downstream queues, so their term is
    the upstream queue alone. Both sums are `segment_sum`s through the
    movement arrays' `from_link_table` and `phase_table`, in movement order
    from 0.0.
    """
    arr = movement_arrays(net)
    q = state.q
    # per-movement inputs carry a zero row for the tables' padding
    weighted = np.zeros(arr.n_mov + 1)
    np.multiply(turning.r, q, out=weighted[:-1])
    downstream = segment_sum(weighted, arr.from_link_table)
    pressure = np.zeros(arr.n_mov + 1)
    np.multiply(arr.sat, q - downstream[arr.mov_to], out=pressure[:-1])
    return segment_sum(pressure, arr.phase_table).reshape(len(arr.agent_ids), NUM_PHASES)


def max_pressure(state: QueueState, net: RoadNetwork, turning: TurningModel) -> JointAssignment:
    """Independently per intersection, the highest-pressure phase (lowest
    index on ties)."""
    best = np.argmax(phase_pressures(state, net, turning), axis=1)
    return JointAssignment(movement_arrays(net).agent_ids, best)
