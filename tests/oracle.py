"""Scalar reference rules the shipped array kernels are checked against.

`ScalarGraph` reads a `CoordinationGraph` through per-agent neighbour lists
built from its edges and applies the min-sum message rule one edge at a
time. `predicted_own_balance` and `best_response` evaluate one agent's
next-period balance, and `phase_pressure` one phase's max-pressure value
(`phase_pressure_table` all of them), by walking the road network's links
and movements.
`longest_directed_path` counts the edges on an orientation's longest path
by recursion.
"""
from functools import lru_cache

import numpy as np

from netsignal.network import LinkKind, Phase


class ScalarGraph:
    """Dict-and-loop view of a coordination graph for the scalar rules.

    Messages are a dict from (sender, receiver) to a vector over the
    receiver's phases; missing messages count as zero.
    """

    def __init__(self, cg):
        self.cg = cg
        self.agents = cg.agents
        self.row = {a: k for k, a in enumerate(cg.agents)}
        self.edge = {pair: e for e, pair in enumerate(cg.edges)}
        nbrs = {a: [] for a in cg.agents}
        for i, j in cg.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self.neighbors = {a: tuple(sorted(ns)) for a, ns in nbrs.items()}

    def individual(self, agent):
        return self.cg.individual[self.row[agent]]

    def edge_cost(self, i, j):
        """The (i, j) table indexed [x_i][x_j], for either orientation."""
        if i < j:
            return self.cg.edge_costs[self.edge[(i, j)]]
        return self.cg.edge_costs[self.edge[(j, i)]].T

    def message(self, sender, receiver, messages):
        """Message vector over the receiver's phases."""
        u = self.individual(sender).copy()
        for k in self.neighbors[sender]:
            if k == receiver:
                continue
            incoming = messages.get((k, sender))
            if incoming is not None:
                u = u + incoming
        pair = self.edge_cost(sender, receiver)  # [x_sender][x_receiver]
        return (u[:, None] + pair).min(axis=0)

    def decide(self, agent, messages):
        """Phase minimizing own cost plus all received messages; lowest
        index on ties."""
        vec = self.individual(agent).copy()
        for j in self.neighbors[agent]:
            incoming = messages.get((j, agent))
            if incoming is not None:
                vec = vec + incoming
        return Phase(int(np.argmin(vec)))

    def decisions(self, messages):
        return {a: self.decide(a, messages) for a in self.agents}

    def sync_round(self, pairs, messages):
        """One synchronous round: every pair's message from `messages`."""
        new = {(u, v): self.message(u, v, messages) for u, v in pairs}
        return {**messages, **new}


def predicted_own_balance(agent, candidate, actions, state, net, turning):
    """Next-period sum of squared queues on the agent's input links, given
    the neighbors' phases fixed."""
    total = 0.0
    for l in net.in_links[agent]:
        link = net.links[l]
        if link.kind is LinkKind.ENTRY:
            inflow = turning.demand(l)
        else:
            inflow = 0.0
            upstream_phase = actions[link.start]
            for m in net.movements_into[l]:
                if m.phase is None or m.phase == upstream_phase:
                    inflow += min(m.sat_flow, state.q[m.key])
        for m in net.movements_from[l]:
            q = state.q[m.key]
            if m.phase is None or m.phase == candidate:
                q -= min(m.sat_flow, q)
            q += inflow * turning.proportion(l, m.to)
            total += q * q
    return total


def best_response(agent, actions, state, net, turning):
    """Phase minimizing the agent's own predicted balance.

    `actions` must cover every neighbor; if it includes the agent itself,
    ties keep the current phase before falling back to the lowest index.
    """
    missing = [j for j in net.neighbors[agent] if j not in actions]
    if missing:
        raise ValueError(f"agent {agent}: missing neighbor actions {missing}")
    scores = [predicted_own_balance(agent, p, actions, state, net, turning) for p in Phase]
    best = min(scores)
    current = actions.get(agent)
    if current is not None and scores[int(current)] <= best + 1e-9:
        return current
    return Phase(int(np.argmin(scores)))


def phase_pressure(agent, phase, state, net, turning):
    """Total pressure of the movements the phase would activate.

    Right turns run regardless of phase and are excluded. Exit links have no
    downstream queues, so their term is the upstream queue alone.
    """
    total = 0.0
    for m in net.movements_at[agent]:
        if m.phase != phase:
            continue
        downstream = 0.0
        if net.links[m.to].kind is not LinkKind.EXIT:
            for down in net.movements_from[m.to]:
                downstream += turning.proportion(m.to, down.to) * state.q[down.key]
        total += m.sat_flow * (state.q[m.key] - downstream)
    return total


def phase_pressure_table(state, net, turning):
    """Every agent's `phase_pressure` per phase, rows in sorted agent order."""
    return np.array(
        [[phase_pressure(i, p, state, net, turning) for p in Phase] for i in sorted(net.intersections)]
    )


def longest_directed_path(order):
    """Edges on the longest directed path of an orientation."""
    followers = order.followers()

    @lru_cache(maxsize=None)
    def down(a):
        return max((1 + down(b) for b in followers[a]), default=0)

    return max(down(a) for a in followers)
