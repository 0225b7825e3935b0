"""Shared fixtures: small networks and hand-built traffic states."""
from dataclasses import dataclass

import numpy as np
import pytest

from oracle import topology
from netsignal.network import Phase, RoadNetwork, build_grid, movement_arrays
from netsignal.simulation import Flow, QueueState, TurningModel, Vehicle


def mov(net, key):
    """Index of the movement with this (from, to) key in the state arrays."""
    return movement_arrays(net).keys.index(key)


def micro_state_with(net, queued, period=0):
    """Build a micro QueueState holding the given vehicles per movement.

    `queued` maps movement keys to lists of Vehicle objects whose routes pass
    through that movement; they join in the order given. The vehicles are
    marked as already entered at time 0 and left out of the flow's
    departures, so the flow does not re-inject them. Returns (state, flow).
    """
    pairs = [(key, v) for key, vs in queued.items() for v in vs]
    vehicles = [v for _, v in pairs]
    for v in vehicles:
        v.depart_s = 0.0
        v.enter_time = 0.0
    flow = Flow(vehicles, 10.0, net)
    flow.departures_by_period.clear()
    # a vehicle's hop from link l is its first hop's position plus l's place in its route
    hops = [np.searchsorted(flow.route_vehicle, row) + v.route.index(key[0]) for row, (key, v) in enumerate(pairs)]
    waiting = np.array(hops, dtype=np.intp)
    q = np.bincount(flow.route_mov[waiting], minlength=movement_arrays(net).n_mov).astype(float)
    return QueueState(period=period, q=q, waiting=waiting), flow


def macro_state_with(net, queues, period=0):
    """A queue-only state (no vehicles or transit) as `predict_next_queues`
    produces: every movement at 0 except the given queues."""
    keys = movement_arrays(net).keys
    q = {k: 0.0 for k in keys}
    q.update({k: float(v) for k, v in queues.items()})
    return QueueState(period=period, q=np.array([q[k] for k in keys]))


def random_macro_state(net, rng, max_q=10):
    q = [float(rng.integers(0, max_q + 1)) for _ in net.movements]
    return QueueState(period=0, q=np.array(q))


def turning_model(net, r, d):
    """A TurningModel from r by movement key and d by link id (missing
    entries are 0)."""
    arr = movement_arrays(net)
    return TurningModel(
        r=np.array([r.get(k, 0.0) for k in arr.keys]), d=np.array([d.get(l, 0.0) for l in arr.link_ids])
    )


def random_turning(net, rng, max_demand=4.0):
    r = {}
    for l, succs in topology(net).down_links.items():
        if not succs:
            continue
        weights = rng.random(len(succs)) + 1e-3
        weights /= weights.sum()
        for h, w in zip(succs, weights):
            r[(l, h)] = float(w)
    d = {l: float(rng.random() * max_demand) for l in net.entry_links()}
    return turning_model(net, r, d)


@dataclass
class TwoIntersectionCase:
    """The worked two-intersection example: entry l1 into i, internal l2 to
    j, exit l3 (left turn target at i). Four vehicles queue on (l1, l2), two
    on (l1, l3); everything on l2 heads to the exit east of j."""

    net: RoadNetwork
    i: int
    j: int
    l1: int
    l2: int
    l3: int
    exit_j: int
    state: QueueState
    flow: Flow
    turning: TurningModel


@pytest.fixture
def fig_two(request):
    net = build_grid(1, 2, 300, 300, 5)
    i, j = 0, 1
    l2 = next(
        l for l in net.internal_links() if net.links[l].start == i and net.links[l].end == j
    )
    topo = topology(net)
    l1 = next(
        m.frm
        for m in topo.movements_at[i]
        if m.to == l2 and m.phase == Phase.WE_STRAIGHT
    )
    l3 = next(m.to for m in topo.movements_at[i] if m.frm == l1 and m.phase == Phase.WE_LEFT)
    exit_j = next(m.to for m in topo.movements_at[j] if m.frm == l2 and m.phase == Phase.WE_STRAIGHT)

    through = [Vehicle(k, l1, 0.0, exit_j, (l1, l2, exit_j)) for k in range(4)]
    turners = [Vehicle(4 + k, l1, 0.0, l3, (l1, l3)) for k in range(2)]
    state, flow = micro_state_with(net, {(l1, l2): through, (l1, l3): turners})

    turning = random_turning(net, np.random.default_rng(0), max_demand=0.0)
    turning.d = np.zeros_like(turning.d)
    for h in topo.down_links[l2]:
        turning.r[mov(net, (l2, h))] = 1.0 if h == exit_j else 0.0
    for h in topo.down_links[l1]:
        turning.r[mov(net, (l1, h))] = 0.0

    return TwoIntersectionCase(net, i, j, l1, l2, l3, exit_j, state, flow, turning)


def all_phase(net, phase):
    return {i: phase for i in net.intersections}


def random_cg(rng, n_agents, edge_pairs, scale=10.0):
    """A hand-rolled coordination graph with random non-negative tables.

    Tables are drawn in `edge_pairs` order, then the individual vectors in
    agent order; the (pair, table) rows are then sorted by pair.
    """
    from netsignal.coordination import CoordinationGraph

    agents = tuple(range(n_agents))
    tables = {
        (min(i, j), max(i, j)): np.round(rng.random((4, 4)) * scale, 3)
        for (i, j) in edge_pairs
    }
    individual = np.array([np.round(rng.random(4) * scale, 3) for _ in agents])
    edges = sorted(tables)
    stack = np.array([tables[e] for e in edges]).reshape(-1, 4, 4)
    return CoordinationGraph(agents, edges, stack, individual)


def engine_messages(engine):
    """Every message in an engine's buffer, keyed by (sender, receiver)."""
    sched = engine.schedule
    return {
        pair: engine.buffer[sweep.offset + p].copy()
        for sweep in (sched.forward, sched.reverse)
        for p, pair in enumerate(sweep.pairs)
    }


def forward_messages(cg, order, sync_rounds=0, level_pass=True):
    """Forward messages of the shipped kernel after one level pass (taken
    level by level as `coordinate` takes it) and then `sync_rounds` rounds
    that recompute every forward message at once from the previous round's.
    """
    from netsignal.messaging import _Engine

    engine = _Engine(cg, order)
    if level_pass:
        for start, stop in order.schedule.forward.levels:
            engine.update(True, start, stop)
    for _ in range(sync_rounds):
        engine.update(True, 0, len(order.edges))
    messages = engine_messages(engine)
    return {pair: messages[pair] for pair in order.edges}


def random_tree_edges(rng, n_agents):
    """Random spanning tree over agents 0..n-1."""
    edges = []
    for j in range(1, n_agents):
        i = int(rng.integers(j))
        edges.append((i, j))
    return edges


def is_bipartite(n, edges):
    """Whether a connected graph on agents 0..n-1 has no odd cycle."""
    adj = {k: [] for k in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    color = {0: 0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in color:
                color[v] = 1 - color[u]
                frontier.append(v)
            elif color[v] == color[u]:
                return False
    return True


def random_connected_edges(rng, n_agents, extra=0):
    edges = set(random_tree_edges(rng, n_agents))
    attempts = 0
    while extra > 0 and attempts < 50 * extra:
        i, j = sorted(rng.integers(n_agents, size=2).tolist())
        attempts += 1
        if i != j and (i, j) not in edges:
            edges.add((i, j))
            extra -= 1
    return sorted(edges)
