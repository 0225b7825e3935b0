"""Shared fixtures: small networks and hand-built traffic states."""
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from oracle import movement_keys, topology
from netsignal import network
from netsignal.messaging import message_plan
from netsignal.network import Link, LinkKind, Movement, Phase, RoadNetwork, build_grid, movement_arrays
from netsignal.simulation import Flow, QueueState, TurningModel, Vehicle

# every property test runs the same examples each time, with no time limit
# per example and no example database written to disk
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
# Hypothesis caches the constants of local source files in its home directory
# as it collects the tests, whatever the profile says: keep that cache in a
# temporary directory, removed at exit, and out of the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def mov(net, key):
    """Index of the movement with this (from, to) key in the state arrays."""
    return movement_keys(net).index(key)


def memory_runs_out_at_link(monkeypatch, n):
    """Make `build_grid` run out of memory at its `n`-th link, without
    allocating much: `netsignal.network.Link` raises `MemoryError` there."""
    made = []

    def link(*fields):
        if len(made) == n - 1:
            raise MemoryError
        made.append(Link(*fields))
        return made[-1]

    monkeypatch.setattr(network, "Link", link)


def micro_state_with(net, queued, period=0):
    """Build a micro QueueState holding the given vehicles per movement.

    `queued` maps movement keys to lists of Vehicle objects whose routes pass
    through that movement; they join in the order given. The vehicles depart
    at time 0 and are left out of the flow's departures, so the flow does
    not re-inject them. Returns (state, flow).
    """
    pairs = [(key, v) for key, vs in queued.items() for v in vs]
    vehicles = [v for _, v in pairs]
    for v in vehicles:
        v.depart_s = 0.0
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
    keys = movement_keys(net)
    q = {k: 0.0 for k in keys}
    q.update({k: float(v) for k, v in queues.items()})
    return QueueState(period=period, q=np.array([q[k] for k in keys]))


def random_macro_state(net, rng, max_q=10):
    q = [float(rng.integers(0, max_q + 1)) for _ in net.movements]
    return QueueState(period=0, q=np.array(q))


def turning_model(net, r, d):
    """A TurningModel from r by movement key and d by link id (missing
    entries are 0)."""
    return TurningModel(
        r=np.array([r.get(k, 0.0) for k in movement_keys(net)]),
        d=np.array([d.get(l, 0.0) for l in movement_arrays(net).link_ids]),
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


# the seconds a `fake_clock` reading advances
CLOCK_STEP_S = 1e-3


@pytest.fixture
def fake_clock(monkeypatch):
    """`time.perf_counter` replaced by a clock that advances
    `CLOCK_STEP_S` per reading; the fixture counts the readings."""
    readings = []

    def clock():
        readings.append(None)
        return len(readings) * CLOCK_STEP_S

    monkeypatch.setattr(time, "perf_counter", clock)
    return readings


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


def row_pairs(plan):
    """The (sender, receiver) ids of every message-buffer row of a message
    plan: a row's receiver sends the row it excludes."""
    senders = [plan.agents[s] for s in plan.sender.tolist()]
    return tuple((senders[r], senders[x]) for r, x in enumerate(plan.excluded.tolist()))


def loaded_plan(cg, order):
    """The orientation's message plan with `cg` loaded."""
    plan = message_plan(order)
    plan.load(cg)
    return plan


def plan_messages(plan):
    """Every message in the buffer of a message plan, keyed by (sender,
    receiver)."""
    return {pair: plan.messages[:, r].copy() for r, pair in enumerate(row_pairs(plan))}


def sync_round(plan, levels):
    """Recompute the messages of `levels` all at once, each level from the
    buffer as it stood before the round."""
    before = plan.messages.copy()
    after = before.copy()
    for level in levels:
        plan.messages[...] = before
        plan.update(level)
        start, stop = plan.level_rows[level]
        after[:, start:stop] = plan.messages[:, start:stop]
    plan.messages[...] = after


def forward_messages(cg, order, sync_rounds=0, level_pass=True):
    """Forward messages of the shipped kernel after one level pass (taken
    level by level as `coordinate` takes it) and then `sync_rounds` rounds
    that recompute every forward message at once from the previous round's.
    Each message is normalized as the kernel normalizes it: its phase-0
    entry is 0.
    """
    plan = loaded_plan(cg, order)
    forward = range(order.diameter)
    if level_pass:
        for level in forward:
            plan.update(level)
    for _ in range(sync_rounds):
        sync_round(plan, forward)
    messages = plan_messages(plan)
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


def shifted_grid_doc(rows, cols, shift):
    """The roadnet document of `build_grid(rows, cols)` with every
    intersection id moved up by `shift`."""
    doc = build_grid(rows, cols).to_dict()
    for d in doc["intersections"]:
        d["id"] += shift
    for d in doc["links"]:
        for end in ("start", "end"):
            if end in d:
                d[end] += shift
    for d in doc["movements"]:
        d["intersection"] += shift
    return doc


def ring():
    """Two intersections joined both ways and nothing else: a valid network
    with no entry or exit link, so every movement is on an edge."""
    links = [Link(0, LinkKind.INTERNAL, 0, 1, 100.0), Link(1, LinkKind.INTERNAL, 1, 0, 100.0)]
    return RoadNetwork([0, 1], links, [Movement(0, 1, 1, None, 2.0), Movement(1, 0, 0, None, 2.0)])
