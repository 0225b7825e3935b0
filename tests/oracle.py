"""Scalar reference rules the shipped array kernels are checked against.

`ScalarGraph` reads a `CoordinationGraph` through per-agent neighbour lists
built from its edges and applies the min-sum message rule one edge at a
time; `brute_force_optimum` is a graph's exact optimum by enumeration, and
`allclose_coordinate` the solver's stopping rule as `np.allclose` states it.
`own_balance` is one agent's balance in a state,
`predicted_own_balance` and `best_response` evaluate its next-period
balance, and `phase_pressure` one phase's max-pressure value
(`phase_pressure_table` all of them), by walking the road network's links
and movements.
`longest_directed_path` counts the edges on an orientation's longest path
by recursion. `eccentricity` is one agent's breadth-first search over dict
neighbour lists, and `min_diameter_order` orients a graph from such a
search from every agent, with the level rows of its schedule.

`period_model_at`, `sweep_scores_at`, `build_cg_at` and `phase_pressures_at`
are the per-period scatter-adds as `np.add.at` computes them, in movement
order into zeros; the shipped versions sum through precomputed gather
tables and must equal them bit for bit.

`topology` is the dict view of a road network the scalar rules and the
structure tests read: adjacency and movements per link and intersection,
built from `net.links` and `net.movements` alone. `shortest_route` is the
per-vehicle route search on it, a breadth-first search over link ids;
`reverse` flips an orientation and `followers` lists where its edges point.

`step` is the scalar micro simulator: dicts of per-movement vehicle-id
tuples, a tuple of transit entries and per-vehicle route dicts
(`ScalarState`, `ScalarFlow`), moving one vehicle at a time;
`estimate_turning` counts the same state vehicle by vehicle. The package's
array `step` and `estimate_turning` must match them exactly. The scalar
rules read the package's array states through `queue_view`, `turning_view`
and `fifo_view`.
"""
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from netsignal.messaging import message_plan
from netsignal.network import NUM_PHASES, LinkKind, Phase, movement_arrays
from netsignal.ordering import TopologyError

BRUTE_FORCE_AGENT_CAP = 10


class Topology:
    """Dict views of a road network, from its links and movements.

    `in_links`/`out_links` per intersection and `down_links`/`up_links` per
    link list link ids, `neighbors` the sorted adjacent intersections,
    `boundary` the intersections fed by an entry link; `movements_at`,
    `movements_from` and `movements_into` list movements per intersection,
    input link and output link, and `movement_map` holds them by key. Every
    list keeps link-id or movement order.
    """

    def __init__(self, net):
        self.in_links = {i: [] for i in net.intersections}
        self.out_links = {i: [] for i in net.intersections}
        for lid in sorted(net.links):
            link = net.links[lid]
            if link.end in self.in_links:
                self.in_links[link.end].append(lid)
            if link.start in self.out_links:
                self.out_links[link.start].append(lid)

        nbrs = {i: set() for i in net.intersections}
        for link in net.links.values():
            if link.kind is LinkKind.INTERNAL:
                nbrs[link.start].add(link.end)
                nbrs[link.end].add(link.start)
        self.neighbors = {i: sorted(ns) for i, ns in nbrs.items()}
        self.boundary = {
            i for i in net.intersections if any(net.links[l].kind is LinkKind.ENTRY for l in self.in_links[i])
        }

        self.movement_map = {m.key: m for m in net.movements}
        self.movements_at = {i: [] for i in net.intersections}
        self.movements_from = {l: [] for l in net.links}
        self.movements_into = {l: [] for l in net.links}
        for m in net.movements:
            self.movements_at[m.intersection].append(m)
            self.movements_from[m.frm].append(m)
            self.movements_into[m.to].append(m)
        self.down_links = {l: [m.to for m in ms] for l, ms in self.movements_from.items()}
        self.up_links = {l: [m.frm for m in ms] for l, ms in self.movements_into.items()}


def topology(net):
    """The network's `Topology`, built on first use and kept on it, as
    `movement_arrays` keeps its arrays."""
    if not hasattr(net, "_topology"):
        net._topology = Topology(net)
    return net._topology


def queue_view(state, net):
    """A state's queue vector as a dict by movement key."""
    return dict(zip(movement_arrays(net).keys, state.q.tolist()))


def own_balance(state, net, agent):
    """Sum of squared queues over one intersection's movements."""
    queues = queue_view(state, net)
    return sum(queues[m.key] ** 2 for m in net.movements if m.intersection == agent)


def turning_view(turning, net):
    """A turning model as (r by movement key, d by link id) dicts."""
    arr = movement_arrays(net)
    return dict(zip(arr.keys, turning.r.tolist())), dict(zip(arr.link_ids, turning.d.tolist()))


def fifo_view(state, net, flow):
    """Vehicle ids waiting per movement key, in FIFO order."""
    keys = movement_arrays(net).keys
    fifo = {key: () for key in keys}
    for p in state.waiting.tolist():
        key = keys[flow.route_mov[p]]
        fifo[key] = fifo[key] + (flow.vehicles[flow.route_vehicle[p]].id,)
    return fifo


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


def row_major_messages(cg, order, passes):
    """The (2E, 4) message rows after `passes` alternating level passes of
    the message plan's rule on a row-major buffer with a zero row at 2E.

    Each row adds its sender's incoming rows one at a time from 0.0 in slot
    order, then the sender's own cost; subtracts the excluded row; adds the
    edge table [x_sender][x_receiver] and takes the minimum over the
    sender's phase.
    """
    sched = order.schedule
    ref = ScalarGraph(cg)
    senders = [sched.agents[k] for k in sched.sender.tolist()]
    tables = np.array(
        [ref.edge_cost(senders[r], senders[x]) for r, x in enumerate(sched.excluded.tolist())]
    ).reshape(-1, NUM_PHASES, NUM_PHASES)
    inputs = sched.slots[:, sched.sender]
    rows = np.zeros((len(senders) + 1, NUM_PHASES))
    diameter = len(sched.levels) // 2
    for p in range(passes):
        for a, b in sched.levels[(p % 2) * diameter :][:diameter]:
            base = np.zeros((b - a, NUM_PHASES))
            for k in range(len(inputs)):
                base += rows[inputs[k, a:b]]
            base += cg.individual[sched.sender[a:b]]
            base -= rows[sched.excluded[a:b]]
            rows[a:b] = (base[:, :, None] + tables[a:b]).min(axis=1)
    return rows[:-1]


def allclose_coordinate(cg, order, rounds):
    """`(passes, rounds, converged, phases)` of `coordinate` under a rounds
    cap, run on the message plan with a fresh copy of the whole buffer after
    each pass and the cycle test `np.allclose(rtol=0, atol=1e-9)` over all of
    it, own-cost and zero columns included."""
    plan = message_plan(order)
    plan.load(cg)
    diameter = order.diameter
    done = passes = 0
    finished = previous = None
    while True:
        for level in range((passes % 2) * diameter, (passes % 2 + 1) * diameter):
            if done >= rounds:
                return passes, done, False, plan.picks(finished)
            plan.update(level)
            done += 1
        passes += 1
        finished = plan.messages.copy()
        if passes % 2 == 0:
            if previous is not None and np.allclose(finished, previous, rtol=0.0, atol=1e-9):
                return passes, done, True, plan.picks()
            previous = finished


def brute_force_optimum(cg):
    """Exact argmin of `global_cost` by enumeration; lexicographic tie-break.

    Capped at `BRUTE_FORCE_AGENT_CAP` agents (4^10 evaluations).
    """
    n = len(cg.agents)
    if n > BRUTE_FORCE_AGENT_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_AGENT_CAP} agents, got {n}")
    index_of = {a: k for k, a in enumerate(cg.agents)}
    assign = np.indices((NUM_PHASES,) * n).reshape(n, -1)
    costs = np.zeros(assign.shape[1])
    for k in range(n):
        costs += cg.individual[k][assign[k]]
    for e, (i, j) in enumerate(cg.edges):
        costs += cg.edge_costs[e][assign[index_of[i]], assign[index_of[j]]]
    best = int(np.argmin(costs))
    assignment = {a: Phase(int(assign[k, best])) for k, a in enumerate(cg.agents)}
    return assignment, float(costs[best])


def predicted_own_balance(agent, candidate, actions, state, net, turning):
    """Next-period sum of squared queues on the agent's input links, given
    the neighbors' phases fixed."""
    queues = queue_view(state, net)
    r, d = turning_view(turning, net)
    topo = topology(net)
    total = 0.0
    for l in topo.in_links[agent]:
        link = net.links[l]
        if link.kind is LinkKind.ENTRY:
            inflow = d[l]
        else:
            inflow = 0.0
            upstream_phase = actions[link.start]
            for m in topo.movements_into[l]:
                if m.phase is None or m.phase == upstream_phase:
                    inflow += min(m.sat_flow, queues[m.key])
        for m in topo.movements_from[l]:
            q = queues[m.key]
            if m.phase is None or m.phase == candidate:
                q -= min(m.sat_flow, q)
            q += inflow * r[m.key]
            total += q * q
    return total


def best_response(agent, actions, state, net, turning):
    """Phase minimizing the agent's own predicted balance.

    `actions` must cover every neighbor; if it includes the agent itself,
    ties keep the current phase before falling back to the lowest index.
    """
    missing = [j for j in topology(net).neighbors[agent] if j not in actions]
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
    q = queue_view(state, net)
    r, _ = turning_view(turning, net)
    topo = topology(net)
    total = 0.0
    for m in topo.movements_at[agent]:
        if m.phase != phase:
            continue
        downstream = 0.0
        if net.links[m.to].kind is not LinkKind.EXIT:
            for down in topo.movements_from[m.to]:
                downstream += r[down.key] * q[down.key]
        total += m.sat_flow * (q[m.key] - downstream)
    return total


def phase_pressure_table(state, net, turning):
    """Every agent's `phase_pressure` per phase, rows in sorted agent order."""
    return np.array(
        [[phase_pressure(i, p, state, net, turning) for p in Phase] for i in sorted(net.intersections)]
    )


def period_model_at(net, state, turning):
    """`(drained, release_onto)` of `period_model`."""
    arr = movement_arrays(net)
    q = state.q
    cap = np.minimum(arr.sat, q)
    act = arr.act.T  # (n_mov, 4)
    drained = q[:, None] - act * cap[:, None]
    release_onto = np.zeros((arr.n_links, NUM_PHASES))
    np.add.at(release_onto, arr.mov_to, act * cap[:, None])
    return drained, release_onto


def sweep_scores_at(model, actions):
    """`PeriodModel.sweep_scores(actions)`, transposed: one row per agent."""
    arr = model.arrays
    upstream = arr.link_upstream_agent
    inflow_link = np.where(arr.entry_link_mask, model.demand, 0.0)
    rows = np.nonzero(upstream >= 0)[0]
    inflow_link[rows] = model.release_onto[rows, actions[upstream[rows]]]
    inflow_m = inflow_link[arr.mov_from] * model.r
    scores_m = (model.drained + inflow_m[:, None]) ** 2
    agent_scores = np.zeros((len(arr.agent_ids), NUM_PHASES))
    np.add.at(agent_scores, arr.mov_agent, scores_m)
    return agent_scores


def _movement_edges(net):
    """Per movement: whether its input link is an entry link, the edge of its
    internal input link (-1 for none), and whether that link runs from the
    higher to the lower id."""
    arr = movement_arrays(net)
    edge_index = {e: k for k, e in enumerate(arr.edges)}
    entry = np.zeros(arr.n_mov, dtype=bool)
    edge = np.full(arr.n_mov, -1, dtype=np.intp)
    flip = np.zeros(arr.n_mov, dtype=bool)
    for k, m in enumerate(net.movements):
        link = net.links[m.frm]
        entry[k] = link.kind is LinkKind.ENTRY
        if link.kind is LinkKind.INTERNAL:
            a, b = link.start, link.end
            edge[k] = edge_index[(min(a, b), max(a, b))]
            flip[k] = a > b
    return entry, edge, flip


def build_cg_at(net, model):
    """`(edge_costs, individual)` of `build_cg` from the same period model:
    unflipped contributions first, then the transposed flipped ones."""
    arr = movement_arrays(net)
    entry, edge, flip = _movement_edges(net)
    individual = np.zeros((len(arr.agent_ids), NUM_PHASES))
    inflow = model.demand[arr.mov_from[entry]] * model.r[entry]
    vectors = (model.drained[entry] + inflow[:, None]) ** 2
    np.add.at(individual, arr.mov_agent[entry], vectors)

    edge_costs = np.zeros((len(arr.edges), NUM_PHASES, NUM_PHASES))
    sel = edge >= 0
    incoming = model.release_onto[arr.mov_from[sel]] * model.r[sel][:, None]
    contrib = (incoming[:, :, None] + model.drained[sel][:, None, :]) ** 2
    idx, flip = edge[sel], flip[sel]
    np.add.at(edge_costs, idx[~flip], contrib[~flip])
    np.add.at(edge_costs, idx[flip], contrib[flip].transpose(0, 2, 1))
    return edge_costs, individual


def phase_pressures_at(state, net, turning):
    """`phase_pressures(state, net, turning)`."""
    arr = movement_arrays(net)
    q = state.q
    downstream = np.zeros(arr.n_links)
    np.add.at(downstream, arr.mov_from, turning.r * q)
    pressure = arr.sat * (q - downstream[arr.mov_to])
    phased = arr.mov_phase >= 0
    totals = np.zeros((len(arr.agent_ids), NUM_PHASES))
    np.add.at(totals, (arr.mov_agent[phased], arr.mov_phase[phased]), pressure[phased])
    return totals


def reverse(order):
    """Flip every edge of a `DagOrder`; an involution that preserves the
    longest path."""
    return replace(order, edges=tuple((v, u) for (u, v) in order.edges))


def followers(order):
    """Per agent, the agents its edges of a `DagOrder` point to."""
    foll = {a: [] for a in order.dist}
    for u, v in order.edges:
        foll[u].append(v)
    return foll


def longest_directed_path(order):
    """Edges on the longest directed path of an orientation."""
    foll = followers(order)

    @lru_cache(maxsize=None)
    def down(a):
        return max((1 + down(b) for b in foll[a]), default=0)

    return max(down(a) for a in foll)


def _adjacency(cg):
    adj = {a: [] for a in cg.agents}
    for i, j in cg.edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _bfs_distances(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def eccentricity(cg, agent):
    """Max BFS hop distance from `agent` to any other agent; raises
    `TopologyError` if some agent is unreachable."""
    adj = _adjacency(cg)
    dist = _bfs_distances(adj, agent)
    if len(dist) != len(adj):
        missing = sorted(adj.keys() - dist.keys())
        raise TopologyError(f"coordination graph disconnected, unreachable from {agent}: {missing}")
    return max(dist.values())


def _longest_path_depths(agents, edges):
    """Edges on the longest directed path ending at each agent of a DAG."""
    depth = {a: 0 for a in agents}
    indeg = {a: 0 for a in agents}
    out = {a: [] for a in agents}
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


def min_diameter_order(cg):
    """`min_diameter_dag` by a BFS from every agent: the sink, the oriented
    edges, `dist`, `diameter`, and the (sender, receiver) pairs of each
    forward and each reverse level of its schedule."""
    adj = _adjacency(cg)
    sink = min(cg.agents, key=lambda a: (eccentricity(cg, a), a))
    dist = _bfs_distances(adj, sink)
    edges = tuple((j, i) if (dist[i], i) < (dist[j], j) else (i, j) for i, j in cg.edges)
    depth = _longest_path_depths(cg.agents, edges)
    height = _longest_path_depths(cg.agents, [(v, u) for u, v in edges])
    diameter = max(depth.values())
    forward = [tuple(e for e in edges if depth[e[0]] == k) for k in range(diameter)]
    reverse = [tuple((v, u) for u, v in edges if height[v] == k) for k in range(diameter)]
    return sink, edges, dist, diameter, forward, reverse


def route_distances(net, destination):
    """Hop distance over movements to the destination link, by link id, for
    every link that reaches it."""
    up = topology(net).up_links
    dist = {destination: 0}
    frontier = [destination]
    while frontier:
        nxt = []
        for h in frontier:
            for l in up[h]:
                if l not in dist:
                    dist[l] = dist[h] + 1
                    nxt.append(l)
        frontier = nxt
    return dist


def shortest_route(net, origin, destination, rng):
    """Shortest route by link hops; ties among equally short next links
    drawn with the caller's rng."""
    dist = route_distances(net, destination)
    if origin not in dist:
        raise ValueError(f"no route from link {origin} to link {destination}")
    down = topology(net).down_links
    route = [origin]
    while route[-1] != destination:
        options = [h for h in down[route[-1]] if dist.get(h, -1) == dist[route[-1]] - 1]
        route.append(options[rng.integers(len(options))] if len(options) > 1 else options[0])
    return tuple(route)


@dataclass(frozen=True)
class TransitEntry:
    """A vehicle traversing `link`, joining queue (link, next_link) at `arrive`."""

    arrive: int
    seq: int
    vehicle: int
    link: int
    next_link: int


@dataclass(frozen=True)
class ScalarState:
    """Snapshot of all movement queues at a period boundary: `q` by movement
    key, the FIFO vehicle ids per movement and the in-transit set."""

    period: int
    q: dict
    fifo: dict = field(default_factory=dict)
    transit: tuple = ()
    next_seq: int = 0

    def total_queue(self):
        return sum(self.q.values())


class ScalarFlow:
    """Vehicle registry with per-period arrival buckets and route lookups."""

    def __init__(self, vehicles, tau):
        self.vehicles = list(vehicles)
        self.tau = tau
        self.by_id = {v.id: v for v in self.vehicles}
        if len(self.by_id) != len(self.vehicles):
            raise ValueError("duplicate vehicle ids in flow")
        self.departures_by_period = {}
        self._next_link = {}
        for v in self.vehicles:
            if not v.route or v.route[0] != v.origin or v.route[-1] != v.destination:
                raise ValueError(f"vehicle {v.id}: route must run origin -> destination")
            period = int(math.floor(v.depart_s / tau))
            self.departures_by_period.setdefault(period, []).append(v)
            self._next_link[v.id] = {a: b for a, b in zip(v.route, v.route[1:])}

    def departures(self, period):
        return self.departures_by_period.get(period, [])

    def next_link(self, vehicle_id, link) -> Optional[int]:
        return self._next_link[vehicle_id].get(link)


def initial_state(net):
    keys = [m.key for m in net.movements]
    return ScalarState(period=0, q={k: 0.0 for k in keys}, fifo={k: () for k in keys})


def _movement_active(phase, decision_phase):
    return phase is None or phase == decision_phase


def _check_decision(decision, net):
    missing = net.intersections - decision.keys()
    if missing:
        raise ValueError(f"decision missing intersections: {sorted(missing)}")


def link_delay_periods(net, link, tau):
    """Traversal time of a link in whole periods (at least one)."""
    l = net.links[link]
    return max(1, math.ceil(l.length_m / (l.speed_mps * tau)))


def step(state, decision, net, cfg, flow):
    """Advance the micro simulation one period under the given joint phase
    decision."""
    _check_decision(decision, net)

    t = state.period
    tau = cfg.tau
    fifo = dict(state.fifo)
    seq = state.next_seq
    new_transit = []

    # Synchronous release pass: all discharges read the pre-step queues.
    for m in net.movements:
        if not _movement_active(m.phase, decision[m.intersection]):
            continue
        key = m.key
        waiting = fifo[key]
        n = min(int(m.sat_flow), len(waiting))
        if n == 0:
            continue
        released, fifo[key] = waiting[:n], waiting[n:]
        if net.links[m.to].kind is LinkKind.EXIT:
            for vid in released:
                flow.by_id[vid].exit_time = (t + 1) * tau
        else:
            delay = link_delay_periods(net, m.to, tau)
            for vid in released:
                nxt = flow.next_link(vid, m.to)
                if nxt is None:
                    raise ValueError(f"vehicle {vid}: route has no continuation from link {m.to}")
                new_transit.append(TransitEntry(t + delay, seq, vid, m.to, nxt))
                seq += 1

    # Vehicles whose traversal completes join their downstream queue FIFO by
    # (arrival period, release order).
    pending = []
    due = []
    for entry in state.transit + tuple(new_transit):
        (due if entry.arrive <= t + 1 else pending).append(entry)
    due.sort(key=lambda e: (e.arrive, e.seq))
    for entry in due:
        fifo[(entry.link, entry.next_link)] = fifo[(entry.link, entry.next_link)] + (entry.vehicle,)

    # Exogenous arrivals during this period appear on their entry queue next
    # period.
    for v in flow.departures(t):
        nxt = flow.next_link(v.id, v.origin)
        if nxt is None:
            raise ValueError(f"vehicle {v.id}: route has no continuation from origin {v.origin}")
        fifo[(v.origin, nxt)] = fifo[(v.origin, nxt)] + (v.id,)

    q = {key: float(len(ids)) for key, ids in fifo.items()}
    return ScalarState(period=t + 1, q=q, fifo=fifo, transit=tuple(pending), next_seq=seq)


def estimate_turning(state, net, flow=None):
    """Turning proportions from the routes of vehicles currently on each link,
    as (r by movement key, d by entry link) dicts.

    Links carrying no vehicles fall back to a uniform split over their
    movement successors. Entry demand d(l) counts vehicles scheduled to
    appear on l next period.
    """
    counts = {l: {} for l in net.links}
    for (l, h), ids in state.fifo.items():
        if ids:
            counts[l][h] = counts[l].get(h, 0.0) + len(ids)
    for entry in state.transit:
        counts[entry.link][entry.next_link] = counts[entry.link].get(entry.next_link, 0.0) + 1

    r = {}
    for l, succs in topology(net).down_links.items():
        if not succs:
            continue
        total = sum(counts[l].values())
        if total > 0:
            for h in succs:
                r[(l, h)] = counts[l].get(h, 0.0) / total
        else:
            share = 1.0 / len(succs)
            for h in succs:
                r[(l, h)] = share

    d = {l: 0.0 for l in net.entry_links()}
    if flow is not None:
        for v in flow.departures(state.period):
            if v.origin in d:
                d[v.origin] += 1.0
    return r, d
