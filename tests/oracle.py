"""Scalar reference rules the shipped array kernels are checked against.

`ScalarGraph` reads a `CoordinationGraph` through per-agent neighbour lists
built from its edges and applies the min-sum message rule one edge at a
time; `row_major_messages` is the level passes' rule on a row-major buffer,
stopped after any number of levels, and `row_major_picks` the decision read
from it; `brute_force_optimum` is a graph's exact optimum by enumeration.
`own_balance` is one agent's balance in a state,
`predicted_own_balance` and `best_response` evaluate its next-period
balance, and `phase_pressure` one phase's max-pressure value
(`phase_pressure_table` all of them), by walking the road network's links
and movements.
`longest_directed_path` counts the edges on an orientation's longest path
by recursion. `eccentricity` is one agent's breadth-first search over dict
neighbour lists, and `min_diameter_order` orients a graph from such a
search from every agent, with the level rows of its message plan.

`period_model_at`, `sweep_scores_at`, `build_cg_at` and `phase_pressures_at`
are the per-period scatter-adds as `np.add.at` computes them, in movement
order into zeros; the shipped versions sum through precomputed gather
tables and must equal them bit for bit.

`topology` is the dict view of a road network the scalar rules and the
structure tests read: adjacency and movements per link and intersection,
built from `net.links` and `net.movements` alone. `shortest_route` is the
per-vehicle route search on it, a breadth-first search over link ids;
`reverse` flips an orientation and `followers` lists where its edges point.

`generate_uniform_flow` is the package's flow generator as it was with one
scalar `rng.integers` call per draw, and `flow_file_routes` the routes
`load_flow` drew that way; both walk routes with `walk_route`, which reads a
destination's whole distance list at every hop.

`validate` is the network rules as one loop over the links and one over
the movements, dict by dict, as the package checked them before
`MovementArrays` became the one gate; the gate must name the same
violations.

`route_table` is `Flow`'s hop table as `Flow` built it, one dict lookup
per hop of every vehicle's route; `Flow`, which maps each distinct route
once by array passes, must build the same tables and raise the same errors.

`step` is the scalar micro simulator: dicts of per-movement vehicle-id
tuples, a tuple of transit entries and per-vehicle route dicts
(`ScalarState`, `ScalarFlow`), moving one vehicle at a time;
`estimate_turning` counts the same state vehicle by vehicle. The package's
array `step` and `estimate_turning` must match them exactly.
`predict_next_queues` is the macro one-step update, one movement at a time
into per-link dict sums; the package's single array pass must give the same
bytes and raise the same errors. The scalar rules read the package's array
states through `queue_view`, `turning_view` and `fifo_view`, keyed by
`movement_keys`.
"""
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from netsignal.messaging import message_plan
from netsignal.network import NUM_PHASES, LinkKind, Movement, Phase, gather_table, hop_distances, movement_arrays
from netsignal.network import _is_count, _number_or_nan
from netsignal.ordering import TopologyError
from netsignal.simulation import QueueState, Vehicle, _positive_finite, _seeded_rng, phase_indices

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


def movement_keys(net):
    """The (from, to) key of every movement, in the order of the package's
    per-movement arrays, which is `net.movements` order."""
    return [m.key for m in net.movements]


def queue_view(state, net):
    """A state's queue vector as a dict by movement key."""
    return dict(zip(movement_keys(net), state.q.tolist()))


def own_balance(state, net, agent):
    """Sum of squared queues over one intersection's movements."""
    queues = queue_view(state, net)
    return sum(queues[m.key] ** 2 for m in net.movements if m.intersection == agent)


def turning_view(turning, net):
    """A turning model as (r by movement key, d by link id) dicts."""
    r = dict(zip(movement_keys(net), turning.r.tolist()))
    return r, dict(zip(movement_arrays(net).link_ids, turning.d.tolist()))


def fifo_view(state, net, flow):
    """Vehicle ids waiting per movement key, in FIFO order."""
    keys = movement_keys(net)
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
        """Message vector over the receiver's phases, shifted so that its
        phase-0 entry is 0."""
        u = self.individual(sender).copy()
        for k in self.neighbors[sender]:
            if k == receiver:
                continue
            incoming = messages.get((k, sender))
            if incoming is not None:
                u = u + incoming
        pair = self.edge_cost(sender, receiver)  # [x_sender][x_receiver]
        best = (u[:, None] + pair).min(axis=0)
        return best - best[0]

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


def row_major_messages(cg, order, levels):
    """The (2E, 4) message rows after the first `levels` levels of
    alternating level passes of the message plan's rule, on a row-major
    buffer with a zero row at 2E.

    Each row adds its sender's incoming rows one at a time from 0.0 in slot
    order, then the sender's own cost; subtracts the excluded row; adds the
    edge table [x_sender][x_receiver], takes the minimum over the sender's
    phase and subtracts the result's phase-0 entry.
    """
    plan = message_plan(order)
    ref = ScalarGraph(cg)
    senders = [plan.agents[k] for k in plan.sender.tolist()]
    tables = np.array(
        [ref.edge_cost(senders[r], senders[x]) for r, x in enumerate(plan.excluded.tolist())]
    ).reshape(-1, NUM_PHASES, NUM_PHASES)
    inputs = plan.slots[:, plan.sender]
    rows = np.zeros((len(senders) + 1, NUM_PHASES))
    diameter = len(plan.level_rows) // 2
    for k in range(levels if diameter else 0):
        passes, level = divmod(k, diameter)
        a, b = plan.level_rows[(passes % 2) * diameter + level]
        base = np.zeros((b - a, NUM_PHASES))
        for slot in range(len(inputs)):
            base += rows[inputs[slot, a:b]]
        base += cg.individual[plan.sender[a:b]]
        base -= rows[plan.excluded[a:b]]
        best = (base[:, :, None] + tables[a:b]).min(axis=1)
        rows[a:b] = best - best[:, :1]
    return rows[:-1]


def row_major_picks(cg, order, levels):
    """Each agent's argmin phase over its incoming rows of
    `row_major_messages(cg, order, levels)`, added one at a time from 0.0 in
    slot order, and then its own cost."""
    plan = message_plan(order)
    rows = np.vstack((row_major_messages(cg, order, levels), np.zeros(NUM_PHASES)))
    totals = np.zeros((len(plan.agents), NUM_PHASES))
    for slot in plan.slots:
        totals += rows[slot]
    totals += cg.individual
    return totals.argmin(axis=1)


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
    """`(drained, release_onto)`, the intermediates of `period_model`, by
    movement and by link: `drained[m, x]` is movement m's queue after its
    intersection picks phase x, and `release_onto[l, x]` the volume released
    onto link l when its upstream intersection picks x."""
    arr = movement_arrays(net)
    q = state.q
    cap = np.minimum(arr.sat, q)
    act = arr.act.T  # (n_mov, 4)
    drained = q[:, None] - act * cap[:, None]
    release_onto = np.zeros((arr.n_links, NUM_PHASES))
    np.add.at(release_onto, arr.mov_to, act * cap[:, None])
    return drained, release_onto


def sweep_scores_at(net, state, turning, actions):
    """`period_model(net, state, turning).sweep_scores(actions)`,
    transposed: one row per agent."""
    arr = movement_arrays(net)
    drained, release_onto = period_model_at(net, state, turning)
    upstream = arr.link_upstream_agent
    inflow_link = np.where(arr.entry_link_mask, turning.d, 0.0)
    rows = np.nonzero(upstream >= 0)[0]
    inflow_link[rows] = release_onto[rows, actions[upstream[rows]]]
    inflow_m = inflow_link[arr.mov_from] * turning.r
    scores_m = (drained + inflow_m[:, None]) ** 2
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


def build_cg_at(net, state, turning):
    """`(edge_costs, individual)` of `build_cg(state, net, turning)`:
    unflipped contributions first, then the transposed flipped ones."""
    arr = movement_arrays(net)
    drained, release_onto = period_model_at(net, state, turning)
    r = turning.r
    entry, edge, flip = _movement_edges(net)
    individual = np.zeros((len(arr.agent_ids), NUM_PHASES))
    inflow = turning.d[arr.mov_from[entry]] * r[entry]
    vectors = (drained[entry] + inflow[:, None]) ** 2
    np.add.at(individual, arr.mov_agent[entry], vectors)

    edge_costs = np.zeros((len(arr.edges), NUM_PHASES, NUM_PHASES))
    sel = edge >= 0
    incoming = release_onto[arr.mov_from[sel]] * r[sel][:, None]
    contrib = (incoming[:, :, None] + drained[sel][:, None, :]) ** 2
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
    forward and each reverse level of its message plan."""
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


def down_link_rows(net):
    """Per link row of the network's arrays, the rows of the links that
    movements from it lead to, in movement order."""
    arr, down = movement_arrays(net), topology(net).down_links
    return [[arr.link_index[h] for h in down[l]] for l in arr.link_ids]


def walk_route(arr, down, origin, destination, dist, rng):
    """Follow `dist`, the hop distance of every link row of the network's
    arrays to the destination (-1 where unreachable), as a list or a
    `hop_distances` row, down to the destination along `down_link_rows`,
    drawing among equally short next links with the rng, one scalar
    `rng.integers` draw a tie."""
    current, end = arr.link_index[origin], arr.link_index[destination]
    route = [current]
    while current != end:
        closer = dist[current] - 1
        options = [h for h in down[current] if dist[h] == closer]
        current = options[rng.integers(len(options))] if len(options) > 1 else options[0]
        route.append(current)
    return tuple(map(arr.link_ids.__getitem__, route))


def generate_uniform_flow(net, rate, duration, seed=0):
    """The package's flow generator as it was before its draws came in bulk:
    one scalar `rng.integers` draw per destination and per tie, and walks
    that read every exit's whole distance list. Counts `int(rate *
    duration)` vehicles."""
    rate = _positive_finite(rate, "rate")
    duration = _positive_finite(duration, "duration")
    entries = net.entry_links()
    exits = net.exit_links()
    if not entries or not exits:
        raise ValueError("network needs entry and exit links to generate flow")
    arr = movement_arrays(net)
    row = arr.link_index
    dist = dict(zip(exits, hop_distances(arr.up_links, [row[x] for x in exits]).tolist()))
    reachable = {o: [x for x in exits if dist[x][row[o]] >= 0] for o in entries}
    stranded = [o for o in entries if not reachable[o]]
    if stranded:
        raise ValueError(f"entry links {stranded} reach no exit link")

    rng = _seeded_rng(seed, 0x665F)
    shuffled = list(entries)
    rng.shuffle(shuffled)
    n = int(rate * duration)
    down = down_link_rows(net)
    vehicles = []
    for i in range(n):
        origin = shuffled[i % len(shuffled)]
        targets = reachable[origin]
        destination = targets[rng.integers(len(targets))]
        route = walk_route(arr, down, origin, destination, dist[destination], rng)
        vehicles.append(Vehicle(id=i, origin=origin, depart_s=i / rate, destination=destination, route=route))
    return vehicles


def flow_file_routes(net, vehicles, seed):
    """The routes `load_flow` draws for routable `vehicles` read from a
    vehicle-array file, as it drew them before its draws came in bulk."""
    arr = movement_arrays(net)
    row = arr.link_index
    destinations = sorted({v.destination for v in vehicles})
    dist = dict(zip(destinations, hop_distances(arr.up_links, [row[d] for d in destinations])))
    rng, down = _seeded_rng(seed, 0x72E5), down_link_rows(net)
    return [walk_route(arr, down, v.origin, v.destination, dist[v.destination], rng) for v in vehicles]


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


def route_table(vehicles, tau, net):
    """`Flow`'s tables for `vehicles`, as `Flow` built them hop by hop: every
    hop of every vehicle's route looked up in a `{(from, to): movement}`
    dict, and the vehicles split into departure periods with `np.split`.
    Returns `(route_mov, route_vehicle, departures_by_period, mov_delay)`,
    the last the transit periods of each movement's output link, and raises
    the `ValueError` `Flow` raises, naming the same vehicle."""
    arr = movement_arrays(net)
    vs, n = list(vehicles), len(vehicles)
    if len({v.id for v in vs}) != n:
        raise ValueError("duplicate vehicle ids in flow")
    hops = np.fromiter((len(v.route) - 1 for v in vs), np.intp, n)
    depart = np.fromiter((v.depart_s for v in vs), float, n)
    with np.errstate(over="ignore"):
        period = np.floor(depart / tau)
    _reject(
        vs,
        (hops > 0) & (depart >= 0) & np.isfinite(period),
        "needs a route of two or more links, finite depart_s >= 0 and a finite period depart_s / tau",
    )
    ends = np.fromiter((v.route[0] == v.origin and v.route[-1] == v.destination for v in vs), bool, n)
    _reject(vs, ends, "route does not run from the origin to the destination")

    index = {key: m for m, key in enumerate(movement_keys(net))}
    pairs = chain.from_iterable(zip(v.route, v.route[1:]) for v in vs)
    try:
        route_mov = np.fromiter(map(index.__getitem__, pairs), np.intp, int(hops.sum()))
    except KeyError:
        chains = (all(pair in index for pair in zip(v.route, v.route[1:])) for v in vs)
        _reject(vs, np.fromiter(chains, bool, n), "route takes a turn that is no movement")
    route_vehicle = np.repeat(np.arange(n, dtype=np.intp), hops)
    first_hop = np.cumsum(hops) - hops
    _reject(vs, arr.to_exit[route_mov[first_hop + hops - 1]], "destination is not an exit link")

    order = np.argsort(period, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(period[order])) + 1) if n else []
    departures = {int(period[g[0]]): first_hop[g] for g in groups}
    mov_delay = np.array([link_delay_periods(net, to, tau) for _, to in movement_keys(net)], dtype=np.intp)
    return route_mov, route_vehicle, departures, mov_delay


def _reject(vehicles, ok, why):
    """Raise a `ValueError` naming the first vehicle that is not `ok`."""
    if not ok.all():
        v = vehicles[int(np.argmin(ok))]
        raise ValueError(f"vehicle {v.id}: {why}: route {v.route}, depart_s {v.depart_s}")


def initial_state(net):
    keys = movement_keys(net)
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


def predict_next_queues(state, decision, net, turning):
    """The macro one-step update movement by movement, over dict views:
    every active movement discharges min(sat_flow, queue) into a per-link
    sum, and each movement's queue then gains its turning share of its
    input link's sum, or of the link's demand on an entry link. Reads the
    decision through `phase_indices`, so it raises the same errors."""
    arr = movement_arrays(net)
    phase = dict(zip(arr.agent_ids, phase_indices(decision, arr.agent_ids).tolist()))
    q = queue_view(state, net)
    r, d = turning_view(turning, net)
    out = {}
    inflow = {l: 0.0 for l in net.links}
    for m in net.movements:
        served = 0.0
        if _movement_active(m.phase, phase[m.intersection]):
            served = min(m.sat_flow, q[m.key])
        out[m.key] = served
        inflow[m.to] += served
    new_q = []
    for m in net.movements:
        if net.links[m.frm].kind is LinkKind.ENTRY:
            arriving = d[m.frm] * r[m.key]
        else:
            arriving = inflow[m.frm] * r[m.key]
        new_q.append(q[m.key] - out[m.key] + arriving)
    return QueueState(period=state.period + 1, q=np.array(new_q))


# the ids the array kernels can hold; a link id never reaches numpy
_INT64 = np.iinfo(np.int64)


def _hashable(value) -> bool:
    """Whether `value` hashes, as a dict key or set member must."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _has(collection, value) -> bool:
    """`value in collection`; a value that does not hash names nothing."""
    return _hashable(value) and value in collection


def _missing_end(lid: int, end: str) -> str:
    """How `validate` names an internal link whose `end`, "start" or
    "end", is not an intersection."""
    return f"link {lid}: internal link missing valid {end} intersection"


def _self_loop(lid: int, intersection: int) -> str:
    """How `validate` names a link that is a loop."""
    return f"link {lid}: internal link starts and ends at intersection {intersection}"


def _bad_phase(m: Movement) -> Optional[str]:
    """How `validate` names a movement whose phase is neither None nor an
    integer in 0..3; None for any other."""
    if m.phase is None or (_is_count(m.phase) and 0 <= m.phase < NUM_PHASES):
        return None
    return f"movement ({m.frm}->{m.to}): phase must be None or an integer in 0..3, got {m.phase!r}"


def validate(net) -> list[str]:
    """Check all structural invariants; returns one message per violation.

    Movement checks skip links already reported as broken, so a single bad
    link yields a single violation rather than a cascade. Ids that are no
    integer are reported alone, since the others cannot be ordered.
    """
    violations = [f"intersection {i!r}: id must be an integer" for i in net.intersections if not _is_count(i)]
    violations += [f"link {l!r}: id must be an integer" for l in net.links if not _is_count(l)]
    if violations:
        return violations
    for i in sorted(net.intersections):
        if not _INT64.min <= i <= _INT64.max:
            violations.append(f"intersection {i}: id is outside the int64 range")
    bad_links: set[int] = set()
    for lid, link in net.links.items():
        if not 0 < _number_or_nan(link.length_m) < math.inf:
            violations.append(f"link {lid}: length must be positive and finite, got {link.length_m!r}")
        if not 0 < _number_or_nan(link.speed_mps) < math.inf:
            violations.append(f"link {lid}: speed must be positive and finite, got {link.speed_mps!r}")
        if link.kind is LinkKind.ENTRY:
            if link.start is not None:
                violations.append(f"link {lid}: entry link must not have a start intersection")
                bad_links.add(lid)
            if link.end is None or not _has(net.intersections, link.end):
                violations.append(f"link {lid}: entry link needs a valid end intersection")
                bad_links.add(lid)
        elif link.kind is LinkKind.EXIT:
            if link.end is not None:
                violations.append(f"link {lid}: exit link must not have an end intersection")
                bad_links.add(lid)
            if link.start is None or not _has(net.intersections, link.start):
                violations.append(f"link {lid}: exit link needs a valid start intersection")
                bad_links.add(lid)
        elif link.kind is LinkKind.INTERNAL:
            if link.start is None or not _has(net.intersections, link.start):
                violations.append(_missing_end(lid, "start"))
                bad_links.add(lid)
            if link.end is None or not _has(net.intersections, link.end):
                violations.append(_missing_end(lid, "end"))
                bad_links.add(lid)
            if lid not in bad_links and link.start == link.end:
                violations.append(_self_loop(lid, link.start))
                bad_links.add(lid)
        else:
            violations.append(f"link {lid}: kind must be a LinkKind, got {link.kind!r}")
            bad_links.add(lid)

    seen_keys: set[tuple[int, int]] = set()
    # phases used per (intersection, input link), to catch geometry conflicts
    axis_groups: dict[tuple[int, int], set[Phase]] = {}
    for m in net.movements:
        name = f"movement ({m.frm}->{m.to})"
        if not _has(net.intersections, m.intersection):
            violations.append(f"{name}: unknown intersection {m.intersection}")
            continue
        frm = net.links[m.frm] if _has(net.links, m.frm) else None
        to = net.links[m.to] if _has(net.links, m.to) else None
        if not _has(bad_links, m.frm) and (frm is None or frm.end != m.intersection):
            violations.append(f"{name}: source is not an input link of intersection {m.intersection}")
        if not _has(bad_links, m.to) and (to is None or to.start != m.intersection):
            violations.append(f"{name}: target is not an output link of intersection {m.intersection}")
        if not 0 <= _number_or_nan(m.sat_flow) < math.inf:
            violations.append(f"{name}: saturation flow must be finite and >= 0, got {m.sat_flow!r}")
        # only a movement whose links exist is compared with others
        linked = frm is not None and to is not None
        if linked and m.key in seen_keys:
            violations.append(f"{name}: duplicate movement")
        elif linked:
            seen_keys.add(m.key)
        if m.phase is None:
            continue
        problem = _bad_phase(m)
        if problem is not None:
            violations.append(problem)
            continue
        if not linked:
            continue
        phase = Phase(m.phase)
        group = axis_groups.setdefault((m.intersection, m.frm), set())
        if phase in group:
            violations.append(f"{name}: phase {phase.name} already used by another movement on link {m.frm}")
        group.add(phase)
    for i in sorted(net.intersections - {m.intersection for m in net.movements if _hashable(m.intersection)}):
        violations.append(f"intersection {i}: no movements")
    we = {Phase.WE_STRAIGHT, Phase.WE_LEFT}
    sn = {Phase.SN_STRAIGHT, Phase.SN_LEFT}
    for (i, l), phases in axis_groups.items():
        if phases & we and phases & sn:
            violations.append(
                f"intersection {i}, link {l}: movements mix WE and SN phases, conflicting turn geometry"
            )

    if len(net.intersections) > 1:
        ids = sorted(net.intersections)
        at = {i: k for k, i in enumerate(ids)}
        internal = [l for l in net.links.values() if l.kind is LinkKind.INTERNAL]
        joined = [l for l in internal if _has(at, l.start) and _has(at, l.end)]
        a, b = np.array([(at[l.start], at[l.end]) for l in joined], dtype=np.intp).reshape(-1, 2).T
        neighbours = gather_table(np.concatenate((b, a)), np.concatenate((a, b)), len(ids), len(ids))
        reached = hop_distances(neighbours, [0])[0] >= 0
        if not reached.all():
            missing = [i for i, ok in zip(ids, reached.tolist()) if not ok]
            violations.append(f"intersection graph disconnected, unreachable: {missing}")

    return violations
