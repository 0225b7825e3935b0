"""Discrete-period traffic dynamics.

`step` is the micro simulator experiments measure travel time on: it moves
individual vehicles through per-movement FIFO queues and link transit.
`predict_next_queues` is the macro one-step update, propagating expected
(fractional) queue counts; it is the scalar reference for the lookahead the
planner's cost tables encode.

Per period, an active movement (l, h) discharges up to its saturation flow
from queue (l, h); discharged vehicles either leave through an exit link or
traverse the downstream link and join its queue. In the macro update the
traversal takes one period and arrivals split by turning proportion; in the
micro simulator a vehicle spends ceil(length / (speed * tau)) periods in
transit and follows its own route.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from netsignal.network import LinkKind, LoadError, Phase, RoadNetwork

MovementKey = tuple[int, int]
JointAssignment = dict[int, Phase]


class MetricsError(ValueError):
    """Raised when a metric is undefined (e.g. no vehicles)."""


@dataclass
class SimConfig:
    tau: float = 10.0
    horizon: int = 360
    seed: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class Vehicle:
    """A trip (origin, depart time, destination) with its link route."""

    id: int
    origin: int
    depart_s: float
    destination: int
    route: tuple[int, ...] = ()
    enter_time: Optional[float] = None
    exit_time: Optional[float] = None


@dataclass(frozen=True)
class TransitEntry:
    """A vehicle traversing `link`, joining queue (link, next_link) at `arrive`."""

    arrive: int
    seq: int
    vehicle: int
    link: int
    next_link: int


@dataclass(frozen=True)
class QueueState:
    """Snapshot of all movement queues at a period boundary.

    `q` maps every movement key to its queue length: vehicle counts from
    `step`, expectations from `predict_next_queues`. A simulator state also
    carries the FIFO vehicle ids per movement and the in-transit set; a
    predicted state has neither. Treated as an immutable value: steps build
    new snapshots.
    """

    period: int
    q: dict[MovementKey, float]
    fifo: dict[MovementKey, tuple[int, ...]] = field(default_factory=dict)
    transit: tuple[TransitEntry, ...] = ()
    next_seq: int = 0

    def total_queue(self) -> float:
        return sum(self.q.values())


@dataclass
class TurningModel:
    """Turning proportions r(l, h) plus expected entry arrivals d(l)."""

    r: dict[MovementKey, float]
    d: dict[int, float]

    def proportion(self, frm: int, to: int) -> float:
        return self.r.get((frm, to), 0.0)

    def demand(self, link: int) -> float:
        return self.d.get(link, 0.0)


class Flow:
    """Vehicle registry with per-period arrival buckets and route lookups."""

    def __init__(self, vehicles: Sequence[Vehicle], tau: float):
        self.vehicles: list[Vehicle] = list(vehicles)
        self.tau = tau
        self.by_id: dict[int, Vehicle] = {v.id: v for v in self.vehicles}
        if len(self.by_id) != len(self.vehicles):
            raise ValueError("duplicate vehicle ids in flow")
        self.departures_by_period: dict[int, list[Vehicle]] = {}
        self._next_link: dict[int, dict[int, int]] = {}
        for v in self.vehicles:
            if not v.route or v.route[0] != v.origin or v.route[-1] != v.destination:
                raise ValueError(f"vehicle {v.id}: route must run origin -> destination")
            period = int(math.floor(v.depart_s / tau))
            self.departures_by_period.setdefault(period, []).append(v)
            self._next_link[v.id] = {a: b for a, b in zip(v.route, v.route[1:])}

    def departures(self, period: int) -> list[Vehicle]:
        return self.departures_by_period.get(period, [])

    def next_link(self, vehicle_id: int, link: int) -> Optional[int]:
        return self._next_link[vehicle_id].get(link)


def initial_state(net: RoadNetwork) -> QueueState:
    keys = net.movement_keys()
    return QueueState(period=0, q={k: 0.0 for k in keys}, fifo={k: () for k in keys})


def _movement_active(phase: Optional[Phase], decision_phase: Phase) -> bool:
    return phase is None or phase == decision_phase


def _check_decision(decision: JointAssignment, net: RoadNetwork) -> None:
    missing = net.intersections - decision.keys()
    if missing:
        raise ValueError(f"decision missing intersections: {sorted(missing)}")


def link_delay_periods(net: RoadNetwork, link: int, tau: float) -> int:
    """Traversal time of a link in whole periods (at least one)."""
    l = net.links[link]
    return max(1, math.ceil(l.length_m / (l.speed_mps * tau)))


def predict_next_queues(
    state: QueueState,
    decision: JointAssignment,
    net: RoadNetwork,
    turning: TurningModel,
) -> QueueState:
    """Expected next-period queues: one deterministic macro update.

    Every active movement discharges min(sat_flow, queue); discharged flow
    from upstream movements lands on the downstream link's queues split by
    the turning proportions, and entry links receive their exogenous demand.
    """
    _check_decision(decision, net)
    out: dict[MovementKey, float] = {}
    inflow: dict[int, float] = {l: 0.0 for l in net.links}
    for m in net.movements:
        served = 0.0
        if _movement_active(m.phase, decision[m.intersection]):
            served = min(m.sat_flow, state.q[m.key])
        out[m.key] = served
        inflow[m.to] += served
    new_q: dict[MovementKey, float] = {}
    for m in net.movements:
        l = net.links[m.frm]
        if l.kind is LinkKind.ENTRY:
            arriving = turning.demand(m.frm) * turning.proportion(m.frm, m.to)
        else:
            arriving = inflow[m.frm] * turning.proportion(m.frm, m.to)
        new_q[m.key] = state.q[m.key] - out[m.key] + arriving
    return QueueState(period=state.period + 1, q=new_q)


def step(
    state: QueueState,
    decision: JointAssignment,
    net: RoadNetwork,
    cfg: SimConfig,
    flow: Flow,
) -> QueueState:
    """Advance the micro simulation one period under the given joint phase
    decision."""
    _check_decision(decision, net)

    t = state.period
    tau = cfg.tau
    fifo = dict(state.fifo)
    seq = state.next_seq
    new_transit: list[TransitEntry] = []

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
    pending: list[TransitEntry] = []
    due: list[TransitEntry] = []
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
        v.enter_time = (t + 1) * tau

    q = {key: float(len(ids)) for key, ids in fifo.items()}
    return QueueState(period=t + 1, q=q, fifo=fifo, transit=tuple(pending), next_seq=seq)


def balance_index(
    state: QueueState,
    net: Optional[RoadNetwork] = None,
    intersection: Optional[int] = None,
) -> float:
    """Sum of squared movement queues, network-wide or for one intersection."""
    if intersection is None:
        return float(sum(v * v for v in state.q.values()))
    if net is None:
        raise ValueError("intersection scope requires the network")
    return float(
        sum(state.q[m.key] ** 2 for m in net.movements_at[intersection])
    )


def estimate_turning(state: QueueState, net: RoadNetwork, flow: Optional[Flow] = None) -> TurningModel:
    """Turning proportions from the routes of vehicles currently on each link.

    Links carrying no vehicles fall back to a uniform split over their
    movement successors. Entry demand d(l) counts vehicles scheduled to
    appear on l next period.
    """
    counts: dict[int, dict[int, float]] = {l: {} for l in net.links}
    for (l, h), ids in state.fifo.items():
        if ids:
            counts[l][h] = counts[l].get(h, 0.0) + len(ids)
    for entry in state.transit:
        counts[entry.link][entry.next_link] = counts[entry.link].get(entry.next_link, 0.0) + 1

    r: dict[MovementKey, float] = {}
    for l, succs in net.down_links.items():
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

    d: dict[int, float] = {l: 0.0 for l in net.entry_links()}
    if flow is not None:
        for v in flow.departures(state.period):
            if v.origin in d:
                d[v.origin] += 1.0
    return TurningModel(r=r, d=d)


def _route_distances(net: RoadNetwork, destination: int) -> dict[int, int]:
    """Hop distance from every link to the destination link over movements."""
    dist = {destination: 0}
    frontier = [destination]
    while frontier:
        nxt: list[int] = []
        for h in frontier:
            for m in net.movements_into[h]:
                if m.frm not in dist:
                    dist[m.frm] = dist[h] + 1
                    nxt.append(m.frm)
        frontier = nxt
    return dist


def _walk_route(
    net: RoadNetwork, origin: int, destination: int, dist: dict[int, int], rng
) -> tuple[int, ...]:
    """Follow `dist` (a `_route_distances` map) down to the destination,
    drawing among equally short next links with the rng."""
    route = [origin]
    current = origin
    while current != destination:
        options = [h for h in net.down_links[current] if dist.get(h, -1) == dist[current] - 1]
        current = options[rng.integers(len(options))] if len(options) > 1 else options[0]
        route.append(current)
    return tuple(route)


def shortest_route(net: RoadNetwork, origin: int, destination: int, rng) -> tuple[int, ...]:
    """Shortest route by link hops; ties broken by the caller's rng."""
    dist = _route_distances(net, destination)
    if origin not in dist:
        raise ValueError(f"no route from link {origin} to link {destination}")
    return _walk_route(net, origin, destination, dist, rng)


def generate_uniform_flow(
    net: RoadNetwork,
    rate: float,
    duration: float,
    seed: int = 0,
) -> list[Vehicle]:
    """Evenly spaced arrivals over `duration` seconds at `rate` vehicles/s.

    Origins cycle round-robin through a seeded shuffle of the entry links;
    destinations are drawn uniformly over the exit links reachable from the
    origin; routes are shortest by hop count with seeded tie-breaks. Raises
    `ValueError` naming the entry links that reach no exit.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    entries = net.entry_links()
    exits = net.exit_links()
    if not entries or not exits:
        raise ValueError("network needs entry and exit links to generate flow")
    dist = {x: _route_distances(net, x) for x in exits}
    reachable = {o: [x for x in exits if o in dist[x]] for o in entries}
    stranded = [o for o in entries if not reachable[o]]
    if stranded:
        raise ValueError(f"entry links {stranded} reach no exit link")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x665F]))
    shuffled = list(entries)
    rng.shuffle(shuffled)
    n = int(rate * duration)
    vehicles: list[Vehicle] = []
    for i in range(n):
        origin = shuffled[i % len(shuffled)]
        targets = reachable[origin]
        destination = targets[rng.integers(len(targets))]
        route = _walk_route(net, origin, destination, dist[destination], rng)
        vehicles.append(Vehicle(id=i, origin=origin, depart_s=i / rate, destination=destination, route=route))
    return vehicles


@dataclass
class TravelMetrics:
    avg_travel_time_s: float
    throughput: int
    mean_balance: float
    max_total_queue: float


def travel_time_metrics(
    vehicles: Sequence[Vehicle],
    end_time: float,
    balance_series: Optional[Sequence[float]] = None,
    queue_series: Optional[Sequence[float]] = None,
) -> TravelMetrics:
    """Average travel time over all vehicles, counting unfinished ones up to
    `end_time`."""
    if not vehicles:
        raise MetricsError("no vehicles: travel time undefined")
    total = 0.0
    finished = 0
    for v in vehicles:
        if v.exit_time is not None:
            total += v.exit_time - v.depart_s
            finished += 1
        else:
            total += max(0.0, end_time - v.depart_s)
    return TravelMetrics(
        avg_travel_time_s=total / len(vehicles),
        throughput=finished,
        mean_balance=float(np.mean(balance_series)) if balance_series else 0.0,
        max_total_queue=float(max(queue_series)) if queue_series else 0.0,
    )


def load_flow(path: str, net: RoadNetwork, seed: int = 0) -> list[Vehicle]:
    """Read a flow file: either a vehicle array or a rate spec object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read flow file {path}: {exc}") from exc
    if isinstance(doc, dict):
        try:
            return generate_uniform_flow(
                net, float(doc["rate_vps"]), float(doc["duration_s"]), int(doc.get("seed", seed))
            )
        except KeyError as exc:
            raise LoadError(f"flow rate spec missing field: {exc}") from exc
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x72E5]))
    vehicles = []
    for entry in doc:
        try:
            origin = int(entry["origin"])
            destination = int(entry["destination"])
            vehicles.append(
                Vehicle(
                    id=int(entry["id"]),
                    origin=origin,
                    depart_s=float(entry["depart_s"]),
                    destination=destination,
                    route=shortest_route(net, origin, destination, rng),
                )
            )
        except (KeyError, ValueError) as exc:
            raise LoadError(f"bad flow entry {entry!r}: {exc}") from exc
    return vehicles


def save_flow(vehicles: Sequence[Vehicle], path: str) -> None:
    doc = [
        {"id": v.id, "origin": v.origin, "depart_s": v.depart_s, "destination": v.destination}
        for v in vehicles
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
