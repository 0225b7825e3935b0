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

State is arrays in `MovementArrays` order: the queue vector of a state, the
turning shares and the entry demand. `step` and `estimate_turning` are
whole-network numpy passes over them; per-vehicle Python work is limited to
writing the exit times of the vehicles that leave.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Mapping
from itertools import chain
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from netsignal.network import NUM_PHASES, PHASES, LinkKind, LoadError, Phase, RoadNetwork
from netsignal.network import hop_distances, movement_arrays
from netsignal.network import _finite, _integer, _is_count, _number, _number_or_nan, _value

MovementKey = tuple[int, int]

_NONE = np.zeros(0, dtype=np.intp)


class JointAssignment(Mapping):
    """A joint decision, one phase per agent, read as an `{id: Phase}` map.

    `agents` is the sorted tuple of agent ids and `phases` the read-only
    (N,) array of their phase indices in that order; `view[id]` finds the
    id by binary search. Every controller returns one, and `phase_indices`
    reads it back without a copy.

    The constructor checks both fields. `_unchecked` skips the checks for
    the planner's own decisions, which are valid by construction.
    """

    __slots__ = ("agents", "phases")

    def __init__(self, agents: Sequence[int], phases: np.ndarray):
        agents = tuple(agents)
        if not _ascending(agents):
            raise ValueError(f"agents must be sorted and distinct, got {agents}")
        phases = np.asarray(phases)
        if (
            phases.shape != (len(agents),)
            or phases.dtype.kind not in "iu"
            or (len(agents) and (phases.min() < 0 or phases.max() >= NUM_PHASES))
        ):
            raise ValueError(f"phases must be {len(agents)} integers in 0..3, got {phases!r}")
        phases = phases.astype(np.intp, copy=False).view()
        phases.flags.writeable = False
        self.agents = agents
        self.phases = phases

    @classmethod
    def _unchecked(cls, agents: tuple[int, ...], phases: np.ndarray) -> "JointAssignment":
        """The view of `phases` over `agents`, without the constructor's
        checks: `agents` is a sorted tuple of distinct ids, and `phases` an
        (N,) intp array of phases in 0..3 that nothing writes afterwards,
        marked read-only in place. `coordinate`, `local_improvement` and
        `max_pressure` build their decisions so, over their graph's or
        network's own agent tuple."""
        view = cls.__new__(cls)
        phases.flags.writeable = False
        view.agents = agents
        view.phases = phases
        return view

    def __getitem__(self, agent) -> Phase:
        try:
            k = bisect_left(self.agents, agent)
        except TypeError:
            raise KeyError(agent) from None
        if k == len(self.agents) or self.agents[k] != agent:
            raise KeyError(agent)
        return PHASES[self.phases[k]]

    def __iter__(self):
        return iter(self.agents)

    def __len__(self) -> int:
        return len(self.agents)

    def __repr__(self) -> str:
        return f"JointAssignment({dict(self)!r})"


@lru_cache(maxsize=16)
def _ascending(ids: tuple) -> bool:
    """Whether `ids` are sorted and distinct. Decisions of one network
    share one id tuple, so the answer is kept."""
    return all(a < b for a, b in zip(ids, ids[1:]))


def phase_indices(decision: Mapping, agents: tuple[int, ...]) -> np.ndarray:
    """The phase index of each of `agents` (sorted ids) under `decision`.

    A `JointAssignment` over the same agents gives its own `phases`; any
    other mapping is read id by id. Raises `ValueError` naming the agents
    the decision misses, or an agent whose phase is not an integer in 0..3
    (a bool is none).
    """
    if isinstance(decision, JointAssignment) and (decision.agents is agents or decision.agents == agents):
        return decision.phases
    missing = [a for a in agents if a not in decision]
    if missing:
        raise ValueError(f"decision is missing agents {missing}")
    phases = [decision[a] for a in agents]
    for a, p in zip(agents, phases):
        if not (_is_count(p) and 0 <= p < NUM_PHASES):
            raise ValueError(f"decision gives agent {a} the phase {p!r}, expected an integer in 0..3")
    return np.array(phases, dtype=np.intp)


class MetricsError(ValueError):
    """Raised when a metric is undefined (e.g. no vehicles)."""


@dataclass
class SimConfig:
    tau: float = 10.0
    horizon: int = 360
    seed: int = 0

    def __post_init__(self):
        self.tau = _positive_finite(self.tau, "tau")
        if not _is_count(self.horizon) or self.horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not _is_count(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


def _positive_finite(value, name: str) -> float:
    """`value` as a number in (0, inf); raises `ValueError` naming it."""
    number = _number_or_nan(value)
    if not 0 < number < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return number


def _seeded_rng(seed: int, salt: int) -> np.random.Generator:
    """The random stream `salt` of `seed`; raises `ValueError` naming a
    seed that is not an integer >= 0."""
    if not (_is_count(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


@dataclass
class Vehicle:
    """A trip (origin, depart time, destination) with its link route."""

    id: int
    origin: int
    depart_s: float
    destination: int
    route: tuple[int, ...] = ()
    exit_time: Optional[float] = None


@dataclass(frozen=True, eq=False)
class QueueState:
    """Snapshot of all movement queues at a period boundary.

    `q[m]` is the queue of movement m in `movement_arrays(net)` order:
    vehicle counts from `step`, expectations from `predict_next_queues`.
    A simulator state also holds its vehicles as positions in the flow's
    route table (`Flow.route_mov`), each the hop the vehicle waits to make
    next: `waiting` in the order they joined their queues, `transit` in the
    order they were released onto the link they traverse, with `arrive`, the
    period in which each transit vehicle joins its queue. A predicted state
    holds no vehicles. States are immutable snapshots: their arrays are
    read-only and every step builds new ones.
    """

    period: int
    q: np.ndarray
    waiting: np.ndarray = field(default_factory=lambda: _NONE)
    transit: np.ndarray = field(default_factory=lambda: _NONE)
    arrive: np.ndarray = field(default_factory=lambda: _NONE)

    def __post_init__(self):
        for a in (self.q, self.waiting, self.transit, self.arrive):
            a.flags.writeable = False

    def total_queue(self) -> float:
        return float(self.q.sum())


@dataclass
class TurningModel:
    """Turning proportions and entry demand as arrays over `MovementArrays`.

    `r[m]` is the share of movement m's input-link traffic bound for its
    output link; `d[k]` the vehicles expected on link `link_ids[k]` next
    period (zero off entry links).
    """

    r: np.ndarray
    d: np.ndarray


def link_delay_periods(net: RoadNetwork, tau: float) -> np.ndarray:
    """Traversal time of every link in whole periods (at least one), in
    `MovementArrays.link_ids` order."""
    links = [net.links[l] for l in movement_arrays(net).link_ids]
    length, speed = np.array([(l.length_m, l.speed_mps) for l in links]).reshape(-1, 2).T
    return np.maximum(1, np.ceil(length / (speed * tau))).astype(np.intp)


class Flow:
    """The vehicles of one run, with their routes as one flat hop table.

    Every hop (one movement) of every route has a position in `route_mov`
    (its movement index) and `route_vehicle` (its vehicle's row in
    `vehicles`); a route's hops are consecutive, so the hop after position p
    is p + 1. `departures_by_period` maps a period to the first-hop
    positions of the vehicles departing in it, in flow order, and `delay` is
    `link_delay_periods` of the network. A route must run from the origin
    over movements of the network to an exit link, the destination, and a
    vehicle must depart at a finite time >= 0.
    """

    def __init__(self, vehicles: Sequence[Vehicle], tau: float, net: RoadNetwork):
        arr = movement_arrays(net)
        self.arrays = arr
        self.vehicles: list[Vehicle] = list(vehicles)
        vs, n = self.vehicles, len(self.vehicles)
        if len({v.id for v in vs}) != n:
            raise ValueError("duplicate vehicle ids in flow")
        hops = np.fromiter((len(v.route) - 1 for v in vs), np.intp, n)
        depart = np.fromiter((v.depart_s for v in vs), float, n)
        _reject(
            vs,
            (hops > 0) & (depart >= 0) & np.isfinite(depart),
            "needs a route of two or more links, finite depart_s >= 0",
        )
        period = np.floor(depart / tau)
        ends = np.fromiter((v.route[0] == v.origin and v.route[-1] == v.destination for v in vs), bool, n)
        _reject(vs, ends, "route does not run from the origin to the destination")

        index = {key: m for m, key in enumerate(arr.keys)}
        pairs = chain.from_iterable(zip(v.route, v.route[1:]) for v in vs)
        try:
            self.route_mov = np.fromiter(map(index.__getitem__, pairs), np.intp, int(hops.sum()))
        except KeyError:
            chains = (all(pair in index for pair in zip(v.route, v.route[1:])) for v in vs)
            _reject(vs, np.fromiter(chains, bool, n), "route takes a turn that is no movement")
        self.route_vehicle = np.repeat(np.arange(n, dtype=np.intp), hops)
        first_hop = np.cumsum(hops) - hops
        _reject(vs, arr.to_exit[self.route_mov[first_hop + hops - 1]], "destination is not an exit link")

        order = np.argsort(period, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(period[order])) + 1) if n else []
        self.departures_by_period = {int(period[g[0]]): first_hop[g] for g in groups}
        self.delay = link_delay_periods(net, tau)


def _reject(vehicles: Sequence[Vehicle], ok: np.ndarray, why: str) -> None:
    """Raise a `ValueError` naming the first vehicle that is not `ok`."""
    if not ok.all():
        v = vehicles[int(np.argmin(ok))]
        raise ValueError(f"vehicle {v.id}: {why}: route {v.route}, depart_s {v.depart_s}")


def initial_state(net: RoadNetwork) -> QueueState:
    return QueueState(period=0, q=np.zeros(movement_arrays(net).n_mov))


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
    Scalar on purpose, over dict views of the arrays: it is the reference
    the cost tables are checked against.
    """
    arr = movement_arrays(net)
    phase = phase_indices(decision, arr.agent_ids).tolist()
    q = dict(zip(arr.keys, state.q.tolist()))
    r = dict(zip(arr.keys, turning.r.tolist()))
    d = dict(zip(arr.link_ids, turning.d.tolist()))
    out: dict[MovementKey, float] = {}
    inflow: dict[int, float] = {l: 0.0 for l in net.links}
    for m in net.movements:
        served = 0.0
        if m.phase is None or m.phase == phase[arr.agent_index[m.intersection]]:
            served = min(m.sat_flow, q[m.key])
        out[m.key] = served
        inflow[m.to] += served
    new_q: list[float] = []
    for m in net.movements:
        l = net.links[m.frm]
        if l.kind is LinkKind.ENTRY:
            arriving = d[m.frm] * r[m.key]
        else:
            arriving = inflow[m.frm] * r[m.key]
        new_q.append(q[m.key] - out[m.key] + arriving)
    return QueueState(period=state.period + 1, q=np.array(new_q))


def step(
    state: QueueState,
    decision: JointAssignment,
    net: RoadNetwork,
    cfg: SimConfig,
    flow: Flow,
) -> QueueState:
    """Advance the micro simulation one period under the given joint phase
    decision.

    Every active movement releases the first min(sat_flow, queue) vehicles
    that joined it, all reading the pre-step queues. Released vehicles leave
    through an exit link or traverse their next link; traversals that end
    this period join their next queue in (arrival period, release order),
    then this period's departures join their entry queue in flow order.
    """
    arr = movement_arrays(net)
    if flow.arrays is not arr:
        raise ValueError("flow was built for another network")
    phase = phase_indices(decision, arr.agent_ids)
    t = state.period
    tau = cfg.tau
    route_mov = flow.route_mov

    # FIFO release: rank each waiting vehicle within its movement's queue
    # by join order, and release the ranks under the movement's quota.
    active = (arr.mov_phase < 0) | (arr.mov_phase == phase[arr.mov_agent])
    quota = np.where(active, arr.release_cap, 0)
    waiting = state.waiting
    mov = route_mov[waiting]
    order = np.argsort(mov, kind="stable")
    sorted_mov = mov[order]
    rank = np.arange(len(order)) - np.searchsorted(sorted_mov, sorted_mov)
    out = rank < quota[sorted_mov]
    released = waiting[order[out]]  # by movement, then FIFO
    released_mov = sorted_mov[out]
    stays = np.ones(len(waiting), dtype=bool)
    stays[order[out]] = False

    exits = arr.to_exit[released_mov]
    for row in flow.route_vehicle[released[exits]].tolist():
        flow.vehicles[row].exit_time = (t + 1) * tau
    moving = ~exits
    # Every earlier traversal ends at t + 1 or later and was released
    # before this period's, so `transit` stays in (arrival, release) order
    # for the vehicles due at t + 1.
    transit = np.concatenate((state.transit, released[moving] + 1))
    arrive = np.concatenate((state.arrive, t + flow.delay[arr.mov_to[released_mov[moving]]]))
    due = arrive <= t + 1

    departing = flow.departures_by_period.get(t, _NONE)
    waiting = np.concatenate((waiting[stays], transit[due], departing))
    q = np.bincount(route_mov[waiting], minlength=arr.n_mov).astype(float)
    return QueueState(t + 1, q, waiting, transit[~due], arrive[~due])


def balance_index(state: QueueState) -> float:
    """Sum of squared movement queues over the network."""
    return float(state.q @ state.q)


def estimate_turning(state: QueueState, net: RoadNetwork, flow: Flow) -> TurningModel:
    """Turning proportions from the routes of vehicles currently on each link.

    A movement's count is its queue plus the vehicles in transit towards it;
    its share is that count over its input link's total. Links carrying no
    vehicles fall back to a uniform split over their movements. Entry
    demand d(l) counts vehicles scheduled to appear on l next period.
    """
    arr = movement_arrays(net)
    counts = state.q + np.bincount(flow.route_mov[state.transit], minlength=arr.n_mov)
    total = np.bincount(arr.mov_from, weights=counts, minlength=arr.n_links)[arr.mov_from]
    r = np.divide(counts, total, out=arr.uniform_turn.copy(), where=total > 0)
    departing = flow.departures_by_period.get(state.period, _NONE)
    entries = np.bincount(arr.mov_from[flow.route_mov[departing]], minlength=arr.n_links)
    return TurningModel(r=r, d=np.where(arr.entry_link_mask, entries, 0.0))


def _walk_route(
    net: RoadNetwork, origin: int, destination: int, dist: Sequence[int], rng
) -> tuple[int, ...]:
    """Follow `dist`, the hop distance of every link row to the
    destination (-1 where unreachable), as a list or a `hop_distances` row,
    down to the destination, drawing among equally short next links with
    the rng."""
    arr = movement_arrays(net)
    down = arr.down_link_rows
    current, end = arr.link_index[origin], arr.link_index[destination]
    route = [current]
    while current != end:
        closer = dist[current] - 1
        options = [h for h in down[current] if dist[h] == closer]
        current = options[rng.integers(len(options))] if len(options) > 1 else options[0]
        route.append(current)
    return tuple(map(arr.link_ids.__getitem__, route))


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
    `ValueError` naming a rate or duration that is not a positive, finite
    number, a seed that is not an integer >= 0, or the entry links that
    reach no exit.
    """
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


def travel_time_metrics(vehicles: Sequence[Vehicle], end_time: float) -> TravelMetrics:
    """Average travel time over the vehicles that departed before
    `end_time`, counting unfinished ones up to `end_time`; raises
    `MetricsError` if none did."""
    total = 0.0
    departed = finished = 0
    for v in vehicles:
        if v.depart_s >= end_time:
            continue
        departed += 1
        if v.exit_time is not None:
            total += v.exit_time - v.depart_s
            finished += 1
        else:
            total += end_time - v.depart_s
    if not departed:
        raise MetricsError(f"no vehicle departed before {end_time} s: travel time undefined")
    return TravelMetrics(avg_travel_time_s=total / departed, throughput=finished)


def _trip_problem(net: RoadNetwork, v: Vehicle, seen: set[int]) -> Optional[str]:
    """Why a vehicle read from a flow file cannot run on the network, its
    route aside, or None."""
    origin, destination = net.links.get(v.origin), net.links.get(v.destination)
    if v.id in seen:
        return f"duplicate vehicle id {v.id}"
    if origin is None or origin.kind is not LinkKind.ENTRY:
        return f"origin {v.origin} is not an entry link"
    if destination is None or destination.kind is not LinkKind.EXIT:
        return f"destination {v.destination} is not an exit link"
    if not 0.0 <= v.depart_s < math.inf:
        return f"depart_s {v.depart_s} is not a finite time >= 0"
    return None


def load_flow(path: str, net: RoadNetwork, seed: int = 0) -> list[Vehicle]:
    """Read a flow file: either a vehicle array or a rate spec object.

    Every vehicle needs a unique integer id, an entry link as origin, an exit
    link it can reach as destination and a finite `depart_s` >= 0, and a rate
    spec a positive, finite rate and duration; anything else raises a
    `LoadError` naming the entry, the first in file order.
    Routes are shortest by hop count, from one `hop_distances` search over
    every destination, ties drawn from one seeded stream in file order.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read flow file {path}: {exc}") from exc
    if isinstance(doc, dict):
        name = "flow rate spec"
        rate, duration = _finite(doc, "rate_vps", name), _finite(doc, "duration_s", name)
        seed = _value(doc, "seed", name, _integer, seed)
        try:
            return generate_uniform_flow(net, rate, duration, seed)
        except ValueError as exc:
            raise LoadError(f"{name}: {exc}") from None
    if not isinstance(doc, list):
        raise LoadError(f"flow file {path} must hold a vehicle array or a rate spec object, got {doc!r}")
    seen: set[int] = set()
    vehicles: list[Vehicle] = []  # vehicle k is entry k
    problem = None
    try:
        for entry in doc:
            name = f"bad flow entry {entry!r}"
            if not isinstance(entry, dict):
                raise LoadError(f"{name}: expected an object")
            v = Vehicle(
                id=_value(entry, "id", name, _integer),
                origin=_value(entry, "origin", name, _integer),
                depart_s=_value(entry, "depart_s", name, _number),
                destination=_value(entry, "destination", name, _integer),
            )
            why = _trip_problem(net, v, seen)
            if why is not None:
                raise LoadError(f"{name}: {why}")
            seen.add(v.id)
            vehicles.append(v)
    except LoadError as exc:
        # an unroutable vehicle before this entry is the first problem
        problem = exc
    arr = movement_arrays(net)
    row = arr.link_index
    destinations = sorted({v.destination for v in vehicles})
    dist = dict(zip(destinations, hop_distances(arr.up_links, [row[d] for d in destinations])))
    for entry, v in zip(doc, vehicles):
        if dist[v.destination][row[v.origin]] < 0:
            raise LoadError(f"bad flow entry {entry!r}: no route from link {v.origin} to link {v.destination}")
    if problem is not None:
        raise problem
    rng = _seeded_rng(seed, 0x72E5)
    for v in vehicles:
        v.route = _walk_route(net, v.origin, v.destination, dist[v.destination], rng)
    return vehicles


def save_flow(vehicles: Sequence[Vehicle], path: str) -> None:
    doc = [
        {"id": v.id, "origin": v.origin, "depart_s": v.depart_s, "destination": v.destination}
        for v in vehicles
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
