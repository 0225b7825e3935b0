"""Discrete-period traffic dynamics.

`step` is the micro simulator experiments measure travel time on: it moves
individual vehicles through per-movement FIFO queues and link transit.
`predict_next_queues` is the macro one-step update, propagating expected
(fractional) queue counts: the prediction whose balance the planner's cost
tables add up to exactly.

Per period, an active movement (l, h) discharges up to its saturation flow
from queue (l, h); discharged vehicles either leave through an exit link or
traverse the downstream link and join its queue. In the macro update the
traversal takes one period and arrivals split by turning proportion; in the
micro simulator a vehicle spends ceil(length / (speed * tau)) periods in
transit and follows its own route.

State is arrays in `MovementArrays` order: the queue vector of a state, the
turning shares and the entry demand. `predict_next_queues` and
`estimate_turning` are whole-network numpy passes over them; no function
here loops over the movements or links in Python. `step` works over the
vehicles on the network instead: each waiting vehicle looks its
movement's release quota up in `MovementArrays.quota` and each released
one its transit time in `Flow.mov_delay`, so the new queue count is its
only pass over every movement. Within a period, per-vehicle Python work
is limited to writing the exit times of the vehicles that leave. Once per
run, `Flow` reads every vehicle's fields and looks up the links of each
distinct route object, and `travel_time_metrics` loops over the vehicles.
Both per-period functions refuse a `Flow` built for another network, and
`step` one built at another `tau` than its config's.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Mapping
from itertools import chain, repeat
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from netsignal.network import NUM_PHASES, PHASES, LinkKind, LoadError, Phase, RoadNetwork
from netsignal.network import MovementArrays, hop_distances, movement_arrays
from netsignal.network import _integer, _is_count, _number, _number_or_nan, _value

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


def _ascending(ids: tuple) -> bool:
    """Whether `ids` are sorted and distinct; ids that do not compare or hash are not."""
    try:
        hash(ids)
        return all(a < b for a, b in zip(ids, ids[1:]))
    except TypeError:
        return False


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
            a.setflags(write=False)

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
    """Traversal time of every link in whole periods, at least one and at
    most 2**53, which no horizon reaches, in `MovementArrays.link_ids`
    order."""
    arr = movement_arrays(net)
    with np.errstate(over="ignore"):
        periods = np.ceil(arr.link_length / (arr.link_speed * tau))
    return np.clip(periods, 1, 2.0**53).astype(np.intp)


class Flow:
    """The vehicles of one run, with their routes as one flat hop table.

    Every hop (one movement) of every route has a position in `route_mov`
    (its movement index) and `route_vehicle` (its vehicle's row in
    `vehicles`); a route's hops are consecutive, so the hop after position p
    is p + 1. `departures_by_period` maps a period to the first-hop
    positions of the vehicles departing in it, in flow order. `delay` is
    `link_delay_periods` of the network at the flow's `tau`, and
    `mov_delay[m]` that of movement m's output link, the periods a vehicle
    it releases spends in transit. A route must run from the origin over
    movements of the network to an exit link, the destination, and a
    vehicle must depart at a finite time >= 0 in a finite period.

    Hops are mapped once per distinct route object (equal routes that are
    separate objects once each): a hop from link row l takes the movement
    in the slot of `MovementArrays.from_link_table` where `down_links`
    column l holds the next row. Vehicles take their route's hops.
    """

    def __init__(self, vehicles: Sequence[Vehicle], tau: float, net: RoadNetwork):
        arr = movement_arrays(net)
        self.arrays, self.tau = arr, tau
        self.vehicles: list[Vehicle] = list(vehicles)
        vs, n = self.vehicles, len(self.vehicles)
        if len({v.id for v in vs}) != n:
            raise ValueError("duplicate vehicle ids in flow")
        # the distinct route objects, each taken from one of its vehicles,
        # and each vehicle's among them
        routes = [v.route for v in vs]
        found, distinct = np.unique(np.fromiter(map(id, routes), np.uint64, n), return_inverse=True)
        holder = np.empty(len(found), dtype=np.intp)
        holder[distinct] = np.arange(n)
        unique = [routes[k] for k in holder.tolist()]
        links = np.fromiter(map(len, unique), np.intp, len(unique))
        hops = links[distinct] - 1
        depart = np.fromiter((v.depart_s for v in vs), float, n)
        with np.errstate(over="ignore"):
            period = np.floor(depart / tau)
        why = "needs a route of two or more links, finite depart_s >= 0 and a finite period depart_s / tau"
        _reject(vs, (hops > 0) & (depart >= 0) & np.isfinite(period), why)
        ends = np.fromiter((r[0] == v.origin and r[-1] == v.destination for r, v in zip(routes, vs)), bool, n)
        _reject(vs, ends, "route does not run from the origin to the destination")

        # the distinct routes' links as rows, -1 for an id that names none;
        # every pair of neighbouring rows is a hop but those across two routes
        rows = np.fromiter(map(arr.link_index.get, chain.from_iterable(unique), repeat(-1)), np.intp, links.sum())
        slots = arr.down_links.take(rows[:-1], axis=1) == rows[1:]
        turns = slots.any(axis=0) & (rows[:-1] >= 0)
        start = np.cumsum(links) - links
        turns[start[1:] - 1] = True
        _reject(vs, np.minimum.reduceat(turns, start)[distinct], "route takes a turn that is no movement")
        # now one slot holds each hop's next row: the product finds it
        mov = arr.from_link_table[np.arange(len(slots)) @ slots, rows[:-1]]

        first_hop = np.cumsum(hops) - hops
        spread = np.repeat(start[distinct] - first_hop, hops)
        self.route_mov = mov.take(np.arange(len(spread)) + spread)
        self.route_vehicle = np.repeat(np.arange(n, dtype=np.intp), hops)
        _reject(vs, arr.to_exit[self.route_mov[first_hop + hops - 1]], "destination is not an exit link")

        order = np.argsort(period, kind="stable")
        starts = np.flatnonzero(np.diff(period[order], prepend=-1.0))
        bounds, firsts = [*starts.tolist(), n], first_hop[order]
        self.departures_by_period = {int(period[order[a]]): firsts[a:b] for a, b in zip(bounds, bounds[1:])}
        self.delay = link_delay_periods(net, tau)
        self.mov_delay = self.delay.take(arr.mov_to)


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

    Every active movement discharges min(sat_flow, queue); the volume
    discharged onto each link lands on that link's queues split by the
    turning proportions, and entry links receive their exogenous demand
    instead. One pass over the movement arrays, whose release onto a link
    is one `np.bincount` in movement order; `tests/oracle.py` holds the
    movement-by-movement loop it must equal bit for bit. Raises the
    `ValueError`s of `phase_indices` for a decision that misses an agent or
    gives one a phase outside 0..3.
    """
    arr = movement_arrays(net)
    phase = phase_indices(decision, arr.agent_ids)
    q = state.q
    served = arr.act[phase.take(arr.mov_agent), np.arange(arr.n_mov)] * np.minimum(arr.sat, q)
    released = np.bincount(arr.mov_to, weights=served, minlength=arr.n_links)
    inflow = np.where(arr.entry_link_mask, turning.d, released)
    return QueueState(period=state.period + 1, q=q - served + inflow.take(arr.mov_from) * turning.r)


def _flow_arrays(net: RoadNetwork, flow: Flow) -> MovementArrays:
    """The network's arrays, which `flow` must have been built on; raises
    `ValueError` otherwise."""
    arr = movement_arrays(net)
    if flow.arrays is not arr:
        raise ValueError("flow was built for another network")
    return arr


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

    Apart from the new queue count, the work grows with the vehicles on the
    network, not the movements: each waiting vehicle reads its movement's
    quota from `MovementArrays.quota` and each released one its transit
    time from `Flow.mov_delay`. Raises `ValueError` for a flow built for
    another network or at another `tau` than `cfg`'s.
    """
    arr = _flow_arrays(net, flow)
    if cfg.tau != flow.tau:
        raise ValueError(f"config tau {cfg.tau} differs from the flow's tau {flow.tau}")
    phase = phase_indices(decision, arr.agent_ids)
    t = state.period
    route_mov = flow.route_mov

    # FIFO release: rank each waiting vehicle within its movement's queue
    # by join order, and release the ranks under the movement's quota.
    waiting = state.waiting
    mov = route_mov.take(waiting)
    order = mov.argsort(kind="stable")
    sorted_mov = mov.take(order)
    rank = np.arange(len(order)) - sorted_mov.searchsorted(sorted_mov)
    quota = arr.quota.take(phase.take(arr.mov_agent.take(sorted_mov)) * arr.n_mov + sorted_mov)
    out = rank < quota
    released = waiting.take(order[out])  # by movement, then FIFO
    released_mov = sorted_mov[out]
    stays = np.empty(len(waiting), dtype=bool)
    stays[order] = ~out

    exits = arr.to_exit.take(released_mov)
    exit_s = (t + 1) * cfg.tau
    for row in flow.route_vehicle.take(released[exits]).tolist():
        flow.vehicles[row].exit_time = exit_s
    moving = ~exits
    # Every earlier traversal ends at t + 1 or later and was released
    # before this period's, so `transit` stays in (arrival, release) order
    # for the vehicles due at t + 1.
    transit = np.concatenate((state.transit, released[moving] + 1))
    arrive = np.concatenate((state.arrive, t + flow.mov_delay.take(released_mov[moving])))
    due = arrive <= t + 1

    departing = flow.departures_by_period.get(t, _NONE)
    waiting = np.concatenate((waiting[stays], transit[due], departing))
    q = np.bincount(route_mov.take(waiting), minlength=arr.n_mov).astype(float)
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
    Raises `ValueError` for a flow built for another network.
    """
    arr = _flow_arrays(net, flow)
    counts = state.q + np.bincount(flow.route_mov[state.transit], minlength=arr.n_mov)
    total = np.bincount(arr.mov_from, weights=counts, minlength=arr.n_links)[arr.mov_from]
    r = np.divide(counts, total, out=arr.uniform_turn.copy(), where=total > 0)
    departing = flow.departures_by_period.get(state.period, _NONE)
    entries = np.bincount(arr.mov_from[flow.route_mov[departing]], minlength=arr.n_links)
    return TurningModel(r=r, d=np.where(arr.entry_link_mask, entries, 0.0))


_DRAW_CHUNK = 4096


def _bounded_draws(rng: np.random.Generator):
    """`below(n)`, the draw `rng.integers(n)` would make next, for every
    int n in [1, 2**32), from 32-bit words taken from `rng` in bulk.

    The words are `rng.integers(2**32, size=_DRAW_CHUNK, dtype=np.uint32)`,
    the stream numpy's scalar draws below 2**32 read, and each draw applies
    numpy's rule for them (Lemire's multiply-and-reject): n == 1 reads no
    word; otherwise m = word * n is redrawn while its low 32 bits are below
    2**32 % n, and the draw is m >> 32. `rng` runs up to a chunk ahead of
    the draws, so nothing else may draw from it afterwards.
    """
    refill = lambda: rng.integers(1 << 32, size=_DRAW_CHUNK, dtype=np.uint32).tolist()
    words = chain.from_iterable(iter(refill, None))

    def below(n: int) -> int:
        if n == 1:
            return 0
        m = next(words) * n
        if m & 0xFFFFFFFF < n:
            reject = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < reject:
                m = next(words) * n
        return m >> 32

    return below


class _SetBits(dict):
    """`self[mask]`: the positions of the set bits of the int `mask`, in
    ascending order, made on first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = self[mask] = tuple(j for j in range(mask.bit_length()) if mask >> j & 1)
        return bits


class _Routes:
    """Shortest routes by hop count into the sources of one `hop_distances`
    search, `destinations` (link ids) with `dist` its table, drawing among
    equally short next links with `below` (`_bounded_draws`) in route
    order. Equal routes are one tuple.

    A walk reads its destination's `codes`: per link row, a mask with a bit
    per slot of the network's `down_links` column that is one hop closer.
    They come from one comparison of that table with the destination's
    distances less one, the first time a walk heads there: one byte per
    link on every network whose links lead to at most 8 others, else a
    list of ints.
    """

    def __init__(self, arr: MovementArrays, dist: np.ndarray, destinations: Sequence[int], below):
        self.arr, self.dist, self.below = arr, dist, below
        self.search_row = {d: k for k, d in enumerate(destinations)}
        self.down = arr.down_links.T.tolist()
        slots = len(arr.down_links)
        self.slot_bits = np.array([1 << j for j in range(slots)], dtype=np.uint8 if slots <= 8 else object)[:, None]
        self.set_bits = _SetBits()
        self.codes: dict[int, Sequence[int]] = {}
        self.routes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _codes(self, destination: int) -> Sequence[int]:
        dist = self.dist[self.search_row[destination]]
        # the pad row never matches: distances are -1 (unreachable) or more
        closer = np.append(dist, np.int32(-3))[self.arr.down_links] == dist - 1
        masks = np.add.reduce(closer * self.slot_bits, axis=0, dtype=self.slot_bits.dtype)
        codes = self.codes[destination] = masks.tobytes() if masks.dtype == np.uint8 else masks.tolist()
        return codes

    def walk(self, origin: int, destination: int) -> tuple[int, ...]:
        """The route from link `origin`, which reaches `destination`."""
        codes = self.codes.get(destination)
        if codes is None:
            codes = self._codes(destination)
        down, set_bits, below, link_ids = self.down, self.set_bits, self.below, self.arr.link_ids
        current, end = self.arr.link_index[origin], self.arr.link_index[destination]
        route = [origin]
        while current != end:
            slots = set_bits[codes[current]]
            n = len(slots)
            current = down[current][slots[0] if n == 1 else slots[below(n)]]
            route.append(link_ids[current])
        route = tuple(route)
        return self.routes.setdefault(route, route)


def _vehicle_count(rate: float, duration: float) -> int:
    """Whole vehicles in `duration` seconds at `rate`: the product rounded
    down, or to the nearest integer within a relative 1e-9 of it, since
    0.29 * 100 is 28.999999999999996 in floating point. Raises `ValueError`
    naming the two when their product overflows to infinity."""
    product = rate * duration
    if product == math.inf:
        raise ValueError(f"rate {rate} times duration {duration} is more vehicles than a float can count")
    nearest = round(product)
    return nearest if math.isclose(product, nearest, rel_tol=1e-9) else math.floor(product)


def generate_uniform_flow(
    net: RoadNetwork,
    rate: float,
    duration: float,
    seed: int = 0,
) -> list[Vehicle]:
    """Evenly spaced arrivals over `duration` seconds at `rate` vehicles/s.

    Origins cycle round-robin through a seeded shuffle of the entry links;
    destinations are drawn uniformly over the exit links reachable from the
    origin; routes are shortest by hop count with seeded tie-breaks. The
    shuffle and the draws, a destination and then the route's ties in
    order for each vehicle, are those of `shuffle` and `integers(n)` on one
    seeded `numpy.random.Generator` stream. Raises `ValueError` naming a
    rate or duration that is not a positive, finite number or whose product
    is not finite, a seed that is not an integer >= 0, or the entry links
    that reach no exit, and naming the rate, the duration and the vehicle
    count when the vehicles do not fit in memory.
    """
    rate = _positive_finite(rate, "rate")
    duration = _positive_finite(duration, "duration")
    count = _vehicle_count(rate, duration)
    arr = movement_arrays(net)
    entries = net.entry_links()
    exits = net.exit_links()
    if not entries or not exits:
        raise ValueError("network needs entry and exit links to generate flow")
    row = arr.link_index
    dist = hop_distances(arr.up_links, [row[x] for x in exits])
    reaches = (dist[:, [row[o] for o in entries]] >= 0).T.tolist()
    reachable = {o: [x for x, ok in zip(exits, r) if ok] for o, r in zip(entries, reaches)}
    stranded = [o for o in entries if not reachable[o]]
    if stranded:
        raise ValueError(f"entry links {stranded} reach no exit link")

    rng = _seeded_rng(seed, 0x665F)
    shuffled = list(entries)
    rng.shuffle(shuffled)
    below = _bounded_draws(rng)
    routes = _Routes(arr, dist, exits, below)
    vehicles: list[Vehicle] = []
    try:
        for i in range(count):
            origin = shuffled[i % len(shuffled)]
            targets = reachable[origin]
            destination = targets[below(len(targets))]
            vehicles.append(Vehicle(i, origin, i / rate, destination, routes.walk(origin, destination)))
    except MemoryError:
        # free the vehicles built so far before the message is formatted
        vehicles.clear()
        raise ValueError(f"rate {rate} for duration {duration} is {count} vehicles, more than fit in memory") from None
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
    every destination, with ties drawn in file order and route order as
    `integers(n)` draws of one seeded `numpy.random.Generator` stream.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read flow file {path}: {exc}") from exc
    if isinstance(doc, dict):
        name = "flow rate spec"
        rate, duration = _value(doc, "rate_vps", name, _number), _value(doc, "duration_s", name, _number)
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
    search_row = {d: k for k, d in enumerate(destinations)}
    dist = hop_distances(arr.up_links, [row[d] for d in destinations])
    for entry, v in zip(doc, vehicles):
        if dist[search_row[v.destination], row[v.origin]] < 0:
            raise LoadError(f"bad flow entry {entry!r}: no route from link {v.origin} to link {v.destination}")
    if problem is not None:
        raise problem
    routes = _Routes(arr, dist, destinations, _bounded_draws(_seeded_rng(seed, 0x72E5)))
    for v in vehicles:
        v.route = routes.walk(v.origin, v.destination)
    return vehicles


def save_flow(vehicles: Sequence[Vehicle], path: str) -> None:
    doc = [
        {"id": v.id, "origin": v.origin, "depart_s": v.depart_s, "destination": v.destination}
        for v in vehicles
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
