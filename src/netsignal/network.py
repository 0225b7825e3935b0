"""Road-network topology: links, movements and phases.

The network is a directed-link graph. Entry links feed traffic into boundary
intersections, internal links connect intersections, exit links drain traffic
out. A movement (l, h) is traffic crossing one intersection from input link l
to output link h; phased movements are gated by one of four signal phases,
right turns run unphased every period. `MovementArrays` flattens a network
into index arrays over its movement list once, for every array kernel, and
is the one place a network is validated: every network a kernel reads,
loaded or built in code, passes its rules or raises a `LoadError` naming
each violation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import filterfalse, repeat
from numbers import Integral
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np


class Phase(IntEnum):
    """The four-phase signal scheme: straight/left per axis."""

    WE_STRAIGHT = 0
    WE_LEFT = 1
    SN_STRAIGHT = 2
    SN_LEFT = 3


PHASES: tuple[Phase, ...] = tuple(Phase)
NUM_PHASES = len(PHASES)

DEFAULT_SPEED_MPS = 10.0
DEFAULT_SAT_FLOW = 5.0
DEFAULT_RIGHT_TURN_FLOW = 3.0


class LinkKind(Enum):
    ENTRY = "entry"
    INTERNAL = "internal"
    EXIT = "exit"


class LoadError(ValueError):
    """Raised when a network or flow file cannot be parsed or is invalid;
    `violations` holds one message per rule an invalid network breaks."""

    def __init__(self, message: str, violations: Iterable[str] = ()):
        super().__init__(message)
        self.violations = list(violations)


@dataclass
class Link:
    """A directed road segment.

    Entry links have no start intersection, exit links no end intersection,
    internal links have both.
    """

    id: int
    kind: LinkKind
    start: Optional[int]
    end: Optional[int]
    length_m: float
    speed_mps: float = DEFAULT_SPEED_MPS


@dataclass
class Movement:
    """Traffic crossing `intersection` from input link `frm` to output `to`.

    `phase` is None for right turns, which are served every period.
    `sat_flow` caps vehicles discharged per period when the movement is
    active.
    """

    frm: int
    to: int
    intersection: int
    phase: Optional[Phase]
    sat_flow: float

    @property
    def key(self) -> tuple[int, int]:
        return (self.frm, self.to)


class RoadNetwork:
    """A road network as plain data: intersection ids, links by id, the
    movement list and plotting coordinates. Derived indexes (adjacency,
    movements per link or intersection) live in `MovementArrays`."""

    def __init__(
        self,
        intersections: Iterable[int],
        links: Iterable[Link],
        movements: Iterable[Movement],
        coords: Optional[dict[int, tuple[float, float]]] = None,
    ):
        self.intersections: set[int] = set(intersections)
        self.links: dict[int, Link] = {l.id: l for l in links}
        self.movements: list[Movement] = list(movements)
        self.coords: dict[int, tuple[float, float]] = dict(coords or {})

    def entry_links(self) -> list[int]:
        return [l for l in sorted(self.links) if self.links[l].kind is LinkKind.ENTRY]

    def exit_links(self) -> list[int]:
        return [l for l in sorted(self.links) if self.links[l].kind is LinkKind.EXIT]

    def internal_links(self) -> list[int]:
        return [l for l in sorted(self.links) if self.links[l].kind is LinkKind.INTERNAL]

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (also used for structural equality)."""
        inter = [
            {"id": i, "x": self.coords.get(i, (0.0, 0.0))[0], "y": self.coords.get(i, (0.0, 0.0))[1]}
            for i in sorted(self.intersections)
        ]
        links = []
        for lid in sorted(self.links):
            l = self.links[lid]
            entry = {"id": l.id, "kind": l.kind.value, "length_m": l.length_m, "speed_mps": l.speed_mps}
            if l.start is not None:
                entry["start"] = l.start
            if l.end is not None:
                entry["end"] = l.end
            links.append(entry)
        movements = []
        for m in sorted(self.movements, key=lambda m: m.key):
            entry = {"from": m.frm, "to": m.to, "intersection": m.intersection, "sat_flow": m.sat_flow}
            if m.phase is not None:
                entry["phase"] = int(m.phase)
            movements.append(entry)
        return {"intersections": inter, "links": links, "movements": movements}



class MovementArrays:
    """Static per-network index arrays over the movement list: the one
    derived index of a `RoadNetwork`, and the one place a network is
    validated.

    The constructor reads each link and movement field once, an id that
    names no intersection or link as -1, and checks `validate`'s rules as
    array expressions over what it reads. A network that breaks any raises
    a `LoadError` whose `violations` name each problem.

    Movement m is `net.movements[m]`; link k is `link_ids[k]` (sorted ids),
    agent a is `agent_ids[a]` (sorted ids) and edge e is `edges[e]`, the
    sorted (i < j) endpoint pairs of the internal links, which are the
    neighbouring agents of the coordination graph. Queue, turning and
    demand vectors everywhere in the package use these orders. `link_edge`
    is each link's edge (-1 for none), `link_flipped` whether it runs from
    the higher id, and `link_length` and `link_speed` its fields as floats.
    `up_links` is the (K, links) `gather_table` of the rows whose movements
    lead onto each link, padded with `n_links`, which `hop_distances`
    searches for the hops to an exit; `down_links` lists the rows that
    movements from each link lead to, in movement order, padded the same
    way, for route walks, and `from_link_table` those movements in the same
    slots, padded with `n_mov`, so that `Flow` finds a hop's movement in the
    slot that holds its next row. `quota` is the (4, M) intp table of the
    whole vehicles each movement may release per period under each phase
    of its intersection: `release_cap` (sat_flow floored, at most 2**53)
    where `act` is 1, which for a right turn is every row, and 0 elsewhere;
    `step` reads it flat at `phase * n_mov + m`.

    A sum over a fixed per-movement key is one `np.bincount` in movement
    order, which adds each key's weights one at a time from 0.0 as
    `np.add.at` does: per input link over `mov_from`, and per (agent, phase)
    over `mov_phase_key`, `agent * 4 + phase`, with right turns at
    `agents * 4`, past the last. Gather tables are kept only where a kernel
    reuses its gather: `to_link_table` (K, links), for the planner's release
    gather, and `agent_table` (K, agents), for the sweeps, list the
    movements by output link and by intersection in movement order, padded
    with `n_mov`, the zero row every per-movement input carries after its
    movements. A gather is summed by `np.add.reduce` from 0.0 over a slot
    axis with a later axis of length >= 2 inside it, which numpy adds one
    slot at a time, in order; an innermost slot axis of 8 or more it would
    sum pairwise.

    `prediction.PairColumns`, the planner's pair-term layout, is kept with
    these arrays once a period is modelled.
    """

    def __init__(self, net: RoadNetwork):
        # an id that is no integer cannot be sorted: it is refused alone
        odd = [f"intersection {i!r}" for i in sorted(filterfalse(_is_count, net.intersections), key=repr)]
        odd += [f"link {l!r}" for l in filterfalse(_is_count, net.links)]
        if odd:
            problems = [f"{name}: id must be an integer" for name in odd]
            raise LoadError("invalid network: " + "; ".join(problems), problems)
        movements = net.movements
        self.n_mov = len(movements)
        self.agent_ids = ids = tuple(sorted(net.intersections))
        self.agent_index = agent_index = {a: k for k, a in enumerate(ids)}
        self.link_ids = link_ids = sorted(net.links)
        self.link_index = link_index = {l: k for k, l in enumerate(link_ids)}
        self.n_links, n_agents = len(link_ids), len(ids)

        # every field read once: ids as positions, -1 where they name
        # nothing and -2 for a link end that is None; numbers as floats
        links = [net.links[l] for l in link_ids]
        kind, start, end, length, speed = _fields(links, "kind", "start", "end", "length_m", "speed_mps")
        frm, to, at, phase, sat = _fields(movements, "frm", "to", "intersection", "phase", "sat_flow")
        self.link_kind = _positions(kind, _KINDS)
        ends = {None: -2, **agent_index}
        link_start, link_end = _positions(start, ends), _positions(end, ends)
        self.link_length, self.link_speed, self.sat = _floats(length), _floats(speed), _floats(sat)
        self.keys = list(zip(frm, to))
        self.mov_agent = _positions(at, agent_index)
        self.mov_from, self.mov_to = _positions(frm, link_index), _positions(to, link_index)
        # each movement's phase, -1 for right turns, which run under every
        # phase, and -2 for one that is neither None nor an integer in 0..3
        if not set(map(type, phase)) <= {type(None), Phase, int}:
            phase = [p if p is None or _is_count(p) else -2 for p in phase]
        self.mov_phase = _positions(phase, _PHASES, -2)
        # the agent pair each internal link joins, as low * agents + high,
        # and those pairs each once, in order
        joined = (self.link_kind == _INTERNAL) & (link_start >= 0) & (link_end >= 0)
        low, high = np.sort((link_start[joined], link_end[joined]), axis=0)
        pair = low * n_agents + high
        pairs = np.sort(pair)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        low, high = np.divmod(pairs, max(n_agents, 1))

        problems = self._violations(links, movements, link_start, link_end, low, high)
        if problems:
            raise LoadError("invalid network: " + "; ".join(problems), problems)

        # whole vehicles a movement may release per period, at most 2**53,
        # which no queue reaches, so that any finite sat_flow fits an intp
        self.release_cap = np.minimum(self.sat, 2.0**53).astype(np.intp)
        # `act[x, m]` is movement m's activation under phase x of its
        # intersection, phase-major like every per-period array over phases
        phases = np.arange(NUM_PHASES)[:, None]
        active = (self.mov_phase < 0) | (self.mov_phase == phases)
        self.act = active.astype(float)
        # `quota[x, m]`: the vehicles movement m may release under phase x
        self.quota = np.where(active, self.release_cap, 0)
        self.to_exit = (self.link_kind == _EXIT)[self.mov_to]
        # the turning share of each movement when its link carries no vehicles
        self.uniform_turn = 1.0 / np.bincount(self.mov_from, minlength=self.n_links)[self.mov_from]
        # one edge per neighboring pair; movements queueing on internal links
        # accumulate into their pair's table
        self.edges = tuple((ids[i], ids[j]) for i, j in zip(low.tolist(), high.tolist()))
        self.link_edge = np.full(self.n_links, -1, dtype=np.intp)
        self.link_edge[joined] = np.searchsorted(pairs, pair)
        self.link_flipped = joined & (link_start > link_end)
        # upstream agent controlling releases onto each link (-1 for none)
        self.link_upstream_agent = np.maximum(link_start, -1)
        self.entry_link_mask = self.link_kind == _ENTRY

        key = self.mov_agent * NUM_PHASES + self.mov_phase
        self.mov_phase_key = np.where(self.mov_phase >= 0, key, n_agents * NUM_PHASES)
        self.to_link_table = gather_table(np.arange(self.n_mov), self.mov_to, self.n_links, self.n_mov)
        self.agent_table = gather_table(np.arange(self.n_mov), self.mov_agent, n_agents, self.n_mov)

        self.up_links = gather_table(self.mov_from, self.mov_to, self.n_links, self.n_links)
        self.down_links = gather_table(self.mov_to, self.mov_from, self.n_links, self.n_links)
        self.from_link_table = gather_table(np.arange(self.n_mov), self.mov_from, self.n_links, self.n_mov)

    def _violations(self, links, movements, start, end, low, high) -> list[str]:
        """`validate`'s messages, in the order it documents."""
        ids, agent, phase, sat, n_mov = self.agent_ids, self.mov_agent, self.mov_phase, self.sat, self.n_mov
        # agent ids reach numpy in the planner; link ids never do
        problems = [f"intersection {i}: id is outside the int64 range" for i in ids if not -(2**63) <= i < 2**63]

        entry, leave = self.link_kind == _ENTRY, self.link_kind == _EXIT
        inner, has_start, has_end = self.link_kind == _INTERNAL, start >= 0, end >= 0
        shape = [
            (self.link_kind < 0, "kind must be a LinkKind, got {1.kind!r}"),
            (entry & (start != -2), "entry link must not have a start intersection"),
            (entry & ~has_end, "entry link needs a valid end intersection"),
            (leave & (end != -2), "exit link must not have an end intersection"),
            (leave & ~has_start, "exit link needs a valid start intersection"),
            (inner & ~has_start, "internal link missing valid start intersection"),
            (inner & ~has_end, "internal link missing valid end intersection"),
            (inner & has_start & (start == end), "internal link starts and ends at intersection {1.start}"),
        ]
        length, speed = self.link_length, self.link_speed
        sizes = [
            (~(np.isfinite(length) & (length > 0)), "length must be positive and finite, got {1.length_m!r}"),
            (~(np.isfinite(speed) & (speed > 0)), "speed must be positive and finite, got {1.speed_mps!r}"),
        ]
        problems += _named(sizes + shape, "link {0}: ", lambda k: (self.link_ids[k], links[k]))

        # an unknown link reads the pad after the links: it is not broken,
        # and no end of it meets an agent
        broken = np.append(np.logical_or.reduce([mask for mask, _ in shape]), False)
        starts, ends = np.append(start, -3), np.append(end, -3)
        known = agent >= 0
        # only a movement whose intersection and links all exist is compared
        # with others, by link positions; `alone` keys none
        linked = known & (self.mov_from >= 0) & (self.mov_to >= 0)
        phased = linked & (phase >= 0)
        alone = -1 - np.arange(n_mov)
        group = agent * self.n_links + self.mov_from
        duplicate = _repeats(np.where(linked, self.mov_from * self.n_links + self.mov_to, alone))[1]
        ranked, reused = _repeats(np.where(phased, group * NUM_PHASES + phase, alone))
        rules = [
            (~known, "unknown intersection {0.intersection}"),
            (
                known & ~broken[self.mov_from] & (ends[self.mov_from] != agent),
                "source is not an input link of intersection {0.intersection}",
            ),
            (
                known & ~broken[self.mov_to] & (starts[self.mov_to] != agent),
                "target is not an output link of intersection {0.intersection}",
            ),
            (known & ~(np.isfinite(sat) & (sat >= 0)), "saturation flow must be finite and >= 0, got {0.sat_flow!r}"),
            (duplicate, "duplicate movement"),
            (known & (phase == -2), "phase must be None or an integer in 0..3, got {0.phase!r}"),
            (reused, "phase {1} already used by another movement on link {0.frm}"),
        ]
        # the phase name is read only where the phase is one of the four
        problems += _named(rules, "movement ({0.frm}->{0.to}): ", lambda k: (movements[k], PHASES[phase[k]].name))

        idle = np.bincount(agent[known], minlength=len(ids)) == 0
        problems += [f"intersection {ids[k]}: no movements" for k in np.flatnonzero(idle).tolist()]
        # the phased (agent, link) groups in order, each's phases sorted: a
        # group mixes WE and SN where the axis changes within it
        grouped, axis = np.divmod(ranked[ranked >= 0], NUM_PHASES)
        mixed = grouped[1:][(grouped[1:] == grouped[:-1]) & ((axis[1:] >= 2) != (axis[:-1] >= 2))]
        for g in mixed.tolist():
            m = movements[np.flatnonzero(phased & (group == g))[0]]
            problems.append(
                f"intersection {m.intersection}, link {m.frm}: movements mix WE and SN phases, conflicting turn geometry"
            )

        if len(ids) > 1:
            neighbours = gather_table(np.concatenate((high, low)), np.concatenate((low, high)), len(ids), len(ids))
            unreached = np.flatnonzero(hop_distances(neighbours, [0])[0] < 0).tolist()
            if unreached:
                problems.append(f"intersection graph disconnected, unreachable: {[ids[k] for k in unreached]}")
        return problems


# link kinds as `MovementArrays.link_kind` numbers them, -1 for no `LinkKind`
_ENTRY, _INTERNAL, _EXIT = 0, 1, 2
_KINDS = {LinkKind.ENTRY: _ENTRY, LinkKind.INTERNAL: _INTERNAL, LinkKind.EXIT: _EXIT}
_PHASES = {None: -1, **{p: int(p) for p in PHASES}}


def _fields(items, *names) -> list[tuple]:
    """The attributes `names` of every item, one tuple per name."""
    return list(zip(*map(attrgetter(*names), items))) or [()] * len(names)


def _positions(values, index: dict, missing: int = -1) -> np.ndarray:
    """Each value's position in `index`, `missing` for one it lacks or cannot hash."""
    try:
        return np.fromiter(map(index.get, values, repeat(missing)), dtype=np.intp, count=len(values))
    except TypeError:
        return _positions(list(map(_key, values)), index, missing)


def _floats(values) -> np.ndarray:
    """`values` as floats, NaN for a value that is no number (a string, a
    bool or an int beyond float range), which fails every range check."""
    if set(map(type, values)) <= {float, int}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an int beyond float range
            pass
    return np.array([_number_or_nan(v) for v in values], dtype=float)


def _key(value):
    """`value` as a dict key: itself, or where it does not hash a fresh
    object, which names nothing and equals no other."""
    try:
        hash(value)
    except TypeError:
        return object()
    return value


def _repeats(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`keys` sorted, and a mask of the entries whose key an earlier entry has."""
    order = np.argsort(keys, kind="stable")
    ranked, repeat = keys[order], np.zeros(len(keys), dtype=bool)
    repeat[order[1:]] = ranked[1:] == ranked[:-1]
    return ranked, repeat


def _named(rules, prefix: str, fields) -> list[str]:
    """The messages of `rules`, each a mask over entities and a format,
    entity by entity and rule by rule within each: `prefix` and the format,
    over the `fields(k)` of entity k."""
    flagged = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in rules]))
    return [(prefix + text).format(*fields(k)) for k in flagged.tolist() for mask, text in rules if mask[k]]


def gather_table(sources, targets, n_targets: int, pad: int) -> np.ndarray:
    """The (K, n_targets) gather table that adds `sources[k]` into target
    `targets[k]`: column t lists the sources of t in the order they appear,
    padded with `pad` up to K, the most any target has."""
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    order = np.argsort(targets, kind="stable")
    counts = np.bincount(targets, minlength=n_targets)
    first = np.cumsum(counts) - counts
    rank = np.arange(len(targets)) - first[targets[order]]
    table = np.full((counts.max(initial=0), n_targets), pad, dtype=np.intp)
    table[rank, targets[order]] = sources[order]
    return table


def hop_distances(neighbours: np.ndarray, sources) -> np.ndarray:
    """Hop distance from each of `sources` to every node, as an (S, N)
    int32 array (half the size of intp) with -1 where a node is unreachable.

    `neighbours` is a (K, N) gather table padded with N: column n lists the
    nodes one hop from node n. One frontier search runs for all sources at
    once over the (source, node) cells of a table whose pad column counts
    as reached. A cell that several frontier cells reach joins the next
    frontier once: each candidate writes its own negative tag into the
    cell, and the one whose tag survives is kept, in work proportional to
    the frontier.
    """
    width = neighbours.shape[1] + 1
    sources = np.asarray(sources, dtype=np.intp)
    dist = np.full((len(sources), width), -1, dtype=np.int32)
    dist[:, -1] = 0
    cells = dist.reshape(-1)
    frontier = np.arange(len(sources)) * width + sources
    cells[frontier] = 0
    hops = 0
    while frontier.size:
        hops += 1
        node = frontier % width
        reached = np.take(neighbours, node, axis=1)
        reached += frontier - node
        reached = reached[cells[reached] < 0]
        tags = -2 - np.arange(reached.size, dtype=np.int32)
        cells[reached] = tags
        frontier = reached[cells[reached] == tags]
        cells[frontier] = hops
    return dist[:, :-1]


def movement_arrays(net: RoadNetwork) -> MovementArrays:
    """The network's `MovementArrays`, built on first use and cached on it.

    The cache is never rebuilt, so a network must not be edited after its
    first kernel call: the kernels would go on reading the arrays, and the
    validation, of the network as it stood then.
    """
    cached = getattr(net, "_movement_arrays", None)
    if cached is None:
        cached = MovementArrays(net)
        net._movement_arrays = cached
    return cached


# (row, col) step to the neighbour on each side N, E, S, W = 0..3 of a grid
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def build_grid(
    rows: int, cols: int, h_len: float = 300.0, v_len: float = 300.0, sat_flow: float = DEFAULT_SAT_FLOW
) -> RoadNetwork:
    """Build a rows x cols grid of bi-directional 4-way intersections.

    Intersection r * cols + c sits at (c * h_len, r * v_len). Its sides are
    numbered N, E, S, W = 0..3, north facing row r + 1 and east column c + 1.
    Traffic approaching from side d leaves straight on side d + 2, left on
    d + 1 and right on d + 3 (mod 4). Even sides are the SN axis: their links
    are `v_len` long and their straight and left turns run under the SN
    phases. Sides without a neighbour get an entry and an exit stub, so every
    intersection keeps all 12 movements. Links run at `DEFAULT_SPEED_MPS`
    and right turns discharge `DEFAULT_RIGHT_TURN_FLOW`.
    """
    if not (_is_count(rows) and _is_count(cols) and rows >= 1 and cols >= 1):
        raise ValueError(f"grid dimensions must be integers >= 1, got {rows!r}x{cols!r}")
    if not (0 < _number_or_nan(h_len) < math.inf and 0 < _number_or_nan(v_len) < math.inf):
        raise ValueError(f"link lengths must be positive and finite, got {h_len!r} and {v_len!r}")
    if not 0 <= _number_or_nan(sat_flow) < math.inf:
        raise ValueError(f"sat_flow must be finite and >= 0, got {sat_flow!r}")

    # (intersection, side, neighbour or None), row-major
    sides = [
        (r * cols + c, d, (r + dr) * cols + c + dc if 0 <= r + dr < rows and 0 <= c + dc < cols else None)
        for r in range(rows)
        for c in range(cols)
        for d, (dr, dc) in enumerate(_STEPS)
    ]
    length, links, movements = (v_len, h_len), [], []
    # the input and output link on side d of intersection i, at 4 * i + d
    inp, out = [0] * len(sides), [0] * len(sides)
    for i, d, j in sides:  # internal links, numbered from their start side
        if j is not None:
            out[4 * i + d] = inp[4 * j + (d + 2) % 4] = len(links)
            links.append(Link(len(links), LinkKind.INTERNAL, i, j, length[d % 2]))
    for i, d, j in sides:  # entry and exit stubs on sides without a neighbour
        if j is None:
            inp[4 * i + d], out[4 * i + d] = len(links), len(links) + 1
            links.append(Link(len(links), LinkKind.ENTRY, None, i, length[d % 2]))
            links.append(Link(len(links), LinkKind.EXIT, i, None, length[d % 2]))
    for i, d, _ in sides:
        at, straight = 4 * i, Phase.SN_STRAIGHT if d % 2 == 0 else Phase.WE_STRAIGHT
        movements.append(Movement(inp[at + d], out[at + (d + 2) % 4], i, straight, sat_flow))
        movements.append(Movement(inp[at + d], out[at + (d + 1) % 4], i, PHASES[straight + 1], sat_flow))
        movements.append(Movement(inp[at + d], out[at + (d + 3) % 4], i, None, DEFAULT_RIGHT_TURN_FLOW))
    coords = {r * cols + c: (c * h_len, r * v_len) for r in range(rows) for c in range(cols)}
    return RoadNetwork(range(rows * cols), links, movements, coords)


def validate(net: RoadNetwork) -> list[str]:
    """One message per rule `net` breaks, [] for none: the `violations` of
    the `LoadError` that `MovementArrays`, the one gate, raises on it.

    Ids are integers, intersection ids fit int64, each intersection has a
    movement, and the internal links connect them all. Links have a
    `LinkKind` and a positive, finite length and speed; an entry link has
    only an end intersection, an exit link only a start, an internal link
    two distinct ones. A movement sits at an intersection, leads from one
    of its input links to one of its outputs, has a finite saturation flow
    >= 0 and a phase that is None or an integer in 0..3, shares its (from,
    to) pair with no other movement and its phase with no other from its
    link, and the phases from one link are all WE or all SN. A movement at
    an unknown intersection is named for that alone, and none is named for
    a link already named as broken, so a single bad link yields a single
    violation rather than a cascade. Movements are compared with each other
    only where their intersection, source and target all exist.

    An id that is no integer is named alone, intersections by `repr` first.
    Else the messages come in this order: intersection ids, each link's in
    id order, each movement's in list order, intersections without
    movements, links whose phases mix axes, and the connectivity.
    """
    try:
        MovementArrays(net)
    except LoadError as exc:
        return exc.violations
    return []


def _entries(doc: dict, section: str) -> list[dict]:
    """The entries of one roadnet section, each checked to be an object."""
    try:
        entries = doc[section]
    except KeyError as exc:
        raise LoadError(f"roadnet document missing section: {exc}") from exc
    if not isinstance(entries, list):
        raise LoadError(f"roadnet section {section!r} must be a list")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise LoadError(f"{section}[{k}]: expected an object, got {json.dumps(entry, default=repr)}")
    return entries


def _value(entry: dict, key: str, name: str, cast, default=None):
    """`cast` of a required field, or of an optional one if `default` is given."""
    if key not in entry and default is None:
        raise LoadError(f"{name}: missing {key}")
    value = entry.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise LoadError(f"{name}: invalid {key} {value!r}") from None


def _integer(value) -> int:
    """`value` as an id; a fraction or a bool is no id."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(value)
    return int(value)


def _is_count(value) -> bool:
    """Whether `value` has an integer type, as a count must; a bool has none."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def _number(value) -> float:
    """`value` as a number; a string or a bool is no number."""
    if isinstance(value, (str, bool)):
        raise TypeError(value)
    return float(value)


def _number_or_nan(value) -> float:
    """`value` as a number, or NaN, which fails every range check, where it
    is no number."""
    try:
        return _number(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _finite(entry: dict, key: str, name: str, default=None) -> float:
    value = _value(entry, key, name, _number, default)
    if not math.isfinite(value):
        raise LoadError(f"{name}: {key} must be finite, got {value}")
    return value


def _optional_id(entry: dict, key: str, name: str) -> Optional[int]:
    return None if entry.get(key) is None else _value(entry, key, name, _integer)


def network_from_dict(doc: dict) -> RoadNetwork:
    """Parse a roadnet document; raise LoadError naming the first bad entry.

    Sections are lists of objects, ids unique integers, kinds `LinkKind`
    names and coordinates finite, and every link has a `length_m`. Lengths,
    speeds, saturation flows and phases pass on as given, with defaults
    where absent, for `MovementArrays` to judge.
    """
    if not isinstance(doc, dict):
        raise LoadError(f"roadnet document must be an object, got {json.dumps(doc, default=repr)}")
    inter_docs = _entries(doc, "intersections")
    link_docs = _entries(doc, "links")
    movement_docs = _entries(doc, "movements")

    coords = {}
    for k, d in enumerate(inter_docs):
        iid = _value(d, "id", f"intersections[{k}]", _integer)
        name = f"intersection {iid}"
        if iid in coords:
            raise LoadError(f"{name}: duplicate intersection id")
        coords[iid] = (_finite(d, "x", name, 0.0), _finite(d, "y", name, 0.0))

    links = {}
    for k, d in enumerate(link_docs):
        lid = _value(d, "id", f"links[{k}]", _integer)
        name = f"link {lid}"
        if lid in links:
            raise LoadError(f"{name}: duplicate link id")
        try:
            kind = LinkKind(d.get("kind"))
        except ValueError as exc:
            raise LoadError(f"{name}: unknown kind {d.get('kind')!r}") from exc
        if "length_m" not in d:
            raise LoadError(f"{name}: missing length_m")
        start, end = _optional_id(d, "start", name), _optional_id(d, "end", name)
        links[lid] = Link(lid, kind, start, end, d["length_m"], d.get("speed_mps", DEFAULT_SPEED_MPS))

    movements = []
    for k, d in enumerate(movement_docs):
        name = f"movements[{k}]"
        frm, to = _value(d, "from", name, _integer), _value(d, "to", name, _integer)
        name = f"movement ({frm}->{to})"
        at = _value(d, "intersection", name, _integer)
        movements.append(Movement(frm, to, at, d.get("phase"), d.get("sat_flow", DEFAULT_SAT_FLOW)))

    return RoadNetwork(coords, links.values(), movements, coords)


def load_network(path: str) -> RoadNetwork:
    """Load a roadnet JSON file and pass it through `MovementArrays`, the
    validation gate; raise LoadError naming the first parse error, or else
    every violation. The arrays built here are not cached, so a network
    edited after loading is read, and checked again, as it stands at its
    first kernel call."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read roadnet file {path}: {exc}") from exc
    net = network_from_dict(doc)
    try:
        MovementArrays(net)
    except LoadError as exc:
        raise LoadError(f"invalid network in {path}: " + "; ".join(exc.violations), exc.violations) from None
    return net


def save_network(net: RoadNetwork, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(net.to_dict(), fh, indent=1)
