"""Road-network topology: links, movements and phases.

The network is a directed-link graph. Entry links feed traffic into boundary
intersections, internal links connect intersections, exit links drain traffic
out. A movement (l, h) is traffic crossing one intersection from input link l
to output link h; phased movements are gated by one of four signal phases,
right turns run unphased every period. `MovementArrays` flattens a network
into index arrays over its movement list once, for every array kernel.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from numbers import Integral
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
    """Raised when a network or flow file cannot be parsed or is invalid."""


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
    derived index of a `RoadNetwork`.

    Movement m is `net.movements[m]`; link k is `link_ids[k]` (sorted ids),
    agent a is `agent_ids[a]` (sorted ids) and edge e is `edges[e]`, the
    sorted (i < j) endpoint pairs of the internal links, which are the
    neighbouring agents of the coordination graph. Queue, turning and demand
    vectors everywhere in the package use these orders. `up_links` is the
    (K, links) `gather_table` of the rows whose movements lead onto each
    link, padded with `n_links`, which `hop_distances` searches for the hops
    to an exit; `down_links` lists the rows that movements from each link
    lead to, in movement order, padded the same way, for route walks.

    The `*_table` fields are gather tables for `segment_sum`: column t lists
    the movements that add into target t, in the order they are added, padded
    with `n_mov`, the zero row every per-movement input carries after its
    movements. They are built once here, so each per-period scatter-add is
    one gather and one reduction:

    - `from_link_table` (K, links): movements by input link, in movement order.
    - `to_link_table` (K, links): movements by output link, in movement order.
    - `agent_table` (K, agents): movements by intersection, in movement order.
    - `phase_table` (K, agents * 4): phased movements by (agent, phase) at
      `agent * 4 + phase`, in movement order; right turns are in no column.

    `prediction.PairColumns`, the planner's pair-term layout, is kept with
    these arrays once a period is modelled.
    """

    def __init__(self, net: RoadNetwork):
        movements = net.movements
        self.keys = [m.key for m in movements]
        self.n_mov = len(movements)
        self.agent_ids = tuple(sorted(net.intersections))
        agent_index = {a: k for k, a in enumerate(self.agent_ids)}
        self.agent_index = agent_index
        self.mov_agent = np.array([agent_index[m.intersection] for m in movements], dtype=np.intp)
        self.sat = np.array([m.sat_flow for m in movements], dtype=float)
        # whole vehicles a movement may release per period, at most 2**53,
        # which no queue reaches, so that any finite sat_flow fits an intp
        self.release_cap = np.minimum(self.sat, 2.0**53).astype(np.intp)

        # each movement's phase, -1 for right turns, which run under every
        # phase; `act[x, m]` is movement m's activation under phase x of its
        # intersection, phase-major like every per-period array over phases.
        # A phase of another type than `Phase` must still be one of the four.
        phase_of = [m.phase for m in movements]
        if not set(map(type, phase_of)) <= {type(None), Phase}:
            problem = next(filter(None, map(_bad_phase, movements)), None)
            if problem is not None:
                raise ValueError(problem)
        self.mov_phase = np.array([-1 if p is None else int(p) for p in phase_of], dtype=np.intp)
        phases = np.arange(NUM_PHASES)[:, None]
        self.act = ((self.mov_phase < 0) | (self.mov_phase == phases)).astype(float)

        link_ids = sorted(net.links)
        link_index = {l: k for k, l in enumerate(link_ids)}
        self.link_ids = link_ids
        self.link_index = link_index
        self.n_links = len(link_ids)
        self.mov_from = np.array([link_index[m.frm] for m in movements], dtype=np.intp)
        self.mov_to = np.array([link_index[m.to] for m in movements], dtype=np.intp)
        self.to_exit = np.array([net.links[m.to].kind is LinkKind.EXIT for m in movements], dtype=bool)
        # the turning share of each movement when its link carries no vehicles
        self.uniform_turn = 1.0 / np.bincount(self.mov_from, minlength=self.n_links)[self.mov_from]
        # upstream agent controlling releases onto each link (-1 for none)
        self.link_upstream_agent = np.full(self.n_links, -1, dtype=np.intp)
        self.entry_link_mask = np.zeros(self.n_links, dtype=bool)
        for l, link in net.links.items():
            if link.start is not None:
                self.link_upstream_agent[link_index[l]] = agent_index[link.start]
            if link.kind is LinkKind.ENTRY:
                self.entry_link_mask[link_index[l]] = True
        self.fed_link_mask = self.link_upstream_agent >= 0

        # one edge per neighboring pair, the endpoints of some internal link;
        # movements queueing on internal links accumulate into their pair's
        # table
        ends = [(l.id, l.start, l.end) for l in net.links.values() if l.kind is LinkKind.INTERNAL]
        for lid, a, b in ends:
            if a == b:
                raise ValueError(_self_loop(lid, a))
        self.edges = tuple(sorted({(min(a, b), max(a, b)) for _, a, b in ends}))

        n_agents, every = len(self.agent_ids), np.arange(self.n_mov)
        phased = np.flatnonzero(self.mov_phase >= 0)
        pad = self.n_mov
        self.from_link_table = gather_table(every, self.mov_from, self.n_links, pad)
        self.to_link_table = gather_table(every, self.mov_to, self.n_links, pad)
        self.agent_table = gather_table(every, self.mov_agent, n_agents, pad)
        phase_slot = self.mov_agent[phased] * NUM_PHASES + self.mov_phase[phased]
        self.phase_table = gather_table(phased, phase_slot, n_agents * NUM_PHASES, pad)

        self.up_links = gather_table(self.mov_from, self.mov_to, self.n_links, self.n_links)
        self.down_links = gather_table(self.mov_to, self.mov_from, self.n_links, self.n_links)


def _self_loop(lid: int, intersection: int) -> str:
    """How `validate` and `MovementArrays` name a link that is a loop."""
    return f"link {lid}: internal link starts and ends at intersection {intersection}"


def _bad_phase(m: Movement) -> Optional[str]:
    """How `validate` and `MovementArrays` name a movement whose phase is
    neither None nor an integer in 0..3; None for any other."""
    if m.phase is None or (_is_count(m.phase) and 0 <= m.phase < NUM_PHASES):
        return None
    return f"movement ({m.frm}->{m.to}): phase must be None or an integer in 0..3, got {m.phase!r}"


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


def segment_sum(padded: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per column of a gather table, the sum of the rows of `padded` it lists.

    Rows are added one at a time from 0.0, in table order (`slot_sum`),
    which is how `np.add.at` adds them, so the sums equal its sums bit for
    bit. Padding entries point at a zero row of `padded`; adding it changes
    no sum. Tables index `padded` within its rows, so clipping the indices
    changes none of them.
    """
    return slot_sum(padded.take(table, axis=0, mode="clip"))


def slot_sum(gathered: np.ndarray, axis: int = 0) -> np.ndarray:
    """The sum of `gathered` over its slot axis `axis`, adding the slots one
    at a time from 0.0 in order.

    numpy adds a reduced axis in order while an axis of smaller stride runs
    inside it, but it sums the axis pairwise once the axis runs innermost
    and holds 8 or more slots. In the C-ordered gathers and views summed
    here, the slot axis runs innermost when its stride is the element size,
    that is when every later axis has length 1. There an accumulation from a
    zero slot adds the slots in order.
    """
    if gathered.strides[axis] == gathered.itemsize and gathered.shape[axis]:
        zero = np.zeros_like(gathered.take([0], axis=axis))
        running = np.add.accumulate(np.concatenate((zero, gathered), axis=axis), axis=axis)
        return running.take(-1, axis=axis)
    return np.add.reduce(gathered, axis=axis, initial=0.0)


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
    """The network's `MovementArrays`, built on first use and cached on it."""
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


# the ids the array kernels can hold; a link id never reaches numpy
_INT64 = np.iinfo(np.int64)


def validate(net: RoadNetwork) -> list[str]:
    """Check all structural invariants; returns one message per violation.

    Movement checks skip links already reported as broken, so a single bad
    link yields a single violation rather than a cascade.
    """
    violations: list[str] = []
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
            if link.end is None or link.end not in net.intersections:
                violations.append(f"link {lid}: entry link needs a valid end intersection")
                bad_links.add(lid)
        elif link.kind is LinkKind.EXIT:
            if link.end is not None:
                violations.append(f"link {lid}: exit link must not have an end intersection")
                bad_links.add(lid)
            if link.start is None or link.start not in net.intersections:
                violations.append(f"link {lid}: exit link needs a valid start intersection")
                bad_links.add(lid)
        else:
            if link.start is None or link.start not in net.intersections:
                violations.append(f"link {lid}: internal link missing valid start intersection")
                bad_links.add(lid)
            if link.end is None or link.end not in net.intersections:
                violations.append(f"link {lid}: internal link missing valid end intersection")
                bad_links.add(lid)
            if lid not in bad_links and link.start == link.end:
                violations.append(_self_loop(lid, link.start))
                bad_links.add(lid)

    seen_keys: set[tuple[int, int]] = set()
    # phases used per (intersection, input link), to catch geometry conflicts
    axis_groups: dict[tuple[int, int], set[Phase]] = {}
    for m in net.movements:
        name = f"movement ({m.frm}->{m.to})"
        if m.intersection not in net.intersections:
            violations.append(f"{name}: unknown intersection {m.intersection}")
            continue
        frm, to = net.links.get(m.frm), net.links.get(m.to)
        if m.frm not in bad_links and (frm is None or frm.end != m.intersection):
            violations.append(f"{name}: source is not an input link of intersection {m.intersection}")
        if m.to not in bad_links and (to is None or to.start != m.intersection):
            violations.append(f"{name}: target is not an output link of intersection {m.intersection}")
        if not 0 <= _number_or_nan(m.sat_flow) < math.inf:
            violations.append(f"{name}: saturation flow must be finite and >= 0, got {m.sat_flow!r}")
        if m.key in seen_keys:
            violations.append(f"{name}: duplicate movement")
        seen_keys.add(m.key)
        if m.phase is None:
            continue
        problem = _bad_phase(m)
        if problem is not None:
            violations.append(problem)
            continue
        phase = Phase(m.phase)
        group = axis_groups.setdefault((m.intersection, m.frm), set())
        if phase in group:
            violations.append(f"{name}: phase {phase.name} already used by another movement on link {m.frm}")
        group.add(phase)
    for i in sorted(net.intersections - {m.intersection for m in net.movements}):
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
        joined = [l for l in net.links.values() if l.kind is LinkKind.INTERNAL and l.start in at and l.end in at]
        a, b = np.array([(at[l.start], at[l.end]) for l in joined], dtype=np.intp).reshape(-1, 2).T
        neighbours = gather_table(np.concatenate((b, a)), np.concatenate((a, b)), len(ids), len(ids))
        reached = hop_distances(neighbours, [0])[0] >= 0
        if not reached.all():
            missing = [i for i, ok in zip(ids, reached.tolist()) if not ok]
            violations.append(f"intersection graph disconnected, unreachable: {missing}")

    return violations


def _parse_phase(value, name: str) -> Optional[Phase]:
    if value is None:
        return None
    try:
        return Phase(_integer(value))
    except (TypeError, ValueError, OverflowError):
        raise LoadError(f"{name}: invalid phase value {value!r}") from None


def _entries(doc: dict, section: str) -> list[dict]:
    """The entries of one roadnet section, each checked to be an object."""
    try:
        entries = doc[section]
    except (KeyError, TypeError) as exc:
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
    return isinstance(value, Integral) and not isinstance(value, bool)


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

    Every field must be present (or have a default) and parse, ids must be
    integers, numbers must be finite, and link and intersection ids must be
    unique.
    """
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
        links[lid] = Link(
            id=lid,
            kind=kind,
            start=_optional_id(d, "start", name),
            end=_optional_id(d, "end", name),
            length_m=_finite(d, "length_m", name),
            speed_mps=_finite(d, "speed_mps", name, DEFAULT_SPEED_MPS),
        )

    movements = []
    for k, d in enumerate(movement_docs):
        name = f"movements[{k}]"
        frm, to = _value(d, "from", name, _integer), _value(d, "to", name, _integer)
        name = f"movement ({frm}->{to})"
        movements.append(
            Movement(
                frm=frm,
                to=to,
                intersection=_value(d, "intersection", name, _integer),
                phase=_parse_phase(d.get("phase"), name),
                sat_flow=_finite(d, "sat_flow", name, DEFAULT_SAT_FLOW),
            )
        )

    return RoadNetwork(coords, links.values(), movements, coords)


def load_network(path: str) -> RoadNetwork:
    """Load and validate a roadnet JSON file; raise LoadError on any problem."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read roadnet file {path}: {exc}") from exc
    net = network_from_dict(doc)
    problems = validate(net)
    if problems:
        raise LoadError(f"invalid network in {path}: " + "; ".join(problems))
    return net


def save_network(net: RoadNetwork, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(net.to_dict(), fh, indent=1)
