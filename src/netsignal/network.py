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
    vectors everywhere in the package use these orders. `down_link_rows[k]`
    lists the rows of the links that movements from link k lead to, and
    `up_link_rows[k]` those of the links whose movements lead onto it, each
    in movement order; the route search walks them.

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
    - `entry_table` (K, agents): movements from entry links by intersection.
    - `edge_table` (K, edges): movements queueing on an internal link by the
      edge of its two endpoints, the links running from lower to higher id
      first, then the others, each in movement order.
    """

    def __init__(self, net: RoadNetwork):
        movements = net.movements
        self.keys = [m.key for m in movements]
        self.n_mov = len(movements)
        self.agent_ids = sorted(net.intersections)
        agent_index = {a: k for k, a in enumerate(self.agent_ids)}
        self.agent_index = agent_index
        self.mov_agent = np.array([agent_index[m.intersection] for m in movements], dtype=np.intp)
        self.sat = np.array([m.sat_flow for m in movements])
        # whole vehicles a movement may release per period
        self.release_cap = np.array([int(m.sat_flow) for m in movements], dtype=np.intp)

        # each movement's phase, -1 for right turns, which run under every
        # phase; `act` is its activation under each phase of its intersection
        self.mov_phase = np.array(
            [-1 if m.phase is None else int(m.phase) for m in movements], dtype=np.intp
        )
        phases = np.arange(NUM_PHASES)
        self.act = ((self.mov_phase[:, None] < 0) | (self.mov_phase[:, None] == phases)).astype(float)

        link_ids = sorted(net.links)
        link_index = {l: k for k, l in enumerate(link_ids)}
        self.link_ids = link_ids
        self.link_index = link_index
        self.n_links = len(link_ids)
        self.mov_from = np.array([link_index[m.frm] for m in movements], dtype=np.intp)
        self.mov_to = np.array([link_index[m.to] for m in movements], dtype=np.intp)
        from_entry = np.array([net.links[m.frm].kind is LinkKind.ENTRY for m in movements], dtype=bool)
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

        # one edge per neighboring pair, the endpoints of some internal link;
        # movements queueing on internal links accumulate into their pair's
        # table
        ends = [(l.start, l.end) for l in net.links.values() if l.kind is LinkKind.INTERNAL]
        edges = sorted({(min(a, b), max(a, b)) for a, b in ends})
        edge_index = {e: k for k, e in enumerate(edges)}
        mov_edge = np.full(self.n_mov, -1, dtype=np.intp)
        mov_edge_flip = np.zeros(self.n_mov, dtype=bool)
        for k, m in enumerate(movements):
            link = net.links[m.frm]
            if link.kind is not LinkKind.INTERNAL:
                continue
            a, b = link.start, link.end
            mov_edge[k] = edge_index[(a, b) if a < b else (b, a)]
            mov_edge_flip[k] = a > b  # contribution axes are [x_start][x_end]
        self.edges = tuple(edges)
        # whether a movement's edge table holds its contribution transposed,
        # as a column so that it picks whole phase vectors
        self.mov_edge_flip = mov_edge_flip[:, None]

        n_agents, every = len(self.agent_ids), np.arange(self.n_mov)
        phased = np.flatnonzero(self.mov_phase >= 0)
        entry = np.flatnonzero(from_entry)
        internal = np.flatnonzero(mov_edge >= 0)
        on_edges = np.concatenate(
            (internal[~mov_edge_flip[internal]], internal[mov_edge_flip[internal]])
        )
        pad = self.n_mov
        self.from_link_table = gather_table(every, self.mov_from, self.n_links, pad)
        self.to_link_table = gather_table(every, self.mov_to, self.n_links, pad)
        self.agent_table = gather_table(every, self.mov_agent, n_agents, pad)
        phase_slot = self.mov_agent[phased] * NUM_PHASES + self.mov_phase[phased]
        self.phase_table = gather_table(phased, phase_slot, n_agents * NUM_PHASES, pad)
        self.entry_table = gather_table(entry, self.mov_agent[entry], n_agents, pad)
        self.edge_table = gather_table(on_edges, mov_edge[on_edges], len(edges), pad)

        self.down_link_rows: list[list[int]] = [[] for _ in link_ids]
        self.up_link_rows: list[list[int]] = [[] for _ in link_ids]
        for l, h in zip(self.mov_from.tolist(), self.mov_to.tolist()):
            self.down_link_rows[l].append(h)
            self.up_link_rows[h].append(l)


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

    Rows are added one at a time from 0.0, in table order, which is how
    `np.add.at` adds them, so the sums equal its sums bit for bit. Padding
    entries point at a zero row of `padded`; adding it changes no sum.
    """
    gathered = np.take(padded, table, axis=0)
    if gathered.size == len(gathered) > 0:
        # numpy reduces a lone column as one run, which it sums pairwise;
        # an accumulation from a zero row adds its entries in order
        gathered = np.concatenate((np.zeros_like(gathered[:1]), gathered))
        return np.add.accumulate(gathered, axis=0)[-1]
    return np.add.reduce(gathered, axis=0, initial=0.0)


def movement_arrays(net: RoadNetwork) -> MovementArrays:
    """The network's `MovementArrays`, built on first use and cached on it."""
    cached = getattr(net, "_movement_arrays", None)
    if cached is None:
        cached = MovementArrays(net)
        net._movement_arrays = cached
    return cached


# Compass handling for grid construction. Directions are indexed N, E, S, W;
# an approach direction is the side an input link enters from, so traffic
# approaching from W heads E.
_DIRS = ("N", "E", "S", "W")
_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
_LEFT_OF = {"W": "N", "E": "S", "S": "W", "N": "E"}
_RIGHT_OF = {"W": "S", "E": "N", "S": "E", "N": "W"}
_STRAIGHT_PHASE = {"W": Phase.WE_STRAIGHT, "E": Phase.WE_STRAIGHT, "S": Phase.SN_STRAIGHT, "N": Phase.SN_STRAIGHT}
_LEFT_PHASE = {"W": Phase.WE_LEFT, "E": Phase.WE_LEFT, "S": Phase.SN_LEFT, "N": Phase.SN_LEFT}


def build_grid(
    rows: int,
    cols: int,
    h_len: float = 300.0,
    v_len: float = 300.0,
    sat_flow: float = DEFAULT_SAT_FLOW,
) -> RoadNetwork:
    """Build a rows x cols grid of bi-directional 4-way intersections.

    Boundary intersections get entry/exit stubs on approaches without an
    internal neighbor, so every intersection keeps the full 12-movement
    structure (4 approaches x straight/left/right). Links run at
    `DEFAULT_SPEED_MPS` and right turns discharge `DEFAULT_RIGHT_TURN_FLOW`.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    if not (0 < h_len < math.inf and 0 < v_len < math.inf):
        raise ValueError(f"link lengths must be positive and finite, got {h_len} and {v_len}")
    if not 0 <= sat_flow < math.inf:
        raise ValueError(f"sat_flow must be finite and >= 0, got {sat_flow}")

    def iid(r: int, c: int) -> int:
        return r * cols + c

    intersections = [iid(r, c) for r in range(rows) for c in range(cols)]
    coords = {iid(r, c): (c * h_len, r * v_len) for r in range(rows) for c in range(cols)}

    links: list[Link] = []
    # per intersection: direction -> (in_link_id, out_link_id)
    ports: dict[int, dict[str, tuple[int, int]]] = {i: {} for i in intersections}
    next_id = 0

    def neighbor(r: int, c: int, d: str) -> Optional[int]:
        if d == "N" and r + 1 < rows:
            return iid(r + 1, c)
        if d == "S" and r - 1 >= 0:
            return iid(r - 1, c)
        if d == "E" and c + 1 < cols:
            return iid(r, c + 1)
        if d == "W" and c - 1 >= 0:
            return iid(r, c - 1)
        return None

    def length_for(d: str) -> float:
        return v_len if d in ("N", "S") else h_len

    # Internal links: one per ordered adjacent pair, created from the start
    # side so ids are deterministic.
    internal_out: dict[tuple[int, str], int] = {}
    for r in range(rows):
        for c in range(cols):
            i = iid(r, c)
            for d in _DIRS:
                j = neighbor(r, c, d)
                if j is not None:
                    links.append(Link(next_id, LinkKind.INTERNAL, i, j, length_for(d)))
                    internal_out[(i, d)] = next_id
                    next_id += 1
    for r in range(rows):
        for c in range(cols):
            i = iid(r, c)
            for d in _DIRS:
                j = neighbor(r, c, d)
                if j is not None:
                    out_id = internal_out[(i, d)]
                    in_id = internal_out[(j, _OPPOSITE[d])]
                    ports[i][d] = (in_id, out_id)

    # Entry/exit stubs on missing approaches.
    for r in range(rows):
        for c in range(cols):
            i = iid(r, c)
            for d in _DIRS:
                if neighbor(r, c, d) is None:
                    links.append(Link(next_id, LinkKind.ENTRY, None, i, length_for(d)))
                    entry_id = next_id
                    next_id += 1
                    links.append(Link(next_id, LinkKind.EXIT, i, None, length_for(d)))
                    ports[i][d] = (entry_id, next_id)
                    next_id += 1

    movements: list[Movement] = []
    for i in intersections:
        for d in _DIRS:  # approach side
            in_id = ports[i][d][0]
            movements.append(
                Movement(in_id, ports[i][_OPPOSITE[d]][1], i, _STRAIGHT_PHASE[d], sat_flow)
            )
            movements.append(
                Movement(in_id, ports[i][_LEFT_OF[d]][1], i, _LEFT_PHASE[d], sat_flow)
            )
            movements.append(Movement(in_id, ports[i][_RIGHT_OF[d]][1], i, None, DEFAULT_RIGHT_TURN_FLOW))

    return RoadNetwork(intersections, links, movements, coords)


def validate(net: RoadNetwork) -> list[str]:
    """Check all structural invariants; returns one message per violation.

    Movement checks skip links already reported as broken, so a single bad
    link yields a single violation rather than a cascade.
    """
    violations: list[str] = []
    bad_links: set[int] = set()
    for lid, link in net.links.items():
        if not 0 < link.length_m < math.inf:
            violations.append(f"link {lid}: length must be positive and finite, got {link.length_m}")
        if not 0 < link.speed_mps < math.inf:
            violations.append(f"link {lid}: speed must be positive and finite, got {link.speed_mps}")
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
        if not 0 <= m.sat_flow < math.inf:
            violations.append(f"{name}: saturation flow must be finite and >= 0, got {m.sat_flow}")
        if m.key in seen_keys:
            violations.append(f"{name}: duplicate movement")
        seen_keys.add(m.key)
        if m.phase is not None:
            group = axis_groups.setdefault((m.intersection, m.frm), set())
            if m.phase in group:
                violations.append(
                    f"{name}: phase {m.phase.name} already used by another movement on link {m.frm}"
                )
            group.add(m.phase)
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
        adj: dict[int, set[int]] = {i: set() for i in net.intersections}
        for link in net.links.values():
            if link.kind is LinkKind.INTERNAL and link.start in adj and link.end in adj:
                adj[link.start].add(link.end)
                adj[link.end].add(link.start)
        start = min(net.intersections)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(net.intersections):
            missing = sorted(net.intersections - seen)
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


def _finite(entry: dict, key: str, name: str, default=None) -> float:
    value = _value(entry, key, name, float, default)
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
