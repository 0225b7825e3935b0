"""The package's two scatter-add rules against `np.add.at`, bit for bit.

A sum over a fixed per-movement key is one `np.bincount` in key order, and
a sum whose gather a kernel reuses is `np.add.reduce` from 0.0 over the
leading slot axis of a gather through a precomputed gather table, with a
later axis of length >= 2 inside it. Both must add every target's sources
in the order `np.add.at` does, from 0.0, so the property test compares the
raw bytes: equal values and equal signs of zero. The call-site tests hold
each per-period caller to its `np.add.at` reference in `oracle` on grids
from 1x1 to 5x5, on the non-grid roadnet and on a ring.
"""
import ast
import math
import re
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from conftest import random_macro_state, random_turning, ring
from netsignal.controllers import phase_pressures
from netsignal.coordination import build_cg
from netsignal.network import (
    NUM_PHASES,
    Link,
    LinkKind,
    Movement,
    RoadNetwork,
    build_grid,
    gather_table,
    load_network,
    movement_arrays,
    validate,
)
from netsignal.prediction import PairColumns, period_model
from netsignal.simulation import QueueState, TurningModel
from test_nongrid_roadnet import write_roadnet

# mixed magnitudes make the sum depend on the order of the additions
FLOATS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([-0.0, 0.0, 1.0, 0.1, -1e16, 1e16, 3e-17]),
)

# 6.0 summed pairwise, 0.0 summed in order
LONE_COLUMN = np.array([1e16] + [1.0] * 8 + [-1e16] + [0.0] * 6)


def scatter(targets, n_targets, values):
    """The sums of `values` by target under both rules, and `np.add.at`'s
    last: one `np.bincount` over a flat key that gives each trailing cell
    of each target a bucket of its own, cell-major, as the cost tables key
    their (phase, agent) buckets, and, where each value has 4 or 16 cells,
    `np.add.reduce` from 0.0 over the slot axis of a gather through a table
    built from `targets`, which then has an axis of length 4 inside it."""
    n, tail = len(targets), values.shape[1:]
    table = gather_table(np.arange(n), targets, n_targets, n)
    padded = np.concatenate((values, np.zeros((1,) + tail)))
    gathered = [np.add.reduce(padded.take(table, axis=0), axis=0, initial=0.0)] if tail else []
    cells = math.prod(tail)
    key = np.arange(cells)[:, None] * n_targets + targets
    weights = values.reshape(n, cells).T
    counted = np.bincount(key.reshape(-1), weights=weights.reshape(-1), minlength=cells * n_targets)
    counted = counted.reshape(cells, n_targets).T.reshape((n_targets,) + tail)
    want = np.zeros((n_targets,) + tail)
    np.add.at(want, targets, values)
    return *gathered, counted, want


@st.composite
def cases(draw):
    n_targets = draw(st.integers(1, 5))
    targets = draw(st.lists(st.integers(0, n_targets - 1), max_size=40))
    tail = draw(st.sampled_from([(), (4,), (4, 4)]))
    values = draw(arrays(np.float64, (len(targets),) + tail, elements=FLOATS))
    return np.array(targets, dtype=np.intp), n_targets, values


@settings(max_examples=300)
@given(cases())
# no sources at all
@example((np.zeros(0, dtype=np.intp), 3, np.zeros((0, 4))))
# one target with 16 sources, one value each: numpy sums a lone column
# pairwise, but not the same column in every cell of a (4,) value, since
# the cells then run inside the slots
@example((np.zeros(16, dtype=np.intp), 1, LONE_COLUMN))
@example((np.zeros(16, dtype=np.intp), 1, np.repeat(LONE_COLUMN[:, None], NUM_PHASES, axis=1)))
# targets 1 and 3 get nothing; -0.0 sums to +0.0 from the 0.0 start
@example((np.array([0, 2, 2, 0], dtype=np.intp), 4, np.array([-0.0, -0.0, 1.5, -0.0])))
def test_segment_sum_equals_add_at(case):
    *sums, want = scatter(*case)
    for got in sums:
        assert got.shape == want.shape
        assert (got == want).all()
        assert got.tobytes() == want.tobytes()


def test_lone_column_example_tells_the_orders_apart():
    # the rule of `MovementArrays`: a slot axis reduced with an axis of
    # length >= 2 inside it is added in order, an innermost one pairwise
    assert np.add.reduce(LONE_COLUMN, initial=0.0) == 6.0
    assert scatter(np.zeros(16, dtype=np.intp), 1, LONE_COLUMN)[-1][0] == 0.0
    beside = np.stack((LONE_COLUMN, LONE_COLUMN), axis=1)
    assert np.add.reduce(beside, axis=0, initial=0.0).tolist() == [0.0, 0.0]


def test_gather_table_lists_sources_in_order_and_pads():
    table = gather_table([5, 6, 7, 8], [2, 0, 2, 2], 4, pad=9)
    assert table.tolist() == [[6, 9, 5, 9], [9, 9, 7, 9], [9, 9, 8, 9]]
    assert gather_table([], [], 3, pad=0).shape == (0, 3)


def networks(tmp_path_factory):
    yield from (build_grid(rows, cols) for rows in range(1, 6) for cols in range(1, 6))
    yield load_network(write_roadnet(tmp_path_factory.mktemp("roadnet") / "roadnet.json"))
    yield ring()


def test_call_sites_equal_their_add_at_references(tmp_path_factory):
    rng = np.random.default_rng(11)
    padded = []
    for net in networks(tmp_path_factory):
        arr = movement_arrays(net)
        cols = PairColumns(net)
        pads = np.zeros(0, dtype=np.intp) if cols.pads is None else cols.pads
        assert len(cols.movement) == arr.n_mov + len(pads)
        # the edge block is W = max(E, 2) columns wide, so no slot axis runs
        # innermost: column edge_start + k * W + e is slot k of edge e
        n_edges, width = len(arr.edges), max(len(arr.edges), 2)
        assert cols.width == width
        assert len(cols.movement) - cols.edge_start == cols.slots * width
        assert (cols.flip_start - cols.edge_start) % width == 0
        assert (pads >= cols.edge_start).all()
        padded += [arr.edges[e] for e in np.unique((pads - cols.edge_start) % width) if e < n_edges]
        for _ in range(3):
            state = random_macro_state(net, rng)
            turning = random_turning(net, rng)
            model = period_model(net, state, turning)
            actions = rng.integers(0, 4, len(model.arrays.agent_ids)).astype(np.intp)
            scores = model.sweep_scores(actions)
            assert scores.tobytes() == oracle.sweep_scores_at(net, state, turning, actions).T.tobytes()

            cg = build_cg(state, net, turning, model=model)
            edge_costs, individual = oracle.build_cg_at(net, state, turning)
            assert cg.edge_costs.shape == edge_costs.shape
            assert cg.edge_costs.tobytes() == edge_costs.tobytes()
            assert cg.individual.dtype == individual.dtype
            assert cg.individual.tobytes() == individual.tobytes()

            pressures = phase_pressures(state, net, turning)
            assert pressures.tobytes() == oracle.phase_pressures_at(state, net, turning).tobytes()
    # the non-grid diagonal runs one way, so its edge takes unflipped terms
    # only and its flipped slots are pad columns; every grid edge takes three
    # terms each way, so a grid's only pads are the second columns of a
    # lone edge's block (1x2 and 2x1), which belong to no edge
    assert padded == [(10, 50)]


def chain(n):
    """n intersections in a row, joined both ways, each with 8 exit links
    and an entry link; every input link turns onto every output link, so
    each edge carries 18 to 20 pair terms (from 3 intersections on, some of
    its slots are pads) and each intersection 8 to 10 entry-link terms."""
    links, outs, ins = [], {i: [] for i in range(n)}, {i: [] for i in range(n)}

    def link(kind, start, end):
        links.append(Link(len(links), kind, start, end, 100.0))
        if start is not None:
            outs[start].append(len(links) - 1)
        if end is not None:
            ins[end].append(len(links) - 1)

    for i in range(n - 1):
        link(LinkKind.INTERNAL, i, i + 1)
        link(LinkKind.INTERNAL, i + 1, i)
    for i in range(n):
        link(LinkKind.ENTRY, None, i)
        for _ in range(8):
            link(LinkKind.EXIT, i, None)
    movements = [Movement(l, h, i, None, 2.0) for i in range(n) for l in ins[i] for h in outs[i]]
    return RoadNetwork(range(n), links, movements)


def test_cost_tables_add_many_slots_in_order():
    # A lone edge's slots would run innermost in an unpadded (4, 4, slots, 1)
    # block, where numpy sums 8 or more of them pairwise; the block's pad
    # column keeps them off the innermost axis, so they add in order, as
    # `np.add.at` does. Queues of 1e8 beside ones make the two orders
    # differ. The individual costs are one `np.bincount`, which adds in
    # order however many terms an agent has.
    rng = np.random.default_rng(5)
    pairwise = 0
    for n in (1, 2, 3, 4):
        net = chain(n)
        arr = movement_arrays(net)
        cols = PairColumns(net)
        assert validate(net) == [] and len(arr.edges) == n - 1
        # edge e's terms sit in the columns edge_start + k * max(n - 1, 2) + e
        on_edge = cols.column[:-1][cols.column[:-1] >= cols.edge_start] - cols.edge_start
        assert (np.bincount(on_edge % max(n - 1, 2)) >= 8).all()
        assert (cols.pads is not None) == (n >= 2)
        for _ in range(3):
            q = rng.choice([0.0, 0.1, 1.0, 3.0, 1e8], arr.n_mov)
            state, turning = QueueState(0, q), random_turning(net, rng)
            model = period_model(net, state, turning)
            cg = build_cg(state, net, turning, model=model)
            edge_costs, individual = oracle.build_cg_at(net, state, turning)
            assert cg.edge_costs.tobytes() == edge_costs.tobytes()
            assert cg.individual.tobytes() == individual.tobytes()
            if n == 2:  # the same sums by a reduction of the unpadded block
                start, stop = cols.edge_start, cols.edge_start + cols.slots * cols.width
                block = model.terms[:, :, start : stop : cols.width]
                block = np.ascontiguousarray(block).reshape(NUM_PHASES, NUM_PHASES, cols.slots, 1)
                edges = np.add.reduce(block, axis=2, initial=0.0)
                pairwise += edges.transpose(2, 0, 1).tobytes() != edge_costs.tobytes()
    assert pairwise > 0


def test_period_model_adds_many_slots_in_table_order():
    # ten entry links turn onto the link from intersection 0 to 1, whose
    # `to_link_table` column then has ten slots: summed pairwise, as numpy
    # sums a run of 8 or more, their releases would total 1e16 + 8; in table
    # order the ones vanish, and every cell of the edge's table is the
    # square of that total, since the link's one movement starts empty
    links = [Link(k, LinkKind.ENTRY, None, 0, 100.0) for k in range(10)]
    links += [Link(10, LinkKind.INTERNAL, 0, 1, 100.0), Link(11, LinkKind.EXIT, 1, None, 100.0)]
    movements = [Movement(k, 10, 0, None, 1e17) for k in range(10)] + [Movement(10, 11, 1, None, 1.0)]
    net = RoadNetwork([0, 1], links, movements)
    assert validate(net) == [] and movement_arrays(net).to_link_table.shape == (10, 12)
    q = np.array([1e16] + [1.0] * 9 + [0.0])
    assert np.add.reduce(q[:10]) != sum(q[:10].tolist())
    state, turning = QueueState(0, q), TurningModel(np.ones(11), np.zeros(12))
    cg = build_cg(state, net, turning, model=period_model(net, state, turning))
    edge_costs, individual = oracle.build_cg_at(net, state, turning)
    assert cg.edge_costs.tobytes() == edge_costs.tobytes()
    assert cg.edge_costs.tolist() == [[[sum(q[:10].tolist()) ** 2] * NUM_PHASES] * NUM_PHASES]


def test_package_has_no_ufunc_at():
    # every scatter-add is one `np.bincount` over a fixed key, or a reduction
    # over the slot axis of a gather through a precomputed table where a
    # kernel reuses the gather
    files = sorted((Path(__file__).parent.parent / "src" / "netsignal").rglob("*.py"))
    hits = [
        f"{path.name}:{k}: {line.strip()}"
        for path in files
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\.at\(", line)
    ]
    assert files and hits == []


def test_package_has_one_frontier_search():
    # every hop-distance search goes through `network.hop_distances`, so no
    # other function keeps a frontier
    files = sorted((Path(__file__).parent.parent / "src" / "netsignal").rglob("*.py"))
    searches = set()
    for path in files:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                bound |= {n.arg for n in ast.walk(fn) if isinstance(n, ast.arg)}
                if "frontier" in bound:
                    searches.add(f"{path.stem}.{fn.name}")
    assert searches == {"network.hop_distances"}


def test_package_takes_into_buffers_with_a_mode():
    # Under the default mode="raise" numpy buffers `out`: it allocates a
    # temporary of the buffer's size and copies it over, so every take into
    # a buffer names its mode. Each is also the array's own `take` method:
    # `np.take` first runs numpy's dispatch wrapper, ~1 us a call, which the
    # per-level and per-sweep gathers would pay many times a period.
    files = sorted((Path(__file__).parent.parent / "src" / "netsignal").rglob("*.py"))
    into = {}  # the keywords and owner of every take into a buffer, by file and line
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "take":
                keywords = {k.arg for k in node.keywords}
                if "out" in keywords:
                    owner = node.func.value.id if isinstance(node.func.value, ast.Name) else None
                    into[f"{path.name}:{node.lineno}"] = keywords, owner
    assert into and [at for at, (keywords, _) in into.items() if "mode" not in keywords] == []
    assert [at for at, (_, owner) in into.items() if owner in ("np", "numpy")] == []


def test_per_period_modules_call_no_numpy_wrappers():
    # `np.argmin`, `np.argmax` and the array methods `min`, `max`, `all`,
    # `any` and `sum` each run a Python wrapper in numpy, ~1 us a call. The
    # modules that run every period call the array's own `argmin`/`argmax`
    # and the ufuncs' `reduce` instead.
    root = Path(__file__).parent.parent / "src" / "netsignal"
    hits = []
    for name in ("messaging.py", "improvement.py", "prediction.py", "controllers.py"):
        for node in ast.walk(ast.parse((root / name).read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            by_np = isinstance(owner, ast.Name) and owner.id in ("np", "numpy")
            if attr in ("min", "max", "all", "any", "sum") or (by_np and attr in ("argmin", "argmax")):
                hits.append(f"{name}:{node.lineno}")
    assert hits == []


def test_per_period_slot_sums_reduce_from_zero():
    # every per-period slot sum is `np.add.reduce` from 0.0 (directly or
    # through `messaging`'s `_add_reduce`), which keeps an empty slot axis
    # and -0.0 terms as `np.add.at` has them, and no module accumulates.
    # `simulation`'s integer reduction of route codes sums no slots.
    root = Path(__file__).parent.parent / "src" / "netsignal"

    def is_add(node, name):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "add"
        )

    reduces, accumulates = {}, []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            at = f"{path.name}:{node.lineno}"
            if is_add(node.func, "accumulate"):
                accumulates.append(at)
            by_alias = isinstance(node.func, ast.Name) and node.func.id == "_add_reduce"
            per_period = path.name in ("messaging.py", "prediction.py")
            if per_period and (is_add(node.func, "reduce") or by_alias):
                reduces[at] = {k.arg: ast.unparse(k.value) for k in node.keywords}.get("initial")
    assert accumulates == []
    assert len(reduces) >= 5 and [at for at, initial in reduces.items() if initial != "0.0"] == []
