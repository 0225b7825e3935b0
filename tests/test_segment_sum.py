"""The gather-table segment sum against `np.add.at`, bit for bit.

`segment_sum` is the package's one scatter-add kernel. It must add every
target's sources in the order `np.add.at` does, from 0.0, so the property
test compares the raw bytes: equal values and equal signs of zero. The
call-site tests hold each per-period caller to its `np.add.at` reference in
`oracle` on grids from 1x1 to 5x5 and on the non-grid roadnet.
"""
import ast
import re
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from conftest import random_macro_state, random_turning
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
    segment_sum,
    validate,
)
from netsignal.prediction import period_model
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
    """`segment_sum` through a table built from `targets`, and `np.add.at`."""
    n = len(targets)
    table = gather_table(np.arange(n), targets, n_targets, n)
    padded = np.concatenate((values, np.zeros((1,) + values.shape[1:])))
    want = np.zeros((n_targets,) + values.shape[1:])
    np.add.at(want, targets, values)
    return segment_sum(padded, table), want


@st.composite
def cases(draw):
    n_targets = draw(st.integers(1, 5))
    targets = draw(st.lists(st.integers(0, n_targets - 1), max_size=40))
    tail = draw(st.sampled_from([(), (4,), (4, 4)]))
    values = draw(arrays(np.float64, (len(targets),) + tail, elements=FLOATS))
    return np.array(targets, dtype=np.intp), n_targets, values


@settings(max_examples=300, deadline=None)
@given(cases())
# no sources at all
@example((np.zeros(0, dtype=np.intp), 3, np.zeros((0, 4))))
# one target with 16 sources, one value each: numpy would sum the lone
# column pairwise if the kernel reduced it as it reduces wider arrays
@example((np.zeros(16, dtype=np.intp), 1, LONE_COLUMN))
# targets 1 and 3 get nothing; -0.0 sums to +0.0 from the 0.0 start
@example((np.array([0, 2, 2, 0], dtype=np.intp), 4, np.array([-0.0, -0.0, 1.5, -0.0])))
def test_segment_sum_equals_add_at(case):
    got, want = scatter(*case)
    assert got.shape == want.shape
    assert (got == want).all()
    assert got.tobytes() == want.tobytes()


def test_lone_column_example_tells_the_orders_apart():
    assert np.add.reduce(LONE_COLUMN) == 6.0
    assert scatter(np.zeros(16, dtype=np.intp), 1, LONE_COLUMN)[1][0] == 0.0


def test_gather_table_lists_sources_in_order_and_pads():
    table = gather_table([5, 6, 7, 8], [2, 0, 2, 2], 4, pad=9)
    assert table.tolist() == [[6, 9, 5, 9], [9, 9, 7, 9], [9, 9, 8, 9]]
    assert gather_table([], [], 3, pad=0).shape == (0, 3)


def networks(tmp_path_factory):
    yield from (build_grid(rows, cols) for rows in range(1, 6) for cols in range(1, 6))
    yield load_network(write_roadnet(tmp_path_factory.mktemp("roadnet") / "roadnet.json"))


def test_call_sites_equal_their_add_at_references(tmp_path_factory):
    rng = np.random.default_rng(11)
    padded = []
    for net in networks(tmp_path_factory):
        arr = movement_arrays(net)
        pads = arr.edge_table % (arr.n_mov + 1) == arr.n_mov
        cells = pads.reshape(len(pads), len(arr.edges), NUM_PHASES**2)
        padded += [arr.edges[e] for e in np.flatnonzero(cells.any(axis=(0, 2)))]
        for _ in range(3):
            state = random_macro_state(net, rng)
            turning = random_turning(net, rng)
            model = period_model(net, state, turning)
            drained, release_onto = oracle.period_model_at(net, state, turning)
            assert model.drained.tobytes() == drained.tobytes()
            assert model.release_onto.tobytes() == release_onto.tobytes()

            actions = rng.integers(0, 4, len(model.arrays.agent_ids)).astype(np.intp)
            scores = model.sweep_scores(actions)
            assert scores.tobytes() == oracle.sweep_scores_at(model, actions).T.tobytes()

            cg = build_cg(state, net, turning, model=model)
            edge_costs, individual = oracle.build_cg_at(net, model)
            assert cg.edge_costs.shape == edge_costs.shape
            assert cg.edge_costs.tobytes() == edge_costs.tobytes()
            assert cg.individual.tobytes() == individual.tobytes()

            pressures = phase_pressures(state, net, turning)
            assert pressures.tobytes() == oracle.phase_pressures_at(state, net, turning).tobytes()
    # the non-grid diagonal runs one way, so its table takes unflipped terms
    # only and its gather columns are padded; every grid edge takes six terms
    assert padded == [(10, 50)]


def test_period_model_adds_many_slots_in_table_order():
    # ten entry links turn onto one exit link, whose `to_link_table` column
    # then has ten slots: summed pairwise, as numpy sums a run of 8 or more,
    # their releases would total 1e16 + 8; in table order the ones vanish
    links = [Link(k, LinkKind.ENTRY, None, 0, 100.0) for k in range(10)]
    links.append(Link(10, LinkKind.EXIT, 0, None, 100.0))
    net = RoadNetwork([0], links, [Movement(k, 10, 0, None, 1e17) for k in range(10)])
    assert validate(net) == [] and movement_arrays(net).to_link_table.shape == (10, 11)
    q = np.array([1e16] + [1.0] * 9)
    assert np.add.reduce(q) != sum(q.tolist())
    state, turning = QueueState(0, q), TurningModel(np.ones(10), np.zeros(11))
    model = period_model(net, state, turning)
    release_onto = oracle.period_model_at(net, state, turning)[1]
    assert model.release_onto.tobytes() == release_onto.tobytes()
    assert model.release_onto[10].tolist() == [sum(q.tolist())] * NUM_PHASES


def test_package_has_no_ufunc_at():
    # every scatter-add goes through `segment_sum`'s precomputed tables
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
