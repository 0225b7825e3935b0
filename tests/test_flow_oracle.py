"""The flow generator and flow-file routes against the scalar ones in `oracle`.

`generate_uniform_flow` and `load_flow` draw from 32-bit words taken in
bulk and walk per-destination tables of closer next links; `oracle` draws
one scalar `rng.integers` a time and walks each destination's whole
distance list. Both must give the same vehicles, trip for trip, and the
same errors.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from netsignal.network import build_grid, network_from_dict, validate
from netsignal.simulation import _DRAW_CHUNK, _bounded_draws, generate_uniform_flow, load_flow, save_flow
from test_nongrid_roadnet import write_roadnet
from test_simulation import one_way_1x2

# the bounds numpy's rule treats alike or apart: no draw, powers of two,
# small odd bounds, and bounds near 2**31 and 2**32 whose rejection zone
# is a large share of the words
BOUNDS = (1, 2, 3, 16, 80, 2**31 + 1, 3 * 2**30, 2**32 - 1)


@pytest.mark.parametrize("seed", [0, 1, 7919, 2**40 + 3])
def test_bounded_draws_equal_generator_integers(seed):
    # a shuffle first leaves half a 64-bit word buffered in the generator,
    # and the draws run over two refills of the word chunk
    bounds = list(BOUNDS) * 400
    bounds += np.random.default_rng(seed).integers(1, 2**32, size=3000).tolist()
    bounds += np.random.default_rng(seed + 1).integers(1, 40, size=3000).tolist()
    assert len(bounds) > 2 * _DRAW_CHUNK
    reference, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
    expected_order, order = list(range(11)), list(range(11))
    reference.shuffle(expected_order)
    bulk.shuffle(order)
    assert order == expected_order
    below = _bounded_draws(bulk)
    assert [below(n) for n in bounds] == [int(reference.integers(n)) for n in bounds]


def trips(vehicles):
    return [(v.id, v.origin, v.depart_s, v.destination, v.route) for v in vehicles]


def assert_same_flows(net, rate, duration, seed, tmp_path):
    """Both generators agree, and `load_flow` on the flow as a vehicle array
    draws the oracle's routes; returns the vehicles."""
    vehicles = generate_uniform_flow(net, rate, duration, seed)
    assert trips(vehicles) == trips(oracle.generate_uniform_flow(net, rate, duration, seed))
    path = tmp_path / "flow.json"
    save_flow(vehicles, str(path))
    loaded = load_flow(str(path), net, seed=seed + 1)
    assert [v.route for v in loaded] == oracle.flow_file_routes(net, loaded, seed + 1)
    return vehicles


@pytest.mark.parametrize("rows", range(1, 21))
def test_flows_equal_the_oracle_on_grids(tmp_path, rows):
    # square grids 1x1 to 20x20 and a rectangle of each height, at rates
    # whose product with the duration is a whole number of vehicles
    for cols, seed in ((rows, rows), (rows % 7 + 1, 100 + rows)):
        net = build_grid(rows, cols)
        duration = 3200.0 / (rows * cols) + 120.0
        assert_same_flows(net, 1.25, duration, seed, tmp_path)


@pytest.mark.parametrize("seed", range(3))
def test_flows_equal_the_oracle_where_some_exits_are_unreachable(tmp_path, seed):
    vehicles = assert_same_flows(one_way_1x2(), 0.5, 400, seed, tmp_path)
    assert len({v.destination for v in vehicles}) > 1


def fan_network(width):
    """Two intersections joined by `width` parallel internal links, all
    equally short: the entry's one link leads to `width` others, so ties
    need more than a byte of closer-link bits per link."""
    doc = {
        "intersections": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 300.0, "y": 0.0}],
        "links": [{"id": 0, "kind": "entry", "end": 0, "length_m": 300.0, "speed_mps": 10.0}],
        "movements": [],
    }
    for k in range(width):
        doc["links"].append({"id": 10 + k, "kind": "internal", "start": 0, "end": 1, "length_m": 300.0, "speed_mps": 10.0})
        doc["links"].append({"id": 100 + k, "kind": "exit", "start": 1, "length_m": 300.0, "speed_mps": 10.0})
        doc["movements"].append({"from": 0, "to": 10 + k, "intersection": 0, "sat_flow": 2.0})
    for k in range(width):
        for x in (0, 1):
            exit_link = 100 + (k + x) % width
            doc["movements"].append({"from": 10 + k, "to": exit_link, "intersection": 1, "sat_flow": 2.0})
    return network_from_dict(doc)


@pytest.mark.parametrize("width", [3, 8, 9, 17, 70])
def test_flows_equal_the_oracle_where_a_link_leads_to_many(tmp_path, width):
    net = fan_network(width)
    assert validate(net) == []
    vehicles = assert_same_flows(net, 2.0, 200, width, tmp_path)
    assert len({v.route[1] for v in vehicles}) == width


def nongrid_doc(tmp_path):
    return json.loads(Path(write_roadnet(tmp_path / "roadnet.json")).read_text())


@settings(max_examples=40)
@given(
    dropped=st.sets(st.integers(0, 10**6), max_size=40),
    rate=st.integers(1, 24).map(lambda k: k / 8),
    duration=st.integers(10, 600),
    seed=st.integers(0, 2**16),
)
def test_flows_equal_the_oracle_on_nongrid_roadnets(tmp_path_factory, dropped, rate, duration, seed):
    # the diagonal roadnet less some movements: exits go unreachable, and
    # entries that reach none must be named alike
    doc = nongrid_doc(tmp_path_factory.mktemp("roadnet"))
    movements = doc["movements"]
    doc["movements"] = [m for k, m in enumerate(movements) if k not in {d % len(movements) for d in dropped}]
    net = network_from_dict(doc)
    assume(validate(net) == [])
    try:
        expected = oracle.generate_uniform_flow(net, rate, duration, seed)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            generate_uniform_flow(net, rate, duration, seed)
        assert str(caught.value) == str(exc)
        return
    vehicles = generate_uniform_flow(net, rate, duration, seed)
    assert trips(vehicles) == trips(expected)
    path = tmp_path_factory.mktemp("flow") / "flow.json"
    save_flow(vehicles, str(path))
    loaded = load_flow(str(path), net, seed=seed)
    assert [v.route for v in loaded] == oracle.flow_file_routes(net, loaded, seed)

