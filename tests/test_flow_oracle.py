"""The flow generator and flow-file routes against the scalar ones in `oracle`.

`generate_uniform_flow` and `load_flow` draw from 32-bit words taken in
bulk and walk per-destination tables of closer next links; `oracle` draws
one scalar `rng.integers` a time and walks each destination's whole
distance list. Both must give the same vehicles, trip for trip, and the
same errors.

`Flow` maps each distinct route object's hops by array passes;
`oracle.route_table` looks every hop of every vehicle up in a dict. Both
must build the same tables and raise the same errors, naming the same
vehicle.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from netsignal.network import build_grid, load_network, movement_arrays, network_from_dict, validate
from netsignal.simulation import Flow, Vehicle, _DRAW_CHUNK, _bounded_draws, generate_uniform_flow, load_flow, save_flow
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



@pytest.fixture(scope="module")
def nongrid_net(tmp_path_factory):
    return load_network(write_roadnet(tmp_path_factory.mktemp("roadnet") / "roadnet.json"))


def route_forms(route):
    """The same route as another object of each kind `Flow` must accept:
    the object itself, an equal tuple, a list, and float and bool ids equal
    to the link ids."""
    return {
        "same": route,
        "equal": tuple(list(route)),
        "list": list(route),
        "float": tuple(float(l) for l in route),
        "bool": tuple(bool(l) if l in (0, 1) else l for l in route),
    }


def corrupt(v, kind, others):
    """`v` broken one way: each is refused by one of `Flow`'s checks."""
    route = tuple(v.route)
    if kind == "unknown-link":
        v.route = route[:1] + (10**6,) + route[1:]
    elif kind == "unknown-origin":
        v.origin, v.route = 10**6, (10**6,) + route[1:]
    elif kind == "no-movement":
        # no movement leads from a link back onto itself
        v.route = route[:1] + route[:1] + route[1:]
    elif kind == "single-link":
        v.route = route[:1]
    elif kind == "wrong-ends":
        v.origin = route[-1]
    elif kind == "not-an-exit" and len(route) > 1:
        v.route, v.destination = route[:-1], route[-2]
    elif kind == "nan-depart":
        v.depart_s = float("nan")
    elif kind == "negative-depart":
        v.depart_s = -5.0
    elif kind == "huge-depart":
        # a finite time whose period overflows for tau < 1
        v.depart_s = 1e308
    elif kind == "duplicate-id" and others:
        v.id = others[0].id


CORRUPTIONS = (
    "unknown-link", "unknown-origin", "no-movement", "single-link", "wrong-ends", "not-an-exit",
    "nan-depart", "negative-depart", "huge-depart", "duplicate-id",
)


NETS = st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 4)))
TAUS = st.sampled_from([10.0, 3.7, 0.25, 1e4])


def draw_vehicles(data, net, seed, least):
    """`least` to 40 picks of generated trips, so route objects repeat, in
    every route form, departing in clumps and gaps."""
    trips = generate_uniform_flow(net, 1.0, 60.0, seed)
    n = data.draw(st.integers(least, 40))
    picks = data.draw(st.lists(st.sampled_from(trips), min_size=n, max_size=n))
    slots = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    forms = data.draw(st.lists(st.sampled_from(sorted(route_forms(()))), min_size=n, max_size=n))
    return [
        Vehicle(k, t.origin, slot * 7.5, t.destination, route_forms(t.route)[form])
        for k, (t, slot, form) in enumerate(zip(picks, slots, forms))
    ]


def assert_flow_equals_the_oracle(vehicles, tau, net):
    """`Flow` builds the oracle's tables, or raises its error."""
    try:
        route_mov, route_vehicle, departures, mov_delay = oracle.route_table(vehicles, tau, net)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            Flow(vehicles, tau, net)
        assert str(caught.value) == str(exc)
        return False
    flow = Flow(vehicles, tau, net)
    for mine, theirs in ((flow.route_mov, route_mov), (flow.route_vehicle, route_vehicle), (flow.mov_delay, mov_delay)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert type(flow.departures_by_period) is dict
    assert list(flow.departures_by_period) == list(departures)
    assert all(type(p) is int for p in flow.departures_by_period)
    for p, firsts in departures.items():
        assert flow.departures_by_period[p].dtype == firsts.dtype
        assert np.array_equal(flow.departures_by_period[p], firsts)
    return True


@settings(max_examples=120)
@given(shape=NETS, tau=TAUS, seed=st.integers(0, 2**16), data=st.data())
def test_flow_tables_equal_the_oracle(nongrid_net, shape, tau, seed, data):
    net = nongrid_net if shape is None else build_grid(*shape)
    vehicles = draw_vehicles(data, net, seed, 0)
    assert assert_flow_equals_the_oracle(vehicles, tau, net)


def test_a_link_that_is_none_leads_nowhere(nongrid_net):
    # an id that names no link is row -1, and must not read the turns of
    # the last link row, which on this roadnet leads on
    arr = movement_arrays(nongrid_net)
    last = arr.link_ids[-1]
    assert (arr.down_links[:, -1] < arr.n_links).any()
    trip = next(v for v in generate_uniform_flow(nongrid_net, 1.0, 60.0, 0) if last in v.route[:-1])
    route = (10**6,) + trip.route[trip.route.index(last) + 1 :]
    vehicles = [trip, Vehicle(1, 10**6, 0.0, trip.destination, route)]
    assert assert_flow_equals_the_oracle(vehicles, 10.0, nongrid_net) is False
    with pytest.raises(ValueError, match="vehicle 1: route takes a turn that is no movement"):
        Flow(vehicles, 10.0, nongrid_net)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=30)
@given(shape=NETS, tau=TAUS, seed=st.integers(0, 2**16), data=st.data())
def test_flow_errors_equal_the_oracle(nongrid_net, kind, shape, tau, seed, data):
    # corrupted `kind`'s way, and up to two more
    net = nongrid_net if shape is None else build_grid(*shape)
    vehicles = draw_vehicles(data, net, seed, 1)
    for how in (kind, *data.draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2))):
        k = data.draw(st.integers(0, len(vehicles) - 1))
        corrupt(vehicles[k], how, vehicles[:k])
    assert_flow_equals_the_oracle(vehicles, tau, net)
