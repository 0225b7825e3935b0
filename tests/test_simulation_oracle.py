"""The array simulator against the scalar one in `oracle`, exactly.

Both simulators run the same random flow under the same random decisions,
each on its own copy of the vehicles. Every period the queue vector, the
FIFO contents, the transit count, the turning estimate and the exit times
must be equal with `==`, not approximately. The saturation flows cover
every kind of release quota: none, a fraction floored, one larger than
any queue, and right turns that release nothing.
"""
import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from netsignal.network import Phase, build_grid, load_network, movement_arrays
from netsignal.simulation import (
    Flow,
    SimConfig,
    Vehicle,
    estimate_turning,
    initial_state,
    step,
)
from test_nongrid_roadnet import write_roadnet

PERIODS = 64
TAU = 10.0


def random_vehicles(net, rng, n):
    """`n` trips between random entries and reachable exits, departing over
    the first 40 periods; departure times are rounded to 5 s, so several
    vehicles often depart in one period, and are not sorted."""
    entries, exits = net.entry_links(), net.exit_links()
    dist = {x: oracle.route_distances(net, x) for x in exits}
    vehicles = []
    for k in range(n):
        origin = entries[rng.integers(len(entries))]
        reachable = [x for x in exits if origin in dist[x]]
        destination = reachable[rng.integers(len(reachable))]
        depart = float(rng.integers(0, 40 * TAU / 5)) * 5.0
        route = oracle.shortest_route(net, origin, destination, rng)
        vehicles.append(Vehicle(k, origin, depart, destination, route))
    return vehicles


def grid_with_right_turns(rows, cols, h_len, v_len, sat_flow, right_turn):
    """`build_grid` with `right_turn` as the right turns' saturation flow."""
    net = build_grid(rows, cols, h_len, v_len, sat_flow)
    for m in net.movements:
        if m.phase is None:
            m.sat_flow = right_turn
    return net


def assert_same_run(net, vehicles, rng, expect_exits=True):
    """Run both simulators side by side; returns the queue vector each
    period starts from."""
    arr = movement_arrays(net)
    cfg = SimConfig(tau=TAU, horizon=PERIODS)
    mine, theirs = [copy.copy(v) for v in vehicles], [copy.copy(v) for v in vehicles]
    flow, scalar_flow = Flow(mine, TAU, net), oracle.ScalarFlow(theirs, TAU)
    state, ref = initial_state(net), oracle.initial_state(net)
    queues = []
    for _ in range(PERIODS):
        queues.append(state.q)
        turning = estimate_turning(state, net, flow)
        r, d = oracle.estimate_turning(ref, net, scalar_flow)
        assert np.array_equal(turning.r, [r[k] for k in arr.keys])
        assert np.array_equal(turning.d, [d.get(l, 0.0) for l in arr.link_ids])

        decision = {i: Phase(int(rng.integers(4))) for i in net.intersections}
        state = step(state, decision, net, cfg, flow)
        ref = oracle.step(ref, decision, net, cfg, scalar_flow)
        assert state.period == ref.period
        assert np.array_equal(state.q, [ref.q[k] for k in arr.keys])
        assert oracle.fifo_view(state, net, flow) == ref.fifo
        assert len(state.transit) == len(ref.transit)
        assert state.total_queue() == ref.total_queue()
        assert [v.exit_time for v in mine] == [v.exit_time for v in theirs]
    if expect_exits:
        assert any(v.exit_time is not None for v in mine)
    return queues


@settings(max_examples=25)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    h_len=st.sampled_from([90.0, 250.0, 420.0]),
    v_len=st.sampled_from([100.0, 300.0]),
    # 0.0 releases nothing, 2.5 floors to 2 and 1e20 clips to 2**53
    sat_flow=st.sampled_from([0.0, 2.0, 2.5, 3.0, 5.0, 1e20]),
    right_turn=st.sampled_from([0.0, 1.0, 3.0]),
    seed=st.integers(0, 2**16),
)
@example(rows=2, cols=3, h_len=90.0, v_len=100.0, sat_flow=0.0, right_turn=1.0, seed=1)
@example(rows=2, cols=3, h_len=90.0, v_len=100.0, sat_flow=2.5, right_turn=1.0, seed=2)
@example(rows=2, cols=3, h_len=90.0, v_len=100.0, sat_flow=1e20, right_turn=3.0, seed=3)
@example(rows=2, cols=3, h_len=90.0, v_len=100.0, sat_flow=2.0, right_turn=0.0, seed=4)
def test_step_and_turning_equal_the_oracle_on_grids(rows, cols, h_len, v_len, sat_flow, right_turn, seed):
    net = grid_with_right_turns(rows, cols, h_len, v_len, sat_flow, right_turn)
    rng = np.random.default_rng(seed)
    vehicles = random_vehicles(net, rng, int(rng.integers(10, 30 * rows * cols + 20)))
    assert_same_run(net, vehicles, rng, expect_exits=sat_flow >= 1 and right_turn >= 1)


def flooded_run(sat_flow, right_turn):
    """3,000 vehicles on two intersections, checked against the oracle;
    returns the network and the (periods, M) queues each period starts
    from."""
    net = grid_with_right_turns(1, 2, 90.0, 100.0, sat_flow, right_turn)
    rng = np.random.default_rng(0)
    return net, np.array(assert_same_run(net, random_vehicles(net, rng, 3000), rng))


def test_step_equals_the_oracle_when_every_quota_binds():
    net, queues = flooded_run(2.0, 1.0)
    binds = (queues > movement_arrays(net).release_cap).all(axis=1)
    assert binds.sum() >= 5


def test_step_equals_the_oracle_when_quotas_exceed_every_queue():
    # a sat flow of 1e20 clips to 2**53: active movements empty queues
    # of a hundred vehicles and more
    _, queues = flooded_run(1e20, 1e20)
    assert queues.max() > 100


@pytest.mark.parametrize("seed", range(4))
def test_step_and_turning_equal_the_oracle_on_a_diagonal_roadnet(tmp_path, seed):
    net = load_network(write_roadnet(tmp_path / "roadnet.json"))
    rng = np.random.default_rng(seed)
    vehicles = random_vehicles(net, rng, 150)
    assert_same_run(net, vehicles, rng)


def test_states_are_snapshots():
    net = build_grid(3, 3)
    rng = np.random.default_rng(8)
    vehicles = random_vehicles(net, rng, 200)
    flow = Flow(vehicles, TAU, net)
    cfg = SimConfig(tau=TAU, horizon=PERIODS)
    state = initial_state(net)
    kept = []
    for t in range(PERIODS):
        state = step(state, {i: Phase(int(rng.integers(4))) for i in net.intersections}, net, cfg, flow)
        if t % 10 == 5:
            arrays = (state.q, state.waiting, state.transit, state.arrive)
            kept.append((state, state.period, [a.copy() for a in arrays]))
    assert any(len(s.transit) for s, _, _ in kept)
    for s, period, copies in kept:
        assert s.period == period
        for a, before in zip((s.q, s.waiting, s.transit, s.arrive), copies):
            assert not a.flags.writeable
            assert np.array_equal(a, before)
