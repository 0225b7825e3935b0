from dataclasses import replace

import numpy as np
import pytest

import oracle
from conftest import macro_state_with, mov, random_macro_state, random_turning
from netsignal.controllers import fixed_time, max_pressure, phase_pressures
from netsignal.network import PHASES, LinkKind, Phase, build_grid
from netsignal.simulation import initial_state


def test_fixed_time_first_period():
    out = fixed_time(0, range(4))
    assert out == {i: Phase.WE_STRAIGHT for i in range(4)}


def test_fixed_time_modular_schedule():
    assert fixed_time(5, [0])[0] == Phase.WE_LEFT
    cycle = [fixed_time(t, [0])[0] for t in range(8)]
    assert cycle == list(PHASES) * 2


def test_pressure_exit_link_has_no_downstream():
    net = build_grid(1, 1, sat_flow=5)
    m = next(mm for mm in net.movements if mm.phase == Phase.WE_STRAIGHT)
    assert net.links[m.to].kind is LinkKind.EXIT
    state = macro_state_with(net, {m.key: 4})
    turning = random_turning(net, np.random.default_rng(0))
    assert phase_pressures(state, net, turning)[0, Phase.WE_STRAIGHT] == 20
    assert oracle.phase_pressure(0, Phase.WE_STRAIGHT, state, net, turning) == 20


def test_pressure_balanced_queues_cancel():
    net = build_grid(1, 2, sat_flow=5)
    internal = next(l for l in net.internal_links() if net.links[l].start == 0)
    topo = oracle.topology(net)
    up = next(m for m in topo.movements_at[0] if m.to == internal and m.phase == Phase.WE_STRAIGHT)
    down = topo.movements_from[internal][0]
    state = macro_state_with(net, {up.key: 4, down.key: 4})
    turning = random_turning(net, np.random.default_rng(0))
    turning.r = np.zeros_like(turning.r)
    turning.r[mov(net, down.key)] = 1.0
    assert phase_pressures(state, net, turning)[0, Phase.WE_STRAIGHT] == 0
    assert oracle.phase_pressure(0, Phase.WE_STRAIGHT, state, net, turning) == 0


def test_pressure_hand_computed_sum():
    # straight (q=3, exit) + paired straight from the opposite approach
    # (q=2, downstream 1 with r=0.5), f=5: 5*3 + 5*(2 - 0.5) = 22.5
    net = build_grid(1, 2, sat_flow=5)
    topo = oracle.topology(net)
    moves = [m for m in topo.movements_at[0] if m.phase == Phase.WE_STRAIGHT]
    exit_move = next(m for m in moves if net.links[m.to].kind is LinkKind.EXIT)
    internal_move = next(m for m in moves if net.links[m.to].kind is LinkKind.INTERNAL)
    down = topo.movements_from[internal_move.to][0]
    state = macro_state_with(net, {exit_move.key: 3, internal_move.key: 2, down.key: 1})
    turning = random_turning(net, np.random.default_rng(0))
    turning.r = np.zeros_like(turning.r)
    turning.r[mov(net, down.key)] = 0.5
    assert phase_pressures(state, net, turning)[0, Phase.WE_STRAIGHT] == pytest.approx(22.5)
    assert oracle.phase_pressure(0, Phase.WE_STRAIGHT, state, net, turning) == pytest.approx(22.5)


def test_right_turns_excluded_from_pressure():
    net = build_grid(1, 1)
    right = next(m for m in net.movements if m.phase is None)
    state = macro_state_with(net, {right.key: 9})
    turning = random_turning(net, np.random.default_rng(0))
    pressures = phase_pressures(state, net, turning)
    for p in Phase:
        assert pressures[0, p] == 0
        assert oracle.phase_pressure(0, p, state, net, turning) == 0


def test_max_pressure_all_zero_ties_to_first_phase():
    net = build_grid(2, 2)
    state = initial_state(net)
    turning = random_turning(net, np.random.default_rng(0))
    assert max_pressure(state, net, turning) == {i: Phase(0) for i in net.intersections}


def test_max_pressure_prefers_loaded_phase():
    net = build_grid(1, 1)
    m = next(mm for mm in net.movements if mm.phase == Phase.SN_LEFT)
    state = macro_state_with(net, {m.key: 6})
    turning = random_turning(net, np.random.default_rng(0))
    assert max_pressure(state, net, turning)[0] == Phase.SN_LEFT


def test_max_pressure_matches_enumeration():
    net = build_grid(2, 2)
    rng = np.random.default_rng(12)
    for _ in range(25):
        state = random_macro_state(net, rng)
        turning = random_turning(net, rng)
        decision = max_pressure(state, net, turning)
        for i in net.intersections:
            values = [oracle.phase_pressure(i, p, state, net, turning) for p in Phase]
            assert values[int(decision[i])] == max(values)
            assert int(decision[i]) == int(np.argmax(values))


def test_max_pressure_is_local():
    net = build_grid(1, 3)
    rng = np.random.default_rng(14)
    state = random_macro_state(net, rng)
    turning = random_turning(net, rng)
    base = max_pressure(state, net, turning)[0]
    # queues at agent 2 (two hops away) cannot influence agent 0
    bumped = state.q.copy()
    topo = oracle.topology(net)
    for m in topo.movements_at[2]:
        link_0_links = set(topo.in_links[0]) | set(topo.out_links[0])
        if m.frm not in link_0_links and m.to not in link_0_links:
            bumped[mov(net, m.key)] += 7
    assert max_pressure(replace(state, q=bumped), net, turning)[0] == base


def test_pressure_scale_invariance():
    net = build_grid(2, 2)
    rng = np.random.default_rng(15)
    for _ in range(10):
        state = random_macro_state(net, rng)
        turning = random_turning(net, rng)
        scaled = replace(state, q=3.5 * state.q)
        base = phase_pressures(state, net, turning)
        big = phase_pressures(scaled, net, turning)
        assert np.array_equal(np.argmax(base, axis=1), np.argmax(big, axis=1))


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (4, 5)])
def test_phase_pressures_equal_oracle(rows, cols):
    net = build_grid(rows, cols)
    rng = np.random.default_rng(100 * rows + cols)
    for _ in range(20):
        state = random_macro_state(net, rng)
        fractional = replace(state, q=np.array([v * rng.random() for v in state.q.tolist()]))
        turning = random_turning(net, rng)
        for s in (state, fractional):
            pressures = phase_pressures(s, net, turning)
            assert pressures.shape == (rows * cols, len(Phase))
            assert np.array_equal(pressures, oracle.phase_pressure_table(s, net, turning))