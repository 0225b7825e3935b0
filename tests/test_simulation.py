import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from conftest import (
    all_phase,
    macro_state_with,
    micro_state_with,
    mov,
    random_cg,
    random_connected_edges,
    random_macro_state,
    random_turning,
    ring,
    turning_model,
)
from netsignal import simulation
from netsignal.controllers import max_pressure
from netsignal.coordination import build_cg, global_cost
from netsignal.harness import Scenario, run_experiment
from netsignal.improvement import local_improvement
from netsignal.messaging import CoorBudget, coordinate
from netsignal.network import (
    PHASES,
    LinkKind,
    LoadError,
    Phase,
    build_grid,
    movement_arrays,
    network_from_dict,
    validate,
)
from netsignal.ordering import min_diameter_dag, network_order
from netsignal.simulation import (
    Flow,
    JointAssignment,
    MetricsError,
    SimConfig,
    Vehicle,
    balance_index,
    estimate_turning,
    generate_uniform_flow,
    initial_state,
    link_delay_periods,
    load_flow,
    predict_next_queues,
    save_flow,
    step,
    travel_time_metrics,
)


def zero_turning(net):
    r = {}
    for l, succs in oracle.topology(net).down_links.items():
        for h in succs:
            r[(l, h)] = 1.0 / len(succs)
    return turning_model(net, r, {})


def test_macro_release_clamped_by_saturation():
    net = build_grid(1, 1, 300, 300, sat_flow=3)
    m = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    state = macro_state_with(net, {m.key: 5})
    out = predict_next_queues(state, {0: Phase.WE_STRAIGHT}, net, zero_turning(net))
    assert out.q[mov(net, m.key)] == 2


def test_macro_release_clamped_by_queue():
    net = build_grid(1, 1, 300, 300, sat_flow=3)
    m = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    state = macro_state_with(net, {m.key: 2})
    out = predict_next_queues(state, {0: Phase.WE_STRAIGHT}, net, zero_turning(net))
    assert out.q[mov(net, m.key)] == 0


def test_inactive_phase_holds_queue():
    net = build_grid(1, 1)
    m = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    state = macro_state_with(net, {m.key: 4})
    out = predict_next_queues(state, {0: Phase.SN_LEFT}, net, zero_turning(net))
    assert out.q[mov(net, m.key)] == 4


def test_micro_step_two_intersections(fig_two):
    decision = {fig_two.i: Phase.WE_LEFT, fig_two.j: Phase.WE_STRAIGHT}
    out = step(fig_two.state, decision, fig_two.flow)
    q = oracle.queue_view(out, fig_two.net)
    assert q[(fig_two.l1, fig_two.l3)] == 0
    assert q[(fig_two.l1, fig_two.l2)] == 4
    exited = [v for v in fig_two.flow.vehicles if v.exit_time is not None]
    assert len(exited) == 2
    assert all(v.destination == fig_two.l3 for v in exited)


def test_micro_release_is_fifo_and_capped():
    net = build_grid(1, 1, 300, 300, sat_flow=3)
    m = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    vehicles = [Vehicle(k, m.frm, 0.0, m.to, (m.frm, m.to)) for k in range(5)]
    state, flow = micro_state_with(net, {m.key: vehicles})
    out = step(state, {0: Phase.WE_STRAIGHT}, flow)
    assert oracle.fifo_view(out, net, flow)[m.key] == (3, 4)
    assert [v.id for v in flow.vehicles if v.exit_time is not None] == [0, 1, 2]


def test_micro_transit_delay_matches_link_length(fig_two):
    # 300 m at 10 m/s with tau=10 -> 3 periods on the internal link
    net = fig_two.net
    assert link_delay_periods(net, 10.0)[movement_arrays(net).link_index[fig_two.l2]] == 3
    assert oracle.link_delay_periods(net, fig_two.l2, 10.0) == 3
    state = fig_two.state
    decision = {fig_two.i: Phase.WE_STRAIGHT, fig_two.j: Phase.WE_STRAIGHT}
    l1_l2, l2_exit = mov(net, (fig_two.l1, fig_two.l2)), mov(net, (fig_two.l2, fig_two.exit_j))
    state = step(state, decision, fig_two.flow)
    assert state.q[l1_l2] == 0
    assert len(state.transit) == 4
    # nothing readable on l2 until the traversal completes
    state = step(state, decision, fig_two.flow)
    assert state.q[l2_exit] == 0
    state = step(state, decision, fig_two.flow)
    assert state.q[l2_exit] == 4
    state = step(state, decision, fig_two.flow)
    assert state.q[l2_exit] == 0
    assert sum(1 for v in fig_two.flow.vehicles if v.exit_time is not None) == 4


@pytest.mark.parametrize("controller", ["maxpressure", "emc"])
def test_a_link_too_long_to_cross_holds_its_vehicles(controller):
    # 1e300 m at 1e-10 m/s: the traversal overflows to infinitely many
    # periods, whose cast to an integer gave a delay of -2**63, so vehicles
    # crossed the link in no time
    net = build_grid(1, 2)
    lid = net.internal_links()[0]
    net.links[lid].length_m, net.links[lid].speed_mps = 1e300, 1e-10
    assert validate(net) == []
    delay = link_delay_periods(net, 10.0)
    assert delay.min() >= 1 and delay[movement_arrays(net).link_index[lid]] == 2**53
    vehicles = generate_uniform_flow(net, 0.2, 300, seed=1)
    crossing = [v for v in vehicles if lid in v.route]
    assert crossing
    run_experiment(Scenario(net, vehicles, SimConfig(horizon=40), controller))
    assert all(v.exit_time is None for v in crossing)
    assert any(v.exit_time is not None for v in vehicles)


def test_predict_zero_fixed_point():
    net = build_grid(2, 2)
    state = macro_state_with(net, {})
    out = predict_next_queues(state, all_phase(net, Phase.WE_STRAIGHT), net, zero_turning(net))
    assert np.all(out.q == 0)


def test_predict_two_intersection_example(fig_two):
    decision = {fig_two.i: Phase.WE_STRAIGHT, fig_two.j: Phase.WE_STRAIGHT}
    out = predict_next_queues(fig_two.state, decision, fig_two.net, fig_two.turning)
    q = oracle.queue_view(out, fig_two.net)
    assert q[(fig_two.l1, fig_two.l3)] == 2
    assert q[(fig_two.l2, fig_two.exit_j)] == 4
    assert balance_index(out) == 20


def test_step_requires_full_decision():
    net = build_grid(2, 1)
    state = initial_state(net)
    with pytest.raises(ValueError, match="missing"):
        step(state, {0: Phase.WE_STRAIGHT}, Flow([], 10.0, net))


# every function that reads a joint decision, called on a 1x2 grid
DECISION_READERS = {
    "step": lambda x, net, state, turning: step(state, x, Flow([], 10.0, net)),
    "global_cost": lambda x, net, state, turning: global_cost(build_cg(state, net, turning), x),
    "local_improvement": lambda x, net, state, turning: local_improvement(x, state, net, turning),
    "predict_next_queues": lambda x, net, state, turning: predict_next_queues(state, x, net, turning),
}


@pytest.mark.parametrize("reader", sorted(DECISION_READERS))
@pytest.mark.parametrize(
    "decision, message",
    [
        ({0: Phase(0), 1: 7}, "agent 1 the phase 7,"),
        ({0: Phase(0), 1: -1}, "agent 1 the phase -1,"),
        ({0: Phase(0), 1: 2.5}, r"agent 1 the phase 2\.5,"),
        ({0: Phase(0), 1: True}, "agent 1 the phase True,"),
        ({0: Phase(0)}, r"missing agents \[1\]"),
    ],
    ids=["7", "-1", "2.5", "True", "missing"],
)
def test_decision_readers_reject_bad_phases_by_agent(reader, decision, message):
    net = build_grid(1, 2)
    rng = np.random.default_rng(2)
    state, turning = random_macro_state(net, rng), random_turning(net, rng)
    with pytest.raises(ValueError, match=message):
        DECISION_READERS[reader](decision, net, state, turning)


@given(st.data())
def test_joint_assignment_reads_like_the_equal_dict(data):
    agents = tuple(sorted(data.draw(st.sets(st.integers(-50, 50), max_size=20))))
    picks = data.draw(st.lists(st.integers(0, 3), min_size=len(agents), max_size=len(agents)))
    view = JointAssignment(agents, np.array(picks, dtype=np.intp))
    plain = {a: PHASES[p] for a, p in zip(agents, picks)}
    assert view == plain and plain == view
    assert view.keys() == plain.keys() and set(view) == set(plain) and list(view) == list(plain)
    for a in (*range(-52, 53), "a", None):
        assert view.get(a, 255) == plain.get(a, 255)
        assert (a in view) == (a in plain)
    assert all(type(view[a]) is Phase for a in agents)
    unknown = data.draw(st.integers(-60, 60).filter(lambda a: a not in plain))
    with pytest.raises(KeyError):
        view[unknown]
    with pytest.raises(ValueError, match="read-only"):
        view.phases[...] = 0


@pytest.mark.parametrize("phases", [[0, 4], [0, -1], [0.0, 1.0], [True, False], [0]])
def test_joint_assignment_rejects_phases_that_are_no_decision(phases):
    with pytest.raises(ValueError, match="phases must"):
        JointAssignment((3, 5), np.array(phases))


# lists compare but do not hash, so they are no agents either
@pytest.mark.parametrize("agents", [(5, 3), (3, 3), (0, "a"), ([0], [1])])
def test_joint_assignment_needs_sorted_distinct_agents(agents):
    with pytest.raises(ValueError, match="agents must be sorted and distinct"):
        JointAssignment(agents, np.array([0, 1]))


def assert_checked_view(view, agents):
    """`view` is what the public constructor makes of its fields, over the
    tuple `agents` itself, with read-only intp phases."""
    assert JointAssignment(view.agents, view.phases.copy()) == view
    assert view.phases.dtype == np.intp and not view.phases.flags.writeable
    assert view.agents is agents


def test_planner_decisions_pass_the_public_constructor():
    # `coordinate`, `local_improvement` and `max_pressure` build their
    # decisions without the constructor's checks, on grids and on loopy
    # graphs, at every round cap up to one past the cycle and under a zero
    # wall cap
    rng = np.random.default_rng(20)
    graphs = []
    for rows in range(1, 6):
        for cols in range(1, 6):
            net = build_grid(rows, cols)
            state, turning = random_macro_state(net, rng), random_turning(net, rng)
            agents = movement_arrays(net).agent_ids
            pressure = max_pressure(state, net, turning)
            assert_checked_view(pressure, agents)
            for init in (pressure, dict(pressure)):
                assert_checked_view(local_improvement(init, state, net, turning), agents)
            graphs.append((build_cg(state, net, turning), network_order(net)))
    for n in range(1, 9):
        cg = random_cg(rng, n, random_connected_edges(rng, n, extra=n))
        graphs.append((cg, min_diameter_dag(cg)))
    for cg, order in graphs:
        budgets = [CoorBudget(rounds=k) for k in range(2 * order.diameter + 2)]
        for budget in budgets + [CoorBudget(wall_ms=0)]:
            assert_checked_view(coordinate(cg, order, budget).assignment, cg.agents)


def test_decision_readers_agree_on_a_view_and_the_equal_dict():
    net = build_grid(3, 3)
    arr = movement_arrays(net)
    rng = np.random.default_rng(4)
    macro, turning = random_macro_state(net, rng), random_turning(net, rng)
    flow = Flow(generate_uniform_flow(net, 1.5, 300.0, seed=2), 10.0, net)
    micro = initial_state(net)
    for _ in range(12):
        view = JointAssignment(arr.agent_ids, rng.integers(0, 4, len(arr.agent_ids)))
        plain = dict(view)
        assert type(plain) is dict
        predicted = [predict_next_queues(macro, x, net, turning).q for x in (view, plain)]
        assert predicted[0].tobytes() == predicted[1].tobytes()
        cg = build_cg(macro, net, turning)
        assert global_cost(cg, view) == global_cost(cg, plain)
        swept = [local_improvement(x, macro, net, turning) for x in (view, plain)]
        assert swept[0].phases.tobytes() == swept[1].phases.tobytes()
        after = [step(micro, x, flow) for x in (view, plain)]
        for a, b in zip(after[0].__dict__.values(), after[1].__dict__.values()):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        micro = after[0]


def test_balance_examples(fig_two):
    net = build_grid(1, 1)
    m = net.movements[0]
    assert balance_index(macro_state_with(net, {m.key: 4})) == 16
    state = macro_state_with(net, {net.movements[0].key: 4, net.movements[1].key: 2})
    assert balance_index(state) == 20
    assert balance_index(initial_state(net)) == 0
    # one intersection's share equals the network total on the loaded intersection
    assert oracle.own_balance(fig_two.state, fig_two.net, fig_two.i) == 20
    assert oracle.own_balance(fig_two.state, fig_two.net, fig_two.j) == 0


def test_non_negative_queues_under_random_decisions():
    net = build_grid(2, 2)
    rng = np.random.default_rng(3)
    vehicles = generate_uniform_flow(net, rate=1.0, duration=200, seed=5)
    flow = Flow(vehicles, 10.0, net)
    state = initial_state(net)
    for t in range(40):
        decision = {i: Phase(int(rng.integers(4))) for i in net.intersections}
        state = step(state, decision, flow)
        assert np.all(state.q >= 0)


def test_vehicle_conservation_every_period():
    net = build_grid(2, 2)
    rng = np.random.default_rng(11)
    vehicles = generate_uniform_flow(net, rate=0.8, duration=300, seed=2)
    flow = Flow(vehicles, 10.0, net)
    state = initial_state(net)
    for t in range(60):
        decision = {i: Phase(int(rng.integers(4))) for i in net.intersections}
        state = step(state, decision, flow)
        entered = sum(1 for v in vehicles if v.depart_s < (t + 1) * flow.tau)
        exited = sum(1 for v in vehicles if v.exit_time is not None)
        queued = int(state.total_queue())
        assert entered == exited + queued + len(state.transit)


def test_macro_micro_agreement_single_route():
    # 100 m links -> one-period traversal, the regime where the micro
    # simulator and the macro update obey the same one-step arrival law.
    net = build_grid(1, 2, 100, 100, 5)
    i, j = 0, 1
    l2 = next(l for l in net.internal_links() if net.links[l].start == i)
    at = oracle.topology(net).movements_at
    l1 = next(m.frm for m in at[i] if m.to == l2 and m.phase == Phase.WE_STRAIGHT)
    exit_j = next(m.to for m in at[j] if m.frm == l2 and m.phase == Phase.WE_STRAIGHT)

    vehicles = [Vehicle(k, l1, 10.0 * k, exit_j, (l1, l2, exit_j)) for k in range(8)]
    flow = Flow(vehicles, 10.0, net)
    micro = initial_state(net)
    macro = macro_state_with(net, {})
    r = {(l1, l2): 1.0, (l2, exit_j): 1.0}
    decision = all_phase(net, Phase.WE_STRAIGHT)
    for t in range(12):
        d = {l1: sum(1 for v in vehicles if math.floor(v.depart_s / 10.0) == t)}
        turning = turning_model(net, r, d)
        micro = step(micro, decision, flow)
        macro = predict_next_queues(macro, decision, net, turning)
        for key in ((l1, l2), (l2, exit_j)):
            assert micro.q[mov(net, key)] == pytest.approx(macro.q[mov(net, key)])


def test_full_release_drains_into_downstream(fig_two):
    # All loaded movements active with sat_flow >= queue: originals all leave.
    decision = {fig_two.i: Phase.WE_STRAIGHT, fig_two.j: Phase.WE_STRAIGHT}
    upstream, downstream = (fig_two.l1, fig_two.l2), (fig_two.l2, fig_two.exit_j)
    state = macro_state_with(fig_two.net, {upstream: 4, downstream: 3})
    l1_l2, l2_exit = mov(fig_two.net, upstream), mov(fig_two.net, downstream)
    out = predict_next_queues(state, decision, fig_two.net, fig_two.turning)
    assert out.q[l1_l2] == 0
    assert out.q[l2_exit] == 4  # only the new arrivals
    out = predict_next_queues(out, decision, fig_two.net, fig_two.turning)
    assert out.q[l2_exit] == 0


def test_estimate_turning_counts_routes():
    net = build_grid(1, 1)
    entry = net.entry_links()[0]
    moves = oracle.topology(net).movements_from[entry]
    h1, h2 = moves[0].to, moves[1].to
    vehicles = [Vehicle(k, entry, 0.0, h1, (entry, h1)) for k in range(3)]
    vehicles.append(Vehicle(3, entry, 0.0, h2, (entry, h2)))
    state, flow = micro_state_with(net, {(entry, h1): vehicles[:3], (entry, h2): vehicles[3:]})
    model = estimate_turning(state, flow)
    assert model.r[mov(net, (entry, h1))] == pytest.approx(0.75)
    assert model.r[mov(net, (entry, h2))] == pytest.approx(0.25)
    assert model.r[mov(net, moves[2].key)] == pytest.approx(0.0)


def test_estimate_turning_single_target():
    net = build_grid(1, 1)
    entry = net.entry_links()[0]
    h = oracle.topology(net).movements_from[entry][0].to
    vehicles = [Vehicle(k, entry, 0.0, h, (entry, h)) for k in range(4)]
    state, flow = micro_state_with(net, {(entry, h): vehicles})
    assert estimate_turning(state, flow).r[mov(net, (entry, h))] == 1.0


def test_estimate_turning_uniform_fallback():
    net = build_grid(1, 1)
    entry = net.entry_links()[0]
    state = initial_state(net)
    model = estimate_turning(state, Flow([], 10.0, net))
    for m in oracle.topology(net).movements_from[entry]:
        assert model.r[mov(net, m.key)] == pytest.approx(1 / 3)


def test_estimate_turning_demand_counts_next_period():
    net = build_grid(1, 1)
    entry = net.entry_links()[0]
    h = oracle.topology(net).movements_from[entry][0].to
    vehicles = [Vehicle(0, entry, 3.0, h, (entry, h)), Vehicle(1, entry, 27.0, h, (entry, h))]
    flow = Flow(vehicles, 10.0, net)
    state = initial_state(net)
    k = movement_arrays(net).link_index[entry]
    assert estimate_turning(state, flow).d[k] == 1.0
    assert estimate_turning(replace(state, period=2), flow).d[k] == 1.0
    assert estimate_turning(replace(state, period=1), flow).d[k] == 0.0


def test_flow_counts_match_rate():
    net = build_grid(4, 4)
    assert len(generate_uniform_flow(net, 1.76, 3600, seed=1)) == 6336
    net20 = build_grid(20, 20)
    assert len(generate_uniform_flow(net20, 0.77, 3600, seed=1)) == 2772


def test_flow_counts_products_a_rounding_error_below_a_whole_number():
    # 0.29 * 100 and 0.57 * 100 fall a rounding error below 29 and 57
    net = build_grid(2, 2)
    assert 0.29 * 100 < 29 and 0.57 * 100 < 57
    assert len(generate_uniform_flow(net, 0.29, 100)) == 29
    assert len(generate_uniform_flow(net, 0.57, 100)) == 57
    assert len(generate_uniform_flow(net, 0.2899999, 100)) == 28
    assert len(generate_uniform_flow(net, 0.29, 99.99)) == 28
    assert len(generate_uniform_flow(net, 1 / 3, 3)) == 1


def test_flow_deterministic_per_seed():
    net = build_grid(2, 3)
    a = generate_uniform_flow(net, 0.5, 600, seed=42)
    b = generate_uniform_flow(net, 0.5, 600, seed=42)
    c = generate_uniform_flow(net, 0.5, 600, seed=43)
    assert [(v.origin, v.destination, v.route) for v in a] == [
        (v.origin, v.destination, v.route) for v in b
    ]
    assert [(v.origin, v.destination, v.route) for v in a] != [
        (v.origin, v.destination, v.route) for v in c
    ]


def test_flow_routes_are_valid_movement_chains():
    net = build_grid(3, 3)
    for v in generate_uniform_flow(net, 0.4, 500, seed=8):
        assert v.route[0] == v.origin
        assert v.route[-1] == v.destination
        assert net.links[v.origin].kind is LinkKind.ENTRY
        assert net.links[v.destination].kind is LinkKind.EXIT
        for a, b in zip(v.route, v.route[1:]):
            assert (a, b) in oracle.topology(net).movement_map


def one_way_1x2():
    """The 1x2 grid without the internal link from 0 to 1: the west entry
    cannot reach the exits of intersection 1."""
    doc = build_grid(1, 2).to_dict()
    gone = next(d["id"] for d in doc["links"] if (d.get("start"), d.get("end")) == (0, 1))
    doc["links"] = [d for d in doc["links"] if d["id"] != gone]
    doc["movements"] = [d for d in doc["movements"] if gone not in (d["from"], d["to"])]
    return network_from_dict(doc)


@pytest.mark.parametrize(
    "net",
    [build_grid(1, 1), build_grid(1, 2), build_grid(2, 1), one_way_1x2()],
    ids=["1x1", "1x2", "2x1", "1x2-one-way"],
)
def test_flow_routes_valid_where_some_exits_are_unreachable(net):
    assert validate(net) == []
    vehicles = generate_uniform_flow(net, 1.0, 400, seed=3)
    assert len(vehicles) == 400
    for v in vehicles:
        assert v.route[0] == v.origin and v.route[-1] == v.destination
        assert net.links[v.destination].kind is LinkKind.EXIT
        for a, b in zip(v.route, v.route[1:]):
            assert (a, b) in oracle.topology(net).movement_map


def test_flow_names_entries_that_reach_no_exit():
    doc = build_grid(1, 1).to_dict()
    entry = min(d["id"] for d in doc["links"] if d["kind"] == "entry")
    doc["movements"] = [d for d in doc["movements"] if d["from"] != entry]
    net = network_from_dict(doc)
    assert validate(net) == []
    with pytest.raises(ValueError, match=rf"\[{entry}\] reach no exit"):
        generate_uniform_flow(net, 1.0, 100)


def test_flow_unchanged_where_every_exit_is_reachable():
    # (origin, destination, route) of every vehicle, as drawn before
    # destinations were restricted to reachable exits
    vehicles = generate_uniform_flow(build_grid(4, 4), 1.76, 3600, seed=1)
    trips = repr([(v.origin, v.destination, v.route) for v in vehicles]).encode()
    assert hashlib.sha256(trips).hexdigest() == (
        "ace31f5815ee75b301d3dd44ad3991f3ce55d59a82e94dc2ae94aadb52cca7e0"
    )


@pytest.mark.parametrize(
    "rows, rate, seed, digest",
    [
        (15, 0.80, 1, "91eb0a19ca237846b5e50404e99f6aaf4af0ee2f176ff0a6506b8bdde0b5e05a"),
        (15, 0.80, 7919, "f4b5a168220da6048f8e98a0be7383504508b6c7160f0fe33ffbf57724393f0b"),
        (20, 0.77, 1, "b2d703be2480c2083035213a25da0a50c8b0d56e7af22c79c36784119b95d7bb"),
        (20, 0.77, 7919, "4a4c3248becebee0f57463d1dd14496971bcc366a81ad81c6cd974e2e2113a4b"),
        (4, 2.40, 1, "d338d8888aed819eec50d7e63dec61f861323aa05d0a6f3c99abfde1c5e1e713"),
        (4, 2.40, 7919, "bc04bf175e31258468ccb9c0b7e0904db17523838a62ec9970950632472fb0d9"),
    ],
)
def test_flow_unchanged_on_the_bench_grids(rows, rate, seed, digest):
    # (origin, destination, route) of every vehicle at the benchmark's
    # rates: an hour on 15x15 and 20x20, whose benchmark flows are prefixes
    # of it, and grid4_peak_emc's whole two hours on 4x4
    seconds = 7200 if rows == 4 else 3600
    vehicles = generate_uniform_flow(build_grid(rows, rows), rate, seconds, seed=seed)
    trips = repr([(v.origin, v.destination, v.route) for v in vehicles]).encode()
    assert hashlib.sha256(trips).hexdigest() == digest


def test_flow_requires_entries():
    net = build_grid(1, 1)
    with pytest.raises(ValueError):
        generate_uniform_flow(net, -1.0, 100)


def test_travel_metrics_mean():
    vehicles = [
        Vehicle(0, 0, 0.0, 1, (0, 1), exit_time=100.0),
        Vehicle(1, 0, 0.0, 1, (0, 1), exit_time=200.0),
    ]
    m = travel_time_metrics(vehicles, end_time=3600)
    assert m.avg_travel_time_s == 150
    assert m.throughput == 2


def test_travel_metrics_unfinished_counts_elapsed():
    # vehicles due at or after the end never departed and do not count
    vehicles = [
        Vehicle(0, 0, 3500.0, 1, (0, 1)),
        Vehicle(1, 0, 3600.0, 1, (0, 1)),
        Vehicle(2, 0, 9000.0, 1, (0, 1)),
    ]
    m = travel_time_metrics(vehicles, end_time=3600)
    assert m.avg_travel_time_s == 100
    assert m.throughput == 0
    with pytest.raises(MetricsError, match="no vehicle departed before 3600"):
        travel_time_metrics(vehicles[1:], end_time=3600)


def test_travel_metrics_empty_is_error():
    with pytest.raises(MetricsError):
        travel_time_metrics([], end_time=100)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tau": 0.0}, "tau must be positive and finite, got 0.0"),
        ({"tau": math.nan}, "tau must be positive and finite, got nan"),
        ({"horizon": 0}, "horizon must be an integer >= 1, got 0"),
        ({"horizon": 2.5}, r"horizon must be an integer >= 1, got 2\.5"),
        ({"horizon": 3.0}, r"horizon must be an integer >= 1, got 3\.0"),
        ({"horizon": True}, "horizon must be an integer >= 1, got True"),
        ({"tau": "10"}, "tau must be positive and finite, got '10'"),
        ({"seed": 2.5}, r"seed must be an integer, got 2\.5"),
        ({"seed": True}, "seed must be an integer, got True"),
    ],
)
def test_sim_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**kwargs)
    assert SimConfig(horizon=np.int64(3)).horizon == 3


def test_flow_file_roundtrip(tmp_path):
    net = build_grid(2, 2)
    vehicles = generate_uniform_flow(net, 0.3, 300, seed=4)
    path = tmp_path / "flow.json"
    save_flow(vehicles, str(path))
    loaded = load_flow(str(path), net, seed=4)
    assert [(v.id, v.origin, v.depart_s, v.destination) for v in loaded] == [
        (v.id, v.origin, v.depart_s, v.destination) for v in vehicles
    ]
    for v in loaded:
        assert v.route[0] == v.origin and v.route[-1] == v.destination


def test_flow_rate_spec(tmp_path):
    net = build_grid(2, 2)
    path = tmp_path / "rate.json"
    path.write_text('{"rate_vps": 0.5, "duration_s": 100, "seed": 3}')
    vehicles = load_flow(str(path), net)
    assert len(vehicles) == 50


@pytest.mark.parametrize(
    "field, value",
    [("id", True), ("id", 0.5), ("origin", 8.9), ("destination", "3"), ("origin", None)],
)
def test_flow_file_rejects_ids_that_are_not_integers(tmp_path, field, value):
    net = build_grid(2, 2)
    entry, exit_link = net.entry_links()[0], net.exit_links()[0]
    good = {"id": 0, "origin": entry, "depart_s": 0.0, "destination": exit_link}
    bad = {**good, "id": 1, field: value}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps([good, bad]))
    with pytest.raises(LoadError, match=f"invalid {field}") as caught:
        load_flow(str(path), net)
    assert repr(json.loads(json.dumps(bad))) in str(caught.value)


@pytest.mark.parametrize(
    "rate, duration, named",
    [
        (math.inf, 100.0, "rate"),
        (math.nan, 100.0, "rate"),
        (1.0, math.inf, "duration"),
        (1.0, math.nan, "duration"),
        (1.0, 0.0, "duration"),
        (1.0, -100.0, "duration"),
    ],
)
def test_flow_rejects_rates_and_durations_that_are_not_finite(tmp_path, rate, duration, named):
    net = build_grid(2, 2)
    value = rate if named == "rate" else duration
    with pytest.raises(ValueError, match=f"{named} must be .*finite, got {value}"):
        generate_uniform_flow(net, rate, duration)
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"rate_vps": rate, "duration_s": duration}))
    with pytest.raises(LoadError, match=f"{named}.* must be .*finite, got {value}"):
        load_flow(str(path), net)


def test_uniform_flow_needs_entry_and_exit_links():
    net = ring()
    assert validate(net) == []
    with pytest.raises(ValueError, match="network needs entry and exit links to generate flow"):
        generate_uniform_flow(net, 0.5, 100.0)


def test_load_flow_names_a_file_it_cannot_read(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(LoadError, match=f"cannot read flow file {path}"):
        load_flow(str(path), build_grid(2, 2))


def test_flow_rejects_a_vehicle_count_that_overflows(tmp_path):
    # each value is finite, but their product is not
    net = build_grid(2, 2)
    named = re.escape("rate 1e+200 times duration 1e+200 is more vehicles than a float can count")
    with pytest.raises(ValueError, match=named):
        generate_uniform_flow(net, 1e200, 1e200)
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"rate_vps": 1e200, "duration_s": 1e200}))
    with pytest.raises(LoadError, match=f"flow rate spec: {named}"):
        load_flow(str(path), net)


def test_flow_names_a_vehicle_count_that_does_not_fit_in_memory(monkeypatch):
    # memory runs out at the fourth vehicle; nothing here allocates much
    made = []

    def vehicle(*fields):
        if len(made) == 3:
            raise MemoryError
        made.append(Vehicle(*fields))
        return made[-1]

    monkeypatch.setattr(simulation, "Vehicle", vehicle)
    named = re.escape("rate 0.5 for duration 100.0 is 50 vehicles, more than fit in memory")
    with pytest.raises(ValueError, match=named):
        generate_uniform_flow(build_grid(2, 2), 0.5, 100.0)


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"rate_vps": "1.5", "duration_s": 100}, "rate_vps"),
        ({"rate_vps": 1.5, "duration_s": True}, "duration_s"),
        ({"rate_vps": "0.5", "duration_s": 100}, "rate_vps"),
        ({"rate_vps": 0.5, "duration_s": "100"}, "duration_s"),
    ],
)
def test_flow_rate_spec_rejects_values_that_are_not_numbers(tmp_path, spec, field):
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(LoadError, match=f"flow rate spec: invalid {field} {spec[field]!r}"):
        load_flow(str(path), build_grid(2, 2))
    # the same values given in code
    named = {"rate_vps": "rate", "duration_s": "duration"}[field]
    with pytest.raises(ValueError, match=f"{named} must be positive and finite, got {spec[field]!r}"):
        generate_uniform_flow(build_grid(2, 2), spec["rate_vps"], spec["duration_s"], 1)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_flows_reject_seeds_that_are_not_counts(tmp_path, seed):
    net = build_grid(2, 2)
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        generate_uniform_flow(net, 0.5, 100, seed)
    path = tmp_path / "flow.json"
    save_flow(generate_uniform_flow(net, 0.5, 100), str(path))
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        load_flow(str(path), net, seed=seed)


def test_flow_file_routes_equal_per_vehicle_shortest_routes(tmp_path):
    net = build_grid(3, 3)
    vehicles = generate_uniform_flow(net, 0.5, 400, seed=4)
    path = tmp_path / "flow.json"
    save_flow(vehicles, str(path))
    loaded = load_flow(str(path), net, seed=9)
    rng = np.random.default_rng(np.random.SeedSequence([9, 0x72E5]))
    expected = [oracle.shortest_route(net, v.origin, v.destination, rng) for v in vehicles]
    assert [v.route for v in loaded] == expected


@pytest.mark.parametrize(
    "rows, rate, digest",
    [
        (4, 1.76, "e0964810fbecbb1d41aaff0ada6a13e0d17f43c7f7340aad5933eaeb867896f9"),
        (20, 0.77, "fb1a63e16eb66ae1cc90943374c077144154886680c72f776c5d158b94e60125"),
    ],
)
def test_flow_file_routes_unchanged(tmp_path, rows, rate, digest):
    # every route `load_flow` draws at seed 5 for an hour of the pinned
    # seed-1 flows above, saved as a vehicle array
    net = build_grid(rows, rows)
    path = tmp_path / "flow.json"
    save_flow(generate_uniform_flow(net, rate, 3600, seed=1), str(path))
    routes = repr([v.route for v in load_flow(str(path), net, seed=5)]).encode()
    assert hashlib.sha256(routes).hexdigest() == digest


def test_flow_file_runs_one_route_search_per_destination(tmp_path, monkeypatch):
    net = build_grid(3, 3)
    vehicles = generate_uniform_flow(net, 0.5, 400, seed=4)
    path = tmp_path / "flow.json"
    save_flow(vehicles, str(path))
    searched = []
    search = simulation.hop_distances
    link_ids = movement_arrays(net).link_ids

    def counting(neighbours, sources):
        searched.append([link_ids[s] for s in sources])
        return search(neighbours, sources)

    monkeypatch.setattr(simulation, "hop_distances", counting)
    load_flow(str(path), net)
    assert len(searched) == 1
    assert sorted(searched[0]) == sorted({v.destination for v in vehicles})


def bad_flow_case(case):
    """A 2x2 grid and a flow file whose second vehicle is bad in one way;
    returns (net, entries, pattern the LoadError must match)."""
    net = build_grid(2, 2)
    entry, exit_link, internal = net.entry_links()[0], net.exit_links()[0], net.internal_links()[0]
    good = {"id": 0, "origin": entry, "depart_s": 0.0, "destination": exit_link}
    bad = dict(good, id=1)
    pattern = {
        "internal-origin": (dict(bad, origin=internal), f"origin {internal} is not an entry link"),
        "exit-origin": (dict(bad, origin=exit_link), f"origin {exit_link} is not an entry link"),
        "entry-destination": (dict(bad, destination=entry), f"destination {entry} is not an exit link"),
        "internal-destination": (
            dict(bad, destination=internal),
            f"destination {internal} is not an exit link",
        ),
        "negative-depart": (dict(bad, depart_s=-5.0), r"depart_s -5.0 is not a finite time >= 0"),
        "nan-depart": (dict(bad, depart_s=float("nan")), r"depart_s nan is not a finite time >= 0"),
        "duplicate-id": (dict(bad, id=0, depart_s=5.0), "duplicate vehicle id 0"),
        "text-depart": (dict(bad, depart_s="5"), "invalid depart_s '5'"),
        "bool-depart": (dict(bad, depart_s=True), "invalid depart_s True"),
        "null": (None, "bad flow entry None: expected an object"),
    }[case]
    return net, [good, pattern[0]], pattern[1]


BAD_FLOW_CASES = [
    "internal-origin",
    "exit-origin",
    "entry-destination",
    "internal-destination",
    "negative-depart",
    "nan-depart",
    "duplicate-id",
    "text-depart",
    "bool-depart",
    "null",
]


@pytest.mark.parametrize("case", BAD_FLOW_CASES)
def test_flow_file_rejects_bad_vehicle(tmp_path, case):
    net, entries, pattern = bad_flow_case(case)
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(LoadError, match=pattern) as caught:
        load_flow(str(path), net)
    assert repr(json.loads(json.dumps(entries[1]))) in str(caught.value)


def test_flow_file_names_its_first_bad_vehicle_in_file_order(tmp_path):
    # routes are searched after every entry is read, so an unroutable
    # vehicle is still named before a malformed entry that follows it, and
    # after one that comes first
    net = one_way_1x2()
    pairs = [(o, x) for o in net.entry_links() for x in net.exit_links()]
    stuck = [(o, x) for o, x in pairs if o not in oracle.route_distances(net, x)]
    good_pair = next(p for p in pairs if p not in stuck)
    origin, destination = stuck[0]
    good = {"id": 0, "origin": good_pair[0], "depart_s": 0.0, "destination": good_pair[1]}
    unroutable = {"id": 1, "origin": origin, "depart_s": 1.0, "destination": destination}
    malformed = {"id": 2, "origin": good_pair[0], "depart_s": "2", "destination": good_pair[1]}
    no_route = f"no route from link {origin} to link {destination}"
    for entries, pattern in (
        ([good, unroutable, malformed], no_route),
        ([good, malformed, unroutable], "invalid depart_s '2'"),
        ([good, unroutable, dict(good)], no_route),
        ([good, dict(good), unroutable], "duplicate vehicle id 0"),
    ):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(LoadError, match=pattern):
            load_flow(str(path), net)


def test_flow_rejects_routes_that_are_not_movement_chains():
    net = build_grid(1, 2)
    entry = net.entry_links()[0]
    succs = oracle.topology(net).down_links[entry]
    internal = next(h for h in succs if net.links[h].kind is LinkKind.INTERNAL)
    exit_link = next(h for h in succs if net.links[h].kind is LinkKind.EXIT)
    unreachable = next(l for l in net.exit_links() if l not in succs)
    chains = [
        (entry, internal),  # ends on an internal link
        (entry, unreachable),  # no such movement
        (entry, 10**6),  # no such link
        (exit_link,),  # a single link
    ]
    for k, route in enumerate(chains):
        v = Vehicle(k, route[0], 0.0, route[-1], route)
        with pytest.raises(ValueError, match=f"vehicle {k}: "):
            Flow([Vehicle(99, entry, 0.0, exit_link, (entry, exit_link)), v], 10.0, net)
    for depart in (float("nan"), -50.0):
        with pytest.raises(ValueError, match="vehicle 7: .*finite depart_s >= 0"):
            Flow([Vehicle(7, entry, depart, exit_link, (entry, exit_link))], 10.0, net)
    with pytest.raises(ValueError, match="duplicate vehicle ids"):
        Flow([Vehicle(0, entry, 0.0, exit_link, (entry, exit_link))] * 2, 10.0, net)


@pytest.mark.parametrize("depart, tau", [(1e308, 0.1), (math.inf, 10.0), (1.7e308, 0.5)])
def test_flow_rejects_a_departure_whose_period_is_not_finite(depart, tau):
    net = build_grid(1, 1)
    entry = net.entry_links()[0]
    exit_link = oracle.topology(net).down_links[entry][0]
    ok = Vehicle(0, entry, 0.0, exit_link, (entry, exit_link))
    late = Vehicle(8, entry, depart, exit_link, (entry, exit_link))
    with pytest.raises(ValueError, match="vehicle 8: .*finite period depart_s / tau") as caught:
        Flow([ok, late], tau, net)
    assert f"depart_s {depart}" in str(caught.value)
