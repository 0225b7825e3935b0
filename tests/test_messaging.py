import hashlib

import numpy as np
import pytest

from conftest import (
    forward_messages,
    loaded_plan,
    plan_messages,
    random_cg,
    random_macro_state,
    random_tree_edges,
    random_turning,
)
from netsignal.coordination import CoordinationGraph, build_cg, global_cost
from netsignal.messaging import CoorBudget, _cycle_closed, coordinate, message_plan
from netsignal.network import Phase, build_grid
from netsignal.ordering import min_diameter_dag, network_order
from netsignal.simulation import JointAssignment
import oracle
from oracle import ScalarGraph, brute_force_optimum, reverse, row_major_messages


def reference_rounds(cg, order, rounds):
    """Synchronous rounds straight off the per-edge message rule."""
    ref = ScalarGraph(cg)
    messages = {}
    for _ in range(rounds):
        messages = ref.sync_round(order.edges, messages)
    return messages


def one_cycle(cg):
    """The messages of `cg` after one forward and one reverse level pass,
    keyed by (sender, receiver), and the plan that holds them."""
    order = min_diameter_dag(cg)
    plan = loaded_plan(cg, order)
    for level in range(len(order.schedule.levels)):
        plan.update(level)
    return plan_messages(plan, order), plan


def two_agent_cg(rng):
    return random_cg(rng, 2, [(0, 1)])


def test_message_zero_costs():
    cg = random_cg(np.random.default_rng(0), 2, [(0, 1)], scale=0.0)
    messages, _ = one_cycle(cg)
    assert np.array_equal(messages[(0, 1)], np.zeros(4))
    assert np.array_equal(messages[(1, 0)], np.zeros(4))


def test_message_constant_edge_cost():
    cg = CoordinationGraph(
        (0, 1), ((0, 1),), np.zeros((1, 4, 4)), [[3.0, 1.0, 2.0, 5.0], [0.0] * 4]
    )
    msg = one_cycle(cg)[0][(0, 1)]
    assert np.array_equal(msg, np.full(4, 1.0))
    assert np.array_equal(msg, ScalarGraph(cg).message(0, 1, {}))


def test_two_agent_chain_reaches_global_min():
    rng = np.random.default_rng(1)
    for _ in range(200):
        cg = two_agent_cg(rng)
        msg = one_cycle(cg)[0][(0, 1)]
        assert np.allclose(msg, ScalarGraph(cg).message(0, 1, {}), rtol=0.0, atol=1e-9)
        chained = float(np.min(cg.individual[1] + msg))
        _, best = brute_force_optimum(cg)
        assert chained == pytest.approx(best)


def test_message_passing_single_agent_empty():
    cg = CoordinationGraph((0,), (), np.zeros((0, 4, 4)), [np.arange(4.0)])
    order = min_diameter_dag(cg)
    assert forward_messages(cg, order, sync_rounds=order.diameter) == {}
    assert plan_messages(loaded_plan(cg, order), order) == {}


def test_three_agent_path_fixpoint_after_one_round():
    rng = np.random.default_rng(3)
    cg = random_cg(rng, 3, [(0, 1), (1, 2)])
    order = min_diameter_dag(cg)
    assert order.diameter == 1
    table = forward_messages(cg, order)
    again = forward_messages(cg, order, sync_rounds=1)
    for key in table:
        assert np.allclose(table[key], again[key], atol=1e-9)


def test_engine_matches_reference_rule():
    for seed in range(10):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(3, 12))
        extra = int(rng.integers(0, 3))
        edges = sorted(set(random_tree_edges(rng, n)) | set())
        cg = random_cg(rng, n, edges)
        order = min_diameter_dag(cg)
        fast = forward_messages(cg, order, sync_rounds=extra)
        slow = reference_rounds(cg, order, order.diameter + extra)
        assert set(fast) == set(slow)
        for key in fast:
            assert np.allclose(fast[key], slow[key], atol=1e-9)


def test_grid_fixpoint_in_exactly_diameter_rounds():
    from conftest import random_macro_state, random_turning
    from netsignal.network import build_grid

    net = build_grid(4, 4)
    rng = np.random.default_rng(17)
    cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
    order = min_diameter_dag(cg)
    at_dia = forward_messages(cg, order)
    one_more = forward_messages(cg, order, sync_rounds=1)
    for key in at_dia:
        assert np.allclose(at_dia[key], one_more[key], atol=1e-9)
    # and the round before the bound is not yet stable for this state
    early = forward_messages(cg, order, sync_rounds=order.diameter - 1, level_pass=False)
    assert any(
        not np.allclose(early[key], at_dia[key], atol=1e-9)
        for key in early
    )


def test_engine_sums_a_hub_level_in_slot_order():
    # A hub with eight leaves and a path of two sends its one forward message
    # in a level of its own, from nine incoming messages and its own cost.
    # numpy adds a lone contiguous run of ten pairwise; the plan must add
    # them in slot order, as it adds every wider level.
    edges = [(0, 1), (0, 2)] + [(1, leaf) for leaf in range(3, 11)]
    for seed in range(20):
        cg = random_cg(np.random.default_rng(500 + seed), 11, edges)
        order = min_diameter_dag(cg)
        sched = order.schedule
        lone = [start for start, stop in sched.levels if stop - start == 1]
        assert sched.sender[lone].tolist() == [1]
        plan = loaded_plan(cg, order)
        for _ in range(2):
            for level in range(len(sched.levels)):
                plan.update(level)
        messages = np.ascontiguousarray(plan.messages[:, : len(sched.sender)].T)
        assert messages.tobytes() == row_major_messages(cg, order, 4).tobytes()


def test_decide_empty_table_uses_own_cost():
    cg = CoordinationGraph((0,), (), np.zeros((0, 4, 4)), [[3.0, 1.0, 2.0, 5.0]])
    plan = loaded_plan(cg, min_diameter_dag(cg))
    assert JointAssignment(cg.agents, plan.picks()) == {0: Phase(1)}


def test_decide_tie_break_lowest_index():
    cg = random_cg(np.random.default_rng(0), 2, [(0, 1)], scale=0.0)
    plan = loaded_plan(cg, min_diameter_dag(cg))
    assert JointAssignment(cg.agents, plan.picks()) == {0: Phase(0), 1: Phase(0)}


def test_decide_after_convergence_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        cg = two_agent_cg(rng)
        messages, plan = one_cycle(cg)
        joint = JointAssignment(cg.agents, plan.picks())
        assert joint == ScalarGraph(cg).decisions(messages)
        _, best = brute_force_optimum(cg)
        assert global_cost(cg, joint) == pytest.approx(best)


def test_coordinate_exact_on_arterial_path():
    rng = np.random.default_rng(11)
    cg = random_cg(rng, 8, [(k, k + 1) for k in range(7)])
    order = min_diameter_dag(cg)
    result = coordinate(cg, order, CoorBudget(rounds=2 * order.diameter))
    _, best = brute_force_optimum(cg)
    assert global_cost(cg, result.assignment) == pytest.approx(best)
    assert result.passes == 2


def test_coordinate_exact_on_random_trees():
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 9))
        cg = random_cg(rng, n, random_tree_edges(rng, n))
        order = min_diameter_dag(cg)
        result = coordinate(cg, order, CoorBudget(rounds=4 * max(order.diameter, 1)))
        _, best = brute_force_optimum(cg)
        assert global_cost(cg, result.assignment) == pytest.approx(best)


def test_coordinate_zero_budget_decides_from_own_costs():
    rng = np.random.default_rng(23)
    cg = random_cg(rng, 5, random_tree_edges(rng, 5))
    result = coordinate(cg, min_diameter_dag(cg), CoorBudget(rounds=0))
    expected = {a: Phase(int(np.argmin(cg.individual[k]))) for k, a in enumerate(cg.agents)}
    assert result.assignment == expected
    assert result.rounds == 0 and result.passes == 0


def test_coordinate_two_intersections_clears_exit_queue(fig_two):
    cg = build_cg(fig_two.state, fig_two.net, fig_two.turning)
    order = min_diameter_dag(cg)
    result = coordinate(cg, order, CoorBudget(rounds=4 * max(order.diameter, 1)))
    assert result.assignment[fig_two.i] == Phase.WE_LEFT
    assert global_cost(cg, result.assignment) == pytest.approx(16)


def test_coordinate_interrupted_mid_pass_returns_snapshot():
    rng = np.random.default_rng(31)
    cg = random_cg(rng, 6, [(k, k + 1) for k in range(5)])
    order = min_diameter_dag(cg)
    assert order.diameter >= 2
    result = coordinate(cg, order, CoorBudget(rounds=order.diameter + 1))
    assert result.passes == 1
    assert not result.converged
    assert set(result.assignment) == set(cg.agents)


def test_coordinate_wall_clock_zero_still_complete():
    rng = np.random.default_rng(37)
    cg = random_cg(rng, 4, random_tree_edges(rng, 4))
    result = coordinate(cg, min_diameter_dag(cg), CoorBudget(wall_ms=0))
    assert set(result.assignment) == set(cg.agents)
    assert result.rounds == 0


def test_coordinate_converges_and_stops_on_trees():
    rng = np.random.default_rng(41)
    cg = random_cg(rng, 7, random_tree_edges(rng, 7))
    order = min_diameter_dag(cg)
    result = coordinate(cg, order, CoorBudget(rounds=100 * order.diameter))
    assert result.converged
    # two cycles are enough to detect the fixpoint on trees
    assert result.passes <= 4


def test_coordinate_is_pinned_at_every_round_cap():
    # Every cap from 0 to past two cycles: interruptions inside a pass, pass
    # boundaries and the convergence stop on the chain. A rework of the
    # message plan or the schedule must keep these results bit for bit.
    digest = hashlib.sha256()
    rng = np.random.default_rng(2024)
    for rows, cols in ((5, 4), (1, 6)):
        net = build_grid(rows, cols)
        cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
        order = min_diameter_dag(cg)
        for k in range(4 * order.diameter + 2):
            result = coordinate(cg, order, CoorBudget(rounds=k))
            digest.update(repr((result.passes, result.rounds, result.converged)).encode())
            digest.update(result.assignment.phases.tobytes())
    assert digest.hexdigest()[:16] == "76bb3802011bf1e3"


def test_coordinate_results_outlive_the_shared_cost_buffer():
    # Every call on one order works in its plan: the message and cost
    # buffers and the level scratch. Graph A, then B, then A again give A's
    # first results, at a cap inside a pass after a finished pass and at caps
    # at and past the end of two cycles, and no result shares the plan's
    # memory.
    net = build_grid(4, 5)
    order = network_order(net)
    plan = message_plan(order)
    buffers = [plan.messages, plan.costs, *plan.snapshots]
    buffers += [buf for level in plan.levels for buf in (level.gathered, level.base, level.scores)]
    rng = np.random.default_rng(2025)
    a, b = (build_cg(random_macro_state(net, rng), net, random_turning(net, rng)) for _ in range(2))
    for rounds in (order.diameter + 1, 4 * order.diameter, 4 * order.diameter + 1):
        budget = CoorBudget(rounds=rounds)
        first = coordinate(a, order, budget)
        other = coordinate(b, order, budget)
        again = coordinate(a, order, budget)
        assert other.assignment != first.assignment
        assert again.assignment.phases.tobytes() == first.assignment.phases.tobytes()
        assert (again.passes, again.rounds, again.converged) == (first.passes, first.rounds, first.converged)
        for result in (first, other, again):
            assert not any(np.shares_memory(result.assignment.phases, buf) for buf in buffers)


def test_coordinate_stops_by_the_allclose_rule():
    # The cycle test reads the message columns only, as |a - b| <= 1e-9 or
    # a == b. That is np.allclose(rtol=0, atol=1e-9) over the whole buffer,
    # whose other columns never change within a call, with its cases for
    # inf and NaN, which costs scaled towards float64's limit produce.
    rng = np.random.default_rng(2026)
    converged, finite = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols in ((1, 6), (3, 3), (2, 5)):
            net = build_grid(rows, cols)
            cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
            order = network_order(net)
            for scale in (1.0, 1e150, 1e306, 1e308):
                tables = CoordinationGraph(cg.agents, cg.edges, cg.edge_costs * scale, cg.individual * scale)
                for cycles in (2, 4, 8):
                    rounds = 2 * cycles * order.diameter
                    got = coordinate(tables, order, CoorBudget(rounds=rounds))
                    finite.append(np.isfinite(message_plan(order).messages).all())
                    passes, done, closed, phases = oracle.allclose_coordinate(tables, order, rounds)
                    assert (got.passes, got.rounds, got.converged) == (passes, done, closed)
                    assert got.assignment.phases.tobytes() == phases.tobytes()
                    converged.append(closed)
    assert any(converged) and not all(converged)
    assert any(finite) and not all(finite)


# (now, a cycle before) of the first cell, which `_cycle_closed` reads first
PROBES = {
    "equal": (3.5, 3.5),
    "close": (1.0, 1.0 + 5e-10),
    "far": (1.0, 2.0),
    "inf-now": (np.inf, 1.0),
    "inf-before": (1.0, -np.inf),
    "inf-both": (np.inf, np.inf),
    "inf-opposite": (np.inf, -np.inf),
    "nan": (np.nan, 1.0),
    "nan-both": (np.nan, np.nan),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rest", ["equal", "moved"])
@pytest.mark.parametrize("probe", PROBES)
def test_cycle_closed_is_allclose(probe, rest):
    # the first cell's test decides alone only where allclose is false, and
    # neither part lets a warning out; the buffers are column views, as in
    # `coordinate`
    rng = np.random.default_rng(9)
    now, before = rng.random((2, 4, 9))[:, :, :7]
    before[...] = now
    if rest == "moved":
        now[3, 5] += 1.0
    now[0, 0], before[0, 0] = PROBES[probe]
    want = np.allclose(now, before, rtol=0, atol=1e-9)
    assert _cycle_closed(now, before) is want


def test_snapshot_costs_monotone_on_trees():
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(3, 9))
        cg = random_cg(rng, n, random_tree_edges(rng, n))
        order = min_diameter_dag(cg)
        # under a cap of k passes' rounds, the decision is pass k's snapshot
        d = max(order.diameter, 1)
        costs = [
            global_cost(cg, coordinate(cg, order, CoorBudget(rounds=k * d)).assignment)
            for k in range(1, 9)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_cycle_gap_reported_not_asserted(capsys):
    # On cyclic graphs the alternating scheme is a heuristic; measure the
    # optimality gap on small cycles and report it.
    gaps = []
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(4, 7))
        edges = [(k, (k + 1) % n) for k in range(n)]
        cg = random_cg(rng, n, edges)
        order = min_diameter_dag(cg)
        result = coordinate(cg, order, CoorBudget(rounds=20 * order.diameter))
        _, best = brute_force_optimum(cg)
        got = global_cost(cg, result.assignment)
        assert set(result.assignment) == set(cg.agents)
        gaps.append((got - best) / best if best > 0 else 0.0)
    print(f"\ncyclic-CG optimality gap: mean {np.mean(gaps):.4f}, max {max(gaps):.4f}")


def test_budget_validation():
    with pytest.raises(ValueError):
        CoorBudget()
    with pytest.raises(ValueError):
        CoorBudget(rounds=-1)
    for rounds in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"rounds cap must be an integer >= 0, got {rounds}"):
            CoorBudget(rounds=rounds)
    assert CoorBudget(rounds=np.int64(3)).rounds == 3
    assert CoorBudget(rounds=0).rounds == 0
    assert CoorBudget(wall_ms=100).wall_ms == 100
    scaled = CoorBudget(rounds=10, wall_ms=1000).scaled(0.8)
    assert scaled.rounds == 8 and scaled.wall_ms == 800


def test_engine_rejects_an_orientation_of_another_graph():
    rng = np.random.default_rng(43)
    cg = random_cg(rng, 4, [(0, 1), (1, 2), (2, 3)])
    other = random_cg(rng, 4, [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(ValueError, match="different coordination graph"):
        message_plan(min_diameter_dag(other)).load(cg)
    with pytest.raises(ValueError, match="different coordination graph"):
        coordinate(cg, min_diameter_dag(other), CoorBudget(rounds=4))
    order = reverse(min_diameter_dag(cg))
    message_plan(order).load(cg)
    assert order.schedule.agents == cg.agents


def test_plan_checks_a_new_edges_tuple_after_the_networks_graph():
    # The network's graph passes the layout check by identity once it has
    # loaded; a graph that shares only its agents tuple is still compared.
    net = build_grid(3, 4)
    rng = np.random.default_rng(44)
    cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
    order = network_order(net)
    plan = message_plan(order)
    plan.load(cg)
    fewer = CoordinationGraph(cg.agents, cg.edges[1:], cg.edge_costs[1:], cg.individual)
    assert fewer.agents is cg.agents
    with pytest.raises(ValueError, match="different coordination graph"):
        plan.load(fewer)
    with pytest.raises(ValueError, match="different coordination graph"):
        coordinate(fewer, order, CoorBudget(rounds=4))
    # equal tuples that are other objects pass, and so does the graph again
    plan.load(CoordinationGraph(tuple(list(cg.agents)), tuple(list(cg.edges)), cg.edge_costs, cg.individual))
    plan.load(cg)


@pytest.mark.parametrize(
    "caps",
    [
        {"wall_ms": float("nan")},
        {"wall_ms": float("inf")},
        {"rounds": float("nan")},
        {"wall_ms": True},
        {"wall_ms": "5"},
    ],
)
def test_budget_rejects_caps_that_switch_it_off(caps):
    with pytest.raises(ValueError, match="cap must be"):
        CoorBudget(**caps)
