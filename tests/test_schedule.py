"""The level-scheduled solver against synchronous rounds of the message rule.

`sync_coordinate` is the solver's reference: every round recomputes all of
one direction's messages from the previous round's table with the scalar
message rule of `oracle.ScalarGraph`, `diameter` rounds make a pass, a
forward and a reverse pass make the one cycle it runs, and decisions come
from its scalar `decide`. The level schedule must give the same decisions,
passes, rounds and convergence under every round cap at a pass end. Inside
a pass the two differ, since a level pass has sent fewer messages than
`diameter` synchronous rounds; there the decision must be the one
`oracle.row_major_picks` reads after the same number of levels.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    forward_messages,
    is_bipartite,
    loaded_plan,
    random_cg,
    random_connected_edges,
    random_macro_state,
    random_tree_edges,
    random_turning,
    row_pairs,
)
from netsignal.coordination import CoordinationGraph, build_cg, global_cost
from netsignal.messaging import CoorBudget, coordinate, message_plan
from netsignal.network import build_grid
from netsignal.ordering import min_diameter_dag, network_order
from oracle import ScalarGraph, brute_force_optimum, longest_directed_path, row_major_picks

PROPERTY_SETTINGS = settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])


def sync_coordinate(cg, order, rounds_cap):
    """A forward then a reverse pass of `diameter` synchronous rounds,
    capped in rounds; converged when the cycle ran on a tree."""
    ref = ScalarGraph(cg)
    table = {}
    done = 0
    for edges in (order.edges, tuple((v, u) for u, v in order.edges)):
        for _ in range(order.diameter):
            if done >= rounds_cap:
                return ref.decisions(table), done // order.diameter, done, False
            table = ref.sync_round(edges, table)
            done += 1
    tree = len(cg.edges) == len(cg.agents) - 1
    return ref.decisions(table), done // max(order.diameter, 1), done, tree


@st.composite
def loopy_graphs(draw):
    """Random connected graphs with at least one odd cycle."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 16))
    extra = draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    edges = random_connected_edges(rng, n, extra=extra)
    assume(not is_bipartite(n, edges))
    return random_cg(rng, n, edges)


@pytest.mark.parametrize("rows", range(2, 7))
@pytest.mark.parametrize("cols", range(2, 7))
def test_coordinate_matches_synchronous_rounds_on_grids(rows, cols):
    net = build_grid(rows, cols)
    rng = np.random.default_rng(1000 * rows + cols)
    cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
    order = min_diameter_dag(cg)
    for cap in [k * order.diameter for k in range(1, 5)]:
        got = coordinate(cg, order, CoorBudget(rounds=cap))
        want, passes, rounds, converged = sync_coordinate(cg, order, cap)
        assert got.assignment == want, cap
        assert (got.passes, got.rounds, got.converged) == (passes, rounds, converged), cap


@pytest.mark.parametrize("rows", range(2, 7))
@pytest.mark.parametrize("cols", range(2, 7))
def test_coordinate_decides_from_the_current_messages_at_every_cap(rows, cols):
    # at every cap, inside a pass or at its end, the decision is the argmin
    # of each agent's own cost plus the messages of the levels run so far;
    # also where costs scaled towards float64's limit overflow the messages
    net = build_grid(rows, cols)
    rng = np.random.default_rng(1000 * rows + cols)
    cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
    order = min_diameter_dag(cg)
    for scale in (1.0, 1e306):
        with np.errstate(over="ignore", invalid="ignore"):
            tables = CoordinationGraph(cg.agents, cg.edges, cg.edge_costs * scale, cg.individual * scale)
            for cap in range(4 * order.diameter + 2):
                got = coordinate(tables, order, CoorBudget(rounds=cap))
                assert got.rounds == min(cap, 2 * order.diameter), (scale, cap)
                want = row_major_picks(tables, order, got.rounds)
                assert got.assignment.phases.tolist() == want.tolist(), (scale, cap)


@PROPERTY_SETTINGS
@given(loopy_graphs())
def test_one_forward_pass_is_a_fixpoint_on_loopy_graphs(cg):
    order = min_diameter_dag(cg)
    table = forward_messages(cg, order)
    again = ScalarGraph(cg).sync_round(order.edges, table)
    for pair in order.edges:
        assert np.allclose(again[pair], table[pair], rtol=0.0, atol=1e-9)
    # the same messages, bit for bit, as `diameter` synchronous rounds
    rounds = forward_messages(cg, order, sync_rounds=order.diameter, level_pass=False)
    for pair in order.edges:
        assert np.array_equal(rounds[pair], table[pair])


def assert_messages_bounded(cg, order, passes=8):
    """Run `passes` alternating level passes on the message plan and check
    after each that every message is finite and at most the graph's largest
    edge cost plus its largest own cost in size. A message shifted to 0 at
    phase 0 is a difference of two entries of one edge table, in exact
    arithmetic; the own cost is slack for rounding."""
    plan = loaded_plan(cg, order)
    bound = cg.edge_costs.max(initial=0.0) + cg.individual.max(initial=0.0)
    diameter = order.diameter
    for p in range(passes):
        for level in range((p % 2) * diameter, (p % 2 + 1) * diameter):
            plan.update(level)
        messages = plan.messages[:, : plan.n_rows]
        assert np.isfinite(messages).all(), p
        assert np.abs(messages).max(initial=0.0) <= bound, p


@pytest.mark.parametrize("rows, cols", [(2, 3), (5, 5), (10, 10), (20, 20), (50, 50), (100, 100)])
def test_messages_stay_bounded_on_grids(rows, cols):
    net = build_grid(rows, cols)
    rng = np.random.default_rng(100 * rows + cols)
    cg = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
    assert_messages_bounded(cg, network_order(net))


@PROPERTY_SETTINGS
@given(loopy_graphs())
def test_messages_stay_bounded_on_loopy_graphs(cg):
    assert_messages_bounded(cg, min_diameter_dag(cg))


@PROPERTY_SETTINGS
@given(loopy_graphs())
def test_rounds_per_pass_equal_longest_directed_path(cg):
    order = min_diameter_dag(cg)
    assert order.diameter == longest_directed_path(order)
    # forward levels cover rows [0, E) and reverse levels rows [E, 2E)
    n_edges = len(order.edges)
    levels = message_plan(order).level_rows
    forward = [(a, b) for a, b in levels if b <= n_edges]
    reverse = [(a, b) for a, b in levels if a >= n_edges]
    assert len(forward) + len(reverse) == len(levels)
    assert len(forward) == len(reverse) == longest_directed_path(order)
    # the run capped at k passes' rounds stops at the end of pass min(k, 2),
    # and on a graph with cycles it never reports convergence
    results = [coordinate(cg, order, CoorBudget(rounds=k * order.diameter)) for k in range(1, 7)]
    seen = [(r.passes, r.rounds, r.converged) for r in results]
    assert seen == [(min(k, 2), min(k, 2) * order.diameter, False) for k in range(1, 7)]


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_one_cycle_is_optimal_on_trees(seed, n):
    # converged exactly at the caps that let the whole cycle run, and the
    # decision is then the optimum
    rng = np.random.default_rng(seed)
    cg = random_cg(rng, n, random_tree_edges(rng, n))
    order = min_diameter_dag(cg)
    _, best = brute_force_optimum(cg)
    for cap in range(2 * order.diameter + 3):
        result = coordinate(cg, order, CoorBudget(rounds=cap))
        assert result.converged == (cap >= 2 * order.diameter), cap
        if result.converged:
            assert result.passes == (2 if order.diameter else 0)
            assert global_cost(cg, result.assignment) == pytest.approx(best, abs=1e-9), cap


@PROPERTY_SETTINGS
@given(loopy_graphs(), st.integers(0, 2**32 - 1))
def test_incoming_sums_follow_edge_order(cg, seed):
    # Each agent's sum adds its incoming forward messages, then its incoming
    # reverse messages, each in edge order, whatever the level layout.
    order = min_diameter_dag(cg)
    rng = np.random.default_rng(seed)
    pairs = [*order.edges, *((v, u) for u, v in order.edges)]
    scales = 10.0 ** rng.integers(-3, 4, len(pairs))
    table = {pair: rng.random(4) * k for pair, k in zip(pairs, scales)}
    plan = loaded_plan(cg, order)
    for r, pair in enumerate(row_pairs(plan)):
        plan.messages[:, r] = table[pair]
    index = {a: k for k, a in enumerate(cg.agents)}
    src = [index[u] for u, _ in order.edges]
    dst = [index[v] for _, v in order.edges]
    want = np.zeros((len(cg.agents), 4))
    np.add.at(want, dst, np.array([table[(u, v)] for u, v in order.edges]))
    np.add.at(want, src, np.array([table[(v, u)] for u, v in order.edges]))
    assert np.array_equal(np.add.reduce(plan.messages.T.take(plan.slots, axis=0), axis=0, initial=0.0), want)
