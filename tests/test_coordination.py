import itertools
import tracemalloc

import numpy as np
import pytest

import oracle
from conftest import random_cg, random_macro_state, random_turning
from netsignal.coordination import CoordinationGraph, build_cg, global_cost
from netsignal.network import NUM_PHASES, Phase, build_grid, movement_arrays
from netsignal.prediction import period_model
from netsignal.simulation import balance_index, initial_state, predict_next_queues


def test_two_intersection_individual_costs(fig_two):
    cg = build_cg(fig_two.state, fig_two.net, fig_two.turning)
    assert cg.agents == (fig_two.i, fig_two.j) and cg.edges == ((fig_two.i, fig_two.j),)
    ci = cg.individual[0]
    assert ci[Phase.WE_LEFT] == 16
    assert ci[Phase.WE_STRAIGHT] == 4
    # releasing the through queue loads the internal link for any x_j
    table = cg.edge_costs[0]
    assert np.all(table[Phase.WE_STRAIGHT, :] == 16)
    assert np.all(table[Phase.WE_LEFT, :] == 0)


def test_edges_follow_internal_links():
    net = build_grid(2, 3)
    state = initial_state(net)
    cg = build_cg(state, net, random_turning(net, np.random.default_rng(0)))
    topo = oracle.topology(net)
    assert cg.edges == tuple(
        sorted((i, j) for i in net.intersections for j in topo.neighbors[i] if i < j)
    )
    assert cg.agents == tuple(sorted(net.intersections))
    assert cg.edge_costs.shape == (len(cg.edges), 4, 4)
    assert cg.individual.shape == (len(cg.agents), 4)
    for k, i in enumerate(cg.agents):
        if i not in topo.boundary:
            assert np.all(cg.individual[k] == 0)


def test_zero_state_zero_costs():
    net = build_grid(2, 2)
    turning = random_turning(net, np.random.default_rng(1), max_demand=0.0)
    turning.d = np.zeros_like(turning.d)
    cg = build_cg(initial_state(net), net, turning)
    assert np.all(cg.edge_costs == 0)
    assert np.all(cg.individual == 0)


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_cost_sum_equals_predicted_balance(rows, cols):
    net = build_grid(rows, cols)
    rng = np.random.default_rng(rows * 10 + cols)
    for _ in range(25):
        state = random_macro_state(net, rng)
        turning = random_turning(net, rng)
        cg = build_cg(state, net, turning)
        x = {i: Phase(int(rng.integers(4))) for i in net.intersections}
        expected = balance_index(predict_next_queues(state, x, net, turning))
        got = global_cost(cg, x)
        assert got == pytest.approx(expected, rel=1e-9)


def test_edge_cost_depends_only_on_queues_feeding_it():
    # An edge's table covers its two links' next-period queues: it may react
    # to the queues sitting on those links and to queues releasing onto them,
    # but to nothing else. Perturb queues at the far end of a 1x3 arterial
    # and on movements at agent 1 that do not feed the (0, 1) links.
    net = build_grid(1, 3)
    rng = np.random.default_rng(5)
    state = random_macro_state(net, rng)
    turning = random_turning(net, rng)
    base = build_cg(state, net, turning).edge_costs[0].copy()
    link_01 = {
        l
        for l in net.internal_links()
        if {net.links[l].start, net.links[l].end} == {0, 1}
    }
    from dataclasses import replace

    bumped = state.q.copy()
    changed = 0
    for k, m in enumerate(net.movements):
        touches_edge = m.frm in link_01 or m.to in link_01
        if not touches_edge and m.intersection in (1, 2):
            bumped[k] += 3
            changed += 1
    assert changed > 0
    perturbed = build_cg(replace(state, q=bumped), net, turning)
    assert perturbed.edges[0] == (0, 1)
    perturbed = perturbed.edge_costs[0]
    assert np.array_equal(base, perturbed)


def test_costs_finite_and_non_negative():
    net = build_grid(3, 3)
    rng = np.random.default_rng(2)
    state = random_macro_state(net, rng)
    cg = build_cg(state, net, random_turning(net, rng))
    for table in (cg.edge_costs, cg.individual):
        assert np.all(np.isfinite(table)) and np.all(table >= 0)


def test_global_cost_zero_tables():
    cg = random_cg(np.random.default_rng(0), 3, [(0, 1), (1, 2)], scale=0.0)
    assert global_cost(cg, {0: Phase(0), 1: Phase(1), 2: Phase(2)}) == 0


def test_global_cost_single_agent():
    cg = random_cg(np.random.default_rng(4), 1, [])
    for p in Phase:
        assert global_cost(cg, {0: p}) == pytest.approx(cg.individual[0][int(p)])


def test_global_cost_matches_double_loop():
    rng = np.random.default_rng(9)
    cg = random_cg(rng, 3, [(0, 1), (1, 2)])
    for x0, x1, x2 in itertools.product(range(4), repeat=3):
        x = {0: Phase(x0), 1: Phase(x1), 2: Phase(x2)}
        manual = (
            cg.individual[0][x0]
            + cg.individual[1][x1]
            + cg.individual[2][x2]
            + cg.edge_costs[0][x0, x1]
            + cg.edge_costs[1][x1, x2]
        )
        assert global_cost(cg, x) == pytest.approx(manual)


def test_global_cost_missing_agent():
    cg = random_cg(np.random.default_rng(0), 2, [(0, 1)])
    with pytest.raises(ValueError, match="missing"):
        global_cost(cg, {0: Phase(0)})


def test_brute_force_single_agent_vector():
    cg = CoordinationGraph((0,), (), np.zeros((0, 4, 4)), [[3.0, 1.0, 2.0, 5.0]])
    assignment, cost = oracle.brute_force_optimum(cg)
    assert assignment == {0: Phase(1)}
    assert cost == 1


def test_brute_force_two_intersections(fig_two):
    cg = build_cg(fig_two.state, fig_two.net, fig_two.turning)
    assignment, cost = oracle.brute_force_optimum(cg)
    assert assignment[fig_two.i] == Phase.WE_LEFT
    assert cost == 16


def test_brute_force_matches_exhaustive_cycle():
    rng = np.random.default_rng(13)
    cg = random_cg(rng, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assignment, cost = oracle.brute_force_optimum(cg)
    best = min(
        global_cost(cg, {k: Phase(v) for k, v in enumerate(xs)})
        for xs in itertools.product(range(4), repeat=4)
    )
    assert cost == pytest.approx(best)
    assert global_cost(cg, assignment) == pytest.approx(cost)


def test_brute_force_tie_break_lexicographic():
    cg = random_cg(np.random.default_rng(0), 2, [(0, 1)], scale=0.0)
    assignment, cost = oracle.brute_force_optimum(cg)
    assert assignment == {0: Phase(0), 1: Phase(0)}
    assert cost == 0


def test_brute_force_agent_cap():
    rng = np.random.default_rng(1)
    cg = random_cg(rng, 11, [(k, k + 1) for k in range(10)])
    with pytest.raises(ValueError, match="capped"):
        oracle.brute_force_optimum(cg)


@pytest.mark.parametrize(
    "agents,edges,n_tables",
    [
        ((1, 0), ((0, 1),), 1),  # unsorted agents
        ((0, 0), (), 0),  # repeated agent
        ((0, 1), ((1, 0),), 1),  # edge not (i < j)
        ((0, 1, 2), ((1, 2), (0, 1)), 2),  # edges out of order
        ((0, 1), ((0, 1), (0, 1)), 2),  # repeated edge
        ((0, 1, 2), ((0, 1),), 2),  # one table too many
        ((0, 2), ((0, 1),), 1),  # edge to no agent
        ((0, 1, 2), [[0, 1], [1, 2]], 2),  # pairs as lists, as JSON reads them
        ((0, "a"), (), 0),  # agents that do not compare
        ((0, 1), ((0, 1, 2),), 1),  # an edge of three ends
        ((0, 1), ((0,),), 1),  # an edge of one end
        ((0, 1), ((0, "a"),), 1),  # an end that is no agent and does not compare
        (([0], [1]), (), 0),  # agents that compare but do not hash
    ],
)
def test_graph_rejects_non_canonical_layout(agents, edges, n_tables):
    with pytest.raises(ValueError) as caught:
        CoordinationGraph(agents, edges, np.zeros((n_tables, 4, 4)), np.zeros((len(agents), 4)))
    # each is named by a layout message, or by the table shapes where only
    # the table count is wrong; a layout is named for its agents exactly when
    # they are out of order, repeated or do not compare
    edges_named = "edges must be sorted, distinct (i, j) pairs with i < j"
    layouts = ("agents must be sorted and distinct", edges_named, "edges must join agents")
    assert str(caught.value) in layouts or str(caught.value).startswith("table shapes")
    ordered = all(type(a) is int for a in agents) and list(agents) == sorted(set(agents))
    assert ("agents must be sorted and distinct" in str(caught.value)) != ordered


def test_graph_rejects_wrong_individual_shape():
    with pytest.raises(ValueError, match="shapes"):
        CoordinationGraph((0, 1), ((0, 1),), np.zeros((1, 4, 4)), np.zeros((1, 4)))
    with pytest.raises(ValueError, match="shapes"):
        CoordinationGraph((0, 1), ((0, 1),), np.zeros((1, 4, 3)), np.zeros((2, 4)))


def test_build_cg_allocates_less_than_one_contribution():
    # The pair terms are the model's and the edge gather is the network's
    # buffer, which numpy writes without a temporary of its size, so a graph
    # allocates only the tables, less than one pair-term table.
    net = build_grid(20, 20)
    rng = np.random.default_rng(15)
    state, turning = random_macro_state(net, rng), random_turning(net, rng)
    model = period_model(net, state, turning)
    build_cg(state, net, turning, model=model)
    one_table = NUM_PHASES * NUM_PHASES * (movement_arrays(net).n_mov + 1) * 8
    tracemalloc.start()
    try:
        build_cg(state, net, turning, model=model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_table


def test_models_of_one_network_never_read_each_others_pair_terms():
    # Each model owns its pair terms, and the readers share the network's
    # other buffers. Models and graphs of states A and B, in the order A, B,
    # A, give A's tables of a fresh network, whichever of A's readers comes
    # first.
    rng = np.random.default_rng(17)
    net = build_grid(4, 5)
    states = [(random_macro_state(net, rng), random_turning(net, rng)) for _ in range(2)]
    actions = rng.integers(0, NUM_PHASES, 20).astype(np.intp)

    def tables(net, model, state, turning, sweep_first):
        if sweep_first:
            scores = model.sweep_scores(actions).tobytes()
        cg = build_cg(state, net, turning, model=model)
        if not sweep_first:
            scores = model.sweep_scores(actions).tobytes()
        return cg.edge_costs.tobytes(), cg.individual.tobytes(), scores

    fresh = build_grid(4, 5)
    want = tables(fresh, period_model(fresh, *states[0]), *states[0], False)
    a, b = (period_model(net, *state) for state in states)
    for sweep_first in (False, True):
        assert tables(net, a, *states[0], sweep_first) == want
        assert tables(net, b, *states[1], sweep_first) != want
        assert tables(net, a, *states[0], sweep_first) == want
    arr = movement_arrays(net)
    buffers = [v for owner in (arr, a.columns) for v in vars(owner).values() if isinstance(v, np.ndarray)]
    assert not any(np.shares_memory(a.terms, buf) for buf in [b.terms, *buffers])


def test_build_cg_graphs_keep_their_tables():
    # a later period rewrites the network's buffers, never an earlier graph
    net = build_grid(4, 5)
    rng = np.random.default_rng(16)
    first = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
    tables = first.edge_costs.tobytes(), first.individual.tobytes()
    second = build_cg(random_macro_state(net, rng), net, random_turning(net, rng))
    assert second.edge_costs.tobytes() != tables[0]
    assert (first.edge_costs.tobytes(), first.individual.tobytes()) == tables
