import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import netsignal.improvement as improvement
import netsignal.ordering as ordering
from conftest import (
    is_bipartite,
    random_cg,
    random_connected_edges,
    random_macro_state,
    random_tree_edges,
    random_turning,
    row_pairs,
)
from netsignal.coordination import CoordinationGraph, build_cg
from netsignal.improvement import plan_phases_detailed
from netsignal.messaging import message_plan
from netsignal.network import build_grid
from netsignal.ordering import TopologyError, min_diameter_dag, network_order
from oracle import eccentricity, followers, min_diameter_order, reverse


def path_cg(n):
    rng = np.random.default_rng(0)
    return random_cg(rng, n, [(k, k + 1) for k in range(n - 1)])


def grid_cg(rows, cols, seed=0):
    net = build_grid(rows, cols)
    rng = np.random.default_rng(seed)
    return build_cg(random_macro_state(net, rng), net, random_turning(net, rng))


def bfs_ecc_oracle(edges, n, source):
    adj = {k: set() for k in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    assert len(dist) == n
    return max(dist.values())


def test_eccentricity_path_center():
    cg = path_cg(3)
    assert eccentricity(cg, 1) == 1
    assert eccentricity(cg, 0) == 2
    assert eccentricity(cg, 2) == 2


def test_eccentricity_grid_corner():
    cg = grid_cg(4, 4)
    assert eccentricity(cg, 0) == 6


def test_eccentricity_disconnected_raises():
    cg = CoordinationGraph((0, 1, 2), ((0, 1),), np.zeros((1, 4, 4)), np.zeros((3, 4)))
    with pytest.raises(TopologyError):
        eccentricity(cg, 0)
    with pytest.raises(TopologyError):
        min_diameter_dag(cg)


def test_min_diameter_path():
    order = min_diameter_dag(path_cg(3))
    assert order.sink == 1
    assert set(order.edges) == {(0, 1), (2, 1)}
    assert order.diameter == 1


def test_min_diameter_single_agent():
    cg = CoordinationGraph((0,), (), np.zeros((0, 4, 4)), np.zeros((1, 4)))
    order = min_diameter_dag(cg)
    assert order.sink == 0
    assert order.edges == ()
    assert order.diameter == 0


def test_min_diameter_3x3_center():
    order = min_diameter_dag(grid_cg(3, 3))
    assert order.sink == 4
    assert order.diameter == 2


def test_edges_point_toward_sink():
    order = min_diameter_dag(grid_cg(4, 5))
    for u, v in order.edges:
        du, dv = order.dist[u], order.dist[v]
        assert du > dv or (du == dv and u > v)


def test_reverse_is_involution():
    order = min_diameter_dag(grid_cg(4, 4))
    assert reverse(reverse(order)) == order
    assert reverse(order).diameter == order.diameter


def test_reverse_single_agent_unchanged():
    order = min_diameter_dag(CoordinationGraph((0,), (), np.zeros((0, 4, 4)), np.zeros((1, 4))))
    assert reverse(order) == order


def test_reverse_path():
    order = min_diameter_dag(path_cg(3))
    flipped = reverse(order)
    assert set(flipped.edges) == {(1, 0), (1, 2)}


def test_orientation_acyclic_by_topological_sort():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        edges = random_connected_edges(rng, n, extra=int(rng.integers(0, n)))
        order = min_diameter_dag(random_cg(rng, n, edges))
        indeg = {a: 0 for a in range(n)}
        foll = followers(order)
        for _, v in order.edges:
            indeg[v] += 1
        ready = [a for a, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            u = ready.pop()
            seen += 1
            for v in foll[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        assert seen == n


def test_determinism():
    a = min_diameter_dag(grid_cg(3, 4, seed=7))
    b = min_diameter_dag(grid_cg(3, 4, seed=7))
    assert a == b


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (4, 4), (5, 5), (1, 7)])
def test_sink_minimizes_eccentricity_on_grids(rows, cols):
    cg = grid_cg(rows, cols)
    order = min_diameter_dag(cg)
    n = len(cg.agents)
    eccs = {a: bfs_ecc_oracle(cg.edges, n, a) for a in cg.agents}
    assert eccs[order.sink] == min(eccs.values())
    assert order.diameter == eccs[order.sink]


def test_sink_minimizes_eccentricity_random_graphs():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 31))
        edges = random_connected_edges(rng, n, extra=int(rng.integers(0, n // 2 + 1)))
        cg = random_cg(rng, n, edges)
        order = min_diameter_dag(cg)
        eccs = {a: bfs_ecc_oracle(edges, n, a) for a in range(n)}
        assert eccs[order.sink] == min(eccs.values())


@st.composite
def connected_graphs(draw):
    """Random trees and connected graphs with an odd cycle, on agent ids
    0..n-1 or on sparse ids."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        edges = random_tree_edges(rng, n)
    else:
        edges = random_connected_edges(rng, n, extra=draw(st.integers(1, n + 1)))
        assume(not is_bipartite(n, edges))
    ids = np.arange(n)
    if draw(st.booleans()):
        ids = np.sort(rng.choice(10**6, size=n, replace=False))
    agents = tuple(ids.tolist())
    pairs = sorted((agents[i], agents[j]) for i, j in edges)
    return CoordinationGraph(agents, pairs, np.zeros((len(pairs), 4, 4)), np.zeros((n, 4)))


@settings(max_examples=150, suppress_health_check=[HealthCheck.filter_too_much])
@given(connected_graphs())
def test_orientation_equals_the_all_bfs_oracle(cg):
    order = min_diameter_dag(cg)
    sink, edges, dist, diameter, forward, reverse_levels = min_diameter_order(cg)
    assert (order.sink, order.edges, order.dist, order.diameter) == (sink, edges, dist, diameter)
    plan = message_plan(order)
    pairs = row_pairs(plan)
    levels = [pairs[a:b] for a, b in plan.level_rows]
    assert levels[:diameter] == forward and levels[diameter:] == reverse_levels


def test_network_order_is_oriented_once_per_network(monkeypatch):
    net = build_grid(3, 4)
    order = network_order(net)
    assert network_order(net) is order

    def orient_again(*args):
        raise AssertionError("oriented the network again")

    used = []
    coordinate = improvement.coordinate
    monkeypatch.setattr(ordering, "_orient", orient_again)
    monkeypatch.setattr(
        improvement, "coordinate", lambda cg, o, budget: used.append(o) or coordinate(cg, o, budget)
    )
    rng = np.random.default_rng(3)
    for _ in range(4):
        plan_phases_detailed(random_macro_state(net, rng), net, random_turning(net, rng))
    assert len(used) == 4 and all(o is order for o in used)
