"""`network.hop_distances`, the package's one hop-distance search, against
the scalar breadth-first searches in `oracle`.

The property test runs it on random connected and two-component graphs, from
every node at once and from drawn sources that may repeat. The route tests
hold its search over `MovementArrays.up_links` from every exit link to
`oracle.route_distances` on grids and on the non-grid roadnets.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_connected_edges, random_tree_edges
from netsignal.network import build_grid, gather_table, hop_distances, load_network, movement_arrays
from test_nongrid_roadnet import write_roadnet
from test_simulation import one_way_1x2


@st.composite
def graphs(draw):
    """(n, edges) of a random tree or loopy connected graph on nodes
    0..n-1, or of two of them side by side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, edges = 0, []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 20))
        if draw(st.booleans()):
            part = random_tree_edges(rng, size)
        else:
            part = random_connected_edges(rng, size, extra=draw(st.integers(0, size)))
        edges += [(i + n, j + n) for i, j in part]
        n += size
    return n, edges


def neighbour_table(n, edges):
    low, high = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return gather_table(np.concatenate((high, low)), np.concatenate((low, high)), n, n)


@settings(max_examples=150)
@given(graphs(), st.data())
def test_hop_distances_equal_the_scalar_search_from_every_source(graph, data):
    n, edges = graph
    adj = {k: [] for k in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    table = neighbour_table(n, edges)
    every = hop_distances(table, range(n))
    assert every.shape == (n, n)
    for source, row in enumerate(every.tolist()):
        reached = oracle._bfs_distances(adj, source)
        assert row == [reached.get(k, -1) for k in range(n)]
    sources = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    rows = hop_distances(table, sources)
    assert rows.shape == (len(sources), n)
    for source, row in zip(sources, rows):
        assert np.array_equal(row, hop_distances(table, [source])[0])


ROUTE_NETS = ["1x1", "1x5", "5x1", "2x3", "4x4", "diagonal", "1x2-one-way"]


@pytest.mark.parametrize("case", ROUTE_NETS)
def test_route_search_over_up_links_equals_the_scalar_search(tmp_path, case):
    if case == "diagonal":
        net = load_network(write_roadnet(tmp_path / "roadnet.json"))
    elif case == "1x2-one-way":
        net = one_way_1x2()  # some exits are unreachable from some links
    else:
        net = build_grid(*map(int, case.split("x")))
    arr = movement_arrays(net)
    exits = net.exit_links()
    dist = hop_distances(arr.up_links, [arr.link_index[x] for x in exits])
    for exit_link, row in zip(exits, dist.tolist()):
        reached = {arr.link_ids[k]: d for k, d in enumerate(row) if d >= 0}
        assert reached == oracle.route_distances(net, exit_link)
