"""Node indexing and typed neighbor structure of the (AP, user) grid graph.

The engine needs only (M, K); the neighbour lists checked here are the ones
the per-node reference in `reference` walks.
"""

import numpy as np
import pytest

from cfgnn.graph import build_graph
from reference import neighbor_graph, node_index, node_pair


def test_node_index_examples():
    assert node_index(0, 0, 3, 2) == 0
    assert node_index(2, 1, 3, 2) == 5


def test_node_index_roundtrip():
    for m, k in [(1, 1), (3, 2), (5, 7)]:
        for i in range(m * k):
            a, b = node_pair(i, m, k)
            assert node_index(a, b, m, k) == i


def test_node_index_range_errors():
    with pytest.raises(ValueError):
        node_index(3, 0, 3, 2)
    with pytest.raises(ValueError):
        node_index(0, 2, 3, 2)
    with pytest.raises(ValueError):
        node_pair(6, 3, 2)


def test_graph_counts_at_reference_size():
    g = neighbor_graph(32, 9)
    assert g.num_nodes == 288
    assert g.ue_neighbors.size == 32 * 9 * 31 == 8928
    assert g.ap_neighbors.size == 32 * 9 * 8 == 2304


def test_degenerate_graphs():
    g = neighbor_graph(1, 1)
    assert g.num_nodes == 1
    assert g.ue_neighbors.shape == (1, 0)
    assert g.ap_neighbors.shape == (1, 0)
    g = neighbor_graph(2, 2)
    assert g.ue_neighbors.size == 4
    assert g.ap_neighbors.size == 4


def test_neighbor_semantics_and_no_self_loops():
    m, k = 4, 3
    g = neighbor_graph(m, k)
    for i in range(g.num_nodes):
        a, b = node_pair(i, m, k)
        ue = set(g.ue_neighbors[i].tolist())
        ap = set(g.ap_neighbors[i].tolist())
        assert i not in ue and i not in ap
        assert ue == {node_index(a2, b, m, k) for a2 in range(m) if a2 != a}
        assert ap == {node_index(a, b2, m, k) for b2 in range(k) if b2 != b}
        assert not (ue & ap)
        assert len(ue | ap) == m + k - 2


def test_adjacency_symmetric():
    g = neighbor_graph(3, 4)
    for i in range(g.num_nodes):
        for j in g.ue_neighbors[i]:
            assert i in g.ue_neighbors[j]
        for j in g.ap_neighbors[i]:
            assert i in g.ap_neighbors[j]


def test_relabeling_consistency():
    """AP/user permutations act on node ids exactly through the index map."""
    m, k = 4, 3
    g = neighbor_graph(m, k)
    rng = np.random.default_rng(0)
    sigma = rng.permutation(m)
    rho = rng.permutation(k)
    relabel = np.empty(m * k, dtype=int)
    for i in range(m * k):
        a, b = node_pair(i, m, k)
        relabel[i] = node_index(sigma[a], rho[b], m, k)
    for i in range(m * k):
        mapped = set(relabel[g.ue_neighbors[i]].tolist())
        assert mapped == set(g.ue_neighbors[relabel[i]].tolist())
        mapped = set(relabel[g.ap_neighbors[i]].tolist())
        assert mapped == set(g.ap_neighbors[relabel[i]].tolist())


def test_build_graph_is_the_grid_size():
    g = build_graph(5, 2)
    assert (g.num_aps, g.num_ues) == (5, 2)
    with pytest.raises(ValueError):
        build_graph(0, 2)
