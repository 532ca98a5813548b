import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import cycle, graphs_st, petersen
from qcolor.graphs import (GraphError, cartesian_product, complement,
                           complete_graph, hadamard_graph, make_graph,
                           orthogonality_graph)


def test_make_graph_normalizes_and_sorts():
    g = make_graph(4, [(2, 1), (3, 0)])
    assert g.edge_array.tolist() == [[0, 3], [1, 2]]
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 1)


def test_make_graph_rejects_loops_range_and_duplicates():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 1), (1, 0)])


def test_neighbors_and_degree():
    g = petersen()
    assert all(g.degree(v) == 3 for v in range(10))
    assert sorted(g.neighbors(0)) == [1, 4, 5]


def adjacency_by_loop(g):
    """Reference: sorted neighbour arrays and bitsets from a loop over edges."""
    neigh = [[] for _ in range(g.n)]
    masks = [0] * g.n
    for u, v in g.edges():
        neigh[u].append(v)
        neigh[v].append(u)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return [np.array(sorted(a), dtype=np.int64) for a in neigh], tuple(masks)


def sparse_graphs():
    """Random graphs with isolated vertices (the top ids among them), plus
    the graphs on zero and one vertex."""
    yield pytest.param(make_graph(0, []), id="n0")
    yield pytest.param(make_graph(1, []), id="n1")
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        live = int(rng.integers(1, n))
        edges = [(u, v) for u in range(live) for v in range(u + 1, live)
                 if rng.random() < rng.uniform(0.05, 0.6)]
        yield pytest.param(make_graph(n, edges), id=f"seed{seed}")


@pytest.mark.parametrize("g", list(sparse_graphs()))
def test_adjacency_matches_edge_loop(g):
    neigh, _ = adjacency_by_loop(g)
    assert len(g._adjacency) == g.n
    for v in range(g.n):
        assert g.neighbors(v).dtype == np.int64
        assert np.array_equal(g.neighbors(v), neigh[v])
        assert g.degree(v) == len(neigh[v])
        for w in range(g.n):
            assert g.has_edge(v, w) == (w in neigh[v].tolist())


@pytest.mark.parametrize("g", list(sparse_graphs()))
def test_masks_match_edge_loop(g):
    assert g.masks == adjacency_by_loop(g)[1]


def test_complement_involution():
    g = petersen()
    assert np.array_equal(complement(complement(g)).edge_array, g.edge_array)


def test_complete_graph_edge_count():
    assert complete_graph(6).edge_array.shape[0] == 15


@given(graphs_st())
def test_complement_partitions_pairs(g):
    comp = complement(g)
    n = g.n
    assert g.edge_array.shape[0] + comp.edge_array.shape[0] == n * (n - 1) // 2
    for u in range(n):
        for v in range(u + 1, n):
            assert g.has_edge(u, v) != comp.has_edge(u, v)


def test_cartesian_product_k2_k2_is_c4():
    prod = cartesian_product(complete_graph(2), complete_graph(2))
    assert prod.n == 4
    assert prod.edge_array.shape[0] == 4
    degs = [prod.degree(v) for v in range(4)]
    assert degs == [2, 2, 2, 2]


def test_cartesian_product_sizes():
    g, h = cycle(5), complete_graph(3)
    prod = cartesian_product(g, h)
    assert prod.n == 15
    # |E(GxH)| = |E(G)|*|V(H)| + |V(G)|*|E(H)|
    assert prod.edge_array.shape[0] == 5 * 3 + 5 * 3


def test_cartesian_product_adjacency_rule():
    g, h = cycle(4), complete_graph(2)
    prod = cartesian_product(g, h)
    for u in range(g.n):
        for i in range(h.n):
            for v in range(g.n):
                for j in range(h.n):
                    a, b = u * h.n + i, v * h.n + j
                    if a >= b:
                        continue
                    expect = (u == v and h.has_edge(i, j)) or \
                             (i == j and g.has_edge(u, v))
                    assert prod.has_edge(a, b) == expect


def test_hadamard_graph_small():
    g = hadamard_graph(4)
    assert g.n == 16
    # vertices adjacent iff Hamming distance exactly 2
    assert g.has_edge(0b0000, 0b0011)
    assert not g.has_edge(0b0000, 0b0001)
    assert not g.has_edge(0b0000, 0b1111)
    assert g.edge_array.shape[0] == 16 * 6 // 2


@pytest.mark.parametrize("n_bits", [2, 4, 6, 8])
def test_hadamard_graph_matches_definition(n_bits):
    """Edges are exactly the pairs u < v at Hamming distance N/2."""
    u, v = np.triu_indices(1 << n_bits, k=1)
    far = np.bitwise_count(u ^ v) == n_bits // 2
    want = np.stack([u[far], v[far]], axis=1)
    assert np.array_equal(hadamard_graph(n_bits).edge_array, want)


def test_hadamard_graph_rejects_odd():
    with pytest.raises(ValueError):
        hadamard_graph(5)


def test_orthogonality_graph_standard_basis():
    vecs = np.eye(3, dtype=complex)
    g = orthogonality_graph(vecs)
    assert g.n == 3 and g.edge_array.shape[0] == 3


def test_orthogonality_graph_tolerance():
    vecs = np.array([[1.0, 0.0], [1e-12, 1.0]], dtype=complex)
    assert orthogonality_graph(vecs).edge_array.shape[0] == 1
    assert orthogonality_graph(vecs, tol=1e-15).edge_array.shape[0] == 0
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(GraphError, match="tol must be positive"):
            orthogonality_graph(vecs, tol=bad)


@given(st.integers(min_value=1, max_value=6))
def test_complete_graph_has_all_edges(n):
    g = complete_graph(n)
    assert all(g.has_edge(u, v) for u in range(n) for v in range(u + 1, n))
