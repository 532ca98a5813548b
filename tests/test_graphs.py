import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import adjacency, cycle, graphs_st, petersen
from qcolor import datasets, ks, linalg, reps
from qcolor.graphs import (GraphError, cartesian_product, complement,
                           complete_graph, hadamard_graph, make_graph,
                           orthogonality_graph)


def test_make_graph_normalizes_and_sorts():
    g = make_graph(4, [(2, 1), (3, 0)])
    assert g.edge_array.tolist() == [[0, 3], [1, 2]]
    assert repr(g) == "Graph(n=4, m=2)"
    adj = adjacency(g)
    assert adj[1, 2] and adj[2, 1]
    assert not adj[0, 1]


def test_make_graph_rejects_loops_range_and_duplicates():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 1), (1, 0)])


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


@pytest.mark.parametrize("g", [
    *sparse_graphs(), pytest.param(petersen(), id="petersen"),
    pytest.param(make_graph(9, [(1, 3), (1, 8), (3, 5), (5, 8), (2, 6)]),
                 id="isolated-0-4-7")])
def test_adjacency_matches_edge_loop(monkeypatch, g):
    """The neighbour lists the orthogonal-representation search hands
    _polish are each vertex's neighbours, sorted, as int64 arrays: the rows
    of its half-edges, with an empty row for an isolated vertex.  A graph
    without edges needs no search, so nothing is polished."""
    neigh, _ = adjacency_by_loop(g)
    handed = []

    def spy(x, neighbors, tol):
        handed.append(neighbors)
        return polish(x, neighbors, tol)

    polish = reps._polish
    monkeypatch.setattr(reps, "_polish", spy)
    c = int(max(map(len, neigh), default=0)) + 1  # a coloring exists: found
    assert reps.search_orthogonal_representation(g, c).found
    assert bool(handed) == (g.m > 0)
    for lists in handed:
        assert len(lists) == g.n
        for v in range(g.n):
            assert lists[v].dtype == np.int64
            assert np.array_equal(lists[v], neigh[v])


@pytest.mark.parametrize("g", list(sparse_graphs()))
def test_masks_match_edge_loop(g):
    neigh, masks = adjacency_by_loop(g)
    assert g.masks == masks
    assert [np.flatnonzero(row).tolist() for row in adjacency(g)] == [
        a.tolist() for a in neigh]


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
            assert adjacency(g)[u, v] != adjacency(comp)[u, v]


def test_cartesian_product_k2_k2_is_c4():
    prod = cartesian_product(complete_graph(2), complete_graph(2))
    assert prod.n == 4
    assert prod.edge_array.shape[0] == 4
    degs = [int(adjacency(prod)[v].sum()) for v in range(4)]
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
                    expect = (u == v and adjacency(h)[i, j]) or \
                             (i == j and adjacency(g)[u, v])
                    assert adjacency(prod)[a, b] == expect


def test_hadamard_graph_small():
    g = hadamard_graph(4)
    assert g.n == 16
    # vertices adjacent iff Hamming distance exactly 2
    adj = adjacency(g)
    assert adj[0b0000, 0b0011]
    assert not adj[0b0000, 0b0001]
    assert not adj[0b0000, 0b1111]
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


def ray_array(name):
    """A bundled set, {0,+-1}^d (signsd), or the rank-1 coloring vectors of
    Omega_8, canonicalized (omega8) or raw, 2048 rows in many row blocks."""
    if name in datasets.BUNDLED:
        return ks.canonicalize(datasets.load_vector_set(name)[0].vectors).vectors
    if name.startswith("signs"):
        return ks.canonicalize([np.array(v, dtype=float) for v in itertools.product(
            (-1, 0, 1), repeat=int(name[5:])) if any(v)]).vectors
    raw = reps.hadamard_quantum_coloring(8).table.reshape(-1, 8)
    return ks.canonicalize(raw).vectors if name == "omega8" else raw


@pytest.mark.parametrize("name", [*datasets.BUNDLED, "signs4", "signs5",
                                  "signs6", "omega8", "omega8-raw"])
def test_orthogonality_graph_matches_the_dense_gram(name):
    """The blocked build keeps exactly the edges of the whole k x k Gram."""
    vecs = ray_array(name)
    dense = np.argwhere(np.triu(np.abs(vecs.conj() @ vecs.T) <= 1e-9, k=1))
    g = orthogonality_graph(vecs)
    assert g.m > 0 and np.array_equal(g.edge_array, dense)


def test_orthogonality_graph_peaks_within_the_block_budget():
    """4,096 rays, the columns of 1,024 random unitaries of C^4, make exactly
    the 6,144 pairs inside each basis, with a traced peak under twice
    linalg.BLOCK_BYTES: each block of Gram rows, with its modulus and mask,
    is sized from the budget, where 512 rows of 4,096 columns took 48 MB."""
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.normal(size=(1024, 4, 4)) + 1j * rng.normal(size=(1024, 4, 4)))[0]
    vecs = q.transpose(0, 2, 1).reshape(-1, 4)
    tracemalloc.start()
    try:
        g = orthogonality_graph(vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    i, j = np.triu_indices(4, 1)
    within = (4 * np.arange(1024)[:, None, None] + np.stack([i, j], axis=1)).reshape(-1, 2)
    assert np.array_equal(g.edge_array, within)
    assert peak < 2 * linalg.BLOCK_BYTES, peak


@given(st.integers(min_value=1, max_value=6))
def test_complete_graph_has_all_edges(n):
    g = complete_graph(n)
    assert all(adjacency(g)[u, v] for u in range(n) for v in range(u + 1, n))
