"""Simple undirected graphs and the constructions the rest of the package needs.

Vertices are integers 0..n-1.  Edges are unordered pairs stored once with
u < v, lexicographically sorted, so two graphs compare equal iff they have
identical vertex counts and edge sets.

Neighbour queries read sorted per-vertex arrays, O(m) in all.  The exact
searches (DSATUR, clique, basis enumeration, the KS search) all read one int
bitset per vertex, Graph.masks, and keep explicit stacks, never recursion.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np


class GraphError(ValueError):
    """Raised for structurally invalid graph input (self-loop, bad endpoint, ...)."""


class Graph:
    """Immutable simple graph.

    Parameters
    ----------
    n : vertex count.
    edges : iterable of (u, v) pairs, or an (m, 2) integer array.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be pairs")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                bad = arr[(arr < 0).any(axis=1) | (arr >= n).any(axis=1)][0]
                raise GraphError(f"edge endpoint out of range: {tuple(bad)}")
            loops = arr[:, 0] == arr[:, 1]
            if loops.any():
                raise GraphError(f"self-loop rejected: {tuple(arr[loops][0])}")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            arr = np.stack([lo, hi], axis=1)
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
            dup = (np.diff(arr[:, 0]) == 0) & (np.diff(arr[:, 1]) == 0)
            if dup.any():
                i = int(np.flatnonzero(dup)[0])
                raise GraphError(f"duplicate edge rejected: {tuple(arr[i])}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edge_array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return self.edge_array.shape[0]

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, ...]:
        # both orientations sorted by (source, target), split per source: O(m)
        arcs = np.concatenate([self.edge_array, self.edge_array[:, ::-1]])
        arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
        cuts = np.searchsorted(arcs[:, 0], np.arange(1, self.n))
        return tuple(np.split(arcs[:, 1].copy(), cuts)) if self.n else ()

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Adjacency bitsets for the exact searches: bit w of masks[v] is set
        iff v ~ w.  They take up to n^2/8 bytes in all, so neighbors, degree
        and has_edge read the O(m) lists instead."""
        masks = [0] * self.n
        for u, v in self.edge_array.tolist():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def neighbors(self, v: int) -> np.ndarray:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        a = self._adjacency[u]
        i = np.searchsorted(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, v in self.edge_array:
            yield int(u), int(v)

    # -- structural equality ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a normalized :class:`Graph`, rejecting loops and duplicates."""
    return Graph(n, edges)


def complete_graph(c: int) -> Graph:
    if c < 1:
        raise GraphError(f"complete graph needs at least one vertex, got {c}")
    iu = np.triu_indices(c, k=1)
    return Graph(c, np.stack(iu, axis=1))


def complement(g: Graph) -> Graph:
    """Edge iff not an edge in g (on the same vertex set).  An involution."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    if g.m:
        adj[g.edge_array[:, 0], g.edge_array[:, 1]] = True
    iu = np.triu_indices(g.n, k=1)
    keep = ~adj[iu]
    return Graph(g.n, np.stack([iu[0][keep], iu[1][keep]], axis=1))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (v,i) ~ (w,j) iff v=w and i~j, or v~w and i=j.

    Vertex (v, i) gets id v*|V(h)| + i, so factor coordinates are recoverable
    by divmod.
    """
    nh = h.n
    parts = []
    if g.m:
        ge = g.edge_array[:, :, None] * nh + np.arange(nh)  # (mG, 2, nH)
        parts.append(ge.transpose(0, 2, 1).reshape(-1, 2))
    if h.m:
        he = h.edge_array[None, :, :] + (np.arange(g.n) * nh)[:, None, None]
        parts.append(he.reshape(-1, 2))
    edges = np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.int64)
    return Graph(g.n * nh, edges)


def hadamard_graph(n_bits: int) -> Graph:
    """Vertices are bitstrings of length ``n_bits``; edges at Hamming distance
    exactly ``n_bits``/2.

    Odd lengths are rejected: the distance condition would be unsatisfiable and
    a silently empty graph hides bugs.
    """
    if n_bits < 2 or n_bits % 2 != 0:
        raise GraphError(
            f"hadamard graph needs even length >= 2 (distance N/2 must be integral), got {n_bits}")
    u = np.arange(1 << n_bits, dtype=np.int64)
    v = u[:, None] ^ u[np.bitwise_count(u) == n_bits // 2]  # u xor t, |t| = N/2
    rows, cols = np.nonzero(u[:, None] < v)
    return Graph(u.size, np.stack([rows, v[rows, cols]], axis=1))


def orthogonality_graph(vector_set, tol: float = 1e-9) -> Graph:
    """One vertex per ray; edge iff the rays are orthogonal within ``tol``
    (absolute, on the inner-product modulus).

    Accepts a canonicalized vector set (anything with .vectors) or a bare
    (k, d) array of rays.
    """
    if not 0 < tol < np.inf:
        raise GraphError(f"tol must be positive and finite, got {tol}")
    vecs = np.asarray(getattr(vector_set, "vectors", vector_set), dtype=complex)
    if vecs.ndim != 2 or vecs.shape[0] == 0:
        raise GraphError("orthogonality graph needs a nonempty (k, d) ray array")
    gram = np.abs(vecs.conj() @ vecs.T)
    iu = np.triu_indices(vecs.shape[0], k=1)
    keep = gram[iu] <= tol
    edges = np.stack([iu[0][keep], iu[1][keep]], axis=1)
    return Graph(vecs.shape[0], edges)
