"""Simple undirected graphs and the constructions the rest of the package needs.

Vertices are integers 0..n-1.  Edges are unordered pairs stored once with
u < v, lexicographically sorted.

A Graph keeps its edge array and one derived form per job: the exact
searches (DSATUR, clique, basis enumeration, the KS search) read one int
bitset per vertex, Graph.masks, and keep explicit stacks, never recursion;
theta, PSD witnesses and the complement read the dense _adjacency_mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .linalg import DEFAULT_TOL, block_rows


class GraphError(ValueError):
    """Raised for structurally invalid graph input (self-loop, bad endpoint, ...)."""


class CheckResult:
    """Base of every check result with an ok field: truthy exactly when the
    check passed."""
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class VerifyResult(CheckResult):
    """A verifier's verdict: the worst residual of the failed check named by
    reason (None when ok; None too for an exact check), at where: (v,) for a
    vertex, (v, w, color) for an edge, None for the whole certificate."""
    ok: bool
    residual: float | None
    where: tuple[int, ...] | None = None
    reason: str | None = None

    def __str__(self) -> str:
        at = ("", " at vertex {}", "", " on edge ({}, {}), color {}")[len(self.where or ())]
        res = "" if self.residual is None else f" (residual {self.residual:.3g})"
        return f"{self.reason}{at.format(*self.where or ())}{res}"


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
    def masks(self) -> tuple[int, ...]:
        """Adjacency bitsets for the exact searches: bit w of masks[v] is set
        iff v ~ w, up to n^2/8 bytes in all."""
        masks = [0] * self.n
        for u, v in self.edge_array.tolist():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, v in self.edge_array:
            yield int(u), int(v)

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


def _adjacency_mask(g: Graph) -> np.ndarray:
    """Dense symmetric (n, n) boolean adjacency, False on the diagonal."""
    mask = np.zeros((g.n, g.n), dtype=bool)
    e = g.edge_array
    mask[e[:, 0], e[:, 1]] = mask[e[:, 1], e[:, 0]] = True
    return mask


def complement(g: Graph) -> Graph:
    """Edge iff not an edge in g (on the same vertex set).  An involution."""
    return Graph(g.n, np.argwhere(np.triu(~_adjacency_mask(g), k=1)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (v,i) ~ (w,j) iff v=w and i~j, or v~w and i=j.

    Vertex (v, i) gets id v*|V(h)| + i, so factor coordinates are recoverable
    by divmod.
    """
    nh = h.n
    ge = g.edge_array[:, :, None] * nh + np.arange(nh)  # (mG, 2, nH)
    he = h.edge_array[None, :, :] + (np.arange(g.n) * nh)[:, None, None]
    return Graph(g.n * nh, np.concatenate([ge.transpose(0, 2, 1).reshape(-1, 2),
                                           he.reshape(-1, 2)]))


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


def orthogonality_graph(vector_set, tol: float = DEFAULT_TOL) -> Graph:
    """One vertex per ray; edge iff the rays are orthogonal within ``tol``
    (absolute, on the inner-product modulus), from blocks of rows (a Gram
    row with its modulus and mask each) of the Gram matrix's upper triangle.

    Accepts a canonicalized vector set (anything with .vectors) or a bare
    (k, d) array of rays.
    """
    if not 0 < tol < np.inf:
        raise GraphError(f"tol must be positive and finite, got {tol}")
    vecs = np.asarray(getattr(vector_set, "vectors", vector_set), dtype=complex)
    if vecs.ndim != 2 or vecs.shape[0] == 0:
        raise GraphError("orthogonality graph needs a nonempty (k, d) ray array")
    edges, rows = [], block_rows((16 + 8 + 1) * len(vecs))
    for lo in range(0, len(vecs), rows):
        i, j = np.nonzero(np.abs(vecs[lo:lo + rows].conj() @ vecs[lo:].T) <= tol)
        edges.append(np.stack([i, j], axis=1)[j > i] + lo)
    return Graph(len(vecs), np.concatenate(edges))
