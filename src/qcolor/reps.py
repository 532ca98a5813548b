"""Orthogonal representations, matrix representations, rank-1/rank-r quantum
colorings, and the bijections between them.

Conventions: an orthogonal representation stores one row per vertex; a matrix
representation stores one unitary per vertex whose column i is the vector of
product vertex (v, i) under the vertex id scheme of cartesian_product (id =
v * c + i).  Upper bounds on the orthogonal rank and on the rank-1 quantum
chromatic number are only ever claimed with a verified witness; search
failure is reported as "not found", never as infeasibility.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import (DEFAULT_BUDGET, ColoringCertificate, clique_number,
                       greedy_coloring, is_c_colorable, verify_coloring)
from .graphs import Graph, cartesian_product, complete_graph
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, LinalgError, _above_cutoff,
                     pair_values)


class RepsError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class OrthogonalRepresentation:
    """Nonzero vector per vertex; adjacency means orthogonality (checked by
    the verifier, not the constructor)."""
    dimension: int
    vectors: np.ndarray  # (n, dimension) complex

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != self.dimension:
            raise RepsError(f"vectors must be (n, {self.dimension}), got {v.shape}")
        object.__setattr__(self, "vectors", v)


@dataclass(frozen=True, eq=False)
class MatrixRepresentation:
    dimension: int
    matrices: np.ndarray  # (n, c, c) complex, one unitary per vertex

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != self.dimension or m.shape[2] != self.dimension:
            raise RepsError(
                f"matrices must be (n, {self.dimension}, {self.dimension}), got {m.shape}")
        object.__setattr__(self, "matrices", m)


@dataclass(frozen=True, eq=False)
class QuantumColoring:
    """Per-vertex projective measurement with one outcome per color.

    rank-1 colorings are stored as vectors (n, c, d) with each vertex's rows
    an orthonormal basis; general rank-r ones as projectors (n, c, d, d).
    """
    colors: int
    rank: int
    vectors: np.ndarray | None = None
    projectors: np.ndarray | None = None

    def __post_init__(self):
        if (self.vectors is None) == (self.projectors is None):
            raise RepsError("provide exactly one of vectors / projectors")
        if self.vectors is not None:
            v = np.asarray(self.vectors, dtype=complex)
            if v.ndim != 3 or v.shape[1] != self.colors:
                raise RepsError(f"vectors must be (n, {self.colors}, d), got {v.shape}")
            if self.rank != 1:
                raise RepsError("vector form is only for rank-1 colorings")
            object.__setattr__(self, "vectors", v)
        else:
            p = np.asarray(self.projectors, dtype=complex)
            if p.ndim != 4 or p.shape[1] != self.colors or p.shape[2] != p.shape[3]:
                raise RepsError(
                    f"projectors must be (n, {self.colors}, d, d), got {p.shape}")
            object.__setattr__(self, "projectors", p)

    @property
    def n_vertices(self) -> int:
        arr = self.vectors if self.vectors is not None else self.projectors
        return arr.shape[0]

    @property
    def local_dimension(self) -> int:
        if self.vectors is not None:
            return self.vectors.shape[2]
        return self.projectors.shape[2]


@dataclass(frozen=True, eq=False)
class PSDWitness:
    """Candidate certificate for a minimum-PSD-rank style bound: a PSD matrix
    whose off-diagonal support must be exactly the non-edges of the graph."""
    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise RepsError(f"witness matrix must be square, got {a.shape}")
        object.__setattr__(self, "matrix", a)


def projectors_ok(ops: np.ndarray, rank: int, tol: float) -> bool:
    """Whether every operator of an (n, c, d, d) table is a Hermitian
    idempotent (each within tol) of trace rank (within d * tol)."""
    d = ops.shape[2]
    return bool(
        np.max(np.abs(ops - ops.conj().transpose(0, 1, 3, 2)), initial=0.0) <= tol
        and np.max(np.abs(ops @ ops - ops), initial=0.0) <= tol
        and np.max(np.abs(np.einsum("vaii->va", ops).real - rank),
                   initial=0.0) <= d * tol)


def edges_orthogonal(g: Graph, x: np.ndarray, tol: float) -> bool:
    """Whether |<x[u, a], x[w, a]>| <= tol for every edge (u, w) and color a;
    x is (n, colors, k)."""
    e = g.edge_array
    return bool(np.all(np.abs(pair_values(x.conj(), x, e[:, 0], e[:, 1])) <= tol))


def verify_orthogonal_representation(g: Graph, rep: OrthogonalRepresentation,
                                     tol: float = DEFAULT_TOL) -> bool:
    vecs = rep.vectors
    if vecs.shape[0] != g.n:
        raise RepsError(f"representation covers {vecs.shape[0]} vertices, graph has {g.n}")
    if np.any(np.linalg.norm(vecs, axis=1) <= tol):
        return False
    return edges_orthogonal(g, vecs[:, None], tol)


def verify_matrix_representation(g: Graph, rep: MatrixRepresentation,
                                 tol: float = DEFAULT_TOL) -> bool:
    """A c x c matrix representation is the rank-1 quantum c-coloring whose
    color vectors are the columns of the unitaries."""
    mats = rep.matrices
    if mats.shape[0] != g.n:
        raise RepsError(f"representation covers {mats.shape[0]} vertices, graph has {g.n}")
    return verify_quantum_coloring(
        g, QuantumColoring(rep.dimension, 1, vectors=mats.transpose(0, 2, 1)), tol)


def verify_quantum_coloring(g: Graph, qc: QuantumColoring,
                            tol: float = DEFAULT_TOL) -> bool:
    """Checks the per-vertex measurement structure and the per-color edge
    orthogonality (rank-1: vector inner products; rank-r: Hilbert-Schmidt
    inner products of the projectors)."""
    if qc.n_vertices != g.n:
        raise RepsError(f"coloring covers {qc.n_vertices} vertices, graph has {g.n}")
    if qc.vectors is not None:
        vecs = qc.vectors
        if vecs.shape[2] != qc.colors:
            # a rank-1 projective measurement with c outcomes lives in C^c
            return False
        gram = vecs.conj() @ vecs.swapaxes(1, 2)
        if np.max(np.abs(gram - np.eye(qc.colors)[None]), initial=0.0) > tol:
            return False
    else:
        ops = qc.projectors
        d = qc.local_dimension
        if d != qc.rank * qc.colors:
            # c orthogonal rank-r projectors summing to I_d force d = r*c
            return False
        if not (projectors_ok(ops, qc.rank, tol)
                and np.max(np.abs(ops.sum(axis=1) - np.eye(d)),
                           initial=0.0) <= d * tol):
            return False
        vecs = ops.reshape(g.n, qc.colors, d * d)
    # rank-1: <a_u,alpha, a_w,alpha>; rank-r: Tr(P_u,alpha† P_w,alpha)
    return edges_orthogonal(g, vecs, tol)


def quantum_coloring_from_classical(g: Graph, cert: ColoringCertificate) -> QuantumColoring:
    """Shifted computational bases: vertex with color k gets a_{v,alpha} =
    e_{(alpha+k) mod c}.  The union of all vectors is exactly the
    computational basis of C^c."""
    if not verify_coloring(g, cert):
        raise RepsError("certificate is not a proper coloring")
    c = cert.c
    shifted = (np.arange(c) + np.asarray(cert.colors, dtype=np.int64)[:, None]) % c
    return QuantumColoring(colors=c, rank=1, vectors=np.eye(c, dtype=complex)[shifted])


def orthrep_to_matrixrep(g: Graph, rep: OrthogonalRepresentation,
                         tol: float = DEFAULT_TOL) -> MatrixRepresentation:
    """Representation of G□K_c in dimension c -> matrix representation of G:
    column i of U_v is the normalized vector at product vertex (v, i)."""
    c = rep.dimension
    product = cartesian_product(g, complete_graph(c))
    if not verify_orthogonal_representation(product, rep, tol):
        raise RepsError("input does not verify as a representation of G□K_c")
    blocks = rep.vectors.reshape(g.n, c, c)
    mats = np.ascontiguousarray(
        (blocks / np.linalg.norm(blocks, axis=2, keepdims=True)).transpose(0, 2, 1))
    out = MatrixRepresentation(dimension=c, matrices=mats)
    if not verify_matrix_representation(g, out, max(tol * c, tol)):
        raise RepsError("internal inconsistency: verified product representation "
                        "did not yield a matrix representation")
    return out


def matrixrep_to_orthrep(g: Graph, rep: MatrixRepresentation,
                         tol: float = DEFAULT_TOL) -> OrthogonalRepresentation:
    """Matrix representation of G -> orthogonal representation of G□K_c;
    the vector at product vertex (v, i) is column i of U_v."""
    if not verify_matrix_representation(g, rep, tol):
        raise RepsError("input does not verify as a matrix representation")
    c = rep.dimension
    vecs = rep.matrices.transpose(0, 2, 1).reshape(g.n * c, c)
    return OrthogonalRepresentation(dimension=c, vectors=vecs)


# gradient iterations per restart, and the initial step of their schedule
SEARCH_ITERATIONS = 300
SEARCH_STEP = 0.6
POLISH_SWEEPS = 150
# polish only near-feasible points; stalled penalties mean a bad basin
# (or true infeasibility) and another restart is cheaper than projection
POLISH_THRESHOLD = 1e-3
# restarts run in lockstep, in consecutive blocks whose (R, 2m, c) complex
# half-edge array stays within this many bytes
BLOCK_BYTES = 2 ** 26


@dataclass(frozen=True)
class SearchParams:
    seed: int = 0
    restarts: int = 24
    real: bool = False
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.restarts >= 1:
            raise RepsError(f"restarts must be >= 1, got {self.restarts}")
        if not 0 < self.tol < np.inf:
            raise RepsError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """restarts_tried is the 1-based index of the winning restart (0 for a
    graph without edges, which needs no search), or params.restarts on a
    miss."""
    found: bool
    representation: OrthogonalRepresentation | None
    best_penalty: float
    restarts_tried: int


def _polish(x: np.ndarray, neighbors: list[np.ndarray], sweeps: int,
            tol: float) -> bool:
    """Cyclic projection: repeatedly replace each vector by its component
    orthogonal to the span of its neighbors.  Mutates x; returns success."""
    n = x.shape[0]
    for _ in range(sweeps):
        worst = 0.0
        for u in range(n):
            nb = neighbors[u]
            if nb.size == 0:
                continue
            m = x[nb]
            _, s, vh = np.linalg.svd(m, full_matrices=False)
            # at most c - 1 directions: near a feasible point the neighbors
            # span C^c up to a tiny singular value, and projecting that out
            # too would leave x[u] nothing
            keep = s[:x.shape[1] - 1] > 1e-12 * max(s[0], 1e-300)
            basis = vh[:keep.size][keep]
            xu = x[u] - basis.T @ (basis.conj() @ x[u])
            norm = np.linalg.norm(xu)
            if norm < 1e-8:
                return False
            x[u] = xu / norm
            worst = max(worst, float(np.max(np.abs(m.conj() @ x[u]))))
        if worst <= 0.1 * tol:
            return True
    return False


class _HalfEdges:
    """Both orientations of every edge, sorted by source vertex once, so one
    reduceat sums each vertex's gradient terms."""

    def __init__(self, e: np.ndarray):
        self.e0, self.e1 = e[:, 0], e[:, 1]
        src = np.concatenate([self.e0, self.e1])
        self.order = np.argsort(src, kind="stable")
        self.other = np.concatenate([self.e1, self.e0])[self.order]
        self.sources, self.starts = np.unique(src[self.order], return_index=True)

    def penalty_and_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For an (R, n, c) stack of vector sets: each one's penalty, the sum
        over edges of |<x_u, x_w>|^2, and its gradient (R, n, c), whose row u
        is the sum over neighbors w of x_w <x_w, x_u>."""
        pe = np.einsum("rec,rec->re", x[:, self.e0].conj(), x[:, self.e1])
        coef = np.concatenate([pe.conj(), pe], axis=1)[:, self.order]
        grad = np.zeros_like(x)
        grad[:, self.sources] = np.add.reduceat(
            x[:, self.other] * coef[:, :, None], self.starts, axis=1)
        return np.sum(np.abs(pe) ** 2, axis=1), grad


def _descend(x: np.ndarray, half: _HalfEdges) -> tuple[np.ndarray, float]:
    """Normalized projected gradient on an (R, n, c) block of restarts in
    lockstep, in place.  A restart leaves the active set once its penalty is
    below 1e-6 (keeping that point) or when a vector steps onto zero
    (penalty inf).  Returns each restart's last penalty and the lowest
    penalty seen."""
    penalty = np.full(x.shape[0], np.inf)
    best = np.inf
    active = np.arange(x.shape[0])
    xa = x
    for it in range(SEARCH_ITERATIONS):
        if active.size == 0:
            break
        pen, grad = half.penalty_and_gradient(xa)
        penalty[active] = pen
        best = min(best, float(pen.min()))
        done = pen < 1e-6
        if done.any():
            x[active[done]] = xa[done]
            active, xa, grad = active[~done], xa[~done], grad[~done]
        xa = xa - SEARCH_STEP / (1.0 + it / 60.0) * grad
        norms = np.linalg.norm(xa, axis=2, keepdims=True)
        alive = np.all(norms > 0, axis=(1, 2))
        if not alive.all():
            # a vector stepped onto zero has no direction: restart lost
            penalty[active[~alive]] = np.inf
            active, xa, norms = active[alive], xa[alive], norms[alive]
        xa /= norms
    x[active] = xa
    return penalty, best


def search_orthogonal_representation(g: Graph, c: int,
                                     params: SearchParams = SearchParams()) -> SearchResult:
    """Randomized penalty search for an orthogonal representation in C^c.

    Minimizes sum over edges of |<x_u, x_v>|^2 by projected gradient from
    seeded random starts, all restarts of a block in lockstep, then polishes
    the near-feasible ones by cyclic projection in restart order; a result
    counts as found only if the final vectors verify at params.tol.
    not_found is not a proof of nonexistence.
    """
    if c < 1:
        raise RepsError("dimension must be >= 1")
    e = g.edge_array
    rng = np.random.default_rng(params.seed)
    if e.shape[0] == 0:
        vecs = np.zeros((g.n, c), dtype=complex)
        vecs[:, 0] = 1.0
        rep = OrthogonalRepresentation(c, vecs)
        return SearchResult(True, rep, 0.0, 0)
    neighbors = [np.asarray(g.neighbors(v), dtype=np.int64) for v in range(g.n)]
    half = _HalfEdges(e)
    block = max(1, BLOCK_BYTES // (2 * e.shape[0] * c * 16))
    best_penalty = np.inf
    for lo in range(0, params.restarts, block):
        size = min(block, params.restarts - lo)
        if params.real:
            x = rng.normal(size=(size, g.n, c)).astype(complex)
        else:
            z = rng.normal(size=(size, 2, g.n, c))
            x = z[:, 0] + 1j * z[:, 1]
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        penalty, best = _descend(x, half)
        best_penalty = min(best_penalty, best)
        for i in np.flatnonzero(penalty <= POLISH_THRESHOLD):
            if _polish(x[i], neighbors, POLISH_SWEEPS, params.tol):
                rep = OrthogonalRepresentation(c, x[i].copy())
                if verify_orthogonal_representation(g, rep, params.tol):
                    return SearchResult(True, rep, 0.0, lo + int(i) + 1)
    return SearchResult(False, None, best_penalty, params.restarts)


def representation_from_coloring(cert: ColoringCertificate) -> OrthogonalRepresentation:
    """Color-class basis vectors: vertex with color k gets e_k in C^c.  A
    proper coloring makes this a verified orthogonal representation."""
    colors = np.asarray(cert.colors, dtype=np.int64)
    return OrthogonalRepresentation(cert.c, np.eye(cert.c, dtype=complex)[colors])


@dataclass(frozen=True, eq=False)
class XiBounds:
    lower: int
    upper: int
    upper_witness: OrthogonalRepresentation
    lower_clique: tuple[int, ...]


def xi_bounds(g: Graph, params: SearchParams = SearchParams(),
              budget: int = DEFAULT_BUDGET) -> XiBounds:
    """Certified sandwich for the orthogonal rank: lower = clique number
    (xi >= omega), upper = smallest dimension with a verified representation.

    Candidate witnesses come from the randomized search and, at the greedy
    coloring dimension, from color-class basis vectors (xi <= chi); the upper
    bound always ships with a representation that passed the verifier.
    """
    if g.n == 0:
        raise RepsError("xi bounds of the empty graph are undefined")
    cl = clique_number(g, budget)
    lower = cl.omega
    greedy = greedy_coloring(g)
    upper = greedy.c
    witness = representation_from_coloring(greedy)
    if not verify_orthogonal_representation(g, witness, params.tol):
        raise RuntimeError("the greedy coloring's representation failed verification")
    for c in range(lower, upper):
        res = search_orthogonal_representation(g, c, params)
        if res.found:
            upper = c
            witness = res.representation
            break
    return XiBounds(lower=lower, upper=upper, upper_witness=witness,
                    lower_clique=cl.clique)


@dataclass(frozen=True, eq=False)
class ChiQ1Result:
    c: int | None  # smallest c <= c_max with a verified witness, else None
    witness: MatrixRepresentation | None
    skipped_infeasible: tuple[int, ...]  # c values ruled out by the clique bound


def chi_q1_upper_via_product(g: Graph, c_max: int,
                             params: SearchParams = SearchParams(),
                             budget: int = DEFAULT_BUDGET) -> ChiQ1Result:
    """Upper bound for the rank-1 quantum chromatic number through the
    product characterization: the smallest c with a verified orthogonal
    representation of G□K_c in dimension c, returned as a matrix
    representation of G.

    c below the clique number is skipped outright: cliques of a Cartesian
    product live inside a single fiber, so omega(G□K_c) = max(omega(G), c)
    and xi(G□K_c) >= omega(G) > c is infeasible.  A proper c-coloring of G,
    when one exists within budget, supplies a deterministic witness (shifted
    bases); otherwise the randomized search runs on the product.  Failure at
    every c <= c_max is not a proof that chi_q1 exceeds c_max.
    """
    if c_max < 1:
        raise RepsError("c_max must be >= 1")
    if g.n == 0:
        raise RepsError("chi_q1 of the empty graph is undefined")
    omega = clique_number(g, budget).omega
    skipped = tuple(c for c in range(1, min(omega, c_max + 1)))
    for c in range(max(omega, 1), c_max + 1):
        col = is_c_colorable(g, c, budget)
        if col.status == "yes":
            qc = quantum_coloring_from_classical(g, col.certificate)
            rep = OrthogonalRepresentation(c, qc.vectors.reshape(g.n * c, c))
            return ChiQ1Result(c, orthrep_to_matrixrep(g, rep, params.tol), skipped)
        product = cartesian_product(g, complete_graph(c))
        res = search_orthogonal_representation(product, c, params)
        if res.found:
            return ChiQ1Result(c, orthrep_to_matrixrep(g, res.representation,
                                                       params.tol), skipped)
    return ChiQ1Result(None, None, skipped)


@dataclass(frozen=True, eq=False)
class PSDCheckResult:
    ok: bool
    reason: str | None
    representation: OrthogonalRepresentation | None


def psd_witness_check(g: Graph, witness: PSDWitness,
                      tol: float = DEFAULT_TOL,
                      rank_tol: float = DEFAULT_RANK_TOL) -> PSDCheckResult:
    """Accepts a PSD matrix whose off-diagonal support is exactly the
    non-edges of g and whose rank is at most the claimed rank r; on
    acceptance the Gram factor of the top min(r, n) eigenpairs is returned
    as a verified orthogonal representation of g.  One eigendecomposition
    answers PSD, rank (the package cutoff, whose ambiguity band rejects) and
    the factor; checks run in the order: PSD, pattern, rank, zero Gram
    vector."""
    a = witness.matrix
    n = g.n
    if a.shape[0] != n:
        raise RepsError(f"matrix is {a.shape[0]}x{a.shape[0]}, graph has {n} vertices")
    if np.max(np.abs(a - a.conj().T), initial=0.0) > tol:
        raise RepsError("witness matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(a)
    if np.min(evals, initial=0.0) < -tol:
        return PSDCheckResult(False, "not PSD", None)
    want = np.ones((n, n), dtype=bool)  # off the diagonal: the non-edges
    e = g.edge_array
    want[e[:, 0], e[:, 1]] = want[e[:, 1], e[:, 0]] = False
    have = np.abs(a) > tol
    np.fill_diagonal(have, True)
    if not np.array_equal(want, have):
        return PSDCheckResult(False, "wrong pattern", None)
    try:
        kept = _above_cutoff(evals, np.max(evals, initial=0.0), rank_tol,
                             "eigenvalue")
    except LinalgError as err:
        return PSDCheckResult(False, f"ambiguous rank: {err}", None)
    r = witness.rank
    if np.count_nonzero(kept) > r:
        return PSDCheckResult(False, "rank too high", None)
    if np.any(np.abs(np.diag(a)) <= tol):
        return PSDCheckResult(False, "zero Gram vector", None)
    k = min(r, n)
    factor = evecs[:, n - k:] * np.sqrt(np.clip(evals[n - k:], 0.0, None))
    rep = OrthogonalRepresentation(k, factor.conj())
    if not verify_orthogonal_representation(g, rep, tol):
        return PSDCheckResult(False, "Gram factor failed edge verification", None)
    return PSDCheckResult(True, None, rep)


def hadamard_quantum_coloring(n_bits: int) -> QuantumColoring:
    """Fourier/sign rank-1 quantum N-coloring of the Hadamard graph: vertex u
    gets a_{u,alpha}[j] = (-1)^{u_j} omega^{j*alpha} / sqrt(N) with omega the
    primitive N-th root of unity.

    Per vertex the a_{u,alpha} form an orthonormal basis (geometric sums);
    across an edge, <a_{u,alpha}, a_{v,alpha}> = (N - 2*d(u,v))/N = 0 exactly
    at Hamming distance N/2.
    """
    if n_bits < 2 or n_bits % 2:
        raise RepsError(f"Hadamard coloring needs even N >= 2, got {n_bits}")
    size = 1 << n_bits
    j = np.arange(n_bits)
    u = np.arange(size, dtype=np.uint64)
    bits = ((u[:, None] >> j[None, :].astype(np.uint64)) & 1).astype(np.int8)
    signs = 1.0 - 2.0 * bits  # (-1)^{u_j}
    omega = np.exp(2j * np.pi / n_bits)
    phase = omega ** np.outer(j, np.arange(n_bits))  # [j, alpha]
    vecs = (signs[:, None, :] * phase.T[None, :, :]) / np.sqrt(n_bits)
    return QuantumColoring(colors=n_bits, rank=1, vectors=vecs)
