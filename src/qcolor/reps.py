"""Orthogonal representations, matrix representations, rank-1/rank-r quantum
colorings, and the bijections between them.

Conventions: an orthogonal representation stores one row per vertex; a matrix
representation stores one unitary per vertex whose column i is the vector of
product vertex (v, i) under the vertex id scheme of cartesian_product (id =
v * c + i).  Upper bounds on the orthogonal rank and on the rank-1 quantum
chromatic number are only ever claimed with a verified witness; search
failure is reported as "not found", never as infeasibility.  A dimension is
called infeasible only from a certificate: a clique, or a Lovasz theta
certificate that passed verify_theta_certificate.  A quantum coloring's
table has a strategy side's shape, and measurement_ok is the one check that
each vertex's row of such a table is a projective measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import (DEFAULT_BUDGET, CliqueResult, ColoringCertificate,
                       clique_number, greedy_coloring, is_c_colorable,
                       verify_coloring)
from .graphs import (CheckResult, Graph, VerifyResult, _adjacency_mask,
                     cartesian_product, complete_graph)
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, LinalgError, PairBlocks, _above_cutoff,
                     _hermitian_defect, block_rows, psd_certified)


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
    """Per-vertex projective measurement with one outcome per color, its
    table in a strategy side's shape: (n, c, d) vectors, each vertex's rows
    an orthonormal basis (rank 1 only), or (n, c, d, d) rank-r projectors."""
    colors: int
    rank: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=complex)
        d = t.shape[2] if t.ndim > 2 else None
        if t.shape[1:] not in ((self.colors, d), (self.colors, d, d)):
            raise RepsError(f"table must be (n, {self.colors}, d) vectors or "
                            f"(n, {self.colors}, d, d) projectors, got {t.shape}")
        if t.ndim == 3 and self.rank != 1:
            raise RepsError("vector form is only for rank-1 colorings")
        object.__setattr__(self, "table", t)

    @property
    def n_vertices(self) -> int:
        return len(self.table)

    @property
    def local_dimension(self) -> int:
        return self.table.shape[2]


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
        if self.rank < 0:
            raise RepsError(f"claimed rank must be >= 0, got {self.rank}")
        object.__setattr__(self, "matrix", a)


@dataclass(frozen=True, eq=False)
class ThetaCertificate:
    """Candidate certificate of a lower bound on the orthogonal rank: a real
    symmetric matrix, zero on every non-adjacent pair of the graph, PSD, of
    trace 1 (checked by verify_theta_certificate, not the constructor)."""
    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix)
        if np.iscomplexobj(a) and np.any(a.imag != 0):
            raise RepsError("theta certificate matrix must be real")
        a = np.asarray(a.real, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise RepsError(f"theta certificate matrix must be square, got {a.shape}")
        object.__setattr__(self, "matrix", a)


def _worst_vertex(table: np.ndarray, defect, bound: float, reason: str,
                  *aligned: np.ndarray) -> VerifyResult:
    """Verdict of a per-vertex check: defect maps each block of vertices of
    an (n, ...) table, and the same rows of each aligned table, to its
    (b, ...) defects, inf - inf a NaN; passes when each is <= bound, else
    names the worst vertex (a NaN first).  Blocks are sized for four copies
    of a vertex's rows of all tables, the most a defect rule keeps live."""
    rows = block_rows(4 * sum(t[:1].nbytes for t in (table, *aligned)))
    blocks = ([t[lo:lo + rows] for t in (table, *aligned)]
              for lo in range(0, len(table), rows))
    with np.errstate(invalid="ignore"):
        per = [defect(*b).reshape(len(b[0]), -1).max(axis=1, initial=0.0) for b in blocks]
    if not per:
        return VerifyResult(True, 0.0)
    per = np.concatenate(per)
    v = int(np.argmax(per))
    ok = bool(per[v] <= bound)
    return VerifyResult(ok, float(per[v]), (v,), None if ok else reason)


def _identity_defect(ops: np.ndarray) -> np.ndarray:
    return np.abs(ops.sum(axis=1) - np.eye(ops.shape[-1]))


def measurement_ok(table: np.ndarray, rank: int, tol: float) -> VerifyResult:
    """Whether each vertex's row of a table is a projective measurement.
    (n, c, d) vectors: c = d, and |<x_a, x_b> - [a = b]| <= tol.  (n, c, d, d)
    projectors: each Hermitian and idempotent within tol, of trace rank
    within d * tol, their sum the identity within d * tol.  A failure names
    the first failed check and its worst vertex."""
    c, d = table.shape[1:3]
    if table.ndim == 3:
        return (VerifyResult(c == d, float(abs(d - c)), None, f"{c} vectors in C^{d} are no basis")
                and _worst_vertex(table, lambda v: np.abs(v.conj() @ v.swapaxes(1, 2) - np.eye(c)),
                                  tol, "not an orthonormal basis"))
    return (_worst_vertex(table, _hermitian_defect, tol, "projector not Hermitian")
            and _worst_vertex(table, lambda p: np.abs(p @ p - p), tol, "projector not idempotent")
            and _worst_vertex(table, lambda p: np.abs(np.einsum("vaii->va", p).real - rank),
                              d * tol, "projector trace is not the rank")
            and _worst_vertex(table, _identity_defect, d * tol,
                              "projectors do not sum to the identity"))


def edges_orthogonal(g: Graph, x: np.ndarray, tol: float) -> VerifyResult:
    """Whether |<x[u, a], x[w, a]>| <= tol for every edge (u, w) and color a;
    x is (n, colors, k).  The verdict carries the worst modulus and its
    (u, w, a)."""
    e, pairs = g.edge_array, PairBlocks(g)
    worst, where = 0.0, None
    for a in range(x.shape[1]):
        for sel, r in pairs.values(x[:, a].conj(), x[:, a]):
            r = np.abs(r)
            i = int(np.argmax(r))  # the first NaN, if any
            if worst == worst and not r[i] <= worst:  # a NaN stays the worst
                worst, where = float(r[i]), (*map(int, e[sel][i]), a)
    ok = worst <= tol
    return VerifyResult(ok, worst, where, None if ok else "edge not orthogonal")


def verify_orthogonal_representation(g: Graph, rep: OrthogonalRepresentation,
                                     tol: float = DEFAULT_TOL) -> VerifyResult:
    vecs = rep.vectors
    if vecs.shape[0] != g.n:
        raise RepsError(f"representation covers {vecs.shape[0]} vertices, graph has {g.n}")
    norms = np.linalg.norm(vecs, axis=1)
    if not np.all(norms > tol):  # a NaN norm counts as zero
        v = int(np.argmin(norms > tol))
        return VerifyResult(False, float(norms[v]), (v,), "zero vector")
    return edges_orthogonal(g, vecs[:, None], tol)


def verify_matrix_representation(g: Graph, rep: MatrixRepresentation,
                                 tol: float = DEFAULT_TOL) -> VerifyResult:
    """A c x c matrix representation is the rank-1 quantum c-coloring whose
    color vectors are the columns of the unitaries."""
    return verify_quantum_coloring(
        g, QuantumColoring(rep.dimension, 1, rep.matrices.transpose(0, 2, 1)), tol)


def verify_quantum_coloring(g: Graph, qc: QuantumColoring,
                            tol: float = DEFAULT_TOL) -> VerifyResult:
    """Checks each vertex's measurement (measurement_ok) and the per-color edge
    orthogonality (rank-1: vector inner products; rank-r: Hilbert-Schmidt
    inner products of the projectors)."""
    if qc.n_vertices != g.n:
        raise RepsError(f"coloring covers {qc.n_vertices} vertices, graph has {g.n}")
    d, c = qc.local_dimension, qc.colors
    if d < 1:  # C^0 holds no state, so it measures nothing
        return VerifyResult(False, float(d), None, "dimension is below 1")
    if d != qc.rank * c:  # c orthogonal rank-r projectors summing to I_d
        return VerifyResult(False, float(abs(d - qc.rank * c)), None,
                            "dimension is not rank * colors")
    # rank-1: <a_u,alpha, a_w,alpha>; rank-r: Tr(P_u,alpha† P_w,alpha)
    t = qc.table
    return measurement_ok(t, qc.rank, tol) and edges_orthogonal(
        g, t.reshape(g.n, c, d ** (t.ndim - 2)), tol)


def quantum_coloring_from_classical(g: Graph, cert: ColoringCertificate) -> QuantumColoring:
    """Shifted computational bases: vertex with color k gets a_{v,alpha} =
    e_{(alpha+k) mod c}.  The union of all vectors is exactly the
    computational basis of C^c."""
    if not verify_coloring(g, cert):
        raise RepsError("certificate is not a proper coloring")
    c = cert.c
    shifted = (np.arange(c) + np.asarray(cert.colors, dtype=np.int64)[:, None]) % c
    return QuantumColoring(c, 1, np.eye(c, dtype=complex)[shifted])


def orthrep_to_matrixrep(g: Graph, rep: OrthogonalRepresentation,
                         tol: float = DEFAULT_TOL) -> MatrixRepresentation:
    """Representation of G□K_c in dimension c -> matrix representation of G:
    column i of U_v is the normalized vector at product vertex (v, i)."""
    c = rep.dimension
    product = cartesian_product(g, complete_graph(c))
    if not verify_orthogonal_representation(product, rep, tol):
        raise RepsError("input does not verify as a representation of G□K_c")
    return _matrixrep_from_blocks(g, rep.vectors.reshape(g.n, c, c), tol)


def _matrixrep_from_blocks(g: Graph, blocks: np.ndarray,
                           tol: float) -> MatrixRepresentation:
    """Blocks (n, c, c), row i of block v the vector at product vertex (v, i)
    of G□K_c -> normalized matrix representation, verified at tol * c."""
    c = blocks.shape[2]
    mats = np.ascontiguousarray(
        (blocks / np.linalg.norm(blocks, axis=2, keepdims=True)).transpose(0, 2, 1))
    out = MatrixRepresentation(dimension=c, matrices=mats)
    if not verify_matrix_representation(g, out, tol * c):
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


# restarts per search, gradient iterations per restart, and the initial
# step of their schedule
SEARCH_RESTARTS = 24
SEARCH_ITERATIONS = 300
SEARCH_STEP = 0.6
POLISH_SWEEPS = 150
# polish only near-feasible points; stalled penalties mean a bad basin
# (or true infeasibility) and another restart is cheaper than projection
POLISH_THRESHOLD = 1e-3


@dataclass(frozen=True)
class SearchParams:
    seed: int = 0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.seed >= 0:
            raise RepsError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.tol < np.inf:
            raise RepsError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """restarts_tried is the 1-based index of the winning restart (0 for a
    graph without edges, which needs no search), or SEARCH_RESTARTS on a
    miss."""
    found: bool
    representation: OrthogonalRepresentation | None
    best_penalty: float
    restarts_tried: int


def _polish(x: np.ndarray, neighbors: list[np.ndarray], tol: float) -> bool:
    """Cyclic projection, at most POLISH_SWEEPS sweeps: replace each vector by
    its component orthogonal to its neighbors' span.  Mutates x; returns success."""
    n = x.shape[0]
    for _ in range(POLISH_SWEEPS):
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
    reduceat sums each vertex's gradient terms; the same rows, each sorted,
    are _polish's neighbour lists."""

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
    if e.shape[0] == 0:  # one color class: every vector is e_0
        rep = representation_from_coloring(ColoringCertificate(c, (0,) * g.n))
        return SearchResult(True, rep, 0.0, 0)
    half = _HalfEdges(e)
    neighbors = [np.empty(0, dtype=np.int64)] * g.n  # each sorted, for _polish
    for v, row in zip(half.sources.tolist(), np.split(half.other, half.starts[1:])):
        neighbors[v] = np.sort(row)
    block = block_rows(2 * e.shape[0] * c * 16)  # one restart's (2m, c) half-edge array
    best_penalty = np.inf
    for lo in range(0, SEARCH_RESTARTS, block):
        size = min(block, SEARCH_RESTARTS - lo)
        z = rng.normal(size=(size, 2, g.n, c))
        x = z[:, 0] + 1j * z[:, 1]
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        penalty, best = _descend(x, half)
        best_penalty = min(best_penalty, best)
        for i in np.flatnonzero(penalty <= POLISH_THRESHOLD):
            if _polish(x[i], neighbors, params.tol):
                rep = OrthogonalRepresentation(c, x[i].copy())
                if verify_orthogonal_representation(g, rep, params.tol):
                    return SearchResult(True, rep, 0.0, lo + int(i) + 1)
    return SearchResult(False, None, best_penalty, SEARCH_RESTARTS)


def representation_from_coloring(cert: ColoringCertificate) -> OrthogonalRepresentation:
    """Color-class basis vectors: vertex with color k gets e_k in C^c.  A
    proper coloring makes this a verified orthogonal representation."""
    colors = np.asarray(cert.colors, dtype=np.int64)
    return OrthogonalRepresentation(cert.c, np.eye(cert.c, dtype=complex)[colors])


def _psd_with_zeros(a: np.ndarray, zeros: np.ndarray, tol: float, psd):
    """The one check of "Hermitian PSD with this exact zero pattern", under
    the caller's PSD rule psd(a), falsy when a is not PSD.  Raises RepsError
    when a and zeros differ in shape, a has an entry that is not finite or a
    is farther than tol from Hermitian; else returns psd(a) with a reason to
    reject: "not PSD", then "wrong pattern" when an entry where zeros is
    True exceeds tol in modulus, else None."""
    if a.shape != zeros.shape:
        raise RepsError(f"matrix is {a.shape[0]}x{a.shape[0]}, graph has "
                        f"{zeros.shape[0]} vertices")
    if not np.isfinite(a).all():
        raise RepsError("witness matrix is not finite")
    if np.max(_hermitian_defect(a), initial=0.0) > tol:
        raise RepsError("witness matrix is not Hermitian")
    proof = psd(a)
    if not proof:
        return proof, "not PSD"
    return proof, "wrong pattern" if np.any(np.abs(a[zeros]) > tol) else None


# -- certified lower bound from the Lovasz theta function ---------------------
#
# Every orthogonal representation of G in C^d is an orthonormal
# representation of the complement H, and theta(H) <= d for those (Lovasz
# 1979; over C map u to u u*, with handle I / sqrt(d)).  So
# omega(G) <= ceil(theta(H)) <= xi(G) <= chi_q1(G), and any real symmetric
# PSD X of trace 1, zero on the non-adjacent pairs of G, has
# sum(X) <= theta(H).

# ADMM iterations of the theta solver, one n x n eigh each
THETA_ITERATIONS = 300
# The verifier's claim is ceil(sum X / tr X - delta), delta =
# THETA_SUM_MARGIN * n * eps: both sums are correctly rounded (math.fsum)
# and the quotient adds one rounding, three half-eps relative errors on a
# ratio of at most n.
THETA_SUM_MARGIN = 4
# The solver's diagonal shift, in units of n * eps * max(tr Z, 1): it leaves
# lambda_min of the trace-1 certificate near 256 n eps, 128 n / (n + 3) >=
# 32 times the verifier's Cholesky shift 4 gamma_{n+3} ~ 2 (n + 3) eps.
THETA_SHIFT_MARGIN = 256
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ThetaCheckResult(CheckResult):
    """bound is the certified ceil(theta(complement)) <= xi(G) when ok."""
    ok: bool
    bound: int | None
    reason: str | None


def verify_theta_certificate(g: Graph, cert: ThetaCertificate,
                             tol: float = DEFAULT_TOL) -> ThetaCheckResult:
    """Checks a theta certificate without the solver: X is finite and exactly
    symmetric (else RepsError), linalg.psd_certified proves lambda_min(X) >=
    0, X is exactly 0.0 on every non-adjacent pair i != j of g, and tr X is
    positive and within tol of 1.  Then X / tr X is feasible for theta of
    the complement, and the claim is xi(g) >= ceil(sum X / tr X - delta)."""
    x = cert.matrix
    n = g.n
    zeros = ~_adjacency_mask(g) ^ np.eye(n, dtype=bool)  # non-adjacent i != j
    reason = _psd_with_zeros(x, zeros, 0.0, psd_certified)[1]
    trace = math.fsum(np.diag(x).tolist())
    if reason is None and not (trace > 0 and abs(trace - 1.0) <= tol):
        reason = "trace is not 1"
    if reason is not None:
        return ThetaCheckResult(False, None, reason)
    ratio = math.fsum(x.ravel().tolist()) / trace
    return ThetaCheckResult(True, math.ceil(ratio - THETA_SUM_MARGIN * n * _EPS),
                            None)


def theta_certificate(g: Graph, target: int) -> ThetaCertificate:
    """ADMM after Wen, Goldfarb and Yin (2010), on the primal, for theta of
    the complement of g: maximize sum X subject to tr X = 1, X = 0 on the
    non-adjacent pairs and X PSD, split as X (affine) = Z (PSD) with one
    eigh per iteration.  Each Z with its pattern entries set to 0.0 is
    within their Frobenius norm f of Z (Weyl), so shifted by f plus a margin
    it is exactly feasible; the best such point is returned at trace 1.
    Stops after THETA_ITERATIONS, or once that point's certified ceiling
    reaches target.  Only verify_theta_certificate makes a claim of it."""
    n = g.n
    if n == 0:
        raise RepsError("theta of the empty graph is undefined")
    pattern = np.flatnonzero(~_adjacency_mask(g) ^ np.eye(n, dtype=bool))
    diagonal = np.arange(0, n * n, n + 1)
    margin = THETA_SHIFT_MARGIN * n * _EPS
    z, u = np.eye(n) / n, np.zeros((n, n))
    best = (-np.inf, z, 0.0)
    for _ in range(THETA_ITERATIONS):
        x = z - u + 1.0 / n  # + J / rho, with rho = n the norm of J
        x.flat[pattern] = 0.0
        x.flat[diagonal] += (1.0 - x.trace()) / n
        w, v = np.linalg.eigh(x + u)
        z = (v * np.maximum(w, 0.0)) @ v.T
        z = 0.5 * (z + z.T)  # exactly symmetric
        u += x - z
        off = z.flat[pattern]
        shift = math.sqrt(off @ off) + margin * max(z.trace(), 1.0)
        value = (z.sum() - off.sum() + n * shift) / (z.trace() + n * shift)
        if value > best[0]:
            best = (value, z, shift)
        if math.ceil(value - THETA_SUM_MARGIN * n * _EPS) >= target:
            break
    _, x, shift = best  # the iterate itself: the loop is done with it
    x.flat[pattern] = 0.0
    x.flat[diagonal] += shift
    return ThetaCertificate(x / x.trace())


def _lower_bound(g: Graph, c_max: int, greedy: int, tol: float, budget: int
                 ) -> tuple[CliqueResult, int | None, ThetaCertificate | None]:
    """omega(g) with its clique and, only when omega < min(c_max, greedy),
    the verified ceil(theta(complement of g)) and its certificate, else None
    for both.  Theta is solved up to min(c_max + 1, greedy): theta <= chi <=
    greedy, and past c_max it prunes nothing."""
    cl = clique_number(g, budget)
    if cl.omega >= min(c_max, greedy):
        return cl, None, None
    cert = theta_certificate(g, min(c_max + 1, greedy))
    check = verify_theta_certificate(g, cert, tol)
    if not check:
        return cl, None, None
    if check.bound > greedy:
        raise RuntimeError("a verified theta bound exceeds the greedy count")
    return cl, check.bound, cert


@dataclass(frozen=True, eq=False)
class XiBounds:
    """lower is the clique number and lower_clique its clique; lower_theta
    is the verified ceil(theta(complement)) of theta_witness, both None
    unless _lower_bound solved theta and its certificate verified."""
    lower: int
    upper: int
    upper_witness: OrthogonalRepresentation
    lower_clique: tuple[int, ...]
    lower_theta: int | None
    theta_witness: ThetaCertificate | None


def xi_bounds(g: Graph, params: SearchParams = SearchParams(),
              budget: int = DEFAULT_BUDGET) -> XiBounds:
    """Certified sandwich for the orthogonal rank: from below the clique
    number (xi >= omega) and, when it leaves a gap, the verified theta
    bound; upper = smallest dimension with a verified representation.

    Candidate witnesses come from the randomized search, run only in
    dimensions no certificate rules out, and, at the greedy coloring
    dimension, from color-class basis vectors (xi <= chi); the upper bound
    always ships with a representation that passed the verifier.
    """
    if g.n == 0:
        raise RepsError("xi bounds of the empty graph are undefined")
    greedy = greedy_coloring(g)
    upper = greedy.c
    witness = representation_from_coloring(greedy)
    if not verify_orthogonal_representation(g, witness, params.tol):
        raise RuntimeError("the greedy coloring's representation failed verification")
    cl, theta, theta_cert = _lower_bound(g, upper, upper, params.tol, budget)
    for c in range(max(cl.omega, theta or 0), upper):
        res = search_orthogonal_representation(g, c, params)
        if res.found:
            upper = c
            witness = res.representation
            break
    return XiBounds(lower=cl.omega, upper=upper, upper_witness=witness,
                    lower_clique=cl.clique, lower_theta=theta,
                    theta_witness=theta_cert)


@dataclass(frozen=True, eq=False)
class ChiQ1Result:
    c: int | None  # smallest c <= c_max with a verified witness, else None
    witness: MatrixRepresentation | None
    # the c values below the clique number or the verified theta bound:
    # each is ruled out by a certificate, never by a failed search
    skipped_infeasible: tuple[int, ...]


def chi_q1_upper_via_product(g: Graph, c_max: int,
                             params: SearchParams = SearchParams(),
                             budget: int = DEFAULT_BUDGET) -> ChiQ1Result:
    """Upper bound for the rank-1 quantum chromatic number through the
    product characterization: the smallest c with a verified orthogonal
    representation of G□K_c in dimension c, returned as a matrix
    representation of G.

    c below the clique number or below the verified theta bound is skipped
    outright: G is an induced subgraph of G□K_c, so xi(G□K_c) >= xi(G) >=
    max(omega(G), ceil(theta(complement of G))) > c is infeasible.  A proper
    c-coloring of G, when one exists within budget, supplies a deterministic
    witness (shifted bases); otherwise the randomized search runs on the
    product.  Failure at every c <= c_max is not a proof that chi_q1 exceeds
    c_max.
    """
    if c_max < 1:
        raise RepsError("c_max must be >= 1")
    if g.n == 0:
        raise RepsError("chi_q1 of the empty graph is undefined")
    cl, theta, _ = _lower_bound(g, c_max, greedy_coloring(g).c, params.tol, budget)
    lower = max(cl.omega, theta or 0)
    skipped = tuple(range(1, min(lower, c_max + 1)))
    for c in range(max(lower, 1), c_max + 1):
        col = is_c_colorable(g, c, budget)
        if col.status == "yes":
            blocks = quantum_coloring_from_classical(g, col.certificate).table
        else:
            res = search_orthogonal_representation(
                cartesian_product(g, complete_graph(c)), c, params)
            if not res.found:
                continue
            blocks = res.representation.vectors.reshape(g.n, c, c)
        return ChiQ1Result(c, _matrixrep_from_blocks(g, blocks, params.tol), skipped)
    return ChiQ1Result(None, None, skipped)


@dataclass(frozen=True, eq=False)
class PSDCheckResult(CheckResult):
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
    edges = _adjacency_mask(g)

    def psd(m):  # the eigenpairs, unless one is below -tol
        w, v = np.linalg.eigh(m)
        return None if np.min(w, initial=np.inf) < -tol else (w, v)
    eig, reason = _psd_with_zeros(a, edges, tol, psd)
    support = ~edges ^ np.eye(n, dtype=bool)  # the non-edges must be nonzero
    if reason is None and np.any(np.abs(a[support]) <= tol):
        reason = "wrong pattern"
    if reason is not None:
        return PSDCheckResult(False, reason, None)
    evals, evecs = eig
    try:
        kept = _above_cutoff(evals, np.max(evals, initial=0.0), rank_tol,
                             "eigenvalue")
    except LinalgError as err:
        return PSDCheckResult(False, f"ambiguous rank: {err}", None)
    if np.count_nonzero(kept) > witness.rank:
        return PSDCheckResult(False, "rank too high", None)
    if np.any(np.abs(np.diag(a)) <= tol):
        return PSDCheckResult(False, "zero Gram vector", None)
    k = min(witness.rank, n)
    factor = evecs[:, n - k:] * np.sqrt(np.clip(evals[n - k:], 0.0, None))
    rep = OrthogonalRepresentation(k, factor.conj())
    verdict = verify_orthogonal_representation(g, rep, tol)
    if not verdict:
        return PSDCheckResult(False, f"Gram factor failed: {verdict}", None)
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
    return QuantumColoring(n_bits, 1, vecs)
