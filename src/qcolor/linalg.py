"""Dense complex linear algebra primitives shared by the verifiers.

Conventions, fixed package-wide:

* inner products are conjugate-linear in the FIRST argument;
* tensor indices are row-major with the A system most significant, so a
  bipartite state of local dimensions (dA, dB) reshapes to a dA x dB matrix;
* orthogonality-style checks use an absolute entrywise tolerance
  (default 1e-9), rank decisions a relative cutoff against the largest
  singular / eigen value (default 1e-7);
* products of operator stacks use @ (BLAS); einsum is kept for outer
  products, traces and elementwise sums, which contract nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-7
# rows of x per GEMM in pair_values: bounds the (block, columns) scratch
# product while keeping each product large enough for BLAS
PAIR_BLOCK = 512


class LinalgError(ValueError):
    pass


def pair_values(x: np.ndarray, z: np.ndarray, vs: np.ndarray,
                ws: np.ndarray) -> np.ndarray:
    """Per-pair, per-color bilinear values of two (n, c, k) arrays:
    out[e, a] = sum_k x[vs[e], a, k] * z[ws[e], a, k], shape (len(vs), c).

    Pairs are grouped by PAIR_BLOCK-row blocks of x; each block and color
    costs one GEMM against only the columns of z its pairs touch, so dense
    pair sets run at BLAS speed and sparse ones stay linear in n.  Results
    land at their original pair index, whatever order the pairs come in."""
    vs = np.asarray(vs, dtype=np.int64)
    ws = np.asarray(ws, dtype=np.int64)
    n, c = x.shape[0], x.shape[1]
    out = np.empty((vs.shape[0], c), dtype=np.result_type(x, z))
    order = np.argsort(vs, kind="stable")
    bounds = np.searchsorted(vs[order], np.arange(0, n + PAIR_BLOCK, PAIR_BLOCK))
    for b, lo in enumerate(range(0, n, PAIR_BLOCK)):
        sel = order[bounds[b]:bounds[b + 1]]
        if sel.size == 0:
            continue
        rows = vs[sel] - lo
        cols, col_of = np.unique(ws[sel], return_inverse=True)
        for a in range(c):
            t = x[lo:lo + PAIR_BLOCK, a] @ z[cols, a].T
            out[sel, a] = t[rows, col_of]
    return out


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite pure state.

    coefficients are all min(dA,dB) singular values (nonincreasing); rank
    counts those above rank_tol relative to the largest.  left[:, i] and
    right[:, i] are the i-th Schmidt vectors, so the state reconstructs as
    sum_i coefficients[i] * kron(left[:, i], right[:, i]).
    """
    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rank: int


def _above_cutoff(values: np.ndarray, top, rank_tol: float,
                  what: str) -> np.ndarray:
    """Which entries of values exceed the rank cutoff rank_tol * top (top
    holds one scale per index but the last); rejects as ambiguous an entry
    within a factor 10 of its cutoff."""
    cut = np.broadcast_to(rank_tol * np.asarray(top)[..., None], values.shape)
    band = (values > cut / 10) & (values < cut * 10)
    if np.any(band):
        raise LinalgError(f"ambiguous {what} {values[band][0]:.3g} near the "
                          f"rank cutoff {cut[band][0]:.3g}")
    return values > cut


def schmidt(state: np.ndarray, d_a: int, d_b: int,
            rank_tol: float = DEFAULT_RANK_TOL) -> SchmidtDecomposition:
    state = np.asarray(state, dtype=complex).ravel()
    if d_a * d_b != state.size:
        raise LinalgError(f"state of size {state.size} does not factor as {d_a}x{d_b}")
    nrm = np.linalg.norm(state)
    if nrm == 0:
        raise LinalgError("zero state has no Schmidt decomposition")
    mat = state.reshape(d_a, d_b)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    # state = sum_i s[i] * u[:, i] (x) vh[i, :].T  (no conjugation: vh rows
    # are already the B-side kets in this matrix picture)
    kept = _above_cutoff(s, s[0], rank_tol, "Schmidt coefficient")
    return SchmidtDecomposition(coefficients=s, left=u, right=vh.T,
                                rank=int(np.count_nonzero(kept)))


def support_projector(a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL,
                      tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors of a PSD matrix with
    eigenvalue above rank_tol relative to the largest (zero for a matrix with
    no positive eigenvalue), for one (d, d) matrix or each of an (..., d, d)
    stack.  Rejects a Hermitian defect above tol, an eigenvalue below -tol
    relative to the largest, and, as ambiguous, an eigenvalue within a
    factor 10 of the rank cutoff."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise LinalgError("support requires a square matrix")
    herm = np.max(np.abs(a - a.conj().swapaxes(-2, -1)), initial=0.0)
    if herm > tol:
        raise LinalgError(f"matrix is not Hermitian (defect {herm:.3g})")
    w, v = np.linalg.eigh(a)
    top = np.max(w, axis=-1, initial=0.0)  # 0: no positive eigenvalue
    low = np.min(w, axis=-1, initial=0.0)
    bad = (top > 0) & (low < -tol * top)
    if np.any(bad):
        raise LinalgError(f"matrix is not PSD (eigenvalue {low[bad][0]:.3g})")
    keep = _above_cutoff(w, top, rank_tol, "eigenvalue")
    return (v * keep[..., None, :]) @ v.conj().swapaxes(-2, -1)


def partial_trace(m: np.ndarray, d_a: int, d_b: int, side: str) -> np.ndarray:
    """Trace out one tensor factor of a (dA*dB)x(dA*dB) matrix.

    side "B" keeps the A system, side "A" keeps the B system.
    """
    m = np.asarray(m, dtype=complex)
    d = d_a * d_b
    if m.shape != (d, d):
        raise LinalgError(f"matrix shape {m.shape} does not factor as ({d_a}x{d_b})^2")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        return np.einsum("ibjb->ij", t)
    if side == "A":
        return np.einsum("aiaj->ij", t)
    raise LinalgError(f"side must be 'A' or 'B', got {side!r}")


def maximally_entangled(d: int) -> np.ndarray:
    """sum_i |ii> / sqrt(d) as a flat vector of length d*d."""
    return (np.eye(d, dtype=complex) / np.sqrt(d)).ravel()

