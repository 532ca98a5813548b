"""Dense complex linear algebra primitives shared by the verifiers.

Conventions, fixed package-wide:

* inner products are conjugate-linear in the FIRST argument;
* tensor indices are row-major with the A system most significant, so a
  bipartite state of local dimensions (dA, dB) reshapes to a dA x dB matrix;
* orthogonality-style checks use an absolute entrywise tolerance
  (default 1e-9), rank decisions _above_cutoff's relative cutoff against the
  largest singular / eigen value (default 1e-7): the normal form's Schmidt
  step, support_projector and the PSD witness check;
* products of operator stacks use @ (BLAS); einsum is kept for outer
  products, traces and elementwise sums, which contract nothing;
* per-edge values (game evaluators, edge verifiers) go through PairBlocks(g),
  one way (a reversed edge swaps the tables) and a block of rows at a time, to
  the caller's reducer: memory is a small int per edge plus a block, never (m, c).
* positivity is certified by psd_certified, the one Cholesky in the package;
  eigen-decompositions run only where eigenvalues or eigenvectors are used.
* per-vertex checks go through reps._worst_vertex, a block of vertices at a time,
  and per-vertex projective checks through reps.measurement_ok;
* every blocked kernel sizes its blocks from BLOCK_BYTES, through block_rows.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-7
# scratch bytes of a block of any blocked kernel, so memory is bounded at any
# size; 2 MB gives 128 pair rows at n = 1024, 32 vertices of Omega_10's tables
BLOCK_BYTES = 2 ** 21


def block_rows(row_bytes: int) -> int:
    """Rows of row_bytes each in a block of BLOCK_BYTES (read per call), >= 1."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


class LinalgError(ValueError):
    pass


class PairBlocks:
    """The pair kernel: x[u] . z[w] (no conjugation) for each edge (u, w) of a
    Graph g, u < w, in the order of g.edge_array, for rows of two (n, k)
    arrays.  The dot is symmetric, so the reversed edge's x[w] . z[u] is
    values(z, x).  The edges are grouped once by blocks of rows of x,
    block_rows(a complex product row, one column per vertex up to the largest
    endpoint) read at construction, one small int each; each block costs one
    GEMM against only the rows of z it touches (BLAS speed on dense graphs,
    linear in n on sparse ones), read as a view z[first:last + 1] when they
    are one whole range and gathered otherwise, and the caller's reducer
    keeps what it needs of the block's values and drops them."""

    def __init__(self, g):
        e = g.edge_array
        vs, ws = e[:, 0], e[:, 1]
        top = int(e.max(initial=-1)) + 1
        rows = self.rows = block_rows(16 * top)
        starts = np.arange(0, top + rows, rows)
        cuts = np.searchsorted(vs, starts)
        # per nonempty block: first row, its edges, the columns they touch,
        # and each edge's flat position in the (rows, columns) product
        self.blocks = []
        for lo, i, j in zip(starts[:-1], cuts[:-1], cuts[1:]):
            if j > i:
                cols, at = np.unique(ws[i:j], return_inverse=True)
                at = (vs[i:j] - lo) * cols.size + at
                size = np.min_scalar_type(rows * cols.size)
                if cols[-1] - cols[0] + 1 == cols.size:  # a view, not a gather
                    cols = slice(int(cols[0]), int(cols[-1]) + 1)
                self.blocks.append((lo, slice(i, j), cols, at.astype(size)))

    def values(self, x: np.ndarray, z: np.ndarray):
        """Yields (sel, values) per block: values[i] is the value of edge
        sel.start + i, sel a slice of edge ids."""
        for lo, sel, cols, at in self.blocks:
            yield sel, (x[lo:lo + self.rows] @ z[cols].T).ravel()[at]


def _hermitian_defect(a: np.ndarray) -> np.ndarray:
    return np.abs(a - a.conj().swapaxes(-1, -2))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 the binary64 unit roundoff."""
    return k * 2.0 ** -53 / (1 - k * 2.0 ** -53)


def psd_certified(a: np.ndarray, floor: float = 0.0) -> bool:
    """The package's one positivity certificate: True only if every matrix of
    a Hermitian (d, d) or (..., d, d) stack a has lambda_min >= floor; False
    decides nothing.  Like eigvalsh, it reads only the lower triangle, and
    only the real part of the diagonal.

    Theorem: if the Cholesky of H = A - tI completes in floating point with a
    finite factor, then lambda_min(A) >= t - 2 gamma tr H, gamma = gamma_{d+3}
    (the complex gamma_{d+1}, taken for real A too; Higham 2002, Thm 10.3 and
    sec. 3.6; Demmel 1989); the 2 covers 1/(1 - gamma).  Hypotheses: IEEE
    binary64, round to nearest, no Strassen-type GEMM in potrf.  Guard: t =
    floor + r, r = 4 gamma (max(tr A - d floor) + |floor|) + d^2 2^-1074,
    covers that term twice over, the rounding of the shift and of the traces,
    and underflow (Rump 2006, "Verification of positive definiteness").  A
    NaN or an infinity it reads refuses: the shift is not finite, or potrf
    fails or leaves a factor that is not finite."""
    a = np.asarray(a)
    d = a.shape[-1]
    trace = np.einsum("...ii->...", a).real - d * floor
    r = 4 * _gamma(d + 3) * (np.max(trace, initial=0.0) + abs(floor)) + d * d * 2.0 ** -1074
    shift = floor + r
    try:
        return bool(np.isfinite(shift)
                    and np.isfinite(np.linalg.cholesky(a - shift * np.eye(d))).all())
    except np.linalg.LinAlgError:
        return False


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
    herm = np.max(_hermitian_defect(a), initial=0.0)
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

