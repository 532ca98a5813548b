import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcolor import linalg


def random_state(d_a, d_b, seed, rank=None):
    rng = np.random.default_rng(seed)
    rank = rank or min(d_a, d_b)
    m = np.zeros((d_a, d_b), dtype=complex)
    for _ in range(rank):
        m += np.outer(rng.normal(size=d_a) + 1j * rng.normal(size=d_a),
                      rng.normal(size=d_b) + 1j * rng.normal(size=d_b))
    v = m.ravel()
    return v / np.linalg.norm(v)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_schmidt_reconstructs(d_a, d_b, seed):
    psi = random_state(d_a, d_b, seed)
    dec = linalg.schmidt(psi, d_a, d_b)
    rebuilt = sum(dec.coefficients[i] * np.kron(dec.left[:, i], dec.right[:, i])
                  for i in range(dec.coefficients.size))
    assert np.allclose(rebuilt, psi, atol=1e-10)
    assert np.all(np.diff(dec.coefficients) <= 1e-12)
    assert abs(np.linalg.norm(dec.coefficients) - 1.0) < 1e-10


def test_schmidt_rank_of_product_state():
    psi = np.kron(np.array([1.0, 0.0]), np.array([0.6, 0.8]))
    dec = linalg.schmidt(psi, 2, 2)
    assert dec.rank == 1


def test_schmidt_rank_of_maximally_entangled():
    for d in (2, 3, 4):
        dec = linalg.schmidt(linalg.maximally_entangled(d), d, d)
        assert dec.rank == d
        assert np.allclose(dec.coefficients[:d], 1 / np.sqrt(d))


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_partial_trace_against_naive(d_a, d_b, seed):
    psi = random_state(d_a, d_b, seed)
    rho = np.outer(psi, psi.conj())
    got_a = linalg.partial_trace(rho, d_a, d_b, side="B")
    got_b = linalg.partial_trace(rho, d_a, d_b, side="A")
    naive_a = np.zeros((d_a, d_a), dtype=complex)
    naive_b = np.zeros((d_b, d_b), dtype=complex)
    for i in range(d_a):
        for j in range(d_a):
            for k in range(d_b):
                naive_a[i, j] += rho[i * d_b + k, j * d_b + k]
    for i in range(d_b):
        for j in range(d_b):
            for k in range(d_a):
                naive_b[i, j] += rho[k * d_b + i, k * d_b + j]
    assert np.allclose(got_a, naive_a, atol=1e-12)
    assert np.allclose(got_b, naive_b, atol=1e-12)
    assert np.trace(got_a) == pytest.approx(1.0)
    assert np.trace(got_b) == pytest.approx(1.0)


def test_support_projector_idempotent_and_exact():
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    m = np.outer(v, v) * 0.3
    p = linalg.support_projector(m)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, np.outer(v, v), atol=1e-12)


def test_support_projector_rejects_negative():
    with pytest.raises(ValueError):
        linalg.support_projector(np.diag([1.0, -0.5]))


def test_support_projector_rejects_ambiguous_eigenvalue():
    # cutoff 1e-7 relative to the top eigenvalue 1: 2e-7 is inside the band
    # (1e-8, 1e-6), 1e-4 and 1e-10 are clear of it
    with pytest.raises(linalg.LinalgError, match="ambiguous"):
        linalg.support_projector(np.diag([1.0, 2e-7]))
    p = linalg.support_projector(np.diag([1.0, 1e-4, 1e-10]))
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]))


def _support_reference(m, rank_tol=linalg.DEFAULT_RANK_TOL):
    """One matrix at a time: the eigenvectors above the cutoff, or zero."""
    w, v = np.linalg.eigh(m)
    if w[-1] <= 0:
        return np.zeros_like(m)
    keep = v[:, w > rank_tol * w[-1]]
    return keep @ keep.conj().T


def test_support_projector_stack_matches_each_matrix():
    rng = np.random.default_rng(4)
    stack = np.empty((2, 5, 4, 4), dtype=complex)
    for idx in np.ndindex(2, 5):
        rank = (idx[0] * 5 + idx[1]) % 5  # ranks 0 to 4, zero matrix included
        f = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        stack[idx] = f @ f.conj().T
    stack[1, 0] = -np.eye(4)  # no positive eigenvalue: zero projector
    got = linalg.support_projector(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(2, 5):
        assert np.allclose(got[idx], _support_reference(stack[idx]),
                           rtol=0, atol=1e-12), idx
    stack[0, 1] = np.diag([1.0, 2e-7, 0.0, 0.0])
    with pytest.raises(linalg.LinalgError, match="ambiguous eigenvalue 2e-07"):
        linalg.support_projector(stack)


def test_schmidt_rejects_ambiguous_coefficient():
    # the coefficient 1e-7 sits inside (1e-8, 1e-6), around the cutoff
    psi = np.array([1.0, 0.0, 0.0, 1e-7]) / np.sqrt(1 + 1e-14)
    with pytest.raises(linalg.LinalgError,
                       match="ambiguous Schmidt coefficient"):
        linalg.schmidt(psi, 2, 2)
    assert linalg.schmidt(np.array([1.0, 0.0, 0.0, 1e-4]), 2, 2).rank == 2


def test_support_projector_zero_matrix():
    p = linalg.support_projector(np.zeros((3, 3)))
    assert np.allclose(p, 0.0)


def test_maximally_entangled_reduction_identity():
    # the reduction <psi| E (x) F |psi> = Tr(E F^T)/d on the maximally
    # entangled state, against a naive computation
    rng = np.random.default_rng(3)
    d = 4
    psi = linalg.maximally_entangled(d)
    for _ in range(10):
        e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        naive = psi.conj() @ (np.kron(e, f) @ psi)
        assert naive == pytest.approx(np.trace(e @ f.T) / d, abs=1e-12)


@pytest.mark.parametrize("n, c, k, m", [
    (2 * linalg.PAIR_BLOCK + 37, 3, 5, 3000),  # three row blocks
    (7, 1, 4, 30),                             # a single color
    (5, 4, 2, 0),                              # no pairs at all
])
def test_pair_values_matches_einsum(n, c, k, m):
    rng = np.random.default_rng(n + m)
    x = rng.normal(size=(n, c, k)) + 1j * rng.normal(size=(n, c, k))
    z = rng.normal(size=(n, c, k)) + 1j * rng.normal(size=(n, c, k))
    vs = rng.integers(0, n, size=m)
    ws = rng.integers(0, n, size=m)
    # unsorted pairs, then a repeated half, then every pair reversed
    vs, ws = (np.concatenate([vs, vs[:m // 2], ws]),
              np.concatenate([ws, ws[:m // 2], vs]))
    got = linalg.pair_values(x, z, vs, ws)
    assert got.shape == (len(vs), c)
    want = np.einsum("eak,eak->ea", x[vs], z[ws])
    assert np.allclose(got, want, rtol=0, atol=1e-12)
