import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cycle, petersen, random_graph
from qcolor import coloring, datasets, game, ks, reps
from qcolor.graphs import (cartesian_product, complete_graph, hadamard_graph,
                           make_graph)
from qcolor.linalg import maximally_entangled


# -- verifiers ----------------------------------------------------------------


def test_identity_vectors_represent_edgeless_graph_only():
    g = make_graph(3, [])
    rep = reps.OrthogonalRepresentation(2, np.array([[1, 0], [1, 0], [1, 0]],
                                                    dtype=complex))
    assert reps.verify_orthogonal_representation(g, rep)
    g2 = make_graph(3, [(0, 1)])
    assert not reps.verify_orthogonal_representation(g2, rep)


def test_verify_orthrep_rejects_zero_vector():
    g = make_graph(2, [(0, 1)])
    rep = reps.OrthogonalRepresentation(2, np.array([[1, 0], [0, 0]],
                                                    dtype=complex))
    assert not reps.verify_orthogonal_representation(g, rep)


def test_verify_orthrep_shape_mismatch():
    g = make_graph(3, [(0, 1)])
    rep = reps.OrthogonalRepresentation(2, np.eye(2, dtype=complex))
    with pytest.raises(reps.RepsError):
        reps.verify_orthogonal_representation(g, rep)


def test_verifiers_accept_the_empty_graph():
    g = make_graph(0, [])
    assert reps.verify_quantum_coloring(
        g, reps.QuantumColoring(2, 1, vectors=np.zeros((0, 2, 2))))
    assert reps.verify_quantum_coloring(
        g, reps.QuantumColoring(2, 2, projectors=np.zeros((0, 2, 4, 4))))
    assert reps.verify_matrix_representation(
        g, reps.MatrixRepresentation(2, np.zeros((0, 2, 2))))


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _noise(rng, shape, hermitian=False):
    """Complex noise of a log-uniform scale in [1e-13, 1e-7], straddling the
    default tolerance 1e-9, so about half of the perturbed tables verify."""
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if hermitian:
        z = (z + np.swapaxes(z, -1, -2).conj()) / 2
    return 10 ** rng.uniform(-13, -7) * z


def _golden_verdicts():
    """Verdicts on seeded perturbations of rank-1 colorings (shifted bases of
    classical colorings of K2, C5, Petersen and the Omega_4 Hadamard
    coloring), each rotated by a random unitary: as matrix representations,
    as rank-1 and as rank-2 projector colorings, and the four
    normal_form_properties flags of the projector tables used as strategies
    (maximally entangled state, Bob = conj(Alice), each perturbed)."""
    bases = [(g, reps.quantum_coloring_from_classical(
        g, coloring.chromatic_number(g).certificate).vectors)
        for g in (complete_graph(2), cycle(5), petersen())]
    bases.append((hadamard_graph(4), reps.hadamard_quantum_coloring(4).vectors))
    out = {"matrixrep": "", "rank1": "", "rank2": "", "nf": ""}
    for k, (g, vecs) in enumerate(bases):
        n, c = vecs.shape[:2]
        for case in range(25):
            rng = np.random.default_rng([k, case])
            v = vecs @ _unitary(rng, c).T
            mats = v.transpose(0, 2, 1) + _noise(rng, (n, c, c))
            out["matrixrep"] += "01"[bool(reps.verify_matrix_representation(
                g, reps.MatrixRepresentation(c, mats)))]
            p1 = np.einsum("vai,vaj->vaij", v, v.conj())
            w = _unitary(rng, 2 * c)
            p2 = w @ np.kron(p1, np.eye(2)) @ w.conj().T
            for rank, p in ((1, p1), (2, p2)):
                p = p + _noise(rng, p.shape, hermitian=case % 2 == 0)
                out[f"rank{rank}"] += "01"[bool(reps.verify_quantum_coloring(
                    g, reps.QuantumColoring(c, rank, projectors=p)))]
                d = p.shape[2]
                s = game.POVMStrategy(
                    c, d, d, maximally_entangled(d) + _noise(rng, d * d), p,
                    p.conj() + _noise(rng, p.shape))
                flags = game.normal_form_properties(s, g)
                out["nf"] += "".join("01"[bool(f)] for f in flags.values())
    return out


# recorded before projectors_ok and edges_orthogonal took over the checks
GOLDEN_VERDICTS = {
    "matrixrep": ("0011111110001010110100101111011110101001011101101110011100111100"
                  "010101000010100111111101011001010100"),
    "rank1": ("0110110001111111100100101010111111111100000111100001110110111011"
              "010010110100100111010000110001000100"),
    "rank2": ("1101110110101010011100101000000111111010101011000010100011011101"
              "101110000100010011111010011010110111"),
    "nf": ("0110100111011111111101100110111111011101101111010110000001001101"
           "0100100111110100111111011111010110111111111101101111110111010000"
           "1111011000101011011111011001110101110110011001001011100101100010"
           "1101101100000100101100100010001011110100101100101111010011111111"
           "1101110110011101110111011011110111011001101100000000111100100010"
           "0111111101100100000010011001011011011101110111111111010001100110"
           "0000011000100000000010011001001011111101110101100000011111110110"
           "1101110101101101111101101011111111111111001010111101011011111001"
           "0000100110110010011010010110111110111011010000111001011010010011"
           "0110000011011101000010110010111110010000001011110110011010010000"
           "1111111111011011001110011111111101101111011100000110101101000010"
           "1111011010111111010111010000010000001011101100000111101101101101"
           "01100000111111110011110101001011"),
}


def test_golden_verdicts():
    assert _golden_verdicts() == GOLDEN_VERDICTS


def test_matrixrep_unitarity_required():
    g = complete_graph(2)
    bad = reps.MatrixRepresentation(2, np.array([np.eye(2), 2 * np.eye(2)],
                                                dtype=complex))
    assert not reps.verify_matrix_representation(g, bad)


# -- classical-to-quantum -----------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_quantum_coloring_from_classical(seed):
    g = random_graph(6, 0.5, seed=seed)
    res = coloring.chromatic_number(g)
    qc = reps.quantum_coloring_from_classical(g, res.certificate)
    assert qc.rank == 1 and qc.colors == res.chi
    assert reps.verify_quantum_coloring(g, qc)


def test_quantum_coloring_rejects_improper():
    g = complete_graph(2)
    cert = coloring.ColoringCertificate(2, (0, 0))
    with pytest.raises(reps.RepsError):
        reps.quantum_coloring_from_classical(g, cert)


# -- round trips --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_matrixrep_orthrep_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    g = random_graph(n, 0.4, seed=seed + 100)
    res = coloring.chromatic_number(g)
    c = res.chi
    qc = reps.quantum_coloring_from_classical(g, res.certificate)
    orth = reps.OrthogonalRepresentation(c, qc.vectors.reshape(g.n * c, c))
    prod = cartesian_product(g, complete_graph(c))
    assert reps.verify_orthogonal_representation(prod, orth)
    mrep = reps.orthrep_to_matrixrep(g, orth)
    assert reps.verify_matrix_representation(g, mrep)
    back = reps.matrixrep_to_orthrep(g, mrep)
    assert reps.verify_orthogonal_representation(prod, back)
    # exact round trip: unit columns come back bit-for-bit
    assert np.array_equal(back.vectors, orth.vectors)


def test_orthrep_to_matrixrep_needs_product_structure():
    g = complete_graph(2)
    rep = reps.OrthogonalRepresentation(2, np.eye(2, dtype=complex))
    with pytest.raises(reps.RepsError):
        reps.orthrep_to_matrixrep(g, rep)  # wrong vector count for G x K_2


# -- representation search ----------------------------------------------------


def test_search_c5_dimension_3():
    g = cycle(5)
    res = reps.search_orthogonal_representation(g, 3,
                                                reps.SearchParams(seed=0))
    assert res.found
    assert reps.verify_orthogonal_representation(g, res.representation)


def test_search_infeasible_dimension_fails_honestly():
    g = complete_graph(3)
    res = reps.search_orthogonal_representation(g, 2,
                                                reps.SearchParams(seed=0,
                                                                  restarts=6))
    assert not res.found
    assert res.representation is None
    assert res.best_penalty > 0


def test_search_edgeless():
    g = make_graph(3, [])
    res = reps.search_orthogonal_representation(g, 1, reps.SearchParams())
    assert res.found


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("g", [cycle(5), complete_graph(3), complete_graph(4),
                               make_graph(3, [(0, 1), (1, 2)])],
                         ids=["C5", "K3", "K4", "P3"])
def test_search_dimension_one_fails_cleanly(g, real):
    """In C^1 a gradient step can land a vector exactly on zero; the restart
    must end as not found instead of normalizing zero into NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = reps.search_orthogonal_representation(
            g, 1, reps.SearchParams(real=real))
    assert res.found is False
    assert np.isfinite(res.best_penalty)


def test_representation_from_coloring_verifies():
    g = petersen()
    res = coloring.chromatic_number(g)
    rep = reps.representation_from_coloring(res.certificate)
    assert reps.verify_orthogonal_representation(g, rep)


# -- xi bounds and chi_q1 ------------------------------------------------------


def test_xi_bounds_c5():
    xb = reps.xi_bounds(cycle(5))
    assert (xb.lower, xb.upper) == (2, 3)
    assert reps.verify_orthogonal_representation(cycle(5), xb.upper_witness)


def test_xi_bounds_petersen():
    xb = reps.xi_bounds(petersen())
    assert (xb.lower, xb.upper) == (2, 3)


def test_xi_bounds_complete():
    xb = reps.xi_bounds(complete_graph(4))
    assert (xb.lower, xb.upper) == (4, 4)


def test_chi_q1_complete_graphs():
    for n in range(1, 6):
        res = reps.chi_q1_upper_via_product(complete_graph(n), c_max=n)
        assert res.c == n
        assert res.skipped_infeasible == tuple(range(1, n))
        assert reps.verify_matrix_representation(complete_graph(n), res.witness)


def test_chi_q1_c5():
    res = reps.chi_q1_upper_via_product(cycle(5), c_max=4)
    assert res.c == 3
    assert reps.verify_matrix_representation(cycle(5), res.witness)


def test_chi_q1_no_witness_below_clique():
    res = reps.chi_q1_upper_via_product(complete_graph(4), c_max=3)
    assert res.c is None
    assert res.skipped_infeasible == (1, 2, 3)


# -- PSD witness --------------------------------------------------------------


def umbrella_gram():
    ct = np.cos(4 * np.pi / 5) / (np.cos(4 * np.pi / 5) - 1)
    st_ = np.sqrt(1 - ct)
    u = np.array([[st_ * np.cos(4 * np.pi * k / 5),
                   st_ * np.sin(4 * np.pi * k / 5),
                   np.sqrt(ct)] for k in range(5)])
    gram = u @ u.T
    gram[np.abs(gram) < 1e-12] = 0.0
    return gram.astype(complex)


def test_psd_witness_umbrella_accepted(c5):
    res = reps.psd_witness_check(c5, reps.PSDWitness(umbrella_gram(), 3))
    assert res.ok
    assert reps.verify_orthogonal_representation(c5, res.representation)


def test_psd_witness_rejections(c5):
    gram = umbrella_gram()
    res = reps.psd_witness_check(c5, reps.PSDWitness(gram - 0.5 * np.eye(5), 3))
    assert not res.ok and res.reason == "not PSD"
    v = np.zeros(5, dtype=complex)
    v[0] = v[1] = 1.0  # rank-1 bump filling the (0,1) edge slot, stays PSD
    wrong = gram + 0.1 * np.outer(v, v)
    res = reps.psd_witness_check(c5, reps.PSDWitness(wrong, 3))
    assert not res.ok and "pattern" in res.reason
    res = reps.psd_witness_check(c5, reps.PSDWitness(gram, 2))
    assert not res.ok and "rank" in res.reason
    res = reps.psd_witness_check(c5, reps.PSDWitness(np.eye(5, dtype=complex), 5))
    # identity has empty off-diagonal support; complement of C5 is nonempty
    assert not res.ok and "pattern" in res.reason


def test_psd_witness_malformed_raises(c5):
    with pytest.raises(reps.RepsError):
        reps.psd_witness_check(c5, reps.PSDWitness(np.eye(4, dtype=complex), 3))
    herm_bad = umbrella_gram()
    herm_bad[0, 1] += 1e-3
    with pytest.raises(reps.RepsError):
        reps.psd_witness_check(c5, reps.PSDWitness(herm_bad, 3))


# -- the 13-ray separation -----------------------------------------------------


def test_yu_oh_separates_xi_from_chi():
    vs, _ = datasets.load_vector_set("yu-oh-13")
    s = ks.canonicalize(vs.vectors, labels=vs.labels)
    from qcolor.graphs import orthogonality_graph
    g = orthogonality_graph(s.vectors)
    rep = reps.OrthogonalRepresentation(3, s.vectors)
    assert reps.verify_orthogonal_representation(g, rep)  # xi <= 3
    assert coloring.chromatic_number(g).chi == 4          # chi = 4


# -- Hadamard construction ----------------------------------------------------


@pytest.mark.parametrize("n_bits", [4, 8])
def test_hadamard_quantum_coloring_verifies(n_bits):
    g = hadamard_graph(n_bits)
    qc = reps.hadamard_quantum_coloring(n_bits)
    assert qc.colors == n_bits and qc.rank == 1
    assert reps.verify_quantum_coloring(g, qc)


def test_hadamard_rejects_odd_bits():
    with pytest.raises(reps.RepsError):
        reps.hadamard_quantum_coloring(3)
