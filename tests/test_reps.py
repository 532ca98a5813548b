import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cycle, petersen, random_graph
from qcolor import coloring, datasets, ks, reps
from qcolor.graphs import (cartesian_product, complete_graph, hadamard_graph,
                           make_graph)


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
