import dataclasses
import hashlib
import importlib
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cycle, graphs_st, petersen, random_graph, umbrella_gram
import qcolor
from qcolor import coloring, datasets, game, ks, linalg, reps
from qcolor.graphs import (cartesian_product, complete_graph, hadamard_graph,
                           make_graph, orthogonality_graph)
from qcolor.linalg import DEFAULT_RANK_TOL, maximally_entangled


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
        g, reps.QuantumColoring(2, 1, np.zeros((0, 2, 2))))
    assert reps.verify_quantum_coloring(
        g, reps.QuantumColoring(2, 2, np.zeros((0, 2, 4, 4))))
    assert reps.verify_matrix_representation(
        g, reps.MatrixRepresentation(2, np.zeros((0, 2, 2))))


def test_verifiers_reject_dimension_zero():
    """C^0 holds no state: a "coloring" there would bound chi_q1(K3) by 0."""
    g = complete_graph(3)
    assert not reps.verify_quantum_coloring(
        g, reps.QuantumColoring(0, 1, np.zeros((3, 0, 0))))
    assert not reps.verify_quantum_coloring(
        g, reps.QuantumColoring(2, 0, np.zeros((3, 2, 0, 0))))
    assert not reps.verify_matrix_representation(
        g, reps.MatrixRepresentation(0, np.zeros((3, 0, 0))))


@pytest.mark.parametrize("colors, rank, shape", [
    (2, 1, (3, 2)), (2, 1, (3, 2, 2, 2, 2)), (2, 1, (3, 3, 2)), (2, 1, (3, 3, 2, 2)),
    (2, 1, (3, 2, 2, 3)), (2, 2, (3, 2, 4))],
    ids=["ndim-2", "ndim-5", "vectors-colors", "projectors-colors", "not-square",
         "vectors-rank-2"])
def test_quantum_coloring_refuses_a_malformed_table(colors, rank, shape):
    with pytest.raises(reps.RepsError):
        reps.QuantumColoring(colors, rank, np.zeros(shape))


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
        g, coloring.chromatic_number(g).certificate).table)
        for g in (complete_graph(2), cycle(5), petersen())]
    bases.append((hadamard_graph(4), reps.hadamard_quantum_coloring(4).table))
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
                    g, reps.QuantumColoring(c, rank, p)))]
                d = p.shape[2]
                s = game.POVMStrategy(
                    c, d, d, maximally_entangled(d) + _noise(rng, d * d), p,
                    p.conj() + _noise(rng, p.shape))
                flags = game.normal_form_properties(s, g)
                out["nf"] += "".join("01"[bool(f)] for f in flags.values())
    return out


# recorded before measurement_ok and edges_orthogonal took over the checks
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


def test_verdicts_name_what_failed_and_where():
    g = cycle(5)
    vecs = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    dtype=complex)
    ok = reps.verify_orthogonal_representation(g, reps.OrthogonalRepresentation(3, vecs))
    assert isinstance(ok, reps.VerifyResult) and ok and ok.reason is None
    assert ok.residual == 0.0
    bad = vecs.copy()
    bad[2] = [0.6, 0.8, 0]  # edges (1, 2) and (2, 3) now meet at 0.8
    verdict = reps.verify_orthogonal_representation(g, reps.OrthogonalRepresentation(3, bad))
    assert not verdict and verdict.reason == "edge not orthogonal"
    assert verdict.residual == pytest.approx(0.8) and verdict.where == (1, 2, 0)
    assert str(verdict) == "edge not orthogonal on edge (1, 2), color 0 (residual 0.8)"
    bad[2] = 0
    verdict = reps.verify_orthogonal_representation(g, reps.OrthogonalRepresentation(3, bad))
    assert not verdict and verdict.where == (2,)
    assert str(verdict) == "zero vector at vertex 2 (residual 0)"
    qc = reps.hadamard_quantum_coloring(4)
    h = hadamard_graph(4)
    vectors = qc.table.copy()
    vectors[9, 1] *= 1.5  # no longer a unit vector
    verdict = reps.verify_quantum_coloring(h, reps.QuantumColoring(4, 1, vectors))
    assert not verdict and verdict.where == (9,)
    assert verdict.residual == pytest.approx(1.25)
    assert verdict.reason == "not an orthonormal basis"
    verdict = reps.verify_quantum_coloring(
        h, reps.QuantumColoring(4, 1, qc.table[:, :, :3]))
    assert not verdict and verdict.where is None and verdict.residual == 1.0


@pytest.mark.parametrize("vertex", [0, 5, 15])
def test_a_nan_makes_every_verifier_reject(vertex):
    g = hadamard_graph(4)
    vecs = reps.hadamard_quantum_coloring(4).table.copy()
    vecs[vertex, 2, 1] = np.nan
    verdict = reps.edges_orthogonal(g, vecs, 1e-9)
    assert not verdict and np.isnan(verdict.residual)
    assert vertex in verdict.where[:2] and verdict.where[2] == 2
    p = np.einsum("vai,vaj->vaij", vecs, vecs.conj())
    assert not reps.verify_quantum_coloring(g, reps.QuantumColoring(4, 1, vecs))
    assert not reps.verify_quantum_coloring(g, reps.QuantumColoring(4, 1, p))
    assert not reps.verify_matrix_representation(
        g, reps.MatrixRepresentation(4, vecs.transpose(0, 2, 1)))
    assert not reps.verify_orthogonal_representation(
        g, reps.OrthogonalRepresentation(4, vecs[:, 2]))


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
    orth = reps.OrthogonalRepresentation(c, qc.table.reshape(g.n * c, c))
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
    res = reps.search_orthogonal_representation(g, 2, reps.SearchParams(seed=0))
    assert not res.found
    assert res.representation is None
    assert res.best_penalty > 0


def test_search_edgeless():
    g = make_graph(3, [])
    res = reps.search_orthogonal_representation(g, 1, reps.SearchParams())
    assert res.found


@pytest.mark.parametrize("g", [cycle(5), complete_graph(3), complete_graph(4),
                               make_graph(3, [(0, 1), (1, 2)])],
                         ids=["C5", "K3", "K4", "P3"])
def test_search_dimension_one_fails_cleanly(g):
    """In C^1 a gradient step can land a vector exactly on zero; the restart
    must end as not found instead of normalizing zero into NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = reps.search_orthogonal_representation(g, 1)
    assert res.found is False
    assert np.isfinite(res.best_penalty)


@pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1e-9},
                                {"tol": float("nan")}, {"tol": float("inf")},
                                {"seed": -1}, {"tol": float("-inf")},
                                {"seed": -2**63}])
def test_search_params_rejects_bad_values(kw):
    with pytest.raises(reps.RepsError):
        reps.SearchParams(**kw)


def _add_at_terms(x, e):
    """Penalty and gradient of one vector set, summed edge by edge with
    np.add.at."""
    e0, e1 = e[:, 0], e[:, 1]
    pe = np.einsum("ec,ec->e", x[e0].conj(), x[e1])
    grad = np.zeros_like(x)
    np.add.at(grad, e0, x[e1] * pe.conj()[:, None])
    np.add.at(grad, e1, x[e0] * pe[:, None])
    return float(np.sum(np.abs(pe) ** 2)), grad


@pytest.mark.parametrize("g", [petersen(), random_graph(12, 0.4, 3),
                               make_graph(7, [(0, 3), (3, 5), (0, 5), (1, 3)])],
                         ids=["petersen", "gnp", "isolated"])
def test_lockstep_terms_match_the_per_restart_sum(g):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, g.n, 4)) + 1j * rng.normal(size=(6, g.n, 4))
    penalty, grad = reps._HalfEdges(g.edge_array).penalty_and_gradient(x)
    assert penalty.shape == (6,) and grad.shape == x.shape
    for r in range(6):
        p, gr = _add_at_terms(x[r], g.edge_array)
        assert penalty[r] == pytest.approx(p, rel=1e-12)
        np.testing.assert_allclose(grad[r], gr, rtol=0, atol=1e-12)
    isolated = np.setdiff1d(np.arange(g.n), g.edge_array)
    assert np.all(grad[:, isolated] == 0)


def test_polish_gives_up_when_a_projection_leaves_nothing():
    # K_2 in C^2 with both vectors e_0: vertex 0's neighbour spans e_0, so
    # projecting it out leaves vertex 0 the zero vector
    x = np.array([[1, 0], [1, 0]], dtype=complex)
    assert reps._polish(x, [np.array([1]), np.array([0])], 1e-9) is False
    np.testing.assert_array_equal(x, [[1, 0], [1, 0]])


@pytest.mark.parametrize("g,c", [(cycle(7), 3), (petersen(), 3)],
                         ids=["C7-found", "petersen-miss"])
def test_search_repeats_bit_for_bit(g, c):
    a, b = (reps.search_orthogonal_representation(g, c, reps.SearchParams(seed=3))
            for _ in range(2))
    assert (a.found, a.restarts_tried) == (b.found, b.restarts_tried)
    assert a.best_penalty == b.best_penalty
    if a.found:
        assert np.array_equal(a.representation.vectors, b.representation.vectors)


@pytest.mark.parametrize("per_block", [1, 5])
@pytest.mark.parametrize("g,c", [(cycle(5), 3), (petersen(), 3),
                                 (complete_graph(3), 2)],
                         ids=["C5-found", "petersen-miss", "K3-infeasible"])
def test_restart_blocks_give_the_single_block_result(monkeypatch, g, c, per_block):
    params = reps.SearchParams(seed=2)
    whole = reps.search_orthogonal_representation(g, c, params)
    sizes = []
    descend = reps._descend

    def spy(x, half):
        sizes.append(x.shape[0])
        return descend(x, half)
    monkeypatch.setattr(reps, "_descend", spy)
    monkeypatch.setattr(linalg, "BLOCK_BYTES",
                        per_block * 2 * g.edge_array.shape[0] * c * 16)
    split = reps.search_orthogonal_representation(g, c, params)
    assert (split.found, split.restarts_tried) == (whole.found, whole.restarts_tried)
    assert split.best_penalty == pytest.approx(whole.best_penalty, rel=1e-12)
    full, rest = divmod(reps.SEARCH_RESTARTS, per_block)
    blocks = [per_block] * full + [rest] * (rest > 0)
    assert sizes == blocks[:len(sizes)]
    if split.found:  # the winner is in the last block that ran
        assert sum(sizes[:-1]) < split.restarts_tried <= sum(sizes)
    else:
        assert sum(sizes) == reps.SEARCH_RESTARTS


def _golden_graphs():
    """C5, C7, C9, Petersen and six G(n, p) graphs (10-20 vertices, p in
    [0.2, 0.5]) drawn from default_rng(0) the way the reps benchmark
    workload draws its graphs, without its per-seed relabeling."""
    out = {"C5": cycle(5), "C7": cycle(7), "C9": cycle(9), "petersen": petersen()}
    fixed = np.random.default_rng(0)
    for i in range(6):
        n = int(fixed.integers(10, 21))
        p = float(fixed.uniform(0.2, 0.5))
        iu = np.triu_indices(n, 1)
        keep = fixed.random(iu[0].size) < p
        out[f"gnp{i}"] = make_graph(n, np.stack([iu[0][keep], iu[1][keep]], axis=1))
    return out


GOLDEN_GRAPHS = _golden_graphs()

# (graph, seed) -> xi_bounds upper, chi_q1_upper_via_product c (c_max = chi),
# and found, restarts_tried and best_penalty of the search in C^3, all at
# SearchParams(seed=seed); recorded when the restarts still ran one by one.
# The petersen, gnp1 and gnp5 rows were recorded again once _polish kept at
# most c - 1 directions of the neighbors' span: before, a near-feasible
# restart projected out all of C^c and was dropped, so Petersen and gnp1
# were missed in C^3 on every restart, and the xi upper bound of gnp1 was 4
# (now 3) and of gnp5 6 (now 5, its clique bound).
GOLDEN_SEARCH = {
    ("C5", 0): (3, 3, True, 1, 0.0),
    ("C5", 1): (3, 3, True, 1, 0.0),
    ("C5", 2): (3, 3, True, 1, 0.0),
    ("C5", 3): (3, 3, True, 1, 0.0),
    ("C7", 0): (3, 3, True, 1, 0.0),
    ("C7", 1): (3, 3, True, 1, 0.0),
    ("C7", 2): (3, 3, True, 1, 0.0),
    ("C7", 3): (3, 3, True, 1, 0.0),
    ("C9", 0): (3, 3, True, 1, 0.0),
    ("C9", 1): (3, 3, True, 1, 0.0),
    ("C9", 2): (3, 3, True, 1, 0.0),
    ("C9", 3): (3, 3, True, 1, 0.0),
    ("petersen", 0): (3, 3, True, 1, 0.0),
    ("petersen", 1): (3, 3, True, 2, 0.0),
    ("petersen", 2): (3, 3, True, 3, 0.0),
    ("petersen", 3): (3, 3, True, 1, 0.0),
    ("gnp0", 0): (4, 4, False, 24, 1.0760495357354263),
    ("gnp0", 1): (4, 4, False, 24, 1.0761163613493294),
    ("gnp0", 2): (4, 4, False, 24, 1.076199744235151),
    ("gnp0", 3): (4, 4, False, 24, 1.0760345420266746),
    ("gnp1", 0): (3, 3, True, 1, 0.0),
    ("gnp1", 1): (3, 3, True, 2, 0.0),
    ("gnp1", 2): (3, 3, True, 1, 0.0),
    ("gnp1", 3): (3, 3, True, 1, 0.0),
    ("gnp2", 0): (4, 4, False, 24, 0.7075991266009469),
    ("gnp2", 1): (4, 4, False, 24, 0.7070249946198286),
    ("gnp2", 2): (4, 4, False, 24, 0.7071939729450798),
    ("gnp2", 3): (4, 4, False, 24, 0.7073933326096777),
    ("gnp3", 0): (4, 4, False, 24, 0.7265507372035471),
    ("gnp3", 1): (4, 4, False, 24, 0.7265507468725119),
    ("gnp3", 2): (4, 4, False, 24, 0.7265509106715623),
    ("gnp3", 3): (4, 4, False, 24, 0.7265507411181557),
    ("gnp4", 0): (4, 4, False, 24, 0.466918568282994),
    ("gnp4", 1): (4, 4, False, 24, 0.46701821252017817),
    ("gnp4", 2): (4, 4, False, 24, 0.46741781487037987),
    ("gnp4", 3): (4, 4, False, 24, 0.4677629184776359),
    ("gnp5", 0): (5, 5, False, 24, 6.736100001988298),
    ("gnp5", 1): (5, 5, False, 24, 6.736099920282408),
    ("gnp5", 2): (5, 5, False, 24, 6.7360999887624615),
    ("gnp5", 3): (5, 5, False, 24, 6.7360998907419),
}


@pytest.mark.parametrize("name,seed", list(GOLDEN_SEARCH))
def test_search_golden(name, seed):
    g = GOLDEN_GRAPHS[name]
    params = reps.SearchParams(seed=seed)
    upper, c, found, tried, best = GOLDEN_SEARCH[name, seed]
    xb = reps.xi_bounds(g, params)
    assert xb.upper == upper
    assert reps.verify_orthogonal_representation(g, xb.upper_witness, params.tol)
    cq = reps.chi_q1_upper_via_product(g, coloring.chromatic_number(g).chi, params)
    assert cq.c == c
    assert reps.verify_matrix_representation(g, cq.witness, params.tol)
    res = reps.search_orthogonal_representation(g, 3, params)
    assert (res.found, res.restarts_tried) == (found, tried)
    assert res.best_penalty == pytest.approx(best, rel=1e-6, abs=0)


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


def test_psd_witness_empty_graph():
    res = reps.psd_witness_check(make_graph(0, []),
                                 reps.PSDWitness(np.zeros((0, 0)), 0))
    assert res.ok and res.representation.vectors.shape == (0, 0)


def test_psd_witness_rank_above_n_accepted(c5):
    res = reps.psd_witness_check(c5, reps.PSDWitness(umbrella_gram(), 6))
    assert res.ok and res.representation.dimension == 5
    assert reps.verify_orthogonal_representation(c5, res.representation)


def test_psd_witness_negative_rank_rejected():
    with pytest.raises(reps.RepsError, match="rank"):
        reps.PSDWitness(umbrella_gram(), -1)


def test_psd_witness_ambiguous_rank_rejected():
    # K3's non-edges are empty, so a diagonal witness has the right pattern;
    # its third eigenvalue is 3x the cutoff rank_tol * 1, inside the band
    w = reps.PSDWitness(np.diag([1.0, 1.0, 3 * DEFAULT_RANK_TOL]), 3)
    res = reps.psd_witness_check(complete_graph(3), w)
    assert not res.ok and res.reason.startswith("ambiguous rank")


# -- Lovasz theta lower bound ---------------------------------------------------


def complete_multipartite(*sizes):
    part = np.repeat(np.arange(len(sizes)), sizes)
    iu = np.triu_indices(part.size, 1)
    keep = part[iu[0]] != part[iu[1]]
    return make_graph(part.size, np.stack([iu[0][keep], iu[1][keep]], axis=1))


PERFECT_GRAPHS = {**{f"K{n}": complete_graph(n) for n in range(1, 7)},
                  "edgeless4": make_graph(4, []), "C6": cycle(6), "C8": cycle(8),
                  "K3,4": complete_multipartite(3, 4),
                  "K2,2,3": complete_multipartite(2, 2, 3)}


@pytest.mark.parametrize("name", list(PERFECT_GRAPHS))
def test_theta_certifies_omega_on_perfect_graphs(name):
    """theta(complement) = omega exactly on a perfect graph.  Solved past its
    target (all iterations), the sum lands just below omega (on the edgeless
    graph exactly on 1), and the claim must be omega: never omega + 1 (the
    summation margin delta), nor less."""
    g = PERFECT_GRAPHS[name]
    omega = coloring.clique_number(g).omega
    check = reps.verify_theta_certificate(g, reps.theta_certificate(g, omega + 1))
    assert check.ok and check.bound == omega


@pytest.mark.parametrize("g", [cycle(5), cycle(7), cycle(9), petersen()],
                         ids=["C5", "C7", "C9", "petersen"])
def test_theta_certifies_xi_3(g):
    check = reps.verify_theta_certificate(g, reps.theta_certificate(g, 3))
    assert check.ok and check.bound == 3
    xb = reps.xi_bounds(g)
    assert xb.lower == len(xb.lower_clique) == 2
    assert xb.lower_theta == xb.upper == 3
    assert reps.verify_theta_certificate(g, xb.theta_witness).bound == 3


def test_theta_petersen_sum_is_five_halves():
    # theta(complement of Petersen) = 10 / theta(Petersen) = 10 / 4; an
    # unreachable target runs every iteration
    x = reps.theta_certificate(petersen(), 4).matrix
    assert np.trace(x) == pytest.approx(1.0, abs=1e-12)
    assert x.sum() == pytest.approx(2.5, abs=1e-3)
    assert reps.verify_theta_certificate(petersen(), reps.ThetaCertificate(x)).bound == 3


@pytest.mark.parametrize("name", list(GOLDEN_GRAPHS))
def test_theta_between_omega_and_xi_upper_on_golden_graphs(name):
    g = GOLDEN_GRAPHS[name]
    xb = reps.xi_bounds(g)
    check = reps.verify_theta_certificate(g, reps.theta_certificate(g, g.n + 1))
    assert check.ok and xb.lower <= check.bound <= xb.upper
    if xb.lower_theta is not None:
        assert xb.lower_theta <= xb.upper


@given(graphs_st())
@settings(max_examples=40, deadline=None)
def test_theta_bound_is_sound_on_small_graphs(g):
    """Solved for all its iterations, the verified bound lies between omega
    and chi on graphs of up to 8 vertices."""
    check = reps.verify_theta_certificate(g, reps.theta_certificate(g, g.n + 1))
    assert check.ok
    assert coloring.clique_number(g).omega <= check.bound
    assert check.bound <= coloring.chromatic_number(g).chi


def test_theta_certificate_rejections():
    g = cycle(5)
    x = reps.theta_certificate(g, 3).matrix
    assert reps.verify_theta_certificate(g, reps.ThetaCertificate(x)).bound == 3
    bad = x.copy()
    bad[0, 2] = bad[2, 0] = 1e-300  # 0 and 2 are not adjacent in C5
    res = reps.verify_theta_certificate(g, reps.ThetaCertificate(bad))
    assert (res.ok, res.bound, res.reason) == (False, None, "wrong pattern")
    res = reps.verify_theta_certificate(g, reps.ThetaCertificate(1.5 * x))
    assert not res and res.reason == "trace is not 1"
    res = reps.verify_theta_certificate(g, reps.ThetaCertificate(np.zeros((5, 5))))
    assert not res and res.reason == "not PSD"  # the shift s below is positive
    # the verifier proves lambda_min >= 0 by a Cholesky of X - sI, with s =
    # 4 gamma_{n+3} tr X + n^2 2^-1074 (n = 5, tr X = 1); pinned on both
    # sides.  At 2s the matrix is below the former eigenvalue margin 64 n
    # eps ||X||_F (about 4e-14), which rejected it.
    u = 2.0 ** -53
    s = 4 * 8 * u / (1 - 8 * u) + 25 * 2.0 ** -1074
    lam = np.linalg.eigvalsh(x)[0]
    for target, ok in ((2 * s, True), (-1e-12, False)):
        shifted = x + (target - lam) * np.eye(5)
        shifted /= np.trace(shifted)  # trace 1, lambda_min about 1.15 target
        res = reps.verify_theta_certificate(g, reps.ThetaCertificate(shifted))
        assert (res.ok, res.reason) == (ok, None if ok else "not PSD"), target


def test_theta_certificate_malformed_raises():
    g = cycle(5)
    x = reps.theta_certificate(g, 3).matrix
    skew = x.copy()
    skew[0, 1] += 1e-15
    with pytest.raises(reps.RepsError, match="Hermitian"):
        reps.verify_theta_certificate(g, reps.ThetaCertificate(skew))
    with pytest.raises(reps.RepsError):
        reps.verify_theta_certificate(cycle(6), reps.ThetaCertificate(x))
    with pytest.raises(reps.RepsError, match="real"):
        reps.ThetaCertificate(x + 1e-3j)
    with pytest.raises(reps.RepsError, match="square"):
        reps.ThetaCertificate(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "infinity"])
@pytest.mark.parametrize("where", [(0, 1), (2, 2), (0, 2)],
                         ids=["adjacent", "diagonal", "non-adjacent"])
def test_matrix_verifiers_refuse_a_non_finite_entry(bad, where):
    """A NaN or an infinity in a theta certificate or a PSD witness is an
    input error, raised before any factorization: it used to escape as
    LinAlgError from eigh, or as OverflowError from math.ceil."""
    g = cycle(5)
    x = reps.theta_certificate(g, 3).matrix.copy()
    x[where] = x[where[::-1]] = bad
    with pytest.raises(reps.RepsError, match="not finite"):
        reps.verify_theta_certificate(g, reps.ThetaCertificate(x))
    with pytest.raises(reps.RepsError, match="not finite"):
        reps.psd_witness_check(g, reps.PSDWitness(x, 3))


def test_searches_skipped_only_with_a_verified_theta(monkeypatch):
    searched = []
    search = reps.search_orthogonal_representation

    def spy(g, c, params=reps.SearchParams()):
        searched.append(c)
        return search(g, c, params)
    monkeypatch.setattr(reps, "search_orthogonal_representation", spy)
    xb = reps.xi_bounds(cycle(5))
    cq = reps.chi_q1_upper_via_product(cycle(5), 3)
    assert searched == [] and cq.skipped_infeasible == (1, 2)
    assert (xb.upper, cq.c) == (3, 3)
    monkeypatch.setattr(reps, "verify_theta_certificate",
                        lambda g, cert, tol: reps.ThetaCheckResult(False, None, "no"))
    xb = reps.xi_bounds(cycle(5))
    cq = reps.chi_q1_upper_via_product(cycle(5), 3)
    assert xb.lower_theta is None and cq.skipped_infeasible == (1,)
    assert searched == [2, 2] and (xb.upper, cq.c) == (3, 3)


# -- the 13-ray separation -----------------------------------------------------


def test_yu_oh_separates_xi_from_chi():
    vs, _ = datasets.load_vector_set("yu-oh-13")
    s = ks.canonicalize(vs.vectors, labels=vs.labels)
    from qcolor.graphs import orthogonality_graph
    g = orthogonality_graph(s.vectors)
    rep = reps.OrthogonalRepresentation(3, s.vectors)
    assert reps.verify_orthogonal_representation(g, rep)  # xi <= 3
    assert coloring.chromatic_number(g).chi == 4          # chi = 4


@pytest.mark.parametrize("name, c", [("yu-oh-13", 3), ("peres-33", 3),
                                     ("cabello-18", 4)])
def test_search_finds_bundled_sets_in_their_dimension(name, c):
    """The rays of each bundled set represent its orthogonality graph in
    C^d; the search finds such a representation too, not only near one."""
    vs, _ = datasets.load_vector_set(name)
    g = orthogonality_graph(ks.canonicalize(vs.vectors).vectors)
    res = reps.search_orthogonal_representation(g, c, reps.SearchParams(seed=0))
    assert res.found
    assert reps.verify_orthogonal_representation(g, res.representation)


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


# -- golden bound path ---------------------------------------------------------


def _digest(*values) -> str:
    """sha256 prefix of the values; arrays count by dtype, shape and bytes."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            v = (v.dtype.str, v.shape, np.ascontiguousarray(v).tobytes())
        h.update(repr(v).encode())
    return h.hexdigest()[:16]


def _yu_oh():
    vs, _ = datasets.load_vector_set("yu-oh-13")
    return orthogonality_graph(ks.canonicalize(vs.vectors).vectors)


BOUND_PATH_GRAPHS = {**GOLDEN_GRAPHS, "K4": complete_graph(4),
                     **{f"gnp-{n}-{seed}": random_graph(n, 0.4, seed)
                        for n in range(5, 12) for seed in range(3)}}


def _bound_path_digests(g):
    xb = reps.xi_bounds(g)
    theta = None if xb.theta_witness is None else xb.theta_witness.matrix
    cq = reps.chi_q1_upper_via_product(g, coloring.chromatic_number(g).chi)
    return (_digest(xb.lower, xb.lower_clique, xb.upper, xb.lower_theta, theta,
                    xb.upper_witness.dimension, xb.upper_witness.vectors),
            _digest(cq.c, cq.skipped_infeasible, cq.witness.matrices))


# name -> digests of (xi_bounds: lower, lower_clique, upper, lower_theta, the
# theta matrix, the upper witness) and of (chi_q1_upper_via_product at c_max
# = chi: c, skipped_infeasible, the witness matrices), default SearchParams
GOLDEN_BOUND_PATH = {
    'C5': ('f3f1b6b697927f1e', 'e45f039efe77a6b4'),
    'C7': ('ec63c12a2538f5a3', '78499982b6244382'),
    'C9': ('7b006fb5e9781a3a', 'c0520e638eafc0d6'),
    'petersen': ('9fd47d42086bef53', 'dabd2e9d30c0c685'),
    'gnp0': ('ce469042cc29561b', 'a0063243be89bd20'),
    'gnp1': ('31472eb11d326fb6', '1f7d5cbc63774aa9'),
    'gnp2': ('c2a2e488fbfa09dc', '9f2a5e4bebb611bf'),
    'gnp3': ('b689a26f517ecc3b', 'ab181ae4b9d6a958'),
    'gnp4': ('cc68c4298eb8983a', '23aa25068fdd7525'),
    'gnp5': ('dc0dc531bc0e7fba', '5a2e052771cae613'),
    'K4': ('61f67b1d6ff2ed87', '128e53e01de56afb'),
    'gnp-5-0': ('29f769b8a01c5496', '2ea2f3e95b12ea97'),
    'gnp-5-1': ('8583f69c64b13596', '0552e000a8c17abe'),
    'gnp-5-2': ('adf1cededc0135c7', '217559dd69c57762'),
    'gnp-6-0': ('3cfd0d9a4f8b1958', '5d051b094989051a'),
    'gnp-6-1': ('86b81a68b9fc78a6', '5b4cd544591b9e11'),
    'gnp-6-2': ('3a87a676bfef86fe', 'e0d593e19e26a16d'),
    'gnp-7-0': ('5b1488f9d08eb098', '8331f7ca37afabd4'),
    'gnp-7-1': ('8e11369be716b8e3', '342ebee4ede190db'),
    'gnp-7-2': ('a1114a199234ffaf', '4a9398d82643f535'),
    'gnp-8-0': ('4bae85080f3f2bd1', 'c1430f19e85eb7f6'),
    'gnp-8-1': ('9c0d8954f733f29f', '5d60f76e4b8a50dd'),
    'gnp-8-2': ('04a7e97e9f47e927', '88df6d635947f2e1'),
    'gnp-9-0': ('24372f6ad2d21ea3', 'addc126c7d5cd66c'),
    'gnp-9-1': ('f120a71db879f6a8', 'ad8e89beff158d81'),
    'gnp-9-2': ('c2470a6b74063af5', 'f0d063ebec80e9a5'),
    'gnp-10-0': ('84d861b1553fdcb3', 'ff89b2980aef4ee4'),
    'gnp-10-1': ('4a05846a838e45b8', 'fc144ac060318976'),
    'gnp-10-2': ('aa6c26220d52af2d', 'bd21e031512b3f89'),
    'gnp-11-0': ('ca5d25876e05fb52', '60e78b80a8d96577'),
    'gnp-11-1': ('ce4c8ee1b0f7f40a', '4cf284f63d6b05b7'),
    'gnp-11-2': ('4a5c927bc4e462bb', '164b7da78b6e2045'),
}


@pytest.mark.parametrize("name", list(BOUND_PATH_GRAPHS))
def test_bound_path_golden(name):
    assert _bound_path_digests(BOUND_PATH_GRAPHS[name]) == GOLDEN_BOUND_PATH[name]


# (graph, c_max, seed) -> digest of chi_q1_upper_via_product's (c,
# skipped_infeasible, witness matrices) when no c-coloring is found within
# budget, so the witness comes from the search on G x K_c
GOLDEN_SEARCH_BRANCH = {
    ('C5', 3, 0): 'c1cebaa489588ba2',
    ('C5', 3, 1): '4d680648764a0f5d',
    ('petersen', 3, 0): 'a1c42ab9684072a0',
    ('petersen', 3, 1): '7daaae96bb592749',
}


@pytest.mark.parametrize("name,c_max,seed", list(GOLDEN_SEARCH_BRANCH))
def test_chi_q1_search_branch_golden(monkeypatch, name, c_max, seed):
    monkeypatch.setattr(reps, "is_c_colorable", lambda g, c, budget: coloring.ColoringResult(
        coloring.BUDGET_EXCEEDED, None, budget))
    g = {"C5": cycle(5), "petersen": petersen()}[name]
    cq = reps.chi_q1_upper_via_product(g, c_max, reps.SearchParams(seed=seed))
    assert reps.verify_matrix_representation(g, cq.witness)
    assert _digest(cq.c, cq.skipped_infeasible,
                   cq.witness.matrices) == GOLDEN_SEARCH_BRANCH[name, c_max, seed]


# graph -> the target of each theta_certificate call made by xi_bounds, and
# by chi_q1_upper_via_product at c_max = 2, 3 and 4
THETA_TARGETS = {
    "C5": ([3], [], [3], [3]),
    "petersen": ([3], [], [3], [3]),
    "yu-oh-13": ([4], [], [], [4]),
    "K4": ([], [], [], []),
}


@pytest.mark.parametrize("name", list(THETA_TARGETS))
def test_theta_solved_only_on_a_gap(monkeypatch, name):
    """theta is solved once per call, only when omega leaves a gap below
    both c_max and the greedy count, and only up to min(c_max + 1, greedy)."""
    g = {"C5": cycle(5), "petersen": petersen(), "yu-oh-13": _yu_oh(),
         "K4": complete_graph(4)}[name]
    targets = []
    solve = reps.theta_certificate

    def spy(g, target):
        targets.append(target)
        return solve(g, target)
    monkeypatch.setattr(reps, "theta_certificate", spy)
    calls = []
    reps.xi_bounds(g)
    calls.append(targets[:])
    for c_max in (2, 3, 4):
        targets.clear()
        reps.chi_q1_upper_via_product(g, c_max)
        calls.append(targets[:])
    assert tuple(calls) == THETA_TARGETS[name]



@pytest.mark.parametrize("c_max,greedy,targets", [
    (2, 10, []), (3, 2, []), (3, 10, [4]), (3, 4, [4]), (4, 4, [4]), (10, 3, [3])])
def test_lower_bound_solves_theta_up_to_c_max_plus_one(monkeypatch, c_max, greedy,
                                                       targets):
    """The one lower-bound step, with greedy counts the graphs above never
    reach: theta only when omega = 2 < min(c_max, greedy), and up to
    min(c_max + 1, greedy)."""
    seen = []
    solve = reps.theta_certificate

    def spy(g, target):
        seen.append(target)
        return solve(g, target)
    monkeypatch.setattr(reps, "theta_certificate", spy)
    cl, theta, cert = reps._lower_bound(cycle(5), c_max, greedy, 1e-9, 1000)
    assert seen == targets and cl.omega == 2
    assert (theta, cert is None) == ((3, False) if targets else (None, True))

# -- check results --------------------------------------------------------------


def _omega4_consistency(same_basis):
    """check_consistency of the Hadamard strategy on Omega_4, or of the one
    where every vertex measures in vertex 0's basis (384 violations)."""
    qc = reps.hadamard_quantum_coloring(4)
    vecs = qc.table
    if same_basis:
        vecs = np.broadcast_to(vecs[:1], vecs.shape)
    s = game.strategy_from_quantum_coloring(reps.QuantumColoring(4, 1, vecs))
    return game.check_consistency(s, hadamard_graph(4))


def _theta_check(cert):
    return reps.verify_theta_certificate(cycle(5), cert)


def _psd_check(matrix, rank):
    return reps.psd_witness_check(cycle(5), reps.PSDWitness(matrix, rank))


# name -> (passing check, failing check)
CHECK_RESULTS = {
    "theta": (lambda: _theta_check(reps.theta_certificate(cycle(5), 3)),
              lambda: _theta_check(reps.ThetaCertificate(np.eye(5)))),
    "psd": (lambda: _psd_check(umbrella_gram(), 3),
            lambda: _psd_check(np.eye(5), 1)),  # "wrong pattern"
    "consistency": (lambda: _omega4_consistency(False),
                    lambda: _omega4_consistency(True)),
    "verify": (lambda: reps.verify_quantum_coloring(
                   hadamard_graph(4), reps.hadamard_quantum_coloring(4)),
               lambda: reps.verify_quantum_coloring(
                   hadamard_graph(6), reps.hadamard_quantum_coloring(6), 1e-17)),
}


@pytest.mark.parametrize("name", list(CHECK_RESULTS))
def test_check_results_are_truthy_exactly_when_ok(name):
    passing, failing = (check() for check in CHECK_RESULTS[name])
    assert passing.ok and bool(passing)
    assert not failing.ok and not bool(failing)


def test_every_result_with_an_ok_field_is_a_check_result():
    """A new result type with an ok field cannot drift from the rule."""
    with_ok = set()
    for info in pkgutil.iter_modules(qcolor.__path__):
        module = importlib.import_module(f"qcolor.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)
                    and "ok" in {f.name for f in dataclasses.fields(cls)}):
                with_ok.add(cls.__name__)
                assert issubclass(cls, reps.CheckResult), cls
    assert with_ok >= {"ThetaCheckResult", "PSDCheckResult", "ConsistencyReport",
                       "VerifyResult"}
