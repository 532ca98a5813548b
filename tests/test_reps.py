import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cycle, petersen, random_graph, umbrella_gram
from qcolor import coloring, datasets, game, ks, reps
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


@pytest.mark.parametrize("kw", [{"restarts": 0}, {"restarts": -3},
                                {"tol": 0.0}, {"tol": -1e-9},
                                {"tol": float("nan")}, {"tol": float("inf")}])
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


def test_real_search_finds_a_real_representation():
    g = cycle(5)
    res = reps.search_orthogonal_representation(g, 3,
                                                reps.SearchParams(seed=1, real=True))
    assert res.found
    assert reps.verify_orthogonal_representation(g, res.representation)
    assert np.all(res.representation.vectors.imag == 0)


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
    monkeypatch.setattr(reps, "BLOCK_BYTES",
                        per_block * 2 * g.edge_array.shape[0] * c * 16)
    split = reps.search_orthogonal_representation(g, c, params)
    assert (split.found, split.restarts_tried) == (whole.found, whole.restarts_tried)
    assert split.best_penalty == pytest.approx(whole.best_penalty, rel=1e-12)
    blocks = [per_block] * (params.restarts // per_block)
    blocks += [params.restarts % per_block] * (params.restarts % per_block > 0)
    assert sizes == blocks[:len(sizes)]
    if split.found:  # the winner is in the last block that ran
        assert sum(sizes[:-1]) < split.restarts_tried <= sum(sizes)
    else:
        assert sum(sizes) == params.restarts


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


def test_psd_witness_ambiguous_rank_rejected():
    # K3's non-edges are empty, so a diagonal witness has the right pattern;
    # its third eigenvalue is 3x the cutoff rank_tol * 1, inside the band
    w = reps.PSDWitness(np.diag([1.0, 1.0, 3 * DEFAULT_RANK_TOL]), 3)
    res = reps.psd_witness_check(complete_graph(3), w)
    assert not res.ok and res.reason.startswith("ambiguous rank")


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
