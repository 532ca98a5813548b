"""Acceptance gate: eleven criteria, each printing one PASS line with its
measured runtime (failures surface as ordinary pytest failures).

Tolerances are pinned here on purpose: 1e-9 for verifier passes and win
probabilities, 1e-12 for oracle equivalences, exact comparisons where the
criterion demands them.
"""
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import cycle, petersen, random_graph
from qcolor import coloring, datasets, game, ks, reps
from qcolor.graphs import (cartesian_product, complete_graph, hadamard_graph,
                           make_graph, orthogonality_graph)
from qcolor.linalg import partial_trace

TOL = 1e-9
ORACLE_TOL = 1e-12


def report(capsys, num, desc, elapsed=None, limit=None):
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.1f}s" + (f" < {limit:.0f}s)" if limit else ")")
    with capsys.disabled():
        print(f"[criterion {num:02d}] PASS {desc}{timing}")


def load_canonical(name):
    vs, _ = datasets.load_vector_set(name)
    return ks.canonicalize(vs.vectors, labels=vs.labels)


# -- 1: sandwich inequality ------------------------------------------------------


def test_criterion_01_sandwich(capsys):
    t0 = time.perf_counter()
    instances = [complete_graph(n) for n in range(1, 7)] + [cycle(5), petersen()]
    for g in instances:
        chi_res = coloring.chromatic_number(g)
        xb = reps.xi_bounds(g)
        cq = reps.chi_q1_upper_via_product(g, c_max=chi_res.chi)
        assert cq.c is not None
        assert xb.upper <= cq.c <= chi_res.chi
        # all certificates re-verify
        assert coloring.verify_coloring(g, chi_res.certificate)
        assert reps.verify_orthogonal_representation(g, xb.upper_witness, TOL)
        assert reps.verify_matrix_representation(g, cq.witness, TOL)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(capsys, 1, "xi <= chi_q1 <= chi with re-verified certificates on "
           "K_1..K_6, C_5, Petersen", elapsed, 10)


# -- 2: product characterization ---------------------------------------------------


def test_criterion_02_product_characterization(capsys):
    t0 = time.perf_counter()
    for n in range(1, 6):
        res = reps.chi_q1_upper_via_product(complete_graph(n), c_max=n)
        assert res.c == n
        assert reps.verify_matrix_representation(complete_graph(n),
                                                 res.witness, TOL)
    res = reps.chi_q1_upper_via_product(cycle(5), c_max=4)
    assert res.c == 3
    assert reps.verify_matrix_representation(cycle(5), res.witness, TOL)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(capsys, 2, "chi_q1(K_n) = n (n <= 5) and chi_q1(C_5) = 3, "
           "witnesses at 1e-9", elapsed, 60)


# -- 3: bijection round trip --------------------------------------------------------


def matrixrep_from_coloring(g, cert):
    c = cert.c
    mats = np.zeros((g.n, c, c), dtype=complex)
    for v in range(g.n):
        for i in range(c):
            mats[v, (i + cert.colors[v]) % c, i] = 1.0
    return reps.MatrixRepresentation(c, mats)


def test_criterion_03_roundtrip_bijection(capsys):
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        g = random_graph(n, 0.5, seed=10_000 + seed)
        cert = coloring.chromatic_number(g).certificate
        mrep = matrixrep_from_coloring(g, cert)
        assert reps.verify_matrix_representation(g, mrep, TOL)
        orth = reps.matrixrep_to_orthrep(g, mrep)
        prod = cartesian_product(g, complete_graph(cert.c))
        if not reps.verify_orthogonal_representation(prod, orth, TOL):
            failures += 1
            continue
        back = reps.orthrep_to_matrixrep(g, orth)
        if not np.array_equal(back.matrices, mrep.matrices):
            failures += 1
    assert failures == 0
    report(capsys, 3, "100/100 seeded matrix representations verify on "
           "G x K_c and round-trip exactly")


# -- 4: KS decisions -----------------------------------------------------------------


def test_criterion_04_ks_decisions(capsys):
    t0 = time.perf_counter()
    cabello = load_canonical("cabello-18")
    peres = load_canonical("peres-33")
    yu_oh = load_canonical("yu-oh-13")

    dec_c = ks.ks_check(cabello)
    assert dec_c.is_ks and dec_c.is_weak_ks

    # The 33-ray set is weak KS but NOT KS under the bases-only labeling
    # definition used by ks_check: an exhaustive search produces an
    # exactly-one labeling, which necessarily contains two orthogonal 1s.
    # (The original argument for this set rules out orthogonal 1-1 pairs
    # directly, i.e. the weak form.)  See notes on the acceptance deviation
    # in the repository history; data/README.md carries the same analysis.
    dec_p = ks.ks_check(peres)
    assert dec_p.is_weak_ks
    assert not dec_p.is_ks
    assert dec_p.witness is not None
    assert ks.verify_ks_witness(peres, dec_p.witness, weak=False)
    assert not ks.verify_ks_witness(peres, dec_p.witness, weak=True)

    dec_y = ks.ks_check(yu_oh)
    assert not dec_y.is_ks and not dec_y.is_weak_ks
    assert dec_y.witness is not None
    assert ks.verify_ks_witness(yu_oh, dec_y.witness, weak=True)

    # backtracking agrees with the brute-force oracle on every bundled set
    # small enough for it
    for s in (cabello, yu_oh):
        fast, slow = ks.ks_check(s), ks.brute_force_ks(s)
        assert (fast.is_ks, fast.is_weak_ks) == (slow.is_ks, slow.is_weak_ks)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(capsys, 4, "Cabello-18 KS; Peres-33 weak KS (not strict KS: "
           "machine-validated exactly-one labeling found, documented "
           "deviation); Yu-Oh-13 not KS; oracle agreement", elapsed, 60)


# -- 5: separation theorem instances ---------------------------------------------------


def test_criterion_05_coloring_separations(capsys):
    t0 = time.perf_counter()
    peres = load_canonical("peres-33")
    cabello = load_canonical("cabello-18")
    g33 = orthogonality_graph(peres.vectors)
    g18 = orthogonality_graph(cabello.vectors)
    res33 = coloring.is_c_colorable(g33, 3)
    assert res33.status == coloring.NO  # exhaustive: chi >= 4
    res18 = coloring.is_c_colorable(g18, 4)
    assert res18.status == coloring.NO  # exhaustive: chi >= 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(capsys, 5, "chi(orth(Peres-33)) >= 4 and chi(orth(Cabello-18)) "
           ">= 5 by exhaustive refutation", elapsed, 120)


# -- 6: 13-vector separation ------------------------------------------------------------


def test_criterion_06_thirteen_vector_separation(capsys):
    s = load_canonical("yu-oh-13")
    g = orthogonality_graph(s.vectors)
    res = coloring.chromatic_number(g)
    assert res.chi == 4 and res.status == "exact"
    rep = reps.OrthogonalRepresentation(3, s.vectors)
    assert reps.verify_orthogonal_representation(g, rep, TOL)
    report(capsys, 6, "Yu-Oh-13: chi = 4 exactly while the rays themselves "
           "witness xi <= 3 at 1e-9")


# -- 7: Hadamard quantum colorings -------------------------------------------------------


def test_criterion_07_hadamard_colorings(capsys):
    t0 = time.perf_counter()
    for n_bits in (4, 8, 12):
        g = hadamard_graph(n_bits)
        qc = reps.hadamard_quantum_coloring(n_bits)
        assert reps.verify_quantum_coloring(g, qc, TOL)
        strat = game.strategy_from_quantum_coloring(qc)
        if n_bits in (4, 8):
            wp = game.quantum_win_probability(g, strat)
            assert abs(wp - 1.0) <= TOL
        else:
            rep = game.check_consistency(strat, g, TOL)
            assert rep.ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(capsys, 7, "hadamard_quantum_coloring verifies for N=4,8,12; "
           "win probability 1 (exact N=4,8; consistency N=12)", elapsed, 600)


# -- 8: weak-KS theorem, easy direction ---------------------------------------------------


def test_criterion_08_classical_unions_not_weak_ks(capsys):
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = random_graph(n, 0.5, seed=20_000 + seed)
        cert = coloring.chromatic_number(g).certificate
        qc = reps.quantum_coloring_from_classical(g, cert)
        union = qc.table.reshape(g.n * qc.colors, qc.colors)
        s = ks.canonicalize(union)
        dec = ks.ks_check(s)
        ok = (not dec.is_weak_ks and dec.witness is not None
              and ks.verify_ks_witness(s, dec.witness, weak=True))
        failures += 0 if ok else 1
    assert failures == 0
    report(capsys, 8, "20/20 classical-coloring vector unions decided not "
           "weak KS with validated witnesses")


# -- 9: normal-form pipeline ----------------------------------------------------------------


def perturbed_winning_strategy(seed):
    """Winning strategy on a <= 5 vertex graph with a non-uniform Schmidt
    state and zero-padded POVMs (extra all-zero colors and zero-weight
    ambient dimensions)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    g = random_graph(n, 0.6, seed=30_000 + seed)
    if g.edge_array.shape[0] == 0:
        g = make_graph(n, [(0, 1)])
    cert = coloring.chromatic_number(g).certificate
    chi = cert.c
    extra_colors = int(rng.integers(1, 3))
    pad_dims = int(rng.integers(0, 3))
    c = chi + extra_colors
    d = chi + pad_dims
    lam = np.sort(rng.uniform(0.5, 1.5, size=chi))[::-1] + \
        np.linspace(0.3, 0.0, chi)
    lam = lam / np.linalg.norm(lam)
    state = np.zeros((d, d), dtype=complex)
    state[np.arange(chi), np.arange(chi)] = lam
    ops = np.zeros((g.n, c, d, d), dtype=complex)
    for v in range(g.n):
        for alpha in range(chi):
            k = (alpha + cert.colors[v]) % chi
            ops[v, alpha, k, k] = 1.0
        if pad_dims:
            ops[v, 0, chi:, chi:] = np.eye(pad_dims)
    s = game.POVMStrategy(c, d, d, state.ravel(), ops, ops.conj())
    return g, s


def test_criterion_09_normal_form_pipeline(capsys):
    for seed in range(25):
        g, s = perturbed_winning_strategy(seed)
        res = game.normalize_strategy(s, g)
        nf = res.normal
        flags = game.normal_form_properties(nf, g, TOL)
        assert all(flags.values()), (seed, flags)
        wp = game.quantum_win_probability(g, nf)
        assert abs(wp - 1.0) <= TOL, (seed, wp)
        # idempotence: renormalizing keeps the properties, preserves the
        # measurement operators through the non-padding stages, and wins
        res2 = game.normalize_strategy(nf, g)
        flags2 = game.normal_form_properties(res2.normal, g, TOL)
        assert all(flags2.values()), (seed, flags2)
        pre_pad = dict(res2.trace.stages)["schmidt flattening"]
        assert np.allclose(pre_pad.alice, nf.alice, atol=TOL)
        assert abs(game.quantum_win_probability(g, res2.normal) - 1.0) <= TOL
    report(capsys, 9, "25/25 perturbed winning strategies normalize to all "
           "four properties at 1e-9, win probability 1, idempotent")


# -- 10: classical impossibility ---------------------------------------------------------------


def test_criterion_10_classical_impossibility(capsys):
    t0 = time.perf_counter()
    best_k3, _ = game.best_classical_win_probability(complete_graph(3), 2)
    assert isinstance(best_k3, Fraction)
    assert best_k3 < 1
    best_c5, _ = game.best_classical_win_probability(cycle(5), 2)
    assert isinstance(best_c5, Fraction)
    assert best_c5 < 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(capsys, 10, f"exhaustive deterministic pairs: K_3@2 max "
           f"{best_k3}, C_5@2 max {best_c5}, both < 1 exactly", elapsed, 30)


# -- 11: oracle equivalences --------------------------------------------------------------------


def brute_force_chromatic(g):
    for c in range(1, g.n + 1):
        for assign in itertools.product(range(c), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return c
    return g.n


def random_povm(rng, c, d):
    blocks = [m @ m.conj().T + 0.05 * np.eye(d) for m in
              (rng.normal(size=(c, d, d)) + 1j * rng.normal(size=(c, d, d)))]
    total = sum(blocks)
    w, u = np.linalg.eigh(total)
    inv_sqrt = u @ np.diag(1 / np.sqrt(w)) @ u.conj().T
    return np.array([inv_sqrt @ b @ inv_sqrt for b in blocks])


def test_criterion_11_oracle_equivalences(capsys):
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        g = random_graph(n, 0.5, seed=40_000 + seed)
        assert coloring.chromatic_number(g).chi == brute_force_chromatic(g)

    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        m = rng.normal(size=(d_a * d_b, d_a * d_b)) \
            + 1j * rng.normal(size=(d_a * d_b, d_a * d_b))
        got_a = partial_trace(m, d_a, d_b, side="B")
        got_b = partial_trace(m, d_a, d_b, side="A")
        naive_a = np.zeros((d_a, d_a), dtype=complex)
        naive_b = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for k in range(d_b):
                    naive_a[i, j] += m[i * d_b + k, j * d_b + k]
        for i in range(d_b):
            for j in range(d_b):
                for k in range(d_a):
                    naive_b[i, j] += m[k * d_b + i, k * d_b + j]
        assert np.abs(got_a - naive_a).max() <= ORACLE_TOL
        assert np.abs(got_b - naive_b).max() <= ORACLE_TOL

    for seed in range(100):
        rng = np.random.default_rng(900 + seed)
        c, d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        n = 2
        alice = np.array([random_povm(rng, c, d) for _ in range(n)])
        bob = np.array([random_povm(rng, c, d) for _ in range(n)])
        state = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        state /= np.linalg.norm(state)
        s = game.POVMStrategy(c, d, d, state, alice, bob)
        v, w = int(rng.integers(0, n)), int(rng.integers(0, n))
        p = game.quantum_outcome_distribution(s, v, w)
        naive = np.zeros((c, c))
        for a in range(c):
            for b in range(c):
                op = np.kron(s.alice[v, a], s.bob[w, b])
                naive[a, b] = (s.state.conj() @ (op @ s.state)).real
        assert np.abs(p - naive).max() <= ORACLE_TOL

    report(capsys, 11, "chromatic number matches brute force on 200 graphs; "
           "partial_trace and outcome distributions match naive loops at "
           "1e-12 on 100 instances each")
