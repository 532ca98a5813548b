import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcolor import cli, coloring, datasets, ks, linalg, reps
from qcolor.graphs import GraphError, orthogonality_graph


def load(name):
    vs, _ = datasets.load_vector_set(name)
    return ks.canonicalize(vs.vectors, labels=vs.labels)


@pytest.fixture(scope="module")
def cabello():
    return load("cabello-18")


@pytest.fixture(scope="module")
def peres():
    return load("peres-33")


@pytest.fixture(scope="module")
def yu_oh():
    return load("yu-oh-13")


# -- canonicalization -------------------------------------------------------


def test_canonicalize_normalizes_and_fixes_phase():
    s = ks.canonicalize([np.array([0.0, 2.0]), np.array([3j, 0.0])])
    assert np.allclose(np.linalg.norm(s.vectors, axis=1), 1.0)
    # first nonzero coordinate made real positive
    assert s.vectors[0][1] == pytest.approx(1.0)
    assert s.vectors[1][0] == pytest.approx(1.0)


def test_canonicalize_merges_phase_duplicates():
    s = ks.canonicalize([np.array([1.0, 0.0]),
                         np.array([-1.0, 0.0]),
                         np.array([1j, 0.0]),
                         np.array([0.0, 1.0])])
    assert s.size == 2
    assert len(s.merged_ids) == 2


def canonicalize_by_loop(raw, tol=1e-9):
    """Reference: compare each canonical ray with every kept one in turn."""
    kept, merged = [], []
    for i, v in enumerate(raw):
        v = np.asarray(v, dtype=complex) / np.linalg.norm(v)
        nz = np.flatnonzero(np.abs(v) > tol)[0]
        v = v * (np.conj(v[nz]) / np.abs(v[nz]))
        for j, u in enumerate(kept):
            if abs(np.vdot(u, v)) >= 1.0 - tol:
                merged[j].append(i)
                break
        else:
            kept.append(v)
            merged.append([i])
    return np.array(kept), tuple(tuple(m) for m in merged)


def phase_duplicated_sets():
    for name in datasets.BUNDLED:
        yield pytest.param(datasets.load_vector_set(name)[0].vectors, id=name)
    for d in (3, 4):
        yield pytest.param([np.array(v, dtype=float) for v in
                            itertools.product((-1, 0, 1), repeat=d) if any(v)],
                           id=f"signs{d}")
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        base = rng.normal(size=(8, d)) + 1j * rng.normal(size=(8, d))
        yield pytest.param([base[int(rng.integers(0, 8))]
                            * np.exp(1j * rng.uniform(0, 7))
                            * rng.uniform(0.5, 2) for _ in range(30)],
                           id=f"phases{seed}")


@pytest.mark.parametrize("raw", list(phase_duplicated_sets()))
def test_canonicalize_matches_pairwise_loop(raw):
    s = ks.canonicalize(raw)
    vecs, merged = canonicalize_by_loop(raw)
    assert np.array_equal(s.vectors, vecs)
    assert s.merged_ids == merged
    assert s.labels == tuple(f"r{g[0]}" for g in merged)


def test_canonicalize_rejects_zero_and_ragged():
    with pytest.raises(ks.KSError):
        ks.canonicalize([np.zeros(3)])
    with pytest.raises(ks.KSError):
        ks.canonicalize([np.ones(2), np.ones(3)])


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_canonicalize_rejects_bad_tol(tol):
    with pytest.raises(ks.KSError, match="tol must be positive and finite"):
        ks.canonicalize(list(np.eye(3)), tol=tol)


# -- basis enumeration ------------------------------------------------------


def test_enumerate_bases_single_basis():
    s = ks.canonicalize(list(np.eye(3)))
    assert ks.enumerate_bases(s) == [(0, 1, 2)]


def test_enumerate_bases_counts(cabello, peres, yu_oh):
    assert len(ks.enumerate_bases(cabello)) == 9
    assert len(ks.enumerate_bases(peres)) == 16
    assert len(ks.enumerate_bases(yu_oh)) == 4


def test_cabello_every_ray_in_two_bases(cabello):
    counts = np.zeros(cabello.size, dtype=int)
    for basis in ks.enumerate_bases(cabello):
        for r in basis:
            counts[r] += 1
    assert np.all(counts == 2)


# -- witness verification ---------------------------------------------------


def test_verify_witness_single_basis():
    s = ks.canonicalize(list(np.eye(3)))
    assert ks.verify_ks_witness(s, (1, 0, 0))
    assert ks.verify_ks_witness(s, (0, 0, 1))
    assert not ks.verify_ks_witness(s, (1, 1, 0))
    assert not ks.verify_ks_witness(s, (0, 0, 0))


def test_verify_witness_weak_requires_independence():
    # two disjoint bases whose exactly-one rays can be orthogonal:
    # {e1,e2,e3} and {f1,a,b} with f1 = (0,1,1)/sqrt2 orthogonal to e1
    s2 = np.sqrt(2.0)
    vecs = list(np.eye(3)) + [np.array([0.0, 1.0, 1.0]) / s2,
                              np.array([1 / s2, 0.5, -0.5]),
                              np.array([-1 / s2, 0.5, -0.5])]
    s = ks.canonicalize(vecs)
    assert len(ks.enumerate_bases(s)) == 2
    lab = (1, 0, 0, 1, 0, 0)  # picks e1 and f1: exactly-one holds, but e1 _|_ f1
    assert ks.verify_ks_witness(s, lab, weak=False)
    assert not ks.verify_ks_witness(s, lab, weak=True)
    lab2 = (0, 1, 0, 1, 0, 0)  # e2 and f1 are not orthogonal: weak witness
    assert ks.verify_ks_witness(s, lab2, weak=True)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_decisions_reject_bad_tol(peres, yu_oh, tol):
    """A tol that is not positive and finite gave false answers: at tol=-1
    ks_check called Peres-33 not weak KS, and at tol=nan verify_ks_witness
    accepted the all-ones labeling of Peres-33."""
    calls = [lambda: ks.ks_check(peres, tol=tol),
             lambda: ks.verify_ks_witness(peres, (1,) * peres.size, tol=tol),
             lambda: ks.enumerate_bases(peres, tol=tol),
             lambda: ks.brute_force_ks(yu_oh, tol=tol)]
    for call in calls:
        with pytest.raises(GraphError, match="tol must be positive"):
            call()


def test_witness_length_checked(yu_oh):
    with pytest.raises(ks.KSError):
        ks.verify_ks_witness(yu_oh, (0, 1))


# -- decisions on the bundled sets -------------------------------------------


def test_cabello_is_ks(cabello):
    dec = ks.ks_check(cabello)
    assert dec.is_ks and dec.is_weak_ks and dec.witness is None


def test_peres_is_weak_but_not_strict_ks(peres):
    dec = ks.ks_check(peres)
    assert not dec.is_ks
    assert dec.is_weak_ks
    # the witness satisfies exactly-one but has two orthogonal ones
    assert dec.witness is not None
    assert ks.verify_ks_witness(peres, dec.witness, weak=False)
    assert not ks.verify_ks_witness(peres, dec.witness, weak=True)


def test_yu_oh_is_neither(yu_oh):
    dec = ks.ks_check(yu_oh)
    assert not dec.is_ks and not dec.is_weak_ks
    assert ks.verify_ks_witness(yu_oh, dec.witness, weak=True)


def test_brute_force_agrees_on_small_sets(cabello, yu_oh):
    for s in (cabello, yu_oh):
        fast = ks.ks_check(s)
        slow = ks.brute_force_ks(s)
        assert (fast.is_ks, fast.is_weak_ks) == (slow.is_ks, slow.is_weak_ks)
        assert fast.bases == slow.bases == len(ks.enumerate_bases(s))


def test_brute_force_size_limit(peres):
    with pytest.raises(ks.KSError):
        ks.brute_force_ks(peres)


def test_no_bases_is_trivially_non_ks():
    s = ks.canonicalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
    dec = ks.ks_check(s)
    assert not dec.is_ks and not dec.is_weak_ks
    assert dec.witness == (0, 0)
    assert ks.brute_force_ks(s) == ks.KSDecision(False, False, (0, 0), "brute_force", 0)


def test_decision_deterministic(peres):
    a = ks.ks_check(peres)
    b = ks.ks_check(peres)
    assert a.witness == b.witness


@pytest.fixture
def graph_calls(monkeypatch):
    """Records each orthogonality_graph call made through the ks module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return orthogonality_graph(*args, **kwargs)

    monkeypatch.setattr(ks, "orthogonality_graph", counted)
    return calls


@pytest.mark.parametrize("decide", [ks.ks_check, ks.brute_force_ks])
def test_one_orthogonality_graph_per_call(graph_calls, yu_oh, decide):
    # bases and orthogonal pairs come from the same k x k Gram matrix
    dec = decide(yu_oh)
    assert len(graph_calls) == 1
    assert ks.verify_ks_witness(yu_oh, dec.witness, weak=True)
    assert len(graph_calls) == 2


@pytest.mark.parametrize("flag", [[], ["--oracle"]], ids=["search", "oracle"])
def test_ks_check_command_builds_two_orthogonality_graphs(graph_calls, capsys,
                                                          flag):
    # the decision, then the independent witness check; the reported basis
    # count comes with the decision
    assert cli.main(["ks-check", "yu-oh-13", *flag]) == 1
    assert len(graph_calls) == 2
    assert '"bases": 4' in capsys.readouterr().out


# -- solver vs oracle on random instances ------------------------------------


def random_ray_set(seed: int) -> ks.VectorSet:
    """Small random sets engineered to contain a few bases: random rotations
    of the standard basis plus noise rays."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    rays = []
    for _ in range(int(rng.integers(1, 4))):
        q, _ = np.linalg.qr(rng.normal(size=(d, d))
                            + 1j * rng.normal(size=(d, d)))
        rays.extend(q.T)
    for _ in range(int(rng.integers(0, 4))):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        rays.append(v / np.linalg.norm(v))
    return ks.canonicalize(rays)


@pytest.mark.parametrize("seed", range(40))
def test_backtracking_matches_brute_force(seed):
    s = random_ray_set(seed)
    if s.size > ks.BRUTE_FORCE_LIMIT:
        pytest.skip("set too large for the oracle")
    fast = ks.ks_check(s)
    slow = ks.brute_force_ks(s)
    assert (fast.is_ks, fast.is_weak_ks) == (slow.is_ks, slow.is_weak_ks)
    if fast.witness is not None:
        assert ks.verify_ks_witness(s, fast.witness, weak=not fast.is_weak_ks)


def first_labeling_by_loop(s: ks.VectorSet, weak: bool):
    """Reference oracle: the lowest-index labeling (bit r = ray r) that passes
    verify_ks_witness, by a plain loop."""
    for i in range(1 << s.size):
        f = tuple((i >> r) & 1 for r in range(s.size))
        if ks.verify_ks_witness(s, f, weak=weak):
            return f
    return None


@pytest.mark.parametrize("seed", range(13))
def test_brute_force_witness_is_first_labeling(monkeypatch, seed):
    """The oracle's witness is the first in labeling order, so chunks of 7
    labelings give the whole decision of one chunk."""
    s = random_ray_set(seed)
    assert s.size <= 12
    slow = ks.brute_force_ks(s)
    expected = first_labeling_by_loop(s, weak=True) or first_labeling_by_loop(s, weak=False)
    assert slow.witness == expected
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 7 * (4 * 8 + 3))
    assert ks.brute_force_ks(s) == slow


def test_labeling_search_depth_is_not_bounded_by_recursion():
    # 1500 Haar-random bases of C^2: 3000 rays, one decision per basis
    rng = np.random.default_rng(0)
    rays = []
    for _ in range(1500):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rays.extend(q.T)
    s = ks.canonicalize(rays)
    assert s.size == 3000
    dec = ks.ks_check(s)
    assert not dec.is_ks and not dec.is_weak_ks
    assert ks.verify_ks_witness(s, dec.witness, weak=True)


def test_standard_basis_beyond_recursion_limit():
    # 1200 rays, one basis: deeper than the interpreter's default recursion
    # limit of 1000, which a per-ray recursion cannot enumerate or decide
    s = ks.canonicalize(list(np.eye(1200)))
    assert ks.enumerate_bases(s) == [tuple(range(1200))]
    dec = ks.ks_check(s)
    assert (dec.is_ks, dec.is_weak_ks, dec.bases) == (False, False, 1)
    assert sum(dec.witness) == 1
    assert ks.verify_ks_witness(s, dec.witness, weak=True)


def test_ks_check_budget_counts_both_searches(peres, cabello, yu_oh):
    """The weak and the plain labeling search share one budget of labeling
    decisions; past it no witness and no verdict on the flag still open."""
    for s in (peres, cabello, yu_oh):
        full = ks.ks_check(s)
        assert full.status == "exact" and full.decisions >= 4
        assert ks.ks_check(s, budget=full.decisions) == full
        for budget in (1, full.decisions // 2, full.decisions - 1):
            short = ks.ks_check(s, budget=budget)
            # the searches stop at the first decision past the shared budget
            assert (short.status, short.witness, short.is_ks,
                    short.decisions) == (coloring.BUDGET_EXCEEDED, None, None,
                                         budget + 1)
            assert short.is_weak_ks in (None, full.is_weak_ks)
        # Peres-33 and Cabello-18 are weak KS: the weak search ends first
        assert short.is_weak_ks == (True if full.is_weak_ks else None)
        assert ks.ks_check(s, budget=1).is_weak_ks is None


# -- golden decisions ----------------------------------------------------------


def sign_rays(values, d):
    """Every nonzero vector of C^d with coordinates in values."""
    return [np.array(v, dtype=float) for v in itertools.product(values, repeat=d)
            if any(v)]


def union_of_bases(d: int, k: int) -> list[np.ndarray]:
    """k random orthonormal bases of C^d, seeded by (d, k)."""
    rng = np.random.default_rng(100 * d + k)
    rays = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        rays.extend(q.T)
    return rays


def golden_set(name: str) -> ks.VectorSet:
    if name in datasets.BUNDLED:
        return load(name)
    if name.startswith("signs"):
        return ks.canonicalize(sign_rays((-1, 0, 1), int(name[5:])))
    if name == "twos3":
        return ks.canonicalize(sign_rays((-2, -1, 0, 1, 2), 3))
    if name.startswith("union"):
        return ks.canonicalize(union_of_bases(*map(int, name[5:].split("x"))))
    if name.startswith("omega"):
        n = int(name[5:])  # the rank-1 coloring rays of the Hadamard graph
        return ks.canonicalize(reps.hadamard_quantum_coloring(n).table.reshape(-1, n))
    return random_ray_set(int(name[6:]))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# name: (rays, bases, digest of the enumerate_bases list, is_ks, is_weak_ks,
# witness as a 0/1 string, or its digest above 50 rays)
GOLDEN_KS = {
    'cabello-18': (18, 9, '606c1419e450488c', True, True, None),
    'peres-33': (33, 16, 'a859963f4f85e035', False, True, '000000000000010100000000111111111'),
    'yu-oh-13': (13, 4, '08fee56524a1adc7', False, False, '0010000110000'),
    'signs3': (13, 4, 'e926542f27ba5624', False, False, '0000010000011'),
    'signs4': (40, 32, 'a2ede4b46cdf7ed5', True, True, None),
    'signs5': (121, 136, 'b332db1499846540', True, True, None),
    'signs6': (364, 1408, '41e43e4d0314d5a8', True, True, None),
    'twos3': (49, 26, '43d9fe533f7890d9', False, True,
              '0000000010000010100000000100111111111001100001111'),
    'union3x6': (18, 6, '93baf85843b607f5', False, False, '001001001001001001'),
    'union4x5': (20, 5, '569e3d19f68983a1', False, False, '00010001000100010001'),
    'union3x60': (180, 60, 'ee15bdd5a8a19d2e', False, False, 'b36441dc6faffac7'),
    'union4x60': (240, 60, 'adec10f0fce6f5e2', False, False, '9cd115468ef4708b'),
    'omega4': (16, 8, '2e87ea7ea035ade5', False, False, '0001000100100010'),
    'omega6': (96, 64, '95634cc7a8a8bfef', False, False, '49302e805931e36e'),
    'random0': (8, 2, '6910028940344fa6', False, False, '00100100'),
    'random1': (5, 2, 'bd222625cb8df7ff', False, False, '01010'),
    'random2': (3, 1, 'eba5825b4e5cf199', False, False, '001'),
    'random3': (6, 1, 'eba5825b4e5cf199', False, False, '001000'),
    'random4': (10, 3, '76ddbb4924f08ce0', False, False, '0010010010'),
    'random5': (9, 3, '76ddbb4924f08ce0', False, False, '001001001'),
    'random6': (6, 2, 'bd222625cb8df7ff', False, False, '010100'),
    'random7': (8, 2, '6910028940344fa6', False, False, '00100100'),
    'random8': (4, 1, 'eba5825b4e5cf199', False, False, '0010'),
    'random9': (9, 3, 'c94d8db945d7c65e', False, False, '010101000'),
    'random10': (12, 3, '76ddbb4924f08ce0', False, False, '001001001000'),
    'random11': (5, 1, '4c461d4a0ab0fe42', False, False, '01000'),
    'random12': (5, 1, 'eba5825b4e5cf199', False, False, '00100'),
    'random13': (11, 3, '76ddbb4924f08ce0', False, False, '00100100100'),
    'random14': (9, 3, 'c94d8db945d7c65e', False, False, '010101000'),
    'random15': (11, 3, '76ddbb4924f08ce0', False, False, '00100100100'),
    'random16': (8, 2, '6910028940344fa6', False, False, '00100100'),
    'random17': (12, 3, '76ddbb4924f08ce0', False, False, '001001001000'),
    'random18': (8, 2, '6910028940344fa6', False, False, '00100100'),
    'random19': (6, 2, '6910028940344fa6', False, False, '001001'),
    'random20': (5, 1, 'eba5825b4e5cf199', False, False, '00100'),
    'random21': (9, 3, 'c94d8db945d7c65e', False, False, '010101000'),
    'random22': (7, 2, '6910028940344fa6', False, False, '0010010'),
    'random23': (9, 3, 'c94d8db945d7c65e', False, False, '010101000'),
    'random24': (3, 1, '4c461d4a0ab0fe42', False, False, '010'),
    'random25': (6, 1, 'eba5825b4e5cf199', False, False, '001000'),
    'random26': (7, 2, '6910028940344fa6', False, False, '0010010'),
    'random27': (7, 3, 'c94d8db945d7c65e', False, False, '0101010'),
    'random28': (9, 3, '76ddbb4924f08ce0', False, False, '001001001'),
    'random29': (4, 1, 'eba5825b4e5cf199', False, False, '0010'),
    'random30': (4, 1, '4c461d4a0ab0fe42', False, False, '0100'),
    'random31': (11, 3, '76ddbb4924f08ce0', False, False, '00100100100'),
    'random32': (6, 1, 'eba5825b4e5cf199', False, False, '001000'),
    'random33': (7, 2, '6910028940344fa6', False, False, '0010010'),
    'random34': (4, 1, '4c461d4a0ab0fe42', False, False, '0100'),
    'random35': (5, 2, 'bd222625cb8df7ff', False, False, '01010'),
    'random36': (2, 1, '4c461d4a0ab0fe42', False, False, '01'),
    'random37': (7, 3, 'c94d8db945d7c65e', False, False, '0101010'),
    'random38': (5, 2, 'bd222625cb8df7ff', False, False, '01010'),
    'random39': (9, 2, '6910028940344fa6', False, False, '001001000'),
}


@pytest.mark.parametrize("name", list(GOLDEN_KS))
def test_golden_bases_and_decisions(name):
    s = golden_set(name)
    bases = ks.enumerate_bases(s)
    dec = ks.ks_check(s)
    w = dec.witness
    if w is not None:
        w = "".join(map(str, w)) if s.size <= 50 else digest(w)
    assert (s.size, len(bases), digest(bases), dec.is_ks, dec.is_weak_ks,
            w) == GOLDEN_KS[name]
    assert dec.method == "backtracking" and dec.bases == len(bases)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_ks_implies_weak_ks(seed):
    s = random_ray_set(seed)
    dec = ks.ks_check(s)
    if dec.is_ks:
        assert dec.is_weak_ks


# -- interplay with coloring --------------------------------------------------


def test_weak_ks_forbids_small_colorings(peres, cabello):
    """A proper d-coloring of the orthogonality graph of a d-dimensional set
    would put exactly one color-0 ray in every basis with no two orthogonal,
    contradicting weak KS; the bundled sets confirm the contrapositive."""
    from qcolor.coloring import is_c_colorable

    g = orthogonality_graph(peres.vectors)
    assert is_c_colorable(g, 3).status == "no"
    g = orthogonality_graph(cabello.vectors)
    assert is_c_colorable(g, 4).status == "no"
