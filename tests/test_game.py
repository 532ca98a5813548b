import dataclasses
import functools
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_tables, cycle, graphs_st, pair_block_rows, random_graph
from test_acceptance import perturbed_winning_strategy
from qcolor import coloring, game, linalg, reps
from qcolor.graphs import complete_graph, hadamard_graph, make_graph
from qcolor.linalg import DEFAULT_TOL, maximally_entangled


def classical_derived(g, seed=None):
    res = coloring.chromatic_number(g)
    qc = reps.quantum_coloring_from_classical(g, res.certificate)
    return game.strategy_from_quantum_coloring(qc)


def uniform_pairs(g):
    """The game's question pairs in order: the diagonal, then each edge in
    both orientations."""
    pairs = [(v, v) for v in range(g.n)]
    for u, v in g.edges():
        pairs += [(u, v), (v, u)]
    return pairs


def perturbed_k2_strategy(extra_colors=1, lam=(0.8, 0.6)):
    """Winning K_2 strategy with a non-uniform Schmidt state and appended
    all-zero colors."""
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 0], [0, 1]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    c = 2 + extra_colors
    alice = np.array([[e0, e1] + [z] * extra_colors,
                      [e1, e0] + [z] * extra_colors])
    state = np.zeros(4, dtype=complex)
    state[0], state[3] = lam
    return game.POVMStrategy(c, 2, 2, state, alice, alice.conj())


# -- questions -------------------------------------------------------------------


def test_uniform_questions_empty_graph():
    """The empty graph has no legal question, so no game to play."""
    g = make_graph(0, [])
    with pytest.raises(game.GameError, match="no legal questions"):
        game.classical_win_probability(g, game.ClassicalStrategy(1, (), ()))
    s = game.POVMStrategy(1, 1, 1, np.ones(1), np.ones((0, 1, 1, 1)),
                          np.ones((0, 1, 1, 1)))
    with pytest.raises(game.GameError, match="no legal questions"):
        game.quantum_win_probability(g, s)
    with pytest.raises(game.GameError, match="no legal questions"):
        game.simulate_game(g, s, rounds=10)
    with pytest.raises(game.GameError, match="no legal questions"):
        game.check_consistency(s, g)
    with pytest.raises(game.GameError, match="no legal questions"):
        game.normalize_strategy(s, g)


def test_empty_strategy_validates_vacuously():
    ops = np.zeros((0, 2, 2, 2))
    game.validate_strategy(game.POVMStrategy(2, 2, 2, maximally_entangled(2),
                                             ops, ops))
    with pytest.raises(game.GameError, match="state norm"):
        game.validate_strategy(game.POVMStrategy(2, 2, 2, np.ones(4), ops, ops))


@pytest.mark.parametrize("form", [lambda s: s, as_tables], ids=["factored", "tables"])
def test_a_nan_state_fails_the_norm_check(form):
    """|nan - 1| > tol is False: an all-NaN state passed the norm check, and
    check_consistency then called the Omega_4 strategy ok."""
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    bad = form(game.POVMStrategy(s.colors, s.dim_a, s.dim_b, np.full(16, np.nan), *s.sides))
    with pytest.raises(game.GameError, match="state norm nan != 1"):
        game.validate_strategy(bad)
    with pytest.raises(game.GameError, match="state norm nan != 1"):
        game.quantum_outcome_distribution(bad, 0, 0)


# -- validate_strategy against its whole-table eigvalsh checks ----------------------


def whole_table(defect, bound, reason):
    """A per-vertex check's verdict from its whole (n, ...) defect array, as
    the verifiers gave it before they checked a block of vertices at a time:
    the worst vertex (a NaN first) and its residual."""
    per = defect.max(axis=tuple(range(1, defect.ndim)), initial=0.0)
    if not per.size:
        return reps.VerifyResult(True, 0.0)
    v = int(np.argmax(per))
    ok = bool(per[v] <= bound)
    return reps.VerifyResult(ok, float(per[v]), (v,), None if ok else reason)


def _worst(defect, bound, reason):
    """A per-vertex check's fault text, None when every defect is <= bound."""
    verdict = whole_table(defect, bound, reason)
    return None if verdict else str(verdict)


def reference_verdict(s, tol):
    """validate_strategy's verdict by the three whole-table checks it had
    before the Cholesky certificate: None, or the GameError text.  The norm
    check is today's, which a NaN norm or tol fails."""
    if not abs(np.linalg.norm(s.state) - 1.0) <= tol:
        return f"state norm {np.linalg.norm(s.state):.6g} != 1"
    for name, ops, d in (("alice", s.alice, s.dim_a), ("bob", s.bob, s.dim_b)):
        fault = (_worst(np.abs(ops - ops.conj().transpose(0, 1, 3, 2)), tol,
                        "element not Hermitian")
                 or _worst(-np.linalg.eigvalsh(ops), tol, "element not PSD")
                 or _worst(np.abs(ops.sum(axis=1) - np.eye(d)), d * tol,
                           "does not sum to identity"))
        if fault:
            return f"{name} POVM {fault}"
    return None


def validate_verdict(s, tol):
    try:
        game.validate_strategy(s, tol)
    except game.GameError as err:
        return str(err)
    return None


def random_povm(rng, n, c, d):
    """(n, c, d, d) table of random full-rank POVMs, X X^H per element
    conjugated by S^(-1/2), S the vertex's sum."""
    x = rng.normal(size=(n, c, d, d)) + 1j * rng.normal(size=(n, c, d, d))
    g = x @ x.conj().swapaxes(-1, -2)
    w, u = np.linalg.eigh(g.sum(axis=1))
    r = ((u / np.sqrt(w)[:, None, :]) @ u.conj().swapaxes(-1, -2))[:, None]
    ops = r @ g @ r
    return (ops + ops.conj().swapaxes(-1, -2)) / 2


def defective_table(rng, kind, tol):
    """A random (n, c, d, d) POVM table with one defect of the given kind
    at a random element, each sized at its check's bound times a factor."""
    n, c, d = int(rng.integers(1, 300)), int(rng.integers(1, 5)), int(rng.integers(1, 8))
    ops = random_povm(rng, n, c, d)
    v, a, b = int(rng.integers(n)), int(rng.integers(c)), int(rng.integers(c))
    k = rng.choice([0.0, 0.5, 1 - 1e-3, 1 + 1e-3, 2.0, 1000.0])
    if kind == "psd":  # lambda_min -> -k tol, the difference moved to color b
        w, u = np.linalg.eigh(ops[v, a])
        shift = (w[0] + k * tol) * np.outer(u[:, 0], u[:, 0].conj())
        ops[v, a] -= shift
        if b != a:
            ops[v, b] += shift
    elif kind == "herm":  # |E - E^H| = k tol at entry (i, j)
        i, j = int(rng.integers(d)), int(rng.integers(d))
        ops[v, a, i, j] += k * tol * (0.5j if i == j else np.exp(2j * np.pi * rng.random()))
    elif kind == "sum":  # the vertex's sum off by k d tol on one diagonal
        i = int(rng.integers(d))
        ops[v, a, i, i] += k * d * tol
    elif kind == "nonfinite":
        ops[v, a, int(rng.integers(d)), int(rng.integers(d))] = rng.choice(
            [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)])
    elif kind == "scaled":  # traces far past what the certificate may trust
        ops *= rng.choice([1e6, 1e9])
    return ops


def test_validate_matches_the_eigvalsh_checks(monkeypatch):
    """The blocked Cholesky certificate gives the verdict and the error text
    of the whole-table eigvalsh checks, on tables with each defect at its
    bound, non-finite entries, scaled traces and edge-case tolerances; a
    tolerance that is not positive and finite is refused first."""
    rng = np.random.default_rng(19)
    cases = []
    for kind in ("none", "psd", "psd", "herm", "sum", "nonfinite", "scaled"):
        for _ in range(20):
            tol = 10.0 ** rng.uniform(-12, -3)
            cases.append((defective_table(rng, kind, tol), tol))
    for d in (1, 3):  # d = 1, an empty table, and the smallest usable tolerances
        ops = random_povm(rng, 40, 2, d)
        for tol in (1e-8, 1e-16):
            cases += [(ops, tol), (ops[:0], tol)]
        for tol in (0.0, -1.0, np.inf, np.nan):  # no bound can use these
            normalized = game.POVMStrategy(2, d, d, np.eye(d).ravel() / np.sqrt(d), ops, ops)
            assert validate_verdict(normalized, tol) == f"tol must be positive and finite, got {tol}"
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    certified, outcomes = 0, set()
    for ops, tol in cases:
        n, c, d = ops.shape[:3]
        state = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
        uniform = np.broadcast_to(np.eye(d) / c, ops.shape)
        for s in (game.POVMStrategy(c, d, d, state, ops, ops.conj()),
                  game.POVMStrategy(c, d, d, state, uniform, ops)):
            with np.errstate(invalid="ignore"):  # inf - inf in the Hermitian check
                expected = reference_verdict(s, tol)
            calls.clear()
            assert validate_verdict(s, tol) == expected, (s.alice.shape, tol)
            outcomes.add(expected and expected.split(" at ")[0])
            certified += expected is None and n > 0 and not calls
    assert outcomes >= {None, "alice POVM element not PSD", "bob POVM element not PSD",
                        "alice POVM element not Hermitian", "bob POVM element not Hermitian",
                        "alice POVM does not sum to identity"}
    assert certified >= 40


def test_valid_tables_are_certified_without_eigenvalues(monkeypatch):
    """A valid table at a usable tol never reaches eigvalsh: one Cholesky per
    block of vertices decides it (on Omega_8, four blocks of 64 vertices per
    side)."""
    s = as_tables(game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(8)))
    per = linalg.block_rows(4 * s.alice[0].nbytes)
    cholesky, blocks = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: blocks.append(len(a)) or cholesky(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    game.validate_strategy(s)
    assert per < len(s.alice)
    assert blocks == [per] * (2 * len(s.alice) // per)


def _shifted_cholesky_completes(ops, shift):
    try:
        return bool(np.isfinite(np.linalg.cholesky(ops + shift * np.eye(ops.shape[-1]))).all())
    except np.linalg.LinAlgError:
        return False


def test_cholesky_within_the_rounding_allowance_goes_to_eigvalsh(monkeypatch):
    """At tol = 2e-17 Cholesky's rounding exceeds tol/2, so its completion
    proves nothing.  A table that passes every other check, whose shifted
    Cholesky completes although eigvalsh puts an element below -tol, must
    be judged, and refused, by eigvalsh."""
    tol, d = 2e-17, 3
    for seed in range(300):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        e = (q * [-1.001 * tol, 0.5, 0.5]) @ q.conj().T
        e = (e + e.conj().T) / 2
        ops = np.array([[e, np.eye(d) - e]])
        s = game.POVMStrategy(2, d, d, np.eye(d * d)[0], ops, ops)
        if (_shifted_cholesky_completes(ops, tol / 2)
                and _worst(np.abs(ops.sum(axis=1) - np.eye(d)), d * tol, "") is None
                and (reference_verdict(s, tol) or "").startswith(
                    "alice POVM element not PSD at vertex 0")):
            break
    else:
        pytest.fail("no element whose shifted Cholesky hides lambda_min < -tol")
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    assert validate_verdict(s, tol) == reference_verdict(s, tol)
    assert calls


def test_certificate_floor_allows_for_eigvalsh(monkeypatch):
    """A block is certified only at lambda_min >= e - tol, e = 2 d
    gamma_{d+3} (max tr + d tol) taken as eigvalsh's backward error, so a
    certified block is one eigvalsh accepts too; computed here on its own."""
    floors, certify = [], game.psd_certified
    monkeypatch.setattr(game, "psd_certified",
                        lambda b, floor: floors.append(floor) or certify(b, floor))
    s = as_tables(game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(2)))
    for tol in (1e-8, 1e-15):
        floors.clear()
        game.validate_strategy(s, tol)
        d, u = 2, 2.0 ** -53
        e = 2 * d * (d + 3) * u / (1 - (d + 3) * u) * (1 + d * tol)
        assert floors == [pytest.approx(e - tol, rel=1e-12, abs=0)] * 2


def test_not_psd_names_side_vertex_and_residual():
    """lambda_min = -1e-6 at Bob's vertex 130 (second block), its sum kept."""
    ops = random_povm(np.random.default_rng(5), 200, 3, 4)
    bob = ops.conj()
    w, u = np.linalg.eigh(bob[130, 2])
    shift = (w[0] + 1e-6) * np.outer(u[:, 0], u[:, 0].conj())
    bob[130, 2] -= shift
    bob[130, 0] += shift
    s = game.POVMStrategy(3, 4, 4, maximally_entangled(4), ops, bob)
    with pytest.raises(game.GameError) as err:
        game.validate_strategy(s)
    assert str(err.value) == "bob POVM element not PSD at vertex 130 (residual 1e-06)"


def test_an_infinity_is_named_without_a_warning():
    """inf - inf in the Hermitian check is a NaN defect, not a RuntimeWarning
    (an error under this suite's warning filter) ahead of the GameError."""
    ops = np.broadcast_to(np.eye(2, dtype=complex) / 2, (300, 2, 2, 2)).copy()
    ops[200, 1, 0, 0] = np.inf
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), ops, ops)
    with pytest.raises(game.GameError) as err:
        game.validate_strategy(s)
    assert str(err.value) == "alice POVM element not Hermitian at vertex 200 (residual nan)"


# -- per-vertex checks of measurement tables, a block of vertices at a time ---------


def clique_measurements(rng, n, c, r):
    """A rank-r quantum c-coloring of n vertices in cliques of c consecutive
    ones: vertex g c + j gives color a the column group (a + j) mod c of
    clique g's random unitary.  Returns the graph, the (n, c, d, d)
    projectors and the (n, c, d, r) column groups."""
    d = r * c
    q = np.linalg.qr(rng.normal(size=(-(-n // c), d, d))
                     + 1j * rng.normal(size=(-(-n // c), d, d)))[0]
    v = np.arange(n)
    shift = (np.arange(c) + v[:, None]) % c
    cols = q[v // c].reshape(n, d, c, r).transpose(0, 2, 1, 3)[v[:, None], shift]
    edges = [(u, w) for u in range(n) for w in range(u + 1, min(n, u // c * c + c))]
    return make_graph(n, edges), cols @ cols.conj().swapaxes(-1, -2), cols


def reference_measurement_ok(ops, rank, tol):
    """measurement_ok of a projector table by its whole-table checks."""
    d = ops.shape[2]
    return (whole_table(np.abs(ops - ops.conj().transpose(0, 1, 3, 2)), tol,
                        "projector not Hermitian")
            and whole_table(np.abs(ops @ ops - ops), tol, "projector not idempotent")
            and whole_table(np.abs(np.einsum("vaii->va", ops).real - rank),
                            d * tol, "projector trace is not the rank")
            and whole_table(np.abs(ops.sum(axis=1) - np.eye(d)), d * tol,
                            "projectors do not sum to the identity"))


def reference_coloring_verdict(g, qc, tol):
    """verify_quantum_coloring by its whole-table checks (d = rank * c)."""
    c, t = qc.colors, qc.table
    if t.ndim == 3:
        verdict = whole_table(np.abs(t.conj() @ t.swapaxes(1, 2) - np.eye(c)),
                              tol, "not an orthonormal basis")
    else:
        verdict = reference_measurement_ok(t, qc.rank, tol)
    return verdict and reps.edges_orthogonal(
        g, t.reshape(g.n, c, t.shape[2] ** (t.ndim - 2)), tol)


def measurement_case(rng, kind, k):
    """(graph, rank, projectors, rank-1 vectors or None, tol) with one defect
    of the given kind at a random vertex, at its check's bound times k ("orth"
    perturbs rank-1 vectors only; at rank > 1 the case stays valid)."""
    n, c, r = int(rng.integers(1, 300)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    g, ops, cols = clique_measurements(rng, n, c, r)
    vecs = cols[..., 0].copy() if r == 1 else None
    d, v, a = r * c, int(rng.integers(n)), int(rng.integers(c))
    i, j = int(rng.integers(d)), int(rng.integers(d))
    delta = 10.0 ** rng.uniform(-8, -3)
    if kind == "herm":
        ops[v, a, i, j] += delta * np.exp(2j * np.pi * rng.random())
        return g, r, ops, vecs, float(np.max(np.abs(ops - ops.conj().swapaxes(-1, -2)))) / k
    if kind == "idem":
        ops[v, a] *= 1 + delta
        return g, r, ops, vecs, float(np.max(np.abs(ops @ ops - ops))) / k
    if kind == "trace":  # a column moves from color b to color a: still a projector
        b = (a + 1) % c
        x = np.outer(cols[v, b, :, 0], cols[v, b, :, 0].conj())
        ops[v, a] += x
        ops[v, b] -= x
        return g, r, ops, vecs, 1 / (k * d)
    if kind == "sum":  # color a's columns turned a little: a projector, off the sum
        w = np.linalg.qr(cols[v, a] + delta * rng.normal(size=(d, r)))[0]
        ops[v, a] = w @ w.conj().T
        return g, r, ops, vecs, float(np.max(np.abs(ops.sum(axis=1) - np.eye(d)))) / (k * d)
    if kind == "orth" and vecs is not None:
        vecs[v, a] *= 1 + delta
        return g, r, ops, vecs, float(np.max(np.abs(vecs.conj() @ vecs.swapaxes(1, 2)
                                                     - np.eye(c)))) / k
    if kind == "nonfinite":
        bad = rng.choice([np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)])
        ops[v, a, i, j] = bad
        if vecs is not None:
            vecs[v, a, i % c] = bad
    return g, r, ops, vecs, DEFAULT_TOL


def test_measurement_checks_match_the_whole_table_checks(monkeypatch):
    """measurement_ok and verify_quantum_coloring (both forms) give the
    whole-table checks' verdict, every field of it, passing or not, with each
    defect at its bound times {0.5, 1, 1 +- 1e-3, 2}, non-finite entries, and
    tables of one and of several blocks of vertices (a 64 KB budget)."""
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 2 ** 16)
    rng = np.random.default_rng(20)
    seen, big = set(), 0
    for kind in ("none", "herm", "idem", "trace", "sum", "orth", "nonfinite"):
        for k in (0.5, 1 - 1e-3, 1.0, 1 + 1e-3, 2.0):
            for _ in range(3):
                g, r, ops, vecs, tol = measurement_case(rng, kind, k)
                big += len(ops) > linalg.block_rows(4 * ops[0].nbytes)
                c = ops.shape[1]
                with np.errstate(invalid="ignore"):  # inf - inf in the references
                    want = [reference_measurement_ok(ops, r, tol), reference_coloring_verdict(
                        g, reps.QuantumColoring(c, r, ops), tol)]
                    if vecs is not None:
                        want.append(reference_coloring_verdict(
                            g, reps.QuantumColoring(c, 1, vecs), tol))
                got = [reps.measurement_ok(ops, r, tol), reps.verify_quantum_coloring(
                    g, reps.QuantumColoring(c, r, ops), tol)]
                if vecs is not None:
                    got.append(reps.verify_quantum_coloring(
                        g, reps.QuantumColoring(c, 1, vecs), tol))
                assert list(map(repr, got)) == list(map(repr, want)), (kind, k, ops.shape)
                seen.update(w.reason for w in want)
    assert big >= 20
    assert seen >= {None, "projector not Hermitian", "projector not idempotent",
                    "projector trace is not the rank", "projectors do not sum to the identity",
                    "not an orthonormal basis"}


def block_size_cases():
    """(graph, projectors, vectors, tol) on 300 vertices, c = 3, rank 1: a
    valid table; defects whose worst vertex lies in a later block than a
    smaller one; a NaN after a larger finite defect; an empty table."""
    g, ops, cols = clique_measurements(np.random.default_rng(7), 300, 3, 1)
    vecs = cols[..., 0]
    cases = [(g, ops, vecs, DEFAULT_TOL), (make_graph(0, []), ops[:0], vecs[:0], DEFAULT_TOL)]
    for edit in ({10: 1e-4, 250: 1e-2}, {20: 1e3, 200: np.nan}):
        o, x = ops.copy(), vecs.copy()
        for v, size in edit.items():
            o[v, 1, 0, 2] += size
            x[v, 1, 2] += size
        cases.append((g, o, x, DEFAULT_TOL))
    scaled, low = ops.copy(), ops.copy()
    for v, size in ((10, 1e-5), (250, 1e-3)):
        scaled[v, 0] *= 1 + size  # not idempotent, off the sum
        low[v, 0] -= size * np.outer(cols[v, 1, :, 0], cols[v, 1, :, 0].conj())  # not PSD
    return cases + [(g, scaled, vecs, DEFAULT_TOL), (g, low, vecs, DEFAULT_TOL)]


def test_verdicts_do_not_depend_on_the_block_size(monkeypatch):
    """Every field of measurement_ok and verify_quantum_coloring (both forms)
    and validate_strategy's error text are the same with blocks of 1, 3 and
    128 vertices.  reps.block_rows is replaced, not the budget, so that the
    pair kernel's blocks, whose GEMM shape moves a residual by an ulp, stay
    as they are."""
    def verdicts():
        out = []
        for g, ops, vecs, tol in block_size_cases():
            s = game.POVMStrategy(3, 3, 3, maximally_entangled(3), ops, ops.conj())
            out += [repr(reps.measurement_ok(ops, 1, tol)),
                    repr(reps.verify_quantum_coloring(g, reps.QuantumColoring(3, 1, ops), tol)),
                    repr(reps.verify_quantum_coloring(g, reps.QuantumColoring(3, 1, vecs), tol)),
                    validate_verdict(s, tol)]
        return out

    runs = []
    for block in (1, 3, 128):
        monkeypatch.setattr(reps, "block_rows", lambda row_bytes: block)
        runs.append(verdicts())
    assert runs[0] == runs[1] == runs[2]
    text = "\n".join(map(str, runs[0]))
    for named in ("where=(250,), reason='projector not idempotent'",
                  "where=(250,), reason='not an orthonormal basis'",
                  "where=(200,), reason='projector not Hermitian'", "residual=nan",
                  "alice POVM element not Hermitian at vertex 250",
                  "alice POVM element not Hermitian at vertex 200 (residual nan)",
                  "alice POVM does not sum to identity at vertex 250",
                  "alice POVM element not PSD at vertex 250"):
        assert named in text, named


def test_a_vertex_past_the_budget_is_a_block_of_its_own():
    """A table whose vertex alone is linalg.BLOCK_BYTES of operators (c = 2,
    d = 256) is checked one vertex per block, so a Hermitian check's traced
    peak stays under three vertices' bytes; blocks of a fixed vertex count
    took the whole 8 MB table at once, about twice over."""
    ops = np.broadcast_to(np.eye(256, dtype=complex) / 2, (4, 2, 256, 256)).copy()
    assert 4 * ops[0].nbytes > linalg.BLOCK_BYTES
    sizes = []

    def defect(b):
        sizes.append(len(b))
        return linalg._hermitian_defect(b)
    assert reps._worst_vertex(ops, defect, 0.0, "not Hermitian")
    assert sizes == [1] * 4
    peak = _traced_peak(lambda: reps._worst_vertex(ops, linalg._hermitian_defect, 0.0, ""))
    assert peak < 3 * ops[0].nbytes, peak


def test_per_vertex_checks_stay_block_sized():
    """On a table of 8 blocks the traced peak of measurement_ok and of
    verify_quantum_coloring stays below the table's own size: their
    defects are made one block of vertices at a time, where whole-table
    defects took about twice the table."""
    n, c, r = 1024, 8, 2
    g, ops, _ = clique_measurements(np.random.default_rng(3), n, c, r)
    assert n >= 8 * linalg.block_rows(4 * ops[0].nbytes)
    qc = reps.QuantumColoring(c, r, ops)
    for call in (lambda: reps.measurement_ok(ops, r, DEFAULT_TOL),
                 lambda: reps.verify_quantum_coloring(g, qc)):
        assert call()
        assert _traced_peak(call) < ops.nbytes


def test_conjugate_checks_stay_block_sized():
    """normal_form_properties checks Bob = conj(Alice) one block of
    vertices at a time: on the Omega_8 strategy (two blocks or more) its
    traced peak stays below 1.2 times Alice's table, where the whole-table
    check took twice the table.  The first call runs outside the trace:
    numpy imports numpy.ma lazily there, about 1 MB."""
    g = hadamard_graph(8)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(8))
    assert len(s.alice) >= 2 * linalg.block_rows(4 * (s.alice[0].nbytes + s.bob[0].nbytes))
    assert all(game.normal_form_properties(s, g).values())
    assert _traced_peak(lambda: game.normal_form_properties(s, g)) < 1.2 * s.alice.nbytes


def test_conjugation_stage_names_the_largest_defect(monkeypatch):
    """Stage 3 of normalize_strategy checks E = conj(F) one block at a time
    and still names the largest |E - conj(F)| of the whole table: here Bob's
    supports are rotated by a phase at two vertices, one in each block, so
    they stay projectors that resolve the identity."""
    g = hadamard_graph(8)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(8))
    bob = s.bob.copy()
    for v, angle in ((10, 2e-6), (200, 3e-6)):
        u = np.diag(np.exp(1j * angle * np.arange(8)))
        bob[v] = u @ bob[v] @ u.conj().T
    tables = iter([s.alice, bob])
    monkeypatch.setattr(game, "support_projector", lambda a, *args, **kw: next(tables))
    monkeypatch.setattr(game, "_record_stage", lambda stages, stage, t, g: stages.append(t))
    defect = np.max(np.abs(s.alice - bob.conj()))
    assert defect > game.CHECK_TOL
    with pytest.raises(game.NormalFormError) as err:
        game.normalize_strategy(s, g)
    assert str(err.value) == ("[conjugation identity] E != conj(F) after support "
                              f"replacement (defect {defect:.3g})")


def test_support_checks_name_side_and_worst_vertex(monkeypatch):
    """Stage 2 of normalize_strategy names the worst vertex of the whole-table
    overlap and sum checks of the supports it computed."""
    g, ops, _ = clique_measurements(np.random.default_rng(4), 300, 2, 1)
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), ops, ops.conj())
    bad = ops.copy()
    bad[[20, 260], 1] = bad[[20, 260], 0] * [[[1e-3]], [[1e-2]]]  # overlaps
    for table, reason in ((bad, "supports are not mutually orthogonal"),
                          (ops * (1 + 1e-6), "supports do not resolve the identity")):
        monkeypatch.setattr(game, "support_projector", lambda a, *args, **kw: table)
        cross = table[:, :, None] @ table[:, None]
        cross[:, np.arange(2), np.arange(2)] = 0.0
        want = (whole_table(np.abs(cross), game.CHECK_TOL, "supports are not mutually orthogonal")
                and whole_table(np.abs(table.sum(axis=1) - np.eye(2)), game.CHECK_TOL,
                                "supports do not resolve the identity"))
        assert want.reason == reason
        with pytest.raises(game.NormalFormError) as err:
            game.normalize_strategy(s, g)
        assert str(err.value) == f"[support replacement] alice {want}"


def test_empty_strategy_has_no_normal_form_properties():
    s = game.POVMStrategy(1, 1, 1, np.ones(1), np.ones((0, 1, 1, 1)),
                          np.ones((0, 1, 1, 1)))
    with pytest.raises(game.GameError, match="empty strategy"):
        game.normal_form_properties(s, make_graph(0, []))


# -- classical probabilities ----------------------------------------------------


def test_k2_one_color_is_half():
    g = complete_graph(2)
    s = game.ClassicalStrategy(1, (0, 0), (0, 0))
    assert game.classical_win_probability(g, s) == Fraction(1, 2)


def test_matching_proper_coloring_wins():
    g = cycle(4)
    s = game.ClassicalStrategy(2, (0, 1, 0, 1), (0, 1, 0, 1))
    assert game.classical_win_probability(g, s) == 1


def test_swapped_answers_lose_everything():
    g = complete_graph(2)
    s = game.ClassicalStrategy(2, (0, 1), (1, 0))
    # diagonal answers differ and edge answers coincide: every question loses
    assert game.classical_win_probability(g, s) == 0


def test_best_classical_below_chromatic_is_imperfect():
    best_k3, _ = game.best_classical_win_probability(complete_graph(3), 2)
    assert best_k3 == Fraction(7, 9)
    best_c5, _ = game.best_classical_win_probability(cycle(5), 2)
    assert best_c5 == Fraction(13, 15)


def test_best_classical_at_chromatic_is_perfect():
    best, s = game.best_classical_win_probability(cycle(5), 3)
    assert best == 1
    assert game.classical_win_probability(cycle(5), s) == 1


@given(graphs_st(max_n=6), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_classical_bound_exhaustive(g, c):
    """For c below the chromatic number no deterministic pair wins with
    certainty; at or above it a perfect pair exists."""
    chi = coloring.chromatic_number(g).chi
    best, _ = game.best_classical_win_probability(g, c)
    if c < chi:
        assert best < 1
    else:
        assert best == 1


def _best_classical_over_all_pairs(g, c):
    """The c^{2n} loop over every deterministic pair: the best value and the
    first pair in lexicographic order that reaches it."""
    pairs = uniform_pairs(g)
    best, best_s = -1, None
    for alice in itertools.product(range(c), repeat=g.n):
        for bob in itertools.product(range(c), repeat=g.n):
            wins = sum((alice[v] == bob[w]) == (v == w) for v, w in pairs)
            if wins > best:
                best, best_s = wins, game.ClassicalStrategy(c, alice, bob)
    return Fraction(best, len(pairs)), best_s


def test_best_response_matches_all_pairs():
    """Alice's tables against Bob's best response give the value and the
    pair that the loop over all c^n x c^n pairs gives, on n <= 4, and on K_5
    with a pendant vertex at c = 2, where Bob's best color at the pendant is
    a tie that the smallest color breaks."""
    rng = np.random.default_rng(14)
    graphs = [complete_graph(4), cycle(4), make_graph(4, []), make_graph(1, [])]
    graphs += [random_graph(int(rng.integers(1, 5)), rng.random(), seed=k)
               for k in range(40)]
    cases = [(g, c) for g in graphs for c in (1, 2, 3)]
    cases.append((make_graph(6, [(0, 5)] + [(u, v) for u in range(1, 6)
                                            for v in range(u + 1, 6)]), 2))
    for g, c in cases:
        assert game.best_classical_win_probability(g, c) == (
            _best_classical_over_all_pairs(g, c)), (g.n, list(g.edges()), c)


# -- quantum outcome distributions ----------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_outcome_distribution_matches_naive(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(4, 0.6, seed=seed)
    s = classical_derived(g)
    v = int(rng.integers(0, g.n))
    w = int(rng.integers(0, g.n))
    p = game.quantum_outcome_distribution(s, v, w)
    c = s.colors
    naive = np.zeros((c, c))
    for a in range(c):
        for b in range(c):
            op = np.kron(s.alice[v, a], s.bob[w, b])
            naive[a, b] = (s.state.conj() @ (op @ s.state)).real
    assert np.abs(p - naive).max() < 1e-12
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert p.min() >= -1e-12


def test_outcome_distribution_validates():
    s = perturbed_k2_strategy()
    bad = game.POVMStrategy(s.colors, 2, 2, s.state * 2, s.alice, s.bob)
    with pytest.raises(game.GameError):
        game.quantum_outcome_distribution(bad, 0, 0)
    with pytest.raises(game.GameError):
        game.quantum_outcome_distribution(s, 0, 5)


# -- win probability -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_win_probability_matches_naive(seed):
    g = random_graph(5, 0.5, seed=seed + 40)
    s = classical_derived(g)
    pairs = uniform_pairs(g)
    naive = 0.0
    for v, w in pairs:
        p = game.quantum_outcome_distribution(s, v, w)
        mass = np.trace(p) if v == w else p.sum() - np.trace(p)
        naive += mass / len(pairs)
    assert game.quantum_win_probability(g, s) == pytest.approx(naive, abs=1e-12)


def test_classical_derived_strategy_wins(c5):
    s = classical_derived(c5)
    assert game.quantum_win_probability(c5, s) == pytest.approx(1.0, abs=1e-9)


def test_hadamard_strategies_win():
    for n_bits in (4, 8):
        g = hadamard_graph(n_bits)
        s = game.strategy_from_quantum_coloring(
            reps.hadamard_quantum_coloring(n_bits))
        assert game.quantum_win_probability(g, s) == pytest.approx(1.0,
                                                                   abs=1e-9)


def test_maximally_entangled_reduction_invariant():
    """<psi_d| E (x) F |psi_d> = Tr(E F^T)/d for the maximally entangled
    state, checked through the strategy machinery."""
    rng = np.random.default_rng(9)
    d = 3
    for _ in range(20):
        e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        e = e + e.conj().T
        f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        f = f + f.conj().T
        psi = maximally_entangled(d)
        got = psi.conj() @ (np.kron(e, f) @ psi)
        assert abs(got - np.trace(e @ f.T) / d) < 1e-12


# -- consistency ------------------------------------------------------------------


def test_consistency_accepts_winning(c5):
    s = classical_derived(c5)
    rep = game.check_consistency(s, c5)
    assert rep.ok and rep.violations == ()


def test_consistency_lists_violations():
    g = complete_graph(2)
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 0], [0, 1]], dtype=complex)
    # both vertices answer with the same projectors: edge condition fails
    alice = np.array([[e0, e1], [e0, e1]])
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), alice, alice.conj())
    rep = game.check_consistency(s, g)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert kinds == {"edge"}
    v0 = rep.violations[0]
    assert v0.alpha == v0.beta
    assert abs(v0.value) > 1e-3


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_consistency_rejects_bad_tol(tol):
    """At tol=nan no value exceeded tol, so this losing K_2 strategy (both
    vertices answer alike) was reported ok."""
    g = complete_graph(2)
    e0 = np.diag([1.0, 0.0]).astype(complex)
    alice = np.array([[e0, np.eye(2) - e0], [e0, np.eye(2) - e0]])
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), alice, alice.conj())
    with pytest.raises(game.GameError, match="tol must be positive"):
        game.check_consistency(s, g, tol)


def test_consistency_vertex_violation():
    g = make_graph(1, [])
    # non-orthogonal POVM on the diagonal question
    h = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    alice = np.array([[h, np.eye(2) - h]])
    bob = np.array([[np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2]])
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), alice, bob)
    rep = game.check_consistency(s, g)
    assert not rep.ok
    assert all(v.kind == "vertex" for v in rep.violations)


def test_consistency_orders_and_caps_violations(monkeypatch):
    g = make_graph(3, [(0, 1), (1, 2)])
    vecs = np.zeros((3, 2, 2), dtype=complex)
    for v, k in enumerate((0, 1, 1)):  # shifted bases; edge (1, 2) collides
        for a in range(2):
            vecs[v, a, (a + k) % 2] = 1.0
    s = game.strategy_from_quantum_coloring(
        reps.QuantumColoring(2, 1, vecs))
    rep = game.check_consistency(s, g)
    assert [(v.kind, v.v, v.w, v.alpha, v.beta) for v in rep.violations] == [
        ("edge", 1, 2, 0, 0), ("edge", 1, 2, 1, 1),
        ("edge", 2, 1, 0, 0), ("edge", 2, 1, 1, 1)]
    assert all(v.value == pytest.approx(0.5) for v in rep.violations)
    assert not rep.truncated and rep.count_text == "4"
    for cap in (1, 3, 4):
        monkeypatch.setattr(game, "MAX_VIOLATIONS", cap)
        capped = game.check_consistency(s, g)
        assert capped.violations == rep.violations[:cap]
        assert capped.truncated and capped.count_text == f"at least {cap}"


# -- the pair kernel against the (pairs, colors) array it replaced ------------------


def random_strategy(rng, n, c, d):
    """Random PSD operators (not summing to I) and a random unit state: every
    question has mass, so every term of the win sum counts."""
    def ops():
        a = rng.normal(size=(n, c, d, d)) + 1j * rng.normal(size=(n, c, d, d))
        return a @ a.conj().swapaxes(-1, -2) / d
    state = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    return game.POVMStrategy(c, d, d, state / np.linalg.norm(state), ops(), ops())


def random_edges(rng, n, m):
    """m distinct edges on n vertices, unsorted, each in a random orientation."""
    u, v = np.triu_indices(n, 1)
    pick = rng.choice(len(u), size=m, replace=False)
    flip = rng.random(m) < 0.5
    return np.stack([np.where(flip, v[pick], u[pick]),
                     np.where(flip, u[pick], v[pick])], axis=1)


def pair_array(s, vs, ws):
    """The replaced formulation: whole (n, c, k) products x = E Psi and
    z = conj(Psi) F, then the (pairs, c) values <psi| E_{vs,a} (x) F_{ws,a}
    |psi> and each pair's total mass."""
    psi = s.state_matrix()
    x = np.einsum("...ij,jk->...ik", s.alice, psi).reshape(s.n_vertices, s.colors, -1)
    z = np.einsum("jk,...kl->...jl", psi.conj(), s.bob).reshape(s.n_vertices, s.colors, -1)
    return (np.einsum("eak,eak->ea", x[vs], z[ws]).real,
            np.einsum("ek,ek->e", x.sum(axis=1)[vs], z.sum(axis=1)[ws]).real)


ROWS = 512  # rows per pair block in the "three row blocks" cases


@pytest.mark.parametrize("n, m, c", [
    (2 * ROWS + 37, 3000, 3),  # three row blocks
    (9, 20, 1),                # a single color
    (6, 0, 3),                 # no edges: the diagonal alone
])
def test_win_probability_matches_the_pair_array(monkeypatch, n, m, c):
    pair_block_rows(monkeypatch, n, ROWS)
    rng = np.random.default_rng(n + m + c)
    g = make_graph(n, random_edges(rng, n, m))
    s = random_strategy(rng, n, c, 2)
    vs, ws = game._questions(g)
    vals, total = pair_array(s, vs, ws)
    agree = vals.sum(axis=1)
    want = np.mean(np.where(vs == ws, agree, total - agree))
    assert game.quantum_win_probability(g, s) == pytest.approx(want, abs=1e-12)


def test_consistency_matches_the_pair_array_past_the_cap(monkeypatch):
    """Random bases on every vertex break every edge in every color (12,000
    violations), and one vertex with Bob's colors swapped breaks the
    diagonal; each cap cuts the same list at the same place.  Three row
    blocks."""
    rng = np.random.default_rng(7)
    n, c, tol = 2 * ROWS + 37, 2, 1e-3
    pair_block_rows(monkeypatch, n, ROWS)
    g = make_graph(n, random_edges(rng, n, 3000))
    u, _ = np.linalg.qr(rng.normal(size=(n, c, c)) + 1j * rng.normal(size=(n, c, c)))
    s = game.strategy_from_quantum_coloring(
        reps.QuantumColoring(c, 1, u.swapaxes(1, 2)))
    bob = s.bob.copy()
    bob[600] = bob[600, ::-1]
    s = game.POVMStrategy(c, c, c, s.state, s.alice, bob)
    psi = s.state_matrix()
    x = np.einsum("...ij,jk->...ik", s.alice, psi).reshape(n, c, -1)
    z = np.einsum("jk,...kl->...jl", psi.conj(), s.bob).reshape(n, c, -1)
    per_vertex = np.einsum("vak,vbk->vab", x, z).real
    want = [("vertex", v, v, a, b, per_vertex[v, a, b]) for v, a, b in
            zip(*np.nonzero((np.abs(per_vertex) > tol) & ~np.eye(c, dtype=bool)))]
    e = g.edge_array
    vs, ws = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
    vals = pair_array(s, vs, ws)[0]
    want += [("edge", vs[i], ws[i], a, a, vals[i, a])
             for i, a in zip(*np.nonzero(np.abs(vals) > tol))]
    assert len(want) > 10_000
    for cap in (1, 2, 1000, 7000, 10 ** 6):
        monkeypatch.setattr(game, "MAX_VIOLATIONS", cap)
        rep = game.check_consistency(s, g, tol)
        got = [(v.kind, v.v, v.w, v.alpha, v.beta) for v in rep.violations]
        assert got == [w[:5] for w in want[:cap]]
        assert np.allclose([v.value for v in rep.violations],
                           [w[5] for w in want[:cap]], rtol=0, atol=1e-12)
        assert rep.truncated == (cap <= len(want)) and not rep.ok


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_reducers_keep_one_block_not_the_pair_array():
    """On K_1500 with k = 1 the (pairs, colors) complex arrays the reducers
    used to build take 2m * c * 16 B for the game's edge questions (about 72
    MB at c = 2, 288 MB at c = 8) and m * c * 16 B for the edge verifier.
    Each reducer's traced peak must not grow with the color count and must
    stay at a few block products and the pair index (one small int per pair),
    well under those arrays."""
    n = 1500
    g = complete_graph(n)

    def calls(c):
        ops = np.zeros((n, c, 1, 1), dtype=complex)
        ops[:, 0] = 1.0  # every vertex answers color 0: every edge violates
        s = game.POVMStrategy(c, 1, 1, np.ones(1), ops, ops)
        vecs = np.ones((n, c, 1), dtype=complex)
        return {"win": (2, lambda: game.quantum_win_probability(g, s)),
                "consistency": (2, lambda: game.check_consistency(s, g)),
                "edges": (1, lambda: reps.edges_orthogonal(g, vecs, DEFAULT_TOL))}

    two, eight = calls(2), calls(8)
    for name, (orientations, call) in eight.items():
        peak = _traced_peak(call)
        assert peak <= 1.1 * _traced_peak(two[name][1]), name
        assert peak < orientations * g.m * 8 * 16 / 4, (name, peak)


# -- normal form ------------------------------------------------------------------


def test_normalize_rejects_non_winning():
    g = complete_graph(2)
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 0], [0, 1]], dtype=complex)
    alice = np.array([[e0, e1], [e0, e1]])
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), alice, alice.conj())
    with pytest.raises(game.NormalFormError) as exc:
        game.normalize_strategy(s, g)
    assert exc.value.stage == "precondition"


def _break_projector(alice, bob, state, g):
    alice[0, 0] *= 0.5  # Hermitian, still orthogonal across edges
    return alice, alice.conj(), state


def _break_state(alice, bob, state, g):
    return alice, bob, np.eye(len(state))[0]


def _break_conjugate(alice, bob, state, g):
    return alice, alice, state  # the Omega_4 projectors are not real


def _break_edge(alice, bob, state, g):
    u, w = g.edge_array[0]
    alice[w] = alice[u]
    return alice, alice.conj(), state


@pytest.mark.parametrize("mutate, flag", [
    (_break_projector, "projective_equal_rank"),
    (_break_state, "maximally_entangled_rc"),
    (_break_conjugate, "bob_is_conjugate"),
    (_break_edge, "edge_hs_orthogonality"),
], ids=["projector", "state", "conjugate", "edge"])
def test_normal_form_properties_flag_each_defect(mutate, flag):
    g = hadamard_graph(4)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    assert all(game.normal_form_properties(s, g).values())
    alice, bob, state = mutate(s.alice.copy(), s.bob.copy(), s.state.copy(), g)
    broken = game.POVMStrategy(s.colors, s.dim_a, s.dim_b, state, alice, bob)
    flags = game.normal_form_properties(broken, g)
    assert [k for k, ok in flags.items() if not ok] == [flag]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "infinity"])
@pytest.mark.parametrize("where", [(0, 1, 2, 2), (3, 0, 1, 2)],
                         ids=["diagonal", "off-diagonal"])
def test_normal_form_properties_false_on_a_non_finite_entry(bad, where):
    """A NaN or an infinity in Alice's table, with Bob's left as it was or
    made its conjugate, makes every flag false, where the mean trace used
    to raise from round()."""
    g = hadamard_graph(4)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    alice = s.alice.copy()
    alice[where] = bad
    for bob in (s.bob, alice.conj()):
        broken = game.POVMStrategy(s.colors, s.dim_a, s.dim_b, s.state, alice, bob)
        flags = game.normal_form_properties(broken, g)
        assert list(flags) == list(game.normal_form_properties(s, g))
        assert not any(flags.values())


def test_normal_form_properties_on_unequal_local_dimensions():
    """Bob's table cannot be Alice's conjugate when the local dimensions
    differ: the flag is false, where the whole-table difference raised a
    bare broadcasting ValueError."""
    e = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    f = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]
    s = game.POVMStrategy(2, 2, 3, np.ones(6) / np.sqrt(6), np.array([e, e]), np.array([f, f]))
    flags = game.normal_form_properties(s, complete_graph(2))
    assert not flags["bob_is_conjugate"] and not flags["maximally_entangled_rc"]


def test_projective_flag_requires_the_projectors_to_sum_to_the_identity():
    """On K_1 with c = d = 2, Alice's two projectors both |0><0| and Bob's
    their conjugates are Hermitian, idempotent and of trace 1, but sum to
    2 |0><0|, not I: no projective measurement, so only that flag fails."""
    e0 = np.diag([1.0, 0.0]).astype(complex)
    alice = np.array([[e0, e0]])
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), alice, alice.conj())
    flags = game.normal_form_properties(s, complete_graph(1))
    assert [k for k, ok in flags.items() if not ok] == ["projective_equal_rank"]


def test_normalize_perturbed_k2():
    g = complete_graph(2)
    s = perturbed_k2_strategy()
    res = game.normalize_strategy(s, g)
    nf = res.normal
    flags = game.normal_form_properties(nf, g)
    assert all(flags.values()), flags
    assert nf.colors == 3 and nf.dim_a == 6  # rank 2, c = 3
    assert game.quantum_win_probability(g, nf) == pytest.approx(1.0, abs=1e-9)
    # the recorded schmidt spectrum is the input one
    assert res.trace.schmidt_coefficients[:2] == pytest.approx((0.8, 0.6))
    # the renormalized reduced state on the support is diag(lambda^2)
    lam = np.array(res.trace.schmidt_coefficients[:2])
    assert np.allclose(lam ** 2 / np.sum(lam ** 2), [0.64, 0.36])


def test_normalize_stage_order_and_win_preservation():
    g = complete_graph(2)
    s = perturbed_k2_strategy(extra_colors=2, lam=(0.6, 0.8))
    res = game.normalize_strategy(s, g)
    names = [name for name, _ in res.trace.stages]
    assert names == ["input", "schmidt restriction", "support replacement",
                     "conjugation identity", "schmidt flattening",
                     "rank padding"]
    for name, st_ in res.trace.stages:
        assert game.quantum_win_probability(g, st_) == pytest.approx(
            1.0, abs=1e-9), name


def test_normalize_idempotent_up_to_padding():
    """The first pass pads (the input has rank-0 colors); the second finds
    every projector at rank d/c already and keeps the first pass's form."""
    g = complete_graph(2)
    s = perturbed_k2_strategy()
    first = game.normalize_strategy(s, g).normal
    second = game.normalize_strategy(first, g).normal
    assert all(game.normal_form_properties(second, g).values())
    assert game.quantum_win_probability(g, second) == pytest.approx(1.0,
                                                                    abs=1e-9)
    assert first.dim_a == s.dim_a * s.colors
    assert (second.dim_a, second.dim_b) == (first.dim_a, first.dim_b)
    assert np.allclose(second.alice, first.alice, rtol=0, atol=1e-12)


def test_normalize_fixed_point_on_normal_inputs(c5):
    """A strategy already in normal form comes back as it was: the same
    local dimension, state and measurement operators (rank padding does
    not act on projectors of rank d/c)."""
    s = classical_derived(c5)
    res = game.normalize_strategy(s, c5)
    nf = res.normal
    assert (nf.dim_a, nf.dim_b) == (s.dim_a, s.dim_b)
    for x, y in ((nf.state, s.state), (nf.alice, s.alice), (nf.bob, s.bob)):
        assert np.allclose(x, y, rtol=0, atol=1e-12)
    assert res.trace.stages[-1] == ("rank padding", res.trace.stages[-2][1])


@pytest.mark.parametrize("bits", [4, 6])
def test_hadamard_normal_form_keeps_its_local_dimension(bits):
    """The Omega_4 and Omega_6 strategies have all four normal-form
    properties, so normalizing them keeps local dimension N (it grew to
    N * N when rank padding always acted)."""
    g = hadamard_graph(bits)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(bits))
    assert all(game.normal_form_properties(s, g).values())
    nf = game.normalize_strategy(s, g).normal
    assert (nf.dim_a, nf.dim_b) == (bits, bits)
    assert np.allclose(nf.alice, s.alice, rtol=0, atol=1e-12)
    assert all(game.normal_form_properties(nf, g).values())


def test_normalize_zero_schmidt_tail_truncated():
    g = complete_graph(2)
    a = np.zeros((2, 3, 3, 3), dtype=complex)
    a[0, 0, 0, 0] = 1; a[0, 1, 1, 1] = 1; a[0, 2, 2, 2] = 1
    a[1, 0, 1, 1] = 1; a[1, 1, 0, 0] = 1; a[1, 2, 2, 2] = 1
    # an entangled state of Schmidt rank 2, then the product state |00>: rank 1
    for entries, rank in (({0: 0.6, 4: 0.8}, 2), ({0: 1.0}, 1)):
        state = np.zeros(9, dtype=complex)
        state[list(entries)] = list(entries.values())
        s = game.POVMStrategy(3, 3, 3, state, a, a.conj())
        res = game.normalize_strategy(s, g)
        assert res.trace.stages[1][1].dim_a == rank
        assert res.normal.dim_a == 3 * rank  # support dim times 3 colors
        assert all(game.normal_form_properties(res.normal, g).values())


def test_normalize_rejects_ambiguous_schmidt():
    g = complete_graph(2)
    lam2 = 1e-7  # sits inside the ambiguity band around rank_tol
    norm = np.sqrt(1 - lam2 ** 2)
    s = perturbed_k2_strategy(lam=(norm, lam2))
    with pytest.raises(game.NormalFormError) as exc:
        game.normalize_strategy(s, g)
    assert exc.value.stage == "schmidt restriction"
    assert "ambiguous" in str(exc.value)
    # 1e-4 is clear of the band: kept, so the Schmidt support stays 2
    res = game.normalize_strategy(perturbed_k2_strategy(lam=(np.sqrt(1 - 1e-8), 1e-4)), g)
    assert res.trace.schmidt_coefficients[1] == pytest.approx(1e-4)
    assert res.trace.stages[1][1].dim_a == 2


def test_normalize_bob_conjugate_exact():
    g = complete_graph(2)
    res = game.normalize_strategy(perturbed_k2_strategy(), g)
    assert np.array_equal(res.normal.bob, res.normal.alice.conj())


def test_normalize_output_state_exact():
    g = complete_graph(2)
    nf = game.normalize_strategy(perturbed_k2_strategy(), g).normal
    assert np.array_equal(nf.state, maximally_entangled(nf.dim_a))


@pytest.mark.parametrize("seed", range(6))
def test_normalize_random_winning_strategies(seed):
    """Random local-unitary disguises of classical-derived strategies, with a
    product-state register appended, normalize cleanly."""
    rng = np.random.default_rng(seed)
    g = random_graph(int(rng.integers(2, 5)), 0.6, seed=seed + 7)
    s = classical_derived(g)
    d = s.dim_a
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    # disguise by local unitaries A = q^dagger, B = conj(A): operators are
    # conjugated and the state matrix maps to A Psi B^T
    alice = np.einsum("pi,vaij,jq->vapq", q.conj().T, s.alice, q)
    bob = np.einsum("pi,vaij,jq->vapq", q.T, s.bob, q.conj())
    psi = s.state_matrix()
    state = (q.conj().T @ psi @ q).ravel()
    disguised = game.POVMStrategy(s.colors, d, d, state, alice, bob)
    assert game.check_consistency(disguised, g).ok
    res = game.normalize_strategy(disguised, g)
    assert all(game.normal_form_properties(res.normal, g).values())
    assert game.quantum_win_probability(g, res.normal) == pytest.approx(
        1.0, abs=1e-9)


def _normal_form_case(name):
    """Criterion 09's perturbed winning strategies and the Hadamard
    strategies of Omega_4 and Omega_6."""
    if name.startswith("omega"):
        n = int(name[len("omega"):])
        return hadamard_graph(n), game.strategy_from_quantum_coloring(
            reps.hadamard_quantum_coloring(n))
    return perturbed_winning_strategy(int(name[len("perturbed"):]))


def _fingerprint(*arrays):
    """(w . a, sum |w|) over the concatenated entries a, for fixed weights
    w: entries within delta of the recorded ones keep w . a within
    delta * sum |w| of the recorded value."""
    a = np.concatenate([np.asarray(x, dtype=complex).ravel() for x in arrays])
    w = np.random.default_rng(a.size).standard_normal(a.size)
    return complex(w @ a), float(np.abs(w).sum())


# name -> (Schmidt coefficients, fingerprint of each stage's state, alice and
# bob, fingerprint of quantum_outcome_distribution(input, 0, w) over all w),
# recorded when support replacement still ran one matrix at a time
GOLDEN_NORMAL_FORM = {
    'perturbed0': ((0.8818336305150289, 0.3776947447468384, 0.282340446771808,
        0.0), (-1.3669320148798993, 2.0851522574858086, 2.0851522574858086,
        2.0851522574858086, 2.4615292490280414, 12.908562057825648),
        -4.986859243945406),
    'perturbed1': ((0.9383569822981502, 0.34566772162339515, 0.0, 0.0),
        (-7.512867054555013, 1.2762487577804382, 1.2762487577804382,
        1.2762487577804382, 1.7405456690442398, -3.268802431974999),
        -0.896297151028635),
    'perturbed2': ((0.7593653210282588, 0.5880732560168589,
        0.27844955517540254), (-5.832062903252301, -5.832062903252301,
        -5.832062903252301, -5.832062903252301, -5.867076896252971,
        -17.103230084265558), 1.2171896113222287),
    'perturbed3': ((0.7603344488058588, 0.5850684956808759,
        0.28211058349662776), (-1.2629820809605903, -1.2629820809605903,
        -1.2629820809605903, -1.2629820809605903, -1.2976476542068145,
        -7.103230891788576), 2.6003291553523225),
    'perturbed4': ((0.9504730436153768, 0.3108070033968381, 0.0, 0.0),
        (-3.6447698143538974, 1.3990714364468761, 1.3990714364468761,
        1.3990714364468761, 1.2668925387080066, 3.1903951362212526),
        0.9349676392188708),
    'perturbed5': ((0.8584686380874478, 0.5128660618721836),
        (1.3405035447627753, 1.3405035447627753, 1.3405035447627753,
        1.3405035447627753, 1.2668925387080066, 3.1903951362212526),
        0.6467253023771831),
    'perturbed6': ((0.79938320388072, 0.4581766215673254, 0.38866525031516097,
        0.0), (1.0345709822421956, 3.4621906465027426, 3.4621906465027426,
        3.4621906465027426, 3.1195950216553845, -13.62033725472017),
        -1.4884532949762805),
    'perturbed7': ((0.7967029661934062, 0.48042595185842235,
        0.36668145363456445, 0.0, 0.0), (9.91008125136382, 6.923284845135749,
        6.923284845135749, 6.923284845135749, 7.196431104583655,
        6.257210888692068), -2.543803096436602),
    'perturbed8': ((0.7102236621870648, 0.6118292279056331,
        0.3482058953406602), (-2.269280280144355, -2.269280280144355,
        -2.269280280144355, -2.269280280144355, -2.346609771627129,
        3.480334248396335), 2.617430472477235),
    'perturbed9': ((0.6683200922867958, 0.5787355927279196, 0.467347159995257,
        0.0, 0.0), (-2.824958014203538, 3.236103517849785, 3.236103517849785,
        3.236103517849785, 3.1195950216553845, -13.62033725472017),
        -1.2368376041685947),
    'perturbed10': ((0.9288883575756673, 0.3703598509023073),
        (5.455765428701016, 5.455765428701016, 5.455765428701016,
        5.455765428701016, 5.428645369875276, -1.8375614862115999),
        0.029681141504084185),
    'perturbed11': ((0.9356410315065319, 0.3529530565973227, 0.0, 0.0),
        (-4.556071077138137, 5.225552260999787, 5.225552260999787,
        5.225552260999787, 5.380890918738046, -2.5487907210486385),
        -0.8713458026562699),
    'perturbed12': ((0.7289849032742715, 0.5320963687100293,
        0.4306442443639545, 0.0, 0.0), (6.0522319243836025, -8.647898238524652,
        -8.647898238524652, -8.647898238524652, -8.791653406273708,
        4.915780997408081), 1.5163116512525447),
    'perturbed13': ((0.830900325627291, 0.47008695160121505,
        0.2976959972971396, 0.0, 0.0), (-1.2796255966966448, 4.930826253109136,
        4.930826253109136, 4.930826253109136, 5.270816366164059,
        0.36701944890297833), -2.595948854638223),
    'perturbed14': ((0.809806698354379, 0.5866967796915029, 0.0),
        (-3.280579384403918, 0.4523241435707883, 0.4523241435707883,
        0.4523241435707883, 0.26225899246835715, -9.703962293045809),
        0.5280719842704895),
    'perturbed15': ((0.7707339039183354, 0.5587813759368103,
        0.3061578404303366, 0.0, 0.0), (2.9365128948337036, 3.155307593335834,
        3.155307593335834, 3.155307593335834, 3.4573138937133048,
        -2.5022759700430033), -1.8442571434141255),
    'perturbed16': ((0.8881420028096718, 0.4595691273847981, 0.0, 0.0),
        (2.4985042125373935, -2.0339142036274502, -2.0339142036274502,
        -2.0339142036274502, -2.1244607096230466, 6.118362133070199),
        0.03927734565465474),
    'perturbed17': ((0.7373061063633384, 0.5528555126304798,
        0.3882402447884851), (-3.4604415817918373, -3.4604415817918373,
        -3.4604415817918373, -3.4604415817918373, -3.4857851732992304,
        15.61576622865377), -0.842100167910499),
    'perturbed18': ((0.8497043227911927, 0.44690779930997127,
        0.27977845296927134), (4.002809468016262, 4.002809468016262,
        4.002809468016262, 4.002809468016262, 3.9792958179547853,
        -10.155531789402668), -0.5406840658633345),
    'perturbed19': ((0.8866631844853414, 0.4624158272359557, 0.0),
        (4.626164672996863, 1.944073212079495, 1.944073212079495,
        1.944073212079495, 2.2850240934038943, -2.323784808445323),
        1.2870238053672187),
    'perturbed20': ((0.6760686022075465, 0.56696597655547, 0.3689164846960724,
        0.29220105040387706), (3.3699835933515914, 3.3699835933515914,
        3.3699835933515914, 3.3699835933515914, 3.8291424474906828,
        12.541529959556236), -2.5336559706244075),
    'perturbed21': ((0.9315970179369009, 0.3634927732033657, 0.0),
        (6.085509810642016, 1.2937701104164216, 1.2937701104164216,
        1.2937701104164216, 1.7405456690442398, -3.268802431974999),
        -0.89227606003541),
    'perturbed22': ((0.7566248527893544, 0.5775920584564146, 0.306441260520788,
        0.0), (5.843003965246572, -5.83420534185867, -5.83420534185867,
        -5.83420534185867, -5.867076896252971, -17.103230084265558),
        1.263924045036526),
    'perturbed23': ((0.834277656740019, 0.5513445306379513, 0.0),
        (-3.247126977612866, 0.49751643062384443, 0.49751643062384443,
        0.49751643062384443, 0.26225899246835715, -9.703962293045809),
        0.5939864480347621),
    'perturbed24': ((0.8068921125093272, 0.5906988393168173, 0.0, 0.0),
        (3.2751283913446128, 0.9618197720507835, 0.9618197720507835,
        0.9618197720507835, 1.0777738998693034, 1.160283585783451),
        0.43544856801968224),
    'omega4': ((0.5, 0.5, 0.5, 0.5), ((9.190340825611074+14.312949968989642j),
        (9.190340825611074+14.312949968989642j),
        (9.190340825611079+14.312949968989646j),
        (9.190340825611079+14.312949968989646j),
        (9.190340825611079+14.312949968989646j),
        (9.190340825611079+14.312949968989646j)), 2.1007496539109107),
    'omega6': ((0.4082482904638631, 0.4082482904638631, 0.4082482904638631,
        0.4082482904638631, 0.4082482904638631, 0.4082482904638631),
        ((-15.81885833024754-3.303380650518328j),
        (-15.81885833024754-3.303380650518328j),
        (-15.81885833024754-3.303380650518312j),
        (-15.81885833024754-3.303380650518312j),
        (-15.81885833024754-3.303380650518312j),
        (-15.81885833024754-3.303380650518312j)), -0.7254590364249414),
}


@pytest.mark.parametrize("name", list(GOLDEN_NORMAL_FORM))
def test_normal_form_golden(name):
    g, s = _normal_form_case(name)
    coeffs, stages, dist = GOLDEN_NORMAL_FORM[name]
    res = game.normalize_strategy(s, g)
    assert res.trace.schmidt_coefficients == coeffs
    assert [stage for stage, _ in res.trace.stages] == [
        "input", "schmidt restriction", "support replacement",
        "conjugation identity", "schmidt flattening", "rank padding"]
    for want, (stage, st_) in zip(stages, res.trace.stages):
        got, bound = _fingerprint(st_.state, st_.alice, st_.bob)
        assert abs(got - want) <= 1e-15 * bound, stage
        assert game.check_consistency(st_, g, game.CHECK_TOL).ok, stage
    got, bound = _fingerprint(*(game.quantum_outcome_distribution(s, 0, w)
                                for w in range(g.n)))
    assert abs(got - dist) <= 1e-15 * bound


# -- operator contractions ---------------------------------------------------------


def _random_povm_strategy(n, c, d_a=3, d_b=5, seed=0):
    """Seeded POVMs on n vertices with c outcomes on C^d_a and C^d_b, and a
    random state: E_a = S^-1/2 G_a G_a^dagger S^-1/2 with S = sum_a G_a G_a^dagger."""
    rng = np.random.default_rng([seed, n, c])

    def side(d):
        gm = rng.standard_normal((n, c, d, d)) + 1j * rng.standard_normal((n, c, d, d))
        e = gm @ gm.conj().swapaxes(-2, -1)
        w, v = np.linalg.eigh(e.sum(axis=1))
        isqrt = (v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-2, -1)
        return isqrt[:, None] @ e @ isqrt[:, None]

    alice, bob = side(d_a), side(d_b)
    state = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    return game.POVMStrategy(c, d_a, d_b, state / np.linalg.norm(state),
                             alice, bob)


def _rotated_omega4():
    """Omega_4's strategy with Bob padded by one unused dimension and both
    sides turned by seeded unitaries: still winning, with d_A != d_B and a
    nontrivial Schmidt rotation."""
    g, s = _normal_form_case("omega4")
    rng = np.random.default_rng(11)
    bob = np.zeros((g.n, s.colors, 5, 5), dtype=complex)
    bob[:, :, :4, :4] = s.bob
    bob[:, 0, 4, 4] = 1.0
    state = np.zeros((4, 5), dtype=complex)
    state[:, :4] = s.state_matrix()
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    return g, game.POVMStrategy(s.colors, 4, 5, (u @ state @ w.T).ravel(),
                                u @ s.alice @ u.conj().T,
                                w @ bob @ w.conj().T)


@functools.lru_cache(maxsize=None)
def _contraction_case(name):
    """(graph, strategy, whether to check the stage-1 rotation) of a
    contraction test case.  The rotation needs a winning strategy, and
    omega6-normal is left out: its normal form pads to local dimension 216."""
    if name.startswith("random"):
        n, c = (int(x) for x in name.split("-")[1:])
        return make_graph(n, []), _random_povm_strategy(n, c), False
    if name == "omega4-rotated":
        return (*_rotated_omega4(), True)
    g, s = _normal_form_case(name.split("-")[0])
    if name.endswith("-normal"):
        s = game.normalize_strategy(s, g).normal
    return g, s, name != "omega6-normal"


CONTRACTION_CASES = ([f"random-{n}-{c}" for n in (0, 1, 7) for c in (1, 3)]
                     + ["omega4", "omega6", "omega4-normal", "omega6-normal",
                        "omega4-rotated"])


def _assert_close(got, want, scale=None):
    """Same shape, and within 1e-13 of the largest entry of want."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0) if scale is None else scale
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("name", CONTRACTION_CASES)
def test_contractions_match_einsum(monkeypatch, name):
    """The matmul products of game and reps against the einsum contractions
    they replaced."""
    g, s, rotate = _contraction_case(name)
    n, c = s.n_vertices, s.colors
    psi = s.state_matrix()
    k = s.dim_a * s.dim_b
    rx = np.einsum("...ij,jk->...ik", s.alice, psi).reshape(n, c, k)
    rz = np.einsum("jk,...kl->...jl", psi.conj(), s.bob).reshape(n, c, k)
    # every value is W . F with W = Psi^dagger E Psi and F Bob's operator
    rw = np.einsum("ji,...jk,kl->...il", psi.conj(), s.alice, psi).reshape(n, c, s.dim_b ** 2)
    _assert_close(game._alice_products(s.alice, psi), rw)
    _assert_close(np.einsum("vak,vbk->vab", rw, s.bob.reshape(n, c, s.dim_b ** 2)),
                  np.einsum("vak,vbk->vab", rx, rz))

    # check_consistency lists exactly the off-diagonal per-vertex values
    # above tol (g has no edges unless the strategy wins)
    per_vertex = np.einsum("vak,vbk->vab", rx, rz).real
    if n:
        tol = DEFAULT_TOL
        monkeypatch.setattr(game, "MAX_VIOLATIONS", n * c * c)
        report = game.check_consistency(s, g, tol)
        listed = {(v.v, v.alpha, v.beta): v.value for v in report.violations}
        want = (np.abs(per_vertex) > tol) & ~np.eye(c, dtype=bool)
        keys = sorted(listed)
        assert keys == [tuple(map(int, key)) for key in zip(*np.nonzero(want))]
        _assert_close(np.array([listed[key] for key in keys]),
                      np.array([per_vertex[key] for key in keys]),
                      np.max(np.abs(per_vertex)))
        for v, w in {(0, 0), (0, n - 1), (n - 1, 0), (n // 2, n - 1)}:
            _assert_close(game.quantum_outcome_distribution(s, v, w),
                          np.einsum("ak,bk->ab", rx[v], rz[w]).real)

    # measurement_ok on an exactly Hermitian, traceless table: the
    # idempotence defect max|T T - T| alone decides whether the checks
    # before the sum pass
    rng = np.random.default_rng(5)
    t = s.alice + rng.standard_normal(s.alice.shape)
    t = (t + t.conj().swapaxes(-2, -1)) / 2
    t -= np.einsum("vaii->va", t)[..., None, None] / s.dim_a * np.eye(s.dim_a)
    defect = np.max(np.abs(np.einsum("vaij,vajk->vaik", t, t) - t), initial=0.0)
    assert reps.measurement_ok(t, 0, defect * (1 + 1e-13)).reason in (
        None, "projectors do not sum to the identity")
    if n:
        assert reps.measurement_ok(t, 0, defect * (1 - 1e-13)).reason == "projector not idempotent"

    if rotate:  # the stage-1 rotation into the Schmidt basis
        u, coeffs, vh = np.linalg.svd(s.state_matrix(), full_matrices=False)
        w, d = vh.T, np.count_nonzero(coeffs > 1e-7 * coeffs[0])
        stage = game.normalize_strategy(s, g).trace.stages[1][1]
        _assert_close(stage.alice, np.einsum(
            "pi,vaij,jq->vapq", u.conj().T, s.alice, u)[:, :, :d, :d])
        _assert_close(stage.bob, np.einsum(
            "pi,vbij,jq->vbpq", w.T.conj(), s.bob, w)[:, :, :d, :d])


# -- simulation --------------------------------------------------------------------


def test_simulate_reproducible(c5):
    s = classical_derived(c5)
    a = game.simulate_game(c5, s, rounds=500, seed=4)
    b = game.simulate_game(c5, s, rounds=500, seed=4)
    assert a == b == 1.0


def test_simulate_validates_once(monkeypatch):
    """One validation per run, and the same random stream as drawing each
    pair's outcome from quantum_outcome_distribution."""
    g = hadamard_graph(4)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    state = np.zeros(s.dim_a * s.dim_b, dtype=complex)
    state[0] = 1.0  # a product state: the strategy is no longer perfect
    s = game.POVMStrategy(s.colors, s.dim_a, s.dim_b, state, s.alice, s.bob)
    pairs = uniform_pairs(g)
    rng = np.random.default_rng(3)
    weights = np.full(len(pairs), 1 / len(pairs))
    picks = rng.choice(len(pairs), size=400, p=weights / weights.sum())
    wins = 0
    for k in picks:
        v, w = pairs[k]
        p = np.clip(game.quantum_outcome_distribution(s, v, w), 0.0, None)
        a, b = divmod(int(rng.choice(p.size, p=p.ravel() / p.sum())), s.colors)
        wins += (a == b) if v == w else (a != b)

    calls = []
    validate = game.validate_strategy
    monkeypatch.setattr(game, "validate_strategy",
                        lambda *a, **kw: calls.append(1) or validate(*a, **kw))
    rates = [game.simulate_game(g, s, rounds=400, seed=3) for _ in range(2)]
    assert len(calls) == 2
    assert rates[0] == rates[1] == wins / 400 < 1.0


def test_simulate_classical_tracks_exact(c5):
    s = game.ClassicalStrategy(2, (0, 1, 0, 1, 0), (0, 1, 0, 1, 0))
    exact = float(game.classical_win_probability(c5, s))
    est = game.simulate_game(c5, s, rounds=20_000, seed=1)
    assert abs(est - exact) < 0.02


def test_simulate_rejects_zero_rounds(c5):
    with pytest.raises(game.GameError):
        game.simulate_game(c5, classical_derived(c5), rounds=0)


def test_simulate_rejects_a_negative_seed(c5):
    with pytest.raises(game.GameError, match="seed"):
        game.simulate_game(c5, classical_derived(c5), seed=-1)


@pytest.mark.parametrize("strategy", [
    game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4)),
    game.ClassicalStrategy(2, (0, 1, 0), (0, 1, 0)),
    game.ClassicalStrategy(2, (0,), (0,)),
], ids=["omega4-povm", "classical-3", "classical-1"])
def test_simulate_rejects_strategy_of_another_vertex_count(strategy):
    # a 16-vertex strategy used to score 0.82 on K2, and a 1-vertex one to
    # raise IndexError
    with pytest.raises(game.GameError, match="does not cover"):
        game.simulate_game(complete_graph(2), strategy, rounds=50)


@pytest.mark.parametrize("evaluate", [
    lambda g, s: game.classical_win_probability(
        g, game.ClassicalStrategy(2, (0,) * s.n_vertices, (0,) * s.n_vertices)),
    game.quantum_win_probability,
    lambda g, s: game.check_consistency(s, g),
    lambda g, s: game.normalize_strategy(s, g),
    lambda g, s: game.simulate_game(g, s, rounds=50),
], ids=["classical", "win", "check", "normalize", "simulate"])
def test_cover_error_names_both_vertex_counts(evaluate):
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    with pytest.raises(game.GameError, match=r"does not cover the vertex set "
                       r"\(it covers 16 vertices, graph has 2\)"):
        evaluate(complete_graph(2), s)


def test_best_classical_rejects_zero_colors():
    with pytest.raises(game.GameError, match="color count"):
        game.best_classical_win_probability(complete_graph(2), 0)


# -- factored strategies: rank-1 sides kept as vectors ------------------------------


def _factored_case(name):
    """(graph, factored strategy): the Hadamard strategies of Omega_4 and
    Omega_6 and C_5's classical one; "-rotated" turns each vertex's vectors,
    Alice's and Bob's apart, by a seeded unitary near the identity and moves
    the state off the maximally entangled one (still valid POVMs, no longer
    winning); "-stretched" scales one vector of one vertex per side by
    1 + 1e-3 (no longer valid)."""
    base, _, how = name.partition("-")
    if base == "c5":
        g = cycle(5)
        qc = reps.quantum_coloring_from_classical(g, coloring.chromatic_number(g).certificate)
    else:
        bits = int(base[len("omega"):])
        g, qc = hadamard_graph(bits), reps.hadamard_quantum_coloring(bits)
    s = game.strategy_from_quantum_coloring(qc)
    x, y = (side.copy() for side in s.sides)
    rng = np.random.default_rng(FACTORED_CASES.index(name))
    state = s.state
    if how == "rotated":
        for side in (x, y):
            h = rng.normal(size=(g.n, s.dim_a, s.dim_a)) + 1j * rng.normal(
                size=(g.n, s.dim_a, s.dim_a))
            w, v = np.linalg.eigh(0.05 * (h + h.conj().swapaxes(1, 2)))
            side[:] = side @ ((v * np.exp(1j * w)[:, None]) @ v.conj().swapaxes(1, 2))
        state = state + 0.05 * (rng.normal(size=state.shape) + 1j * rng.normal(size=state.shape))
        state = state / np.linalg.norm(state)
    elif how == "stretched":
        x[1, 0] *= 1 + 1e-3
        y[g.n - 1, 1] *= 1 + 1e-3
    return g, game.POVMStrategy(s.colors, s.dim_a, s.dim_b, state, x, y)


FACTORED_CASES = [f"{base}{how}" for base in ("omega4", "omega6", "c5")
                  for how in ("", "-rotated", "-stretched")]


@pytest.mark.parametrize("name", FACTORED_CASES)
def test_factored_evaluators_agree_with_the_tables(monkeypatch, name):
    """The same strategy evaluated on its vectors and on its expanded tables:
    the win probability within 1e-12, the same violation lists (values
    within 1e-12) at each cap, the same validation verdict, the same
    simulated rate; and the vectors are never expanded."""
    g, s = _factored_case(name)
    dense = as_tables(game.POVMStrategy(s.colors, s.dim_a, s.dim_b, s.state, *s.sides))
    assert s.factored and not dense.factored
    assert abs(game.quantum_win_probability(g, s)
               - game.quantum_win_probability(g, dense)) <= 1e-12
    for cap in (3, 1000):
        monkeypatch.setattr(game, "MAX_VIOLATIONS", cap)
        got, want = (game.check_consistency(t, g, 1e-9) for t in (s, dense))
        assert [dataclasses.astuple(v)[:5] for v in got.violations] == [
            dataclasses.astuple(v)[:5] for v in want.violations]
        assert np.allclose([v.value for v in got.violations],
                           [v.value for v in want.violations], rtol=0, atol=1e-12)
        assert (got.ok, got.truncated) == (want.ok, want.truncated)
    assert (validate_verdict(s, 1e-8) is None) == (validate_verdict(dense, 1e-8) is None)
    if validate_verdict(s, 1e-8) is None:
        assert (game.simulate_game(g, s, rounds=300, seed=11)
                == game.simulate_game(g, dense, rounds=300, seed=11))
        for v, w in ((0, 0), (0, g.n - 1)):
            assert np.allclose(game.quantum_outcome_distribution(s, v, w),
                               game.quantum_outcome_distribution(dense, v, w),
                               rtol=0, atol=1e-12)
    assert not {"alice", "bob"} & vars(s).keys()


def test_factored_cases_cover_each_verdict():
    """The agreement cases win, lose without a violation-free check, and
    fail validation, so each comparison sees both answers."""
    wins = {name: game.quantum_win_probability(*_factored_case(name)) for name in FACTORED_CASES}
    assert all(abs(wins[n] - 1.0) <= 1e-12 for n in ("omega4", "omega6", "c5"))
    assert all(wins[n] < 0.99 for n in FACTORED_CASES if n.endswith("-rotated"))
    assert all(validate_verdict(_factored_case(n)[1], 1e-8) is not None
               for n in FACTORED_CASES if n.endswith("-stretched"))


def _omega4_factored(**sides):
    """The Omega_4 strategy with the given sides replaced."""
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    x, y = (sides.get(name, side) for name, side in zip(("alice", "bob"), s.sides))
    return game.POVMStrategy(x.shape[1], s.dim_a, s.dim_b, sides.get("state", s.state), x, y)


def _factored_defect(kind):
    """The Omega_4 strategy with one defect of a factored side, or of its
    state, and the validation error that names it."""
    x = reps.hadamard_quantum_coloring(4).table
    if kind == "not-orthogonal":  # vertex 5's vectors stay unit
        y = x.conj()
        y[5, 1] += 1e-3 * y[5, 0]
        y[5, 1] /= np.linalg.norm(y[5, 1])
        assert np.abs(np.linalg.norm(y, axis=2) - 1).max() < 1e-15
        return (_omega4_factored(bob=y),
                "bob POVM not an orthonormal basis at vertex 5 (residual 0.001)")
    if kind == "c-below-d":  # orthonormal, but no basis
        return (_omega4_factored(alice=x[:, :3], bob=x[:, :3].conj()),
                "alice POVM 3 vectors in C^4 are no basis (residual 1)")
    if kind == "nan":  # named before vertex 2's larger finite defect
        y = x.conj()
        y[2, 0] *= 1.5
        y[7, 2, 1] = np.nan
        return _omega4_factored(bob=y), "bob POVM not an orthonormal basis at vertex 7 (residual nan)"
    return _omega4_factored(state=1.01 * maximally_entangled(4)), "state norm 1.01 != 1"


@pytest.mark.parametrize("kind", ["not-orthogonal", "c-below-d", "nan", "state"])
def test_factored_validation_names_side_and_vertex(kind):
    """Each defect of a factored strategy is named with its side and, where
    one vertex is at fault, the worst vertex; the strategy without it
    validates."""
    s, want = _factored_defect(kind)
    assert validate_verdict(s, 1e-8) == want
    assert validate_verdict(_omega4_factored(), 1e-8) is None


def test_factored_sides_skip_the_hermitian_and_psd_checks(monkeypatch):
    """x x† is Hermitian and PSD as made: validating vectors runs neither
    check, and never expands a table."""
    monkeypatch.setattr(game, "psd_certified", None)
    monkeypatch.setattr(game, "_hermitian_defect", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(6))
    game.validate_strategy(s)
    assert not {"alice", "bob"} & vars(s).keys()


def test_factored_tables_expand_once_as_they_were_made():
    """s.alice and s.bob of a factored strategy are the tables a rank-1
    coloring's strategy used to carry, bytes and signed zeros included:
    Alice's x x† and Bob's its entrywise conjugate; each is made on its
    first read and kept."""
    qc = reps.hadamard_quantum_coloring(4)
    s = game.strategy_from_quantum_coloring(qc)
    v = qc.table
    table = np.einsum("vai,vaj->vaij", v, v.conj(), order="C")
    assert s.n_vertices == 16 and not {"alice", "bob"} & vars(s).keys()
    assert s.alice.tobytes() == table.tobytes() and s.alice is s.alice
    assert s.bob.tobytes() == table.conj().tobytes() and s.bob.flags.c_contiguous


def test_factored_repr_builds_no_table():
    """repr of a factored strategy leaves the tables out, so it makes and
    keeps neither (36 MB on Omega_10 when it did)."""
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    assert repr(s).startswith("POVMStrategy(colors=4, dim_a=4, dim_b=4, state=")
    assert "alice" not in repr(s) and not {"alice", "bob"} & vars(s).keys()


def test_factored_evaluators_stay_below_one_table():
    """validate_strategy, quantum_win_probability and check_consistency on
    the factored Omega_8 strategy make no table: their traced peak stays
    under 3/4 of one side's (n, c, d, d) table (256 * 8 * 64 * 16 B), where
    reading s.alice alone allocates a whole one.  What is left is the pair
    kernel's block and the one-color total mass.  The first calls run
    outside the trace: numpy imports lazily there."""
    g = hadamard_graph(8)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(8))
    table = 256 * 8 * 64 * 16

    def calls():
        game.validate_strategy(s)
        game.quantum_win_probability(g, s)
        game.check_consistency(s, g)
    calls()
    assert _traced_peak(calls) < 0.75 * table
    assert not {"alice", "bob"} & vars(s).keys()
    assert _traced_peak(lambda: s.alice) >= table
