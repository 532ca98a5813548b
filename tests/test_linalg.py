import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcolor
from conftest import pair_block_rows, random_graph
from qcolor import linalg
from qcolor.graphs import Graph, hadamard_graph, make_graph


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


ROWS = 512  # rows per pair block in the "three row blocks" cases


@pytest.mark.parametrize("n, c, k, m", [
    (2 * ROWS + 37, 3, 5, 3000),  # three row blocks
    (7, 1, 4, 30),                # a single color
    (5, 4, 2, 0),                 # no edges at all
])
def test_pair_values_matches_einsum(monkeypatch, n, c, k, m):
    """The kernel on the edges of a graph drawn as m random pairs (loops and
    repeats dropped) against einsum, each edge as given and reversed."""
    pair_block_rows(monkeypatch, n, ROWS)
    rng = np.random.default_rng(n + m)
    x = rng.normal(size=(n, c, k)) + 1j * rng.normal(size=(n, c, k))
    z = rng.normal(size=(n, c, k)) + 1j * rng.normal(size=(n, c, k))
    g = make_graph(n, {(min(p), max(p)) for p in rng.integers(0, n, size=(m, 2)).tolist()
                       if p[0] != p[1]})
    vs, ws = g.edge_array.T
    pairs = linalg.PairBlocks(g)
    for a in range(c):
        xa, za = x[:, a], z[:, a]
        forward = np.einsum("ek,ek->e", xa[vs], za[ws])
        # edge e reversed, x[ws[e]] . z[vs[e]], is the kernel on swapped tables
        for tables, reduce, want in [((xa, za), np.asarray, forward),
                                     ((za, xa), np.asarray,
                                      np.einsum("ek,ek->e", xa[ws], za[vs])),
                                     ((xa, za), np.abs, np.abs(forward))]:
            got = np.full(g.m, np.nan, dtype=complex)
            for sel, vals in pairs.values(*tables):
                got[sel] = reduce(vals)
            assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("graph", ["omega6", "sparse"])
def test_pair_values_view_matches_the_gather(monkeypatch, graph):
    """A block whose columns are one whole range reads z through the view
    z[first:last + 1]; its values are those of the gather z[cols], bit for
    bit, in blocks of 16 rows, on strided rows as the evaluators pass them.
    Omega_6's blocks are ranges; the sparse graph's mostly are not."""
    g = hadamard_graph(6) if graph == "omega6" else random_graph(300, 0.02, seed=8)
    pair_block_rows(monkeypatch, g.n, 16)
    rng = np.random.default_rng(6)
    x, z = (rng.normal(size=(2, g.n, 3, 4)) + 1j * rng.normal(size=(2, g.n, 3, 4)))[:, :, 1]
    pairs = linalg.PairBlocks(g)
    views = [isinstance(cols, slice) for _, _, cols, _ in pairs.blocks]
    assert all(views) if graph == "omega6" else sum(views) < len(views) / 4
    for (lo, sel, cols, at), (got_sel, got) in zip(pairs.blocks, pairs.values(x, z)):
        gathered = np.arange(g.n)[cols]
        want = (x[lo:lo + pairs.rows] @ z[gathered].T).ravel()[at]
        assert got_sel == sel and np.array_equal(got, want)


def top_isolated_graph() -> Graph:
    """A sparse graph on vertices 0..59 with vertices 60..99 isolated: the
    kernel sizes its rows from the largest endpoint, 59, not from g.n."""
    return make_graph(100, random_graph(60, 0.1, seed=3).edge_array)


def index_pair_blocks(vs, ws):
    """The block layout of the pair kernel as it was built from two index
    arrays, vs sorted: each block's columns by a sort and an
    adjacent-difference dedupe, each pair's column by searchsorted."""
    top = int(max(vs.max(initial=-1), ws.max(initial=-1))) + 1
    rows = linalg.block_rows(16 * top)
    starts = np.arange(0, top + rows, rows)
    cuts = np.searchsorted(vs, starts)
    blocks = []
    for lo, i, j in zip(starts[:-1], cuts[:-1], cuts[1:]):
        if j > i:
            cols = np.sort(ws[i:j])
            cols = cols[np.diff(cols, prepend=-1) != 0]
            at = (vs[i:j] - lo) * cols.size + np.searchsorted(cols, ws[i:j])
            size = np.min_scalar_type(rows * cols.size)
            if cols[-1] - cols[0] + 1 == cols.size:
                cols = slice(int(cols[0]), int(cols[-1]) + 1)
            blocks.append((lo, slice(i, j), cols, at.astype(size)))
    return rows, blocks


@pytest.mark.parametrize("budget", ["default", "16-rows"])
@pytest.mark.parametrize("graph", ["omega6", "omega10", "sparse", "top-isolated", "edgeless"])
def test_pair_blocks_keep_the_index_array_layout(monkeypatch, graph, budget):
    """PairBlocks(g) lays out g's edges block for block as the kernel built
    from the two edge columns did: the same first row, edge slice, columns
    (slice or index array) and positions (values and dtype), and values
    bit for bit."""
    g = {"omega6": lambda: hadamard_graph(6), "omega10": lambda: hadamard_graph(10),
         "sparse": lambda: random_graph(300, 0.02, seed=8),
         "top-isolated": top_isolated_graph, "edgeless": lambda: make_graph(9, [])}[graph]()
    if budget == "16-rows":
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 16 * 16 * (int(g.edge_array.max(initial=0)) + 1))
    rows, want = index_pair_blocks(g.edge_array[:, 0], g.edge_array[:, 1])
    pairs = linalg.PairBlocks(g)
    assert pairs.rows == rows and len(pairs.blocks) == len(want)
    assert rows == 16 or budget == "default" or graph == "edgeless"
    rng = np.random.default_rng(10)
    x, z = (rng.normal(size=(2, g.n, 3, 2)) + 1j * rng.normal(size=(2, g.n, 3, 2)))[:, :, 1]
    for (lo, sel, cols, at), (w_lo, w_sel, w_cols, w_at), (_, got) in zip(
            pairs.blocks, want, pairs.values(x, z)):
        assert lo == w_lo and sel == w_sel and type(cols) is type(w_cols)
        assert cols == w_cols if isinstance(cols, slice) else (
            cols.dtype == w_cols.dtype and np.array_equal(cols, w_cols))
        assert at.dtype == w_at.dtype and np.array_equal(at, w_at)
        ref = (x[w_lo:w_lo + rows] @ z[w_cols].T).ravel()[w_at]
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# -- the positivity certificate -------------------------------------------------


def _allowance(a, floor):
    """psd_certified's shift above floor, r = 4 gamma_{d+3} (max(tr A - d
    floor) + |floor|) + d^2 2^-1074, computed here on its own."""
    d, u = a.shape[-1], 2.0 ** -53
    gamma = (d + 3) * u / (1 - (d + 3) * u)
    trace = np.trace(a, axis1=-2, axis2=-1).real - d * floor
    return 4 * gamma * (np.max(trace) + abs(floor)) + d * d * 2.0 ** -1074


def _with_least_eigenvalue(rng, d, dtype, lam):
    """A random Hermitian d x d matrix of trace about d whose least
    eigenvalue is lam (up to the rounding of its construction)."""
    x = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if dtype is complex else 0)
    q = np.linalg.qr(x)[0]
    w = np.concatenate([[0.0], rng.uniform(0.5, 1.5, d - 1)])
    a = (q * w) @ q.conj().T
    a = (a + a.conj().T) / 2
    return a + (lam - np.linalg.eigvalsh(a)[0]) * np.eye(d)


@pytest.mark.parametrize("dtype", [float, complex])
def test_psd_certified_pins_its_rounding_allowance(dtype):
    """Two-sided: least eigenvalue floor + 2r is certified, floor - r is
    not, for sizes 1 to 60 and floors below, at and above 0."""
    rng = np.random.default_rng(7)
    for d in (1, 2, 5, 20, 60):
        for floor in (0.0, -1e-8, 0.25):
            a = _with_least_eigenvalue(rng, d, dtype, floor)
            r = _allowance(a, floor)
            above = a + 2 * r * np.eye(d)
            assert linalg.psd_certified(above, floor), (d, floor)
            assert not linalg.psd_certified(a - r * np.eye(d), floor), (d, floor)


def test_psd_certified_refuses_a_stack_with_one_bad_matrix():
    rng = np.random.default_rng(8)
    stack = np.array([_with_least_eigenvalue(rng, 6, complex, 1e-3) for _ in range(9)])
    assert linalg.psd_certified(stack) and linalg.psd_certified(stack[:, None])
    stack[4] = _with_least_eigenvalue(rng, 6, complex, -1e-12)
    assert not linalg.psd_certified(stack)
    assert not linalg.psd_certified(stack.reshape(3, 3, 6, 6))
    assert linalg.psd_certified(stack[:0])  # nothing to refuse


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [(1, 1), (2, 0)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_a_non_finite_cholesky_factor_certifies_nothing(bad, where, dtype):
    """A NaN or an infinity in a Hermitian matrix, alone or in a stack, is
    refused without a RuntimeWarning (an error under this suite's filter):
    LAPACK's potrf may run through a NaN without reporting failure."""
    a = 2 * np.eye(3, dtype=dtype)
    a[where] = a[where[::-1]] = bad
    for m in (a, np.array([np.eye(3), a]), np.array([a, np.eye(3)])[:, None]):
        assert not linalg.psd_certified(m)
        assert not linalg.psd_certified(m, -1e-8)
    assert linalg.psd_certified(np.eye(2, dtype=dtype)[None, None], -1e-8)


# the functions that may call each eigensolver: each uses the eigenvalues or
# eigenvectors, not only their sign; every other positivity claim goes
# through linalg.psd_certified, the one Cholesky
EIGEN_CALLERS = {
    "cholesky": {("linalg", "psd_certified")},
    "eigh": {("linalg", "support_projector"), ("reps", "psd_witness_check"),
             ("reps", "theta_certificate")},
    "eigvalsh": {("game", "_psd_defect")},  # validate_strategy's fallback
}


def test_one_positivity_certificate():
    """An ast scan of the package: np.linalg.cholesky, eigh and eigvalsh are
    named only in the functions listed in EIGEN_CALLERS, so a second
    positivity rule fails this test."""
    found = {name: set() for name in EIGEN_CALLERS}
    for path in sorted(Path(qcolor.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name in found:
                    where = getattr(top, "name", "<module>")
                    found[name].add((path.stem, where))
    assert found == EIGEN_CALLERS


# -- the block budget -----------------------------------------------------------


# the functions with a blocked loop: each steps through its data from 0 in
# blocks of a size bound to a block_rows(...) call in the same function
BLOCKED_LOOPS = {("linalg", "PairBlocks.__init__"), ("reps", "_worst_vertex"),
                 ("reps", "search_orthogonal_representation"),
                 ("graphs", "orthogonality_graph"), ("ks", "brute_force_ks")}


def _functions(tree):
    """(qualified name, node) of each module-level function and method."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        for fn in getattr(top, "body", []) if isinstance(top, ast.ClassDef) else []:
            if isinstance(fn, ast.FunctionDef):
                yield f"{top.name}.{fn.name}", fn


def _sized_names(fn) -> set[str]:
    """The names fn binds to a block_rows(...) call, also in a tuple."""
    names = set()
    for node in ast.walk(fn):
        for target in getattr(node, "targets", []):
            pairs = (zip(target.elts, node.value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                     else [(target, node.value)])
            names |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                      and isinstance(v, ast.Call) and getattr(v.func, "id", None) == "block_rows"}
    return names


def test_one_block_budget():
    """An ast scan of the package: linalg.BLOCK_BYTES is the only
    module-level block-size constant (a name with BLOCK, CHUNK or BYTES in
    it), and every blocked loop, a range or np.arange from 0 in steps of a
    name, takes that step from linalg.block_rows in its own function."""
    constants, loops = set(), set()
    for path in sorted(Path(qcolor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for target in getattr(top, "targets", [getattr(top, "target", None)]):
                if isinstance(target, ast.Name) and any(
                        word in target.id for word in ("BLOCK", "CHUNK", "BYTES")):
                    constants.add((path.stem, target.id))
        for name, fn in _functions(tree):
            sized = _sized_names(fn)
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and len(call.args) == 3
                        and getattr(call.func, "id", getattr(call.func, "attr", None))
                        in ("range", "arange")
                        and isinstance(call.args[0], ast.Constant) and call.args[0].value == 0
                        and isinstance(call.args[2], ast.Name)):
                    loops.add((path.stem, name))
                    assert call.args[2].id in sized, (path.stem, name, call.args[2].id)
    assert constants == {("linalg", "BLOCK_BYTES")}
    assert loops == BLOCKED_LOOPS


def test_block_rows_reads_the_budget_per_call(monkeypatch):
    assert linalg.block_rows(linalg.BLOCK_BYTES // 3) == 3
    assert linalg.block_rows(10 * linalg.BLOCK_BYTES) == 1
    assert linalg.block_rows(0) == linalg.BLOCK_BYTES
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 100)
    assert linalg.block_rows(7) == 14
