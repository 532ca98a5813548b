"""The two-player coloring game: referee asks Alice vertex v and Bob vertex w
(equal or adjacent); they win when equal vertices get equal colors and
adjacent vertices different ones.

The referee asks uniformly over the legal pairs
{(v, v) : v in V} union {(v, w), (w, v) : (v, w) in E}.  That is the game's
only distribution, and it is enough: whether a strategy wins with certainty
does not depend on the distribution, as long as every legal pair has positive
probability.  Classical probabilities are exact fractions.

A projective rank-1 side may be factored, x per element x x†: evaluators then
need no table, as <psi| x x† (x) y y† |psi> = |u . y|^2, u = Psi^dagger x.

normalize_strategy turns a winning strategy into the paper's normal form, one
checked stage at a time.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import CheckResult, Graph
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, LinalgError, PairBlocks, _gamma,
                     _hermitian_defect, maximally_entangled, psd_certified, schmidt,
                     support_projector)
from .reps import (QuantumColoring, _identity_defect, _worst_vertex, edges_orthogonal,
                   measurement_ok)


class GameError(ValueError):
    pass


class NormalFormError(GameError):
    """Raised when a normal-form stage's post-condition fails; .stage names
    the pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# questions and strategies


def _questions(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The legal question pairs (vs[k], ws[k]): the diagonal 0..n-1, then each
    row (u, v) of g.edge_array as (u, v) directly followed by (v, u)."""
    if g.n == 0:
        raise GameError("no legal questions on the empty graph")
    diag = np.arange(g.n)
    return (np.concatenate([diag, g.edge_array.ravel()]),
            np.concatenate([diag, g.edge_array[:, ::-1].ravel()]))


def _check_cover(g: Graph, s) -> None:
    """Rejects s unless it answers on exactly the vertices of g, and the
    empty graph, which has no legal question."""
    if isinstance(s, ClassicalStrategy):
        counts = {len(s.alice), len(s.bob)}
    elif isinstance(s, POVMStrategy):
        counts = {s.n_vertices}
    else:
        raise GameError(f"unsupported strategy type {type(s).__name__}")
    if counts != {g.n}:
        raise GameError("strategy does not cover the vertex set (it covers "
                        f"{'/'.join(map(str, sorted(counts)))} vertices, "
                        f"graph has {g.n})")
    if g.n == 0:
        raise GameError("no legal questions on the empty graph")


def _classical_wins(alice, bob, vs: list[int], ws: list[int]) -> int:
    """Questions won: equal answers on the diagonal, different on edges."""
    return sum((alice[v] == bob[w]) == (v == w) for v, w in zip(vs, ws))


@dataclass(frozen=True)
class ClassicalStrategy:
    colors: int
    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self):
        for side in (self.alice, self.bob):
            if any(not 0 <= a < self.colors for a in side):
                raise GameError("strategy answers outside the color range")


@dataclass(frozen=True, eq=False)
class POVMStrategy:
    """Shared state plus per-vertex POVMs: state is a vector of length dA*dB
    (A-major); alice is an (n, c, dA, dA) table of operators or (n, c, dA)
    unit vectors x, the elements x x†, and bob likewise in dB.  sides holds
    each side as given (factored: both as vectors); alice and bob read as
    tables, a factored side's made once, on first read."""
    colors: int
    dim_a: int
    dim_b: int
    state: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.state, dtype=complex).ravel()
        if st.shape[0] != self.dim_a * self.dim_b:
            raise GameError(f"state has length {st.shape[0]}, expected "
                            f"{self.dim_a}*{self.dim_b}")
        names = ("alice", "bob")  # set below as tables only: else read by __getattr__
        sides = tuple(np.asarray(vars(self).pop(name), dtype=complex) for name in names)
        for name, x, d in zip(names, sides, (self.dim_a, self.dim_b)):
            if x.shape[1:] not in ((self.colors, d), (self.colors, d, d)) or len(x) != len(sides[0]):
                raise GameError(f"{name} must be (n, {self.colors}, {d}, {d}) operators or "
                                f"(n, {self.colors}, {d}) vectors, n alice's, got {x.shape}")
        vars(self).update({name: x for name, x in zip(names, sides) if x.ndim == 4}, state=st,
                          sides=sides, factored=sides[0].ndim == sides[1].ndim == 3)

    def __getattr__(self, name):  # a factored side's table, made on first read
        if name not in ("alice", "bob"):
            raise AttributeError(name)
        # x x†; Bob's as conj(z z†), z = conj(y), which for y = conj(x) is
        # Alice's table conjugated, signed zeros and all, as tables once were
        x = self.sides[0] if name == "alice" else self.sides[1].conj()
        table = np.einsum("vai,vaj->vaij", x, x.conj(), order="C")  # rows view as floats
        vars(self)[name] = table if name == "alice" else np.conjugate(table, out=table)
        return table

    @property
    def n_vertices(self) -> int:
        return len(self.sides[0])

    def state_matrix(self) -> np.ndarray:
        return self.state.reshape(self.dim_a, self.dim_b)


def _psd_defect(b: np.ndarray, tol: float) -> np.ndarray:
    """-eigvalsh of each element of a block, or tol for each vertex when
    linalg.psd_certified proves lambda_min >= e - tol, e = 2 d gamma_{d+3}
    (max tr + d tol) taken as eigvalsh's backward error: eigvalsh then puts
    no element below -tol either, and tol moves no worst vertex."""
    d = b.shape[-1]
    e = 2 * d * _gamma(d + 3) * (np.max(np.einsum("vaii->va", b).real, initial=0.0) + d * tol)
    return np.full(len(b), tol) if psd_certified(b, e - tol) else -np.linalg.eigvalsh(b)


def _conjugate_defect(f: np.ndarray, e: np.ndarray) -> np.ndarray:  # aligned blocks
    return np.abs(f - e.conj())


def validate_strategy(s: POVMStrategy, tol: float = 1e-8) -> None:
    """POVM sanity: a normalized state; per side, elements Hermitian within
    tol with eigvalsh's least eigenvalue >= -tol, each vertex's sum the
    identity within d*tol.  A factored side is Hermitian and PSD as made, so
    its rule is reps.measurement_ok: c = d, each vertex's vectors
    orthonormal within tol.  A failure names the side, check and worst
    vertex.

    Each check runs on blocks of vertices sized from linalg.BLOCK_BYTES.  A
    block's PSD check asks linalg.psd_certified first, at a floor that also
    covers eigvalsh's rounding (_psd_defect), so the accept set is
    eigvalsh's; every block it does not certify goes to eigvalsh."""
    if not 0 < tol < np.inf:
        raise GameError(f"tol must be positive and finite, got {tol}")
    if not abs(np.linalg.norm(s.state) - 1.0) <= tol:  # a NaN norm fails too
        raise GameError(f"state norm {np.linalg.norm(s.state):.6g} != 1")
    for name, ops, d in zip(("alice", "bob"), s.sides, (s.dim_a, s.dim_b)):
        verdict = measurement_ok(ops, 1, tol) if ops.ndim == 3 else (
            _worst_vertex(ops, _hermitian_defect, tol, "element not Hermitian")
            and _worst_vertex(ops, lambda b: _psd_defect(b, tol), tol, "element not PSD")
            and _worst_vertex(ops, _identity_defect, d * tol, "does not sum to identity"))
        if not verdict:
            raise GameError(f"{name} POVM {verdict}")


def strategy_from_quantum_coloring(qc: QuantumColoring) -> POVMStrategy:
    """Normal-form strategy of a quantum coloring: maximally entangled state
    of the coloring's local dimension, Alice the projectors (factored, as the
    coloring's vectors, at rank 1), Bob their entrywise conjugates."""
    d = qc.local_dimension
    return POVMStrategy(colors=qc.colors, dim_a=d, dim_b=d,
                        state=maximally_entangled(d),
                        alice=qc.table, bob=qc.table.conj())


# ---------------------------------------------------------------------------
# exact probabilities


def classical_win_probability(g: Graph, s: ClassicalStrategy) -> Fraction:
    """Exact fraction of the question pairs the deterministic pair answers
    correctly."""
    _check_cover(g, s)
    vs, ws = _questions(g)
    return Fraction(_classical_wins(s.alice, s.bob, vs.tolist(), ws.tolist()),
                    len(vs))


def best_classical_win_probability(g: Graph, colors: int):
    """Exhaustive, exact maximum over all deterministic pairs: (the value as a
    Fraction, the first best pair in lexicographic order).  The question (v, w)
    depends on Bob's answer b at w alone, so against each of Alice's c^n tables
    he takes at each w the smallest b maximizing [b = a_w] - #{v ~ w: a_v = b}."""
    if colors < 1:
        raise GameError(f"color count must be >= 1, got {colors}")
    vs, ws = _questions(g)
    best, best_s = -1, None
    for alice in itertools.product(range(colors), repeat=g.n):
        a = np.array(alice)
        score = (a[:, None] == np.arange(colors)).astype(np.int64)
        np.subtract.at(score, (ws[g.n:], a[vs[g.n:]]), 1)
        wins = int(score.max(axis=1).sum()) + len(vs) - g.n
        if wins > best:
            best, best_s = wins, ClassicalStrategy(colors, alice, tuple(score.argmax(1).tolist()))
            if best == len(vs):
                break
    return Fraction(best, len(vs)), best_s


def _alice_products(alice: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """W = Psi^dagger E Psi for a table of Alice operators (..., dA, dA), each
    flattened to dB*dB: then <psi| E (x) F |psi> = sum(W * F) for any Bob
    operator F (dB, dB), so Bob's table needs no product."""
    w = psi.conj().T @ alice @ psi
    return w.reshape(*w.shape[:-2], psi.shape[1] ** 2)


def _abs2(v: np.ndarray, axis=None) -> np.ndarray:
    """|.|^2 of dots, or of products summed along axis first."""
    v = v if axis is None else v.sum(axis)
    return v.real ** 2 + v.imag ** 2


def _operands(s: POVMStrategy, psi: np.ndarray, a: int):
    """Color a of s as the pair kernel's operands: (x, zs, f) with
    <psi| E_{v,a} (x) F_{w,b} |psi> = f(x[v] . zs[w, b]).  Factored: the
    rows u = Psi^dagger x of Alice's vectors x, zs = Bob's vectors and f =
    _abs2; else x = conj(W), W = _alice_products of E_a, and zs = F, both as
    floats, and f the identity: Re(W . F) is the dot of those float views, a
    sum of them the sum of their products."""
    if s.factored:
        return s.sides[0][:, a] @ psi.conj(), s.sides[1], _abs2
    w = _alice_products(s.alice[:, a], psi)
    bob = np.ascontiguousarray(s.bob).reshape(s.n_vertices, s.colors, -1)
    return (np.conjugate(w, out=w).view(np.float64), bob.view(np.float64),
            lambda v, axis=None: v)


def _outcomes(s: POVMStrategy, v: int, w: int, psi: np.ndarray) -> np.ndarray:
    """Real (c, c) outcome distribution of the question pair (v, w)."""
    if s.factored:
        return _abs2(s.sides[0][v] @ psi.conj() @ s.sides[1][w].T)
    return (_alice_products(s.alice[v], psi) @ s.bob[w].reshape(s.colors, -1).T).real


def quantum_outcome_distribution(s: POVMStrategy, v: int, w: int) -> np.ndarray:
    """P[alpha, beta] = <psi| E_{v,alpha} (x) F_{w,beta} |psi> as a real
    (c, c) array.  Entries of a valid strategy are >= -1e-12 and sum to 1."""
    validate_strategy(s)
    if not (0 <= v < s.n_vertices and 0 <= w < s.n_vertices):
        raise GameError(f"vertex pair ({v},{w}) out of range")
    return _outcomes(s, v, w, s.state_matrix())


def _total_mass(s: POVMStrategy) -> POVMStrategy:
    """The one-color table strategy of sum_a E_a against sum_b F_b."""
    return POVMStrategy(1, s.dim_a, s.dim_b, s.state, *(
        (x.sum(axis=1) if x.ndim == 4 else x.swapaxes(1, 2) @ x.conj())[:, None]
        for x in s.sides))


def quantum_win_probability(g: Graph, s: POVMStrategy) -> float:
    """Exact (up to float arithmetic) winning probability: diagonal questions
    win on equal outcomes, edge questions on differing outcomes.  One color a
    at a time, with (x, z, f) its _operands, the diagonal adds
    sum_v f(x[v] . z[v]); the edges, asked both ways, subtract f of the
    PairBlocks values of x against z and of z against x, and add them for
    the total mass (a = c, the color of _total_mass).  Assumes s passed
    validate_strategy."""
    _check_cover(g, s)
    pairs = PairBlocks(g)
    psi, c, win = s.state_matrix(), s.colors, 0.0
    for a in range(c + 1):
        b = a if a < c else 0
        x, zs, f = _operands(s if a < c else _total_mass(s), psi, b)
        z = zs[:, b]
        edges = sum(np.sum(f(v)) for p, q in ((x, z), (z, x)) for _, v in pairs.values(p, q))
        win += edges if a == c else np.sum(f(x * z, 1)) - edges
    return float(win / (g.n + 2 * g.m))


@dataclass(frozen=True)
class Violation:
    kind: str  # "vertex" (equal answers required) | "edge" (differing answers)
    v: int
    w: int
    alpha: int
    beta: int
    value: float


@dataclass(frozen=True)
class ConsistencyReport(CheckResult):
    ok: bool
    violations: tuple[Violation, ...]
    truncated: bool  # the list stopped at MAX_VIOLATIONS; more may exist

    @property
    def count_text(self) -> str:
        """The violation count, as "at least N" when the list was cut."""
        return f"{'at least ' if self.truncated else ''}{len(self.violations)}"


# violations check_consistency lists at most (read per call)
MAX_VIOLATIONS = 1000


def check_consistency(s: POVMStrategy, g: Graph,
                      tol: float = DEFAULT_TOL) -> ConsistencyReport:
    """Winning-strategy conditions: on every vertex the off-diagonal outcome
    mass vanishes; across every edge the equal-color mass vanishes.  Lists
    each (v, alpha, beta) and (v, w, alpha) whose probability exceeds tol, up
    to MAX_VIOLATIONS: vertices first, then edges as (u, v), then as (v, u).
    One color a at a time, with (x, zs, f) its _operands: x against Bob's
    whole table zs for the vertices, and through PairBlocks against
    z = zs[:, a] for the edges, x against z for (u, v) and z against x for
    (v, u), each value mapped by f; the hits merge into the smallest keys so
    far.  Assumes s passed validate_strategy."""
    _check_cover(g, s)
    if not 0 < tol < np.inf:
        raise GameError(f"tol must be positive and finite, got {tol}")
    psi, c, n, e = s.state_matrix(), s.colors, s.n_vertices, g.edge_array
    pairs, cut = PairBlocks(g), n * c * c
    keys, vals = np.empty(0, dtype=np.int64), np.empty(0)

    def merge(v, key_of):  # the hits of v, by key
        nonlocal keys, vals
        hit = np.flatnonzero(np.abs(v) > tol)
        if hit.size:
            keys, vals = np.concatenate([keys, key_of(hit)]), np.concatenate([vals, v[hit]])
            keep = np.argsort(keys)[:MAX_VIOLATIONS]
            keys, vals = keys[keep], vals[keep]

    for a in range(c):
        x, zs, f = _operands(s, psi, a)
        p = f((x[:, None] @ zs.swapaxes(1, 2))[:, 0])  # p[v, b]: E_{v,a} against F_{v,b}
        p[:, a] = 0.0
        merge(p.ravel(), lambda h: (h // c * c + a) * c + h % c)  # key (v, a, b)
        # key (pair id, a): (v, u) is pair m + e
        for first, (l, r) in ((0, (x, zs[:, a])), (len(e), (zs[:, a], x))):
            for sel, v in pairs.values(l, r):
                merge(f(v), lambda h: cut + (first + sel.start + h) * c + a)
    out = []
    for key, value in zip(keys.tolist(), vals.tolist()):
        if key < cut:
            v, (a, b) = key // (c * c), divmod(key % (c * c), c)
            out.append(Violation("vertex", v, v, a, b, value))
        else:
            (side, i), a = divmod((key - cut) // c, len(e)), (key - cut) % c
            u, w = map(int, e[i, ::-1] if side else e[i])
            out.append(Violation("edge", u, w, a, a, value))
    return ConsistencyReport(ok=not out, violations=tuple(out),
                             truncated=len(out) == MAX_VIOLATIONS)


# ---------------------------------------------------------------------------
# normal form


# post-condition tolerance of the normal form's stage checks
CHECK_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class NormalizationTrace:
    schmidt_coefficients: tuple[float, ...]  # of the input state, descending
    stages: tuple[tuple[str, POVMStrategy], ...]


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    normal: POVMStrategy
    trace: NormalizationTrace


def _record_stage(stages: list, stage: str, s: POVMStrategy, g: Graph) -> None:
    """Append (stage, s) once s still passes the consistency check."""
    report = check_consistency(s, g, CHECK_TOL)
    if not report.ok:
        worst = max(abs(v.value) for v in report.violations)
        raise NormalFormError(stage, f"consistency violated after this stage "
                              f"(worst {worst:.3g}, {report.count_text} "
                              "entries)")
    stages.append((stage, s))


def normalize_strategy(s: POVMStrategy, g: Graph, tol: float = DEFAULT_TOL,
                       rank_tol: float = DEFAULT_RANK_TOL) -> NormalFormResult:
    """Transform a winning strategy into normal form.

    Stages, each with post-condition checks that abort with the stage name:
    1. schmidt restriction: rotate both sides to the Schmidt basis, drop zero
       Schmidt coefficients, compress the POVMs to the support.
    2. support replacement: E <- supp(sqrt(rho) conj(F) sqrt(rho)) and
       symmetrically for Bob; makes every element a projector.
    3. conjugation identity: verify E = conj(F) elementwise, then enforce it.
    4. schmidt flattening: replace the state by the maximally entangled one.
    5. rank padding: tensor a maximally entangled c-register and cyclically
       combine colors, making all projectors rank r on local dimension r*c
       (unless every projector already has rank d/c: then it keeps its input).

    The output satisfies: projective rank-r measurements, maximally entangled
    state of local dimension r*c, Bob = conj(Alice), and zero Hilbert-Schmidt
    inner products per color across edges -- all within tol -- and still wins
    with probability 1.  Inputs that are not winning strategies are rejected
    up front with their violation list.
    """
    _check_cover(g, s)
    validate_strategy(s, CHECK_TOL)
    pre = check_consistency(s, g, CHECK_TOL)
    if not pre.ok:
        raise NormalFormError("precondition", "input is not a winning strategy "
                              f"({pre.count_text} consistency violations)")
    stages: list[tuple[str, POVMStrategy]] = [("input", s)]

    # stage 1: schmidt restriction ------------------------------------------
    stage = "schmidt restriction"
    try:
        sd = schmidt(s.state, s.dim_a, s.dim_b, rank_tol)
    except LinalgError as err:
        raise NormalFormError(stage, str(err)) from err
    coeffs = sd.coefficients
    d = sd.rank
    if d == 0:
        raise NormalFormError(stage, "state has no Schmidt support")
    lam = coeffs[:d] / np.linalg.norm(coeffs[:d])
    # rotate: A-side by U^dagger, B-side by conj(V)^T with V = sd.right; the
    # state matrix becomes diag(lambda) on the kept d-dimensional corner
    u, w = sd.left, sd.right
    alice2 = (u.conj().T @ s.alice @ u)[:, :, :d, :d]
    bob2 = (w.conj().T @ s.bob @ w)[:, :, :d, :d]
    # diag(lambda) is both the new state matrix and sqrt(rho) of either side
    sqrt_rho = np.diag(lam.astype(complex))
    s2 = POVMStrategy(s.colors, d, d, sqrt_rho.ravel(), alice2, bob2)
    validate_strategy(s2, CHECK_TOL)
    _record_stage(stages, stage, s2, g)

    # stage 2: support replacement ------------------------------------------
    stage = "support replacement"
    c = s2.colors
    try:
        alice1 = support_projector(sqrt_rho @ s2.bob.conj() @ sqrt_rho,
                                   rank_tol, tol=1e-8)
        bob1 = support_projector(sqrt_rho @ s2.alice.conj() @ sqrt_rho,
                                 rank_tol, tol=1e-8)
    except LinalgError as err:
        raise NormalFormError(stage, f"support input: {err}") from err
    one, other = np.nonzero(~np.eye(c, dtype=bool))  # the color pairs a != b
    for name, ops in (("alice", alice1), ("bob", bob1)):
        verdict = (_worst_vertex(ops, lambda p: np.abs(p[:, one] @ p[:, other]), CHECK_TOL,
                                 "supports are not mutually orthogonal")
                   and _worst_vertex(ops, _identity_defect, CHECK_TOL,
                                     "supports do not resolve the identity"))
        if not verdict:
            raise NormalFormError(stage, f"{name} {verdict}")
    s1 = POVMStrategy(c, d, d, s2.state, alice1, bob1)
    _record_stage(stages, stage, s1, g)

    # stage 3: conjugation identity -----------------------------------------
    stage = "conjugation identity"
    verdict = _worst_vertex(s1.bob, _conjugate_defect, CHECK_TOL, "E != conj(F)", s1.alice)
    if not verdict:
        raise NormalFormError(stage, "E != conj(F) after support replacement "
                              f"(defect {verdict.residual:.3g})")
    s1c = POVMStrategy(c, d, d, s1.state, s1.alice, s1.alice.conj())
    _record_stage(stages, stage, s1c, g)

    # stage 4: schmidt flattening -------------------------------------------
    stage = "schmidt flattening"
    s_flat = POVMStrategy(c, d, d, maximally_entangled(d), s1c.alice, s1c.bob)
    _record_stage(stages, stage, s_flat, g)

    # stage 5: rank padding --------------------------------------------------
    stage = "rank padding"
    final = s_flat
    if np.any(np.rint(np.einsum("vaii->va", s_flat.alice).real) * c != d):
        dd = d * c
        alice_pad = np.zeros((s.n_vertices, c, dd, dd), dtype=complex)
        # the padded index is p*c + i (A1-major, as the paper's E' (x) |i><i|,
        # so the maximally entangled state on C^{dc} matches kron semantics),
        # and register i carries color (a + i) mod c
        for i in range(c):
            alice_pad[:, :, i::c, i::c] = s_flat.alice[:, np.roll(np.arange(c), -i)]
        final = POVMStrategy(c, dd, dd, maximally_entangled(dd), alice_pad,
                             alice_pad.conj())
    validate_strategy(final, CHECK_TOL)
    _record_stage(stages, stage, final, g)
    flags = normal_form_properties(final, g, tol)
    failed = [k for k, ok in flags.items() if not ok]
    if failed:
        raise NormalFormError(stage, f"final properties failed: {failed}")

    trace = NormalizationTrace(
        schmidt_coefficients=tuple(float(x) for x in coeffs),
        stages=tuple(stages))
    return NormalFormResult(normal=final, trace=trace)


def normal_form_properties(s: POVMStrategy, g: Graph,
                           tol: float = DEFAULT_TOL) -> dict[str, bool]:
    """The four normal-form properties as booleans: projective equal-rank
    measurements (reps.measurement_ok on Alice's table: rank-r projectors
    that sum to the identity), maximally entangled state of local dimension
    rank*colors, Bob = conj(Alice), per-color edge orthogonality in the
    Hilbert-Schmidt inner product."""
    c, d = s.colors, s.dim_a
    ops = s.alice
    if not s.n_vertices:
        raise GameError("normal-form properties of an empty strategy "
                        "(0 vertices) are undefined")
    finite = bool(np.isfinite(ops).all())  # a NaN or an infinity: no property holds
    rank = round(float(np.mean(np.einsum("vaii->va", ops).real))) if finite else 0
    mes = maximally_entangled(d)
    state_ok = (s.dim_a == s.dim_b
                and float(np.max(np.abs(s.state - mes))) <= tol
                and d == rank * c)
    conj_ok = (finite and s.dim_a == s.dim_b
               and bool(_worst_vertex(s.bob, _conjugate_defect, tol, "F != conj(E)", ops)))
    return {"projective_equal_rank": rank >= 1 and bool(measurement_ok(ops, rank, tol)),
            "maximally_entangled_rc": state_ok,
            "bob_is_conjugate": conj_ok,
            "edge_hs_orthogonality": finite and bool(edges_orthogonal(
                g, ops.reshape(ops.shape[0], c, -1), c * tol))}


# ---------------------------------------------------------------------------
# simulation


def simulate_game(g: Graph, strategy, rounds: int = 10_000,
                  seed: int = 0) -> float:
    """Monte-Carlo win rate under the uniform questions; reproducible for a
    fixed seed.  Accepts a ClassicalStrategy or a POVMStrategy."""
    if rounds < 1 or seed < 0:
        raise GameError(f"rounds must be >= 1 and seed >= 0, got {rounds}, {seed}")
    _check_cover(g, strategy)
    vs, ws = _questions(g)
    rng = np.random.default_rng(seed)
    weights = np.full(len(vs), 1 / len(vs))
    picks = rng.choice(len(vs), size=rounds, p=weights / weights.sum())
    vs, ws = vs[picks].tolist(), ws[picks].tolist()
    if isinstance(strategy, ClassicalStrategy):
        return float(_classical_wins(strategy.alice, strategy.bob, vs, ws)
                     / rounds)
    validate_strategy(strategy)
    psi, c = strategy.state_matrix(), strategy.colors
    cache: dict[tuple[int, int], np.ndarray] = {}
    wins = 0
    for v, w in zip(vs, ws):
        if (v, w) not in cache:
            p = np.clip(_outcomes(strategy, v, w, psi), 0.0, None).ravel()
            cache[(v, w)] = p / p.sum()
        outcome = int(rng.choice(c * c, p=cache[(v, w)]))
        a, b = divmod(outcome, c)
        wins += (a == b) if v == w else (a != b)
    return float(wins / rounds)
