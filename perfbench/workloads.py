"""The three workloads: inputs made from the seed, and the tasks of one pass.

``build`` is the set-up: it turns a seed into raw inputs (edge arrays, ray
coordinates, files for the CLI) and returns the task list.  A pass runs the
tasks in order on one thread; each starts when the previous one ends.
Tasks build their own qcolor objects from the raw inputs, so every pass
does the same work and no pass profits from a cache an earlier one filled.
Tasks of one pass share a ``state`` dict, so a later step can use what an
earlier one produced (a certificate file, a strategy).

Every answer is checked with qcolor's own independent verifiers or with
facts known apart from the solver that produced it.  A failed check raises
``WrongAnswer``; a search that runs out of budget where an answer is
expected raises ``BudgetExhausted``.
"""
from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass
from io import StringIO
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

from qcolor import cli, coloring, datasets, game, graphs, io, ks, reps
from qcolor.linalg import DEFAULT_TOL

NAMES = ("search", "game", "reps")


class WrongAnswer(Exception):
    """An answer that failed its independent check."""


class BudgetExhausted(Exception):
    """A search ran out of budget where the task expects an answer."""


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable  # run(tracer, state)


def expect(ok, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def build(name: str, seed: int, workdir: Path, small: bool = False) -> list[Task]:
    """The task list of one workload; ``small`` is the reduced size the
    smoke tests use."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return {"search": _search, "game": _game, "reps": _reps}[name](
        rng, Path(workdir), small)


# ---------------------------------------------------------------------------
# shared helpers


def _exact(res, what: str) -> None:
    if res.status == coloring.BUDGET_EXCEEDED:
        raise BudgetExhausted(what)


def _verified(t, verifier, *args, **kwargs) -> bool:
    # a verifier that rejects malformed certificates by raising counts as a
    # rejection, not as a crash of the task
    try:
        return bool(t.call(verifier, *args, **kwargs))
    except (coloring.ColoringError, ks.KSError, reps.RepsError):
        return False


def check_coloring(t, g, cert, c: int) -> None:
    expect(cert is not None and cert.c == c
           and _verified(t, coloring.verify_coloring, g, cert),
           f"{c}-coloring certificate")


def check_orthrep(t, g, rep, dim: int, tol: float = DEFAULT_TOL) -> None:
    expect(rep is not None and rep.dimension == dim
           and _verified(t, reps.verify_orthogonal_representation, g, rep, tol),
           f"orthogonal representation in dimension {dim}")


def _is_clique(g, vertices) -> bool:
    edges = set(map(tuple, g.edge_array.tolist()))
    return all((u, v) in edges for u, v in itertools.combinations(sorted(vertices), 2))


def _gnp(rng, n: int, p: float) -> np.ndarray:
    iu = np.triu_indices(n, 1)
    keep = rng.random(iu[0].size) < p
    return np.stack([iu[0][keep], iu[1][keep]], axis=1)


def _cycle(n: int) -> np.ndarray:
    return np.array([(i, (i + 1) % n) for i in range(n)])


PETERSEN = np.array([(i, (i + 1) % 5) for i in range(5)]
                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                    + [(i, i + 5) for i in range(5)])


def _write_graph(workdir: Path, name: str, g) -> str:
    path = workdir / f"{name}.col"
    path.write_text(io.write_dimacs(g))
    return str(path)


def run_cli(t, argv: list[str]) -> tuple[int, dict]:
    """cli.main in-process; returns the exit code and the JSON report."""
    out = StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(StringIO()):
        try:
            code = t.call(cli.main, argv)
        except SystemExit as err:  # argparse rejected the command line
            raise RuntimeError(f"qcolor {' '.join(argv)}: usage error {err.code}")
    return code, json.loads(out.getvalue())


def _random_bases(rng, d: int, count: int) -> np.ndarray:
    """Rows of ``count`` Haar-random unitaries of C^d."""
    z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    q, _ = np.linalg.qr(z)
    return q.transpose(0, 2, 1).reshape(count * d, d)


# ---------------------------------------------------------------------------
# search: exact combinatorial search (coloring, clique, KS)


# G(n, p) sizes.  The cost of an exact search is heavy-tailed across random
# graphs (measured on 2 cores: G(60, 0.5) took 2.9 s to 43 s on three
# seeds, and even G(45, 0.4) ranges over 30x), so the workload runs many
# small graphs, whose total cost is steady from seed to seed, where a few
# large graphs would let the seed, not the code, decide the figures.
GNP_COUNT = 150
GNP_N = (40, 42)
GNP_P = (0.3, 0.35)

# node budget for chi of the {0,+-1}^5 and {0,+-1}^6 orthogonality graphs,
# whose chromatic numbers are out of reach: a fixed amount of DSATUR work
# that is expected to end in budget exhaustion
RAY_CHI_BUDGET = 20_000

# {0,+-1}^d: (3^d - 1)/2 rays; KS for every d >= 4 (it holds the padded
# 18-ray set of Cabello et al.).  Pair and basis counts as qcolor 0.1.0
# enumerates them; 364 rays and 1408 bases for d = 6.
INTEGER_FACTS = {
    4: {"size": 40, "orthogonal_pairs": 220, "bases": 32},
    5: {"size": 121, "orthogonal_pairs": 1880, "bases": 136},
    6: {"size": 364, "orthogonal_pairs": 15806, "bases": 1408},
}
# {0,+-1,+-2}^3: 49 rays; not KS but weak KS
SMALL_INTEGER_FACTS = {"size": 49, "orthogonal_pairs": 138, "bases": 26,
                       "is_ks": False, "is_weak_ks": True,
                       "chromatic_number": 4}


def coloring_task(name: str, n: int, edges) -> Task:
    """chi with its certificate, omega, and c-colorability at chi (yes, with
    a certificate) and chi - 1 (an exhaustive no)."""
    def run(t, state):
        g = t.call(graphs.make_graph, n, edges)
        chi = t.call(coloring.chromatic_number, g)
        _exact(chi, "chromatic_number")
        check_coloring(t, g, chi.certificate, chi.chi)
        om = t.call(coloring.clique_number, g)
        _exact(om, "clique_number")
        expect(len(om.clique) == om.omega <= chi.chi and _is_clique(g, om.clique),
               "maximum clique")
        yes = t.call(coloring.is_c_colorable, g, chi.chi)
        _exact(yes, "is_c_colorable at chi")
        expect(yes.status == coloring.YES, "colorable at chi")
        check_coloring(t, g, yes.certificate, chi.chi)
        if chi.chi > 1:
            no = t.call(coloring.is_c_colorable, g, chi.chi - 1)
            _exact(no, "is_c_colorable at chi - 1")
            expect(no.status == coloring.NO, "not colorable at chi - 1")
    return Task(name, run)


def _ray_task(name: str, load, facts: dict, oracle: bool = False,
              chi_budget: int | None = None) -> Task:
    """canonicalize -> orthogonality_graph -> enumerate_bases -> ks_check,
    then chi of the orthogonality graph.  ``load(t)`` gives (vectors,
    labels, tol).  With ``chi_budget`` set, chi may end in budget exhaustion;
    its bounds and upper certificate are checked instead."""
    def run(t, state):
        raw, labels, tol = load(t)
        s = t.call(ks.canonicalize, raw, tol=tol, labels=labels)
        g = t.call(graphs.orthogonality_graph, s, tol=tol)
        bases = t.call(ks.enumerate_bases, s, tol)
        dec = t.call(ks.ks_check, s, tol)
        for key, got in (("size", s.size), ("orthogonal_pairs", g.m),
                         ("bases", len(bases)), ("is_ks", dec.is_ks),
                         ("is_weak_ks", dec.is_weak_ks)):
            if key in facts:
                expect(got == facts[key], f"{key}: {got} != {facts[key]}")
        if bases:
            v = s.vectors[np.array(bases)]
            gram = v.conj() @ v.transpose(0, 2, 1)
            expect(np.max(np.abs(gram - np.eye(s.dimension))) <= tol,
                   "enumerated bases are orthonormal")
        if dec.witness is None:
            expect(dec.is_ks and dec.is_weak_ks, "KS verdict without witness")
        else:
            expect(_verified(t, ks.verify_ks_witness, s, dec.witness,
                             weak=not dec.is_weak_ks, tol=tol), "KS witness")
        if oracle:
            bf = t.call(ks.brute_force_ks, s, tol=tol)
            expect((bf.is_ks, bf.is_weak_ks) == (dec.is_ks, dec.is_weak_ks),
                   "brute-force oracle agrees")
        chi = t.call(coloring.chromatic_number, g,
                     chi_budget or coloring.DEFAULT_BUDGET)
        if chi.status != coloring.BUDGET_EXCEEDED:
            check_coloring(t, g, chi.certificate, chi.chi)
            if "chromatic_number" in facts:
                expect(chi.chi == facts["chromatic_number"], "chromatic number")
        elif chi_budget is None:
            raise BudgetExhausted("chromatic_number")
        else:
            expect(chi.lower <= chi.upper, "chi bounds")
            check_coloring(t, g, chi.certificate, chi.upper)
    return Task(name, run)


def _bundled_loader(name: str):
    def load(t):
        vs, tol = t.call(datasets.load_vector_set, name)
        return vs.vectors, list(vs.labels), tol or DEFAULT_TOL
    return load


def _fixed_loader(raw: np.ndarray):
    return lambda t: (raw, None, DEFAULT_TOL)


def _search(rng, workdir, small):
    tasks = []
    count = GNP_COUNT // 5 if small else GNP_COUNT
    for i in range(count):
        n = int(rng.integers(GNP_N[0], GNP_N[1] + 1))
        p = float(rng.uniform(*GNP_P))
        tasks.append(coloring_task(f"gnp{i}-n{n}", n, _gnp(rng, n, p)))

    facts = json.loads((datasets.data_dir() / "validation.json").read_text())["sets"]
    for name in datasets.BUNDLED:
        tasks.append(_ray_task(name, _bundled_loader(name), facts[name],
                               oracle=facts[name]["size"] <= ks.BRUTE_FORCE_LIMIT))
    for d in (4, 5) if small else (4, 5, 6):
        raw = np.array([v for v in itertools.product((0, 1, -1), repeat=d)
                        if any(v)], dtype=float)
        tasks.append(_ray_task(f"int{d}", _fixed_loader(raw),
                               {**INTEGER_FACTS[d], "is_ks": True, "is_weak_ks": True},
                               chi_budget=RAY_CHI_BUDGET if d > 4 else None))
    raw = np.array([v for v in itertools.product((0, 1, -1, 2, -2), repeat=3)
                    if any(v)], dtype=float)
    tasks.append(_ray_task("int3x2", _fixed_loader(raw), SMALL_INTEGER_FACTS))
    # unions of random bases: generically no cross-orthogonality, so the set
    # is neither KS nor weak KS, has one basis per union member, chi = d
    unions = [(3, 6), (4, 5)] + ([] if small else [(3, 60), (4, 60)])
    for d, k in unions:
        raw = _random_bases(rng, d, k)
        tasks.append(_ray_task(
            f"union{d}x{k}", _fixed_loader(raw),
            {"size": d * k, "orthogonal_pairs": k * comb(d, 2), "bases": k,
             "is_ks": False, "is_weak_ks": False, "chromatic_number": d},
            oracle=d * k <= ks.BRUTE_FORCE_LIMIT))

    # the exact searches recurse once per vertex: this graph hits Python's
    # recursion limit (a known defect), which must show up as a failure
    path = [(i, i + 1) for i in range(2999)] + [(3000, 3001), (3000, 3002),
                                                 (3001, 3002)]
    tasks.append(coloring_task("path3000+triangle", 3003, np.array(path)))

    # CLI: chi -o, then verify-rep on the written certificate
    n = int(rng.integers(GNP_N[0], GNP_N[1] + 1))
    gpath = _write_graph(workdir, "cli-gnp", graphs.make_graph(n, _gnp(rng, n, 0.4)))
    cpath = str(workdir / "cli-coloring.json")

    def chi_then_verify(t, state):
        code, rep = run_cli(t, ["chi", gpath, "-o", cpath])
        expect(code == 0 and rep["status"] == "exact"
               and rep["chi"] == rep["lower"] == rep["upper"], "qcolor chi")
        code, ver = run_cli(t, ["verify-rep", gpath, cpath])
        expect(code == 0 and ver["kind"] == "coloring" and ver["valid"] is True,
               "qcolor verify-rep")
        kind, payload, _ = t.call(io.read_certificate, cpath)
        expect(kind == "coloring" and payload["colors"] == rep["chi"],
               "certificate file")
    tasks.append(Task("cli-chi+verify-rep", chi_then_verify))

    # CLI: ks-check --weak --oracle on a seeded union file and two bundled sets
    d, k = 3, 7
    union = ks.VectorSet(d, _random_bases(rng, d, k), tuple(f"r{i}" for i in range(d * k)))
    upath = str(workdir / "cli-union.json")
    io.write_vector_set(union, upath, tolerance=DEFAULT_TOL)
    for target, rays, weak in ((upath, d * k, False),
                               ("yu-oh-13", 13, facts["yu-oh-13"]["is_weak_ks"]),
                               ("cabello-18", 18, facts["cabello-18"]["is_weak_ks"])):
        def ks_cli(t, state, target=target, rays=rays, weak=weak):
            code, rep = run_cli(t, ["ks-check", target, "--weak", "--oracle"])
            expect(code == (0 if weak else 1) and rep["method"] == "brute_force"
                   and rep["rays"] == rays and rep["is_weak_ks"] == weak,
                   "qcolor ks-check --weak --oracle")
        tasks.append(Task(f"cli-ks-check:{Path(target).stem}", ks_cli))
    return tasks


# ---------------------------------------------------------------------------
# game: dense numerics on the Hadamard strategies


# normal_form_properties gathers every edge's operators at once: on Omega_10
# that alone peaks at 4.1 GB, so the property check stops at Omega_8
NF_PROPS_MAX_BITS = 8
SIM_ROUNDS = 40


def _hadamard_tasks(bits: int) -> list[Task]:
    key = f"omega{bits}"

    def graph(t, state):
        g = t.call(graphs.hadamard_graph, bits)
        expect(g.n == 1 << bits and g.m == (1 << bits) * comb(bits, bits // 2) // 2,
               "Hadamard graph size")
        state[key] = g

    def coloring_(t, state):
        state[key + "qc"] = t.call(reps.hadamard_quantum_coloring, bits)

    def verify(t, state):
        expect(_verified(t, reps.verify_quantum_coloring, state[key],
                         state[key + "qc"]), "quantum coloring")

    def strategy(t, state):
        s = t.call(game.strategy_from_quantum_coloring, state[key + "qc"])
        t.call(game.validate_strategy, s)
        state[key + "s"] = s

    def win(t, state):
        w = t.call(game.quantum_win_probability, state[key], state[key + "s"])
        expect(abs(w - 1.0) <= 1e-9, f"win probability {w!r}")

    def consistency(t, state):
        rep = t.call(game.check_consistency, state[key + "s"], state[key])
        expect(rep.ok, f"{len(rep.violations)} consistency violations")

    def nf_props(t, state):
        flags = t.call(game.normal_form_properties, state[key + "s"], state[key])
        expect(all(flags.values()), f"normal-form properties {flags}")

    steps = [("graph", graph), ("coloring", coloring_), ("verify", verify),
             ("strategy", strategy), ("win", win), ("consistency", consistency)]
    if bits <= NF_PROPS_MAX_BITS:
        steps.append(("nf-props", nf_props))
    return [Task(f"{key}-{step}", fn) for step, fn in steps]


def _strategies_equal(a, b) -> bool:
    return ((a.colors, a.dim_a, a.dim_b) == (b.colors, b.dim_a, b.dim_b)
            and all(np.array_equal(x, y) for x, y in
                    ((a.state, b.state), (a.alice, b.alice), (a.bob, b.bob))))


def _game(rng, workdir, small):
    tasks = []
    for bits in (4, 6, 8) if small else (4, 6, 8, 10):
        tasks.extend(_hadamard_tasks(bits))
    sim_seed = int(rng.integers(2**31))
    rounds = SIM_ROUNDS // 4 if small else SIM_ROUNDS

    def simulate(t, state):
        rate = t.call(game.simulate_game, state["omega8"], state["omega8s"],
                      rounds=rounds, seed=sim_seed)
        expect(rate == 1.0, f"simulated win rate {rate!r}")
    tasks.append(Task("omega8-simulate", simulate))

    spath = str(workdir / "omega8-strategy.json")

    def write(t, state):
        t.call(io.write_strategy, state["omega8s"], spath)

    def read(t, state):
        back = t.call(io.read_strategy, spath)
        expect(_strategies_equal(back, state["omega8s"]), "bit-exact round trip")
    tasks += [Task("omega8-write", write), Task("omega8-read", read)]

    gpath = _write_graph(workdir, "omega8", graphs.hadamard_graph(8))
    qpath = str(workdir / "omega8-qcoloring.json")

    def hadamard_cli(t, state):
        code, rep = run_cli(t, ["hadamard-coloring", "-N", "8", "-o", qpath])
        expect(code == 0 and rep["verified"] is True, "qcolor hadamard-coloring")
        code, rep = run_cli(t, ["verify-qcoloring", gpath, qpath])
        expect(code == 0 and rep["valid"] is True, "qcolor verify-qcoloring")

    def check_cli(t, state):
        code, rep = run_cli(t, ["game", "check", gpath, spath])
        expect(code == 0 and rep["ok"] is True, "qcolor game check")
    tasks += [Task("cli-hadamard+verify-qcoloring", hadamard_cli),
              Task("cli-game-check", check_cli)]
    return tasks


# ---------------------------------------------------------------------------
# reps: many small representation searches and normal forms


# G(n <= 20, p) graphs drawn once, from this fixed stream.  Whether a graph
# has chi > omega decides whether xi_bounds and chi_q1 run searches (about
# 1 s each) or none, so graphs drawn per seed let the seed, not the code,
# set solve_s (IQR/median 0.33 over ten seeds).  The workload seed relabels
# every graph and seeds the randomized search instead.
REPS_GNP_STREAM = 0
REPS_GNP_COUNT = 6
REPS_GNP_N = (10, 20)
REPS_GNP_P = (0.2, 0.5)
# graphs whose orthogonal rank is known, so a search in C^(xi-1) must fail:
# odd cycles and the Petersen graph have xi = 3, and so has the Yu-Oh graph
# (its own rays lie in R^3, and it holds a triangle)
KNOWN_XI = {"C5": 3, "C7": 3, "C9": 3, "petersen": 3, "yu-oh": 3}


def _rep_tasks(name: str, n: int, edges, params: reps.SearchParams) -> list[Task]:
    def xi(t, state):
        g = t.call(graphs.make_graph, n, edges)
        xb = t.call(reps.xi_bounds, g, params)
        expect(xb.lower <= xb.upper and len(xb.lower_clique) == xb.lower
               and _is_clique(g, xb.lower_clique), "xi lower bound")
        check_orthrep(t, g, xb.upper_witness, xb.upper)
        if name in KNOWN_XI:
            expect(xb.lower <= KNOWN_XI[name] <= xb.upper, "xi sandwich")
        chi = t.call(coloring.chromatic_number, g)
        _exact(chi, "chromatic_number")
        check_coloring(t, g, chi.certificate, chi.chi)
        state[name] = (g, xb, chi.chi)

    def chiq1(t, state):
        g, xb, chi = state[name]
        res = t.call(reps.chi_q1_upper_via_product, g, chi, params)
        expect(res.c is not None and xb.lower <= res.c <= chi,
               "xi.lower <= chi_q1 <= chi")
        expect(res.witness.dimension == res.c and _verified(
            t, reps.verify_matrix_representation, g, res.witness), "matrix representation")
        state[name + "m"] = res.witness

    def round_trip(t, state):
        g, _, _ = state[name]
        m = state[name + "m"]
        o = t.call(reps.matrixrep_to_orthrep, g, m)
        k = t.call(graphs.complete_graph, m.dimension)
        product = t.call(graphs.cartesian_product, g, k)
        check_orthrep(t, product, o, m.dimension)
        back = t.call(reps.orthrep_to_matrixrep, g, o)
        expect(_verified(t, reps.verify_matrix_representation, g, back)
               and np.allclose(back.matrices, m.matrices, rtol=0, atol=1e-12),
               "orthrep <-> matrixrep round trip")

    def search(t, state):
        g, xb, _ = state[name]
        xi = KNOWN_XI[name]
        res = t.call(reps.search_orthogonal_representation, g, xi - 1, params)
        expect(not res.found, f"witness in C^{xi - 1}, below xi")
        res = t.call(reps.search_orthogonal_representation, g, xi, params)
        if res.found:  # a miss is allowed: the search is not a decision
            check_orthrep(t, g, res.representation, xi, params.tol)

    steps = [("xi", xi), ("chiq1", chiq1), ("round-trip", round_trip)]
    if name in KNOWN_XI:
        steps.append(("search", search))
    return [Task(f"{name}-{step}", fn) for step, fn in steps]


def _normalize_task(name: str, make) -> Task:
    """normalize_strategy on a winning strategy; the normal form must have
    all four properties and still win with probability 1."""
    def run(t, state):
        g, s = make(t)
        nf = t.call(game.normalize_strategy, s, g).normal
        flags = t.call(game.normal_form_properties, nf, g)
        expect(all(flags.values()), f"normal-form properties {flags}")
        w = t.call(game.quantum_win_probability, g, nf)
        expect(abs(w - 1.0) <= 1e-9, f"normal form wins with {w!r}")
    return Task(name, run)


def _hadamard_strategy(bits: int):
    def make(t):
        g = t.call(graphs.hadamard_graph, bits)
        qc = t.call(reps.hadamard_quantum_coloring, bits)
        return g, t.call(game.strategy_from_quantum_coloring, qc)
    return make


def _classical_strategy(n: int, edges):
    def make(t):
        g = t.call(graphs.make_graph, n, edges)
        chi = t.call(coloring.chromatic_number, g)
        _exact(chi, "chromatic_number")
        qc = t.call(reps.quantum_coloring_from_classical, g, chi.certificate)
        return g, t.call(game.strategy_from_quantum_coloring, qc)
    return make


def _reps(rng, workdir, small):
    params = reps.SearchParams(seed=int(rng.integers(2**31)))
    vs, tol = datasets.load_vector_set("yu-oh-13")
    yu_oh = graphs.orthogonality_graph(ks.canonicalize(vs.vectors, tol=tol),
                                       tol=tol)
    named = [("C5", 5, _cycle(5)), ("C7", 7, _cycle(7)), ("C9", 9, _cycle(9)),
             ("petersen", 10, PETERSEN), ("yu-oh", yu_oh.n, yu_oh.edge_array)]
    fixed = np.random.default_rng(REPS_GNP_STREAM)
    for i in range(REPS_GNP_COUNT // 3 if small else REPS_GNP_COUNT):
        n = int(fixed.integers(REPS_GNP_N[0], REPS_GNP_N[1] + 1))
        named.append((f"gnp{i}-n{n}", n,
                      _gnp(fixed, n, float(fixed.uniform(*REPS_GNP_P)))))
    named = [(name, n, rng.permutation(n)[edges]) for name, n, edges in named]
    tasks = []
    for name, n, edges in named:
        tasks.extend(_rep_tasks(name, n, edges, params))

    tasks.append(_normalize_task("omega4-normalize", _hadamard_strategy(4)))
    if not small:
        tasks.append(_normalize_task("omega6-normalize", _hadamard_strategy(6)))
    for name, n, edges in named:
        tasks.append(_normalize_task(f"{name}-classical-normalize",
                                     _classical_strategy(n, edges)))

    # CLI: xi-bounds and chiq1 with their certificates re-verified by
    # verify-rep, and game normalize on the Omega_4 strategy
    gpaths = {name: _write_graph(workdir, name, graphs.make_graph(n, edges))
              for name, n, edges in named if name in ("C5", "petersen")}
    for name, gpath in gpaths.items():
        xpath = str(workdir / f"{name}-xi.json")
        mpath = str(workdir / f"{name}-chiq1.json")

        def xi_cli(t, state, gpath=gpath, xpath=xpath):
            code, rep = run_cli(t, ["xi-bounds", gpath, "-o", xpath,
                                    "--seed", str(params.seed)])
            expect(code == 0 and rep["lower"] <= rep["upper"], "qcolor xi-bounds")
            code, ver = run_cli(t, ["verify-rep", gpath, xpath])
            expect(code == 0 and ver["kind"] == "orthrep" and ver["valid"] is True,
                   "qcolor verify-rep orthrep")

        def chiq1_cli(t, state, gpath=gpath, mpath=mpath):
            code, rep = run_cli(t, ["chiq1", gpath, "--cmax", "3", "-o", mpath,
                                    "--seed", str(params.seed)])
            expect(code == 0 and rep["c"] == 3, "qcolor chiq1")
            code, ver = run_cli(t, ["verify-rep", gpath, mpath])
            expect(code == 0 and ver["kind"] == "matrixrep" and ver["valid"] is True,
                   "qcolor verify-rep matrixrep")
        tasks += [Task(f"cli-xi-bounds:{name}", xi_cli),
                  Task(f"cli-chiq1:{name}", chiq1_cli)]

    g4path = _write_graph(workdir, "omega4", graphs.hadamard_graph(4))
    s4path = str(workdir / "omega4-strategy.json")
    io.write_strategy(game.strategy_from_quantum_coloring(
        reps.hadamard_quantum_coloring(4)), s4path)
    npath = str(workdir / "omega4-normal.json")

    def normalize_cli(t, state):
        code, rep = run_cli(t, ["game", "normalize", g4path, s4path, "-o", npath])
        expect(code == 0 and rep["normalized"] is True
               and all(rep["properties"].values())
               and abs(rep["win_probability"] - 1.0) <= 1e-9, "qcolor game normalize")
    tasks.append(Task("cli-game-normalize", normalize_cli))
    return tasks
