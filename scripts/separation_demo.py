#!/usr/bin/env python3
"""Walk through the separations the library is built around, on instances
small enough to verify while you watch.

Three acts: the sandwich xi <= chi_q1 <= chi on named graphs, with the
certified Lovasz theta bound below xi (which makes xi exact on C_5 and
Petersen), the 13-ray set whose orthogonal rank sits strictly below its
chromatic number, and the coloring game on C_5, where two colors are
classically losing but a quantum strategy built from a 3-coloring wins every
round and survives the normal-form pipeline.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qcolor import coloring, datasets, game, ks, reps  # noqa: E402
from qcolor.graphs import (complete_graph, make_graph,  # noqa: E402
                           orthogonality_graph)


def cycle(n: int):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return make_graph(10, outer + inner + spokes)


def act_sandwich() -> None:
    print("== sandwich: omega <= ceil(theta) <= xi <= chi_q1 <= chi ==")
    named = [("K_3", complete_graph(3)), ("K_5", complete_graph(5)),
             ("C_5", cycle(5)), ("Petersen", petersen())]
    for name, g in named:
        chi = coloring.chromatic_number(g)
        xb = reps.xi_bounds(g)
        cq = reps.chi_q1_upper_via_product(g, c_max=chi.chi)
        lower = max(xb.lower, xb.lower_theta or 0)
        exact = "  (exact)" if lower == xb.upper else ""
        theta = "-" if xb.lower_theta is None else xb.lower_theta
        print(f"  {name:9s} omega = {xb.lower}  ceil(theta) = {theta}  "
              f"xi in [{lower},{xb.upper}]{exact}  chi_q1 <= {cq.c}  "
              f"chi = {chi.chi}")


def act_thirteen_rays() -> None:
    print("== 13 rays: orthogonal rank 3, chromatic number 4 ==")
    vs, _ = datasets.load_vector_set("yu-oh-13")
    s = ks.canonicalize(vs.vectors, labels=vs.labels)
    g = orthogonality_graph(s.vectors)
    chi = coloring.chromatic_number(g)
    rep = reps.OrthogonalRepresentation(3, s.vectors)
    ok = reps.verify_orthogonal_representation(g, rep, 1e-9)
    dec = ks.ks_check(s)
    print(f"  chi(orthogonality graph) = {chi.chi} ({chi.status})")
    print(f"  the rays themselves verify as a dimension-3 representation: {ok}")
    print(f"  KS: {dec.is_ks}, weak KS: {dec.is_weak_ks} "
          f"(witness validated: "
          f"{ks.verify_ks_witness(s, dec.witness, weak=True)})")


def act_game() -> None:
    print("== coloring game on C_5 ==")
    g = cycle(5)
    best, _ = game.best_classical_win_probability(g, 2)
    print(f"  best classical strategy with 2 colors: {best} "
          f"(= {float(best):.4f} < 1)")

    cert = coloring.chromatic_number(g).certificate
    qc = reps.quantum_coloring_from_classical(g, cert)
    s = game.strategy_from_quantum_coloring(qc)
    print(f"  quantum strategy from a 3-coloring wins with probability "
          f"{game.quantum_win_probability(g, s):.12f}")

    # disturb it (non-uniform Schmidt weights plus a padded zero color) and
    # push it back through the normal form
    rng = np.random.default_rng(7)
    lam = np.sort(rng.uniform(0.5, 1.5, size=3))[::-1]
    lam /= np.linalg.norm(lam)
    state = np.diag(lam).astype(complex)
    ops = np.zeros((5, 4, 3, 3), dtype=complex)
    ops[:, :3] = np.einsum("vai,vaj->vaij", qc.table, qc.table.conj())
    messy = game.POVMStrategy(4, 3, 3, state.ravel(), ops, ops.conj())
    print(f"  perturbed strategy still wins: "
          f"{game.quantum_win_probability(g, messy):.12f}")
    res = game.normalize_strategy(messy, g)
    flags = game.normal_form_properties(res.normal, g, 1e-9)
    print(f"  normalized ({' -> '.join(n for n, _ in res.trace.stages[1:])})")
    print(f"  normal-form properties: {flags}")
    print(f"  win probability after normalization: "
          f"{game.quantum_win_probability(g, res.normal):.12f}")

    sim = game.simulate_game(g, res.normal, rounds=20000, seed=11)
    print(f"  sampled win rate over 20000 rounds: {sim:.4f}")


def main() -> None:
    act_sandwich()
    act_thirteen_rays()
    act_game()


if __name__ == "__main__":
    main()
