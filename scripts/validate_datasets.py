#!/usr/bin/env python3
"""Re-derive the structural facts of every bundled ray set and freeze them
into src/qcolor/data/validation.json.

Everything claimed in data/README.md is recomputed here from the shipped
JSON files alone: ray counts, orthogonal pairs, complete bases, the KS and
weak-KS decisions (cross-checked against the 2^k brute-force oracle where
that is feasible), witness validity, and the chromatic number of the
orthogonality graph.  Exits nonzero if any fact disagrees with the expected
table, so the script doubles as a dataset regression check.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qcolor  # noqa: E402
from qcolor import coloring, datasets, ks  # noqa: E402
from qcolor.graphs import orthogonality_graph  # noqa: E402

OUT = ROOT / "src" / "qcolor" / "data" / "validation.json"

# name -> (size, dimension, orthogonal pairs, bases, is_ks, is_weak_ks, chi)
EXPECTED = {
    "cabello-18": (18, 4, 63, 9, True, True, 5),
    "peres-33": (33, 3, 72, 16, False, True, 4),
    "yu-oh-13": (13, 3, 24, 4, False, False, 4),
}


def validate(name: str) -> dict:
    vs, tol = datasets.load_vector_set(name)
    s = ks.canonicalize(vs.vectors, labels=vs.labels)
    if any(len(group) > 1 for group in s.merged_ids):
        raise SystemExit(f"{name}: shipped file contains duplicate rays")

    g = orthogonality_graph(s.vectors)
    bases = ks.enumerate_bases(s)
    dec = ks.ks_check(s)
    chi = coloring.chromatic_number(g)

    record = {
        "size": s.size,
        "dimension": s.dimension,
        "tolerance": tol,
        "orthogonal_pairs": g.m,
        "bases": len(bases),
        "is_ks": dec.is_ks,
        "is_weak_ks": dec.is_weak_ks,
        "chromatic_number": chi.chi,
        "chromatic_status": chi.status,
    }

    if dec.witness is not None:
        # the witness is an exactly-one labeling; when the set is weak KS it
        # must still fail the orthogonal-pair condition
        assert ks.verify_ks_witness(s, dec.witness, weak=False)
        assert ks.verify_ks_witness(s, dec.witness,
                                    weak=True) == (not dec.is_weak_ks)
        record["witness"] = list(dec.witness)
        record["witness_ones"] = [s.labels[i] for i, x in
                                  enumerate(dec.witness) if x]

    if s.size <= ks.BRUTE_FORCE_LIMIT:
        slow = ks.brute_force_ks(s)
        assert (slow.is_ks, slow.is_weak_ks) == (dec.is_ks, dec.is_weak_ks)
        record["brute_force_agrees"] = True

    if name == "cabello-18":
        per_ray = [sum(r in b for b in bases) for r in range(s.size)]
        assert set(per_ray) == {2}, "every ray should sit in exactly 2 bases"
        record["bases_per_ray"] = 2

    exp = EXPECTED[name]
    got = (record["size"], record["dimension"], record["orthogonal_pairs"],
           record["bases"], record["is_ks"], record["is_weak_ks"],
           record["chromatic_number"])
    if got != exp or chi.status != "exact":
        raise SystemExit(f"{name}: derived {got}, expected {exp}")

    print(f"{name}: {s.size} rays, dim {s.dimension}, {g.m} pairs, "
          f"{len(bases)} bases, KS={dec.is_ks}, weakKS={dec.is_weak_ks}, "
          f"chi={chi.chi}")
    return record


def main() -> None:
    report = {
        "tool": "qcolor",
        "version": qcolor.__version__,
        "sets": {name: validate(name) for name in datasets.BUNDLED},
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
