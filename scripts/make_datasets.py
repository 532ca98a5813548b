#!/usr/bin/env python3
"""Rebuild the bundled ray sets from their arithmetic definitions.

Checks that each checked-in file under src/qcolor/data/ (text form, [re, im]
pairs, kept for auditing by eye) reads as the rebuilt set bit for bit, and
exits 1 if one does not.  The checked-in files are never written.  Given a
directory, also writes the rebuilt sets there as JSON vector-set files, each
coordinate array in the binary form every qcolor file uses:

    python3 scripts/make_datasets.py [OUT_DIR]

See data/README.md for the provenance of each construction.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qcolor.io import read_vector_set, write_vector_set  # noqa: E402
from qcolor.ks import canonicalize  # noqa: E402

DATA = ROOT / "src" / "qcolor" / "data"

# 18 rays in R^4 arranged in 9 bases, every ray appearing in exactly two
# (Cabello, Estebaranz, Garcia-Alcaine 1996).
CABELLO_BASES = [
    [(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)],
    [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)],
    [(1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)],
    [(1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)],
    [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)],
    [(1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)],
    [(1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)],
    [(1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)],
    [(1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)],
]

# 13 rays in R^3 (Yu, Oh 2012): not KS, not even weak KS, yet their
# orthogonality graph needs four colors.
YU_OH = [
    (0, 0, 1), (0, 1, 0), (1, 0, 0),
    (0, 1, -1), (1, 0, -1), (1, -1, 0),
    (0, 1, 1), (1, 0, 1), (1, 1, 0),
    (-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, 1),
]


def coord_token(x: float) -> str:
    table = {0.0: "0", 1.0: "1", -1.0: "-1",
             np.sqrt(2.0): "r2", -np.sqrt(2.0): "-r2"}
    for val, tok in table.items():
        if abs(x - val) < 1e-12:
            return tok
    return f"{x:.6g}"


def label(vec) -> str:
    return "(" + ",".join(coord_token(float(x)) for x in vec) + ")"


def peres_rays() -> list[tuple]:
    """33 rays in R^3 (Peres 1991): all coordinate permutations and sign
    patterns of (1,0,0), (1,1,0), (sqrt2,1,0), (sqrt2,1,1), deduplicated up
    to overall sign."""
    from itertools import permutations, product

    s = np.sqrt(2.0)
    seeds = [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (s, 1.0, 0.0), (s, 1.0, 1.0)]
    seen = {}
    for seed in seeds:
        for perm in permutations(range(3)):
            base = tuple(seed[p] for p in perm)
            for signs in product((1.0, -1.0), repeat=3):
                v = np.array([b * sg for b, sg in zip(base, signs)])
                v = v / np.linalg.norm(v)
                nz = np.flatnonzero(np.abs(v) > 1e-12)[0]
                if v[nz] < 0:
                    v = -v
                key = tuple(np.round(v, 12))
                if key not in seen:
                    seen[key] = tuple(float(x) for x in v * np.linalg.norm(
                        np.array(base)))
    # stable order: by seed shape then lexicographic on the rounded ray
    return [seen[k] for k in sorted(seen)]


def build(name: str, raw, labels, out: Path | None) -> bool:
    """Whether the checked-in name.json reads as the set built from raw."""
    vs = canonicalize(raw, labels=labels)
    bundled, tolerance = read_vector_set(DATA / f"{name}.json")
    same = ((bundled.labels, bundled.vectors.tobytes(), tolerance)
            == (vs.labels, vs.vectors.tobytes(), 1e-9))
    if out is not None:
        write_vector_set(vs, out / f"{name}.json", tolerance=1e-9)
    print(f"{name}: {vs.size} rays in dimension {vs.dimension}, "
          f"{'matches' if same else 'DIFFERS FROM'} the checked-in file")
    return same


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    same = []

    cab_raw, cab_labels, seen = [], [], set()
    for basis in CABELLO_BASES:
        for vec in basis:
            if vec not in seen:
                seen.add(vec)
                cab_raw.append(np.array(vec, dtype=float))
                cab_labels.append(label(vec))
    same.append(build("cabello-18", cab_raw, cab_labels, out))

    per = peres_rays()
    same.append(build("peres-33", [np.array(v) for v in per], [label(v) for v in per], out))

    same.append(build("yu-oh-13", [np.array(v, dtype=float) for v in YU_OH],
                      [label(v) for v in YU_OH], out))
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
