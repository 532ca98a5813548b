"""File formats: DIMACS graphs, JSON vector sets, strategies, certificates.

Complex arrays are [re, im] pairs, matrices row-major flat lists of pairs,
packed and unpacked whole by numpy (_pack, _unpack).  Files come from one
array writer, byte-identical to json's compact form, that formats each distinct
number once (write_json); NaN and infinities are refused everywhere.
Each certificate kind has one (encode, decode) pair in CODECS, between the
package's objects and the JSON payload of a certificate file.
"""
from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .coloring import ColoringCertificate
from .game import POVMStrategy
from .graphs import Graph, make_graph
from .ks import VectorSet
from .reps import (MatrixRepresentation, OrthogonalRepresentation, PSDWitness,
                   QuantumColoring)


class FormatError(ValueError):
    pass


# what reading a malformed JSON document raises: a missing key or index, a
# wrong type, a bad value, or a number too large for an int or a float
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OverflowError)


# ---------------------------------------------------------------------------
# DIMACS graphs


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS 'p edge n m' format with 1-indexed 'e u v' lines.
    Malformed lines raise with their line number; an edge count differing
    from the header only warns."""
    n = None
    declared_m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"line {lineno}: malformed problem line {raw!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer sizes in {raw!r}")
            if n < 0 or declared_m < 0:
                raise FormatError(f"line {lineno}: negative sizes in {raw!r}")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: malformed edge line {raw!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer endpoints in {raw!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"line {lineno}: endpoint out of range in {raw!r}")
            if u == v:
                raise FormatError(f"line {lineno}: loop edge {raw!r}")
            edges.append((min(u, v) - 1, max(u, v) - 1))
        else:
            raise FormatError(f"line {lineno}: unrecognized line {raw!r}")
    if n is None:
        raise FormatError("missing problem line")
    g = make_graph(n, sorted(set(edges)))
    if g.edge_array.shape[0] != declared_m:
        warnings.warn(f"DIMACS header declares {declared_m} edges but "
                      f"{g.edge_array.shape[0]} distinct edges were read",
                      stacklevel=2)
    return g


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_array.shape[0]}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_graph(path) -> Graph:
    return parse_dimacs(Path(path).read_text())


# ---------------------------------------------------------------------------
# complex packing


def _pack(a, keep: int) -> np.ndarray:
    """A complex array as (..., N, 2) float [re, im] pairs: the first keep
    axes stay, the rest is one row-major flat axis of pairs."""
    a = np.asarray(a, dtype=complex)
    pairs = np.stack([a.real, a.imag], -1)
    return pairs.reshape(a.shape[:keep] + (math.prod(a.shape[keep:]), 2))


def _unpack(pairs, shape: tuple[int, ...] | None, what: str) -> np.ndarray:
    """Inverse of _pack for one flat list (or array) of pairs: a complex
    array of the given shape, or flat of any length when shape is None."""
    if not isinstance(pairs, (list, tuple, np.ndarray)):
        raise FormatError(f"{what} must be a list of [re, im] pairs")
    try:
        a = np.array(pairs, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise FormatError(f"{what} contains a number beyond the float range")
    except (TypeError, ValueError) as err:  # a string, an object, a ragged list
        raise FormatError(f"{what} contains a non-number or is not [re, im] "
                          f"pairs: {err}")
    if not np.isfinite(a).all():  # None converts to NaN
        raise FormatError(f"{what} contains a non-number or a non-finite value")
    if len(pairs) and (a.ndim != 2 or a.shape[1] != 2):
        raise FormatError(f"{what} must be [re, im] pairs")
    z = a.reshape(-1, 2).view(complex)[:, 0]
    if shape is not None and z.shape[0] != math.prod(shape):
        raise FormatError(f"{what} has {z.shape[0]} entries, expected "
                          f"{math.prod(shape)}")
    return z.reshape(shape or -1)


def _unpack_table(rows, c: int, shape: tuple[int, ...], what: str) -> np.ndarray:
    """An (n, c, *shape) operator table from [vertex][color] pair lists,
    n = len(rows)."""
    out = np.zeros((len(rows), c) + shape, dtype=complex)
    for v, row in enumerate(rows):
        if not isinstance(row, (list, np.ndarray)) or len(row) != c:
            raise FormatError(f"vertex {v} does not list exactly {c} operators")
        for a in range(c):
            out[v, a] = _unpack(row[a], shape, f"{what} ({v},{a})")
    return out


# ---------------------------------------------------------------------------
# vector sets


def vector_set_to_dict(s: VectorSet, tolerance: float | None = None) -> dict:
    out = {"dimension": s.dimension,
           "vectors": [{"id": label, "coords": coords}
                       for label, coords in zip(s.labels, _pack(s.vectors, 1))]}
    if tolerance is not None:
        out["tolerance"] = float(tolerance)
    return out


def vector_set_from_dict(data: dict) -> tuple[VectorSet, float | None]:
    if not isinstance(data, dict):
        raise FormatError("vector set must be a JSON object")
    try:
        d = int(data["dimension"])
        entries = list(data["vectors"])
        tolerance = data.get("tolerance")
        tolerance = None if tolerance is None else float(tolerance)
    except _MALFORMED as err:
        raise FormatError(f"vector set missing or malformed field: {err}")
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise FormatError("tolerance must be a positive finite number")
    vectors, labels = [], []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "coords" not in entry:
            raise FormatError(f"vector {k} must be an object with 'coords'")
        vec = _unpack(entry["coords"], None, f"vector {k}")
        if vec.shape[0] != d:
            raise FormatError(f"vector {k} has dimension {vec.shape[0]}, "
                              f"expected {d}")
        vectors.append(vec)
        labels.append(str(entry.get("id", f"r{k}")))
    if not vectors:
        raise FormatError("vector set is empty")
    return VectorSet(dimension=d, vectors=np.array(vectors),
                     labels=tuple(labels)), tolerance


def read_vector_set(path) -> tuple[VectorSet, float | None]:
    return vector_set_from_dict(_load_json(path))


def write_vector_set(s: VectorSet, path, tolerance: float | None = None) -> None:
    write_json(vector_set_to_dict(s, tolerance), path)


# ---------------------------------------------------------------------------
# strategies


def strategy_to_dict(s: POVMStrategy) -> dict:
    return {
        "colors": s.colors,
        "dim_a": s.dim_a,
        "dim_b": s.dim_b,
        "state": _pack(s.state, 0),
        "alice": _pack(s.alice, 2),
        "bob": _pack(s.bob, 2),
    }


def strategy_from_dict(data: dict) -> POVMStrategy:
    if not isinstance(data, dict):
        raise FormatError("strategy must be a JSON object")
    try:
        c = int(data["colors"])
        da = int(data["dim_a"])
        db = int(data["dim_b"])
        state = _unpack(data["state"], None, "state")
        alice_raw = list(data["alice"])
        bob_raw = list(data["bob"])
    except _MALFORMED as err:
        raise FormatError(f"strategy missing or malformed field: {err}")
    if min(c, da, db) < 0:
        raise FormatError(f"strategy sizes must be nonnegative, got colors {c}, "
                          f"dim_a {da}, dim_b {db}")
    if len(alice_raw) != len(bob_raw):
        raise FormatError("alice and bob cover different vertex counts")
    alice = _unpack_table(alice_raw, c, (da, da), "alice operator")
    bob = _unpack_table(bob_raw, c, (db, db), "bob operator")
    try:
        return POVMStrategy(c, da, db, state, alice, bob)
    except ValueError as err:
        raise FormatError(str(err))


def read_strategy(path) -> POVMStrategy:
    return strategy_from_dict(_load_json(path))


def write_strategy(s: POVMStrategy, path) -> None:
    write_json(strategy_to_dict(s), path)


# ---------------------------------------------------------------------------
# certificates


def _encode_coloring(cert: ColoringCertificate) -> dict:
    return {"colors": cert.c, "assignment": list(cert.colors)}


def _decode_coloring(p: dict) -> ColoringCertificate:
    return ColoringCertificate(c=int(p["colors"]),
                               colors=tuple(int(x) for x in p["assignment"]))


def _encode_orthrep(rep: OrthogonalRepresentation) -> dict:
    return {"dimension": rep.dimension,
            "vectors": _pack(rep.vectors, 1)}


def _decode_orthrep(p: dict) -> OrthogonalRepresentation:
    d = int(p["dimension"])
    vecs = np.array([_unpack(row, None, f"vector {i}")
                     for i, row in enumerate(p["vectors"])] or np.zeros((0, d)))
    return OrthogonalRepresentation(d, vecs)


def _encode_matrixrep(rep: MatrixRepresentation) -> dict:
    return {"dimension": rep.dimension,
            "matrices": _pack(rep.matrices, 1)}


def _decode_matrixrep(p: dict) -> MatrixRepresentation:
    d = int(p["dimension"])
    mats = np.array([_unpack(m, (d, d), f"matrix {i}")
                     for i, m in enumerate(p["matrices"])] or np.zeros((0, d, d)))
    return MatrixRepresentation(d, mats)


def _encode_qcoloring(qc: QuantumColoring) -> dict:
    form = "vectors" if qc.vectors is not None else "projectors"
    return {"colors": qc.colors, "rank": qc.rank,
            form: _pack(getattr(qc, form), 2)}


def _decode_qcoloring(p: dict) -> QuantumColoring:
    c, r = int(p["colors"]), int(p["rank"])
    if "vectors" in p:
        rows = p["vectors"]
        shape = (len(rows[0][0]) if len(rows) else c,)  # rank 1: d-vectors
        return QuantumColoring(c, r, vectors=_unpack_table(rows, c, shape,
                                                           "vector"))
    d = r * c
    return QuantumColoring(c, r, projectors=_unpack_table(
        p["projectors"], c, (d, d), "projector"))


def _encode_psd_witness(w: PSDWitness) -> dict:
    return {"rank": w.rank, "matrix": _pack(w.matrix, 0)}


def _decode_psd_witness(p: dict) -> PSDWitness:
    flat = _unpack(p["matrix"], None, "witness matrix")
    n = math.isqrt(flat.shape[0])
    if n * n != flat.shape[0]:
        raise FormatError("witness matrix is not square")
    return PSDWitness(flat.reshape(n, n), int(p["rank"]))


# kind -> (object -> payload dict, payload dict -> object)
CODECS = {
    "coloring": (_encode_coloring, _decode_coloring),
    "orthrep": (_encode_orthrep, _decode_orthrep),
    "matrixrep": (_encode_matrixrep, _decode_matrixrep),
    "qcoloring": (_encode_qcoloring, _decode_qcoloring),
    "psd-witness": (_encode_psd_witness, _decode_psd_witness),
}
CERTIFICATE_KINDS = tuple(CODECS)


def _check_kind(kind) -> None:
    if kind not in CERTIFICATE_KINDS:
        raise FormatError(f"unknown certificate kind {kind!r}")


def encode_payload(kind: str, obj) -> dict:
    _check_kind(kind)
    return CODECS[kind][0](obj)


def decode_payload(kind: str, payload: dict):
    """The object a certificate payload describes; any defect of the payload
    raises FormatError naming the kind."""
    _check_kind(kind)
    try:
        return CODECS[kind][1](payload)
    except _MALFORMED as err:
        raise FormatError(f"malformed {kind} payload: {err}")


def make_metadata(tol: float, rank_tol: float, seed: int | None = None) -> dict:
    meta = {"tool": "qcolor", "version": __version__,
            "tol": float(tol), "rank_tol": float(rank_tol)}
    if seed is not None:
        meta["seed"] = int(seed)
    return meta


def certificate_to_dict(kind: str, payload: dict, metadata: dict) -> dict:
    _check_kind(kind)
    return {"kind": kind, "payload": payload, "metadata": metadata}


def certificate_from_dict(data: dict) -> tuple[str, dict, dict]:
    if not isinstance(data, dict):
        raise FormatError("certificate must be a JSON object")
    kind = data.get("kind")
    _check_kind(kind)
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise FormatError("certificate payload must be an object")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError("certificate metadata must be an object")
    return kind, payload, metadata


def read_certificate(path) -> tuple[str, dict, dict]:
    return certificate_from_dict(_load_json(path))


def write_certificate(path, kind: str, payload: dict, metadata: dict) -> None:
    write_json(certificate_to_dict(kind, payload, metadata), path)


# ---------------------------------------------------------------------------
# json plumbing


def _load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}")
    try:
        # reject NaN/Infinity literals outright rather than letting them leak
        return json.loads(text, parse_constant=_reject_constant)
    except FormatError:
        raise
    except _MALFORMED as err:  # a syntax error, or an integer of > 4300 digits
        raise FormatError(f"{path}: invalid JSON: {err}")


def _reject_constant(name: str):
    raise FormatError(f"non-finite JSON constant {name!r} is not allowed")


def _to_json(x) -> str:
    """x as json.dumps(x, allow_nan=False) writes it, float arrays as nested
    lists with each distinct bit pattern (-0.0 is not 0.0) formatted once."""
    if isinstance(x, dict):
        return "{%s}" % ", ".join(f"{json.dumps(k)}: {_to_json(v)}"
                                  for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return "[%s]" % ", ".join(map(_to_json, x))
    if not isinstance(x, np.ndarray):
        return json.dumps(x, allow_nan=False)
    a = np.asarray(x, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("Out of range float values are not JSON compliant")
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), object)
    template = "%s"
    for k in reversed(a.shape):
        template = "[" + ", ".join([template] * k) + "]"
    return template % tuple(text.take(inverse.ravel()).tolist())


def write_json(data, path) -> None:
    """Write a JSON document with string keys as every qcolor file is
    written: compact, byte-identical to json.dumps(data, allow_nan=False)
    with every array as its nested list."""
    Path(path).write_text(_to_json(data) + "\n")
