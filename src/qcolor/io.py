"""File formats: DIMACS graphs, JSON vector sets, strategies, certificates.

Every complex array a file holds is one object {"shape": [...], "c16": ...}
(_pack): c16 is the base64 of the array's little-endian complex128 bytes in
C order, and shape keeps the array's first axes and flattens the rest into
one axis of entries.  Files are plain JSON, written by json.dumps and read
as UTF-8 by json.loads; NaN and infinities are refused everywhere.  CODECS
holds each certificate kind's (encode, decode) pair between objects and
certificate payloads.

_unpack, the one decoder of every complex field, also reads the text form
of older files and of the bundled ray sets: nested lists of [re, im] pairs.
Either way a defect is a FormatError that names the field, and nothing is
allocated from a size the file declares before the data is checked
against it.
"""
from __future__ import annotations

import base64
import itertools
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
                   QuantumColoring, ThetaCertificate)


class FormatError(ValueError):
    pass


# what reading a malformed JSON document raises: a missing key or index, a
# wrong type, a bad value, or a number too large for an int or a float
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _number(x, what: str, kind=int):
    value = kind(x)
    if isinstance(x, (bool, str)):  # int(True) reads as 1, int("2") as 2
        raise FormatError(f"{x!r} is not a number ({what})")
    if isinstance(x, float) and value != x:  # int(2.7) would read as 2
        raise FormatError(f"{x!r} is not an integer ({what})")
    return value


def _numbers_only(data, depth: int) -> bool:
    """Whether each leaf of data, nested lists depth deep, is a number:
    np.asarray reads a JSON list's "2" and true as numbers too."""
    for _ in range(depth - 1):
        data = itertools.chain.from_iterable(data)
    return all(issubclass(t, (int, float, np.number)) and t is not bool
               for t in set(map(type, data)))


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
    g = make_graph(n, set(edges))
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
    return parse_dimacs(_read_text(path))


# ---------------------------------------------------------------------------
# complex packing


def _pack(a, keep: int) -> dict:
    """A complex array as a {"shape", "c16"} object: the first keep axes
    stay, the rest is one flat axis of entries.  NaN and infinities are
    refused, as json.dumps(allow_nan=False) refuses them."""
    a = np.asarray(a, dtype="<c16")
    if not np.isfinite(a).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return {"shape": [*a.shape[:keep], math.prod(a.shape[keep:])],
            "c16": base64.b64encode(a.tobytes()).decode("ascii")}


def _from_c16(data: dict, what: str, axes: tuple[int | None, ...]) -> np.ndarray:
    """The complex array of a {"shape", "c16"} object whose shape fits axes
    (None: any length): shape a list of non-negative integers, c16 the
    b64encode of 16 bytes per entry, every value finite."""
    try:
        dims = data["shape"]
        if not isinstance(dims, list):
            raise TypeError(f"{dims!r} is not a list")
        dims = [_number(n, f"{what} shape") for n in dims]
        if min(dims, default=0) < 0:
            raise ValueError(f"{min(dims)} is negative")
    except _MALFORMED as err:
        raise FormatError(f"{what} shape must be a list of non-negative integers: {err}")
    if len(dims) != len(axes) or any(n not in (None, m) for n, m in zip(axes, dims)):
        want = ", ".join("*" if n is None else str(n) for n in axes)
        raise FormatError(f"{what} has shape {dims}, expected [{want}]")
    try:
        raw = base64.b64decode(data.get("c16"), validate=True)
        # b64encode's spelling: full groups decode one to one, so only the length
        # (excess "=") and the last group (pad bits) can differ
        c16, last = data["c16"], raw[-(len(raw) % 3 or 3):]
        if len(c16) != -(-len(raw) // 3) * 4 or base64.b64encode(last).decode() != c16[-4:]:
            raise ValueError("not the one spelling of its bytes")
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise FormatError(f"{what} c16 is not strict base64: {err}")
    if len(raw) != 16 * math.prod(dims):
        raise FormatError(f"{what} c16 holds {len(raw)} bytes, expected 16 * {math.prod(dims)}")
    try:
        z = np.frombuffer(raw, "<c16").astype(complex).reshape(dims)
    except ValueError as err:  # no entries, but axes too long for numpy
        raise FormatError(f"{what} has shape {dims}: {err}")
    if not np.isfinite(z).all():
        raise FormatError(f"{what} contains a non-finite value")
    return z


def _unpack(data, shape: tuple[int, ...] | None, what: str,
            lead: tuple[int | None, ...] = ()) -> np.ndarray:
    """Inverse of _pack: data, a {"shape", "c16"} object or nested lists of
    [re, im] pairs, as a complex array with leading axes of the lengths in
    lead (None: any) and then entries of the given shape (None: one flat
    axis of any length).  Lists convert whole; only when that fails does
    the decode go down the leading axes, item by item, so that the error
    names the first item at fault in row-major order."""
    k = len(lead)
    size = None if shape is None else math.prod(shape)
    if isinstance(data, dict):
        z = _from_c16(data, what, (*lead, size))
        return z if shape is None else z.reshape(z.shape[:k] + shape)
    if not isinstance(data, (list, tuple)):
        raise FormatError(f"{what} must be a list of [re, im] pairs or a {{shape, c16}} object")
    try:
        a = np.ascontiguousarray(data, dtype=float)
    except OverflowError:  # an integer beyond the float range
        fault = "contains a number beyond the float range"
    except (TypeError, ValueError) as err:  # a string, an object, a ragged list
        fault = f"contains a non-number or is not [re, im] pairs: {err}"
    else:
        if not a.size and a.ndim < k + 2:  # nested lists end at an empty axis
            a = a.reshape(a.shape + tuple(n or 0 for n in (*lead, size, 2)[a.ndim:]))
        if not np.isfinite(a).all() or not _numbers_only(data, a.ndim):  # None converts to NaN
            fault = "contains a non-number or a non-finite value"
        elif (a.ndim != k + 2 or a.shape[-1] != 2
              or any(n not in (None, m) for n, m in zip(lead, a.shape))):
            fault = "must be [re, im] pairs"
        elif size not in (None, a.shape[k]):
            fault = f"has {a.shape[k]} entries, expected {size}"
        else:
            z = a.view(complex)[..., 0]
            return z if shape is None else z.reshape(a.shape[:k] + shape)
    for i, item in enumerate(data if k else ()):  # later items take the first shape
        if k == 1:
            shape = _unpack(item, shape, f"{what} {i}").shape
        elif not isinstance(item, (list, tuple)) or len(item) != lead[1]:
            raise FormatError(f"vertex {i} does not list exactly {lead[1]} operators")
        else:
            for j, x in enumerate(item):
                shape = _unpack(x, shape, f"{what} ({i},{j})").shape
    raise FormatError(f"{what} {fault}")


# ---------------------------------------------------------------------------
# vector sets


def vector_set_to_dict(s: VectorSet, tolerance: float | None = None) -> dict:
    out = {"dimension": s.dimension,
           "vectors": [{"id": label, "coords": _pack(v, 0)}
                       for label, v in zip(s.labels, s.vectors)]}
    if tolerance is not None:
        out["tolerance"] = float(tolerance)
    return out


def vector_set_from_dict(data: dict) -> tuple[VectorSet, float | None]:
    if not isinstance(data, dict):
        raise FormatError("vector set must be a JSON object")
    try:
        d = _number(data["dimension"], "dimension")
        entries = list(data["vectors"])
        tolerance = data.get("tolerance")
        tolerance = None if tolerance is None else _number(tolerance, "tolerance", float)
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
    """A side's table goes to its field ("alice"), a factored side's vectors
    to the side's vector field ("alice_vectors")."""
    return {"colors": s.colors, "dim_a": s.dim_a, "dim_b": s.dim_b, "state": _pack(s.state, 0),
            **{name + "_vectors" if x.ndim == 3 else name: _pack(x, 2)
               for name, x in zip(("alice", "bob"), s.sides)}}


def strategy_from_dict(data: dict) -> POVMStrategy:
    if not isinstance(data, dict):
        raise FormatError("strategy must be a JSON object")
    # per side: its field, what an item of it is, and an item's axes
    sides = [(name + "_vectors", name + " vector", 1) if name + "_vectors" in data
             else (name, name + " operator", 2) for name in ("alice", "bob")]
    try:
        c, da, db = (_number(data[key], key) for key in ("colors", "dim_a", "dim_b"))
        state = _unpack(data["state"], None, "state")
        fields = [data[key] for key, _, _ in sides]
    except _MALFORMED as err:
        raise FormatError(f"strategy missing or malformed field: {err}")
    for name in ("alice", "bob"):
        if name in data and name + "_vectors" in data:
            raise FormatError(f"strategy gives {name} both as operators and as vectors")
    if min(c, da, db) < 0:
        raise FormatError(f"strategy sizes must be nonnegative, got colors {c}, "
                          f"dim_a {da}, dim_b {db}")
    try:
        alice, bob = (_unpack(x, (d,) * axes, what, (None, c))
                      for x, (_, what, axes), d in zip(fields, sides, (da, db)))
        if len(alice) != len(bob):
            raise FormatError("alice and bob cover different vertex counts")
        return POVMStrategy(c, da, db, state, alice, bob)
    except ValueError as err:  # numpy's too, for an empty table of impossible sizes
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
    return ColoringCertificate(_number(p["colors"], "colors"), tuple(
        _number(x, f"assignment {v}") for v, x in enumerate(p["assignment"])))


def _encode_orthrep(rep: OrthogonalRepresentation) -> dict:
    return {"dimension": rep.dimension,
            "vectors": _pack(rep.vectors, 1)}


def _decode_orthrep(p: dict) -> OrthogonalRepresentation:
    d = _number(p["dimension"], "dimension")
    vecs = _unpack(p["vectors"], None, "vector", (None,))
    return OrthogonalRepresentation(d, vecs if len(vecs) else vecs.reshape(0, d))


def _encode_matrixrep(rep: MatrixRepresentation) -> dict:
    return {"dimension": rep.dimension,
            "matrices": _pack(rep.matrices, 1)}


def _decode_matrixrep(p: dict) -> MatrixRepresentation:
    d = _number(p["dimension"], "dimension")
    return MatrixRepresentation(d, _unpack(p["matrices"], (d, d), "matrix", (None,)))


def _encode_qcoloring(qc: QuantumColoring) -> dict:
    form = "vectors" if qc.table.ndim == 3 else "projectors"
    return {"colors": qc.colors, "rank": qc.rank, form: _pack(qc.table, 2)}


def _decode_qcoloring(p: dict) -> QuantumColoring:
    c, r = _number(p["colors"], "colors"), _number(p["rank"], "rank")
    if "vectors" in p:  # rank 1: d-vectors, d = c when there are none
        vecs = _unpack(p["vectors"], None, "vector", (None, c))
        return QuantumColoring(c, r, vecs if len(vecs) else vecs.reshape(0, c, c))
    return QuantumColoring(c, r, _unpack(p["projectors"], (r * c,) * 2, "projector", (None, c)))


def _encode_psd_witness(w: PSDWitness) -> dict:
    return {"rank": w.rank, "matrix": _pack(w.matrix, 0)}


def _unpack_square(pairs, what: str) -> np.ndarray:
    flat = _unpack(pairs, None, what)
    n = math.isqrt(flat.shape[0])
    if n * n != flat.shape[0]:
        raise FormatError(f"{what} is not square")
    return flat.reshape(n, n)


def _decode_psd_witness(p: dict) -> PSDWitness:
    return PSDWitness(_unpack_square(p["matrix"], "witness matrix"), _number(p["rank"], "rank"))


def _encode_theta(cert: ThetaCertificate) -> dict:
    return {"matrix": _pack(cert.matrix, 0)}


def _decode_theta(p: dict) -> ThetaCertificate:
    return ThetaCertificate(_unpack_square(p["matrix"], "theta matrix"))


# kind -> (object -> payload dict, payload dict -> object)
CODECS = {
    "coloring": (_encode_coloring, _decode_coloring),
    "orthrep": (_encode_orthrep, _decode_orthrep),
    "matrixrep": (_encode_matrixrep, _decode_matrixrep),
    "qcoloring": (_encode_qcoloring, _decode_qcoloring),
    "psd-witness": (_encode_psd_witness, _decode_psd_witness),
    "theta": (_encode_theta, _decode_theta),
}


def _check_kind(kind) -> None:
    if not isinstance(kind, str):  # a list is no dict key
        raise FormatError("unknown certificate kind (not a string)")
    if kind not in CODECS:
        raise FormatError(f"unknown certificate kind {kind!r}")


def decode_payload(kind: str, payload: dict):
    """The object a certificate payload describes; any defect of the payload
    raises FormatError naming the kind."""
    _check_kind(kind)
    try:
        return CODECS[kind][1](payload)
    except _MALFORMED as err:
        raise FormatError(f"malformed {kind} payload: {err}")


def make_metadata(**flags) -> dict:
    """A run's metadata: the tool, its version and the flags the run read."""
    return {"tool": "qcolor", "version": __version__, **flags}


def certificate_to_dict(kind: str, obj, metadata: dict) -> dict:
    """The certificate document of obj, its payload encoded by CODECS[kind]."""
    _check_kind(kind)
    return {"kind": kind, "payload": CODECS[kind][0](obj), "metadata": metadata}


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


# ---------------------------------------------------------------------------
# json plumbing


def _read_text(path) -> str:
    """A file's text, decoded as UTF-8 whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path} is not UTF-8 text: {err}")


def _load_json(path):
    try:
        return json.loads(_read_text(path), parse_constant=_reject_constant)
    except FormatError:
        raise
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}")
    except _MALFORMED as err:  # a syntax error, or an integer of > 4300 digits
        raise FormatError(f"{path}: invalid JSON: {err}")
    except RecursionError as err:  # nesting past Python's recursion limit
        raise FormatError(f"{path}: JSON nested too deeply to read: {err}")


def _reject_constant(name: str):
    raise FormatError(f"non-finite JSON constant {name!r} is not allowed")


def write_json(data, path) -> None:
    """Write a JSON document as every qcolor file is written: json.dumps's
    default form, NaN and infinities refused."""
    Path(path).write_text(json.dumps(data, allow_nan=False) + "\n")
