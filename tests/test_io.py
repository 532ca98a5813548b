import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import cycle
from qcolor import coloring, datasets, game, io, ks, reps
from qcolor.graphs import complete_graph
from qcolor.linalg import maximally_entangled


# -- DIMACS -------------------------------------------------------------------


def test_dimacs_roundtrip():
    g = cycle(5)
    text = io.write_dimacs(g)
    back = io.parse_dimacs(text)
    assert back.n == g.n
    assert np.array_equal(back.edge_array, g.edge_array)


def test_dimacs_parses_comments_and_blanks():
    g = io.parse_dimacs("c a comment\n\np edge 3 1\nc another\ne 1 3\n")
    assert g.n == 3 and g.edge_array.tolist() == [[0, 2]]


def test_dimacs_malformed_line_reports_number():
    with pytest.raises(io.FormatError, match="line 3"):
        io.parse_dimacs("c ok\np edge 3 1\ne 1\n")
    with pytest.raises(io.FormatError, match="line 2"):
        io.parse_dimacs("p edge 2 1\ne 1 5\n")
    with pytest.raises(io.FormatError, match="line 1"):
        io.parse_dimacs("q edge 2 1\n")
    with pytest.raises(io.FormatError, match="line 2"):
        io.parse_dimacs("p edge 2 1\ne 1 1\n")


def test_dimacs_edge_before_header():
    with pytest.raises(io.FormatError, match="line 1"):
        io.parse_dimacs("e 1 2\np edge 2 1\n")


def test_dimacs_count_mismatch_warns():
    with pytest.warns(UserWarning, match="declares 2"):
        g = io.parse_dimacs("p edge 3 2\ne 1 2\n")
    assert g.edge_array.shape[0] == 1
    # duplicate lines collapse, which also triggers the warning
    with pytest.warns(UserWarning):
        g = io.parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")
    assert g.edge_array.shape[0] == 1


def test_dimacs_missing_header():
    with pytest.raises(io.FormatError, match="missing problem line"):
        io.parse_dimacs("c nothing\n")


# -- vector sets ---------------------------------------------------------------


def test_vector_set_roundtrip(tmp_path):
    s = ks.canonicalize([np.array([1.0, 1j]), np.array([1.0, -1j])],
                        labels=("a", "b"))
    p = tmp_path / "set.json"
    io.write_vector_set(s, p, tolerance=1e-8)
    back, tol = io.read_vector_set(p)
    assert tol == 1e-8
    assert back.dimension == 2
    assert back.labels == ("a", "b")
    assert np.allclose(back.vectors, s.vectors)


def test_vector_set_rejects_nan(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dimension": 2,
                             "vectors": [{"id": "x",
                                          "coords": [[1.0, 0.0], [None, 0.0]]}]})
                 .replace("null", "NaN"))
    with pytest.raises(io.FormatError):
        io.read_vector_set(p)


def test_vector_set_rejects_infinity_literal(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dimension": 1, "vectors": '
                 '[{"id": "x", "coords": [[Infinity, 0.0]]}]}')
    with pytest.raises(io.FormatError, match="Infinity"):
        io.read_vector_set(p)


def test_vector_set_dimension_mismatch():
    with pytest.raises(io.FormatError, match="dimension"):
        io.vector_set_from_dict({"dimension": 3,
                                 "vectors": [{"coords": [[1, 0], [0, 0]]}]})


@pytest.mark.parametrize("coords, want", [
    ("[[1, 0], [0, -1]]", [1, -1j]),
    ("[[true, false], [false, true]]", [1, 1j]),
    ('[["1.5", 0], [0, " -2 "]]', [1.5, -2j]),
    (f"[[{2 ** 70}, 0], [0, 0]]", [2.0 ** 70, 0]),
    ("[]", []),
    ("[[NaN, 0], [0, 0]]", "'NaN' is not allowed"),
    ("[[Infinity, 0], [0, 0]]", "'Infinity' is not allowed"),
    ("[[1e400, 0], [0, 0]]", "vector 0 contains a non-number or a non-finite"),
    ("[[null, 0], [0, 0]]", "vector 0 contains a non-number"),
    ('[["one", 0], [0, 0]]', "vector 0 contains a non-number"),
    ("[[{}, 0], [0, 0]]", "vector 0 contains a non-number"),
    ("[[1, 0], [0]]", r"vector 0 .*\[re, im\] pairs"),
    ("[[1.0], [0.0]]", r"vector 0 must be \[re, im\] pairs"),
    ("[[[1, 0]], [[0, 0]]]", r"vector 0 must be \[re, im\] pairs"),
    ("[[], []]", r"vector 0 must be \[re, im\] pairs"),
    (f"[[1{'0' * 400}, 0], [0, 0]]", "vector 0 contains a number beyond the float"),
], ids=["ints", "bools", "numeric-strings", "int-beyond-int64", "empty",
        "nan", "infinity", "1e400", "null", "string", "object", "ragged",
        "singletons", "nested-pairs", "empty-pairs", "401-digits"])
def test_vector_coordinate_contract(tmp_path, coords, want):
    """What a coordinate may be: a list is the decoded vector, a string the
    FormatError (exit 2 in the CLI) that rejects the file."""
    p = tmp_path / "set.json"
    d = 2 if isinstance(want, str) else len(want)
    p.write_text(f'{{"dimension": {d}, "vectors": [{{"coords": {coords}}}]}}')
    if isinstance(want, str):
        with pytest.raises(io.FormatError, match=want) as err:
            io.read_vector_set(p)
        assert "0" * 20 not in str(err.value)
    else:
        s, _ = io.read_vector_set(p)
        assert np.array_equal(s.vectors, np.array([want], dtype=complex))


def test_vector_set_default_ids():
    s, _ = io.vector_set_from_dict({"dimension": 1,
                                    "vectors": [{"coords": [[1, 0]]}]})
    assert s.labels == ("r0",)


def test_bundled_sets_load():
    for name in datasets.BUNDLED:
        s, tol = datasets.load_vector_set(name)
        assert tol == 1e-9
        assert s.size > 0
    with pytest.raises(io.FormatError):
        datasets.load_vector_set("not-a-set")


# -- strategies ------------------------------------------------------------------


def test_strategy_roundtrip(tmp_path):
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 0], [0, 1]], dtype=complex)
    alice = np.array([[e0, e1], [e1, e0]])
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), alice, alice.conj())
    p = tmp_path / "s.json"
    io.write_strategy(s, p)
    back = io.read_strategy(p)
    assert back.colors == 2 and back.dim_a == 2 and back.dim_b == 2
    assert np.allclose(back.state, s.state)
    assert np.allclose(back.alice, s.alice)
    assert np.allclose(back.bob, s.bob)


def test_strategy_malformed(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"colors": 2, "dim_a": 2, "dim_b": 2,
                             "state": [[1.0, 0.0]] * 4,
                             "alice": [[[[1.0, 0.0]] * 3] * 2],
                             "bob": [[[[1.0, 0.0]] * 4] * 2]}))
    with pytest.raises(io.FormatError, match="entries"):
        io.read_strategy(p)


def test_strategy_operator_count_checked():
    with pytest.raises(io.FormatError, match="exactly 2"):
        io.strategy_from_dict({"colors": 2, "dim_a": 1, "dim_b": 1,
                               "state": [[1.0, 0.0]],
                               "alice": [[[[1.0, 0.0]]]],
                               "bob": [[[[1.0, 0.0]], [[0.0, 0.0]]]]})


# -- certificates -----------------------------------------------------------------


def test_certificate_roundtrip(tmp_path):
    p = tmp_path / "cert.json"
    io.write_certificate(p, "coloring", {"colors": 2, "assignment": [0, 1]},
                         io.make_metadata(1e-9, 1e-7, seed=3))
    kind, payload, meta = io.read_certificate(p)
    assert kind == "coloring"
    assert payload["assignment"] == [0, 1]
    assert meta["tool"] == "qcolor" and meta["seed"] == 3


def test_certificate_unknown_kind():
    with pytest.raises(io.FormatError, match="unknown certificate kind"):
        io.certificate_to_dict("nonsense", {}, {})
    with pytest.raises(io.FormatError, match="unknown certificate kind"):
        io.certificate_from_dict({"kind": "nonsense", "payload": {}})


def test_removed_ks_witness_kind_is_unknown():
    assert io.CERTIFICATE_KINDS == tuple(io.CODECS)
    with pytest.raises(io.FormatError, match="unknown certificate kind"):
        io.decode_payload("ks-witness", {"labeling": [0], "weak": False})


def _rank2_projector_coloring() -> reps.QuantumColoring:
    """C5's proper 3-coloring (0, 1, 0, 1, 2) lifted to rank 2: color a of
    vertex v is the 2-dimensional block (col[v] + a) mod 3 of C^6."""
    col = (0, 1, 0, 1, 2)
    projs = np.zeros((5, 3, 6, 6), dtype=complex)
    for v in range(5):
        for a in range(3):
            blk = 2 * ((col[v] + a) % 3)
            projs[v, a, blk:blk + 2, blk:blk + 2] = np.eye(2)
    return reps.QuantumColoring(3, 2, projectors=projs)


def _codec_examples():
    rng = np.random.default_rng(7)

    def z(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return [
        ("coloring", coloring.ColoringCertificate(3, (0, 1, 0, 1, 2))),
        ("orthrep", reps.OrthogonalRepresentation(3, z(5, 3))),
        ("matrixrep", reps.MatrixRepresentation(2, z(4, 2, 2))),
        ("qcoloring", reps.hadamard_quantum_coloring(4)),
        ("qcoloring", _rank2_projector_coloring()),
        ("psd-witness", reps.PSDWitness(z(4, 4), 2)),
    ]


@pytest.mark.parametrize("kind, obj", _codec_examples(),
                         ids=["coloring", "orthrep", "matrixrep",
                              "qcoloring-vectors", "qcoloring-projectors",
                              "psd-witness"])
def test_payload_roundtrip(tmp_path, kind, obj):
    p = tmp_path / "cert.json"
    io.write_certificate(p, kind, io.encode_payload(kind, obj),
                         io.make_metadata(1e-9, 1e-7))
    got_kind, payload, _ = io.read_certificate(p)
    assert got_kind == kind
    _assert_same_fields(io.decode_payload(got_kind, payload), obj)


def _assert_same_fields(back, obj):
    assert type(back) is type(obj)
    for f in dataclasses.fields(obj):
        want, got = getattr(obj, f.name), getattr(back, f.name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and np.array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("kind, payload, match", [
    ("coloring", {"colors": 3}, "'assignment'"),
    ("coloring", {"colors": 3, "assignment": ["x"]}, "invalid literal"),
    ("orthrep", {"dimension": 2, "vectors": [[[1.0, 0.0]]]}, r"\(n, 2\)"),
    ("orthrep", {"dimension": 1, "vectors": [[[np.nan, 0.0]]]}, "non-finite"),
    ("matrixrep", {"dimension": 2, "matrices": [[[1.0, 0.0]] * 3]},
     "3 entries, expected 4"),
    ("qcoloring", {"colors": 2, "rank": 1, "vectors": [[[[1.0, 0.0]]]]},
     "exactly 2"),
    ("qcoloring", {"colors": 2, "rank": 1,
                   "projectors": [[[[1.0, 0.0]] * 4, [[1.0, 0.0]] * 3]]},
     r"projector \(0,1\) has 3 entries"),
    ("qcoloring", {"colors": 2, "rank": 1}, "'projectors'"),
    ("psd-witness", {"rank": 2, "matrix": [[1.0, 0.0]] * 3}, "not square"),
    ("psd-witness", {"rank": 2, "matrix": [[1.0]]}, r"\[re, im\]"),
])
def test_malformed_payload_is_format_error(kind, payload, match):
    with pytest.raises(io.FormatError, match=f"malformed {kind} payload: .*{match}"):
        io.decode_payload(kind, payload)


def test_invalid_json_reports_path(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(io.FormatError, match="invalid JSON"):
        io.read_certificate(p)


# -- golden schema: bundled dataset files stay stable ------------------------------


def test_bundled_schema_golden():
    raw = json.loads((datasets.data_dir() / "yu-oh-13.json").read_text())
    assert set(raw) == {"dimension", "tolerance", "vectors"}
    assert raw["dimension"] == 3
    assert raw["tolerance"] == 1e-9
    assert len(raw["vectors"]) == 13
    first = raw["vectors"][0]
    assert set(first) == {"id", "coords"}
    assert first["id"] == "(0,0,1)"
    assert first["coords"] == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_peres_golden_counts():
    raw = json.loads((datasets.data_dir() / "peres-33.json").read_text())
    assert len(raw["vectors"]) == 33
    ids = [v["id"] for v in raw["vectors"]]
    assert len(set(ids)) == 33
    assert all(len(v["coords"]) == 3 for v in raw["vectors"])


# -- golden codec: documents and decoded bytes pinned -------------------------------


def _array_digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _golden_cases():
    """name -> (write(path), read(path) -> decoded object)."""
    def strategy(bits):
        s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(bits))
        return lambda p: io.write_strategy(s, p), io.read_strategy

    def certificate(kind, obj):
        def write(p):
            io.write_certificate(p, kind, io.encode_payload(kind, obj),
                                 io.make_metadata(1e-9, 1e-7, seed=1))

        def read(p):
            return io.decode_payload(*io.read_certificate(p)[:2])
        return write, read

    def vector_set(s, tol):
        return (lambda p: io.write_vector_set(s, p, tol),
                lambda p: io.read_vector_set(p)[0])

    rng = np.random.default_rng(40)
    rays = ks.VectorSet(4, rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4)),
                        tuple(f"r{i}" for i in range(40)))
    ids = ["coloring", "orthrep", "matrixrep", "qcoloring-vectors",
           "qcoloring-projectors", "psd-witness"]
    return {"omega4-strategy": strategy(4), "omega6-strategy": strategy(6),
            **{name: certificate(*ex) for name, ex in zip(ids, _codec_examples())},
            "yu-oh-13": vector_set(*datasets.load_vector_set("yu-oh-13")),
            "rays40": vector_set(rays, 1e-9)}


# name -> (sha256 of the file as written indented, digests of the decoded arrays)
GOLDEN_CODEC = {
    "omega4-strategy": ("1c6872096b845a40", ["120ac16cf7aa8201", "371d7ddf6a8a4a11",
                                             "cff19bac6efc2165"]),
    "omega6-strategy": ("26fff72aea0c95c2", ["dc249a440983a1ab", "7e7734999af471e4",
                                             "34b0f0f59a99b77c"]),
    "coloring": ("0e89bc4f9aad1bfd", []),
    "orthrep": ("1b481fd402009825", ["417623217174da02"]),
    "matrixrep": ("4da578c1f2088fc6", ["1b00e6d08e23f4be"]),
    "qcoloring-vectors": ("fa830657906498d4", ["85d130276da8ee1c"]),
    "qcoloring-projectors": ("666438fea894db49", ["e61d2b495a571979"]),
    "psd-witness": ("a3cf4c599c1fb9c6", ["2d8c3894ed41c750"]),
    "yu-oh-13": ("0ddcada9193a198d", ["fe39274ecdae0220"]),
    "rays40": ("3d7ddba9b4456323", ["70f249df158a10fd"]),
}


@pytest.mark.parametrize("name", list(GOLDEN_CODEC))
def test_codec_golden(tmp_path, name):
    write, read = _golden_cases()[name]
    want_file, want_arrays = GOLDEN_CODEC[name]
    p = tmp_path / "doc.json"
    write(p)
    # the document, indented as files were once written, is the pinned file
    indented = json.dumps(json.loads(p.read_text()), indent=1) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest()[:16] == want_file
    old = tmp_path / "indented.json"
    old.write_text(indented)
    for path in (p, old):
        obj = read(path)
        got = [_array_digest(getattr(obj, f.name)) for f in dataclasses.fields(obj)
               if isinstance(getattr(obj, f.name), np.ndarray)]
        assert got == want_arrays


# -- the array writer: byte-identical to json's compact form -----------------------


def _parent_bytes(monkeypatch, build) -> bytes:
    """The reference writer: _pack's pairs as nested lists (.tolist()), then
    json.dumps(allow_nan=False), as every file was once written."""
    pack = io._pack
    with monkeypatch.context() as m:
        m.setattr(io, "_pack", lambda a, keep: pack(a, keep).tolist())
        doc = build()
    return (json.dumps(doc, allow_nan=False) + "\n").encode()


def _zero_strategy(n, c, d):
    """Zero operators on n vertices with c colors; either may be 0."""
    ops = np.zeros((n, c, d, d), dtype=complex)
    return game.POVMStrategy(c, d, d, np.arange(d * d) / 7, ops, ops)


def _writer_cases():
    """name -> () -> document, built afresh under whichever _pack is active."""
    rng = np.random.default_rng(12)
    edge = np.array([-0.0, 0.0, complex(0.0, -0.0), -0.0j, 5e-324, -5e-324,
                     1e308, -1e308, 0.1, 1.0, 1e16, 1e-7, 2.0 ** 70, 1 / 3])
    odd_labels = ks.VectorSet(2, rng.normal(size=(3, 2)) + 0j,
                              ('say "hi"', "back\\slash", "ω-ray é ✓"))
    table = rng.normal(size=(16, 4, 8, 8)) + 1j * rng.normal(size=(16, 4, 8, 8))
    cases = {
        f"codec-{i}-{kind}": (lambda kind=kind, obj=obj: io.certificate_to_dict(
            kind, io.encode_payload(kind, obj), io.make_metadata(1e-9, 1e-7, seed=2)))
        for i, (kind, obj) in enumerate(_codec_examples())}
    cases.update({
        "odd-labels": lambda: io.vector_set_to_dict(odd_labels, 1e-9),
        "no-vertices": lambda: io.strategy_to_dict(_zero_strategy(0, 3, 2)),
        "no-colors": lambda: io.strategy_to_dict(_zero_strategy(4, 0, 2)),
        "edge-values": lambda: io.certificate_to_dict(
            "orthrep", io.encode_payload(
                "orthrep", reps.OrthogonalRepresentation(2, edge.reshape(7, 2))),
            io.make_metadata(1e-9, 1e-7)),
        "all-distinct": lambda: io.strategy_to_dict(game.POVMStrategy(
            4, 8, 8, np.ones(64), table, table)),
    })
    return cases


@pytest.mark.parametrize("name", list(_writer_cases()))
def test_writer_matches_json_dumps(tmp_path, monkeypatch, name):
    build = _writer_cases()[name]
    p = tmp_path / "doc.json"
    io.write_json(build(), p)
    assert p.read_bytes() == _parent_bytes(monkeypatch, build)


def test_writer_formats_signed_zero_and_subnormals():
    text = io._to_json(np.array([[-0.0, 0.0], [5e-324, 1e308]]))
    assert text == "[[-0.0, 0.0], [5e-324, 1e+308]]"
    assert io._to_json(np.zeros((2, 0, 2))) == "[[], []]"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writer_refuses_non_finite(tmp_path, bad):
    p = tmp_path / "doc.json"
    vectors = np.array([[1.0, bad]])
    with pytest.raises(ValueError, match="not JSON compliant"):
        io.write_json(io.vector_set_to_dict(ks.VectorSet(2, vectors, ("x",))), p)
    with pytest.raises(ValueError, match="not JSON compliant"):
        io.write_json({"tolerance": bad}, p)
    assert not p.exists()


def test_encoders_round_trip_in_memory():
    """Every encoder's output, arrays and all, decodes without a file."""
    empty = [("orthrep", reps.OrthogonalRepresentation(3, np.zeros((0, 3)))),
             ("orthrep", reps.OrthogonalRepresentation(0, np.zeros((0, 0)))),
             ("matrixrep", reps.MatrixRepresentation(2, np.zeros((0, 2, 2))))]
    for kind, obj in _codec_examples() + empty:
        _assert_same_fields(io.decode_payload(kind, io.encode_payload(kind, obj)), obj)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    _assert_same_fields(io.strategy_from_dict(io.strategy_to_dict(s)), s)
    vs, tol = datasets.load_vector_set("peres-33")
    back, back_tol = io.vector_set_from_dict(io.vector_set_to_dict(vs, tol))
    assert back_tol == tol and back.labels == vs.labels
    assert np.array_equal(back.vectors, vs.vectors)
