import base64
import dataclasses
import hashlib
import json
import math
import re
import string

import numpy as np
import pytest

from conftest import as_tables, as_text, cycle, text_pack
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
    for text, fault in (("p edge 2 1\nc x\np edge 2 1\n", "line 3: duplicate problem line"),
                        ("c x\np edge 2\n", "line 2: malformed problem line"),
                        ("p col 2 1\n", "line 1: malformed problem line"),
                        ("p edge two 1\n", "line 1: non-integer sizes"),
                        ("p edge 2 1.5\n", "line 1: non-integer sizes"),
                        ("c x\np edge -2 1\n", "line 2: negative sizes"),
                        ("p edge 2 -1\n", "line 1: negative sizes"),
                        ("p edge 2 1\ne 1 b\n", "line 2: non-integer endpoints")):
        with pytest.raises(io.FormatError, match=fault):
            io.parse_dimacs(text)


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
    ("[[true, false], [false, true]]", "vector 0 contains a non-number"),
    ("[[1, 0], [false, 1]]", "vector 0 contains a non-number"),
    ('[["1.5", 0], [0, " -2 "]]', "vector 0 contains a non-number"),
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
], ids=["ints", "bools", "bool-among-numbers", "numeric-strings", "int-beyond-int64", "empty",
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


@pytest.mark.parametrize("kind, payload, want", [
    ("coloring", '{"colors": 2, "assignment": [0.5, 1]}', "0.5 is not an integer"),
    ("coloring", '{"colors": 2.7, "assignment": [0, 1]}', "2.7 is not an integer"),
    ("orthrep", '{"dimension": 2.9, "vectors": [[[1, 0], [0, 0]]]}',
     "2.9 is not an integer"),
    ("coloring", '{"colors": 2.0, "assignment": [1.0, 0]}', (2, (1, 0))),
], ids=["assignment-0.5", "colors-2.7", "dimension-2.9", "integral-floats"])
def test_integer_fields_refuse_fractions(tmp_path, kind, payload, want):
    """An integer field reads a float only when it is integral: int() would
    read 2.7 colors as 2, and the file would still verify."""
    p = tmp_path / "c.json"
    p.write_text(f'{{"kind": "{kind}", "payload": {payload}}}')
    _, got, _ = io.read_certificate(p)
    if isinstance(want, str):
        with pytest.raises(io.FormatError, match=f"malformed {kind} payload: {want}"):
            io.decode_payload(kind, got)
    else:
        cert = io.decode_payload(kind, got)
        assert (cert.c, cert.colors) == want


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


def test_factored_strategy_files(tmp_path):
    """A factored side is written as its vector field, about d times smaller
    than its table, and reads back bit for bit as vectors; a strategy with
    one side of each form round-trips as it was."""
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(6))
    mixed = game.POVMStrategy(s.colors, s.dim_a, s.dim_b, s.state, s.sides[0], s.bob)
    sizes = {}
    for name, t in (("factored", s), ("mixed", mixed), ("tables", as_tables(s))):
        p = tmp_path / f"{name}.json"
        io.write_strategy(t, p)
        sizes[name] = p.stat().st_size
        doc = json.loads(p.read_text())
        back = io.read_strategy(p)
        assert list(doc) == ["colors", "dim_a", "dim_b", "state"] + [
            side + "_vectors" * (x.ndim == 3) for side, x in zip(("alice", "bob"), t.sides)]
        for got, want in zip((back.state, *back.sides), (t.state, *t.sides)):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    assert 5 * sizes["factored"] < sizes["tables"]


@pytest.mark.parametrize("edit, want", [
    (lambda d: d.update(alice=[[[[1, 0]]] * 2] * 2),
     "strategy gives alice both as operators and as vectors"),
    (lambda d: d.pop("bob_vectors"), "strategy missing or malformed field: 'bob'"),
    (lambda d: d["alice_vectors"][1][0].__setitem__(1, "x"),
     r"alice vector \(1,0\) contains a non-number"),
    (lambda d: d["bob_vectors"][0].pop(), "vertex 0 does not list exactly 2 operators"),
    (lambda d: d["bob_vectors"].pop(), "alice and bob cover different vertex counts"),
], ids=["both-forms", "no-bob", "bad-entry", "one-vector", "vertex-counts"])
def test_factored_strategy_file_defects(monkeypatch, edit, want):
    """A side's two forms exclude each other, and a defect in a vector
    field of a text-form file names the item at fault, as in an operator
    field."""
    x = np.eye(2, dtype=complex)[None].repeat(3, axis=0)
    doc = _text_document(monkeypatch, lambda: io.strategy_to_dict(
        game.POVMStrategy(2, 2, 2, maximally_entangled(2), x, x.conj())))
    edit(doc)
    with pytest.raises(io.FormatError, match=want):
        io.strategy_from_dict(doc)


# -- certificates -----------------------------------------------------------------


def test_certificate_roundtrip(tmp_path):
    p = tmp_path / "cert.json"
    io.write_json(io.certificate_to_dict("coloring", coloring.ColoringCertificate(2, (0, 1)),
                                         io.make_metadata(tol=1e-9, rank_tol=1e-7, seed=3)), p)
    kind, payload, meta = io.read_certificate(p)
    assert kind == "coloring"
    assert payload["assignment"] == [0, 1]
    assert meta["tool"] == "qcolor" and meta["seed"] == 3


def test_certificate_unknown_kind():
    with pytest.raises(io.FormatError, match="unknown certificate kind"):
        io.certificate_to_dict("nonsense", {}, {})
    with pytest.raises(io.FormatError, match="unknown certificate kind"):
        io.certificate_from_dict({"kind": "nonsense", "payload": {}})


def test_certificate_envelope_must_be_objects(tmp_path):
    """A certificate, its payload and its metadata must each be an object,
    from a dict and from a file."""
    for text, fault in (('[[1, 2]]', "certificate must be a JSON object"),
                        ('{"kind": "coloring", "payload": [[1, 2]]}',
                         "certificate payload must be an object"),
                        ('{"kind": "coloring", "payload": {}, "metadata": 3}',
                         "certificate metadata must be an object")):
        with pytest.raises(io.FormatError, match=fault):
            io.certificate_from_dict(json.loads(text))
        p = tmp_path / "cert.json"
        p.write_text(text)
        with pytest.raises(io.FormatError, match=fault):
            io.read_certificate(p)


@pytest.mark.parametrize("kind", ["[[1, 2]]", "[[1, 2], [3, 4]]", "3", "null", "{}"])
def test_non_string_kind_has_one_text_in_both_reader_forms(tmp_path, kind):
    """A kind that is not a string is refused with the same text from a file
    and from a dict."""
    text = '{"kind": ' + kind + ', "payload": {}}'
    p = tmp_path / "cert.json"
    p.write_text(text)
    with pytest.raises(io.FormatError) as from_file:
        io.read_certificate(p)
    with pytest.raises(io.FormatError) as from_lists:
        io.certificate_from_dict(json.loads(text))
    assert str(from_file.value) == str(from_lists.value) == (
        "unknown certificate kind (not a string)")


def test_removed_ks_witness_kind_is_unknown():
    assert "ks-witness" not in io.CODECS
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
    return reps.QuantumColoring(3, 2, projs)


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
        ("theta", reps.ThetaCertificate(z(4, 4).real)),
    ]


@pytest.mark.parametrize("kind, obj", _codec_examples(),
                         ids=["coloring", "orthrep", "matrixrep",
                              "qcoloring-vectors", "qcoloring-projectors",
                              "psd-witness", "theta"])
def test_payload_roundtrip(tmp_path, kind, obj):
    p = tmp_path / "cert.json"
    io.write_json(io.certificate_to_dict(kind, obj,
                                         io.make_metadata(tol=1e-9, rank_tol=1e-7)), p)
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
    ("psd-witness", {"rank": -1, "matrix": [[1.0, 0.0]]}, "rank must be >= 0"),
    ("theta", {"matrix": [[1.0, 0.0]] * 3}, "theta matrix is not square"),
    ("theta", {"matrix": [[1.0, 0.5]]}, "must be real"),
    ("theta", {}, "'matrix'"),
    ("qcoloring", {"colors": 2, "rank": 1,
                   "vectors": [[[[1.0, 0.0]], [[0.0, 1.0]]],
                               [[[1.0, 0.0]], [[float("1e400"), 0.0]]],
                               [[[1.0, 0.0]], [[0.0, 1.0]]]]},
     r"vector \(1,1\) contains a non-number or a non-finite value"),
    ("qcoloring", {"colors": 2, "rank": 1,
                   "vectors": [[[[1.0, 0.0]], [[0.0, 1.0]]]] * 2 + [[[[1.0, 0.0]]]]},
     "vertex 2 does not list exactly 2 operators"),
    ("orthrep", {"dimension": 1, "vectors": [[[1.0, 0.0]]] * 2 + [[["x", 0.0]]]},
     "vector 2 contains a non-number"),
    ("matrixrep", {"dimension": 2, "matrices": [[[1.0, 0.0]] * 4, [[1.0, 0.0]] * 3]},
     "matrix 1 has 3 entries, expected 4"),
    ("orthrep", {"dimension": 1, "vectors": {"shape": [0, 2 ** 62], "c16": ""}},
     r"vector has shape \[0, 4611686018427387904\]: array is too big"),
    ("qcoloring", {"colors": 2, "rank": 1, "vectors": {"shape": [1, 3, 0], "c16": ""}},
     r"vector has shape \[1, 3, 0\], expected \[\*, 2, \*\]"),
])
def test_malformed_payload_is_format_error(kind, payload, match):
    with pytest.raises(io.FormatError, match=f"malformed {kind} payload: .*{match}"):
        io.decode_payload(kind, payload)


@pytest.mark.parametrize("read, data", [
    (io.vector_set_from_dict, {"dimension": True, "vectors": [{"coords": [[1, 0]]}]}),
    (io.vector_set_from_dict,
     {"dimension": 1, "tolerance": True, "vectors": [{"coords": [[1, 0]]}]}),
    (io.strategy_from_dict, {"colors": True, "dim_a": 1, "dim_b": 1, "state": [[1, 0]],
                             "alice": [[[[1, 0]]]], "bob": [[[[1, 0]]]]}),
], ids=["vector-set-dimension", "vector-set-tolerance", "strategy-colors"])
def test_json_booleans_are_not_numbers(read, data):
    """A JSON true in an integer or float field is refused, not read as 1."""
    with pytest.raises(io.FormatError, match="True is not a number"):
        read(data)


_VECTOR = {"dimension": 1, "vectors": [{"coords": [[1, 0]]}]}
_STRATEGY = {"colors": 1, "dim_a": 1, "dim_b": 1, "state": [[1, 0]],
             "alice": [[[[1, 0]]]], "bob": [[[[1, 0]]]]}


@pytest.mark.parametrize("read, data, match", [
    (io.vector_set_from_dict, {**_VECTOR, "dimension": "1"}, r"'1' is not a number \(dimension\)"),
    (io.vector_set_from_dict, {**_VECTOR, "tolerance": "1e-9"},
     r"'1e-9' is not a number \(tolerance\)"),
    (io.vector_set_from_dict, {**_VECTOR, "vectors": [{"coords": [["1.5", 0]]}]},
     "vector 0 contains a non-number"),
    (io.vector_set_from_dict, {**_VECTOR, "vectors": [{"coords": [[True, 0]]}]},
     "vector 0 contains a non-number"),
    (io.vector_set_from_dict,
     {"dimension": 2, "vectors": [{"coords": [[1, 0], [0, 0]]}, {"coords": [[0, 0], [False, 1]]}]},
     "vector 1 contains a non-number"),
    (io.strategy_from_dict, {**_STRATEGY, "colors": "1"}, r"'1' is not a number \(colors\)"),
    (io.strategy_from_dict, {**_STRATEGY, "state": [["1", 0]]}, "state contains a non-number"),
    (io.strategy_from_dict, {**_STRATEGY, "bob": [[[[True, 0]]]]},
     r"bob operator \(0,0\) contains a non-number"),
    (io.strategy_from_dict, {"colors": 1, "dim_a": 1, "dim_b": 1, "state": [[1, 0]],
                             "alice_vectors": [[[[1, "0"]]]], "bob": [[[[1, 0]]]]},
     r"alice vector \(0,0\) contains a non-number"),
    (lambda p: io.decode_payload("orthrep", p), {"dimension": "1", "vectors": [[[1, 0]]]},
     r"'1' is not a number \(dimension\)"),
    (lambda p: io.decode_payload("orthrep", p), {"dimension": 1, "vectors": [[[1, 0]], [[True, 0]]]},
     "vector 1 contains a non-number"),
    (lambda p: io.decode_payload("coloring", p), {"colors": 2, "assignment": "01"},
     r"'0' is not a number \(assignment 0\)"),
], ids=["vector-set-dimension", "vector-set-tolerance", "coords-string", "coords-boolean",
        "coords-boolean-among-numbers", "strategy-colors", "strategy-state-string",
        "strategy-table-boolean", "strategy-vectors-string", "orthrep-dimension",
        "orthrep-vectors-boolean", "coloring-assignment-string"])
def test_json_strings_and_booleans_are_not_numbers(read, data, match):
    """float() and int() read "1.5" and true as numbers, and np.asarray a
    boolean among numbers (np.asarray([[True, 0]]) is int64): each is refused
    with its field or item named."""
    with pytest.raises(io.FormatError, match=match):
        read(data)


def test_read_strategy_refuses_booleans_in_pairs(tmp_path):
    """A true among [re, im] pairs is no number: np.asarray would read it as
    1, so the decoder checks each leaf's type."""
    p = tmp_path / "s.json"
    p.write_text(json.dumps({**_STRATEGY, "alice": [[[[True, 0]]]]}))
    with pytest.raises(io.FormatError, match=r"alice operator \(0,0\) contains a non-number"):
        io.read_strategy(p)


def test_lists_of_numpy_numbers_still_read():
    """The leaf check takes numpy's numbers as numbers: rows of an ndarray,
    and numpy scalars, in a list."""
    s, _ = io.vector_set_from_dict({"dimension": 2, "vectors": [
        {"coords": list(np.array([[0.6, 0.0], [0.0, 0.8]]))},
        {"coords": [[np.int64(0), np.float32(0)], [1, 0.0]]}]})
    assert np.array_equal(s.vectors, [[0.6, 0.8j], [0, 1]])


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
    def strategy(bits, form=as_tables):
        s = form(game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(bits)))
        return lambda p: io.write_strategy(s, p), io.read_strategy

    def certificate(kind, obj):
        def write(p):
            meta = io.make_metadata(tol=1e-9, rank_tol=1e-7, seed=1)
            io.write_json(io.certificate_to_dict(kind, obj, meta), p)

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
            "omega4-factored": strategy(4, lambda s: s),
            "omega6-factored": strategy(6, lambda s: s),
            **{name: certificate(*ex) for name, ex in zip(ids, _codec_examples())},
            "yu-oh-13": vector_set(*datasets.load_vector_set("yu-oh-13")),
            "rays40": vector_set(rays, 1e-9)}


# name -> (sha256 of the file as written, sha256 of the same document in the text
# form, indented, as files were written before the binary form, digests of the
# decoded arrays)
GOLDEN_CODEC = {
    "omega4-strategy": ("2d6b3425f868af07", "1c6872096b845a40",
                        ["120ac16cf7aa8201", "371d7ddf6a8a4a11",
                         "cff19bac6efc2165"]),
    "omega6-strategy": ("b5d919e17a7e0f1d", "26fff72aea0c95c2",
                        ["dc249a440983a1ab", "7e7734999af471e4",
                         "34b0f0f59a99b77c"]),
    # the same strategies written factored read back as the same tables
    "omega4-factored": ("3c28aa8a569d466d", "5a6ffe1676787166",
                        ["120ac16cf7aa8201", "371d7ddf6a8a4a11",
                         "cff19bac6efc2165"]),
    "omega6-factored": ("e3e7f7ec276fd768", "0550df3b605c2b01",
                        ["dc249a440983a1ab", "7e7734999af471e4",
                         "34b0f0f59a99b77c"]),
    "coloring": ("0bf5f6b0dbeea43f", "0e89bc4f9aad1bfd", []),
    "orthrep": ("7025dd1a437aabe5", "1b481fd402009825", ["417623217174da02"]),
    "matrixrep": ("b04e3c1e436e4170", "4da578c1f2088fc6", ["1b00e6d08e23f4be"]),
    "qcoloring-vectors": ("db903b33c7f37198", "fa830657906498d4", ["85d130276da8ee1c"]),
    "qcoloring-projectors": ("b908305628023143", "666438fea894db49", ["e61d2b495a571979"]),
    "psd-witness": ("ccc65b18572f11fb", "a3cf4c599c1fb9c6", ["2d8c3894ed41c750"]),
    "yu-oh-13": ("70bb360e25d0550a", "0ddcada9193a198d", ["fe39274ecdae0220"]),
    "rays40": ("869b5ad25be2cbec", "3d7ddba9b4456323", ["70f249df158a10fd"]),
}


@pytest.mark.parametrize("name", list(GOLDEN_CODEC))
def test_codec_golden(tmp_path, monkeypatch, name):
    """The file as written, and the same document written by the text-form
    writer (whose indented bytes are the pins of the files written before
    the binary form), read back to the pinned arrays bit for bit."""
    write, read = _golden_cases()[name]
    want_file, want_text, want_arrays = GOLDEN_CODEC[name]
    p, old = tmp_path / "doc.json", tmp_path / "old.json"
    write(p)
    assert hashlib.sha256(p.read_bytes()).hexdigest()[:16] == want_file
    with monkeypatch.context() as m:
        m.setattr(io, "_pack", text_pack)
        write(old)
    indented = json.dumps(json.loads(old.read_text()), indent=1) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest()[:16] == want_text
    for path in (p, old):
        obj = read(path)
        got = [_array_digest(getattr(obj, f.name)) for f in dataclasses.fields(obj)
               if isinstance(getattr(obj, f.name), np.ndarray)]
        assert got == want_arrays


# -- the writer: json.dumps, each array one {"shape", "c16"} object ----------------


def _text_document(monkeypatch, build):
    """The document build() makes, every array in the text form."""
    with monkeypatch.context() as m:
        m.setattr(io, "_pack", text_pack)
        return build()


def _parent_bytes(monkeypatch, build) -> bytes:
    """The reference writer: the text form, then json.dumps(allow_nan=False),
    as every file was once written."""
    return (json.dumps(_text_document(monkeypatch, build), allow_nan=False) + "\n").encode()


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
            kind, obj, io.make_metadata(tol=1e-9, rank_tol=1e-7, seed=2)))
        for i, (kind, obj) in enumerate(_codec_examples())}
    cases.update({
        "odd-labels": lambda: io.vector_set_to_dict(odd_labels, 1e-9),
        "no-vertices": lambda: io.strategy_to_dict(_zero_strategy(0, 3, 2)),
        "no-colors": lambda: io.strategy_to_dict(_zero_strategy(4, 0, 2)),
        "edge-values": lambda: io.certificate_to_dict(
            "orthrep", reps.OrthogonalRepresentation(2, edge.reshape(7, 2)),
            io.make_metadata(tol=1e-9, rank_tol=1e-7)),
        "all-distinct": lambda: io.strategy_to_dict(game.POVMStrategy(
            4, 8, 8, np.ones(64), table, table)),
    })
    return cases


@pytest.mark.parametrize("name", list(_writer_cases()))
def test_writer_matches_json_dumps(tmp_path, monkeypatch, name):
    """A file is json.dumps of its document; with each array's bytes spelled
    out as [re, im] pairs it is byte for byte what the text-form writer
    wrote: keys, order, labels and numbers, -0.0 and subnormals included."""
    build = _writer_cases()[name]
    p = tmp_path / "doc.json"
    io.write_json(build(), p)
    doc = json.loads(p.read_text())
    assert p.read_text() == json.dumps(doc) + "\n"
    assert (json.dumps(as_text(doc)) + "\n").encode() == _parent_bytes(monkeypatch, build)


def test_writer_formats_signed_zero_and_subnormals():
    """-0.0, subnormals and 1e308 keep their bits through _pack and _unpack,
    and an empty axis keeps its length."""
    a = np.array([[-0.0, 0.0], [5e-324, 1e308], [0.0, -5e-324]]).view(complex)
    packed = io._pack(a, 1)
    assert packed["shape"] == [3, 1]
    assert io._unpack(packed, None, "x", (None,)).tobytes() == a.tobytes()
    assert io._pack(np.zeros((2, 0)), 1) == {"shape": [2, 0], "c16": ""}


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
        payload = io.certificate_to_dict(kind, obj, {})["payload"]
        _assert_same_fields(io.decode_payload(kind, payload), obj)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    _assert_same_fields(io.strategy_from_dict(io.strategy_to_dict(s)), s)
    vs, tol = datasets.load_vector_set("peres-33")
    back, back_tol = io.vector_set_from_dict(io.vector_set_to_dict(vs, tol))
    assert back_tol == tol and back.labels == vs.labels
    assert np.array_equal(back.vectors, vs.vectors)


# -- the reader: json.loads, every refusal a FormatError ----------------------------


def _stdlib(text):
    """What json.loads, NaN and infinities refused, makes of text."""
    try:
        return json.loads(text, parse_constant=io._reject_constant)
    except ValueError as err:  # FormatError for a NaN or an infinity
        return err


def _reader(tmp_path, text):
    """What io reads from a file holding text: the document, or the
    FormatError that refuses it."""
    p = tmp_path / "doc.json"
    p.write_text(text, encoding="utf-8")
    try:
        return io._load_json(p)
    except io.FormatError as err:
        return err


def _same_document(got, want) -> bool:
    """Equal values of equal types, or a FormatError that carries the
    stdlib's error text."""
    if isinstance(want, Exception):
        return type(got) is io.FormatError and str(want) in str(got)
    if isinstance(got, dict):
        return (isinstance(want, dict) and list(got) == list(want)
                and all(_same_document(got[k], want[k]) for k in got))
    if isinstance(got, list):
        return (isinstance(want, list) and len(got) == len(want)
                and all(map(_same_document, got, want)))
    return type(got) is type(want) and repr(got) == repr(want)


_READER_SEEDS = [
    '{"colors": 1, "state": [[1.0, 0.0], [0.5, -2]], "alice": [[[[1, 0], '
    '[0, 1e-3]]], [[[2.5, 0], [0, 0]]]], "tag": "x"}',
    '{"kind": "orthrep", "payload": {"dimension": 2, "vectors": [[[1, 0], [0, 1]], '
    '[[-0.0, 1E2], [3, 4]]]}, "metadata": {"tol": 1e-9}}',
    '[[1, 2], [3, 4]]',
    '{"a": [[[1, 2]], [[3, 4]]], "b": [1, 2], "c": [[1, 2, 3]], '
    '"d": {"e": {"f": [[1, 2]]}}}',
]

_HAND_MADE = ["[1[,2]]", "[[1,2]3,4]", "[[1,2],[3 4]]", "[[1,2],[3,4]5]",
              "[[1,2][3,4]]", "[[1,2],,[3,4]]", "[1.]", "[.5]", "[01]", "[+1]",
              "[1e]", "[-]"]


def test_reader_hand_made_pair_arrays(tmp_path):
    """Near misses of a pair array, on their own, one and two objects down,
    and each bad number inside a pair: the stdlib's outcome every time."""
    numbers = [h[1:-1] for h in _HAND_MADE[6:]]
    arrays = _HAND_MADE + [f"[[{x}, 0]]" for x in numbers] + [
        f"[[0, 1], [{x}, 2]]" for x in numbers] + ["[[1, 2]]", "[[[1, 2]]]",
                                                   "[[1,2,3]]", "[[1,2],[3]]"]
    for a in arrays:
        for text in (a, f'{{"a": {a}}}', f'{{"p": {{"a": {a}, "b": 1}}}}'):
            assert _same_document(_reader(tmp_path, text), _stdlib(text)), text


def test_reader_matches_json_loads_on_mutations(tmp_path):
    """Insertions, deletions and substitutions in and around small pair
    arrays and binary-form arrays: the file reader accepts what json.loads
    does, with the same values, and refuses the rest with a FormatError
    that carries json's own error text."""
    rng = np.random.default_rng(17)
    alphabet = list("[]{},:\" \n0123456789.eE+-Nx")
    binary = json.dumps(io.certificate_to_dict(
        "orthrep", reps.OrthogonalRepresentation(2, np.eye(2)), {}))
    seeds = _READER_SEEDS + [binary] + [json.dumps(json.loads(s), indent=1)
                                        for s in _READER_SEEDS + [binary]]
    accepted = 0
    for _ in range(2000):
        text = list(seeds[rng.integers(len(seeds))])
        for _ in range(rng.integers(1, 4)):
            spots = [i for i, ch in enumerate(text) if ch in "[],0123456789.eE+- "]
            i = spots[rng.integers(len(spots))]
            edit = rng.integers(3)
            if edit == 0:
                text.insert(i, alphabet[rng.integers(len(alphabet))])
            elif edit == 1:
                del text[i]
            else:
                text[i] = alphabet[rng.integers(len(alphabet))]
        text = "".join(text)
        want = _stdlib(text)
        assert _same_document(_reader(tmp_path, text), want), text
        accepted += not isinstance(want, Exception)
    assert 200 < accepted < 1800  # both outcomes were tried


@pytest.mark.parametrize("text", [
    '{"a": [[NaN, 0]]}', '{"a": [[1, Infinity]]}', '{"a": [[-Infinity, 0]]}',
    '{"a": NaN}', '{"a": [[1, 2]]} x', '{"a": [[1, 2]]}}', '[[1, 2]] [[3, 4]]',
    '{"a": [[1, 2]], "a": [[3, 4]]}', '{"a": [[1, 2]],, "b": 1}',
    '{"a": [[1, 2]] "b": 1}', '{"a": [[1, 2], "b": 1}', '{"a": [[1, 2]]',
    '{"a": [[1, 2]], "b": [[true, 2]], "c": [[null, 2]], "d": [["1", 2]]}',
    '{"a": [[1%s, 0]]}' % ("0" * 400), '{"a": [[1%s, 0]]}' % ("0" * 5000),
    '{"a": [[1e400, 0]]}', '{"a": [[1, 2]], "é": [[3, 4]]}',
    '{"a": [[١, 0]]}', '{"a": 1١}',
    "[" * 40 + "1, 2" + "]" * 40, "[" * 100 + "]" * 100,
], ids=["nan-in-pair", "infinity-in-pair", "minus-infinity", "nan-scalar",
        "trailing-data", "trailing-brace", "two-documents", "duplicate-keys",
        "double-comma", "missing-comma", "unclosed-pair-array", "unclosed-object",
        "non-numbers", "401-digits", "5001-digits", "1e400", "unicode-key",
        "unicode-digit", "unicode-digit-scalar", "40-axes", "100-empty-arrays"])
def test_reader_edge_documents(tmp_path, text):
    assert _same_document(_reader(tmp_path, text), _stdlib(text))


def test_reader_deep_nesting_as_before(tmp_path):
    """500 nested objects read as json.loads reads them; nesting far past
    Python's recursion limit is a FormatError, not a crash."""
    text = '{"a": ' * 500 + "[[1, 2]]" + "}" * 500
    assert _reader(tmp_path, text) == _stdlib(text)
    for text in ("[" * 100_000 + "]" * 100_000,
                 "[" * 100_000 + "1, 2" + "]" * 100_000,
                 '{"a": ' * 100_000 + "1" + "}" * 100_000):
        got = _reader(tmp_path, text)
        assert type(got) is io.FormatError and "JSON nested too deeply" in str(got)


def test_reader_distinct_numbers_bit_identical(tmp_path):
    """A strategy whose entries are all distinct, bob's scaled to 1e-300 and
    below (subnormals among them), reads back bit for bit."""
    rng = np.random.default_rng(3)
    table = rng.normal(size=(16, 4, 8, 8)) + 1j * rng.normal(size=(16, 4, 8, 8))
    s = game.POVMStrategy(4, 8, 8, np.ones(64) / 8, table, table[::-1] * 1e-300)
    p = tmp_path / "s.json"
    io.write_strategy(s, p)
    back = io.read_strategy(p)
    for f in ("state", "alice", "bob"):
        assert getattr(back, f).tobytes() == getattr(s, f).tobytes()


def test_reader_files_bom_and_indentation(tmp_path):
    """A byte-order mark is refused; an indented file reads as it was
    written, in the text form and in the binary form."""
    p = tmp_path / "doc.json"
    doc = {"kind": "orthrep", "payload": {"dimension": 2,
                                          "vectors": [[[1.5, 0], [0, -1]]]}}
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode())
    with pytest.raises(io.FormatError, match="Unexpected UTF-8 BOM"):
        io.read_certificate(p)
    binary = io.certificate_to_dict("orthrep", io.decode_payload("orthrep", doc["payload"]), {})
    for d in (doc, binary):
        p.write_text(json.dumps(d, indent=2), encoding="utf-8")
        _, payload, _ = io.read_certificate(p)
        assert _same_document(payload, d["payload"])
    assert as_text(binary["payload"]) == doc["payload"]


def _decoded(kind, doc):
    """What a strategy (kind None) or certificate document decodes to: the
    object, or the text of the FormatError that rejects it."""
    try:
        if kind is None:
            return io.strategy_from_dict(doc)
        return io.decode_payload(*io.certificate_from_dict(doc)[:2])
    except io.FormatError as err:
        return str(err)


def _assert_bit_identical(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b


_SIZE = r'"(colors|dim_a|dim_b|rank|dimension)": (-?[0-9]+)'
_ARRAY = r'\{"shape": \[[^\]]*\], "c16": "[^"]*"\}'


def test_decoders_agree_on_arrays_and_lists_over_mutations(monkeypatch):
    """Small strategy (tables, and vectors) and certificate documents in the
    binary form and in the text form, mutated three ways:

    - the text form, compact and indented, in its characters, its numbers
      and its declared sizes, as old files might be;
    - one declared size changed alike in both forms: both decode to the same
      object bit for bit, or both are refused with a FormatError;
    - the characters of one of the binary form's arrays.

    Each mutated document that json.loads accepts decodes to an object that
    writes and reads back bit for bit, or is refused with a FormatError; no
    other exception escapes, such as the allocation error a declared size
    of 2e9 once raised.  Each document, each way, is both decoded and
    refused."""
    rng = np.random.default_rng(18)
    e0, e1 = np.diag([1.0 + 0j, 0]), np.diag([0j, 1.0])
    alice = np.array([[e0, e1], [e1, e0], [e0, e1]])
    vectors = np.eye(2, dtype=complex)[[[0, 1], [1, 0], [0, 1]]]
    builds = [(None, lambda t=t: io.strategy_to_dict(
        game.POVMStrategy(2, 2, 2, maximally_entangled(2), *t)))
        for t in ((alice, alice.conj()), (vectors, vectors.conj()))]
    builds += [(kind, lambda kind=kind, obj=obj: io.certificate_to_dict(kind, obj, {}))
               for kind, obj in _codec_examples()[1:]]
    docs = [(kind, json.dumps(build()), _text_document(monkeypatch, build))
            for kind, build in builds]
    docs = [(kind, binary, json.dumps(text), [json.dumps(text), json.dumps(text, indent=1)])
            for kind, binary, text in docs]
    numbers = ["0", "1", "2", "3", "-1", "2e9", "1e400", "0.5", "[]", "[[1, 0]]"]
    text_alphabet = list("[]{},:\" \n0123456789.eE+-x")
    binary_alphabet = list("[]{},:\" \n0123456789=+/ABx-")
    outcomes = set()
    for _ in range(3000):
        n = int(rng.integers(len(docs)))
        kind, binary, text, text_files = docs[n]
        keys = [key for key, _ in re.findall(_SIZE, binary)]
        way = rng.integers(3)
        if way == 0:  # an old text file: 1-2 edits of a size, any number or a character
            mutated = text_files[rng.integers(2)]
            for _ in range(rng.integers(1, 3)):
                edit = rng.integers(3)
                if edit < 2:
                    spans = [m.span(2 if edit else 0) for m in re.finditer(
                        _SIZE if edit else r"-?[0-9][0-9.eE+-]*", mutated)]
                    i, j = spans[rng.integers(len(spans))] if spans else (0, 0)
                    mutated = mutated[:i] + numbers[rng.integers(len(numbers))] + mutated[j:]
                else:
                    spots = [i for i, ch in enumerate(mutated) if ch in "[],0123456789.eE+- "]
                    i = spots[rng.integers(len(spots))]
                    ch = text_alphabet[rng.integers(len(text_alphabet))]
                    # substitute, delete or insert before
                    mutated = (mutated[:i] + [ch, "", ch + mutated[i]][rng.integers(3)]
                               + mutated[i + 1:])
            way = "text"
        elif keys and way == 1:  # a declared size, alike in both forms
            key, value = keys[rng.integers(len(keys))], numbers[rng.integers(len(numbers))]
            got, want = (_decoded(kind, json.loads(re.sub(
                rf'"{key}": -?[0-9]+', f'"{key}": {value}', t, count=1))) for t in (binary, text))
            if isinstance(want, str):
                assert isinstance(got, str), (n, key, value)
            else:
                _assert_bit_identical(got, want)
            outcomes.add((n, "size", isinstance(want, str)))
            continue
        else:  # a character in, or next to, one of the binary form's arrays
            spans = [m.span() for m in re.finditer(_ARRAY, binary)]
            i, j = spans[rng.integers(len(spans))]
            i = int(rng.integers(i, j))
            ch = binary_alphabet[rng.integers(len(binary_alphabet))]
            mutated = binary[:i] + [ch, "", ch + binary[i]][rng.integers(3)] + binary[i + 1:]
            way = "binary"
        try:
            doc = json.loads(mutated, parse_constant=io._reject_constant)
        except ValueError:
            continue
        got = _decoded(kind, doc)
        if not isinstance(got, str):  # what decodes writes and reads back bit for bit
            again = (io.strategy_to_dict(got) if kind is None
                     else io.certificate_to_dict(kind, got, {}))
            _assert_bit_identical(_decoded(kind, json.loads(json.dumps(again))), got)
        outcomes.add((n, way, isinstance(got, str)))
    ways = [("text", "binary", "size")[:3 if re.search(_SIZE, d[1]) else 2] for d in docs]
    assert outcomes == {(n, way, refused) for n in range(len(docs))
                        for way in ways[n] for refused in (False, True)}


def _c16(a) -> str:
    return base64.b64encode(np.asarray(a, "<c16").tobytes()).decode()


def _entries(field, more: int = 0) -> str:
    """c16 of zeros for the entries field["shape"] declares, plus more."""
    return _c16(np.zeros(math.prod(field["shape"]) + more))


def _pad_bits(c16: str) -> str:
    """c16 with a pad bit of its last character set: b64decode reads the
    same bytes."""
    digits = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
    body = c16.rstrip("=")
    return body[:-1] + digits[digits.index(body[-1]) | 1] + c16[len(body):]


# name -> (edit of a {"shape", "c16"} field, what its refusal says after the
# field's name)
_BINARY_REFUSALS = {
    "base64-space": (lambda f: f.update(c16=" " + f["c16"]), "c16 is not strict base64"),
    "base64-alphabet": (lambda f: f.update(c16="!" + f["c16"][1:]), "c16 is not strict base64"),
    "base64-padding": (lambda f: f.update(c16=f["c16"][:-1]), "c16 is not strict base64"),
    "base64-not-ascii": (lambda f: f.update(c16="é" + f["c16"][1:]), "c16 is not strict base64"),
    "base64-excess-padding": (lambda f: f.update(c16=f["c16"] + "="), "c16 is not strict base64"),
    "base64-pad-bits": (lambda f: f.update(c16=_pad_bits(f["c16"])), "c16 is not strict base64"),
    "c16-not-a-string": (lambda f: f.update(c16=[0]), "c16 is not strict base64"),
    "bytes-short": (lambda f: f.update(c16=_entries(f, -1)), r"c16 holds \d+ bytes, expected 16"),
    "bytes-long": (lambda f: f.update(c16=_entries(f, 1)), r"c16 holds \d+ bytes, expected 16"),
    "extra-axis": (lambda f: f["shape"].insert(-1, 1), r"has shape \[.*\], expected \["),
    "entry-count": (lambda f: f.update(shape=f["shape"][:-1] + [f["shape"][-1] + 1])
                    or f.update(c16=_entries(f)), "has (shape|dimension)"),
    "shape-string": (lambda f: f.update(shape=[str(n) for n in f["shape"]]),
                     r"shape must be a list of non-negative integers: '\d+' is not a number"),
    "shape-boolean": (lambda f: f["shape"].__setitem__(0, True),
                      "shape must be a list of non-negative integers: True is not a number"),
    "shape-negative": (lambda f: f["shape"].__setitem__(0, -1),
                       "shape must be a list of non-negative integers: -1 is negative"),
    "shape-fraction": (lambda f: f["shape"].__setitem__(0, 0.5),
                       "shape must be a list of non-negative integers: 0.5 is not an integer"),
    "shape-not-a-list": (lambda f: f.update(shape=2), "shape must be a list of non-negative"),
    "shape-missing": (lambda f: f.pop("shape"), "shape must be a list of non-negative"),
    "nan": (lambda f: f.update(c16=_c16(np.full(math.prod(f["shape"]), np.nan))),
            "contains a non-finite value"),
    "infinity": (lambda f: f.update(c16=_c16(np.full(math.prod(f["shape"]), 1j * np.inf))),
                 "contains a non-finite value"),
}

_TABLE = np.array([[np.diag([1.0 + 0j, 0]), np.diag([0j, 1.0])]] * 3)

# reader -> (document, its field under test, read(path), the field's name)
_BINARY_READERS = {
    "read_strategy": (lambda: io.strategy_to_dict(game.POVMStrategy(
        2, 2, 2, maximally_entangled(2), _TABLE, _TABLE)), lambda d: d["alice"],
        io.read_strategy, "alice operator"),
    "read_vector_set": (lambda: io.vector_set_to_dict(ks.VectorSet(
        2, np.eye(2, dtype=complex), ("a", "b"))), lambda d: d["vectors"][0]["coords"],
        io.read_vector_set, "vector 0"),
    "decode_payload": (lambda: io.certificate_to_dict("matrixrep", reps.MatrixRepresentation(
        2, _TABLE[:, 0]), {}), lambda d: d["payload"]["matrices"],
        lambda p: io.decode_payload(*io.read_certificate(p)[:2]), "matrix"),
}


def _binary_cases():
    """(refusal, reader) pairs: all, but an excess "=" only after a field
    with no padding, and pad bits only in a field with padding."""
    for refusal in _BINARY_REFUSALS:
        for reader, (build, field, *_) in _BINARY_READERS.items():
            padded = field(build())["c16"].endswith("=")
            if (refusal, padded) not in (("base64-excess-padding", True),
                                         ("base64-pad-bits", False)):
                yield pytest.param(refusal, reader, id=f"{refusal}-{reader}")


@pytest.mark.parametrize("refusal, reader", _binary_cases())
def test_binary_form_refusals_name_the_field(tmp_path, reader, refusal):
    """Each defect of a {"shape", "c16"} field is a FormatError (exit 2 in
    the CLI) that names the field, through each reader; a field has one
    spelling, b64encode's."""
    build, field, read, name = _BINARY_READERS[reader]
    edit, says = _BINARY_REFUSALS[refusal]
    doc = build()
    edit(field(doc))
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError, match=f"{name} (.* )?{says}"):
        read(p)


_PAIR_CONTRACT = [
    ("[[[[1, 0]], [[0, -1]]]]", [1, -1j]),
    (f"[[[[{2 ** 70}, 0]], [[0, 1]]]]", [2.0 ** 70, 1j]),
    ("[[[[1e400, 0]], [[0, 1]]]]",
     r"{op} \(0,0\) contains a non-number or a non-finite value"),
    (f"[[[[1{'0' * 400}, 0]], [[0, 1]]]]",
     r"{op} \(0,0\) contains a number beyond the float range"),
    ("[[[[1, 0]], [[0]]]]", r"{op} \(0,1\) (must be|contains a non-number or is "
                            r"not) \[re, im\] pairs"),
    ("[[[[1, 0]]]]", "vertex 0 does not list exactly 2 operators"),
    ("[[[[1, 0]], [[0, 1]], [[0, 1]]]]", "vertex 0 does not list exactly 2 operators"),
    ("[[[[1, 0]], [[1e400, 1]]]]",
     r"{op} \(0,1\) contains a non-number or a non-finite value"),
]
_PAIR_CONTRACT_IDS = ["ints", "int-beyond-int64", "1e400", "401-digits", "ragged",
                      "one-operator", "three-operators", "1e400-second-operator"]


@pytest.mark.parametrize("table, want", _PAIR_CONTRACT, ids=_PAIR_CONTRACT_IDS)
def test_strategy_operator_contract(tmp_path, table, want):
    """What an operator table may hold, as test_vector_coordinate_contract
    for coordinates: ints and large ints read exactly, and each defect is
    the FormatError that names the operator."""
    p = tmp_path / "s.json"
    p.write_text('{"colors": 2, "dim_a": 1, "dim_b": 1, "state": [[1, 0]], '
                 f'"alice": {table}, "bob": [[[[1, 0]], [[0, 0]]]]}}')
    if isinstance(want, str):
        with pytest.raises(io.FormatError, match=want.format(op="alice operator")):
            io.read_strategy(p)
    else:
        s = io.read_strategy(p)
        assert s.alice.dtype == complex
        assert np.array_equal(s.alice.ravel(), np.array(want, dtype=complex))


@pytest.mark.parametrize("table, want", _PAIR_CONTRACT, ids=_PAIR_CONTRACT_IDS)
def test_certificate_operator_contract(tmp_path, table, want):
    """The same contract for a rank-1 vector coloring certificate."""
    p = tmp_path / "c.json"
    p.write_text('{"kind": "qcoloring", "payload": {"colors": 2, "rank": 1, '
                 f'"vectors": {table}}}}}')
    kind, payload, _ = io.read_certificate(p)
    if isinstance(want, str):
        with pytest.raises(io.FormatError, match="malformed qcoloring payload: "
                           + want.format(op="vector")):
            io.decode_payload(kind, payload)
    else:
        qc = io.decode_payload(kind, payload)
        assert np.array_equal(qc.table.ravel(), np.array(want, dtype=complex))


def test_read_certificate_gives_binary_arrays(tmp_path):
    """Complex payload fields come back as the {"shape", "c16"} objects
    written; lists, scalars and metadata as before; decode_payload takes
    them and the text form's pairs alike."""
    for kind, obj in _codec_examples():
        p = tmp_path / f"{kind}.json"
        doc = io.certificate_to_dict(kind, obj,
                                     io.make_metadata(tol=1e-9, rank_tol=1e-7, seed=3))
        io.write_json(doc, p)
        _, payload, meta = io.read_certificate(p)
        assert (payload, meta) == (doc["payload"], doc["metadata"])
        for form in (payload, as_text(payload)):
            _assert_same_fields(io.decode_payload(kind, form), obj)
