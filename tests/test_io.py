import dataclasses
import hashlib
import json
import re
import time

import numpy as np
import pytest

from conftest import as_tables, cycle
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
def test_factored_strategy_file_defects(edit, want):
    """A side's two forms exclude each other, and a defect in a vector
    field names the item at fault, as in an operator field."""
    x = np.eye(2, dtype=complex)[None].repeat(3, axis=0)
    doc = json.loads(io._to_json(io.strategy_to_dict(
        game.POVMStrategy(2, 2, 2, maximally_entangled(2), x, x.conj()))))
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
    from a dict and from a file (where [[1, 2]] reads as a pair array)."""
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
    """A kind that is not a string is refused with the same text whether the
    reader hands it over as an array or json.loads as a list."""
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
    """A pair array with a true in it is no flat array of numbers: it reaches
    the decoder as lists, which the decoder checks."""
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


# name -> (sha256 of the file as written indented, digests of the decoded arrays)
GOLDEN_CODEC = {
    "omega4-strategy": ("1c6872096b845a40", ["120ac16cf7aa8201", "371d7ddf6a8a4a11",
                                             "cff19bac6efc2165"]),
    "omega6-strategy": ("26fff72aea0c95c2", ["dc249a440983a1ab", "7e7734999af471e4",
                                             "34b0f0f59a99b77c"]),
    # the same strategies written factored read back as the same tables
    "omega4-factored": ("5a6ffe1676787166", ["120ac16cf7aa8201", "371d7ddf6a8a4a11",
                                             "cff19bac6efc2165"]),
    "omega6-factored": ("0550df3b605c2b01", ["dc249a440983a1ab", "7e7734999af471e4",
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
        payload = io.certificate_to_dict(kind, obj, {})["payload"]
        _assert_same_fields(io.decode_payload(kind, payload), obj)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(4))
    _assert_same_fields(io.strategy_from_dict(io.strategy_to_dict(s)), s)
    vs, tol = datasets.load_vector_set("peres-33")
    back, back_tol = io.vector_set_from_dict(io.vector_set_to_dict(vs, tol))
    assert back_tol == tol and back.labels == vs.labels
    assert np.array_equal(back.vectors, vs.vectors)


# -- the reader: pair arrays in one flat parse, everything else as json.loads -------


def _stdlib(text):
    """What json.loads, as qcolor once read every file, makes of text."""
    try:
        return json.loads(text, parse_constant=io._reject_constant)
    except ValueError as err:  # FormatError for a NaN or an infinity
        return err


def _reader(text):
    try:
        return json.loads(text, cls=io._Reader)
    except ValueError as err:
        return err


def _same_document(got, want) -> bool:
    """Equal values, a pair array bit-identical to the nested lists read as
    floats, and equal errors."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    if isinstance(got, np.ndarray):
        ref = np.array(want, dtype=float)
        return (got.dtype == float and got.ndim >= 2 and got.shape == ref.shape
                and got.shape[-1] == 2 and got.tobytes() == ref.tobytes())
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


def test_reader_hand_made_pair_arrays():
    """Near misses of a pair array, on their own, one and two objects down,
    and each bad number inside a pair: the stdlib's outcome every time."""
    numbers = [h[1:-1] for h in _HAND_MADE[6:]]
    arrays = _HAND_MADE + [f"[[{x}, 0]]" for x in numbers] + [
        f"[[0, 1], [{x}, 2]]" for x in numbers] + ["[[1, 2]]", "[[[1, 2]]]",
                                                   "[[1,2,3]]", "[[1,2],[3]]"]
    for a in arrays:
        for text in (a, f'{{"a": {a}}}', f'{{"p": {{"a": {a}, "b": 1}}}}'):
            assert _same_document(_reader(text), _stdlib(text)), text


def test_reader_matches_json_loads_on_mutations():
    """Insertions, deletions and substitutions in and around small pair
    arrays: the reader accepts and rejects what json.loads does, with the
    same values bit for bit and the same error text."""
    rng = np.random.default_rng(17)
    alphabet = list("[]{},:\" \n0123456789.eE+-Nx")
    seeds = _READER_SEEDS + [json.dumps(json.loads(s), indent=1)
                             for s in _READER_SEEDS]
    accepted = pairs = 0
    for _ in range(8000):
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
        got, want = _reader(text), _stdlib(text)
        assert _same_document(got, want), text
        accepted += not isinstance(want, Exception)
        pairs += isinstance(got, dict) and any(
            isinstance(v, np.ndarray) for v in got.values())
    assert 800 < accepted < 7200 and pairs > 300  # both outcomes were tried


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
def test_reader_edge_documents(text):
    assert _same_document(_reader(text), _stdlib(text))


def test_reader_deep_nesting_as_before():
    """Objects deeper than two and arrays past 32 axes are read by the
    stdlib scanner: 500 objects still read, and nesting far past Python's
    recursion limit fails there as it did."""
    text = '{"a": ' * 500 + "[[1, 2]]" + "}" * 500
    assert json.loads(text, cls=io._Reader) == _stdlib(text)
    for text in ("[" * 100_000 + "]" * 100_000,
                 "[" * 100_000 + "1, 2" + "]" * 100_000,
                 '{"a": ' * 100_000 + "1" + "}" * 100_000):
        with pytest.raises(RecursionError):
            json.loads(text, parse_constant=io._reject_constant)
        with pytest.raises(RecursionError):
            json.loads(text, cls=io._Reader)


def test_reader_distinct_numbers_bit_identical(tmp_path):
    """Past the float memo's cap (alice holds 8192 distinct numbers, so
    the memo gives up there and bob is read with plain floats) every
    number still reads back bit for bit."""
    rng = np.random.default_rng(3)
    table = rng.normal(size=(16, 4, 8, 8)) + 1j * rng.normal(size=(16, 4, 8, 8))
    s = game.POVMStrategy(4, 8, 8, np.ones(64) / 8, table, table[::-1] * 1e-300)
    p = tmp_path / "s.json"
    io.write_strategy(s, p)
    back = io.read_strategy(p)
    for f in ("state", "alice", "bob"):
        assert getattr(back, f).tobytes() == getattr(s, f).tobytes()


def test_float_memo_gives_up_at_its_cap():
    """The memo converts _MEMO_CAP distinct texts and refuses the next, so
    a file of mostly distinct numbers goes back to plain floats."""
    memo = io._FloatMemo()
    assert [memo[f"{i}.5"] for i in range(io._MEMO_CAP)][-1] == io._MEMO_CAP - 0.5
    assert memo["0.5"] == 0.5 and len(memo) == io._MEMO_CAP
    with pytest.raises(KeyError):
        memo["0.25"]


def test_reader_many_array_keys_in_linear_time():
    """An array's text ends at the next key, not at its object's end: 5000
    array-valued keys before 20 MB of whitespace read in a fraction of a
    second, where a scan to the object's end per array takes seconds."""
    text = ("{" + ", ".join(f'"k{i}": [{i}]' for i in range(5000))
            + ', "pairs": [[1, 2]], "pad": 0' + " " * 20_000_000 + "}")
    start = time.perf_counter()
    got = json.loads(text, cls=io._Reader)
    assert time.perf_counter() - start < 1.0
    assert _same_document(got, _stdlib(text))


def test_reader_files_bom_and_indentation(tmp_path):
    p = tmp_path / "doc.json"
    doc = {"kind": "orthrep", "payload": {"dimension": 2,
                                          "vectors": [[[1.5, 0], [0, -1]]]}}
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode())
    with pytest.raises(io.FormatError, match="Unexpected UTF-8 BOM"):
        io.read_certificate(p)
    p.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    _, payload, _ = io.read_certificate(p)
    assert _same_document(payload, doc["payload"])
    assert isinstance(payload["vectors"], np.ndarray)


def _decoded(kind, doc):
    """What a strategy (kind None) or certificate document decodes to: the
    object, or the text of the FormatError that rejects it."""
    try:
        if kind is None:
            return io.strategy_from_dict(doc)
        return io.decode_payload(*io.certificate_from_dict(doc)[:2])
    except io.FormatError as err:
        return str(err)


_SIZE = r'"(?:colors|dim_a|dim_b|rank|dimension)": (-?[0-9]+)'


def test_decoders_agree_on_arrays_and_lists_over_mutations():
    """Small strategy (tables, and vectors) and certificate files, compact
    and indented, mutated in their characters, their numbers and their
    declared sizes: each
    document the reader accepts decodes as its pair arrays and as
    json.loads's nested lists to the same object bit for bit, or to the
    same FormatError.  No other exception escapes, such as the allocation
    error a declared size of 2e9 once raised."""
    rng = np.random.default_rng(18)
    e0, e1 = np.diag([1.0 + 0j, 0]), np.diag([0j, 1.0])
    alice = np.array([[e0, e1], [e1, e0], [e0, e1]])
    vectors = np.eye(2, dtype=complex)[[[0, 1], [1, 0], [0, 1]]]
    docs = [(None, io.strategy_to_dict(game.POVMStrategy(2, 2, 2, maximally_entangled(2), *t)))
            for t in ((alice, alice.conj()), (vectors, vectors.conj()))]
    docs += [(kind, io.certificate_to_dict(kind, obj, {}))
             for kind, obj in _codec_examples()[1:]]
    seeds = [(n, text) for n, (_, doc) in enumerate(docs)
             for text in (io._to_json(doc), json.dumps(json.loads(io._to_json(doc)),
                                                       indent=1))]
    alphabet = list("[]{},:\" \n0123456789.eE+-x")
    numbers = ["0", "1", "2", "3", "-1", "2e9", "1e400", "0.5", "[]", "[[1, 0]]"]
    outcomes = set()
    for _ in range(1500):
        n, text = seeds[rng.integers(len(seeds))]
        kind = docs[n][0]
        for _ in range(rng.integers(1, 3)):
            edit = rng.integers(3)
            if edit < 2:  # a declared size, or any number
                spans = [m.span(1) for m in re.finditer(
                    _SIZE if edit else r"(-?[0-9][0-9.eE+-]*)", text)]
                i, j = spans[rng.integers(len(spans))] if spans else (0, 0)
                text = text[:i] + numbers[rng.integers(len(numbers))] + text[j:]
            else:
                spots = [i for i, ch in enumerate(text) if ch in "[],0123456789.eE+- "]
                i = spots[rng.integers(len(spots))]
                ch = alphabet[rng.integers(len(alphabet))]
                # substitute, delete or insert before
                text = text[:i] + [ch, "", ch + text[i]][rng.integers(3)] + text[i + 1:]
        try:
            doc = json.loads(text, cls=io._Reader)
        except ValueError:
            continue
        got = _decoded(kind, doc)
        want = _decoded(kind, json.loads(text, parse_constant=io._reject_constant))
        if isinstance(want, str):
            assert got == want, text
        else:
            assert type(got) is type(want), text
            for f in dataclasses.fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, np.ndarray):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                               b.tobytes()), text
                else:
                    assert a == b, text
        outcomes.add((n, isinstance(want, str)))
    assert len(outcomes) == 2 * len(docs)  # each file both decoded and refused


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


def test_read_certificate_gives_pair_arrays(tmp_path):
    """Complex payload fields come back as (..., 2) float arrays; lists,
    scalars and metadata as before; decode_payload takes either form."""
    for kind, obj in _codec_examples():
        p = tmp_path / f"{kind}.json"
        doc = io.certificate_to_dict(kind, obj,
                                     io.make_metadata(tol=1e-9, rank_tol=1e-7, seed=3))
        payload = doc["payload"]
        io.write_json(doc, p)
        _, back, meta = io.read_certificate(p)
        assert meta == json.loads(p.read_text())["metadata"]
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                assert type(back[key]) is np.ndarray and back[key].dtype == float
                assert back[key].shape == value.shape and value.shape[-1] == 2
                assert back[key].tobytes() == value.tobytes()
            else:
                assert type(back[key]) is type(value) and back[key] == value
        nested = {key: v.tolist() if isinstance(v, np.ndarray) else v
                  for key, v in back.items()}
        _assert_same_fields(io.decode_payload(kind, nested), obj)
