import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (as_text, cycle, path_plus_triangle, petersen, text_pack,
                      umbrella_gram)
import qcolor
from qcolor import cli, coloring, game, io, ks, reps
from qcolor.graphs import complete_graph, hadamard_graph, make_graph
from qcolor.linalg import DEFAULT_RANK_TOL


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.col"
    p.write_text(io.write_dimacs(cycle(5)))
    return str(p)


@pytest.fixture
def k2_file(tmp_path):
    p = tmp_path / "k2.col"
    p.write_text(io.write_dimacs(complete_graph(2)))
    return str(p)


def winning_k2_strategy_file(tmp_path):
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 0], [0, 1]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    alice = np.array([[e0, e1, z], [e1, e0, z]])
    state = np.zeros(4, dtype=complex)
    state[0], state[3] = 0.8, 0.6
    s = game.POVMStrategy(3, 2, 2, state, alice, alice.conj())
    p = tmp_path / "strat.json"
    io.write_strategy(s, p)
    return str(p)


# -- report schema ---------------------------------------------------------------


# leaf command path -> (the FLAGS it takes, its argv on small inputs)
LEAVES = {
    ("chi",): (("budget",), ["chi", "{c5}"]),
    ("colorable",): (("budget",), ["colorable", "{c5}", "-c", "3"]),
    ("xi-bounds",): (("tol", "seed", "budget"), ["xi-bounds", "{c5}"]),
    ("chiq1",): (("tol", "seed", "budget"), ["chiq1", "{c5}", "--cmax", "3"]),
    ("verify-rep",): (("tol",), ["verify-rep", "{c5}", "{cert}"]),
    ("verify-qcoloring",): (("tol",), ["verify-qcoloring", "{c5}", "{cert}"]),
    ("psd-witness",): (("tol", "rank_tol"), ["psd-witness", "{c5}", "{witness}"]),
    ("hadamard-coloring",): (("tol",), ["hadamard-coloring", "-N", "2"]),
    ("ks-check",): (("tol", "budget"), ["ks-check", "yu-oh-13"]),
    ("game", "exact"): (("tol",), ["game", "exact", "{omega4}", "{s4}"]),
    ("game", "simulate"): (("seed",), ["game", "simulate", "{omega4}", "{s4}",
                                       "--rounds", "10"]),
    ("game", "normalize"): (("tol", "rank_tol"), ["game", "normalize", "{omega4}",
                                                  "{s4}"]),
    ("game", "check"): (("tol",), ["game", "check", "{omega4}", "{s4}"]),
}


def _leaf_argvs(tmp_path):
    """leaf path -> (its declared flags, its argv with the input files)."""
    files = {**_cli_inputs(tmp_path), "cert": tmp_path / "cert.json",
             "witness": write_witness(tmp_path, umbrella_gram(), 3)}
    files["cert"].write_text('{"kind": "coloring", "payload": '
                             '{"colors": 3, "assignment": [0, 1, 0, 1, 2]}}')
    leaves = dict(_leaves(cli.build_parser()))
    assert set(leaves) == set(LEAVES)
    return {path: (p.get_default("flags"), [a.format(**files) for a in LEAVES[path][1]])
            for path, p in leaves.items()}


def test_report_metadata_schema(capsys, tmp_path):
    """Each report's metadata holds the tool, its version and exactly the
    flags its command takes, at their defaults when none is given."""
    for path, (flags, argv) in _leaf_argvs(tmp_path).items():
        assert flags == LEAVES[path][0], path
        code, report, err = run(capsys, *argv)
        assert code in (0, 1) and report["command"] == " ".join(path), (path, report)
        assert report["metadata"] == {"tool": "qcolor", "version": qcolor.__version__,
                                      **{f: cli.FLAGS[f]["default"] for f in flags}}, path
    code, report, err = run(capsys, "chi", _cli_inputs(tmp_path)["c5"])
    assert code == 0 and "chi = 3" in err


def test_flags_recorded_in_metadata(capsys, tmp_path):
    """Every flag a command takes is recorded as given, and a certificate
    the run writes carries its report's metadata block."""
    given = {"tol": 1e-6, "rank_tol": 1e-6, "seed": 9, "budget": 1000}
    certified = set()
    for path, (_, argv) in _leaf_argvs(tmp_path).items():
        flags = LEAVES[path][0]
        values = [a for f in flags for a in (f"--{f.replace('_', '-')}", str(given[f]))]
        code, report, _ = run(capsys, *argv, *values)
        assert code in (0, 1), (path, report)
        assert report["metadata"] == {"tool": "qcolor", "version": qcolor.__version__,
                                      **{f: given[f] for f in flags}}, path
        if report.get("certificate"):
            assert report["certificate"]["metadata"] == report["metadata"], path
            certified.add(path[0])
    assert certified == {"chi", "colorable", "xi-bounds", "chiq1", "psd-witness",
                         "hadamard-coloring"}


def test_flags_a_command_does_not_take_are_usage_errors(capsys, tmp_path):
    """Of --tol/--rank-tol/--seed/--budget, the twelve commands take 19 in
    all; any other is an argparse usage error, not a value left unread."""
    parsers = {id(p): p for _, p in _leaves(cli.build_parser())}.values()
    assert sum(option in p._option_string_actions for p in parsers
               for option in ("--tol", "--rank-tol", "--seed", "--budget")) == 19
    for path, (_, argv) in _leaf_argvs(tmp_path).items():
        for f in set(cli.FLAGS) - set(LEAVES[path][0]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, f"--{f.replace('_', '-')}", "3"])
            assert exc.value.code == 2, (path, f)
            assert "unrecognized arguments" in capsys.readouterr().err


def test_ks_check_help_names_the_set_tolerance(capsys):
    """ks-check without --tol runs at the vector set file's tolerance, and
    its --help says so."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["ks-check", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--tol TOL absolute tolerance (default the vector set file's "
            "tolerance, or 1e-09 when the file gives none)") in text


def test_chi_report_golden(capsys, c5_file):
    code, report, _ = run(capsys, "chi", c5_file)
    assert set(report) == {"command", "metadata", "n", "m", "chi", "lower",
                           "upper", "status", "nodes", "certificate",
                           "written_to"}
    assert report["chi"] == 3 and report["status"] == "exact"
    cert = report["certificate"]
    assert cert["kind"] == "coloring"
    assert set(cert["payload"]) == {"colors", "assignment"}


# -- decisions and exit codes -------------------------------------------------------


def test_colorable_yes_no(capsys, c5_file):
    code, report, _ = run(capsys, "colorable", c5_file, "-c", "3")
    assert code == 0 and report["status"] == "yes"
    code, report, _ = run(capsys, "colorable", c5_file, "-c", "2")
    assert code == 1 and report["status"] == "no"


def test_colorable_deep_graph(capsys, tmp_path):
    # the search for c = 2 goes 5000 deep
    p = tmp_path / "deep.col"
    p.write_text(io.write_dimacs(path_plus_triangle(5000)))
    code, report, _ = run(capsys, "colorable", str(p), "-c", "3")
    assert code == 0 and report["status"] == "yes"
    code, report, _ = run(capsys, "colorable", str(p), "-c", "2")
    assert code == 1 and report["status"] == "no"


def test_budget_exit_code(capsys, tmp_path):
    p = tmp_path / "g.col"
    rng = np.random.default_rng(0)
    edges = [(u, v) for u in range(18) for v in range(u + 1, 18)
             if rng.random() < 0.5]
    g = make_graph(18, edges)
    p.write_text(io.write_dimacs(g))
    code, report, _ = run(capsys, "colorable", str(p), "-c", "6",
                          "--budget", "2")
    assert code == 3
    assert report["status"] == "budget_exceeded"
    # chi reports its bounds and the coloring behind the upper one
    code, report, _ = run(capsys, "chi", str(p), "--budget", "2")
    assert code == 3 and report["status"] == "budget_exceeded"
    assert report["chi"] is None and report["lower"] <= report["upper"]
    cert = io.decode_payload("coloring", report["certificate"]["payload"])
    assert cert.c == report["upper"] and coloring.verify_coloring(g, cert)


def k2_strategy_file(tmp_path, name, state, alice):
    """A graph file of K_2 and a strategy file with Bob's table Alice's."""
    g = tmp_path / "k2.col"
    g.write_text(io.write_dimacs(complete_graph(2)))
    s = tmp_path / f"{name}.json"
    io.write_strategy(game.POVMStrategy(alice.shape[1], alice.shape[2], alice.shape[2],
                                        state, alice, alice), s)
    return str(g), str(s)


def test_game_check_refuses_all_zero_tables(capsys, tmp_path):
    """All-zero tables with a unit state are no strategy; game check read
    them as consistent (exit 0)."""
    g, s = k2_strategy_file(tmp_path, "zero", [1.0], np.zeros((2, 2, 1, 1)))
    code, report, _ = run(capsys, "game", "check", g, s)
    assert code == 2 and "does not sum to identity" in report["error"]


def test_game_exact_refuses_an_unnormalized_state(capsys, tmp_path):
    """The strategy "always answer 0" (d_A = d_B = 1) with the state sqrt(2)
    is no strategy; game exact read it as a win probability of 1
    (normalized, it wins 1/2)."""
    always0 = np.zeros((2, 2, 1, 1))
    always0[:, 0] = 1.0
    g, s = k2_strategy_file(tmp_path, "always0", [np.sqrt(2)], always0)
    code, report, _ = run(capsys, "game", "exact", g, s)
    assert code == 2 and "state norm" in report["error"]
    g, s = k2_strategy_file(tmp_path, "always0-unit", [1.0], always0)
    code, report, _ = run(capsys, "game", "exact", g, s)
    assert code == 1 and report["win_probability"] == pytest.approx(0.5)


def test_a_missing_json_file_exits_2(capsys, tmp_path, c5_file):
    code, report, err = run(capsys, "verify-rep", c5_file, str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in report["error"] and "error" in err


def test_input_error_exit_code(capsys, tmp_path):
    code, report, err = run(capsys, "chi", str(tmp_path / "missing.col"))
    assert code == 2
    assert "error" in report and "error" in err


@pytest.mark.parametrize("argv, text", [
    (("ks-check", "{file}"),
     '{"dimension": 1e400, "vectors": [{"coords": [[1, 0]]}]}'),
    (("ks-check", "{file}"),
     '{"dimension": 1, "vectors": [{"coords": [[1%s, 0]]}]}' % ("0" * 400)),
    (("ks-check", "{file}"),
     '{"dimension": 1, "vectors": [{"coords": [[1%s, 0]]}]}' % ("0" * 5000)),
    (("verify-rep", "{c5}", "{file}"),
     '{"kind": "coloring", "payload": {"colors": 1e400, "assignment": [0]}}'),
    (("game", "exact", "{k2}", "{file}"),
     '{"colors": -1, "dim_a": 1, "dim_b": 1, "state": [[1, 0]], '
     '"alice": [[], []], "bob": [[], []]}'),
    (("verify-rep", "{k2}", "{file}"),
     '{"kind": "coloring", "payload": {"colors": 2, "assignment": [false, true]}}'),
    (("verify-rep", "{k2}", "{file}"),
     '{"kind": "coloring", "payload": {"colors": "2", "assignment": "01"}}'),
    (("verify-rep", "{k2}", "{file}"),
     '{"kind": "orthrep", "payload": {"dimension": 2, '
     '"vectors": [[[1, 0], [0, 0]], [[0, 0], [true, 0]]]}}'),
    (("verify-rep", "{k2}", "{file}"),
     '{"kind": "orthrep", "payload": {"dimension": 2, '
     '"vectors": {"shape": [2, 2], "c16": "not base64!"}}}'),
], ids=["dimension-1e400", "coordinate-401-digits", "coordinate-5001-digits",
        "colors-1e400", "negative-colors", "assignment-booleans", "coloring-strings",
        "orthrep-booleans-in-pairs", "orthrep-binary-not-base64"])
def test_malformed_numbers_in_json_are_input_errors(capsys, tmp_path, c5_file,
                                                    k2_file, argv, text):
    p = tmp_path / "input.json"
    p.write_text(text)
    code, report, _ = run(capsys, *(a.format(file=p, c5=c5_file, k2=k2_file)
                                    for a in argv))
    assert code == 2
    assert "internal error" not in report["error"]


def _one_vertex_strategy(colors=2, dim_a=1, tables="[[[[1, 0]], [[0, 0]]]]"):
    return (f'{{"colors": {colors}, "dim_a": {dim_a}, "dim_b": 1, "state": [[1, 0]], '
            f'"alice": {tables}, "bob": {tables}}}')


@pytest.mark.parametrize("argv, text, named", [
    (("game", "exact", "{k1}", "{file}"), _one_vertex_strategy(dim_a=10 ** 6),
     "alice operator (0,0) has 1 entries, expected 1000000000000"),
    (("game", "exact", "{k1}", "{file}"), _one_vertex_strategy(colors=10 ** 9),
     "vertex 0 does not list exactly 1000000000 operators"),
    (("game", "exact", "{k1}", "{file}"),
     _one_vertex_strategy(colors=10 ** 9, dim_a=10 ** 6, tables="[]"), "array is too big"),
    (("verify-qcoloring", "{k1}", "{file}"),
     '{"kind": "qcoloring", "payload": {"colors": 2, "rank": 1000000, '
     '"projectors": [[[[1, 0]], [[0, 0]]]]}}', "projector (0,0) has 1 entries"),
    (("ks-check", "{file}"),
     '{"dimension": 1, "vectors": ' + "[" * 5000 + "]" * 5000 + "}", "nested too deeply"),
    (("verify-rep", "{k1}", "{file}"),
     '{"kind": "orthrep", "payload": {"dimension": 1, "vectors": '
     + "[" * 5000 + "]" * 5000 + "}}", "nested too deeply"),
    (("verify-rep", "{k1}", "{file}"), '{"kind": [[1, 2], [3, 4]], "payload": {}}',
     "unknown certificate kind"),
], ids=["dim-a-1e6", "colors-1e9", "empty-tables-of-huge-sizes", "projector-rank-1e6",
        "vector-set-5000-deep", "orthrep-5000-deep", "kind-pair-array"])
def test_declared_sizes_and_deep_nesting_are_input_errors(capsys, tmp_path, argv,
                                                          text, named):
    """Sizes declared far past memory are checked against the data, never
    allocated, and nesting past Python's recursion limit is refused: exit 2,
    naming what is at fault."""
    p, k1 = tmp_path / "input.json", tmp_path / "k1.col"
    p.write_text(text)
    k1.write_text("p edge 1 0\n")
    code, report, _ = run(capsys, *(a.format(file=p, k1=k1) for a in argv))
    assert code == 2
    assert named in report["error"] and "internal error" not in report["error"]


@pytest.mark.parametrize("exc", [RuntimeError("boom"),
                                 RecursionError("maximum recursion depth")])
def test_internal_error_exit_code(capsys, monkeypatch, c5_file, exc):
    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_chi", crash)
    code, report, err = run(capsys, "chi", c5_file)
    assert code == cli.EXIT_INTERNAL == 4
    assert report["command"] == "chi"
    assert type(exc).__name__ in report["error"]
    assert "internal error" in err


# the CLI with one verifier replaced by a rejecting stub, under python -O
REJECTING_CLI = """
import sys
from qcolor import cli, coloring, ks
coloring.verify_coloring = ks.verify_ks_witness = lambda *args, **kwargs: False
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [["ks-check", "yu-oh-13"],
                                  ["colorable", "P3", "-c", "2"]],
                         ids=["ks-check", "colorable"])
def test_failed_self_check_exits_4_under_optimize(tmp_path, argv):
    # a certificate that fails its own check is an internal error, also
    # when assert statements are compiled away
    p = tmp_path / "p3.col"
    p.write_text(io.write_dimacs(make_graph(3, [(0, 1), (1, 2)])))
    argv = [str(p) if a == "P3" else a for a in argv]
    src = str(Path(qcolor.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", REJECTING_CLI, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4, proc.stderr
    report = json.loads(proc.stdout)
    assert "internal error: RuntimeError" in report["error"]
    assert "certificate" not in report and "witness" not in report


def _cli_in_c_locale(*argv):
    """The CLI in a fresh process whose locale encoding is ASCII."""
    src = str(Path(qcolor.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": "",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from qcolor.cli import main; "
         "sys.exit(main())", *argv], capture_output=True, env=env, timeout=120)


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    """A UTF-8 label reads under an ASCII locale; bytes that are not UTF-8,
    in a vector set or a DIMACS comment, are an input error (exit 2), and a
    byte-order mark is still refused."""
    basis = ks.VectorSet(3, np.eye(3, dtype=complex), ("é", "b", "c"))
    good = tmp_path / "basis.json"
    io.write_vector_set(basis, good, tolerance=1e-9)  # escapes the label
    good.write_bytes(good.read_bytes().replace(b"\\u00e9", "é".encode()))
    proc = _cli_in_c_locale("ks-check", str(good))
    assert proc.returncode in (0, 1), proc.stdout
    assert "error" not in json.loads(proc.stdout)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(good.read_bytes().replace("é".encode(), b"\xe9"))
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + good.read_bytes())
    graph = tmp_path / "p2.col"
    graph.write_bytes(b"c caf\xe9\np edge 2 1\ne 1 2\n")
    for argv, text in ((("ks-check", str(latin1)), "is not UTF-8 text"),
                       (("ks-check", str(bom)), "Unexpected UTF-8 BOM"),
                       (("chi", str(graph)), "is not UTF-8 text")):
        proc = _cli_in_c_locale(*argv)
        assert proc.returncode == 2, proc.stdout
        assert text in json.loads(proc.stdout)["error"]


def test_malformed_dimacs_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("p edge 2 1\ne 1 7\n")
    code, report, _ = run(capsys, "chi", str(p))
    assert code == 2
    assert "line 2" in report["error"]


@pytest.mark.parametrize("argv", [
    ("ks-check", "peres-33", "--tol", "-1"),
    ("ks-check", "peres-33", "--tol", "nan"),
    ("hadamard-coloring", "-N", "4", "--tol", "nan"),
    ("xi-bounds", "{c5}", "--tol", "nan"),
    ("verify-rep", "{c5}", "c.json", "--tol", "inf"),
    ("game", "exact", "{c5}", "s.json", "--tol", "0"),
    ("chiq1", "{c5}", "--cmax", "3", "--tol", "abc"),
    ("game", "normalize", "{c5}", "s.json", "--rank-tol=-inf"),
    ("psd-witness", "{c5}", "w.json", "--rank-tol=-1e-7"),
    ("game", "check", "{c5}", "s.json", "--tol", "NaN"),
])
def test_bad_tolerance_is_usage_error(capsys, c5_file, argv):
    """A tolerance that is not positive and finite would turn a check into a
    false "no" (--tol -1) or crash it (nan); argparse rejects it first."""
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(c5=c5_file) for a in argv])
    assert exc.value.code == 2
    assert "must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("xi-bounds", "{c5}", "--seed", "-1"),
    ("chiq1", "{c5}", "--cmax", "3", "--seed", "-1"),
    ("game", "simulate", "{c5}", "s.json", "--seed", "-1"),
    ("xi-bounds", "{c5}", "--seed", "1.5"),
])
def test_bad_seed_is_usage_error(capsys, c5_file, argv):
    """numpy's generators take no negative seed: argparse rejects one first,
    instead of an internal error (exit 4) or a search that never ran."""
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(c5=c5_file) for a in argv])
    assert exc.value.code == 2
    assert "must be an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("chi", "{c5}", "--budget", "-1"),
    ("xi-bounds", "{c5}", "--budget", "-5"),
    ("ks-check", "peres-33", "--budget", "-1"),
    ("colorable", "{c5}", "-c", "3", "--budget", "2.5"),
])
def test_bad_budget_is_usage_error(capsys, c5_file, argv):
    """A negative budget read as one already spent (chi and ks-check exited
    3) or went unused (xi-bounds exited 0); argparse rejects it first."""
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(c5=c5_file) for a in argv])
    assert exc.value.code == 2
    assert "must be an integer >= 0" in capsys.readouterr().err


def test_budget_zero_is_legal(capsys, c5_file):
    """--budget 0 is a budget with no node to spend, not a usage error."""
    code, report, _ = run(capsys, "chi", c5_file, "--budget", "0")
    assert (code, report["status"], report["metadata"]["budget"]) == (
        3, "budget_exceeded", 0)


@pytest.mark.parametrize("command, payload", [
    ("verify-qcoloring", '"qcoloring", "payload": {"colors": 0, "rank": 1, "vectors": [[], []]}'),
    ("verify-qcoloring", '"qcoloring", "payload": {"colors": 2, "rank": 0, '
                         '"projectors": [[[], []], [[], []]]}'),
    ("verify-rep", '"matrixrep", "payload": {"dimension": 0, "matrices": [[], []]}'),
    ("verify-rep", '"coloring", "payload": {"colors": 2, "assignment": [0.5, 1]}'),
    ("verify-rep", '"coloring", "payload": {"colors": 2.7, "assignment": [0, 1]}'),
    ("verify-rep", '"orthrep", "payload": {"dimension": 2.9, '
                   '"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'),
], ids=["qcoloring-colors-0", "qcoloring-rank-0", "matrixrep-dimension-0",
        "assignment-0.5", "colors-2.7", "orthrep-dimension-2.9"])
def test_degenerate_certificates_do_not_verify(capsys, tmp_path, k2_file, command,
                                               payload):
    """A certificate of dimension 0 claims a coloring in C^0, and a
    non-integral size or color used to read as its integer part: each is
    refused (1) or malformed (2), never verified (0) or a crash (4)."""
    p = tmp_path / "cert.json"
    p.write_text('{"kind": ' + payload + "}")
    code, report, _ = run(capsys, command, k2_file, str(p))
    assert code in (1, 2), report


# -- certificates re-verify through the CLI -----------------------------------------


def test_chi_certificate_reverifies(capsys, c5_file, tmp_path):
    cert = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "chi", c5_file, "-o", cert)
    assert code == 0
    code, report, _ = run(capsys, "verify-rep", c5_file, cert)
    assert code == 0 and report["valid"]


def test_xi_bounds_certificate_reverifies(capsys, tmp_path):
    p = tmp_path / "pet.col"
    p.write_text(io.write_dimacs(petersen()))
    cert = str(tmp_path / "rep.json")
    code, report, _ = run(capsys, "xi-bounds", str(p), "-o", cert)
    assert code == 0
    assert (report["lower"], report["upper"]) == (2, 3)
    code, report, _ = run(capsys, "verify-rep", str(p), cert)
    assert code == 0 and report["valid"]


def test_chiq1_certificate_reverifies(capsys, c5_file, tmp_path):
    cert = str(tmp_path / "mrep.json")
    code, report, _ = run(capsys, "chiq1", c5_file, "--cmax", "4",
                          "-o", cert)
    assert code == 0 and report["c"] == 3
    code, report, _ = run(capsys, "verify-rep", c5_file, cert)
    assert code == 0 and report["valid"]


def _leaves(parser, path=()):
    """(command path, parser) of every leaf subcommand, aliases included."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, p in action.choices.items():
            yield from _leaves(p, path + (name,))


def test_every_subcommand_resolves_to_a_handler():
    leaves = dict(_leaves(cli.build_parser()))
    assert len(leaves) == 13
    for path, p in leaves.items():
        handler = p.get_default("handler")
        assert getattr(cli, handler.__name__) is handler, path
    assert (leaves[("verify-qcoloring",)].get_default("handler")
            is leaves[("verify-rep",)].get_default("handler") is cli._cmd_verify_rep)


# name -> (kind, graph, argv writing a certificate to "{out}")
CERTIFICATE_WRITERS = {
    "chi": ("coloring", "c5", ["chi", "{c5}", "-o", "{out}"]),
    "colorable": ("coloring", "c5", ["colorable", "{c5}", "-c", "3", "-o", "{out}"]),
    "xi-bounds": ("orthrep", "c5", ["xi-bounds", "{c5}", "-o", "{out}"]),
    "xi-bounds-theta": ("theta", "c5", ["xi-bounds", "{c5}", "--theta-output", "{out}"]),
    "chiq1": ("matrixrep", "c5", ["chiq1", "{c5}", "--cmax", "4", "-o", "{out}"]),
    "psd-witness": ("orthrep", "c5", ["psd-witness", "{c5}", "{witness}", "-o", "{out}"]),
    "hadamard-coloring": ("qcoloring", "omega4",
                          ["hadamard-coloring", "-N", "4", "-o", "{out}"]),
}


@pytest.mark.parametrize("name", list(CERTIFICATE_WRITERS))
def test_every_written_certificate_passes_verify_rep(capsys, tmp_path, name):
    """verify-rep checks every certificate file qcolor writes."""
    kind, graph, argv = CERTIFICATE_WRITERS[name]
    files = {**_cli_inputs(tmp_path), "out": tmp_path / "cert.json",
             "witness": write_witness(tmp_path, umbrella_gram(), 3)}
    assert cli.main([a.format(**files) for a in argv]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, "verify-rep", files[graph], str(files["out"]))
    assert (code, report["kind"], report["valid"]) == (0, kind, True)


def test_chiq1_no_witness_is_exit_1(capsys, tmp_path):
    p = tmp_path / "k4.col"
    p.write_text(io.write_dimacs(complete_graph(4)))
    code, report, _ = run(capsys, "chiq1", str(p), "--cmax", "3")
    assert code == 1 and report["c"] is None


def test_hadamard_certificate_reverifies(capsys, tmp_path):
    g = tmp_path / "had4.col"
    g.write_text(io.write_dimacs(hadamard_graph(4)))
    cert = str(tmp_path / "qc.json")
    code, report, _ = run(capsys, "hadamard-coloring", "-N", "4", "-o", cert)
    assert code == 0 and report["verified"]
    code, report, _ = run(capsys, "verify-qcoloring", str(g), cert)
    assert code == 0 and report["valid"]


def test_hadamard_below_rounding_tolerance_is_exit_1(capsys):
    # the construction's inner products are about 1e-16, not exactly 0
    code, report, _ = run(capsys, "hadamard-coloring", "-N", "6",
                          "--tol", "1e-15")
    assert code == 1 and report["verified"] is False
    assert "certificate" not in report


def test_empty_graph(capsys, tmp_path):
    g = tmp_path / "empty.col"
    g.write_text("p edge 0 0\n")
    cert = tmp_path / "qc.json"
    io.write_json(io.certificate_to_dict(
        "qcoloring", reps.QuantumColoring(2, 1, np.zeros((0, 2, 2), complex)),
        io.make_metadata(tol=1e-9, rank_tol=1e-7)), cert)
    code, report, _ = run(capsys, "verify-qcoloring", str(g), str(cert))
    assert code == 0 and report["valid"]
    strat = tmp_path / "strat.json"
    strat.write_text(json.dumps({"colors": 1, "dim_a": 1, "dim_b": 1,
                                 "state": [[1, 0]], "alice": [], "bob": []}))
    for command in ("check", "normalize"):
        code, report, _ = run(capsys, "game", command, str(g), str(strat))
        assert code == 2
        assert report["error"] == "no legal questions on the empty graph"


def test_verify_rejects_wrong_kind(capsys, c5_file, tmp_path):
    cert = tmp_path / "cert.json"
    io.write_json(io.certificate_to_dict(
        "psd-witness", reps.PSDWitness(np.eye(5), 5),
        io.make_metadata(tol=1e-9, rank_tol=1e-7)), cert)
    code, report, _ = run(capsys, "verify-rep", c5_file, str(cert))
    assert code == 2
    assert "'psd-witness'" in report["error"]


def test_tampered_certificate_fails(capsys, c5_file, tmp_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "chi", c5_file, "-o", str(cert))
    data = json.loads(cert.read_text())
    data["payload"]["assignment"][0] = color = data["payload"]["assignment"][1]
    cert.write_text(json.dumps(data))
    code, report, err = run(capsys, "verify-rep", c5_file, str(cert))
    assert code == 1 and not report["valid"]
    assert (f"coloring certificate FAILS: ends share a color on edge (0, 1), "
            f"color {color} [exit 1]") in err


def test_failed_verifiers_print_the_residual_and_where(capsys, c5_file, tmp_path):
    vecs = np.array([[1, 0, 0], [0, 1, 0], [0.6, 0.8, 0], [0, 1, 0], [0, 0, 1]],
                    dtype=complex)
    cert = tmp_path / "rep.json"
    io.write_json(io.certificate_to_dict("orthrep", reps.OrthogonalRepresentation(3, vecs),
                                         io.make_metadata(tol=1e-9, rank_tol=1e-7)), cert)
    code, report, err = run(capsys, "verify-rep", c5_file, str(cert))
    assert code == 1 and report == {**report, "kind": "orthrep", "valid": False}
    assert ("orthrep certificate FAILS: edge not orthogonal on edge (1, 2), "
            "color 0 (residual 0.8)") in err
    g = tmp_path / "had4.col"
    g.write_text(io.write_dimacs(hadamard_graph(4)))
    vectors = reps.hadamard_quantum_coloring(4).table.copy()
    vectors[9, 1] *= 1.5
    io.write_json(io.certificate_to_dict(
        "qcoloring", reps.QuantumColoring(4, 1, vectors),
        io.make_metadata(tol=1e-9, rank_tol=1e-7)), cert)
    code, report, err = run(capsys, "verify-qcoloring", str(g), str(cert))
    assert code == 1 and not report["valid"]
    assert ("qcoloring certificate FAILS: not an orthonormal basis at vertex 9 "
            "(residual 1.25)") in err


# -- ks-check -------------------------------------------------------------------


def test_ks_check_bundled_names(capsys):
    code, report, _ = run(capsys, "ks-check", "cabello-18")
    assert code == 0 and report["is_ks"] and report["is_weak_ks"]
    assert report["bases"] == 9 and report["witness"] is None

    code, report, _ = run(capsys, "ks-check", "peres-33")
    assert code == 1 and not report["is_ks"] and report["is_weak_ks"]
    assert report["witness"] is not None

    code, report, _ = run(capsys, "ks-check", "peres-33", "--weak")
    assert code == 0

    code, report, _ = run(capsys, "ks-check", "yu-oh-13", "--weak")
    assert code == 1 and report["witness"] is not None


def test_ks_check_standard_basis_beyond_recursion_limit(capsys, monkeypatch):
    # the set is handed over as loaded: reading 1.44M coordinates from JSON
    # takes seconds and is not what this checks
    raw = ks.VectorSet(1200, np.eye(1200, dtype=complex),
                       tuple(f"e{i}" for i in range(1200)))
    monkeypatch.setattr(cli.datasets, "load_vector_set", lambda name: (raw, None))
    code, report, _ = run(capsys, "ks-check", "e1200")
    assert code == 1
    assert (report["rays"], report["bases"], report["is_ks"],
            report["is_weak_ks"]) == (1200, 1, False, False)
    assert sum(report["witness"]) == 1


def test_ks_check_honours_budget(capsys):
    for flags in ((), ("--weak",)):
        code, report, err = run(capsys, "ks-check", "peres-33", "--budget", "1",
                                *flags)
        assert code == 3 and "budget exceeded: undecided" in err
        assert (report["is_ks"], report["is_weak_ks"], report["witness"]) == (
            None, None, None)
        assert report["status"] == "budget_exceeded" and report["decisions"] > 1
        assert report["metadata"]["budget"] == 1


def test_ks_check_oracle_counts_labelings_against_the_budget(capsys):
    """The oracle enumerates 2^13 labelings of Yu-Oh-13: a budget of that
    many decides the set, one fewer (or none) exits 3 undecided, where the
    oracle once ran whatever the budget and exited 1."""
    for budget, code_want in ((0, 3), (2 ** 13 - 1, 3), (2 ** 13, 1)):
        code, report, err = run(capsys, "ks-check", "yu-oh-13", "--oracle",
                                "--budget", str(budget))
        assert code == code_want and report["method"] == "brute_force"
        assert report["metadata"]["budget"] == budget and report["bases"] > 0
        if code == 3:
            assert "budget exceeded: undecided" in err
            assert (report["status"], report["is_ks"], report["is_weak_ks"],
                    report["witness"]) == ("budget_exceeded", None, None, None)
        else:
            assert report["status"] == "exact" and report["is_ks"] is False


def test_ks_check_records_the_tolerance_it_ran_at(capsys, tmp_path):
    """Without --tol, ks-check runs at the set file's tolerance, and the
    metadata says so: a rerun with the recorded --tol gives the same report."""
    p = tmp_path / "rays.json"
    p.write_text(json.dumps({"dimension": 2, "tolerance": 1e-2, "vectors": [
        {"id": i, "coords": [[x, 0], [y, 0]]}
        for i, (x, y) in enumerate([(1, 0), (0, 1), (0.001, 1)])]}))
    code, report, _ = run(capsys, "ks-check", str(p))
    assert (report["metadata"]["tol"], report["rays"]) == (0.01, 2)
    tol = repr(report["metadata"]["tol"])
    assert run(capsys, "ks-check", str(p), "--tol", tol)[:2] == (code, report)
    _, report, _ = run(capsys, "ks-check", str(p), "--tol", "1e-9")
    assert (report["metadata"]["tol"], report["rays"]) == (1e-9, 3)
    code, report, _ = run(capsys, "ks-check", str(tmp_path / "missing.json"))
    assert code == 2 and report["metadata"]["tol"] == 1e-9


def test_ks_check_oracle_flag(capsys):
    code, report, _ = run(capsys, "ks-check", "yu-oh-13", "--oracle")
    assert code == 1 and report["method"] == "brute_force"
    assert (report["status"], report["decisions"]) == ("exact", 0)


def test_ks_check_report_schema(capsys):
    _, report, _ = run(capsys, "ks-check", "yu-oh-13")
    assert set(report) == {"command", "metadata", "rays", "dimension",
                           "bases", "merged", "is_ks", "is_weak_ks",
                           "method", "status", "decisions", "property",
                           "witness"}
    assert report["status"] == "exact" and report["decisions"] > 0


@pytest.mark.parametrize("vectors, message", [
    ([{"coords": [["a", 0.0], [0.0, 0.0]]}], "vector 0 contains a non-number"),
    ([{"coords": [[None, 0.0], [0.0, 0.0]]}], "vector 0 contains a non-number"),
    ([{"coords": 5}], "vector 0 must be a list"),
    (5, "malformed field"),
], ids=["string-coordinate", "null-coordinate", "coords-not-a-list",
        "vectors-not-a-list"])
def test_ks_check_malformed_vector_set_is_input_error(capsys, tmp_path,
                                                      vectors, message):
    p = tmp_path / "set.json"
    p.write_text(json.dumps({"dimension": 2, "vectors": vectors}))
    code, report, _ = run(capsys, "ks-check", str(p))
    assert code == 2
    assert message in report["error"]


# -- output bytes: the array writer against the json.dumps encoding ---------------


def _cli_inputs(tmp_path) -> dict:
    files = {"pet": tmp_path / "pet.col", "c5": tmp_path / "c5.col",
             "omega4": tmp_path / "omega4.col", "s4": tmp_path / "s4.json"}
    files["pet"].write_text(io.write_dimacs(petersen()))
    files["c5"].write_text(io.write_dimacs(cycle(5)))
    files["omega4"].write_text(io.write_dimacs(hadamard_graph(4)))
    io.write_strategy(game.strategy_from_quantum_coloring(
        reps.hadamard_quantum_coloring(4)), files["s4"])
    return {k: str(v) for k, v in files.items()}


# name -> argv; "{out}" is the -o file, if any
CLI_BYTES_CASES = {
    "normalize-stdout": ["game", "normalize", "{omega4}", "{s4}"],
    "hadamard-stdout": ["hadamard-coloring", "-N", "4"],
    "xi-bounds-file": ["xi-bounds", "{pet}", "-o", "{out}"],
    "chiq1-file": ["chiq1", "{c5}", "--cmax", "4", "-o", "{out}"],
    "normalize-file": ["game", "normalize", "{omega4}", "{s4}", "-o", "{out}"],
    "hadamard-file": ["hadamard-coloring", "-N", "4", "-o", "{out}"],
}


@pytest.mark.parametrize("name", list(CLI_BYTES_CASES))
def test_cli_output_bytes_match_json_dumps_encoding(capsys, monkeypatch,
                                                    tmp_path, name):
    """Reports and -o files are json.dumps of their documents; with each
    array's bytes spelled out as [re, im] pairs they are byte for byte what
    the text-form writer wrote, so every field but the arrays' form is as it
    was."""
    out = tmp_path / "out.json"
    argv = [a.format(out=out, **_cli_inputs(tmp_path))
            for a in CLI_BYTES_CASES[name]]

    def outputs():
        assert cli.main(argv) == 0
        return capsys.readouterr().out, out.read_text() if out.exists() else None

    stdout, written = outputs()
    out.unlink(missing_ok=True)
    monkeypatch.setattr(io, "_pack", text_pack)
    assert outputs() == (json.dumps(as_text(json.loads(stdout)), indent=1) + "\n",
                         written and json.dumps(as_text(json.loads(written))) + "\n")


def test_hadamard_outputs_pinned(capsys, tmp_path):
    """sha256 prefixes of the report and of the certificate file."""
    cli.main(["hadamard-coloring", "-N", "4"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest[:16] == "30784ca951c93496"
    out = tmp_path / "qc.json"
    cli.main(["hadamard-coloring", "-N", "4", "-o", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest[:16] == "84fcb8221f90b6c9"


# graph -> sha256 prefixes of the stdout of chiq1 --cmax 3 -o and of xi-bounds
# -o --theta-output (the run directory written as "TMP"), and of the three
# files they write
BOUND_OUTPUTS = {
    "c5": ("396dffc371a9eb63", "d72cb9815916c7b2", "fbb6ef78dc474e66",
           "93b7f9b6348a4e9b", "4025bd8748927857"),
    "pet": ("da63dcb43ed8b509", "4d45ca97701b5612", "623993e3b382c73e",
            "a10c79a1462a1156", "6327e3584e7ff89b"),
}


@pytest.mark.parametrize("name", list(BOUND_OUTPUTS))
def test_bound_outputs_pinned(capsys, tmp_path, name):
    graph = _cli_inputs(tmp_path)[name]
    files = [tmp_path / f for f in ("chiq1.json", "rep.json", "theta.json")]
    stdout = []
    for argv in (["chiq1", graph, "--cmax", "3", "-o", str(files[0])],
                 ["xi-bounds", graph, "-o", str(files[1]),
                  "--theta-output", str(files[2])]):
        assert cli.main(argv) == 0
        stdout.append(capsys.readouterr().out.replace(str(tmp_path), "TMP"))
    digests = [hashlib.sha256(b).hexdigest()[:16] for b in
               [s.encode() for s in stdout] + [f.read_bytes() for f in files]]
    assert tuple(digests) == BOUND_OUTPUTS[name]

# -- game -----------------------------------------------------------------------


def test_game_exact_and_check(capsys, k2_file, tmp_path):
    strat = winning_k2_strategy_file(tmp_path)
    code, report, _ = run(capsys, "game", "exact", k2_file, strat)
    assert code == 0 and report["perfect"]
    assert report["win_probability"] == pytest.approx(1.0, abs=1e-9)
    code, report, _ = run(capsys, "game", "check", k2_file, strat)
    assert code == 0 and report["ok"] and report["violations"] == []


def test_game_simulate_seeded(capsys, k2_file, tmp_path):
    strat = winning_k2_strategy_file(tmp_path)
    code, r1, _ = run(capsys, "game", "simulate", k2_file, strat,
                      "--rounds", "200", "--seed", "5")
    code, r2, _ = run(capsys, "game", "simulate", k2_file, strat,
                      "--rounds", "200", "--seed", "5")
    assert r1["win_rate"] == r2["win_rate"] == 1.0


def test_game_normalize_roundtrip(capsys, k2_file, tmp_path):
    strat = winning_k2_strategy_file(tmp_path)
    out = str(tmp_path / "normal.json")
    code, report, _ = run(capsys, "game", "normalize", k2_file, strat,
                          "-o", out)
    assert code == 0 and report["normalized"]
    assert report["rank"] == 2 and report["local_dimension"] == 6
    assert all(report["properties"].values())
    # the written normal form is itself a perfect strategy
    code, report, _ = run(capsys, "game", "exact", k2_file, out)
    assert code == 0


def test_game_normalize_rejects_bad_strategy(capsys, k2_file, tmp_path):
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 0], [0, 1]], dtype=complex)
    alice = np.array([[e0, e1], [e0, e1]])
    from qcolor.linalg import maximally_entangled
    s = game.POVMStrategy(2, 2, 2, maximally_entangled(2), alice, alice.conj())
    p = tmp_path / "bad.json"
    io.write_strategy(s, p)
    code, report, _ = run(capsys, "game", "normalize", k2_file, str(p))
    assert code == 1
    assert report["rejected_stage"] == "precondition"


@pytest.mark.parametrize("alice, message", [
    ([5, 5], "vertex 0 does not list exactly 3 operators"),
    (5, "alice operator must be a list"),
], ids=["row-not-a-list", "table-not-a-list"])
def test_game_malformed_operator_table_is_input_error(capsys, k2_file, tmp_path,
                                                      alice, message):
    strat = winning_k2_strategy_file(tmp_path)
    with open(strat) as f:
        data = json.load(f)
    data["alice"] = alice
    with open(strat, "w") as f:
        json.dump(data, f)
    code, report, _ = run(capsys, "game", "exact", k2_file, strat)
    assert code == 2
    assert message in report["error"]


def test_game_reports_cut_violation_list(capsys, monkeypatch, tmp_path):
    """With every vertex of Omega_6 measuring in vertex 0's basis, each of
    the 1280 ordered edges violates all 6 colors: 7680 violations, more
    than check_consistency lists by default."""
    g = hadamard_graph(6)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(6))
    ops = np.repeat(s.alice[:1], g.n, axis=0)
    const = game.POVMStrategy(6, 6, 6, s.state, ops, ops.conj())
    with monkeypatch.context() as m:
        m.setattr(game, "MAX_VIOLATIONS", 10 ** 4)
        assert len(game.check_consistency(const, g).violations) == 7680
    graph_file, strat = tmp_path / "omega6.col", tmp_path / "const.json"
    graph_file.write_text(io.write_dimacs(g))
    io.write_strategy(const, strat)
    code, report, err = run(capsys, "game", "check", str(graph_file),
                            str(strat))
    assert code == 1 and len(report["violations"]) == 100
    assert "at least 1000 violations (first 100 listed)" in err
    code, report, _ = run(capsys, "game", "normalize", str(graph_file),
                          str(strat))
    assert code == 1
    assert "(at least 1000 consistency violations)" in report["message"]


def test_game_dimension_mismatch(capsys, c5_file, tmp_path):
    strat = winning_k2_strategy_file(tmp_path)
    code, report, _ = run(capsys, "game", "exact", c5_file, strat)
    assert code == 2
    assert report["error"] == ("strategy does not cover the vertex set "
                               "(it covers 2 vertices, graph has 5)")


# -- psd-witness ------------------------------------------------------------------


def test_psd_witness_flow(capsys, c5_file, tmp_path):
    ct = np.cos(4 * np.pi / 5) / (np.cos(4 * np.pi / 5) - 1)
    st_ = np.sqrt(1 - ct)
    u = np.array([[st_ * np.cos(4 * np.pi * k / 5),
                   st_ * np.sin(4 * np.pi * k / 5), np.sqrt(ct)]
                  for k in range(5)])
    gram = u @ u.T
    gram[np.abs(gram) < 1e-12] = 0.0
    w = tmp_path / "w.json"
    io.write_json(io.certificate_to_dict(
        "psd-witness", reps.PSDWitness(gram, 3),
        io.make_metadata(tol=1e-9, rank_tol=1e-7)), w)
    rep_out = str(tmp_path / "rep.json")
    code, report, _ = run(capsys, "psd-witness", c5_file, str(w), "-o", rep_out)
    assert code == 0 and report["ok"]
    code, report, _ = run(capsys, "verify-rep", c5_file, rep_out)
    assert code == 0 and report["valid"]


def test_psd_witness_rejection_exit_code(capsys, c5_file, tmp_path):
    w = tmp_path / "w.json"
    io.write_json(io.certificate_to_dict(
        "psd-witness", reps.PSDWitness(np.eye(5), 5),
        io.make_metadata(tol=1e-9, rank_tol=1e-7)), w)
    code, report, _ = run(capsys, "psd-witness", c5_file, str(w))
    assert code == 1 and not report["ok"]
    assert report["reason"]


def write_witness(tmp_path, matrix, rank):
    w = tmp_path / "w.json"
    io.write_json(io.certificate_to_dict(
        "psd-witness", reps.PSDWitness(matrix, rank),
        io.make_metadata(tol=1e-9, rank_tol=1e-7)), w)
    return str(w)


def test_psd_witness_empty_graph_round_trips(capsys, tmp_path):
    g = tmp_path / "empty.col"
    g.write_text(io.write_dimacs(make_graph(0, [])))
    rep_out = str(tmp_path / "rep.json")
    w = write_witness(tmp_path, np.zeros((0, 0)), 0)
    code, report, _ = run(capsys, "psd-witness", str(g), w, "-o", rep_out)
    assert code == 0 and report["ok"]
    code, report, _ = run(capsys, "verify-rep", str(g), rep_out)
    assert code == 0 and report["valid"]


def test_psd_witness_rank_above_n_exits_0(capsys, c5_file, tmp_path):
    rep_out = str(tmp_path / "rep.json")
    code, report, _ = run(capsys, "psd-witness", c5_file,
                          write_witness(tmp_path, umbrella_gram(), 6),
                          "-o", rep_out)
    assert code == 0 and report["ok"]
    code, report, _ = run(capsys, "verify-rep", c5_file, rep_out)
    assert code == 0 and report["valid"]


def test_psd_witness_ambiguous_rank_exits_1(capsys, tmp_path):
    g = tmp_path / "k3.col"
    g.write_text(io.write_dimacs(complete_graph(3)))
    w = write_witness(tmp_path, np.diag([1.0, 1.0, 3 * DEFAULT_RANK_TOL]), 3)
    code, report, _ = run(capsys, "psd-witness", str(g), w)
    assert code == 1 and report["reason"].startswith("ambiguous rank")


def test_psd_witness_negative_rank_exits_2(capsys, c5_file, tmp_path):
    w = write_witness(tmp_path, umbrella_gram(), 3)
    doc = json.loads(Path(w).read_text())
    doc["payload"]["rank"] = -1
    Path(w).write_text(json.dumps(doc))
    code, report, _ = run(capsys, "psd-witness", c5_file, w)
    assert code == 2 and "rank must be >= 0" in report["error"]


# -- theta certificates ------------------------------------------------------------


def test_theta_certificate_flow(capsys, c5_file, tmp_path):
    theta, rep = str(tmp_path / "theta.json"), str(tmp_path / "rep.json")
    code, report, err = run(capsys, "xi-bounds", c5_file, "-o", rep,
                            "--theta-output", theta)
    assert code == 0 and report["theta_written_to"] == theta
    assert (report["lower"], report["lower_theta"], report["upper"]) == (2, 3, 3)
    assert "3 <= xi <= 3" in err
    code, report, _ = run(capsys, "verify-rep", c5_file, rep)
    assert code == 0 and report["kind"] == "orthrep" and report["valid"]
    code, report, err = run(capsys, "verify-rep", c5_file, theta)
    assert code == 0 and report["kind"] == "theta" and report["valid"]
    assert report["lower_theta"] == 3 and "xi >= 3" in err
    doc = json.loads(Path(theta).read_text())
    matrix = io.decode_payload("theta", doc["payload"]).matrix
    matrix[0, 2] = matrix[2, 0] = 1e-300  # a non-edge
    doc["payload"]["matrix"] = io._pack(matrix, 0)
    Path(theta).write_text(json.dumps(doc))
    code, report, _ = run(capsys, "verify-rep", c5_file, theta)
    assert code == 1 and not report["valid"]
    assert (report["lower_theta"], report["reason"]) == (None, "wrong pattern")
    matrix[2, 0] = 0.0  # no longer symmetric
    doc["payload"]["matrix"] = io._pack(matrix, 0)
    Path(theta).write_text(json.dumps(doc))
    code, report, _ = run(capsys, "verify-rep", c5_file, theta)
    assert code == 2 and "not Hermitian" in report["error"]


def test_xi_bounds_without_gap_solves_no_theta(capsys, tmp_path):
    g = tmp_path / "k4.col"
    g.write_text(io.write_dimacs(complete_graph(4)))
    theta = tmp_path / "theta.json"
    code, report, _ = run(capsys, "xi-bounds", str(g), "--theta-output", str(theta))
    assert code == 0 and report["lower_theta"] is None
    assert report["theta_written_to"] is None and not theta.exists()

