import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cycle, path_plus_triangle, petersen, umbrella_gram
import qcolor
from qcolor import cli, game, io, ks, reps
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


def test_report_metadata_schema(capsys, c5_file):
    code, report, err = run(capsys, "chi", c5_file)
    assert code == 0
    assert report["command"] == "chi"
    meta = report["metadata"]
    assert set(meta) == {"tool", "version", "tol", "rank_tol", "seed", "budget"}
    assert meta["tool"] == "qcolor"
    assert meta["tol"] == 1e-9 and meta["rank_tol"] == 1e-7
    assert "chi = 3" in err


def test_flags_recorded_in_metadata(capsys, c5_file):
    code, report, _ = run(capsys, "chi", c5_file, "--tol", "1e-6",
                          "--seed", "9", "--budget", "1000")
    assert report["metadata"]["tol"] == 1e-6
    assert report["metadata"]["seed"] == 9
    assert report["metadata"]["budget"] == 1000


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
    p.write_text(io.write_dimacs(make_graph(18, edges)))
    code, report, _ = run(capsys, "colorable", str(p), "-c", "6",
                          "--budget", "2")
    assert code == 3
    assert report["status"] == "budget_exceeded"


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
], ids=["dimension-1e400", "coordinate-401-digits", "coordinate-5001-digits",
        "colors-1e400", "negative-colors"])
def test_malformed_numbers_in_json_are_input_errors(capsys, tmp_path, c5_file,
                                                    k2_file, argv, text):
    p = tmp_path / "input.json"
    p.write_text(text)
    code, report, _ = run(capsys, *(a.format(file=p, c5=c5_file, k2=k2_file)
                                    for a in argv))
    assert code == 2
    assert "internal error" not in report["error"]


@pytest.mark.parametrize("exc", [RuntimeError("boom"),
                                 RecursionError("maximum recursion depth")])
def test_internal_error_exit_code(capsys, monkeypatch, c5_file, exc):
    def crash(args, opts):
        raise exc

    monkeypatch.setitem(cli.HANDLERS, "chi", crash)
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
    ("chi", "{c5}", "--tol", "inf"),
    ("chi", "{c5}", "--tol", "0"),
    ("chi", "{c5}", "--tol", "abc"),
    ("chi", "{c5}", "--rank-tol=-inf"),
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
    io.write_certificate(cert, "qcoloring", {"colors": 2, "rank": 1,
                                             "vectors": []},
                         io.make_metadata(1e-9, 1e-7))
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
    io.write_certificate(cert, "psd-witness",
                         io.encode_payload("psd-witness",
                                           reps.PSDWitness(np.eye(5), 5)),
                         io.make_metadata(1e-9, 1e-7))
    code, report, _ = run(capsys, "verify-rep", c5_file, str(cert))
    assert code == 2
    assert "'psd-witness'" in report["error"]


def test_tampered_certificate_fails(capsys, c5_file, tmp_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "chi", c5_file, "-o", str(cert))
    data = json.loads(cert.read_text())
    data["payload"]["assignment"][0] = data["payload"]["assignment"][1]
    cert.write_text(json.dumps(data))
    code, report, _ = run(capsys, "verify-rep", c5_file, str(cert))
    assert code == 1 and not report["valid"]


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
    """Reports and -o files are byte for byte what they were when _pack made
    nested lists and every file went through json.dumps(allow_nan=False)."""
    out = tmp_path / "out.json"
    argv = [a.format(out=out, **_cli_inputs(tmp_path))
            for a in CLI_BYTES_CASES[name]]

    def outputs():
        assert cli.main(argv) == 0
        return capsys.readouterr().out, out.read_bytes() if out.exists() else None

    new = outputs()
    out.unlink(missing_ok=True)
    pack = io._pack
    monkeypatch.setattr(io, "_pack", lambda a, keep: pack(a, keep).tolist())
    monkeypatch.setattr(io, "write_json", lambda data, path: Path(path).write_text(
        json.dumps(data, allow_nan=False) + "\n"))
    assert outputs() == new


def test_hadamard_outputs_pinned(capsys, tmp_path):
    """sha256 prefixes of what qcolor wrote before the array writer."""
    cli.main(["hadamard-coloring", "-N", "4"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest[:16] == "a15d2bec40b82dd1"
    out = tmp_path / "qc.json"
    cli.main(["hadamard-coloring", "-N", "4", "-o", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest[:16] == "5c7345dcf0df5bbc"


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
    (5, "malformed field"),
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


def test_game_reports_cut_violation_list(capsys, tmp_path):
    """With every vertex of Omega_6 measuring in vertex 0's basis, each of
    the 1280 ordered edges violates all 6 colors: 7680 violations, more
    than check_consistency lists by default."""
    g = hadamard_graph(6)
    s = game.strategy_from_quantum_coloring(reps.hadamard_quantum_coloring(6))
    ops = np.repeat(s.alice[:1], g.n, axis=0)
    const = game.POVMStrategy(6, 6, 6, s.state, ops, ops.conj())
    assert len(game.check_consistency(const, g, max_violations=10 ** 4)
               .violations) == 7680
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
    io.write_certificate(w, "psd-witness",
                         io.encode_payload("psd-witness", reps.PSDWitness(gram, 3)),
                         io.make_metadata(1e-9, 1e-7))
    rep_out = str(tmp_path / "rep.json")
    code, report, _ = run(capsys, "psd-witness", c5_file, str(w), "-o", rep_out)
    assert code == 0 and report["ok"]
    code, report, _ = run(capsys, "verify-rep", c5_file, rep_out)
    assert code == 0 and report["valid"]


def test_psd_witness_rejection_exit_code(capsys, c5_file, tmp_path):
    w = tmp_path / "w.json"
    io.write_certificate(w, "psd-witness",
                         io.encode_payload("psd-witness",
                                           reps.PSDWitness(np.eye(5), 5)),
                         io.make_metadata(1e-9, 1e-7))
    code, report, _ = run(capsys, "psd-witness", c5_file, str(w))
    assert code == 1 and not report["ok"]
    assert report["reason"]


def write_witness(tmp_path, matrix, rank):
    w = tmp_path / "w.json"
    io.write_certificate(w, "psd-witness",
                         io.encode_payload("psd-witness",
                                           reps.PSDWitness(matrix, rank)),
                         io.make_metadata(1e-9, 1e-7))
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
