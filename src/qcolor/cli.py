"""Command-line interface.

Every run prints a JSON report to stdout and a one-line human summary to
stderr.  Exit codes: 0 the queried property holds (or the computation
succeeded), 1 it fails or no witness was found, 2 malformed input, 3 budget
exceeded, 4 internal error (a failure of qcolor itself, never an answer).
Each subcommand takes only the FLAGS it reads; its report and certificates
record them as the run used them (ks-check without --tol: the set's tolerance).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict

from . import __version__, coloring, datasets, game, graphs, io, ks, reps
from .graphs import GraphError
from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

INPUT_ERRORS = (io.FormatError, ks.KSError, reps.RepsError, game.GameError,
                coloring.ColoringError, GraphError, OSError)


def _tolerance(text: str) -> float:
    """argparse type of --tol and --rank-tol: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


def _natural(text: str) -> int:
    """argparse type of --seed and --budget: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


# flag name -> argparse keywords of --name (underscores as dashes)
FLAGS = {"tol": dict(type=_tolerance, default=DEFAULT_TOL,
                     help=f"absolute tolerance (default {DEFAULT_TOL})"),
         "rank_tol": dict(type=_tolerance, default=DEFAULT_RANK_TOL,
                          help=f"relative rank tolerance (default {DEFAULT_RANK_TOL})"),
         "seed": dict(type=_natural, default=0,
                      help="seed for randomized searches and simulation (default 0)"),
         "budget": dict(type=_natural, default=coloring.DEFAULT_BUDGET,
                        help="search budget: nodes, KS labeling decisions or --oracle "
                        f"labelings (default {coloring.DEFAULT_BUDGET})")}


# help of each positional file argument
FILE_HELP = {"graph": "DIMACS graph file",
             "strategy": "strategy JSON file",
             "witness": "certificate file of kind psd-witness",
             "set": f"vector set JSON file or bundled name ({', '.join(datasets.BUNDLED)})"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcolor",
        description="chromatic and quantum chromatic bounds, Kochen-Specker "
                    "checks, and coloring-game analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, handler, flags, *files, under=sub, aliases=(), **own):
        """A subcommand run by handler, with these FLAGS (own: overrides) and files."""
        p = under.add_parser(name, help=help_, aliases=aliases)
        p.set_defaults(handler=handler, flags=flags)
        for f in flags:
            p.add_argument("--" + f.replace("_", "-"), **{**FLAGS[f], **own.get(f, {})})
        for f in files:
            p.add_argument(f, help=FILE_HELP.get(f))
        return p

    p = add("chi", "exact chromatic number with a coloring certificate", _cmd_chi,
            ("budget",), "graph")
    p.add_argument("-o", "--output", help="write the certificate to this file")

    p = add("colorable", "decide c-colorability", _cmd_colorable, ("budget",), "graph")
    p.add_argument("-c", "--colors", type=int, required=True)
    p.add_argument("-o", "--output")

    p = add("xi-bounds", "certified bounds on the orthogonal rank", _cmd_xi_bounds,
            ("tol", "seed", "budget"), "graph")
    p.add_argument("-o", "--output")
    p.add_argument("--theta-output",
                   help="write the theta certificate here, when theta was solved")

    p = add("chiq1", "rank-1 quantum chromatic number via the product "
                     "characterization", _cmd_chiq1, ("tol", "seed", "budget"), "graph")
    p.add_argument("--cmax", type=int, required=True,
                   help="largest color count to try")
    p.add_argument("-o", "--output")

    add("verify-rep", f"verify a {' / '.join(REP_VERIFIERS)} certificate",
        _cmd_verify_rep, ("tol",), "graph", "certificate", aliases=["verify-qcoloring"])

    p = add("psd-witness", "check a PSD complement-pattern witness and "
                           "extract an orthogonal representation", _cmd_psd_witness,
            ("tol", "rank_tol"), "graph", "witness")
    p.add_argument("-o", "--output",
                   help="write the extracted orthrep certificate here")

    p = add("hadamard-coloring", "quantum coloring of the order-N Hadamard graph",
            _cmd_hadamard, ("tol",))
    p.add_argument("-N", "--bits", type=int, required=True)
    p.add_argument("-o", "--output")

    p = add("ks-check", "decide the Kochen-Specker property of a vector set",
            _cmd_ks_check, ("tol", "budget"), "set",
            tol=dict(default=None, help="absolute tolerance (default the vector set "
                     f"file's tolerance, or {DEFAULT_TOL} when the file gives none)"))
    p.add_argument("--weak", action="store_true",
                   help="exit code reflects the weak KS property instead")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force oracle (<= 25 rays)")

    games = sub.add_parser("game", help="coloring-game analysis").add_subparsers(
        dest="game_command", required=True)
    add("exact", "exact winning probability of a POVM strategy", _cmd_game, ("tol",),
        "graph", "strategy", under=games)
    q = add("simulate", "Monte-Carlo estimate of the winning probability", _cmd_game,
            ("seed",), "graph", "strategy", under=games)
    q.add_argument("--rounds", type=int, default=10_000)
    q = add("normalize", "transform a winning strategy into normal form", _cmd_game,
            ("tol", "rank_tol"), "graph", "strategy", under=games)
    q.add_argument("-o", "--output", help="write the normal-form strategy here")
    add("check", "winning-strategy consistency conditions", _cmd_game, ("tol",),
        "graph", "strategy", under=games)

    return parser


# ---------------------------------------------------------------------------
# helpers


def _emit(report: dict, args, key: str, doc: dict) -> None:
    """Write doc to the -o file if one is given, else put it under
    report[key]; report["written_to"] says which."""
    out = getattr(args, "output", None)
    if out:
        io.write_json(doc, out)
    report[key] = None if out else doc
    report["written_to"] = out or None


def _metadata(args) -> dict:
    """The run's metadata: the flags its subcommand takes, as the run used them."""
    return io.make_metadata(**{f: getattr(args, f) for f in args.flags})


def _certificate(kind: str, obj, args) -> dict:
    """The certificate document of obj with the run's metadata."""
    return io.certificate_to_dict(kind, obj, _metadata(args))


def _read_certificate(path, kinds: tuple[str, ...]):
    """(kind, decoded object) of a certificate file whose kind is in kinds."""
    kind, payload, _ = io.read_certificate(path)
    if kind not in kinds:
        raise io.FormatError(f"expected a {' / '.join(kinds)} certificate, got {kind!r}")
    return kind, io.decode_payload(kind, payload)


# certificate kind -> verifier(graph, certificate, tol) for verify-rep
REP_VERIFIERS = {
    "coloring": lambda g, cert, tol: coloring.verify_coloring(g, cert),
    "orthrep": reps.verify_orthogonal_representation,
    "matrixrep": reps.verify_matrix_representation,
    "theta": reps.verify_theta_certificate,
    "qcoloring": reps.verify_quantum_coloring,
}


# ---------------------------------------------------------------------------
# command handlers: each returns (report, exit_code, summary)


def _cmd_chi(args):
    g = io.read_graph(args.graph)
    res = coloring.chromatic_number(g, budget=args.budget)
    report = {"n": g.n, "m": int(g.edge_array.shape[0]), "chi": res.chi,
              "lower": res.lower, "upper": res.upper, "status": res.status,
              "nodes": res.nodes}
    _emit(report, args, "certificate", _certificate("coloring", res.certificate, args))
    if res.status == coloring.BUDGET_EXCEEDED:
        return report, EXIT_BUDGET, (f"budget exceeded: "
                                     f"{res.lower} <= chi <= {res.upper}")
    return report, EXIT_YES, f"chi = {res.chi}"


def _cmd_colorable(args):
    g = io.read_graph(args.graph)
    res = coloring.is_c_colorable(g, args.colors, budget=args.budget)
    report = {"n": g.n, "colors": args.colors, "status": res.status,
              "nodes": res.nodes}
    if res.status == coloring.BUDGET_EXCEEDED:
        return report, EXIT_BUDGET, "budget exceeded: undecided"
    if res.status == coloring.NO:
        report["certificate"] = None
        return report, EXIT_NO, f"not {args.colors}-colorable (exhaustive)"
    _emit(report, args, "certificate", _certificate("coloring", res.certificate, args))
    return report, EXIT_YES, f"{args.colors}-colorable"


def _cmd_xi_bounds(args):
    g = io.read_graph(args.graph)
    params = reps.SearchParams(seed=args.seed, tol=args.tol)
    xb = reps.xi_bounds(g, params, budget=args.budget)
    report = {"n": g.n, "lower": xb.lower, "upper": xb.upper,
              "clique": list(xb.lower_clique), "lower_theta": xb.lower_theta}
    theta_out = args.theta_output if xb.theta_witness is not None else None
    if theta_out:
        io.write_json(_certificate("theta", xb.theta_witness, args), theta_out)
    report["theta_written_to"] = theta_out
    _emit(report, args, "certificate", _certificate("orthrep", xb.upper_witness, args))
    lower = max(xb.lower, xb.lower_theta or 0)
    return report, EXIT_YES, f"{lower} <= xi <= {xb.upper}"


def _cmd_chiq1(args):
    g = io.read_graph(args.graph)
    params = reps.SearchParams(seed=args.seed, tol=args.tol)
    res = reps.chi_q1_upper_via_product(g, args.cmax, params, budget=args.budget)
    report = {"n": g.n, "cmax": args.cmax, "c": res.c,
              "skipped_infeasible": list(res.skipped_infeasible)}
    if res.c is None:
        report["certificate"] = None
        return report, EXIT_NO, (f"no rank-1 witness found for c <= {args.cmax} "
                                 "(not a lower-bound proof)")
    _emit(report, args, "certificate", _certificate("matrixrep", res.witness, args))
    return report, EXIT_YES, f"chi_q1 <= {res.c} (witnessed)"


def _cmd_verify_rep(args):
    g = io.read_graph(args.graph)
    kind, cert = _read_certificate(args.certificate, tuple(REP_VERIFIERS))
    valid = REP_VERIFIERS[kind](g, cert, args.tol)
    report = {"kind": kind, "valid": bool(valid)}
    summary = f"{kind} certificate {'verifies' if valid else 'FAILS'}"
    if kind == "theta":
        report.update(lower_theta=valid.bound, reason=valid.reason)
        summary += f": xi >= {valid.bound}" if valid else f": {valid.reason}"
    elif not valid:  # a VerifyResult says where
        summary += f": {valid}"
    return report, EXIT_YES if valid else EXIT_NO, summary


def _cmd_psd_witness(args):
    g = io.read_graph(args.graph)
    _, w = _read_certificate(args.witness, ("psd-witness",))
    res = reps.psd_witness_check(g, w, args.tol, args.rank_tol)
    report = {"rank": w.rank, "ok": res.ok, "reason": res.reason}
    if not res.ok:
        return report, EXIT_NO, f"witness rejected: {res.reason}"
    _emit(report, args, "certificate", _certificate("orthrep", res.representation, args))
    return report, EXIT_YES, (f"witness accepted: xi <= {w.rank} with a "
                              "verified representation")


def _cmd_hadamard(args):
    qc = reps.hadamard_quantum_coloring(args.bits)
    g = graphs.hadamard_graph(args.bits)
    valid = reps.verify_quantum_coloring(g, qc, args.tol)
    report = {"bits": args.bits, "n": g.n, "m": int(g.edge_array.shape[0]),
              "colors": qc.colors, "rank": qc.rank, "verified": bool(valid)}
    if not valid:
        # not an internal failure: the construction's inner products are
        # zero only up to float rounding (about 1e-16), so a --tol below
        # that rejects it, and "does not verify at this tol" is the answer
        return report, EXIT_NO, "construction failed verification"
    _emit(report, args, "certificate", _certificate("qcoloring", qc, args))
    return report, EXIT_YES, (f"Hadamard graph N={args.bits}: verified "
                              f"{qc.colors}-coloring of rank {qc.rank}")


def _cmd_ks_check(args):
    given, args.tol = args.tol, DEFAULT_TOL  # recorded should the set not load
    vs_raw, file_tol = datasets.load_vector_set(args.set)
    tol = args.tol = given or file_tol or DEFAULT_TOL  # the metadata records it
    s = ks.canonicalize(vs_raw.vectors, tol=tol, labels=vs_raw.labels)
    if args.oracle:
        dec = ks.brute_force_ks(s, tol=tol, budget=args.budget)
    else:
        dec = ks.ks_check(s, tol=tol, budget=args.budget)
    report = {"rays": s.size, "dimension": s.dimension, "bases": dec.bases,
              "merged": len(s.merged_ids), "is_ks": dec.is_ks,
              "is_weak_ks": dec.is_weak_ks, "method": dec.method,
              "status": dec.status, "decisions": dec.decisions,
              "property": "weak-ks" if args.weak else "ks",
              "witness": None}
    if dec.witness is not None:
        if not ks.verify_ks_witness(s, dec.witness, weak=not dec.is_weak_ks,
                                    tol=tol):
            raise RuntimeError("the KS witness failed verification")
        report["witness"] = list(dec.witness)
    holds = dec.is_weak_ks if args.weak else dec.is_ks
    if holds is None:
        return report, EXIT_BUDGET, "budget exceeded: undecided"
    name = "weak KS" if args.weak else "KS"
    return (report, EXIT_YES if holds else EXIT_NO,
            f"{args.set}: {'is' if holds else 'is NOT'} a {name} set "
            f"({dec.method})")


def _cmd_game(args):
    g, s = io.read_graph(args.graph), io.read_strategy(args.strategy)
    if args.game_command in ("exact", "check"):  # the evaluators assume a strategy
        game.validate_strategy(s)
    if args.game_command == "exact":
        wp = game.quantum_win_probability(g, s)
        perfect = abs(wp - 1.0) <= args.tol
        report = {"win_probability": wp, "questions": "uniform",
                  "perfect": perfect}
        return (report, EXIT_YES if perfect else EXIT_NO,
                f"win probability {wp:.12f}")
    if args.game_command == "simulate":
        rate = game.simulate_game(g, s, rounds=args.rounds, seed=args.seed)
        report = {"rounds": args.rounds, "win_rate": rate,
                  "questions": "uniform"}
        return report, EXIT_YES, f"simulated win rate {rate:.4f} ({args.rounds} rounds)"
    if args.game_command == "check":
        rep = game.check_consistency(s, g, args.tol)
        report = {"ok": rep.ok,
                  "violations": [asdict(v) for v in rep.violations[:100]]}
        return (report, EXIT_YES if rep.ok else EXIT_NO,
                "consistent" if rep.ok
                else f"{rep.count_text} violations (first 100 listed)")
    try:  # normalize
        res = game.normalize_strategy(s, g, args.tol, args.rank_tol)
    except game.NormalFormError as err:
        report = {"normalized": False, "rejected_stage": err.stage,
                  "message": str(err)}
        return report, EXIT_NO, f"rejected at stage: {err.stage}"
    nf = res.normal
    report = {"normalized": True,
              "stages": [name for name, _ in res.trace.stages],
              "schmidt_coefficients": list(res.trace.schmidt_coefficients),
              "colors": nf.colors, "local_dimension": nf.dim_a,
              "rank": nf.dim_a // nf.colors,
              "properties": game.normal_form_properties(nf, g, args.tol),
              "win_probability": game.quantum_win_probability(g, nf)}
    _emit(report, args, "strategy", io.strategy_to_dict(nf))
    return report, EXIT_YES, (f"normal form: {nf.colors} colors, rank "
                              f"{report['rank']}, local dimension {nf.dim_a}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.command if args.command != "game" else f"game {args.game_command}"
    try:
        report, code, summary = args.handler(args)
    except INPUT_ERRORS as err:
        report, code, summary = {"error": str(err)}, EXIT_INPUT, f"error: {err}"
    except Exception as err:  # a crash must never read as "no" (exit 1)
        frame = traceback.extract_tb(err.__traceback__)[-1]
        msg = (f"internal error: {type(err).__name__}: {err} (at "
               f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name})")
        report, code, summary = {"error": msg}, EXIT_INTERNAL, f"error: {msg}"
    full = {"command": name, "metadata": _metadata(args), **report}
    print(json.dumps(full, indent=1))
    print(f"qcolor {name}: {summary} [exit {code}]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
