"""qcolor's layers as the benchmark sees them: which module a function
belongs to, the work counters read off each function's result, and the
named timers that per-layer metrics are built from.

Counters come from what a call returns (``.nodes``, ``restarts_tried``, file
sizes) or from the size of its input (pairs evaluated), never from timing,
so they repeat exactly for a seed.
"""
from __future__ import annotations

import os

from qcolor import cli, coloring, game, graphs, io, ks, reps

# the bundled-set loader in qcolor.datasets is file decoding
_LAYER_ALIASES = {"datasets": "io"}


def layer_of(fn) -> str:
    name = fn.__module__.rsplit(".", 1)[-1]
    return _LAYER_ALIASES.get(name, name)


def _search(args, kwargs, res):
    return {"coloring.nodes": res.nodes,
            "coloring.budget_exhausted":
                int(res.status == coloring.BUDGET_EXCEEDED)}


def _edges(args, kwargs, g):
    return {"graphs.edges_built": g.m}


def _canonical_rays(args, kwargs, s):
    return {"ks.rays": s.size}


def _bases(args, kwargs, bases):
    return {"ks.bases": len(bases)}


def _restarts(args, kwargs, res):
    return {"reps.restarts": res.restarts_tried, "reps.searches": 1,
            "reps.found": int(res.found)}


def _verify_pairs(per_edge):
    # the verifiers' work when they accept: every edge, times the colors or
    # dimension checked on it (a rejection stops early and counts the same)
    def count(args, kwargs, ok):
        g, rep = args[0], args[1]
        return {"reps.verify_pairs": g.m * per_edge(rep)}
    return count


def _game_pairs(graph_pos):
    # ordered question pairs (diagonal plus both edge orientations) times
    # colors: the values the win and consistency evaluators compute
    def count(args, kwargs, out):
        g, s = args[graph_pos], args[1 - graph_pos]
        return {"game.pairs": (g.n + 2 * g.m) * s.colors}
    return count


def _rounds(args, kwargs, rate):
    return {"game.rounds": kwargs["rounds"]}


def _written(args, kwargs, out):
    return {"io.bytes_written": os.path.getsize(args[1])}


def _read(args, kwargs, out):
    return {"io.bytes_read": os.path.getsize(args[0])}


def _cli(args, kwargs, code):
    return {"cli.calls": 1}


WORK = {
    coloring.chromatic_number: _search,
    coloring.clique_number: _search,
    coloring.is_c_colorable: _search,
    graphs.make_graph: _edges,
    graphs.hadamard_graph: _edges,
    graphs.orthogonality_graph: _edges,
    graphs.cartesian_product: _edges,
    graphs.complete_graph: _edges,
    ks.canonicalize: _canonical_rays,
    ks.enumerate_bases: _bases,
    reps.search_orthogonal_representation: _restarts,
    reps.verify_orthogonal_representation: _verify_pairs(lambda rep: 1),
    reps.verify_matrix_representation: _verify_pairs(lambda rep: rep.dimension),
    reps.verify_quantum_coloring: _verify_pairs(lambda qc: qc.colors),
    game.quantum_win_probability: _game_pairs(0),
    game.check_consistency: _game_pairs(1),
    game.simulate_game: _rounds,
    io.write_strategy: _written,
    io.read_strategy: _read,
    io.read_graph: _read,
    io.read_certificate: _read,
    cli.main: _cli,
}

# "<layer>.<function>" -> the per-layer timer its spans add to
TIMERS = {
    "coloring.chromatic_number": "coloring.search_s",
    "coloring.clique_number": "coloring.search_s",
    "coloring.is_c_colorable": "coloring.search_s",
    "ks.canonicalize": "ks.canonicalize_s",
    "ks.enumerate_bases": "ks.bases_s",
    "ks.ks_check": "ks.check_s",
    "ks.brute_force_ks": "ks.oracle_s",
    "reps.search_orthogonal_representation": "reps.search_s",
    "reps.xi_bounds": "reps.bounds_s",
    "reps.chi_q1_upper_via_product": "reps.bounds_s",
    "reps.verify_orthogonal_representation": "reps.verify_s",
    "reps.verify_matrix_representation": "reps.verify_s",
    "reps.verify_quantum_coloring": "reps.verify_s",
    "game.quantum_win_probability": "game.win_s",
    "game.check_consistency": "game.consistency_s",
    "game.validate_strategy": "game.validate_s",
    "game.simulate_game": "game.simulate_s",
    "game.normalize_strategy": "game.normalize_s",
    "game.normal_form_properties": "game.nf_props_s",
    "io.write_strategy": "io.encode_s",
    "io.read_strategy": "io.decode_s",
    "io.read_graph": "io.decode_s",
    "io.read_certificate": "io.decode_s",
    "io.load_vector_set": "io.decode_s",
}

LAYERS = ("graphs", "coloring", "ks", "reps", "game", "io", "cli")

# rate -> (numerator, denominator), both names of counters or timers, so a
# report can print a rate with its base
RATES = {
    "coloring.nodes_per_s": ("coloring.nodes", "coloring.search_s"),
    "graphs.edges_per_s": ("graphs.edges_built", "graphs.busy_s"),
    "reps.restarts_per_s": ("reps.restarts", "reps.search_s"),
    "reps.found_ratio": ("reps.found", "reps.searches"),
    "reps.verify_pairs_per_s": ("reps.verify_pairs", "reps.verify_s"),
    "game.pairs_per_s": ("game.pairs", "game.pair_eval_s"),
    "game.rounds_per_s": ("game.rounds", "game.simulate_s"),
    "io.encode_mb_per_s": ("io.mb_written", "io.encode_s"),
    "io.decode_mb_per_s": ("io.mb_read", "io.decode_s"),
}

# every per-layer metric with its unit, in report order
PER_LAYER = [
    ("coloring.busy_s", "s"), ("coloring.search_s", "s"),
    ("coloring.nodes", "count"), ("coloring.nodes_per_s", "1/s"),
    ("coloring.budget_exhausted", "count"),
    ("ks.busy_s", "s"), ("ks.canonicalize_s", "s"), ("ks.bases_s", "s"),
    ("ks.check_s", "s"), ("ks.oracle_s", "s"), ("ks.rays", "count"),
    ("ks.bases", "count"),
    ("graphs.busy_s", "s"), ("graphs.edges_built", "count"),
    ("graphs.edges_per_s", "1/s"),
    ("reps.busy_s", "s"), ("reps.search_s", "s"), ("reps.bounds_s", "s"),
    ("reps.restarts", "count"), ("reps.restarts_per_s", "1/s"),
    ("reps.found_ratio", "ratio"), ("reps.verify_s", "s"),
    ("reps.verify_pairs", "count"), ("reps.verify_pairs_per_s", "1/s"),
    ("game.busy_s", "s"), ("game.win_s", "s"), ("game.consistency_s", "s"),
    ("game.pairs", "count"), ("game.pairs_per_s", "1/s"),
    ("game.validate_s", "s"), ("game.simulate_s", "s"),
    ("game.rounds_per_s", "1/s"), ("game.normalize_s", "s"),
    ("game.nf_props_s", "s"),
    ("io.busy_s", "s"), ("io.encode_s", "s"), ("io.decode_s", "s"),
    ("io.bytes_written", "B"), ("io.bytes_read", "B"),
    ("io.encode_mb_per_s", "MB/s"), ("io.decode_mb_per_s", "MB/s"),
    ("cli.busy_s", "s"), ("cli.calls", "count"),
    ("bench.self_s", "s"), ("trace.overhead_s", "s"),
] + [(f"{layer}.errors", "count") for layer in LAYERS]  # calls that raised


def per_layer(counters, self_s: dict, timers: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, and the bases of its rates.
    ``trace.overhead_s`` compares passes and is filled in by the caller."""
    base = dict.fromkeys([name for name, _ in PER_LAYER], 0)
    base.update(dict.fromkeys([n for pair in RATES.values() for n in pair], 0))
    base.update(timers)
    base.update(counters)
    for layer in LAYERS:
        base[f"{layer}.busy_s"] = self_s.get(layer, 0.0)
    base["bench.self_s"] = self_s.get("task", 0.0)
    base["game.pair_eval_s"] = base["game.win_s"] + base["game.consistency_s"]
    base["io.mb_written"] = base.get("io.bytes_written", 0) / 1e6
    base["io.mb_read"] = base.get("io.bytes_read", 0) / 1e6
    for rate, (num, den) in RATES.items():
        d = base.get(den, 0)
        base[rate] = base.get(num, 0) / d if d else 0.0
    return base
