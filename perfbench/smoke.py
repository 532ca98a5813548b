#!/usr/bin/env python3
"""Smoke tests of the benchmark itself:

    python3 perfbench/smoke.py

* every workload runs at a reduced size under a second seed, and its only
  failure is the known one: the 3000-vertex path that hits the recursion
  limit in ``search``;
* the work counters of two runs with the same seed are equal;
* a corrupted certificate (one flipped color, one perturbed vector) counts
  as a failed task and makes the run incorrect;
* the metric names and units match BENCHMARK.json;
* in a directory holding only BENCHMARK.json and the benchmark, run.py exits
  with a non-zero code and prints no result.

Exits with code 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SEED = 2
EXPECTED_FAILURES = {"search": {("path3000+triangle", "error", "RecursionError")},
                     "game": set(), "reps": set()}


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import layers
    import spans
    import workloads
    from qcolor import coloring, graphs, reps

    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "end-to-end metrics match BENCHMARK.json")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER,
          "per-layer metrics match BENCHMARK.json")

    workdir = run.ROOT / ".perfbench_work" / "smoke"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name in workloads.NAMES:
            counters = []
            for attempt in range(2):
                tasks = workloads.build(name, SEED, workdir, small=True)
                tracer = spans.Tracer(True)
                results = run.run_pass(tasks, tracer)
                counters.append(tracer.counters)
            failures = {(t.name, outcome, detail.split(":")[0])
                        for t, (outcome, _, detail) in zip(tasks, results)
                        if outcome != "ok"}
            check(failures == EXPECTED_FAILURES[name],
                  f"{name}: failures are exactly {sorted(EXPECTED_FAILURES[name])}"
                  f" (got {sorted(failures)})")
            check(counters[0] == counters[1] and sum(counters[0].values()) > 0,
                  f"{name}: work counters repeat for seed {SEED}")
            roots = {s.id for s in tracer.spans if s.layer == "task"}
            check(len(roots) == len(tasks) and all(
                s.parent in roots for s in tracer.spans if s.layer != "task"),
                f"{name}: every layer span has its task span as parent")

        # corrupted certificates go through the same checks and accounting
        c5 = graphs.make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        cert = coloring.chromatic_number(c5).certificate
        flipped = coloring.ColoringCertificate(
            cert.c, (cert.colors[1],) + cert.colors[1:])
        rep = reps.xi_bounds(c5).upper_witness
        vectors = rep.vectors.copy()
        vectors[0] += 1e-6
        perturbed = reps.OrthogonalRepresentation(rep.dimension, vectors)
        corrupt = [
            workloads.Task("flipped-color", lambda t, s: workloads.check_coloring(
                t, c5, flipped, cert.c)),
            workloads.Task("perturbed-vector", lambda t, s: workloads.check_orthrep(
                t, c5, perturbed, rep.dimension)),
        ]
        # pad to a real pass: the intact certificates pass the same checks
        intact = [
            workloads.Task("intact-color", lambda t, s: workloads.check_coloring(
                t, c5, cert, cert.c)),
            workloads.Task("intact-vector", lambda t, s: workloads.check_orthrep(
                t, c5, rep, rep.dimension)),
        ]
        outcomes = [r[0] for r in run.run_pass(corrupt + intact, spans.Tracer(False))]
        check(outcomes == ["wrong", "wrong", "ok", "ok"],
              f"corrupted certificates fail, intact ones pass (got {outcomes})")

        bare = workdir / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in (run.ROOT / "perfbench").glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"without qcolor sources run.py exits {proc.returncode} "
              "and prints no result")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("smoke tests " + ("passed" if not problems else
                            f"FAILED: {len(problems)} check(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
