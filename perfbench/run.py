#!/usr/bin/env python3
"""qcolor benchmark: one closed-loop client runs a workload's task list
again and again for a fixed time, and checks every answer.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``search`` (exact coloring, clique and KS
search), ``game`` (dense numerics on the Hadamard strategies) and ``reps``
(many small representation searches and normal forms).

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, plus the tracing
overhead; its report prints the end-to-end figures of the untraced passes
too.  The last line of standard output is one JSON object; the lines
before it say the same for a reader, with every rate's base.  A record of
the run, with every span of the traced passes, goes to
``.perfbench_out/``.

The benchmark imports qcolor from ``src/`` of the checkout it sits in and
exits with code 2 when that is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# fresh processes timed for setup_s (this one included); the median counts
SETUP_SAMPLES = 5
END_TO_END = [("solve_s", "s"), ("solved_frac", "ratio"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]
# printed with the end-to-end metrics but left out of the result object:
# the task mixes are multi-modal (reps: half the tasks under 30 ms, half
# near 300 ms), so noise moves the median task across the gap, and these
# read 3x apart on runs of the same code
TASK_LATENCY = [("task_p50_ms", "ms"), ("task_tail_ms", "ms")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("search", "game", "reps"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="how long to keep running passes (at least one runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and print it (used for the "
                        "fresh-process samples of setup_s)")
    return p.parse_args(argv)


def cap_blas_threads() -> None:
    """At most one BLAS thread per usable core, set before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else NPROC
        os.environ[var] = str(min(n, NPROC))


def set_up(workload: str, seed: int, workdir: Path):
    """Import qcolor and make the workload's inputs; returns the tasks and
    the seconds this took."""
    start = time.perf_counter()
    import workloads
    tasks = workloads.build(workload, seed, workdir)
    return tasks, time.perf_counter() - start


def fresh_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(tasks, tracer) -> list[tuple[str, float, str]]:
    """One pass over the task list: (outcome, seconds, detail) per task, the
    outcome being ok, wrong, budget or error."""
    from workloads import BudgetExhausted, WrongAnswer
    results = []
    state: dict = {}
    for i, task in enumerate(tasks):
        outcome, detail = "ok", ""
        start = time.perf_counter()
        with tracer.task(i, task.name):
            try:
                task.run(tracer, state)
            except WrongAnswer as err:
                outcome, detail = "wrong", str(err)
            except BudgetExhausted as err:
                outcome, detail = "budget", str(err)
            except Exception as err:  # a crash fails the task, not the run
                outcome, detail = "error", f"{type(err).__name__}: {err}"[:300]
        results.append((outcome, time.perf_counter() - start, detail))
    return results


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it (nearest
    rank), and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    if not (ROOT / "src" / "qcolor" / "__init__.py").is_file():
        print(f"error: no qcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tasks, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup] + [fresh_setup_seconds(args)
                                for _ in range(SETUP_SAMPLES - 1)]
        return measure(args, tasks, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tasks, setups) -> int:
    import layers
    import spans
    from facts import machine_facts

    if len(tasks) < 11:
        raise RuntimeError("a workload needs at least 11 tasks for its tail")
    passes = []  # (traced, seconds, results, tracer)
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and sum(p[0] for p in passes) < len(passes) / 2
        tracer = spans.Tracer(traced)
        start = time.perf_counter()
        results = run_pass(tasks, tracer)
        passes.append((traced, time.perf_counter() - start, results, tracer))
        if (time.perf_counter() - begin >= args.seconds
                and (not args.trace or any(p[0] for p in passes))):
            break

    plain = [p for p in passes if not p[0]]
    traced = [p for p in passes if p[0]]
    outcomes = [r for p in passes for r in p[2]]
    attempted = len(outcomes)
    failed = sum(o != "ok" for o, _, _ in outcomes)
    correct = not any(o == "wrong" for o, _, _ in outcomes)
    solve = statistics.median(p[1] for p in plain)
    per_task = [statistics.median(p[2][i][1] for p in plain)
                for i in range(len(tasks))]
    tail_s, tail_pct = tail(per_task)
    facts = machine_facts(args.seed, NPROC)

    print(f"qcolor benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{len(tasks)} tasks per pass, closed loop, one client")
    for i, task in enumerate(tasks):
        for detail in sorted({p[2][i][2] for p in passes if p[2][i][0] != "ok"}):
            print(f"failed task: {task.name}: {detail}")
    print(f"failed_frac = {failed / attempted:.6f} "
          f"({failed} failed of {attempted} tasks attempted)")
    print(f"correct = {correct} (no answer failed its check)")

    values = {"solve_s": solve,
              "task_p50_ms": 1e3 * statistics.median(per_task),
              "task_tail_ms": 1e3 * tail_s,
              "solved_frac": 1.0 - failed / attempted,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "setup_s": statistics.median(setups)}
    notes = {"solve_s": f"median of {len(plain)} untraced passes",
             "task_p50_ms": f"median over {len(tasks)} tasks of each task's "
                            "median time; not in the result object",
             "task_tail_ms": f"p{tail_pct:.1f} of {len(tasks)} tasks, 10 tasks "
                             "beyond it; not in the result object",
             "solved_frac": f"{attempted - failed} of {attempted}",
             "peak_rss_mb": "peak resident set of this process",
             "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups)}
    print("end to end:")
    for name, unit in END_TO_END + TASK_LATENCY:
        print(f"  {name:<14} {values[name]:.6g} {unit}  ({notes[name]})")
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        per_pass = [layers.per_layer(p[3].counters, spans.self_times(p[3].spans),
                                     spans.timer_totals(p[3].spans))
                    for p in traced]
        repeat = all(p[3].counters == traced[0][3].counters for p in traced)
        print(f"per layer, median of {len(traced)} traced passes (work counters "
              f"repeat across them: {repeat}):")
        base = {k: statistics.median(pp.get(k, 0) for pp in per_pass)
                for k in set().union(*per_pass)}
        base["trace.overhead_s"] = statistics.median(p[1] for p in traced) - solve
        for name, unit in layers.PER_LAYER:
            metrics[name] = {"value": base[name], "unit": unit}
            why = ""
            if name in layers.RATES:
                num, den = layers.RATES[name]
                why = f"  (= {base[num]:.6g} {num} / {base[den]:.6g} {den})"
            print(f"  {name:<26} {base[name]:.6g} {unit}{why}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "facts": facts, "metrics": metrics, "setup_samples_s": setups,
              "tasks": [t.name for t in tasks],
              "passes": [{"traced": p[0], "seconds": p[1],
                          "results": [list(r) for r in p[2]]} for p in passes],
              "spans": [s for k, p in enumerate(passes) if p[0]
                        for s in spans.span_records(p[3].spans, k)]}
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
