"""Benchmark of the able package: training steps, evaluation and data generation.

    python3 perfbench/run.py --workload burgers-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
it alternates untraced and traced training epochs and reports the
per-layer metrics, the per-scope table, the trace coverage and the tracing
overhead; only this run imports `tracer.py`.
Every run checks its outputs with the gates in `gates.py`. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Workloads, metric names, units and bounds are listed in BENCHMARK.json.

The run uses one core, which the child processes that repeat the set-up
inherit. BLAS is pinned to one thread before numpy loads:
with two threads, small BLAS calls (the Darcy solver's norms, the density
head's matmuls) wait on a second core that other tenants of a shared
machine also use, which made timings swing by tens of percent. The process
is then pinned to the allowed CPU that runs a fixed pure-Python loop
fastest: on a shared virtual machine the two cores were seen to differ in
speed by 10-20%, with the slower one changing over minutes, so a run left
to the scheduler lands on either and the spread between runs widens.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_ROUNDS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="burgers-1d or darcy-2d")
    p.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    p.add_argument("--seconds", type=float, required=True, help="training time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    return p.parse_args(argv)


def pin_to_fastest_cpu() -> tuple:
    """Pin this process to the allowed CPU that runs a fixed loop fastest;
    returns (cpu, {cpu: median probe ms})."""
    cpus = sorted(os.sched_getaffinity(0))
    probe = {c: [] for c in cpus}
    for _ in range(PROBE_ROUNDS if len(cpus) > 1 else 0):
        for c in cpus:
            os.sched_setaffinity(0, {c})
            t0 = time.perf_counter()
            sum(i * i for i in range(200_000))
            probe[c].append((time.perf_counter() - t0) * 1e3)
    medians = {c: statistics.median(ms) for c, ms in probe.items() if ms}
    best = min(medians, key=medians.get) if medians else cpus[0]
    os.sched_setaffinity(0, {best})
    return best, medians


def _result(gates, metrics: dict) -> str:
    return json.dumps({
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    })


def untraced_run(W, G, args, workdir: Path, import_s: float) -> tuple:
    w = W.WORKLOADS[args.workload]
    gates = G.Gates()
    t0 = time.perf_counter()
    state = W.setup(w, args.seed)
    first_setup_s = import_s + time.perf_counter() - t0
    W.solver_gate(w, gates, "set-up data solver", state.data)

    logs, _, gen, repeats_s = W.closed_loop(state, args.seconds, gates, workdir,
                                            setup_repeats=W.SETUP_REPEATS - 1)
    setup_s = [first_setup_s] + repeats_s
    W.model_gates(state, gates)
    W.checkpoint_round_trips(state, workdir, gates)
    metrics, notes = W.end_to_end(statistics.median(setup_s), logs, gen, w)
    notes["setup_s"] = (f"median of {len(setup_s)} set-ups, import included, "
                        f"{', '.join(f'{s:.3f}' for s in setup_s)} s; the first before "
                        "training, the others during it")
    lines = [f"{name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
             for name, (value, unit) in metrics.items()]
    return gates, metrics, lines


def traced_run(W, G, args, workdir: Path, record: dict) -> tuple:
    import able
    import report as R
    w = W.WORKLOADS[args.workload]
    gates = G.Gates()
    state = W.setup(w, args.seed)
    W.solver_gate(w, gates, "set-up data solver", state.data)

    from tracer import Tracer
    tracer = Tracer()
    wrapped = tracer.install(able)
    untraced, traced, gen, _ = W.closed_loop(state, args.seconds, gates, workdir, tracer=tracer)
    tracer.label = "gates"
    W.model_gates(state, gates)
    tracer.label = "ckpt"
    W.checkpoint_round_trips(state, workdir, gates)

    values = {}
    lines = [f"traced {wrapped} public functions and methods of able"]
    for v in W.VARIANT_NAMES:
        values.update(R.per_variant(tracer, state, v, traced[v], untraced[v]))
        lines += R.scope_table(tracer, state, v, traced[v], record["cache_bytes"])
    values.update(R.generation(tracer, gen, w))
    units = {name: unit for name, unit, _ in W.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return gates, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "able" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'able'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    cpu, probe_ms = pin_to_fastest_cpu()
    t0 = time.perf_counter()
    import workloads as W
    import_s = time.perf_counter() - t0
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import gates as G
    import record as rec

    record = rec.run_record(ROOT, args.workload, args.seed)
    record["pinned_cpu"] = cpu
    record["cpu_probe_ms"] = {str(c): round(ms, 3) for c, ms in probe_ms.items()}
    print("record " + json.dumps(record, sort_keys=True))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            gates, metrics, lines = traced_run(W, G, args, workdir, record)
        else:
            gates, metrics, lines = untraced_run(W, G, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    print(f"gates: {gates.attempted} attempted, {gates.failed} failed")
    for miss in gates.misses:
        print(f"  gate missed: {miss}")
    print(_result(gates, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
