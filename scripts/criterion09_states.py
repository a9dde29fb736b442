#!/usr/bin/env python3
"""Acceptance criterion 09's complexity check in three allocator states.

Criterion 09 (`tests/test_acceptance.py`) fits the slope of one layer
forward's time against the slice count M and sets the one-slice forward
against the plain-numpy Fourier layer. Both readings depend on the state
of the process's allocator: the same check reads a different slope in a
fresh interpreter than after a large array has been freed, because the
forwards' buffers then come from pages already mapped.

The script runs `verify.complexity_scaling_check` at the criterion's sizes
(M = 1, 2, 4, 8 at N = 1024, 4096, 16384) `--runs` times, each in a fresh
child interpreter ("fresh"), `--runs` times in a fresh child that first
fills and frees a 16 MiB array ("freed"), and `--runs` times in a fresh
child whose environment pins glibc's thresholds ("pinned":
MALLOC_MMAP_THRESHOLD_=33554432 and MALLOC_TRIM_THRESHOLD_=1073741824, so
the forwards' buffers come from the heap and freed pages stay mapped, and
the forwards fault no pages). It prints each reading and then, per state,
the range of the slope and of the ratio next to the criterion's bands. It
reports; it does not gate.

    PYTHONPATH=src python scripts/criterion09_states.py --runs 3
"""

import argparse
import json
import os
import subprocess
import sys

M_LIST = (1, 2, 4, 8)
N_LIST = (1024, 4096, 16384)
SLOPE_BAND = (0.8, 1.2)
RATIO_BAND = (0.75, 1.25)
FREED_BYTES = 16 << 20
STATES = ("fresh", "freed", "pinned")
PINNED_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "1073741824"}


def child(state):
    """One check in this interpreter, printed as one JSON line."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")     # one BLAS thread, as the test run sets
    import numpy as np
    from able import verify

    if state == "freed":
        block = np.ones(FREED_BYTES // 8)
        del block
    result = verify.complexity_scaling_check(m_list=M_LIST, n_list=N_LIST)
    print(json.dumps({"slope": result["m_slope"], "ratio": result["m1_vs_fno_ratio"],
                      "m_times_us": [t * 1e6 for t in result["m_times"]]}))


def reading(state):
    # glibc reads its thresholds when the child starts, so they go in its environment
    env = dict(os.environ, **PINNED_ENV) if state == "pinned" else None
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", state],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def span(values):
    return f"{min(values):.3f}-{max(values):.3f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=3, help="checks per state")
    parser.add_argument("--child", choices=STATES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    readings = {state: [] for state in STATES}
    for _ in range(args.runs):
        for state in STATES:        # alternate, so drift in machine speed hits every state
            r = reading(state)
            readings[state].append(r)
            times = " ".join(f"{t:.0f}" for t in r["m_times_us"])
            print(f"{state}: slope {r['slope']:.3f} ratio {r['ratio']:.3f} "
                  f"forwards M={'/'.join(map(str, M_LIST))} {times} us")
    for state in STATES:
        rs = readings[state]
        print(f"{state} ({len(rs)} runs): slope {span([r['slope'] for r in rs])} "
              f"(band {SLOPE_BAND[0]}-{SLOPE_BAND[1]}), "
              f"ratio {span([r['ratio'] for r in rs])} "
              f"(band {RATIO_BAND[0]}-{RATIO_BAND[1]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
