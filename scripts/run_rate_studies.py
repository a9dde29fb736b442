#!/usr/bin/env python3
"""Run all approximation-rate studies once each and print a summary table.

With --out, each study's result is also written as <out>/<study>.json and
<out>/<study>.csv, the files `able rate-study` writes.

Usage: python scripts/run_rate_studies.py [--out results/rates] [--with-2d]
"""

import argparse
from pathlib import Path

from able import verify
from able.cli import write_rate_study


def run(args):
    print(f"{'study':<12} {'slope':>8} {'CI':>20} {'expected':>9}")
    for name, study in verify.RATE_STUDIES.items():
        if name == "radial2d" and not args.with_2d:
            continue
        result = study()
        expected = result.extras.get("expected_slope",
                                     result.extras.get("expected_slope_upper_bound"))
        lo, hi = result.slope_ci
        print(f"{name:<12} {result.fitted_slope:>8.4f} "
              f"[{lo:>8.4f}, {hi:>8.4f}] {expected:>9.2f}")
        if args.out:
            write_rate_study(result, Path(args.out) / name)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="directory for CSV/JSON outputs")
    parser.add_argument("--with-2d", action="store_true",
                        help="include the slower 2-D radial study")
    run(parser.parse_args())
