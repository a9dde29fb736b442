#!/usr/bin/env python3
"""Paired comparison: M=2 adaptive model vs the M=1 Fourier baseline.

Generates a desk-scale viscous Burgers dataset, trains both models with a
shared seed and budget, and reports the final/best test errors side by
side. The ordering is reported, not asserted; at this budget the paired
runs mainly demonstrate determinism and the shared training pipeline.

Usage: python scripts/paired_burgers_smoke.py --out results/smoke [--samples 250]
"""

import argparse
from pathlib import Path

from able.cli import main as cli_main


def run(args):
    out = Path(args.out)
    data = out / "burgers.bin"
    overrides = [
        f"data.samples={args.samples}",
        f"train.epochs={args.epochs}",
        "train.schedule_every=15",
        "model.width=16", "model.n_layers=3", "model.k_max=12",
        "model.proj_hidden=32",
        f"seed={args.seed}",
    ]
    set_args = [x for item in overrides for x in ("--set", item)]
    rc = cli_main(["gen", *set_args, "--out", str(data)])
    if rc:
        return rc
    return cli_main(["sweep", *set_args, "--data", str(data),
                     "--axis", "M", "--values", "1,2", "--out", str(out / "paired")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/smoke")
    parser.add_argument("--samples", type=int, default=250)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=11)
    raise SystemExit(run(parser.parse_args()))
