#!/usr/bin/env python3
"""Temperature sweep on a small Burgers dataset, with entropy diagnostics.

Generates the data with `able gen` and trains one model per temperature
with `able sweep --axis T` (shared seed and budget; every network starts
from the run's "init" seed stream), then prints the loss and density
entropy per temperature from <out>/sweep/sweep.json. Last it rebuilds the
same initial network and checks that its density entropy at fixed weights
is monotone over the temperature ladder.

At the default budget the entropies do not tell the temperatures apart:
the density head's last layer starts at 0.1 of its usual scale, so the
density starts near uniform, and ten epochs leave every row within about
2e-3 of log M (0.691-0.693 for M = 2 at every T), trained or not.

Usage: python scripts/run_temperature_sweep.py [--out results/temperature_sweep]
       [--budget 10] [--temperatures 0.2,...] [--samples 50] [--seed 0]
"""

import argparse
import json
from pathlib import Path

from able.cli import main as cli_main
from able.config import load_config, stream_seed
from able.dataio import dataset_read
from able.operator import build_network
from able.training import split_dataset
from able.verify import entropy_vs_temperature_at_fixed_weights


def run(args):
    out = Path(args.out)
    data = out / "burgers.bin"
    overrides = [
        "task=burgers", f"seed={args.seed}",
        f"data.samples={args.samples}", f"data.n_test={max(args.samples // 5, 1)}",
        "data.nu=0.1", "data.resolution=128", "data.generate_at=512",
        "model.width=12", "model.n_layers=2", "model.k_max=8", "model.slices=2",
        "model.density_arch=fd4", "model.density_hidden=16", "model.proj_hidden=24",
        f"train.epochs={args.budget}", "train.batch_size=10",
    ]
    set_args = [x for item in overrides for x in ("--set", item)]
    rc = cli_main(["gen", *set_args, "--out", str(data)])
    if rc:
        return rc
    rc = cli_main(["sweep", *set_args, "--data", str(data), "--axis", "T",
                   "--values", args.temperatures, "--out", str(out / "sweep")])
    if rc:
        return rc

    rows = json.loads((out / "sweep" / "sweep.json").read_text())["rows"]
    print(f"{'T':>8} {'best test':>12} {'entropy':>10}")
    for row in rows:
        print(f"{row['value']:>8.3g} {row['best_test']:>12.6f} "
              f"{row['density_entropy']:>10.4f}")

    config = load_config(None, overrides)
    train_set, _ = split_dataset(dataset_read(data), config.data.n_test, seed=config.seed)
    net = build_network(config.model, seed=stream_seed(config.seed, "init"))
    ladder = sorted(row["value"] for row in rows)
    entropies = entropy_vs_temperature_at_fixed_weights(net, train_set.inputs[:4], ladder)
    monotone = all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
    print(f"entropy at fixed initial weights over T={ladder}: "
          f"{[round(e, 4) for e in entropies]} (monotone: {monotone})")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/temperature_sweep",
                        help="directory for the dataset and the sweep outputs")
    parser.add_argument("--temperatures", default="0.2,0.4,0.6,0.8,1.0,1.2",
                        help="comma-separated temperatures")
    parser.add_argument("--budget", type=int, default=10, help="epochs per temperature")
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    raise SystemExit(run(parser.parse_args()))
