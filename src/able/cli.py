"""Command-line entry point: gen / train / eval / verify / sweep / rate-study / bench.

`sweep` is the one loop that trains a network per value of M or T. Each
row it writes to sweep.json and sweep.csv carries the final and best test
loss, seconds per epoch, analytic flops, and the mean density entropy of
the trained network's first adaptive layer on the first (up to four)
training inputs at the row's temperature (0 for M = 1).

Exit codes: 0 success, 1 failed verification checks, 2 usage or config
error, 3 file, format or OS file error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .config import config_key_help, is_number, load_config, stream_seed
from .dataio import (Dataset, dataset_read, dataset_write, load_checkpoint,
                     make_burgers_dataset, make_darcy_dataset, write_atomic, write_json)
from .errors import (AbleError, ContractError, DataFormatError, DomainError,
                     NumericalFailure, UnsupportedSizeError)
from .operator import ModelConfig, build_network
from .pde import GrfSpec
from .training import evaluate, restore_network, split_dataset, train


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows) -> None:
    """A header row and data rows as UTF-8 CSV, with csv's CRLF line ends."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, [text.getvalue().encode("utf-8")])


def _check_model_fits(model: ModelConfig, dataset: Dataset) -> None:
    """Refuse a model whose grid rank or channel counts differ from the
    dataset's, or whose retained modes do not fit its grid (2 k_max <= N)."""
    for name, value in (("ndim", dataset.grid.dims), ("in_channels", dataset.inputs.shape[1]),
                        ("out_channels", dataset.targets.shape[1])):
        if getattr(model, name) != value:
            raise ContractError(f"model {name} is {getattr(model, name)} "
                                f"but the dataset's is {value}")
    if 2 * model.k_max > min(dataset.grid.extents):
        raise ContractError(f"model k_max {model.k_max} needs 2*k_max <= every extent "
                            f"of the dataset's grid {dataset.grid.extents}")


# ---- subcommands ------------------------------------------------------------------

def cmd_gen(args) -> int:
    config = load_config(args.config, args.set)
    data = config.data
    data_seed = stream_seed(config.seed, "data")
    if config.task == "burgers":
        grf = GrfSpec(dims=1, tau=data.tau, alpha=data.alpha, scale=data.scale)
        dataset = make_burgers_dataset(
            data.samples, nu=data.nu, seed=data_seed, resolution=data.resolution,
            generate_at=data.generate_at, grf=grf, t_final=data.t_final)
    else:
        grf = GrfSpec(dims=2, tau=data.tau, alpha=data.alpha, scale=data.scale,
                      threshold_levels=(data.threshold_high, data.threshold_low))
        dataset = make_darcy_dataset(
            data.samples, seed=data_seed, resolution=data.resolution,
            generate_at=data.generate_at, grf=grf, forcing=data.forcing)
    out = Path(args.out)
    dataset_write(dataset, out)
    write_json(out.with_suffix(out.suffix + ".config.json"), asdict(config))
    print(f"wrote {out} ({dataset.samples} samples, grid {dataset.grid.extents})")
    print(f"sha256 {_sha256(out)}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.set)
    dataset = dataset_read(args.data)
    _check_model_fits(config.model, dataset)
    net = build_network(config.model, seed=stream_seed(config.seed, "init"))
    train_set, test_set = split_dataset(dataset, config.data.n_test, seed=config.seed)
    out = Path(args.out)
    write_json(out / "effective-config.json", asdict(config))  # fail fast on a bad --out
    metrics = train(net, train_set, test_set, config.train,
                    checkpoint_path=out / "model.ckpt")
    lines = "".join(json.dumps(record, sort_keys=True) + "\n" for record in metrics.records)
    write_atomic(out / "metrics.jsonl", [lines.encode("utf-8")])
    summary = metrics.summary()
    _write_csv(out / "summary.csv", sorted(summary), [[summary[k] for k in sorted(summary)]])
    print(f"trained {config.task}: best test {metrics.best_test:.6f} "
          f"(epoch {metrics.best_epoch}), final test {summary['final_test']:.6f}")
    print(f"checkpoint {out / 'model.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    cfg_dict, params = load_checkpoint(args.checkpoint)
    net = restore_network(cfg_dict, params)
    dataset = dataset_read(args.data)
    _check_model_fits(net.config, dataset)
    mean, per_sample = evaluate(net, dataset, batch_size=args.batch_size)
    if not np.isfinite(mean):
        raise NumericalFailure(f"mean relative L2 over {dataset.samples} samples is {mean}")
    report = {
        "mean_relative_l2": mean,
        "samples": dataset.samples,
        "per_sample": per_sample.tolist(),
    }
    if args.out:
        out = Path(args.out)
        write_json(out / "report.json", report)
        _write_csv(out / "report.csv", ["sample", "relative_l2"], enumerate(per_sample))
    print(f"mean relative L2 over {dataset.samples} samples: {mean:.8f}")
    return 0


def cmd_verify(args) -> int:
    report = verify_mod.run_level(args.level, inject=args.inject)
    print(report.render_text())
    if args.out:
        out = Path(args.out)
        write_json(out / "report.json", report.to_dict())
        write_atomic(out / "report.txt", [(report.render_text() + "\n").encode("utf-8")])
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set)
    dataset = dataset_read(args.data)
    _check_model_fits(config.model, dataset)
    train_set, test_set = split_dataset(dataset, config.data.n_test, seed=config.seed)
    probe = train_set.inputs[:4]
    models = []         # one per value, each checked before anything is written
    for value in args.values:
        if args.axis == "M":
            if not isinstance(value, int):
                raise ContractError(f"slice counts are integers, got {value!r}")
            models.append(replace(config.model, slices=value))
        else:
            models.append(replace(config.model, temperature=float(value)))
    out = Path(args.out)
    write_json(out / "effective-config.json", asdict(config))  # fail fast on a bad --out
    rows = []
    for value, model_cfg in zip(args.values, models):
        net = build_network(model_cfg, seed=stream_seed(config.seed, "init"))
        metrics = train(net, train_set, test_set, config.train)
        seconds = [r["seconds"] for r in metrics.records if r["epoch"] > 0]
        rows.append({
            "axis": args.axis, "value": value,
            "final_test": metrics.records[-1]["test_loss"],
            "best_test": metrics.best_test,
            "seconds_per_epoch": float(np.mean(seconds)) if seconds else 0.0,
            "flops_total": metrics.flops["total"],
            "density_entropy": verify_mod.entropy_vs_temperature_at_fixed_weights(
                net, probe, [model_cfg.temperature])[0],
        })
    write_json(out / "sweep.json", {"rows": rows})
    _write_csv(out / "sweep.csv", list(rows[0]), [list(row.values()) for row in rows])
    for row in rows:
        label = " (plain Fourier baseline)" if args.axis == "M" and row["value"] == 1 else ""
        print(f"{args.axis}={row['value']}{label}: best test {row['best_test']:.6f}, "
              f"flops {row['flops_total']:.3e}, density entropy {row['density_entropy']:.4f}")
    return 0


def write_rate_study(result: verify_mod.RateStudyResult, prefix) -> None:
    """Write a rate study as `<prefix>.json` (full result) and `<prefix>.csv` (x, error);
    the prefix is kept verbatim, dots included."""
    write_json(Path(f"{prefix}.json"), result.to_dict())
    _write_csv(Path(f"{prefix}.csv"), ["x", "error"], zip(result.x_values, result.errors))


def cmd_rate_study(args) -> int:
    result = verify_mod.RATE_STUDIES[args.study]()
    write_rate_study(result, args.out)
    lo, hi = result.slope_ci
    print(f"{args.study}: fitted slope {result.fitted_slope:.4f} "
          f"(bootstrap CI [{lo:.4f}, {hi:.4f}])")
    return 0


def cmd_bench(args) -> int:
    result = verify_mod.complexity_scaling_check(m_list=args.m_list, n_list=args.n_list)
    if args.out:
        write_json(Path(args.out) / "bench.json", result)
    print(f"slice-count slope: {result['m_slope']:.3f} over M={list(args.m_list)}")
    print(f"grid-size exponent (after log factor): {result['n_exponent_after_log']:.3f}")
    print(f"single-slice layer vs plain Fourier layer: {result['m1_vs_fno_ratio']:.3f}x")
    return 0


# ---- parser -----------------------------------------------------------------------

def _number_list(text: str) -> list:
    """argparse type: comma-separated finite JSON numbers."""
    try:
        values = [json.loads(v) for v in text.split(",")]
    except json.JSONDecodeError:
        values = None
    if not values or not all(is_number(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}")
    return values


def _int_list(text: str) -> tuple:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                   help="override a config key (repeatable); values parsed as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="able",
        description="Adaptive-basis spectral neural operators: data, training, "
                    "evaluation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = config_key_help()
    raw = argparse.RawDescriptionHelpFormatter

    p = sub.add_parser("gen", help="generate a dataset file", epilog=epilog,
                       formatter_class=raw)
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a dataset", epilog=epilog,
                       formatter_class=raw)
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset file from `able gen`")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset",
                       epilog=epilog, formatter_class=raw)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="optional report directory")
    p.add_argument("--batch-size", type=int, default=50)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the property-check suite",
                       epilog=epilog, formatter_class=raw)
    p.add_argument("--level", choices=tuple(verify_mod.LEVELS), default="quick")
    p.add_argument("--out", default=None, help="optional report directory")
    p.add_argument("--inject", choices=("fft-normalization", "density-normalization"),
                   default=None, help="corrupt the harness to prove checks can fail")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="train once per value of M or T", epilog=epilog,
                       formatter_class=raw)
    _add_config_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--axis", choices=("M", "T"), required=True)
    p.add_argument("--values", required=True, type=_number_list,
                   help="comma-separated values")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rate-study", help="approximation-rate studies with slope fits",
                       epilog=epilog, formatter_class=raw)
    p.add_argument("--study", choices=tuple(verify_mod.RATE_STUDIES), required=True)
    p.add_argument("--out", required=True, help="output path prefix (.csv/.json)")
    p.set_defaults(func=cmd_rate_study)

    p = sub.add_parser("bench", help="measure layer-forward complexity scaling",
                       epilog=epilog, formatter_class=raw)
    p.add_argument("--m-list", type=_int_list, default="1,2,4,8")
    p.add_argument("--n-list", type=_int_list, default="1024,4096,16384")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, DomainError, UnsupportedSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except AbleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
