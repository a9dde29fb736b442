"""End-to-end command-line flows on tiny configurations."""

import json
import re
import struct

import numpy as np
import pytest

from able.cli import main
from able.config import build_run_config, config_key_help, load_config, stream_seed
from able.errors import ContractError

TINY_TRAIN = {
    "task": "burgers",
    "seed": 3,
    "model": {"width": 6, "n_layers": 1, "k_max": 4, "slices": 2,
              "density_arch": "mlp2", "density_hidden": 8, "proj_hidden": 8},
    "train": {"epochs": 1, "batch_size": 4, "learning_rate": 1e-3},
    "data": {"samples": 8, "n_test": 2, "resolution": 32, "generate_at": 64,
             "t_final": 0.02},
}


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(TINY_TRAIN))
    for key, value in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---- config machinery -----------------------------------------------------------

def test_unknown_config_keys_rejected():
    with pytest.raises(ContractError, match="unknown"):
        build_run_config({"task": "burgers", "modle": {}})
    with pytest.raises(ContractError, match="unknown"):
        build_run_config({"model": {"wdth": 3}})


def test_task_defaults_applied():
    cfg = build_run_config({"task": "darcy"})
    assert cfg.model.ndim == 2
    assert cfg.model.density_arch == "mlp2"
    assert cfg.data.resolution == 64
    cfg_b = build_run_config({"task": "burgers"})
    assert cfg_b.model.density_arch == "fd4"
    assert cfg_b.model.density_hidden == 16


def test_overrides_win_over_file(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path, overrides=["model.slices=5", "train.epochs=9",
                                       "data.nu=0.01"])
    assert cfg.model.slices == 5
    assert cfg.train.epochs == 9
    assert cfg.data.nu == 0.01


def test_stream_seeds_are_distinct_and_stable():
    assert stream_seed(7, "data") == stream_seed(7, "data")
    assert stream_seed(7, "data") != stream_seed(7, "init")
    assert stream_seed(7, "data") != stream_seed(8, "data")


def test_config_key_help_lists_defaults():
    text = config_key_help()
    for key in ("model.k_max", "model.slices", "train.learning_rate", "data.nu"):
        assert key in text
    assert "default=" in text


# ---- gen --------------------------------------------------------------------------

def test_gen_deterministic_checksum(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a.bin")]) == 0
    sum_a = re.search(r"sha256 (\w+)", capsys.readouterr().out).group(1)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "b.bin")]) == 0
    sum_b = re.search(r"sha256 (\w+)", capsys.readouterr().out).group(1)
    assert sum_a == sum_b
    assert (tmp_path / "a.bin.config.json").exists()
    from able.dataio import dataset_read
    meta = dataset_read(tmp_path / "a.bin").meta
    assert meta["solver"]["mean_drift_max"] < 1e-9
    assert meta["solver"]["energy_nonincreasing"] is True


def test_gen_empty_dataset(tmp_path):
    cfg = write_config(tmp_path, {"data.samples": 0})
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "e.bin")]) == 0
    from able.dataio import dataset_read
    assert dataset_read(tmp_path / "e.bin").samples == 0


def test_gen_darcy_small(tmp_path):
    cfg = write_config(tmp_path, {"task": "darcy",
                                  "model": {}, "data": {"samples": 2, "n_test": 1,
                                                        "resolution": 16,
                                                        "generate_at": 32}})
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.bin")]) == 0


def test_gen_bad_config_usage_error(tmp_path):
    cfg = write_config(tmp_path, {"data.nu": -1.0})
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.bin")]) == 2


# ---- train / eval -----------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_config(tmp)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp / "data.bin")]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(tmp / "data.bin"),
                 "--out", str(tmp / "run1")]) == 0
    return tmp, cfg


def test_train_outputs_exist(trained_run):
    tmp, _ = trained_run
    out = tmp / "run1"
    assert (out / "model.ckpt").exists()
    assert (out / "effective-config.json").exists()
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(records) == 1 and records[0]["epoch"] == 1
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2 and "best_test" in summary[0]


def test_train_reproducible_checkpoint(trained_run):
    tmp, cfg = trained_run
    assert main(["train", "--config", str(cfg), "--data", str(tmp / "data.bin"),
                 "--out", str(tmp / "run2")]) == 0
    assert (tmp / "run1/model.ckpt").read_bytes() == (tmp / "run2/model.ckpt").read_bytes()
    m1 = [json.loads(l) for l in (tmp / "run1/metrics.jsonl").read_text().splitlines()]
    m2 = [json.loads(l) for l in (tmp / "run2/metrics.jsonl").read_text().splitlines()]
    strip = lambda rs: [{k: v for k, v in r.items() if k != "seconds"} for r in rs]
    assert strip(m1) == strip(m2)


def test_eval_matches_trainer_metric(trained_run, capsys):
    tmp, cfg = trained_run
    # rebuild the train split exactly as the trainer saw it, evaluate the best
    # checkpoint on it, and compare against the logged metric for that epoch
    from able.config import load_config as lc
    from able.dataio import dataset_read
    from able.training import split_dataset
    config = lc(str(cfg))
    dataset = dataset_read(tmp / "data.bin")
    train_set, _ = split_dataset(dataset, config.data.n_test, seed=config.seed)
    from able.dataio import dataset_write
    dataset_write(train_set, tmp / "trainsplit.bin")
    assert main(["eval", "--checkpoint", str(tmp / "run1/model.ckpt"),
                 "--data", str(tmp / "trainsplit.bin"),
                 "--out", str(tmp / "evalrep")]) == 0
    capsys.readouterr()
    report = json.loads((tmp / "evalrep/report.json").read_text())
    records = [json.loads(l) for l in (tmp / "run1/metrics.jsonl").read_text().splitlines()]
    best = min(records, key=lambda r: r["test_loss"])
    assert report["mean_relative_l2"] == pytest.approx(best["train_loss"], abs=1e-12)


def test_eval_missing_dataset_file_error(trained_run):
    tmp, _ = trained_run
    assert main(["eval", "--checkpoint", str(tmp / "run1/model.ckpt"),
                 "--data", str(tmp / "nope.bin")]) == 3


def test_eval_corrupt_checkpoint_refused(trained_run):
    tmp, _ = trained_run
    bad = tmp / "bad.ckpt"
    blob = bytearray((tmp / "run1/model.ckpt").read_bytes())
    blob[:8] = b"XXXXXXXX"
    bad.write_bytes(bytes(blob))
    assert main(["eval", "--checkpoint", str(bad), "--data", str(tmp / "data.bin")]) == 3


def test_eval_zero_batch_size_usage_error(trained_run, capsys):
    tmp, _ = trained_run
    rc = main(["eval", "--checkpoint", str(tmp / "run1/model.ckpt"),
               "--data", str(tmp / "data.bin"), "--batch-size", "0"])
    assert rc == 2
    assert "batch size" in capsys.readouterr().err


def test_eval_unknown_model_key_is_file_error(trained_run, tmp_path, capsys):
    tmp, _ = trained_run
    blob = (tmp / "run1/model.ckpt").read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + hlen])
    header["model"]["warp_factor"] = 9
    raw = json.dumps(header).encode("utf-8")
    bad = tmp_path / "unknown_key.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:])
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(tmp / "data.bin")])
    assert rc == 3
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize("header", [[1, 2], {"weights": {}}, {"model": 3}],
                         ids=["not-an-object", "no-model", "model-not-an-object"])
def test_eval_checkpoint_header_without_model_object_is_file_error(
        trained_run, tmp_path, capsys, header):
    tmp, _ = trained_run
    blob = (tmp / "run1/model.ckpt").read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    raw = json.dumps(header).encode("utf-8")
    bad = tmp_path / "headless.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:])
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(tmp / "data.bin")])
    assert rc == 3
    assert "model" in capsys.readouterr().err


def _hand_written_dataset(path, extents, samples=2):
    """ABLEDS01 file whose header carries `extents` and a consistent payload."""
    points = int(np.prod(extents))
    header = struct.pack(f"<I{len(extents)}IQIIIQ", len(extents), *extents, samples,
                         1, 1, 0, 0)
    path.write_bytes(b"ABLEDS01" + header + np.zeros(2 * samples * points).tobytes())
    return path


@pytest.mark.parametrize("extents", [(12,), (4, 4, 4)], ids=["non-power-of-two", "rank-3"])
def test_eval_dataset_bad_grid_is_file_error(trained_run, tmp_path, capsys, extents):
    tmp, _ = trained_run
    data = _hand_written_dataset(tmp_path / "bad_grid.bin", extents)
    rc = main(["eval", "--checkpoint", str(tmp / "run1/model.ckpt"), "--data", str(data)])
    assert rc == 3
    assert "dataset header" in capsys.readouterr().err


def test_eval_architecture_mismatch_named(trained_run, tmp_path, capsys):
    tmp, cfg = trained_run
    cfg2 = write_config(tmp_path, {"task": "darcy",
                                   "data": {"samples": 3, "n_test": 1,
                                            "resolution": 16, "generate_at": 16}})
    assert main(["gen", "--config", str(cfg2), "--out", str(tmp_path / "d2.bin")]) == 0
    rc = main(["eval", "--checkpoint", str(tmp / "run1/model.ckpt"),
               "--data", str(tmp_path / "d2.bin")])
    assert rc == 2
    # error text names the dimensionality mismatch precisely


def test_missing_dataset_for_train_is_file_error(trained_run):
    tmp, cfg = trained_run
    assert main(["train", "--config", str(cfg), "--data", str(tmp / "missing.bin"),
                 "--out", str(tmp / "x")]) == 3


# ---- verify ---------------------------------------------------------------------------

def test_verify_quick_passes(tmp_path, capsys):
    assert main(["verify", "--level", "quick", "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v/report.json").read_text())
    assert report["passed"] is True
    assert "ALL CHECKS PASSED" in capsys.readouterr().out


def test_verify_injected_bug_exits_nonzero(capsys):
    assert main(["verify", "--level", "quick", "--inject", "fft-normalization"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_full_includes_rate_studies(tmp_path, capsys):
    assert main(["verify", "--level", "full", "--out", str(tmp_path / "vf")]) == 0
    report = json.loads((tmp_path / "vf/report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"step_truncation_slope", "partition_slope",
            "joint_truncation_partition_slope"} <= names
    slope_check = next(c for c in report["checks"] if c["name"] == "step_truncation_slope")
    assert slope_check["residual"] <= 0.05  # |slope + 1/2| within the band
    capsys.readouterr()


# ---- sweep ----------------------------------------------------------------------------

def test_sweep_m_axis_includes_fno_baseline(trained_run, capsys):
    tmp, cfg = trained_run
    assert main(["sweep", "--config", str(cfg), "--data", str(tmp / "data.bin"),
                 "--axis", "M", "--values", "1,2", "--out", str(tmp / "sweep")]) == 0
    rows = json.loads((tmp / "sweep/sweep.json").read_text())["rows"]
    assert [r["value"] for r in rows] == [1, 2]
    assert rows[1]["flops_total"] > rows[0]["flops_total"]
    assert "plain Fourier baseline" in capsys.readouterr().out
    csv_lines = (tmp / "sweep/sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 3


def test_sweep_t_axis_budget_zero_constant_rows(trained_run):
    tmp, cfg = trained_run
    assert main(["sweep", "--config", str(cfg), "--data", str(tmp / "data.bin"),
                 "--axis", "T", "--values", "0.5,1.0", "--set", "train.epochs=0",
                 "--out", str(tmp / "sweep_t")]) == 0
    rows = json.loads((tmp / "sweep_t/sweep.json").read_text())["rows"]
    assert len(rows) == 2
    assert all(np.isfinite(r["final_test"]) for r in rows)


def test_eval_identity_model_zero_loss(tmp_path):
    # hand-configured identity-capable model on an identity dataset
    from able.dataio import Dataset, dataset_write, save_checkpoint
    from able.frame import Grid
    from able.operator import ModelConfig, build_network

    cfg = ModelConfig(ndim=1, in_channels=1, out_channels=1, width=1, n_layers=1,
                      k_max=4, slices=1, activation="none", coord_features=False,
                      proj_hidden=1)
    net = build_network(cfg, seed=0)
    net.lift_w.data[...] = 1.0
    net.lift_b.data[...] = 0.0
    net.proj1_w.data[...] = 1.0
    net.proj1_b.data[...] = 0.0
    net.proj2_w.data[...] = 1.0
    net.proj2_b.data[...] = 0.0
    net.layers[0].multiplier.weights.data[...] = 0.0
    net.layers[0].pointwise.data[...] = 1.0
    net.layers[0].bias.data[...] = 0.0
    save_checkpoint(tmp_path / "id.ckpt", cfg, net.named_parameters())

    x = np.random.default_rng(0).standard_normal((4, 1, 16))
    dataset_write(Dataset(Grid((16,)), x, x.copy(), {"identity": True}),
                  tmp_path / "id.bin")
    assert main(["eval", "--checkpoint", str(tmp_path / "id.ckpt"),
                 "--data", str(tmp_path / "id.bin"),
                 "--out", str(tmp_path / "idrep")]) == 0
    report = json.loads((tmp_path / "idrep/report.json").read_text())
    assert report["mean_relative_l2"] < 1e-14


def test_every_subcommand_help_lists_config_keys(capsys):
    for cmd in ("gen", "train", "eval", "verify", "sweep", "rate-study", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "model.k_max" in out and "default=" in out, cmd


# ---- rate studies and bench -------------------------------------------------------------

def test_rate_study_outputs(tmp_path, capsys):
    assert main(["rate-study", "--study", "partition",
                 "--out", str(tmp_path / "part")]) == 0
    payload = json.loads((tmp_path / "part.json").read_text())
    assert abs(payload["fitted_slope"] + 1.0) < 0.02
    lines = (tmp_path / "part.csv").read_text().splitlines()
    assert lines[0] == "x,error" and len(lines) > 3
    assert "slope" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required args
    assert exc.value.code == 2
