"""End-to-end command-line flows on tiny configurations."""

import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from able.cli import main
from able.config import build_run_config, config_key_help, load_config, stream_seed
from able.dataio import load_checkpoint
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


@pytest.mark.parametrize("content", [b'{"task": "burgers",', b'{"task": "\xff"}'],
                         ids=["invalid-json", "not-utf-8"])
def test_malformed_config_file_is_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "bad-config.json"
    cfg.write_bytes(content)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.bin")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "x.bin").exists()


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


def test_effective_config_loads_back(trained_run):
    tmp, _ = trained_run
    path = tmp / "run1/effective-config.json"
    config = load_config(str(path))
    assert json.loads(json.dumps(asdict(config))) == json.loads(path.read_text())
    assert config.train.seed == config.seed == TINY_TRAIN["seed"]


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


def _checkpoint_with_model(src, dst, **changes):
    """Copy of checkpoint `src` whose header's model object is updated with `changes`."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + hlen])
    header["model"].update(changes)
    raw = json.dumps(header).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:])
    return dst


def test_eval_unknown_model_key_is_file_error(trained_run, tmp_path, capsys):
    tmp, _ = trained_run
    bad = _checkpoint_with_model(tmp / "run1/model.ckpt", tmp_path / "unknown_key.ckpt",
                                 warp_factor=9)
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(tmp / "data.bin")])
    assert rc == 3
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [{"density_arch": "foo"}, {"kind": "foo"},
                                     {"temperature": -1.0}, {"temperature": float("nan")},
                                     {"slices": 0}, {"ndim": 2, "density_arch": "fd4"},
                                     {"k_max": -1}, {"k_max": 0}, {"in_channels": -2},
                                     {"out_channels": -1}, {"ndim": 3}],
                         ids=["density-arch", "kind", "temperature", "temperature-nan",
                              "slices", "2-D-fd4", "k-max-negative", "k-max-zero",
                              "in-channels-negative", "out-channels-negative", "ndim-three"])
def test_eval_header_that_fails_the_build_is_file_error(trained_run, tmp_path, capsys, changes):
    tmp, _ = trained_run
    bad = _checkpoint_with_model(tmp / "run1/model.ckpt", tmp_path / "unbuildable.ckpt",
                                 **changes)
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(tmp / "data.bin")])
    assert rc == 3
    assert "checkpoint header" in capsys.readouterr().err


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


def _hand_written_dataset(path, extents, samples=2, fill=0.0, meta=b""):
    """ABLEDS01 file whose header carries `extents` and a consistent payload."""
    points = int(np.prod(extents))
    header = struct.pack(f"<I{len(extents)}IQIIIQ", len(extents), *extents, samples,
                         1, 1, 0, len(meta))
    payload = np.zeros(2 * samples * points)
    payload[0] = fill
    path.write_bytes(b"ABLEDS01" + header + payload.tobytes() + meta)
    return path


@pytest.mark.parametrize("extents", [(12,), (4, 4, 4)], ids=["non-power-of-two", "rank-3"])
def test_eval_dataset_bad_grid_is_file_error(trained_run, tmp_path, capsys, extents):
    tmp, _ = trained_run
    data = _hand_written_dataset(tmp_path / "bad_grid.bin", extents)
    rc = main(["eval", "--checkpoint", str(tmp / "run1/model.ckpt"), "--data", str(data)])
    assert rc == 3
    assert "dataset header" in capsys.readouterr().err


@pytest.mark.parametrize("fill,meta,message", [(np.nan, b"", "non-finite"),
                                                (0.0, b"1", "JSON object")],
                         ids=["non-finite-payload", "metadata-not-an-object"])
def test_train_bad_dataset_payload_is_file_error(trained_run, tmp_path, capsys, fill, meta,
                                                 message):
    tmp, cfg = trained_run
    data = _hand_written_dataset(tmp_path / "bad_payload.bin", (32,), samples=8, fill=fill,
                                 meta=meta)
    rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert message in capsys.readouterr().err


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
    # one slice: the density is identically one, so its entropy is exactly zero
    assert rows[0]["density_entropy"] == 0.0
    assert 0.0 < rows[1]["density_entropy"] <= np.log(2) + 1e-12
    assert "plain Fourier baseline" in capsys.readouterr().out
    csv_lines = (tmp / "sweep/sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 3
    assert "density_entropy" in csv_lines[0].split(",")


def test_sweep_t_axis_budget_zero_constant_rows(trained_run):
    tmp, cfg = trained_run
    assert main(["sweep", "--config", str(cfg), "--data", str(tmp / "data.bin"),
                 "--axis", "T", "--values", "2.0,0.5,1.0", "--set", "train.epochs=0",
                 "--out", str(tmp / "sweep_t")]) == 0
    rows = json.loads((tmp / "sweep_t/sweep.json").read_text())["rows"]
    assert [r["value"] for r in rows] == [2.0, 0.5, 1.0]
    assert all(np.isfinite(r["final_test"]) and np.isfinite(r["density_entropy"])
               for r in rows)


def test_sweep_huge_t_density_entropy_is_log_two(trained_run):
    tmp, cfg = trained_run
    assert main(["sweep", "--config", str(cfg), "--data", str(tmp / "data.bin"),
                 "--axis", "T", "--values", "1e6", "--set", "train.epochs=2",
                 "--out", str(tmp / "sweep_huge_t")]) == 0
    rows = json.loads((tmp / "sweep_huge_t/sweep.json").read_text())["rows"]
    # at huge temperature the 2-slice density is uniform even after training
    assert abs(rows[0]["density_entropy"] - np.log(2)) < 1e-6


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


def test_rate_study_keeps_a_dotted_prefix_verbatim(tmp_path):
    assert main(["rate-study", "--study", "partition",
                 "--out", str(tmp_path / "study.v2")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.v2.csv", "study.v2.json"]


def test_bench_writes_its_report(tmp_path, capsys):
    assert main(["bench", "--m-list", "1,2", "--n-list", "64,128",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["m_list"] == [1, 2] and report["n_list"] == [64, 128]
    assert len(report["m_times"]) == 2 and len(report["n_times"]) == 2
    assert "slice-count slope" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required args
    assert exc.value.code == 2


def run_cli(*argv):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "able.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_eval_checkpoint_declaring_more_than_it_holds_is_file_error(tmp_path):
    # one tensor of 65535**4 float64 elements, more bytes than an int64
    # counts, followed by a payload of eight bytes
    header = b'{"model": {}}'
    bad = tmp_path / "overflow.ckpt"
    bad.write_bytes(b"ABLECKP1" + struct.pack("<I", len(header)) + header
                    + struct.pack("<IH1sBB4I", 1, 1, b"w", 0, 4, *(65535,) * 4) + bytes(8))
    done = run_cli("eval", "--checkpoint", bad, "--data", tmp_path / "data.bin")
    assert done.returncode == 3, done.stderr
    assert "truncated checkpoint at tensor 'w'" in done.stderr
    assert "Traceback" not in done.stderr


def test_train_diverging_on_its_last_step_is_numerical_failure(trained_run, tmp_path):
    # one batch of the six training samples: the only step diverges, so no
    # batch loss is non-finite but the epoch's evaluation is
    tmp, cfg = trained_run
    out = tmp_path / "out"
    done = run_cli("train", "--config", cfg, "--data", tmp / "data.bin", "--out", out,
                   "--set", "train.batch_size=6", "--set", "train.learning_rate=1e300")
    assert done.returncode == 4, done.stderr
    assert "numerical failure" in done.stderr and "Traceback" not in done.stderr
    assert not (out / "model.ckpt").exists()


def test_eval_on_a_dataset_with_no_samples_is_usage_error(trained_run, tmp_path):
    tmp, cfg = trained_run
    empty, out = tmp_path / "empty.bin", tmp_path / "rep"
    assert run_cli("gen", "--config", cfg, "--set", "data.samples=0",
                   "--out", empty).returncode == 0
    done = run_cli("eval", "--checkpoint", tmp / "run1/model.ckpt", "--data", empty,
                   "--out", out)
    assert done.returncode == 2, done.stderr
    assert "no samples" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_eval_with_a_non_finite_mean_is_numerical_failure(trained_run, tmp_path):
    # inputs of 1e300 overflow the network's forward, so every sample's
    # relative L2 is inf
    from able.dataio import Dataset, dataset_read, dataset_write
    tmp, _ = trained_run
    dataset = dataset_read(tmp / "data.bin")
    huge, out = tmp_path / "huge.bin", tmp_path / "rep"
    dataset_write(Dataset(dataset.grid, np.full_like(dataset.inputs, 1e300),
                          dataset.targets, {}), huge)
    done = run_cli("eval", "--checkpoint", tmp / "run1/model.ckpt", "--data", huge,
                   "--out", out)
    assert done.returncode == 4, done.stderr
    assert "numerical failure" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_effective_config_model_is_the_checkpoint_header(trained_run, tmp_path):
    tmp, cfg = trained_run
    header, _ = load_checkpoint(tmp / "run1/model.ckpt")
    written = json.loads((tmp / "run1/effective-config.json").read_text())["model"]
    assert written == header
    # a model that does not fit the dataset is refused, not bound to it
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--data", str(tmp / "data.bin"),
                 "--out", str(out), "--set", "model.ndim=2", "--set", "model.in_channels=3"]) == 2
    assert not out.exists()


def test_unknown_activation_is_usage_error_without_traceback(trained_run, tmp_path):
    tmp, cfg = trained_run
    done = run_cli("train", "--config", cfg, "--data", tmp / "data.bin",
                   "--out", tmp_path / "out", "--set", 'model.activation="foo"')
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "activation" in done.stderr


@pytest.mark.parametrize("argv", [["verify", "--out", "{file}"],
                                  ["gen", "--config", "{cfg}", "--out", "{file}/x.bin"],
                                  ["rate-study", "--study", "partition", "--out", "{file}/p"]],
                         ids=["verify", "gen", "rate-study"])
def test_out_under_a_regular_file_is_file_error_without_traceback(tmp_path, argv):
    paths = {"file": tmp_path / "plain-file", "cfg": write_config(tmp_path)}
    paths["file"].write_bytes(b"not a directory")
    done = run_cli(*(a.format(**paths) for a in argv))
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert "file error" in done.stderr
    assert paths["file"].read_bytes() == b"not a directory"


# ---- bad values end in their exit code ---------------------------------------------------

BAD_INPUTS = {
    "train-seed-differs-from-run-seed": (["train", "--set", "train.seed=5"], 2),
    "seed-not-an-integer": (["train", "--set", "seed=abc"], 2),
    "model-not-an-object": (["train", "--set", "model=3"], 2),
    "width-not-an-integer": (["train", "--set", "model.width=abc"], 2),
    "epochs-not-an-integer": (["train", "--set", "train.epochs=abc"], 2),
    "act-flags-not-a-list": (["train", "--set", "model.act_flags=5"], 2),
    "act-flags-wrong-length": (["train", "--set", "model.act_flags=[true,false]"], 2),
    "density-hidden-negative": (["train", "--set", "model.density_hidden=-3"], 2),
    "density-hidden-zero": (["train", "--set", "model.density_hidden=0"], 2),
    "fd4-density-hidden-one": (["train", "--set", "model.density_arch=fd4",
                                "--set", "model.density_hidden=1"], 2),
    "width-zero": (["train", "--set", "model.width=0"], 2),
    "width-negative": (["train", "--set", "model.width=-2"], 2),
    "proj-hidden-zero": (["train", "--set", "model.proj_hidden=0"], 2),
    "proj-hidden-negative": (["train", "--set", "model.proj_hidden=-1"], 2),
    "n-layers-negative": (["train", "--set", "model.n_layers=-1"], 2),
    "epochs-negative": (["train", "--set", "train.epochs=-1"], 2),
    "schedule-every-zero": (["train", "--set", "train.schedule_every=0"], 2),
    "beta1-one": (["train", "--set", "train.beta1=1.0"], 2),
    "beta2-one": (["train", "--set", "train.beta2=1.0"], 2),
    "eps-zero": (["train", "--set", "train.eps=0"], 2),
    "eps-negative": (["train", "--set", "train.eps=-1"], 2),
    "k-max-zero": (["train", "--set", "model.k_max=0"], 2),
    "k-max-negative": (["train", "--set", "model.k_max=-1"], 2),
    "in-channels-zero": (["train", "--set", "model.in_channels=0"], 2),
    "out-channels-negative": (["train", "--set", "model.out_channels=-1"], 2),
    "ndim-three": (["train", "--set", "model.ndim=3"], 2),
    # the dataset has one input channel and 32 points
    "in-channels-mismatch": (["train", "--set", "model.in_channels=3"], 2),
    "k-max-beyond-grid": (["train", "--set", "model.k_max=17"], 2),
    "sweep-out-channels-mismatch": (["sweep", "--axis", "M", "--values", "1",
                                     "--set", "model.out_channels=2"], 2),
    "sweep-k-max-beyond-grid": (["sweep", "--axis", "M", "--values", "1",
                                 "--set", "model.k_max=17"], 2),
    "sweep-slices-zero": (["sweep", "--axis", "M", "--values", "1,0"], 2),
    "sweep-temperature-zero": (["sweep", "--axis", "T", "--values", "0.5,0"], 2),
    "gen-resolution-zero": (["gen", "--set", "data.resolution=0"], 2),
    "gen-samples-negative": (["gen", "--set", "data.samples=-1"], 2),
    "gen-darcy-samples-negative": (["gen", "--set", "task=darcy", "--set", "data.samples=-1"], 2),
    "gen-t-final-negative": (["gen", "--set", "data.t_final=-1"], 2),
    "checkpoint-width-not-an-integer": (["eval", "--checkpoint", "{bad_ckpt}"], 3),
    "learning-rate-nan": (["train", "--set", "train.learning_rate=NaN"], 2),
    "temperature-nan": (["train", "--set", "model.temperature=NaN"], 2),
    "temperature-infinite": (["train", "--set", "model.temperature=Infinity"], 2),
    "nu-negative-infinite": (["train", "--set", "data.nu=-Infinity"], 2),
    "sweep-values-not-numbers": (["sweep", "--axis", "M", "--values", "x"], 2),
    "sweep-values-infinite": (["sweep", "--axis", "T", "--values", "0.5,Infinity"], 2),
    "sweep-values-nan": (["sweep", "--axis", "T", "--values", "NaN"], 2),
    "bench-m-list-not-integers": (["bench", "--m-list", "a"], 2),
    "bench-n-list-not-powers-of-two": (["bench", "--n-list", "1000,2000"], 2),
    "bench-n-list-negative": (["bench", "--n-list=-4,1024"], 2),
    "bench-single-value-lists": (["bench", "--m-list", "1", "--n-list", "1024"], 2),
    "bench-repeated-values": (["bench", "--m-list", "2,2", "--n-list", "1024,1024"], 2),
}
RUN_ARGS = {"train": ["--config", "{cfg}", "--data", "{data}", "--out", "{out}"],
            "sweep": ["--config", "{cfg}", "--data", "{data}", "--out", "{out}"],
            "eval": ["--data", "{data}"], "bench": [], "gen": ["--out", "{out}"]}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exit_code(trained_run, tmp_path, case):
    tmp, cfg = trained_run
    argv, expected = BAD_INPUTS[case]
    paths = {"cfg": cfg, "data": tmp / "data.bin", "out": tmp_path / "out",
             "bad_ckpt": _checkpoint_with_model(tmp / "run1/model.ckpt",
                                                tmp_path / "bad.ckpt", width="abc")}
    argv = [a.format(**paths) for a in argv + RUN_ARGS[argv[0]]]
    try:
        rc = main(argv)
    except SystemExit as exc:       # argparse rejects a malformed flag value itself
        rc = exc.code
    assert rc == expected
    assert not list(tmp_path.glob("out*"))      # a refused run leaves no output
