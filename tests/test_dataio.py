"""The one file writer: outputs are whole or absent, with open()'s permission bits."""

import os
import stat

import numpy as np
import pytest

from able import dataio
from able.cli import main
from able.frame import Grid
from able.operator import ModelConfig, build_network


def tiny_network():
    return build_network(ModelConfig(ndim=1, width=4, n_layers=1, k_max=4, slices=2,
                                     density_arch="mlp2", density_hidden=4,
                                     proj_hidden=4), seed=0)


def tiny_dataset(seed):
    rng = np.random.default_rng(seed)
    return dataio.Dataset(Grid((16,)), rng.standard_normal((3, 1, 16)),
                          rng.standard_normal((3, 1, 16)), {"seed": seed})


def fail_replace(*args):
    raise OSError("injected failure at rename")


def save_float32_checkpoint(path, monkeypatch):
    net = tiny_network()
    params = dict(net.named_parameters())
    params["w_float32"] = np.ones((2, 2), dtype=np.float32)    # no checkpoint dtype tag
    with pytest.raises(KeyError):
        dataio.save_checkpoint(path, net.config, params)


def write_other_dataset(path, monkeypatch):
    monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError, match="injected"):
        dataio.dataset_write(tiny_dataset(1), path)


def rewrite_rate_study_report(path, monkeypatch):
    monkeypatch.setattr(os, "replace", fail_replace)
    assert main(["rate-study", "--study", "partition", "--out", str(path.with_suffix(""))]) == 3


FAILED_WRITES = {"checkpoint": ("model.ckpt", save_float32_checkpoint),
                 "dataset": ("data.bin", write_other_dataset),
                 "cli-report": ("part.json", rewrite_rate_study_report)}


@pytest.mark.parametrize("case", list(FAILED_WRITES))
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, case):
    name, failing_write = FAILED_WRITES[case]
    path = tmp_path / name
    if case == "checkpoint":
        net = tiny_network()
        dataio.save_checkpoint(path, net.config, net.named_parameters())
    elif case == "dataset":
        dataio.dataset_write(tiny_dataset(0), path)
    else:
        path.write_text('{"previous": "report"}\n')
    before = path.read_bytes()
    failing_write(path, monkeypatch)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]


def test_exception_mid_write_removes_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")
    with pytest.raises(TypeError):
        dataio.write_atomic(path, b"first chunk", object())
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_interrupt_at_rename_removes_temp_file(tmp_path, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        dataio.write_atomic(tmp_path / "out.bin", b"data")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_matches_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        dataio.write_atomic(tmp_path / "atomic.bin", b"x")
        with open(tmp_path / "plain.bin", "wb") as fh:
            fh.write(b"x")
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("atomic.bin", "plain.bin")]
    assert modes[0] == modes[1] == 0o666 & ~umask


def test_writes_create_missing_directories(tmp_path):
    net = tiny_network()
    dataio.save_checkpoint(tmp_path / "a/b/model.ckpt", net.config, net.named_parameters())
    dataio.dataset_write(tiny_dataset(0), tmp_path / "c/d/data.bin")
    assert main(["rate-study", "--study", "partition", "--out", str(tmp_path / "e/f/part")]) == 0
    assert dataio.load_checkpoint(tmp_path / "a/b/model.ckpt")[0]["width"] == 4
    assert dataio.dataset_read(tmp_path / "c/d/data.bin").meta == {"seed": 0}
    assert sorted(os.listdir(tmp_path / "e/f")) == ["part.csv", "part.json"]


def test_write_through_symlink_keeps_link(tmp_path):
    target = tmp_path / "real.bin"
    target.write_bytes(b"old")
    (tmp_path / "link.bin").symlink_to(target)
    dataio.write_atomic(tmp_path / "link.bin", b"new")
    assert (tmp_path / "link.bin").is_symlink()
    assert target.read_bytes() == b"new"


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_target_that_is_not_a_regular_file_is_refused(tmp_path, kind):
    target = tmp_path / "target"
    if kind == "fifo":
        os.mkfifo(target)
    else:
        target.mkdir()
    with pytest.raises(OSError, match="not a regular file"):
        dataio.write_atomic(target, b"data")
    assert target.is_fifo() or target.is_dir()
    assert os.listdir(tmp_path) == ["target"]
