"""The one file writer: outputs are whole or absent, with open()'s permission bits.
The two readers: every malformed file is a DataFormatError with its message,
no header makes them allocate more than the file holds, and a save or load
holds no more than one tensor or the payload."""

import json
import math
import os
import stat
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from able import config, dataio
from able.cli import main
from able.errors import DataFormatError
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
    # the last tensor has no checkpoint dtype tag, so the save is refused
    # inside the write, after every other tensor has reached the temp file
    net = tiny_network()
    params = dict(net.named_parameters())
    params["w_float32"] = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(KeyError) as excinfo:
        dataio.save_checkpoint(path, net.config, params)
    assert any(entry.name == "write_atomic" for entry in excinfo.traceback)


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
        dataio.write_atomic(path, [b"first chunk", object()])
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_generator_that_raises_mid_write_removes_temp_file(tmp_path):
    def chunks():
        yield b"first chunk"
        raise ValueError("injected failure mid-write")

    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")
    with pytest.raises(ValueError, match="injected"):
        dataio.write_atomic(path, chunks())
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_interrupt_at_rename_removes_temp_file(tmp_path, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        dataio.write_atomic(tmp_path / "out.bin", [b"data"])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_matches_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        dataio.write_atomic(tmp_path / "atomic.bin", [b"x"])
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
    dataio.write_atomic(tmp_path / "link.bin", [b"new"])
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
        dataio.write_atomic(target, [b"data"])
    assert target.is_fifo() or target.is_dir()
    assert os.listdir(tmp_path) == ["target"]


# ---- the readers ----------------------------------------------------------------------

def checkpoint_bytes(tensors, header=b'{"model": {}}', magic=dataio.CKPT_MAGIC, count=None):
    """An ABLECKP1 file laid out by hand from `tensors`, a list of
    (name bytes, dtype tag, shape, payload bytes)."""
    out = magic + struct.pack("<I", len(header)) + header
    out += struct.pack("<I", len(tensors) if count is None else count)
    for name, tag, shape, payload in tensors:
        out += struct.pack(f"<H{len(name)}sBB{len(shape)}I", len(name), name, tag, len(shape),
                           *shape) + payload
    return out


def dataset_bytes(extents=(4,), samples=1, channels=(1, 1), dtag=0, payload=None, meta=b"{}",
                  magic=dataio.MAGIC):
    """An ABLEDS01 file laid out by hand; a zero payload of the declared size by default."""
    if payload is None:
        payload = bytes(8 * samples * sum(channels) * math.prod(extents))
    return (magic + struct.pack(f"<I{len(extents)}IQIIIQ", len(extents), *extents, samples,
                                *channels, dtag, len(meta)) + payload + meta)


W_TENSOR = (b"w", 0, (2,), np.array([1.0, 2.0]).tobytes())

CHECKPOINT_REFUSALS = {
    "empty": (b"", "bad magic b''; not a checkpoint file"),
    "magic-cut-short": (b"ABLECKP", "bad magic b'ABLECKP'; not a checkpoint file"),
    "bad-magic": (checkpoint_bytes([W_TENSOR], magic=b"XXXXXXXX"),
                  "bad magic b'XXXXXXXX'; not a checkpoint file"),
    "unsupported-version": (checkpoint_bytes([W_TENSOR], magic=b"ABLECKP2"),
                            "unsupported checkpoint version b'P2'"),
    "header-cut-short": (dataio.CKPT_MAGIC + b"\x05\x00", "corrupt checkpoint: "),
    "bad-json-header": (checkpoint_bytes([W_TENSOR], header=b'{"model": '),
                        "corrupt checkpoint: "),
    "header-not-utf8": (checkpoint_bytes([W_TENSOR], header=b"\xff"), "corrupt checkpoint: "),
    "header-not-an-object": (checkpoint_bytes([W_TENSOR], header=b"[1, 2]"),
                             "checkpoint header must be a JSON object with a 'model' object"),
    "header-without-model": (checkpoint_bytes([W_TENSOR], header=b'{"weights": {}}'),
                             "checkpoint header must be a JSON object with a 'model' object"),
    "tensor-count-past-end": (checkpoint_bytes([W_TENSOR], count=2), "corrupt checkpoint: "),
    "name-not-utf8": (checkpoint_bytes([(b"\xff",) + W_TENSOR[1:]]), "corrupt checkpoint: "),
    "unknown-dtype-tag": (checkpoint_bytes([(b"w", 7) + W_TENSOR[2:]]),
                          "unknown dtype tag 7 for tensor 'w'"),
    "truncated-tensor": (checkpoint_bytes([W_TENSOR])[:-1], "truncated checkpoint at tensor 'w'"),
    # 65535**4 elements: more than an int64 holds once multiplied by the item size
    "overflowing-shape": (checkpoint_bytes([(b"w", 0, (65535,) * 4, bytes(8))]),
                          "truncated checkpoint at tensor 'w'"),
    "trailing-bytes": (checkpoint_bytes([W_TENSOR]) + b"\x00",
                       "trailing bytes after checkpoint payload"),
}

DATASET_REFUSALS = {
    "empty": (b"", "file too short for a dataset header"),
    "magic-cut-short": (b"ABLEDS0", "file too short for a dataset header"),
    "bad-magic": (dataset_bytes(magic=b"XXXXXXXX"), "bad magic b'XXXXXXXX'; not a dataset file"),
    "unsupported-version": (dataset_bytes(magic=b"ABLEDS02"),
                            "unsupported dataset version b'02'"),
    "header-cut-short": (dataset_bytes()[:len(dataio.MAGIC) + 2], "corrupt dataset header: "),
    "extents-cut-short": (dataset_bytes(extents=(4, 4))[:len(dataio.MAGIC) + 8],
                          "corrupt dataset header: "),
    "extent-not-a-power-of-two": (dataset_bytes(extents=(12,)), "corrupt dataset header: "),
    "no-dims": (dataset_bytes(extents=()), "corrupt dataset header: "),
    "unknown-dtype-tag": (dataset_bytes(dtag=1), "unknown dtype tag 1"),
    "truncated-payload": (dataset_bytes(payload=bytes(56)),
                          "truncated or padded dataset: 102 bytes, expected 110"),
    "padded": (dataset_bytes() + b"\x00", "truncated or padded dataset: 111 bytes, expected 110"),
    "sample-count-past-any-file": (dataset_bytes(samples=2**64 - 1, payload=b""),
                                   "truncated or padded dataset: 46 bytes, expected "
                                   f"{46 + (2**64 - 1) * 64}"),
    "metadata-not-utf8": (dataset_bytes(meta=b"\xff"), "corrupt metadata block: "),
    "bad-json-metadata": (dataset_bytes(meta=b"{"), "corrupt metadata block: "),
    "metadata-not-an-object": (dataset_bytes(meta=b"[1]"), "metadata block is not a JSON object"),
    "non-finite-payload": (dataset_bytes(payload=np.full(8, np.nan).tobytes()),
                           "corrupt dataset payload: inputs contain non-finite values"),
}

READERS = {"checkpoint": dataio.load_checkpoint, "dataset": dataio.dataset_read}
REFUSALS = {f"{fmt}-{case}": (READERS[fmt], *refusal)
            for fmt, table in (("checkpoint", CHECKPOINT_REFUSALS), ("dataset", DATASET_REFUSALS))
            for case, refusal in table.items()}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_reader_refuses_malformed_file_with_its_message(tmp_path, case):
    read, blob, message = REFUSALS[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(message)


def test_hand_laid_files_are_the_writers_bytes(tmp_path):
    net = tiny_network()
    params = net.named_parameters()
    dataio.save_checkpoint(tmp_path / "m.ckpt", net.config, params)
    header = json.dumps({"model": asdict(net.config)}, sort_keys=True).encode("utf-8")
    tensors = [(name.encode("utf-8"), int(np.iscomplexobj(p.data)), p.data.shape,
                np.ascontiguousarray(p.data).tobytes()) for name, p in params.items()]
    assert (tmp_path / "m.ckpt").read_bytes() == checkpoint_bytes(tensors, header=header)
    ds = tiny_dataset(0)
    dataio.dataset_write(ds, tmp_path / "d.bin")
    assert (tmp_path / "d.bin").read_bytes() == dataset_bytes(
        extents=(16,), samples=3, payload=ds.inputs.tobytes() + ds.targets.tobytes(),
        meta=b'{"seed": 0}')


def test_zero_element_tensor_loads_as_empty_array(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(checkpoint_bytes([(b"e", 0, (0, 3), b""), W_TENSOR]))
    _, params = dataio.load_checkpoint(path)
    assert params["e"].shape == (0, 3) and params["e"].dtype == np.float64
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])


def test_reader_refuses_a_file_that_is_not_regular():
    for read in READERS.values():
        with pytest.raises(OSError, match="not a regular file"):
            read(os.devnull)


# Headers that declare far more than the file holds: 4 GiB of checkpoint
# header, a 512 MiB tensor, 2**32 - 1 extents and 2**64 - 1 samples.
OVERSIZED = {
    "checkpoint-header-length": ("checkpoint", dataio.CKPT_MAGIC + struct.pack("<I", 2**32 - 1)
                                 + b'{"model": {}}'),
    "checkpoint-tensor": ("checkpoint", checkpoint_bytes([(b"w", 1, (1024, 1024, 32), b"")])),
    "dataset-dims": ("dataset", dataio.MAGIC + struct.pack("<I", 2**32 - 1) + bytes(64)),
    "dataset-samples": ("dataset", dataset_bytes(samples=2**64 - 1, payload=b"")),
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_declared_sizes_allocate_nothing_the_file_does_not_hold(tmp_path, case):
    fmt, blob = OVERSIZED[case]
    path = tmp_path / "big.bin"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError):
            READERS[fmt](path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("fmt", list(READERS))
def test_every_truncation_is_a_format_error(tmp_path, fmt):
    whole = tmp_path / "whole.bin"
    if fmt == "checkpoint":
        net = tiny_network()
        dataio.save_checkpoint(whole, net.config, net.named_parameters())
    else:
        dataio.dataset_write(tiny_dataset(0), whole)
    blob = whole.read_bytes()
    path = tmp_path / "cut.bin"
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(DataFormatError):
            READERS[fmt](path)


# ---- memory of a save and a load ------------------------------------------------------

@pytest.fixture(scope="module")
def darcy_cross_params():
    """The darcy task's cross network: 16 MiB of parameters, whose spectral
    weights are transposed (not C-contiguous) views."""
    cfg = ModelConfig(**{**config.TASK_MODEL_DEFAULTS["darcy"], "kind": "cross"})
    net = build_network(cfg, seed=0)
    params = net.named_parameters()
    assert any(not p.data.flags.c_contiguous for p in params.values())
    return net.config, params


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_holds_at_most_one_tensor_copy(tmp_path, darcy_cross_params):
    cfg, params = darcy_cross_params
    _, peak = traced_peak(dataio.save_checkpoint, tmp_path / "m.ckpt", cfg, params)
    assert peak < max(p.data.nbytes for p in params.values()) + 64 * 1024


def test_load_holds_no_more_than_the_payload(tmp_path, darcy_cross_params):
    cfg, params = darcy_cross_params
    dataio.save_checkpoint(tmp_path / "m.ckpt", cfg, params)
    (_, loaded), peak = traced_peak(dataio.load_checkpoint, tmp_path / "m.ckpt")
    payload = sum(p.data.nbytes for p in params.values())
    assert peak <= 1.05 * payload
    assert all(np.array_equal(loaded[n], p.data) for n, p in params.items())


def test_dataset_read_holds_no_more_than_the_payload(tmp_path):
    rng = np.random.default_rng(5)
    ds = dataio.Dataset(Grid((64, 64)), rng.standard_normal((64, 1, 64, 64)),
                        rng.standard_normal((64, 2, 64, 64)), {"seed": 5})
    dataio.dataset_write(ds, tmp_path / "d.bin")
    back, peak = traced_peak(dataio.dataset_read, tmp_path / "d.bin")
    assert peak <= 1.05 * (ds.inputs.nbytes + ds.targets.nbytes)
    assert np.array_equal(back.inputs, ds.inputs) and np.array_equal(back.targets, ds.targets)
