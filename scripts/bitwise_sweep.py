#!/usr/bin/env python3
"""Bitwise regression sweep: the loss, output and every gradient of a fixed
set of small networks, to show that a change leaves the numbers untouched.

The sweep builds 280 networks. 256 are gelu networks, every valid
combination of a grid, M from 1 to 4, diagonal or cross mixing, a shared
or per-channel density, a density head (fd4 with its residual skip, fd4
without it, both 1-D only, or mlp2) and a fixed or learned temperature.
The grids are a 1-D grid of 32 points at k_max 6 and a non-square 16 x 32
grid at k_max 4, both truncated on every axis, plus two where 2 k_max
equals an extent, so the whole-axis case runs too: 16 points at k_max 8
(the whole spectrum) and 16 x 32 at k_max 8 (whole on axis 0, truncated
on axis 1). The other 24 cover every other activation: silu, relu and
none, each on the two truncated grids with M 1 and 2 and diagonal or
cross mixing (a shared mlp2 head, fixed temperature).
For each network it runs one forward and backward pass of the relative L2
loss on fixed data and records the loss, the output and the gradient of
every parameter, and the output of the same forward under `no_grad`
(`<network>/eval`), whose activations run on the same kernels without the
tape. It then takes two Adam steps on those gradients, with
weight decay on the spectral weights, and records every parameter after
the second (`<network>/step2/<parameter>`), the bytes of the checkpoint
`save_checkpoint` writes then (`<network>/checkpoint`, uint8) and every
tensor `load_checkpoint` reads back from it
(`<network>/checkpoint-read/<parameter>`). Last it
records the generators' output, the inputs and targets of
`make_burgers_dataset(2, nu=0.1, resolution=256, generate_at=1024)` and
`make_darcy_dataset(2, resolution=64, generate_at=256)` at seeds 0 and 1
(`data/<generator>-s<seed>/inputs` and `.../targets`), and of
`make_burgers_dataset(5, nu=0.01, seed=3, resolution=256, generate_at=512)`
(`data/burgers-nu0.01-s3/...`), a batch above two whose solve rejects an
attempt, and each set's arrays after `dataset_write` and `dataset_read`
(`.../read-inputs` and `.../read-targets`). It also runs the
frame API on each network's first layer before the Adam steps: the
layer's density of the lifted input (`layer.density`), the coefficients
`able_forward` gives on it for a fixed real field
(`frame/<network>/forward`) and the field `able_inverse` synthesizes back
from them (`frame/<network>/roundtrip`). That makes 19556 arrays: 12744
network values, 5942 checkpoint read-backs, 560 frame arrays, 280
checkpoints and 20 data arrays.

Run it once per tree, with that tree's package on the path, then compare:

    PYTHONPATH=src python scripts/bitwise_sweep.py --out new.npz
    PYTHONPATH=<other tree>/src python scripts/bitwise_sweep.py --out old.npz
    python scripts/bitwise_sweep.py --compare old.npz new.npz

--compare lists each array that differs, or that only one file holds, and
exits 1 if there is any, else 0. For a checkpoint, an array of bytes, it
prints how many bytes differ. For each other array whose values differ it
prints the largest absolute difference and that difference divided by the
largest magnitude of the array in the first file, and at the end the worst
relative difference in each group: forward values (loss, output and eval),
gradients (`grad/`), parameters after two steps (`step2/`), the tensors
read back from the checkpoints (`checkpoint-read/`), the generators' output
and its read-back (`data/`) and the frame API's arrays (`frame/`).
"""

import argparse
import itertools
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, so the products are summed in the same order on every run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

GRIDS = (((32,), 6), ((16, 32), 4), ((16,), 8), ((16, 32), 8))   # (extents, k_max)
BATCH = 2
DATA_SEEDS = (0, 1)


# (name, density arch, residual): fd4 with and without its skip, and mlp2,
# which has no skip to switch
HEADS = (("fd4", "fd4", True), ("fd4-noskip", "fd4", False), ("mlp2", "mlp2", True))
OTHER_ACTIVATIONS = ("silu", "relu", "none")


def variants():
    """(name, extents, ModelConfig keyword arguments) for every network of the sweep."""
    for (extents, k_max), m, kind, per_channel, (head, arch, residual), learn_t in (
            itertools.product(GRIDS, (1, 2, 3, 4), ("diagonal", "cross"), (False, True),
                              HEADS, (False, True))):
        if arch == "fd4" and len(extents) != 1:
            continue
        name = (f"{'x'.join(map(str, extents))}-k{k_max}-M{m}-{kind}"
                f"-{'perchannel' if per_channel else 'shared'}"
                f"-{head}-{'learnedT' if learn_t else 'fixedT'}")
        yield name, extents, dict(ndim=len(extents), slices=m, kind=kind,
                                  per_channel=per_channel, density_arch=arch,
                                  residual=residual, learn_temperature=learn_t, k_max=k_max,
                                  width=4, n_layers=2, proj_hidden=8, density_hidden=8)
    # every other activation, after the gelu networks so their seeds stay put
    for activation, (extents, k_max), m, kind in itertools.product(
            OTHER_ACTIVATIONS, GRIDS[:2], (1, 2), ("diagonal", "cross")):
        name = f"{'x'.join(map(str, extents))}-k{k_max}-M{m}-{kind}-shared-mlp2-fixedT-{activation}"
        yield name, extents, dict(ndim=len(extents), slices=m, kind=kind, density_arch="mlp2",
                                  activation=activation, k_max=k_max, width=4, n_layers=2,
                                  proj_hidden=8, density_hidden=8)


def sweep() -> dict:
    from able import frame
    from able import tensor as T
    from able.dataio import (dataset_read, dataset_write, load_checkpoint,
                             make_burgers_dataset, make_darcy_dataset, save_checkpoint)
    from able.operator import ModelConfig, build_network
    from able.training import Adam, relative_l2, spectral_weight_names

    arrays = {}
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = Path(scratch) / "net.ckpt"
        for i, (name, extents, kwargs) in enumerate(variants()):
            net = build_network(ModelConfig(**kwargs), seed=i)
            data = np.random.default_rng(1000 + i).standard_normal((2, BATCH, 1) + extents)
            out = net(T.Tensor(data[0]))
            loss = relative_l2(out, T.Tensor(data[1]))
            T.tape_backward(loss)
            arrays[f"{name}/loss"] = loss.data
            arrays[f"{name}/output"] = out.data
            params = net.named_parameters()
            for pname, p in params.items():
                arrays[f"{name}/grad/{pname}"] = p.grad
            with T.no_grad():
                arrays[f"{name}/eval"] = net(T.Tensor(data[0])).data
                density = net.layers[0].density(net.lift_input(T.Tensor(data[0])))
                field = np.random.default_rng(2000 + i).standard_normal(
                    (BATCH, kwargs["width"]) + extents)
                lifted = frame.able_forward(T.Tensor(field), density)
                arrays[f"frame/{name}/forward"] = lifted.values.data
                arrays[f"frame/{name}/roundtrip"] = frame.able_inverse(lifted, density).data
            opt = Adam(params, lr=3e-3, weight_decay=1e-4,
                       decay_names=spectral_weight_names(params))
            opt.step()
            opt.step()
            for pname, p in params.items():
                arrays[f"{name}/step2/{pname}"] = p.data
            save_checkpoint(checkpoint, net.config, params)
            arrays[f"{name}/checkpoint"] = np.frombuffer(checkpoint.read_bytes(), dtype=np.uint8)
            for pname, arr in load_checkpoint(checkpoint)[1].items():
                arrays[f"{name}/checkpoint-read/{pname}"] = arr
        datasets = {f"{name}-s{seed}": dataset for seed in DATA_SEEDS for name, dataset in (
            ("burgers", make_burgers_dataset(2, nu=0.1, seed=seed, resolution=256,
                                             generate_at=1024)),
            ("darcy", make_darcy_dataset(2, seed=seed, resolution=64, generate_at=256)))}
        datasets["burgers-nu0.01-s3"] = make_burgers_dataset(5, nu=0.01, seed=3, resolution=256,
                                                             generate_at=512)
        for name, dataset in datasets.items():
            dataset_write(dataset, Path(scratch) / "data.bin")
            back = dataset_read(Path(scratch) / "data.bin")
            for part, arr, read in (("inputs", dataset.inputs, back.inputs),
                                    ("targets", dataset.targets, back.targets)):
                arrays[f"data/{name}/{part}"] = arr
                arrays[f"data/{name}/read-{part}"] = read
    return arrays


GROUPS = ("forward", "grad", "step2", "checkpoint-read", "data", "frame")


def _group(key: str) -> str:
    """The group of a value array: data for the generators' output and its
    read-back, frame for the frame API's arrays, forward for a network's
    loss, output and eval, else grad, step2 or checkpoint-read."""
    if key.startswith(("data/", "frame/")):
        return key.split("/")[0]
    part = key.split("/")[1]
    return "forward" if part in ("loss", "output", "eval") else part


def compare(path_a: str, path_b: str) -> int:
    """List the arrays that differ: a count of differing bytes for each
    checkpoint, the largest absolute difference and that difference relative
    to the largest magnitude in A for each value array; then the worst
    relative difference per group."""
    differ = []
    worst = {}      # group: (relative, absolute, key)
    with np.load(path_a) as a, np.load(path_b) as b:
        for key in sorted(set(a.files) ^ set(b.files)):
            differ.append(key)
            print(f"differs: {key} (in one file only)")
        for key in sorted(set(a.files) & set(b.files)):
            x, y = a[key], b[key]
            if x.shape != y.shape or x.dtype != y.dtype:
                differ.append(key)
                print(f"differs: {key} (shape or dtype)")
            elif not np.array_equal(x, y):
                differ.append(key)
                if x.dtype == np.uint8:
                    print(f"differs: {key} {int(np.count_nonzero(x != y))} of {x.size} bytes")
                    continue
                absolute = float(np.max(np.abs(x - y)))
                scale = float(np.max(np.abs(x)))
                relative = absolute / scale if scale > 0 else float("inf")
                print(f"differs: {key} max abs {absolute:.3e} rel {relative:.3e}")
                group = _group(key)
                if group not in worst or relative > worst[group][0]:
                    worst[group] = (relative, absolute, key)
        total = len(set(a.files) | set(b.files))
    print(f"{len(differ)} of {total} arrays differ")
    for group in GROUPS:
        if group in worst:
            relative, absolute, key = worst[group]
            print(f"worst {group}: {key} max abs {absolute:.3e} rel {relative:.3e}")
        else:
            print(f"worst {group}: none differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE.npz", help="run the sweep and write its arrays")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="compare two sweep files array by array")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    arrays = sweep()
    np.savez(args.out, **arrays)
    print(f"wrote {len(arrays)} arrays of {len(list(variants()))} networks and "
          f"{2 * len(DATA_SEEDS) + 1} datasets to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
