"""Loss, optimizer, trainer determinism, checkpoints, gradient checking."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from able import dataio, training
from able import tensor as T
from able.errors import ContractError, DataFormatError, DomainError, NumericalFailure
from able.frame import Grid
from able.operator import ModelConfig, build_network

import oracles


def rng(seed):
    return np.random.default_rng(seed)


# ---- relative L2 -----------------------------------------------------------------

def test_relative_l2_frozen_values():
    y = T.Tensor(rng(0).standard_normal((3, 1, 8)))
    assert training.relative_l2(y, y).item() == pytest.approx(0.0, abs=1e-15)
    zero = T.Tensor(np.zeros((3, 1, 8)))
    assert training.relative_l2(zero, y).item() == pytest.approx(1.0, rel=1e-12)
    two = T.Tensor(2.0 * y.data)
    assert training.relative_l2(two, y).item() == pytest.approx(1.0, rel=1e-12)


def test_relative_l2_exact_sample_has_zero_gradient():
    # sqrt's derivative at a zero residual is infinite; the loss takes the
    # zero subgradient there instead of 0 * inf = nan for the whole batch
    t = rng(3).standard_normal((3, 1, 8))
    pred = t + rng(4).standard_normal(t.shape)
    pred[1] = t[1]
    leaf = T.parameter(pred)
    T.tape_backward(training.relative_l2(leaf, T.Tensor(t)))
    assert np.all(np.isfinite(leaf.grad))
    assert np.all(leaf.grad[1] == 0.0)
    for i in (0, 2):
        r = pred[i] - t[i]
        want = r / (np.linalg.norm(r) * np.linalg.norm(t[i]) * 3)
        assert np.max(np.abs(leaf.grad[i] - want)) <= 1e-14 * np.max(np.abs(want))


def test_relative_l2_contracts():
    y = T.Tensor(np.ones((2, 4)))
    with pytest.raises(ContractError):
        training.relative_l2(T.Tensor(np.ones((2, 5))), y)
    bad = np.ones((2, 4))
    bad[1] = 0.0
    with pytest.raises(DomainError):
        training.relative_l2(y, T.Tensor(bad))


def test_relative_l2_numpy_matches_tensor_path():
    p = rng(1).standard_normal((4, 2, 8))
    t = rng(2).standard_normal((4, 2, 8))
    per = training.relative_l2_numpy(p, t)
    mean_t = training.relative_l2(T.Tensor(p), T.Tensor(t)).item()
    assert mean_t == pytest.approx(per.mean(), rel=1e-12)


# ---- adam -----------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    p = T.parameter(rng(3).standard_normal(5))
    before = p.data.copy()
    opt = training.Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(5)
    opt.step()
    assert np.array_equal(p.data, before)
    assert opt.step_count == 1


def test_adam_first_step_closed_form():
    p = T.parameter(np.array(1.0))
    opt = training.Adam({"p": p}, lr=0.1)
    p.grad = np.array(1.0)
    opt.step()
    # bias-corrected first step: -lr * 1 / (1 + eps)
    assert p.data == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-6)


def test_adam_complex_updates_as_paired_reals():
    z = T.parameter(np.array([1.0 + 2.0j]))
    re = T.parameter(np.array([1.0]))
    im = T.parameter(np.array([2.0]))
    oz = training.Adam({"z": z}, lr=0.05)
    ore = training.Adam({"re": re}, lr=0.05)
    oim = training.Adam({"im": im}, lr=0.05)
    g = 0.7 - 0.3j
    for _ in range(4):
        z.grad = np.array([g])
        re.grad = np.array([g.real])
        im.grad = np.array([g.imag])
        oz.step()
        ore.step()
        oim.step()
    assert z.data[0].real == pytest.approx(re.data[0], abs=1e-15)
    assert z.data[0].imag == pytest.approx(im.data[0], abs=1e-15)


def test_adam_weight_decay_only_on_named():
    a = T.parameter(np.array([2.0]))
    b = T.parameter(np.array([2.0]))
    opt = training.Adam({"a.spectral.weights": a, "b.other": b}, lr=0.1,
                        weight_decay=0.5, decay_names=frozenset({"a.spectral.weights"}))
    a.grad = np.array([0.0])
    b.grad = np.array([0.0])
    opt.step()
    assert a.data[0] != 2.0          # decay pulled it down
    assert b.data[0] == 2.0


def transposed(arr: np.ndarray) -> np.ndarray:
    """The same values in a reversed memory layout: a non-contiguous view."""
    return np.ascontiguousarray(arr.T).T


def stored_as(arr: np.ndarray, order: tuple) -> np.ndarray:
    """The same values as a transposed view of a buffer laid out in `order`."""
    return np.ascontiguousarray(arr.transpose(order)).transpose(np.argsort(order))


def test_adam_blocks_match_whole_array_formula_bitwise():
    r = rng(40)
    shapes = {
        # 12 blocks: cut along axis 2, with a partial block at the end of each row
        "big.spectral.weights": ((2, 3, 40, 16, 16), np.complex128),
        "long": ((40000,), np.float64),          # 3 blocks of one axis
        "frozen": ((4, 5), np.float64),         # never gets a gradient
        "log_temperature": ((), np.float64),
        # canonical (I, O, x, y, M, M), stored like cross weights: 2 blocks
        "cross.spectral.weights": ((4, 4, 16, 16, 2, 2), np.complex128),
    }
    orders = {"cross.spectral.weights": (2, 3, 0, 5, 1, 4)}

    def draw(name):
        shape, dtype = shapes[name]
        arr = r.standard_normal(shape)
        arr = arr + 1j * r.standard_normal(shape) if dtype == np.complex128 else arr
        return stored_as(arr, orders[name]) if name in orders else arr

    params = {n: T.parameter(draw(n)) for n in shapes}
    view = params["cross.spectral.weights"].data
    assert not view.flags.c_contiguous and view.base.flags.c_contiguous
    data = {n: p.data.copy() for n, p in params.items()}
    kwargs = dict(lr=0.01, beta1=0.8, beta2=0.99, eps=1e-7, weight_decay=0.3,
                  decay_names=frozenset({"big.spectral.weights", "cross.spectral.weights"}))
    opt = training.Adam(params, **kwargs)
    state = {}
    for _ in range(4):
        grads = {n: (None if n == "frozen" else draw(n)) for n in shapes}
        grads["big.spectral.weights"] = transposed(grads["big.spectral.weights"])
        assert not grads["big.spectral.weights"].flags.c_contiguous
        for n, p in params.items():
            p.grad = grads[n]
        opt.step()
        oracles.adam_reference(data, grads, state, **kwargs)
    assert len(opt._blocks[0]) == 12 and len(opt._blocks[1]) == 3 and len(opt._blocks[4]) == 2
    p = params["cross.spectral.weights"]
    assert p.data is view and p.data.strides == view.strides
    for i, (n, p) in enumerate(params.items()):
        assert np.array_equal(p.data, data[n]), n
        # moments are kept in storage order; compare them in canonical order
        order = orders.get(n, tuple(range(p.data.ndim)))
        stored_shape = tuple(p.shape[a] for a in order)
        for key, moment in (("m", opt._m[i]), ("v", opt._v[i])):
            canonical = moment.view(p.data.dtype).reshape(stored_shape).transpose(np.argsort(order))
            assert np.array_equal(canonical.reshape(-1).view(np.float64), state[(key, n)]), (key, n)


@pytest.mark.parametrize("data", [np.zeros((8, 6))[::2], np.zeros(5)[::-1]],
                         ids=["strided-slice", "reversed"])
def test_adam_refuses_a_parameter_it_cannot_update_in_place(data):
    with pytest.raises(ContractError, match="contiguous"):
        training.Adam({"w": T.parameter(data)}, lr=0.01)


def test_adam_step_allocates_no_parameter_sized_temporary():
    r = rng(41)
    shape = (8, 16, 32, 32)                     # 2 MiB of complex128
    p = T.parameter(r.standard_normal(shape) + 1j * r.standard_normal(shape))
    opt = training.Adam({"w": p}, lr=0.01)
    p.grad = transposed(r.standard_normal(shape) + 1j * r.standard_normal(shape))
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes / 8


def test_scheduled_lr():
    cfg = training.TrainConfig(epochs=10, learning_rate=1.0, schedule="step",
                               schedule_gamma=0.5, schedule_every=2)
    assert training.scheduled_lr(cfg, 0) == 1.0
    assert training.scheduled_lr(cfg, 2) == 0.5
    assert training.scheduled_lr(cfg, 5) == 0.25
    cfg2 = training.TrainConfig(epochs=10, learning_rate=1.0, schedule="none")
    assert training.scheduled_lr(cfg2, 7) == 1.0
    cfg3 = training.TrainConfig(epochs=10, learning_rate=1.0, schedule="cosine")
    assert training.scheduled_lr(cfg3, 0) == pytest.approx(1.0)
    assert training.scheduled_lr(cfg3, 5) == pytest.approx(0.5)


@pytest.mark.parametrize("setting", [{"schedule_every": 0}, {"beta1": 1.0}, {"beta2": 1.0},
                                     {"beta1": -0.1}],
                         ids=["schedule-every-0", "beta1-1", "beta2-1", "beta1-negative"])
def test_train_config_refuses_settings_the_optimizer_cannot_run(setting):
    # schedule_every = 0 and beta1 = 1 divide by zero; beta2 = 1 makes every step NaN
    with pytest.raises(ContractError):
        training.TrainConfig(**setting)


# ---- trainer ---------------------------------------------------------------------

def synthetic_dataset(samples, n=32, seed=0):
    grid = Grid((n,))
    r = rng(seed)
    x = r.standard_normal((samples, 1, n))
    xs = np.fft.irfft(np.fft.rfft(x, axis=2)[:, :, :5], n=n, axis=2)
    # target: smoothed input scaled, a learnable near-linear map
    return dataio.Dataset(grid, xs, 0.8 * xs + 0.1 * np.roll(xs, 3, axis=2), {"synthetic": 1})


def tiny_model(**kw):
    defaults = dict(ndim=1, in_channels=1, out_channels=1, width=6, n_layers=2,
                    k_max=6, slices=2, kind="diagonal", density_arch="mlp2",
                    density_hidden=8, proj_hidden=12, temperature=0.8)
    defaults.update(kw)
    return ModelConfig(**defaults)


def test_zero_epochs_initial_evaluation_only(tmp_path):
    ds = synthetic_dataset(8)
    net = build_network(tiny_model(), seed=0)
    cfg = training.TrainConfig(epochs=0, batch_size=4, seed=1)
    metrics = training.train(net, ds.subset(range(6)), ds.subset(range(6, 8)), cfg,
                             checkpoint_path=tmp_path / "c.bin")
    assert len(metrics.records) == 1
    assert metrics.records[0]["epoch"] == 0
    assert metrics.best_epoch == 0


def test_lr_zero_keeps_parameters_and_metrics_constant():
    ds = synthetic_dataset(4)
    net = build_network(tiny_model(), seed=0)
    before = {n: p.data.copy() for n, p in net.named_parameters().items()}
    cfg = training.TrainConfig(epochs=3, batch_size=2, learning_rate=0.0, seed=1)
    metrics = training.train(net, ds.subset(range(2)), ds.subset(range(2, 4)), cfg)
    for n, p in net.named_parameters().items():
        assert np.array_equal(p.data, before[n]), n
    losses = [r["train_loss"] for r in metrics.records]
    assert max(losses) - min(losses) == 0.0


def test_training_reduces_loss():
    ds = synthetic_dataset(24, seed=3)
    net = build_network(tiny_model(), seed=2)
    cfg = training.TrainConfig(epochs=8, batch_size=8, learning_rate=4e-3,
                               schedule="none", seed=5)
    metrics = training.train(net, ds.subset(range(20)), ds.subset(range(20, 24)), cfg)
    assert metrics.records[-1]["train_loss"] < metrics.records[0]["train_loss"]


def strip_seconds(records):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]


def test_training_deterministic_and_leakage_free(tmp_path):
    ds = synthetic_dataset(12, seed=4)
    train_set, test_set = ds.subset(range(9)), ds.subset(range(9, 12))
    cfg = training.TrainConfig(epochs=3, batch_size=3, seed=7)

    def run(test_split, path):
        net = build_network(tiny_model(), seed=11)
        m = training.train(net, train_set, test_split, cfg, checkpoint_path=path)
        return m, (tmp_path / path.name).read_bytes()

    m1, b1 = run(test_set, tmp_path / "a.bin")
    m2, b2 = run(test_set, tmp_path / "b.bin")
    assert b1 == b2
    assert strip_seconds(m1.records) == strip_seconds(m2.records)

    permuted = test_set.subset([2, 0, 1])
    m3, b3 = run(permuted, tmp_path / "c.bin")
    assert b3 == b1, "test-sample order leaked into training"
    assert [r["test_loss"] for r in m3.records] == [r["test_loss"] for r in m1.records]


def test_nonfinite_loss_aborts_with_location():
    ds = synthetic_dataset(4, seed=6)
    net = build_network(tiny_model(), seed=1)
    cfg = training.TrainConfig(epochs=5, batch_size=2, learning_rate=1e155,
                               schedule="none", seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalFailure, match="epoch"):
            training.train(net, ds.subset(range(2)), ds.subset(range(2, 4)), cfg)


def test_split_dataset_deterministic_and_disjoint():
    ds = synthetic_dataset(10, seed=8)
    tr1, te1 = training.split_dataset(ds, 3, seed=0)
    tr2, te2 = training.split_dataset(ds, 3, seed=0)
    assert np.array_equal(tr1.inputs, tr2.inputs)
    assert np.array_equal(te1.inputs, te2.inputs)
    assert tr1.samples == 7 and te1.samples == 3
    joined = np.concatenate([tr1.inputs, te1.inputs])
    assert np.array_equal(np.sort(joined, axis=0), np.sort(ds.inputs, axis=0))


@pytest.mark.parametrize("n_test", [0, -1, 10])
def test_split_dataset_refuses_an_empty_split(n_test):
    # an empty test set would make every epoch's test loss nan
    with pytest.raises(ContractError):
        training.split_dataset(synthetic_dataset(10, seed=8), n_test, seed=0)


def test_evaluate_mean_is_order_invariant():
    ds = synthetic_dataset(7, seed=9)
    net = build_network(tiny_model(), seed=3)
    mean_a, per_a = training.evaluate(net, ds, batch_size=3)
    shuffled = ds.subset([5, 2, 0, 6, 1, 4, 3])
    mean_b, per_b = training.evaluate(net, shuffled, batch_size=2)
    assert mean_a == mean_b
    assert sorted(per_a) == pytest.approx(sorted(per_b))


# ---- checkpoints ------------------------------------------------------------------

def test_checkpoint_roundtrip_restores_exact_network(tmp_path):
    net = build_network(tiny_model(slices=3, kind="cross"), seed=5)
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, net.config, net.named_parameters())
    cfg_dict, params = dataio.load_checkpoint(path)
    restored = training.restore_network(cfg_dict, params)
    x = rng(10).standard_normal((2, 1, 32))
    a = net(T.Tensor(x)).data
    b = restored(T.Tensor(x)).data
    assert np.array_equal(a, b)


def test_checkpoint_saved_from_loaded_arrays_is_byte_identical(tmp_path):
    net = build_network(tiny_model(slices=3, kind="cross", learn_temperature=True), seed=5)
    dataio.save_checkpoint(tmp_path / "a.ckpt", net.config, net.named_parameters())
    _, params = dataio.load_checkpoint(tmp_path / "a.ckpt")
    dataio.save_checkpoint(tmp_path / "b.ckpt", net.config, params)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        dataio.load_checkpoint(path)
    net = build_network(tiny_model(), seed=0)
    good = tmp_path / "good.ckpt"
    dataio.save_checkpoint(good, net.config, net.named_parameters())
    blob = good.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:-20])
    with pytest.raises(DataFormatError):
        dataio.load_checkpoint(tmp_path / "trunc.ckpt")


def test_restore_rejects_architecture_mismatch(tmp_path):
    net = build_network(tiny_model(), seed=0)
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(path, net.config, net.named_parameters())
    cfg_dict, params = dataio.load_checkpoint(path)
    cfg_dict["width"] = 12
    with pytest.raises(ContractError, match="shape"):
        training.restore_network(cfg_dict, params)


# ---- gradient check ----------------------------------------------------------------

class LinearModel:
    def __init__(self):
        self.w = T.parameter(np.array([[0.7, -0.2], [0.1, 0.4]]))

    def named_parameters(self):
        return {"w": self.w}

    def __call__(self, x):
        return oracles.taped_contraction("bi,io->bo", x, self.w)


def test_gradient_check_linear_model():
    model = LinearModel()
    x = rng(11).standard_normal((4, 2))
    y = rng(12).standard_normal((4, 2))
    report = training.gradient_check(model, (x, y), n_params=4)
    assert report["max_rel_err"] < 1e-9


class SpectralWeightsOnly:
    """A network whose gradient check samples only its spectral weights."""

    def __init__(self, net):
        self.net = net

    def named_parameters(self):
        return {n: p for n, p in self.net.named_parameters().items()
                if n.endswith("spectral.weights")}

    def __call__(self, x):
        return self.net(x)


@pytest.mark.parametrize("kind", ["diagonal", "cross"])
def test_gradient_check_perturbs_view_parameters_in_place(kind):
    # The spectral weights are transposed views of their storage, so a
    # perturbation written to a flattened copy would leave the loss unchanged
    # and read a finite difference of 0.
    model = SpectralWeightsOnly(build_network(tiny_model(kind=kind), seed=8))
    assert all(not p.data.flags.c_contiguous for p in model.named_parameters().values())
    x = rng(15).standard_normal((1, 1, 32))
    y = rng(16).standard_normal((1, 1, 32)) + 2.0
    report = training.gradient_check(model, (x, y), n_params=12, seed=2)
    assert report["gradient_scale"] > 1e-6, report
    assert report["max_rel_err"] < 1e-4, report


@pytest.mark.parametrize("kind", ["diagonal", "cross"])
def test_gradient_check_able_network(kind):
    net = build_network(tiny_model(n_layers=1, kind=kind), seed=7)
    x = rng(13).standard_normal((1, 1, 32))
    y = rng(14).standard_normal((1, 1, 32)) + 2.0
    report = training.gradient_check(net, (x, y), n_params=30, seed=1)
    assert report["max_rel_err"] < 1e-4, report
    assert report["density_grad_max"] > 1e-12, "density network got no gradient"
