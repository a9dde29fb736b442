"""Loss, optimizer, schedules, the training loop, and gradient checking.

The training loss, `relative_l2`, is one tape node, the last of a step's
graph, on the per-sample norm kernel that the evaluation metric
(`relative_l2_numpy`) uses too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import config as run_config   # config imports this module; looked up at call time
from . import tensor as T
from .dataio import Dataset, save_checkpoint
from .errors import ContractError, DataFormatError, DomainError, NumericalFailure
from .operator import AbleNetwork, ModelConfig, build_network, count_flops


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 20
    learning_rate: float = 3e-3
    schedule: str = "step"          # step | cosine | none
    schedule_gamma: float = 0.5
    schedule_every: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4      # spectral weights only
    seed: int = 0

    def __post_init__(self):
        # lr = 0 is a valid degenerate run (a no-op trainer used by tests)
        if self.learning_rate < 0:
            raise ContractError("learning rate must be nonnegative")
        if self.batch_size < 1:
            raise ContractError("batch size must be >= 1")
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.schedule not in ("step", "cosine", "none"):
            raise ContractError(f"unknown schedule {self.schedule!r}")
        if self.schedule_every < 1:
            raise ContractError(f"schedule_every must be >= 1, got {self.schedule_every}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise ContractError(f"eps must be > 0, got {self.eps}")


# ---- loss ----------------------------------------------------------------------

def _sample_norms(arr: np.ndarray) -> np.ndarray:
    return np.sqrt((arr.reshape(arr.shape[0], -1) ** 2).sum(axis=1))


def _target_norms(target: np.ndarray) -> np.ndarray:
    norms = _sample_norms(target)
    if np.any(norms == 0):
        raise DomainError("relative L2 undefined for a zero-norm target sample")
    return norms


def relative_l2(pred: T.Tensor, target: T.Tensor) -> T.Tensor:
    """Per-sample ||pred - target|| / ||target||, averaged over the batch, as
    one tape node on `relative_l2_numpy`'s kernel. The gradient of sample i
    is r_i / (B ||r_i|| ||t_i||) for its residual r_i, and zero (the zero
    subgradient) on an exactly predicted sample; the target is data."""
    if pred.shape != target.shape:
        raise ContractError(f"shape mismatch {pred.shape} vs {target.shape}")
    t_norms = _target_norms(target.data)
    batch = pred.shape[0]
    diff = (pred.data - target.data).reshape(batch, -1)
    norms = _sample_norms(diff)

    def vjp(g):
        scale = np.divide(g / batch, norms * t_norms, out=np.zeros_like(norms), where=norms > 0)
        return ((scale[:, None] * diff).reshape(pred.shape),)

    return T._make((norms / t_norms).sum() * (1.0 / batch), (pred,), vjp)


def relative_l2_numpy(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-sample values, plain numpy (evaluation path)."""
    return _sample_norms(pred - target) / _target_norms(target)


# ---- optimizer -------------------------------------------------------------------

def _float_view(arr: np.ndarray) -> np.ndarray:
    """Flat real view of a parameter buffer; complex entries become paired reals."""
    return arr.reshape(-1).view(np.float64)


def _storage_order(name: str, data: np.ndarray) -> tuple:
    """The axis permutation under which `data` is C-contiguous, so Adam can
    update it in place in memory order; ContractError if there is none (a
    strided slice, a broadcast or a reversed axis), since Adam would then
    update a copy."""
    order = tuple(int(a) for a in np.argsort([-s for s in data.strides], kind="stable"))
    if not data.transpose(order).flags.c_contiguous:
        raise ContractError(f"parameter {name!r} is not a permutation of a contiguous "
                            f"buffer (shape {data.shape}, strides {data.strides})")
    return order


# Floats per optimizer block (128 KiB): a block's slices of the parameter,
# both moments and the gradient, plus the two scratch blocks, stay in a 2 MiB
# L2 cache through every pass of the update. On the darcy task's cross
# network (Xeon, 2 MiB L2 per core) an Adam step took 16.0 / 12.4 / 13.1 ms at
# 4096 / 16384 / 65536 floats per block.
_BLOCK = 16384


def _blocks(data: np.ndarray) -> list:
    """Cut a parameter into C-order-contiguous blocks of at most `_BLOCK`
    floats; returns (index, block shape, first float, end float) for each,
    in order.

    The trailing axes that fit in one block stay whole; the axis in front of
    them is cut into row ranges, one block per range and per index of the
    axes before it.
    """
    per_item = data.itemsize // 8
    inner, axis = per_item, data.ndim
    while axis and inner * data.shape[axis - 1] <= _BLOCK:
        axis -= 1
        inner *= data.shape[axis]
    if axis == 0:
        return [((), data.shape, 0, inner)]
    rows = _BLOCK // inner
    blocks, start = [], 0
    for outer in np.ndindex(*data.shape[:axis - 1]):
        for r in range(0, data.shape[axis - 1], rows):
            index = outer + (slice(r, r + rows),)
            shape = data[index].shape
            end = start + math.prod(shape) * per_item
            blocks.append((index, shape, start, end))
            start = end
    return blocks


class Adam:
    """Adam with bias correction; complex parameters update as paired reals.

    The update runs in place, one cache-sized block of each parameter at a
    time, in the parameter's storage order: a parameter may be any
    transposed view of a C-contiguous buffer (the spectral weights are), and
    the moments and blocks follow that buffer's order. Each block's
    gradient is read through the same permutation and copied straight from
    whatever layout the tape left into a scratch block, and the textbook
    formula is applied with in-place ufuncs in the same order of operations,
    so the result is bitwise that of the whole-array formula. Two scratch
    blocks are shared by every parameter, so a step allocates no
    parameter-sized temporary.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 decay_names: frozenset = frozenset()):
        self.params = list(params.items())
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.decay_names = decay_names
        self.step_count = 0
        self._orders = [_storage_order(n, p.data) for n, p in self.params]
        stored = [p.data.transpose(o) for (_, p), o in zip(self.params, self._orders)]
        self._m = [np.zeros_like(_float_view(d)) for d in stored]
        self._v = [np.zeros_like(_float_view(d)) for d in stored]
        self._blocks = [_blocks(d) for d in stored]
        self._scratch = np.empty((2, min(max((m.size for m in self._m), default=0), _BLOCK)))

    def step(self, lr: Optional[float] = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        scale, keep1, keep2 = lr / c1, 1.0 - self.beta1, 1.0 - self.beta2
        for (name, p), order, m, v, blocks in zip(self.params, self._orders, self._m,
                                                  self._v, self._blocks):
            flat = _float_view(p.data.transpose(order))
            grad = None if p.grad is None else np.asarray(p.grad).transpose(order)
            decay = self.weight_decay if self.weight_decay and name in self.decay_names else 0.0
            for index, shape, start, end in blocks:
                g, t = self._scratch[:, :end - start]
                pb, mb, vb = flat[start:end], m[start:end], v[start:end]
                if grad is None:
                    g.fill(0.0)
                else:
                    np.copyto(g.view(p.data.dtype).reshape(shape), grad[index])
                if decay:
                    np.multiply(pb, decay, out=t)
                    g += t
                mb *= self.beta1
                np.multiply(g, keep1, out=t)
                mb += t
                vb *= self.beta2
                np.multiply(g, keep2, out=t)
                t *= g
                vb += t
                np.divide(vb, c2, out=t)
                np.sqrt(t, out=t)
                t += self.eps
                np.multiply(mb, scale, out=g)
                g /= t
                pb -= g

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


def scheduled_lr(config: TrainConfig, epoch: int) -> float:
    if config.schedule == "step":
        return config.learning_rate * config.schedule_gamma ** (epoch // config.schedule_every)
    if config.schedule == "cosine":
        frac = epoch / max(config.epochs, 1)
        return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * frac))
    return config.learning_rate


# ---- evaluation --------------------------------------------------------------------

def evaluate(net: AbleNetwork, dataset: Dataset, batch_size: int = 50) -> tuple:
    """(mean relative L2, per-sample values); exact mean via fsum, so the
    result does not depend on sample order or batch grouping. A dataset
    with no samples has no mean and is refused."""
    if batch_size < 1:
        raise ContractError("batch size must be >= 1")
    if dataset.samples == 0:
        raise ContractError("cannot evaluate a dataset with no samples")
    per_sample = []
    with T.no_grad():
        for start in range(0, dataset.samples, batch_size):
            xb = dataset.inputs[start:start + batch_size]
            yb = dataset.targets[start:start + batch_size]
            pred = net(T.Tensor(xb)).data
            per_sample.extend(relative_l2_numpy(pred, yb).tolist())
    return math.fsum(per_sample) / len(per_sample), np.array(per_sample)


# ---- training loop -------------------------------------------------------------------

@dataclass
class Metrics:
    records: list = field(default_factory=list)     # one dict per epoch
    best_epoch: int = 0
    best_test: float = math.inf
    flops: dict = field(default_factory=dict)
    total_seconds: float = 0.0

    def summary(self) -> dict:
        last = self.records[-1] if self.records else {}
        return {
            "final_epoch": last.get("epoch", 0),
            "final_train": last.get("train_loss", float("nan")),
            "final_test": last.get("test_loss", float("nan")),
            "best_epoch": self.best_epoch,
            "best_test": self.best_test,
            "total_seconds": self.total_seconds,
            "flops_total": self.flops.get("total", 0.0),
        }


def spectral_weight_names(params: dict) -> frozenset:
    return frozenset(n for n in params if n.endswith("spectral.weights"))


def train(net: AbleNetwork, train_set: Dataset, test_set: Dataset,
          config: TrainConfig, checkpoint_path=None) -> Metrics:
    """Full-determinism training; saves the checkpoint with the best test loss.

    Test samples never influence anything except checkpoint selection, and
    only through their order-independent mean loss.
    """
    params = net.named_parameters()
    opt = Adam(params, lr=config.learning_rate, beta1=config.beta1, beta2=config.beta2,
               eps=config.eps, weight_decay=config.weight_decay,
               decay_names=spectral_weight_names(params))
    shuffle_rng = np.random.default_rng(run_config.stream_seed(config.seed, "shuffle"))
    metrics = Metrics(flops=count_flops(net, train_set.grid))
    best_params = {n: p.data.copy() for n, p in params.items()}

    def snapshot():
        for n, p in params.items():
            best_params[n][...] = p.data

    def record_epoch(epoch: int, seconds: float) -> None:
        train_loss, _ = evaluate(net, train_set, config.batch_size)
        test_loss, _ = evaluate(net, test_set, config.batch_size)
        if not (math.isfinite(train_loss) and math.isfinite(test_loss)):
            raise NumericalFailure(f"non-finite evaluation at epoch {epoch}: "
                                   f"train loss {train_loss}, test loss {test_loss}")
        metrics.records.append({
            "epoch": epoch, "train_loss": train_loss, "test_loss": test_loss,
            "lr": scheduled_lr(config, max(epoch - 1, 0)), "seconds": seconds,
        })
        if test_loss < metrics.best_test:
            metrics.best_test = test_loss
            metrics.best_epoch = epoch
            snapshot()

    t_start = time.perf_counter()
    if config.epochs == 0:
        record_epoch(0, 0.0)
    n_train = train_set.samples
    for epoch in range(1, config.epochs + 1):
        t_epoch = time.perf_counter()
        lr = scheduled_lr(config, epoch - 1)
        order = shuffle_rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = T.Tensor(train_set.inputs[idx])
            yb = T.Tensor(train_set.targets[idx])
            loss = relative_l2(net(xb), yb)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalFailure(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            opt.zero_grad()
            T.tape_backward(loss)
            opt.step(lr=lr)
        record_epoch(epoch, time.perf_counter() - t_epoch)
    metrics.total_seconds = time.perf_counter() - t_start

    for n, p in params.items():
        p.data[...] = best_params[n]
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, net.config, params)
    return metrics


def split_dataset(dataset: Dataset, n_test: int, seed: int) -> tuple:
    """Deterministic shuffled train/test split."""
    if not 1 <= n_test < dataset.samples:
        raise ContractError(f"the test split takes {n_test} of {dataset.samples} samples; "
                            "it needs at least one and must leave one for training")
    rng = np.random.default_rng(run_config.stream_seed(seed, "data"))
    order = rng.permutation(dataset.samples)
    return dataset.subset(order[n_test:]), dataset.subset(order[:n_test])


def restore_network(model_config_dict: dict, params: dict) -> AbleNetwork:
    """Rebuild a network from checkpoint header + tensors, verifying names/shapes."""
    try:
        model_config = run_config.dataclass_from(ModelConfig, model_config_dict, "model")
        net = build_network(model_config, seed=0)
    except (ContractError, DomainError) as exc:
        raise DataFormatError(f"checkpoint header: {exc}") from exc
    own = net.named_parameters()
    if set(own) != set(params):
        missing = sorted(set(own) ^ set(params))
        raise ContractError(f"checkpoint parameter names do not match architecture: {missing}")
    for name, arr in params.items():
        if own[name].data.shape != arr.shape:
            raise ContractError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, expected "
                f"{own[name].data.shape}")
        own[name].data[...] = arr
    return net


# ---- gradient checking -----------------------------------------------------------------

def gradient_check(net, sample: tuple, n_params: int = 50, h: float = 1e-6,
                   seed: int = 0) -> dict:
    """Central-difference check of the `relative_l2` loss on randomly
    sampled parameter entries.

    Works for any model exposing __call__ and named_parameters(). Density
    parameters are always represented in the sample so the adaptive path is
    exercised, not just the spectral weights.
    """
    x, y = sample
    params = net.named_parameters()

    def loss_value() -> float:
        with T.no_grad():
            return relative_l2(net(T.Tensor(x)), T.Tensor(y)).item()

    loss = relative_l2(net(T.Tensor(x)), T.Tensor(y))
    for p in params.values():
        p.grad = None
    T.tape_backward(loss)

    rng = np.random.default_rng(seed)
    names = sorted(params)
    density_names = [n for n in names if ".density." in n]
    picks = []
    quota = max(n_params // 4, 1) if density_names else 0
    for _ in range(quota):
        name = density_names[rng.integers(len(density_names))]
        picks.append((name, int(rng.integers(params[name].size))))
    while len(picks) < n_params:
        name = names[rng.integers(len(names))]
        picks.append((name, int(rng.integers(params[name].size))))

    entries = []
    density_grad_max = 0.0
    for name, flat_idx in picks:
        p = params[name]
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        # index the parameter itself: ravel() of a view parameter is a copy
        idx = np.unravel_index(flat_idx, p.shape)
        components = [(1.0, np.real)] + ([(1j, np.imag)] if p.is_complex else [])
        for direction, proj in components:
            base = p.data[idx]
            p.data[idx] = base + h * direction
            fp = loss_value()
            p.data[idx] = base - h * direction
            fm = loss_value()
            p.data[idx] = base
            fd = (fp - fm) / (2.0 * h)
            ad = float(proj(grad[idx]))
            entries.append((name, ad, fd))
            if ".density." in name:
                density_grad_max = max(density_grad_max, abs(ad))

    # Entries far below the sampled gradient scale cannot be resolved by a
    # finite difference at step h (the difference sits in roundoff), so the
    # comparison floor is tied to that scale rather than to each entry.
    g_scale = max((abs(ad) for _, ad, _ in entries), default=0.0)
    floor = max(1e-3 * g_scale, 1e-10)
    worst, worst_name = 0.0, ""
    for name, ad, fd in entries:
        err = abs(ad - fd) / max(abs(ad), abs(fd), floor)
        if err > worst:
            worst, worst_name = err, name
    return {
        "max_rel_err": worst,
        "worst_param": worst_name,
        "density_grad_max": density_grad_max,
        "gradient_scale": g_scale,
        "n_checked": len(picks),
    }
