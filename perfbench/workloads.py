"""Benchmark workloads: set-up, interleaved training, data generation, gates.

Both workloads are closed loops with one caller: every call waits for the
previous one, and a repeated set-up runs in a child process that the loop
waits for. Each trains three variants interleaved step by step (so drift
on a shared machine hits all three alike), evaluates train and held-out
splits at the end of every epoch as `training.train` does, and between
training rounds generates data at the solver-correctness shapes of
acceptance criterion 10, writing and reading back every file. An untraced
run also repeats its timed set-up between training rounds.

- `burgers-1d`: criterion 11's shapes (N=256, width 16, 3 layers,
  k_max 12, fd4 head, batch 20). Small arrays, so tape and interpreter
  overhead and the 1-D FFT dominate.
- `darcy-2d`: the Darcy task defaults (64x64, width 16, 4 layers, k_max 8,
  mlp2 head) at batch 1, the batch that fits the run, on 4 training
  samples, so that a run ends several epochs and times evaluation at each.
  Large 2-D arrays, so the 2-D FFT and mode mixing dominate.

The variants are `m1` (M=1, the short-circuit Fourier path with no density
head), `m2` (M=2 diagonal) and `cross` (M=2 cross). `m1` bypasses every
change to the M>1 path; the generation phase calls only `pde` and
`dataio`, so it bypasses every model-side change; each workload's solver
is bypassed by the other workload.

The package is driven only through its public functions; module
attributes are looked up at call time so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from able import config, dataio, frame, operator, reference, training
from able import tensor as T

import gates as G

VARIANTS = (("m1", 1, "diagonal"), ("m2", 2, "diagonal"), ("cross", 2, "cross"))
VARIANT_NAMES = tuple(v for v, _, _ in VARIANTS)

# Every variant takes at least this many steps, so the tail percentile has
# ten samples beyond it (p50 at worst), and at least two epochs complete,
# so the loss gate can compare the first epoch with the last. A traced run,
# which reports no tail, counts its untraced and traced steps together.
MIN_STEPS = 20
MIN_EPOCHS = 2
# Set-ups timed in an untraced run: the first builds the state that is
# trained, the others are repeated during training, so that set-up is timed
# under the same drift of a shared machine as the training steps. A set-up
# is the import of numpy and the package plus `setup`. Each repeat runs in a
# fresh interpreter, so it pays the same first-call costs as the first
# set-up and leaves the trained process's memory, and its peak RSS, alone.
SETUP_REPEATS = 6
BENCH = Path(__file__).resolve().parent
SETUP_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
               "import workloads as W; "
               "state = W.setup(W.WORKLOADS[sys.argv[3]], int(sys.argv[4])); "
               "print(time.perf_counter() - t0, W.data_digest(state.data))")

# A training step is everything under these outermost calls.
STEP_ROOTS = ("operator.AbleNetwork.forward", "training.relative_l2",
              "tensor.tape_backward", "training.Adam.zero_grad", "training.Adam.step",
              "tensor.Tensor.item")
FORWARD_ROOT = ("operator.AbleNetwork.forward",)
FFT_SCOPES = ("fft.fft_unitary", "fft.ifft_unitary")
DENSITY_SCOPES = ("frame.DensityNetwork.energies", "frame.density_from_energies")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict                       # ModelConfig fields besides slices and kind
    batch: int
    n_train: int
    n_test: int
    train_data: Callable              # seed -> Dataset at the training resolution
    gen: Callable                     # seed -> Dataset at criterion-10 shapes
    gen_samples: int                  # samples per generation call
    gen_calls: int


def _burgers_train(seed):
    # t_final 0.1 keeps set-up short: at N=256 the solver's dt cap binds,
    # so the step count, not the data, sets the cost
    return dataio.make_burgers_dataset(50, nu=0.1, seed=seed, resolution=256,
                                       generate_at=256, t_final=0.1)


def _burgers_gen(seed):
    return dataio.make_burgers_dataset(2, nu=0.1, seed=seed, resolution=256,
                                       generate_at=1024)


def _darcy_train(seed):
    return dataio.make_darcy_dataset(6, seed=seed, resolution=64, generate_at=64)


def _darcy_gen(seed):
    # one sample per call: samples are solved one by one, so a call's cost
    # per sample does not depend on the number of samples
    return dataio.make_darcy_dataset(1, seed=seed, resolution=64, generate_at=256)


WORKLOADS = {
    "burgers-1d": Workload(
        name="burgers-1d",
        why="small 1-D arrays: tape and interpreter overhead and the 1-D FFT dominate; "
            "m1 bypasses the M>1 path",
        model=dict(ndim=1, in_channels=1, out_channels=1, width=16, n_layers=3, k_max=12,
                   density_arch="fd4", density_hidden=16, proj_hidden=32, temperature=0.8),
        batch=20, n_train=40, n_test=10,
        train_data=_burgers_train, gen=_burgers_gen, gen_samples=2, gen_calls=8),
    "darcy-2d": Workload(
        name="darcy-2d",
        why="large 2-D arrays: the 2-D FFT and mode mixing dominate and tape overhead "
            "is negligible; the opposite of burgers-1d",
        model={**{k: v for k, v in config.TASK_MODEL_DEFAULTS["darcy"].items() if k != "slices"},
               "in_channels": 1, "out_channels": 1},
        batch=1, n_train=4, n_test=2,
        train_data=_darcy_train, gen=_darcy_gen, gen_samples=1, gen_calls=8),
}


# ---- metric names (BENCHMARK.json lists the same) ------------------------------------

END_TO_END = (
    [("setup_s", "s", "lower")]
    + [(f"step_ms_p50.{v}", "ms", "lower") for v in VARIANT_NAMES]
    + [(f"step_ms_tail.{v}", "ms", "lower") for v in VARIANT_NAMES]
    + [(f"eval_samples_per_s.{v}", "samples/s", "higher") for v in VARIANT_NAMES]
    + [("gen_s_per_sample", "s/sample", "lower"), ("peak_rss_mb", "MB", "lower")]
)

_PER_VARIANT = (
    ("fft.calls", "count/step", "lower"),
    ("fft.ms", "ms/step", "lower"),
    ("fft.gflops", "GFLOP/s", "higher"),
    ("tensor.nodes_per_step", "count/step", "lower"),
    ("tensor.backward_ms", "ms/step", "lower"),
    ("tensor.gelu_ms", "ms/step", "lower"),
    ("tensor.einsum_ms", "ms/step", "lower"),
    ("frame.density_ms", "ms/step", "lower"),
    ("operator.layer_ms", "ms/step", "lower"),
    ("operator.layer_self_ms", "ms/step", "lower"),
    ("operator.network_fwd_ms", "ms/step", "lower"),
    ("operator.flops", "flop/sample", "lower"),
    ("operator.gflops.fft", "GFLOP/s", "higher"),
    ("operator.gflops.mixing", "GFLOP/s", "higher"),
    ("operator.gflops.pointwise", "GFLOP/s", "higher"),
    ("operator.gflops.density", "GFLOP/s", "higher"),
    ("training.loss_ms", "ms/step", "lower"),
    ("training.optimizer_ms", "ms/step", "lower"),
    ("training.eval_ms", "ms/call", "lower"),
    ("training.eval_share", "share", "lower"),
    ("trace.overhead_ms", "ms/step", "lower"),
    ("trace.coverage", "share", "higher"),
)

PER_LAYER = (
    [(f"{stem}.{v}", unit, better) for v in VARIANT_NAMES for stem, unit, better in _PER_VARIANT]
    + [
        ("fft.calls.gen", "count", "lower"),
        ("pde.grf_ms", "ms/sample", "lower"),
        ("pde.burgers_steps", "count", "lower"),
        ("pde.burgers_ms_per_step", "ms", "lower"),
        ("pde.darcy_solve_ms", "ms/sample", "lower"),
        ("pde.darcy_residual_max", "ratio", "lower"),
        ("dataio.bytes", "B/file", "lower"),
        ("dataio.write_ms", "ms/file", "lower"),
        ("dataio.read_ms", "ms/file", "lower"),
        ("dataio.checkpoint_save_ms", "ms/file", "lower"),
        ("dataio.checkpoint_load_ms", "ms/file", "lower"),
    ]
)


# ---- set-up ----------------------------------------------------------------------------

@dataclass
class Model:
    net: object
    opt: object


@dataclass
class State:
    workload: Workload
    seed: int
    data: object
    train_set: object
    test_set: object
    train_cfg: object
    models: dict
    flop_terms: dict                  # variant -> count_flops terms per sample


def setup(w: Workload, seed: int) -> State:
    """Generate the training data and build the three networks and optimizers."""
    data = w.train_data(config.stream_seed(seed, "data"))
    train_set, test_set = training.split_dataset(data, w.n_test, seed=seed)
    cfg = training.TrainConfig(batch_size=w.batch, seed=seed)
    init_seed = config.stream_seed(seed, "init")
    models = {}
    for v, slices, kind in VARIANTS:
        net = operator.build_network(
            operator.ModelConfig(**w.model, slices=slices, kind=kind), seed=init_seed)
        params = net.named_parameters()
        opt = training.Adam(params, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2,
                            eps=cfg.eps, weight_decay=cfg.weight_decay,
                            decay_names=training.spectral_weight_names(params))
        models[v] = Model(net, opt)
    terms = {v: operator.count_flops(m.net, train_set.grid) for v, m in models.items()}
    return State(w, seed, data, train_set, test_set, cfg, models, terms)


# ---- interleaved training ------------------------------------------------------------------

@dataclass
class VariantLog:
    step_s: list = field(default_factory=list)
    eval_s: float = 0.0
    eval_samples: int = 0
    eval_calls: int = 0


def closed_loop(state: State, seconds: float, gates: G.Gates, workdir: Path,
                tracer=None, setup_repeats: int = 0) -> tuple:
    """Round-robin training steps over the variants, an evaluation of every
    variant at each epoch end, and the generation calls and `setup_repeats`
    timed repeats of `setup` spread evenly over the run, until `seconds` of
    training and evaluation have passed, every variant has taken MIN_STEPS
    steps and MIN_EPOCHS epochs per side are done. Spreading every kind of work over the whole
    run exposes each to the same drift of a shared machine.

    With a tracer, epochs alternate untraced (tracer detached) and traced
    (attached), and the generation calls are traced. Returns
    ({variant: VariantLog} untraced, the same traced or None, GenLog,
    [seconds of each set-up repeat]).
    """
    w, cfg = state.workload, state.train_cfg
    plain = {v: VariantLog() for v in VARIANT_NAMES}
    traced = {v: VariantLog() for v in VARIANT_NAMES} if tracer is not None else None
    sides = [plain] if traced is None else [plain, traced]
    epoch_losses = {v: [] for v in VARIANT_NAMES}    # mean step loss per completed epoch
    shuffle = np.random.default_rng(config.stream_seed(state.seed, "shuffle"))
    train_x, train_y = state.train_set.inputs, state.train_set.targets
    gen = GenLog()
    setup_s = []
    # job i of the n of a kind is due at (i + 0.5) / n of the training time
    jobs = sorted([((i + 0.5) / w.gen_calls * seconds, "gen") for i in range(w.gen_calls)]
                  + [((i + 0.5) / setup_repeats * seconds, "setup")
                     for i in range(setup_repeats)])
    t_start = time.perf_counter()
    rounds = epochs = 0

    def train_clock():
        return time.perf_counter() - t_start - sum(gen.call_s) - sum(setup_s)

    def use(logs) -> None:
        """Attach the tracer for the traced side, detach it for the other."""
        if tracer is not None:
            tracer.attach() if logs is traced else tracer.detach()

    def jobs_due(until: float, logs) -> None:
        """Run the jobs due by `until`, then trace `logs`' side again."""
        while jobs and until >= jobs[0][0]:
            _, kind = jobs.pop(0)
            if kind == "setup":
                setup_repeat(state, len(setup_s) + 1, gates, setup_s)
                continue
            if tracer is not None:
                tracer.attach()
                tracer.label = "gen"
            generate_call(state, len(gen.call_s), workdir, gates, gen)
        use(logs)

    def finished():
        return (train_clock() >= seconds
                and epochs >= MIN_EPOCHS * len(sides)
                and all(sum(len(side[v].step_s) for side in sides) >= MIN_STEPS
                        for v in VARIANT_NAMES))

    while True:
        logs = sides[epochs % len(sides)]
        use(logs)
        lr = training.scheduled_lr(cfg, epochs)
        order = shuffle.permutation(w.n_train)
        losses = {v: [] for v in VARIANT_NAMES}
        stopped = False
        for start in range(0, w.n_train, w.batch):
            idx = order[start:start + w.batch]
            shift = rounds % len(VARIANT_NAMES)
            for v in VARIANT_NAMES[shift:] + VARIANT_NAMES[:shift]:
                model = state.models[v]
                if logs is traced:
                    tracer.label = v
                    tracer.begin_step()
                t0 = time.perf_counter()
                xb, yb = T.Tensor(train_x[idx]), T.Tensor(train_y[idx])
                loss = training.relative_l2(model.net(xb), yb)
                value = loss.item()
                model.opt.zero_grad()
                T.tape_backward(loss)
                model.opt.step(lr=lr)
                logs[v].step_s.append(time.perf_counter() - t0)
                losses[v].append(value)
                G.loss_finite(gates, f"{v} step loss", value)
            rounds += 1
            if finished():
                stopped = True
                break
            jobs_due(train_clock(), logs)
        if stopped:
            break
        epochs += 1
        for v in VARIANT_NAMES:
            epoch_losses[v].append(statistics.fmean(losses[v]))
            if logs is traced:
                tracer.label = v
            net = state.models[v].net
            t0 = time.perf_counter()
            training.evaluate(net, state.train_set, cfg.batch_size)
            training.evaluate(net, state.test_set, cfg.batch_size)
            logs[v].eval_s += time.perf_counter() - t0
            logs[v].eval_samples += state.train_set.samples + state.test_set.samples
            logs[v].eval_calls += 2
        if finished():
            break
    jobs_due(float("inf"), traced)                  # leaves a tracer attached
    for v in VARIANT_NAMES:
        G.loss_decreased(gates, f"{v} training loss", epoch_losses[v][0], epoch_losses[v][-1])
    return plain, traced, gen, setup_s


def setup_repeat(state: State, i: int, gates: G.Gates, setup_s: list) -> None:
    """Time set-up `i`, import included, in a fresh interpreter and check
    that it rebuilds the same data; the interpreter has ended on return."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(BENCH.parent / "src"), str(BENCH),
         state.workload.name, str(state.seed)],
        capture_output=True, text=True, check=True, timeout=120)
    seconds, digest = out.stdout.split()[-2:]
    setup_s.append(float(seconds))
    gates.check(f"set-up {i} reproduces set-up 0", digest == data_digest(state.data),
                "data digests differ")


# ---- gates on the trained networks ------------------------------------------------------

def model_gates(state: State, gates: G.Gates) -> None:
    """M=1 reduction to the Fourier oracle and the frame identities, at the
    workload's shapes, on the trained networks."""
    w = state.workload
    rng = np.random.default_rng(config.stream_seed(state.seed, "gates"))
    shape = (w.batch, w.model["width"]) + state.train_set.grid.extents

    layer = state.models["m1"].net.layers[-1]          # the last layer has no activation
    f = rng.standard_normal(shape)
    with T.no_grad():
        got = layer(T.Tensor(f)).data
    want = reference.fno_layer(f, layer.multiplier.weights.data[..., 0], layer.pointwise.data,
                               layer.bias.data, layer.multiplier.k_max)
    G.fno_reference(gates, "m1 layer vs reference.fno_layer", got, want)

    for v in VARIANT_NAMES:
        layer = state.models[v].net.layers[0]
        with T.no_grad():
            p = layer.density(T.Tensor(rng.standard_normal(shape)))
            g = rng.standard_normal(shape)
            lifted = frame.able_forward(T.Tensor(g), p)
            back = frame.able_inverse(lifted, p)
        G.frame_identities(gates, f"{v} able_inverse(able_forward) on the learned density",
                           g, lifted.values.data, back.data)


def checkpoint_round_trips(state: State, workdir: Path, gates: G.Gates) -> None:
    for v in VARIANT_NAMES:
        net = state.models[v].net
        path = workdir / f"{v}.ckpt"
        params = net.named_parameters()
        dataio.save_checkpoint(path, net.config, params)
        header, loaded = dataio.load_checkpoint(path)
        name = f"{v} checkpoint round trip"
        if header != asdict(net.config) or set(loaded) != set(params):
            gates.check(name, False, "header or tensor names differ")
        else:
            G.bitwise_equal(gates, name, [(n, p.data, loaded[n]) for n, p in params.items()])
        path.unlink()


def solver_gate(w: Workload, gates: G.Gates, name: str, dataset) -> None:
    if w.model["ndim"] == 1:
        G.burgers_solver(gates, name, dataset.meta)
    else:
        G.darcy_solver(gates, name, dataset.meta, dataset.targets)


def _meta_bytes(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def data_digest(dataset) -> str:
    """SHA-256 of a dataset's arrays, their dtypes and shapes, and its metadata."""
    h = hashlib.sha256()
    for _, a, _ in dataset_pairs(dataset, dataset):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def dataset_pairs(a, b) -> list:
    return [("inputs", a.inputs, b.inputs), ("targets", a.targets, b.targets),
            ("extents", np.array(a.grid.extents), np.array(b.grid.extents)),
            ("meta", _meta_bytes(a.meta), _meta_bytes(b.meta))]


# ---- data generation ----------------------------------------------------------------------

@dataclass
class GenLog:
    call_s: list = field(default_factory=list)
    file_bytes: list = field(default_factory=list)
    metas: list = field(default_factory=list)


def generate_call(state: State, i: int, workdir: Path, gates: G.Gates, log: GenLog) -> None:
    """One generation call at criterion-10 shapes: generate, write, read back."""
    w = state.workload
    path = workdir / f"gen{i}.bin"
    t0 = time.perf_counter()
    ds = w.gen(config.stream_seed(state.seed, f"gen{i}"))
    dataio.dataset_write(ds, path)
    back = dataio.dataset_read(path)
    log.call_s.append(time.perf_counter() - t0)
    log.file_bytes.append(path.stat().st_size)
    log.metas.append(ds.meta)
    solver_gate(w, gates, f"generation call {i} solver", ds)
    G.bitwise_equal(gates, f"generation call {i} dataset round trip", dataset_pairs(ds, back))
    path.unlink()


# ---- end-to-end metrics ------------------------------------------------------------------

def tail_percentile(values) -> tuple:
    """(q, value, beyond): the highest whole percentile q (nearest rank) with
    at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        raise ValueError(f"{n} samples leave no percentile with ten beyond it")
    q = (100 * (n - 10)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, xs[rank - 1], n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s: float, logs: dict, gen: GenLog, w: Workload) -> tuple:
    """(metrics {name: (value, unit)}, notes {name: text})."""
    units = {name: unit for name, unit, _ in END_TO_END}
    values, notes = {"setup_s": setup_s}, {}
    for v in VARIANT_NAMES:
        steps_ms = [s * 1e3 for s in logs[v].step_s]
        values[f"step_ms_p50.{v}"] = statistics.median(steps_ms)
        q, tail, beyond = tail_percentile(steps_ms)
        values[f"step_ms_tail.{v}"] = tail
        notes[f"step_ms_tail.{v}"] = f"p{q}, {beyond} of {len(steps_ms)} steps beyond it"
        notes[f"step_ms_p50.{v}"] = f"{len(steps_ms)} steps"
        values[f"eval_samples_per_s.{v}"] = logs[v].eval_samples / logs[v].eval_s
        notes[f"eval_samples_per_s.{v}"] = (f"{logs[v].eval_samples} samples in "
                                            f"{logs[v].eval_calls} evaluate calls")
    values["gen_s_per_sample"] = statistics.median(s / w.gen_samples for s in gen.call_s)
    notes["gen_s_per_sample"] = (f"median of {w.gen_calls} calls of {w.gen_samples} "
                                 "sample(s), write and read-back included: "
                                 f"{', '.join(f'{s:.3f}' for s in gen.call_s)} s")
    values["peak_rss_mb"] = peak_rss_mb()
    return {k: (values[k], units[k]) for k in units}, notes
