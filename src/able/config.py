"""Run configuration: dataclass tree, JSON files, overrides, seed streams.

A run is a pure function of (config, dataset files, seed). All randomness
derives from the single top-level seed through named substreams ("data",
"init", "shuffle"), so changing e.g. the batch order cannot perturb the
parameter initialization. The merged effective configuration is written
next to every output for reproducibility.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ContractError
from .operator import ModelConfig
from .training import TrainConfig

TASKS = ("burgers", "darcy")


@dataclass
class DataConfig:
    samples: int = 250
    n_test: int = 50
    resolution: int = 256
    generate_at: int = 1024
    nu: float = 0.1                 # burgers viscosity
    t_final: float = 1.0
    forcing: float = 1.0            # darcy right-hand side
    tau: float = 5.0
    alpha: float = 2.0
    scale: float = 25.0
    threshold_high: float = 12.0    # darcy two-phase levels
    threshold_low: float = 3.0


@dataclass
class RunConfig:
    task: str = "burgers"
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ContractError(f"unknown task {self.task!r}; expected one of {TASKS}")


TASK_MODEL_DEFAULTS = {
    "burgers": dict(ndim=1, width=24, n_layers=4, k_max=16, slices=2,
                    density_arch="fd4", density_hidden=16, proj_hidden=64),
    "darcy": dict(ndim=2, width=16, n_layers=4, k_max=8, slices=2,
                  density_arch="mlp2", density_hidden=24, proj_hidden=64),
}

TASK_DATA_DEFAULTS = {
    "burgers": dict(samples=250, n_test=50, resolution=256, generate_at=1024,
                    tau=5.0, alpha=2.0, scale=25.0),
    "darcy": dict(samples=60, n_test=10, resolution=64, generate_at=256,
                  tau=3.0, alpha=2.0, scale=1.0),
}


def is_number(value) -> bool:
    """A finite JSON number: an int or a float, not a bool, NaN or an infinity
    (Python's `json` reads `NaN` and `Infinity`)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _expected_type(value, default) -> Optional[str]:
    """What `value` should have been, given its field's default; None if it fits."""
    if default is None:                 # act_flags: per-layer switches
        if value is None or (isinstance(value, (list, tuple))
                             and all(isinstance(v, bool) for v in value)):
            return None
        return "null or a list of booleans"
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "a boolean"
    if isinstance(default, int):
        return None if isinstance(value, int) and not isinstance(value, bool) else "an integer"
    if isinstance(default, float):
        return None if is_number(value) else "a finite number"
    return None if isinstance(value, str) else "a string"


def dataclass_from(cls, values, path: str, base: Optional[dict] = None):
    """Build `cls` from a JSON object laid over `base`, rejecting unknown keys
    and values whose type does not match the field's default."""
    if not isinstance(values, dict):
        raise ContractError(f"config key {path!r} must be an object, got {values!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(values) - set(defaults)
    if unknown:
        raise ContractError(f"unknown config key(s) under {path}: {sorted(unknown)}")
    values = {**(base or {}), **values}
    for name, value in values.items():
        want = _expected_type(value, defaults[name])
        if want is not None:
            raise ContractError(f"config key {path}.{name} must be {want}, got {value!r}")
    return cls(**values)


def build_run_config(raw: dict) -> RunConfig:
    """Task defaults, overlaid with the user's values; unknown keys rejected.

    The trainer's seed is the run seed; a `train.seed` that differs is refused.
    """
    known_top = {"task", "seed", "model", "train", "data"}
    unknown = set(raw) - known_top
    if unknown:
        raise ContractError(f"unknown top-level config key(s): {sorted(unknown)}")
    task = raw.get("task", "burgers")
    if task not in TASKS:
        raise ContractError(f"unknown task {task!r}; expected one of {TASKS}")
    seed = raw.get("seed", 0)
    if _expected_type(seed, 0) is not None:
        raise ContractError(f"config key seed must be an integer, got {seed!r}")
    train = raw.get("train", {})
    if isinstance(train, dict) and train.get("seed", seed) != seed:
        raise ContractError(f"train.seed {train['seed']!r} differs from the run seed {seed}; "
                            "set the top-level seed instead")
    return RunConfig(
        task=task,
        seed=seed,
        model=dataclass_from(ModelConfig, raw.get("model", {}), "model",
                             TASK_MODEL_DEFAULTS[task]),
        train=dataclass_from(TrainConfig, train, "train", {"seed": seed}),
        data=dataclass_from(DataConfig, raw.get("data", {}), "data", TASK_DATA_DEFAULTS[task]),
    )


def load_config(path: Optional[str], overrides: Optional[list] = None) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContractError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ContractError(f"config file {path} must contain a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ContractError(f"override {item!r} is not of the form key.path=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ContractError(f"override path {key!r} crosses a non-object value")
        node[parts[-1]] = parsed
    return build_run_config(raw)


def stream_seed(seed: int, name: str) -> int:
    """Deterministic named substream of the run seed (data / init / shuffle)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    ss = np.random.SeedSequence([int(seed), int.from_bytes(digest[:8], "little")])
    return int(ss.generate_state(1)[0])


def config_key_help() -> str:
    """One line per config key with its default, for --help epilogs."""
    notes = {
        "task": "burgers (1-D) or darcy (2-D)",
        "seed": "master seed; data/init/shuffle streams derive from it",
        "model.ndim": "1 or 2; set from the dataset's grid at train time",
        "model.in_channels": "set from the dataset's inputs at train time (>= 1)",
        "model.out_channels": "set from the dataset's targets at train time (>= 1)",
        "model.width": "channel width of the operator layers",
        "model.n_layers": "number of adaptive spectral layers",
        "model.k_max": "retained low modes per axis (>= 1, needs 2*k_max <= N)",
        "model.slices": "adaptive basis size M; 1 recovers the plain Fourier layer",
        "model.kind": "diagonal per-slice mixing, or cross for slice-pair mixing",
        "model.temperature": "softmax temperature of the density head",
        "model.learn_temperature": "make the temperature a trained parameter",
        "model.density_arch": "mlp2 pointwise head, or fd4 with stencil features (1-D)",
        "model.density_hidden": "hidden width of the density head (>= 2 for fd4)",
        "model.per_channel": "separate density per channel instead of shared",
        "model.residual": "fd4 head: skip from first to third hidden layer",
        "model.activation": "gelu, silu, relu or none between layers",
        "model.act_flags": "per-layer activation switches (default: off for last)",
        "model.coord_features": "append normalized coordinates at lifting",
        "model.proj_hidden": "hidden width of the output projection",
        "train.epochs": "training epochs",
        "train.batch_size": "minibatch size",
        "train.learning_rate": "Adam learning rate",
        "train.schedule": "step, cosine, or none",
        "train.schedule_gamma": "step-schedule decay factor",
        "train.schedule_every": "epochs between step decays (>= 1)",
        "train.beta1": "Adam first-moment decay, in [0, 1)",
        "train.beta2": "Adam second-moment decay, in [0, 1)",
        "train.eps": "Adam denominator offset (> 0)",
        "train.weight_decay": "decay applied to spectral weights only",
        "data.samples": "dataset size to generate (>= 0)",
        "data.n_test": "held-out sample count at train time",
        "data.resolution": "stored resolution (power of two >= 2)",
        "data.generate_at": "solver resolution, a multiple of data.resolution",
        "data.nu": "burgers viscosity",
        "data.t_final": "burgers horizon (> 0)",
        "data.forcing": "darcy right-hand side constant",
        "data.tau": "random-field inverse length scale",
        "data.alpha": "random-field smoothness exponent",
        "data.scale": "random-field amplitude",
        "data.threshold_high": "darcy high-phase coefficient",
        "data.threshold_low": "darcy low-phase coefficient",
    }
    base = build_run_config({})
    flat = {}

    def walk(prefix, obj):
        for f in fields(obj):
            v = getattr(obj, f.name)
            if dataclasses.is_dataclass(v):
                walk(f"{prefix}{f.name}.", v)
            else:
                flat[f"{prefix}{f.name}"] = v

    walk("", base)
    lines = ["configuration keys (burgers defaults shown; set via file or --set):"]
    for key, value in flat.items():
        note = notes.get(key, "")
        lines.append(f"  {key:<28} default={value!r:<12} {note}")
    return "\n".join(lines)
