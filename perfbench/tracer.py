"""Span tracer for the traced benchmark run.

`Tracer.install` wraps every public function and public method of the
package's modules so that each call records a span: its name, its
duration, the time its traced children took, and the outermost traced
call it ran under (its root, e.g. `operator.AbleNetwork.forward` for the
forward pass of a step or `training.evaluate` for evaluation). Spans are
aggregated in memory per (label, root, name), where the label is set by
the caller (a model variant, or the data-generation phase).

Only the traced run imports this module; untraced runs never load it, and
within the traced run `detach` restores every original binding. Wrapping
is done from outside the package, so three kinds of binding are rebound
besides the module attributes themselves: names imported from another
module (`operator` imports `density_from_energies` by name), aliases
inside a class (`AbleLayer.__call__` is the same function as `forward`)
and function references held in containers or default arguments
(`tensor.ACTIVATIONS`, `gradient_check(loss_fn=...)`).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("tensor", "fft", "frame", "operator", "training", "pde", "dataio")

# Elementwise flops per gelu element by convention: x*x*x (2), two scalings
# and an add (3), tanh (1), 1 + t (1), 0.5 * x (1), the final product (1).
GELU_FLOPS_PER_ELEMENT = 9


class Tracer:
    def __init__(self):
        self.label = "setup"
        self._stack: list = []            # [name, child seconds] per open span
        # (label, root, name) -> [calls, inclusive s, self s, flops, bytes]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        self.nodes = defaultdict(int)     # label -> taped tensors created
        self.node_bytes = defaultdict(int)
        self._seen: set = set()
        self._tensor_cls = None

    # ---- span recording -------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        stack = self._stack
        stats = self.stats
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
            key_name, flops, nbytes = hook(args, kwargs, out) if hook else (name, 0.0, 0.0)
            root = stack[0][0] if stack else name
            entry = stats[(self.label, root, key_name)]
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - frame[1]
            entry[3] += flops
            entry[4] += nbytes
            if stack:
                stack[-1][1] += dt
            return out

        return traced

    def begin_step(self) -> None:
        """Forget the tensors seen so far; node counts are per step."""
        self._seen.clear()

    # ---- work counters ------------------------------------------------------

    def _tensor_hook(self, name: str):
        def hook(args, kwargs, out):
            if isinstance(out, self._tensor_cls) and out.requires_grad \
                    and id(out) not in self._seen:
                self._seen.add(id(out))
                self.nodes[self.label] += 1
                self.node_bytes[self.label] += out.data.nbytes
            return name, 0.0, 0.0
        return hook

    def _fft_hook(self, name: str):
        def hook(args, kwargs, out):
            a = np.asarray(args[0])
            axes = args[1] if len(args) > 1 else kwargs["axes"]
            logs = sum(math.log2(a.shape[ax]) for ax in axes)
            # 5 N log2 N per transformed line of length N, summed over axes
            return name, 5.0 * a.size * logs, 2.0 * a.size * 16
        return hook

    def _einsum_hook(self, name: str, base):
        def hook(args, kwargs, out):
            base(args, kwargs, out)
            spec, a, b = args[0], args[1], args[2]
            ad, bd = getattr(a, "data", a), getattr(b, "data", b)
            lhs = spec.split("->")[0].split(",")
            sizes = {}
            for sub, arr in zip(lhs, (ad, bd)):
                sizes.update(zip(sub, np.shape(arr)))
            complex_ops = np.iscomplexobj(ad) + np.iscomplexobj(bd)
            per_mac = (2.0, 4.0, 8.0)[complex_ops]
            tag = "mixing" if complex_ops else "pointwise"
            nbytes = np.asarray(ad).nbytes + np.asarray(bd).nbytes + out.data.nbytes
            return f"{name}[{tag}]", per_mac * math.prod(sizes.values()), float(nbytes)
        return hook

    def _matmul_hook(self, name: str, base):
        def hook(args, kwargs, out):
            base(args, kwargs, out)
            ad = getattr(args[0], "data", args[0])
            k = np.shape(ad)[-1]
            nbytes = np.asarray(ad).nbytes + np.asarray(getattr(args[1], "data", args[1])).nbytes
            return name, 2.0 * out.data.size * k, float(nbytes + out.data.nbytes)
        return hook

    def _gelu_hook(self, name: str, base):
        def hook(args, kwargs, out):
            base(args, kwargs, out)
            return name, float(GELU_FLOPS_PER_ELEMENT * out.data.size), 2.0 * out.data.nbytes
        return hook

    def _hook_for(self, module: str, name: str, qualname: str):
        if module == "fft" and qualname in ("fft_unitary", "ifft_unitary"):
            return self._fft_hook(name)
        if module != "tensor":
            return None
        base = self._tensor_hook(name)
        special = {"einsum2": self._einsum_hook, "matmul": self._matmul_hook,
                   "gelu": self._gelu_hook}.get(qualname)
        return special(name, base) if special else base

    # ---- installation ---------------------------------------------------------

    def install(self, package) -> int:
        """Wrap the package's public functions and methods and attach the
        wrappers; returns how many functions are wrapped."""
        self._tensor_cls = package.tensor.Tensor
        wrapped: dict = {}          # id(original) -> (original, wrapper)
        self._bindings = []         # (owner, key, original, wrapper)

        def wrap(module_short, qualname, fn):
            if id(fn) not in wrapped:
                name = f"{module_short}.{qualname}"
                hook = self._hook_for(module_short, name, qualname)
                wrapped[id(fn)] = (fn, self._wrap(name, fn, hook))
            return wrapped[id(fn)][1]

        def lookup(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._bindings.append((module, attr, obj, wrap(short, attr, obj)))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or meth == "__call__"
                        if public and inspect.isfunction(fn):
                            traced = wrap(short, fn.__qualname__, fn)
                            self._bindings.append((obj, meth, fn, traced))

        # every other reference to an original: names imported into other
        # modules, function references in module-level containers, and
        # default argument values
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        bound = {(id(owner), key) for owner, key, _, _ in self._bindings}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if lookup(obj) is not None and (id(module), attr) not in bound:
                    self._bindings.append((module, attr, obj, lookup(obj)))
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if lookup(v) is not None:
                            self._bindings.append((obj, k, v, lookup(v)))
        for original, _ in list(wrapped.values()):
            if original.__defaults__ and any(lookup(d) for d in original.__defaults__):
                traced_defaults = tuple(lookup(d) or d for d in original.__defaults__)
                self._bindings.append((original, "__defaults__", original.__defaults__,
                                       traced_defaults))
        self.attach()
        return len(wrapped)

    def _bind(self, use_wrapper: bool) -> None:
        for owner, key, original, wrapper in self._bindings:
            value = wrapper if use_wrapper else original
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def attach(self) -> None:
        """Route calls through the wrappers."""
        self._bind(True)

    def detach(self) -> None:
        """Restore the original functions: calls cost exactly what they did."""
        self._bind(False)

    # ---- queries ------------------------------------------------------------------

    def select(self, label: str, roots=None, names=None, prefix: str = None,
               top_level: bool = False):
        """Sum [calls, inclusive, self, flops, bytes] over matching entries;
        `top_level` keeps only the outermost spans (a root's own entry)."""
        total = [0, 0.0, 0.0, 0.0, 0.0]
        for (lab, root, name), entry in self.stats.items():
            if lab != label or (roots is not None and root not in roots):
                continue
            if names is not None and name not in names:
                continue
            if prefix is not None and not name.startswith(prefix):
                continue
            if top_level and name != root:
                continue
            for i, v in enumerate(entry):
                total[i] += v
        return total

    def scopes(self, label: str, roots=None) -> dict:
        """name -> [calls, inclusive, self, flops, bytes] summed over roots."""
        out = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        for (lab, root, name), entry in self.stats.items():
            if lab == label and (roots is None or root in roots):
                for i, v in enumerate(entry):
                    out[name][i] += v
        return dict(out)
