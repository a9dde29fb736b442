"""Reverse-mode automatic differentiation over dense numpy arrays.

Define-by-run: every node links its output to its parents with a closure
computing the vector-Jacobian product, and `tape_backward` replays the
recorded graph once in reverse topological order. The tape is rebuilt
from scratch every step: the sweep drops each node's VJP closure once it
has run, which frees the buffers kept only for the backward pass, so a
spent graph cannot be swept again.

This module holds the tape and the kernels its nodes share, not a library
of ops: each node is built on `_make` with a hand-written VJP by the
module that owns its computation. A training step records the lifting
and both projections (`frame.linear`), per adaptive layer its density
head (`frame.DensityNetwork.energies`) and square-root density
(`frame.sqrt_softmax`), per layer its spectral node (`frame.spectral`),
and the loss (`training.relative_l2`); the frame API adds `frame.lift`
and `frame.synthesize`.

Complex tensors follow the paired-reals convention: for a real loss L and
a complex value x = a + ib, the stored gradient is dL/da + i*dL/db, so a
holomorphic map with derivative f' propagates grad_in = conj(f') *
grad_out. `tape_backward` sums a gradient over the axes broadcasting
added (`_unbroadcast`) and keeps the real part of a real tensor's
(`_project`). Tensors are immutable once built; optimizers mutate
parameter buffers in place between steps, outside the taped region.

`_contract` runs a two-operand einsum as one batched BLAS matmul through a
transpose/reshape plan cached per (spec, shapes) (`_matmul_plan`), and
returns a transposed view of the product; `conj_a` conjugates the first
operand after that layout copy, in place on the copy. `_contract_grad_a`
is the first-operand gradient as conj(conj(g) @ Wᵀ) on the forward's view
of the second operand W, so weights stored in the forward's layout are
never copied. `frame.spectral` calls both for a layer's mode mixing; the
per-point maps are plain batched matmuls inside their nodes. `np.einsum`
is kept only in the independent oracles (`reference.fno_layer`,
`operator.materialize_kernel`, `verify.dense_kernel_residual` and the test
suite's taped contraction).

Each activation is a pair of numpy kernels, forward and VJP, run as
in-place ufuncs (`_relu`, `_silu`, `_gelu` and their `_grad`s), which the
nodes apply inside their own forward and VJP: the density head silu's,
the spectral node and `frame.linear` any of `ACTIVATION_KERNELS`. The
forward overwrites its argument, the pre-activation buffer its node owns,
with the output, and returns (output, saved): a bool mask for relu, the
sigmoid s for silu and gelu. The VJP reads the output and s, not the
pre-activation, so a node keeps its output and one saved array. gelu is
the tanh form 0.5 x (1 + tanh u), computed in its exact sigmoid form
x sigmoid(2u) with one exp; its VJP takes x back as output / s.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation / timing)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_data(x) -> np.ndarray:
    a = np.asarray(x)
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _vjp: Optional[Callable] = None):
        self.data = _as_data(data)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._vjp = _vjp

    # ---- basic introspection -------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def is_complex(self):
        return np.iscomplexobj(self.data)

    def item(self) -> float:
        return float(self.data.real) if self.is_complex else float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out the axes numpy broadcasting introduced, back to `shape`."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _project(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Cast an accumulated gradient onto the dtype of the tensor it belongs to.

    Dropping the imaginary part for a real tensor is exact under the
    paired-reals convention: a real value has no imaginary degree of freedom.
    """
    if np.iscomplexobj(like):
        return g.astype(np.complex128, copy=False)
    if np.iscomplexobj(g):
        return np.ascontiguousarray(g.real)
    return g


# ---- backward pass -------------------------------------------------------

def _spent(g):
    raise ContractError("this graph was already swept by tape_backward; "
                        "rebuild it with a new forward pass")


def tape_backward(loss: Tensor) -> None:
    """Reverse sweep from a real scalar loss, accumulating into each leaf's `.grad`.

    Every node of the recorded graph is visited exactly once, and each
    non-leaf node drops its VJP closure as it is visited, which frees the
    buffers kept only for the backward pass (node outputs live as long as
    the loss); sweeping a graph again raises ContractError.
    """
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if loss.is_complex:
        raise ContractError("loss must be real")
    if not loss.requires_grad:
        return

    tape: list[Tensor] = []
    seen = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            tape.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape):
        g = grads.pop(id(node), None)
        vjp = node._vjp
        if vjp is not None:
            node._vjp = _spent
        if g is None:
            continue
        if vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            pg = _project(_unbroadcast(np.asarray(pg), p.shape), p.data)
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


# ---- activation kernels ------------------------------------------------------

def _relu(x: np.ndarray) -> tuple:
    """relu's forward kernel, in place: (x, mask) with mask = [x > 0] as
    bools and x overwritten by x mask."""
    mask = x > 0
    return np.multiply(x, mask, out=x), mask


def _relu_grad(g: np.ndarray, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """relu's VJP kernel: g mask."""
    return g * mask


def _silu(x: np.ndarray) -> tuple:
    """silu's forward kernel, in place: (x, s) with s = 1 / (1 + exp(-x)) and
    x overwritten by out = x s, as in-place ufuncs in that order; one
    input-sized buffer. exp(-x) overflows to inf below about x = -709, which
    makes s exactly 0, so the overflow is not reported."""
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return np.multiply(x, s, out=x), s


def _silu_grad(g: np.ndarray, out: np.ndarray, s: np.ndarray) -> np.ndarray:
    """silu's VJP kernel from the forward's output and s: g (s + out (1 - s)),
    as in-place ufuncs in that order; one input-sized buffer."""
    d = np.subtract(1.0, s)
    d *= out
    d += s
    return np.multiply(g, d, out=d)


_GELU_C = np.sqrt(2.0 / np.pi)
_SMALLEST_DOUBLE = np.nextafter(0.0, 1.0)


def _gelu(x: np.ndarray) -> tuple:
    """gelu's forward kernel in sigmoid form, in place: (x, s) with
    s = 1 / (1 + exp(-2c (x + 0.044715 x^3))) and x overwritten by out = x s,
    as in-place ufuncs in that order; one input-sized buffer. exp overflows
    to inf below about x = -22, which makes s exactly 0, so the overflow is
    not reported."""
    s = np.multiply(x, x)
    s *= x
    s *= 0.044715
    np.add(x, s, out=s)
    s *= -2.0 * _GELU_C
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return np.multiply(x, s, out=x), s


def _gelu_grad(g: np.ndarray, out: np.ndarray, s: np.ndarray) -> np.ndarray:
    """gelu's VJP kernel from the forward's output and s:
    g (s + out (1 - s) 2c (1 + 3 * 0.044715 x^2)) with x = out / s, as
    in-place ufuncs in that order; two input-sized buffers. Where s
    underflowed to 0 so did out, and dividing by the smallest positive
    double instead makes x 0 there: the derivative is then s = 0, and no
    division by zero is reported."""
    d = np.maximum(s, _SMALLEST_DOUBLE)
    np.divide(out, d, out=d)
    d *= d
    d *= 3 * 0.044715
    d += 1.0
    d *= 2.0 * _GELU_C
    d *= out
    d *= np.subtract(1.0, s)
    d += s
    return np.multiply(g, d, out=d)


# the kernel pairs of each activation, for the nodes that apply one inside
# their own forward and VJP (`frame.spectral`, `frame.linear`, and silu in
# `frame.DensityNetwork.energies`). The forward overwrites its argument, a
# pre-activation buffer its node owns, with the output and returns
# (output, saved); the VJP takes (g, output, saved), so a node keeps its
# output and one saved array, not its pre-activation as well.
ACTIVATION_KERNELS = {"relu": (_relu, _relu_grad), "silu": (_silu, _silu_grad),
                      "gelu": (_gelu, _gelu_grad), "none": None, None: None}


# ---- contractions -----------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _matmul_plan(spec: str, shape_a: tuple, shape_b: tuple) -> tuple:
    """Lower a two-operand einsum onto one `np.matmul`.

    Indices fall into four groups: batch (both operands and the output),
    left (first operand and output), right (second operand and output) and
    summed (both operands only). Each operand is transposed to
    (batch, left, summed) / (batch, summed, right) and reshaped to 3-D; the
    product is reshaped back and transposed to the output order. Returns
    (perm_a, shape3_a, perm_b, shape3_b, product_shape, perm_out).

    Batch indices keep their order in the first operand and the other groups
    their order in the output, so a forward product and the VJP product of
    its second operand, whose first operand is the same, lay out that second
    operand alike: weights stored in the order the forward reads them
    reshape without a copy, and their gradient comes out in that same order.
    """
    lhs, s_out = spec.split("->")
    s_a, s_b = lhs.split(",")
    for what, sub in (("first operand", s_a), ("second operand", s_b), ("output", s_out)):
        if len(set(sub)) != len(sub):
            raise ContractError(f"contraction {spec!r}: repeated index in the {what}")
    if len(s_a) != len(shape_a) or len(s_b) != len(shape_b):
        raise ContractError(f"contraction {spec!r}: operand ranks {len(shape_a)}, "
                            f"{len(shape_b)} do not match the spec")
    sizes: dict = {}
    for sub, shape in ((s_a, shape_a), (s_b, shape_b)):
        for c, n in zip(sub, shape):
            if sizes.setdefault(c, n) != n:
                raise ContractError(f"contraction {spec!r}: index {c!r} has extents "
                                    f"{sizes[c]} and {n}")
    for c in s_out:
        if c not in sizes:
            raise ContractError(f"contraction {spec!r}: output index {c!r} is in no operand")
    for c in sizes:
        if c not in s_out and not (c in s_a and c in s_b):
            raise ContractError(f"contraction {spec!r}: index {c!r} is in one operand only "
                                "and not in the output")
    batch = [c for c in s_a if c in s_b and c in s_out]
    left = [c for c in s_out if c in s_a and c not in s_b]
    right = [c for c in s_out if c in s_b and c not in s_a]
    summed = [c for c in s_a if c in s_b and c not in s_out]

    def size(group):
        return math.prod(sizes[c] for c in group)

    product = batch + left + right
    return (tuple(s_a.index(c) for c in batch + left + summed),
            (size(batch), size(left), size(summed)),
            tuple(s_b.index(c) for c in batch + summed + right),
            (size(batch), size(summed), size(right)),
            tuple(sizes[c] for c in product),
            tuple(product.index(c) for c in s_out))


def _contract(spec: str, a: np.ndarray, b: np.ndarray, conj_a: bool = False) -> np.ndarray:
    """`einsum(spec, a, b)` as one matmul, with a conjugated after its
    transpose/reshape when `conj_a` is set."""
    perm_a, shape_a, perm_b, shape_b, shape_p, perm_out = _matmul_plan(spec, a.shape, b.shape)
    ma = a.transpose(perm_a).reshape(shape_a)
    mb = b.transpose(perm_b).reshape(shape_b)
    if conj_a:
        ma = _conj_operand(ma, a)
    p = np.matmul(ma, mb)
    return p.reshape(shape_p).transpose(perm_out)


def _contract_grad_a(spec: str, g: np.ndarray, shape_a: tuple, b: np.ndarray) -> np.ndarray:
    """Gradient of the first operand of `_contract(spec, a, b)` for the output
    gradient g, `einsum(out, b -> a)` with b conjugated, computed as
    conj(conj(g) @ mbᵀ) on the forward's own matrix view mb of b: a b stored
    in that layout is read through a transposed view, never copied."""
    perm_a, shape3_a, perm_b, shape3_b, _, perm_out = _matmul_plan(spec, shape_a, b.shape)
    mg = g.transpose(tuple(np.argsort(perm_out))).reshape(shape3_a[:2] + shape3_b[2:])
    mg = _conj_operand(mg, g)
    p = np.matmul(mg, b.transpose(perm_b).reshape(shape3_b).swapaxes(1, 2))
    np.conj(p, out=p)
    return p.reshape(tuple(shape_a[i] for i in perm_a)).transpose(tuple(np.argsort(perm_a)))


def _conj_operand(op: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Conjugate of the matmul operand `op` made from `source`: in place when
    the transpose/reshape copied, a new array when `op` is a view of `source`."""
    if not np.iscomplexobj(op):
        return op
    return np.conj(op) if np.may_share_memory(op, source) else np.conj(op, out=op)
