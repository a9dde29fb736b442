"""Reverse-mode automatic differentiation over dense numpy arrays.

Define-by-run: every operation links its output to its parents with a
closure computing the vector-Jacobian product, and `tape_backward` replays
the recorded graph once in reverse topological order. The tape therefore
exists only between a forward pass and its backward pass and is rebuilt
from scratch every step.

Complex tensors follow the paired-reals convention: for a real loss L and
a complex value x = a + ib, the stored gradient is dL/da + i*dL/db. Under
this convention a holomorphic op with derivative f' propagates
grad_in = conj(f') * grad_out, and the adjoint of the unitary FFT is the
unitary inverse FFT.

Tensors are immutable once built; optimizers mutate parameter buffers
in place between steps, which is outside the taped region.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import fft as _fft
from .errors import ContractError, DomainError

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

    # ---- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        return tape_backward(self)


def tensor(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def zeros(shape, complex_dtype=False) -> Tensor:
    dt = np.complex128 if complex_dtype else np.float64
    return Tensor(np.zeros(shape, dtype=dt))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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

def tape_backward(loss: Tensor) -> dict:
    """Reverse sweep from a real scalar loss; returns {leaf_tensor: grad}.

    Also stores the gradient on each leaf's `.grad`. Every node of the
    recorded graph is visited exactly once.
    """
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if loss.is_complex:
        raise ContractError("loss must be real")
    if not loss.requires_grad:
        return {}

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
    leaf_grads: dict[Tensor, np.ndarray] = {}
    for node in reversed(tape):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            leaf_grads[node] = node.grad
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            pg = _project(_unbroadcast(np.asarray(pg), p.shape), p.data)
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return leaf_grads


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---- elementwise arithmetic ----------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (g * np.conj(bd), g * np.conj(ad)))


def complex_mul(a, b) -> Tensor:
    """Elementwise complex product; both operands must already be complex."""
    a, b = _wrap(a), _wrap(b)
    if not (a.is_complex and b.is_complex):
        raise ContractError("complex_mul expects complex operands; use to_complex first")
    return mul(a, b)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    out = ad / bd

    def vjp(g):
        return g * np.conj(1.0 / bd), g * np.conj(-ad / (bd * bd))

    return _make(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = _wrap(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def sqrt(a, grad_eps: float = 0.0) -> Tensor:
    """Elementwise square root of a nonnegative real tensor.

    `grad_eps` regularizes only the backward pass: the derivative is
    evaluated as 0.5/sqrt(x + grad_eps) so a zero input keeps a finite
    gradient while the forward value stays exact.
    """
    a = _wrap(a)
    if a.is_complex:
        raise DomainError("sqrt is defined for real tensors only")
    if np.any(a.data < 0):
        raise DomainError("sqrt of negative input")
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * (0.5 / np.sqrt(a.data + grad_eps)),)

    return _make(out, (a,), vjp)


def texp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * np.conj(out),))


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = (a.data > 0).astype(np.float64)
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def silu(a) -> Tensor:
    a = _wrap(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * s

    def vjp(g):
        return (g * (s * (1.0 + a.data * (1.0 - s))),)

    return _make(out, (a,), vjp)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a) -> Tensor:
    """Tanh-form gelu; self-consistent forward/backward pair."""
    a = _wrap(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return (g * d,)

    return _make(out, (a,), vjp)


ACTIVATIONS = {"relu": relu, "silu": silu, "gelu": gelu, "none": None, None: None}


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    if a.is_complex:
        raise ContractError("softmax expects a real tensor")
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return _make(out, (a,), vjp)


# ---- shape manipulation ----------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def moveaxis(a, src, dst) -> Tensor:
    a = _wrap(a)
    return _make(np.ascontiguousarray(np.moveaxis(a.data, src, dst)), (a,),
                 lambda g: (np.moveaxis(g, dst, src),))


def concatenate(parts, axis: int) -> Tensor:
    parts = [_wrap(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        outs = []
        for i in range(len(parts)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(sl)])
        return tuple(outs)

    return _make(out, parts, vjp)


def roll(a, shift: int, axis: int) -> Tensor:
    a = _wrap(a)
    return _make(np.roll(a.data, shift, axis=axis), (a,),
                 lambda g: (np.roll(g, -shift, axis=axis),))


# ---- contractions -----------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    out = ad @ bd

    def vjp(g):
        ga = g @ np.conj(np.swapaxes(bd, -1, -2))
        gb = np.conj(np.swapaxes(ad, -1, -2)) @ g
        return ga, gb

    return _make(out, (a, b), vjp)


def einsum2(spec: str, a, b) -> Tensor:
    """Two-operand einsum whose adjoint is again an einsum.

    Requires every index of each operand to appear in the output or the
    other operand, which holds for all contractions used here.
    """
    a, b = _wrap(a), _wrap(b)
    lhs, s_out = spec.split("->")
    s_a, s_b = lhs.split(",")
    out = np.einsum(spec, a.data, b.data)

    def vjp(g):
        ga = np.einsum(f"{s_out},{s_b}->{s_a}", g, np.conj(b.data))
        gb = np.einsum(f"{s_a},{s_out}->{s_b}", np.conj(a.data), g)
        return ga, gb

    return _make(out, (a, b), vjp)


# ---- reductions --------------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---- complex structure --------------------------------------------------------

def real(a) -> Tensor:
    a = _wrap(a)
    return _make(np.ascontiguousarray(a.data.real), (a,),
                 lambda g: (g.astype(np.complex128),))


def imag(a) -> Tensor:
    a = _wrap(a)
    return _make(np.ascontiguousarray(a.data.imag), (a,), lambda g: (1j * g,))


def conj(a) -> Tensor:
    a = _wrap(a)
    return _make(np.conj(a.data), (a,), lambda g: (np.conj(g),))


def to_complex(a) -> Tensor:
    a = _wrap(a)
    if a.is_complex:
        return a
    return _make(a.data.astype(np.complex128), (a,), lambda g: (g.real,))


def abs2(a) -> Tensor:
    """Squared modulus; real output for real or complex input."""
    a = _wrap(a)
    out = np.ascontiguousarray((a.data * np.conj(a.data)).real)
    return _make(out, (a,), lambda g: (2.0 * g * a.data,))


# ---- spectral ops ----------------------------------------------------------------

def fft(a, axes) -> Tensor:
    a = _wrap(a)
    if not a.is_complex:
        raise ContractError("fft_unitary expects a complex tensor; apply to_complex first")
    axes = tuple(axes)
    return _make(_fft.fft_unitary(a.data, axes), (a,),
                 lambda g: (_fft.ifft_unitary(g, axes),))


def ifft(a, axes) -> Tensor:
    a = _wrap(a)
    if not a.is_complex:
        raise ContractError("ifft_unitary expects a complex tensor; apply to_complex first")
    axes = tuple(axes)
    return _make(_fft.ifft_unitary(a.data, axes), (a,),
                 lambda g: (_fft.fft_unitary(g, axes),))


def _mesh_index(ndim: int, axes: Sequence[int], index_lists: Sequence[np.ndarray]):
    """Open-mesh fancy index touching `axes` (must be consecutive) only."""
    axes = list(axes)
    if axes != list(range(axes[0], axes[0] + len(axes))):
        raise ContractError("mode axes must be consecutive")
    ix: list = [slice(None)] * ndim
    k = len(axes)
    for j, (ax, idx) in enumerate(zip(axes, index_lists)):
        shape = [1] * k
        shape[j] = -1
        ix[ax] = np.asarray(idx, dtype=np.intp).reshape(shape)
    return tuple(ix)


def take_modes(a, axes, index_lists) -> Tensor:
    """Gather the retained frequency indices along the spatial axes."""
    a = _wrap(a)
    ix = _mesh_index(a.ndim, axes, index_lists)
    full_shape = a.shape

    def vjp(g):
        out = np.zeros(full_shape, dtype=g.dtype)
        out[ix] = g
        return (out,)

    return _make(a.data[ix], (a,), vjp)


def put_modes(a, axes, index_lists, full_extents) -> Tensor:
    """Scatter cropped coefficients back into a zero-padded full spectrum."""
    a = _wrap(a)
    out_shape = list(a.shape)
    for ax, n in zip(axes, full_extents):
        out_shape[ax] = n
    ix = _mesh_index(len(out_shape), axes, index_lists)
    data = np.zeros(tuple(out_shape), dtype=a.data.dtype)
    data[ix] = a.data
    return _make(data, (a,), lambda g: (g[ix],))
