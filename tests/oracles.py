"""Independent brute-force oracles used by the test suite.

Everything in here is deliberately naive (O(N^2) sums, explicit loops,
central differences) and shares no code with the library paths it checks.
The exceptions are the taped chains (the `taped_*` functions): the fused
nodes are checked against chains of small tape nodes, one per step, built
on the library's tape and activation kernels (the contraction is
`np.einsum`), and the test losses (`inner`, `sq_norm`) are one node each. The Burgers reference
(`burgers_step_doubling_reference`) is not naive either: it is the
solver's step-doubling loop with each RK4 step run on its own, which the
library's stacked attempt must reproduce bit for bit.
"""

import numpy as np

from able import tensor as T


def dft_direct(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Direct O(N^2) unitary DFT of a 1-D complex vector."""
    n = len(x)
    k = np.arange(n)
    sign = 1j if inverse else -1j
    mat = np.exp(sign * 2.0 * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return mat @ x


def dft_direct_2d(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Direct unitary DFT of a 2-D array, row/column sums."""
    out = np.array([dft_direct(row, inverse) for row in x])
    return np.array([dft_direct(col, inverse) for col in out.T]).T


def central_difference(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Gradient of scalar f at x0 by central differences, one entry at a time."""
    g = np.zeros_like(x0, dtype=np.float64)
    flat = x0.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x0)
        flat[i] = orig - h
        fm = f(x0)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def central_difference_paired(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a real scalar f at a real or complex x0.

    For complex x0 the result follows the paired-reals convention,
    dL/dRe + i dL/dIm.
    """
    if not np.iscomplexobj(x0):
        return central_difference(f, x0.copy(), h=h)
    return (central_difference(lambda a: f(a + 1j * x0.imag), x0.real.copy(), h=h)
            + 1j * central_difference(lambda a: f(x0.real + 1j * a), x0.imag.copy(), h=h))


def assert_grad_matches(build_loss, x0: np.ndarray, rtol: float = 1e-5) -> np.ndarray:
    """The tape's gradient of the loss `build_loss` at a leaf x0 against
    central differences, relative to the largest entry; returns the tape's."""
    leaf = T.parameter(x0.copy())
    T.tape_backward(build_loss(leaf))
    want = central_difference_paired(lambda a: build_loss(T.Tensor(a.copy())).item(), x0)
    assert leaf.grad.dtype == x0.dtype
    assert np.max(np.abs(leaf.grad - want)) / max(np.max(np.abs(want)), 1e-8) < rtol
    return leaf.grad


def stencil_periodic(f: np.ndarray, kernel) -> np.ndarray:
    """True convolution of a 1-D sequence with a 3-tap kernel, periodic wrap.

    out[i] = k[0]*f[i+1] + k[1]*f[i] + k[2]*f[i-1]
    """
    n = len(f)
    out = np.zeros(n)
    for i in range(n):
        out[i] = kernel[0] * f[(i + 1) % n] + kernel[1] * f[i] + kernel[2] * f[(i - 1) % n]
    return out


def parseval_direct(coeffs: np.ndarray) -> float:
    """Plain sum of squared moduli, accumulated in python floats."""
    import math

    return math.fsum(float(v) for v in np.abs(coeffs.ravel()) ** 2)


def grid_norm_sq(f: np.ndarray) -> float:
    return parseval_direct(f)


def step_dft_closed_form(n: int) -> np.ndarray:
    """Exact unitary DFT of the discrete half-interval indicator.

    u[j] = 1 for j >= n/2 on an n-point grid; geometric-sum closed form,
    evaluated without any FFT. Entry k=0 is the mean times sqrt(n).
    """
    out = np.zeros(n, dtype=np.complex128)
    out[0] = (n / 2) / np.sqrt(n)
    for k in range(1, n):
        r = np.exp(-2j * np.pi * k / n)
        num = np.exp(-1j * np.pi * k) * (1.0 - np.exp(-1j * np.pi * k))
        out[k] = num / (1.0 - r) / np.sqrt(n)
    return out


def sawtooth_partition_error(m: int, n: int) -> float:
    """L2 error of the piecewise-mean approximation of u(x)=x on m uniform cells.

    Brute-force integration over an n-point grid (midpoint sampling).
    """
    x = (np.arange(n) + 0.5) / n
    u = x.copy()
    cells = np.minimum((x * m).astype(int), m - 1)
    approx = np.zeros(n)
    for c in range(m):
        mask = cells == c
        approx[mask] = u[mask].mean()
    return float(np.sqrt(np.mean((u - approx) ** 2)))


def density_energies_direct(f: np.ndarray, weights, biases, slices: int, heads: int,
                            stencil: bool, residual: bool) -> np.ndarray:
    """Density-head energies by a loop over batch entries and grid points.

    f is (batch, C, spatial...); the result is (batch, heads, M, spatial...).
    At each point the head reads the C channel values and, for the stencil
    head (1-D, periodic), also the first difference 0.5 f[x+1] - 0.5 f[x-1],
    the second difference -0.5 f[x+1] + f[x] - 0.5 f[x-1] and a constant 1.
    It runs them through silu hidden layers (the stencil head optionally
    adds its first hidden layer into the third pre-activation) and a linear
    output whose entry o = h*M + m is slice m of head h.
    """
    def silu(v):
        return v / (1.0 + np.exp(-v))

    w, b = weights, biases
    batch, spatial = f.shape[0], f.shape[2:]
    out = np.zeros((batch, heads, slices) + spatial)
    for i in range(batch):
        for pt in np.ndindex(*spatial):
            v = f[(i, slice(None)) + pt]
            if stencil:
                n, x = spatial[0], pt[0]
                right, left = f[i, :, (x + 1) % n], f[i, :, (x - 1) % n]
                v = np.concatenate([v, 0.5 * right - 0.5 * left,
                                    -0.5 * right + v - 0.5 * left, [1.0]])
                h1 = silu(v @ w[0] + b[0])
                h2 = silu(h1 @ w[1] + b[1])
                pre3 = h2 @ w[2] + b[2]
                if residual:
                    pre3 = pre3 + h1
                e = silu(pre3) @ w[3] + b[3]
            else:
                e = silu(v @ w[0] + b[0]) @ w[1] + b[1]
            for h in range(heads):
                for m in range(slices):
                    out[(i, h, m) + pt] = e[h * slices + m]
    return out


def adam_reference(data: dict, grads: dict, state: dict, lr: float, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0,
                   decay_names: frozenset = frozenset()) -> None:
    """One Adam step by the whole-array textbook formula, one temporary per
    operator, updating the arrays of `data` in place.

    `grads` maps each name to its gradient or None (a zero gradient).
    `state` carries the step count and the flat paired-real moments
    `("m", name)` / `("v", name)` between calls; start it as `{}`.
    """
    state["step"] = state.get("step", 0) + 1
    c1 = 1.0 - beta1**state["step"]
    c2 = 1.0 - beta2**state["step"]
    for name, p in data.items():
        flat = p.reshape(-1).view(np.float64)
        m = state.setdefault(("m", name), np.zeros_like(flat))
        v = state.setdefault(("v", name), np.zeros_like(flat))
        if grads.get(name) is None:
            g = np.zeros_like(flat)
        else:
            g = np.ascontiguousarray(grads[name]).reshape(-1).view(np.float64).copy()
        if weight_decay and name in decay_names:
            g += weight_decay * flat
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (lr / c1) * m / (np.sqrt(v / c2) + eps)
        flat[...] -= update


GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid(2u), u = c (x + 0.044715 x^3), as one whole-array expression."""
    return 1.0 / (1.0 + np.exp(-2.0 * GELU_C * (x + 0.044715 * (x * x * x))))


def gelu_reference(x: np.ndarray) -> tuple:
    """Sigmoid-form gelu x sigmoid(2u), u = c (x + 0.044715 x^3), as
    whole-array expressions: (output, VJP function). The VJP reads the
    output, not x: s + out (1 - s) 2c (1 + 3 * 0.044715 x^2) with x taken
    back as out / s, and as 0 where s is 0."""
    s = _gelu_sigmoid(x)
    out = x * s

    def vjp(g):
        x_back = np.divide(out, s, out=np.zeros_like(out), where=s > 0)
        slope = (2.0 * GELU_C) * (1.0 + (3 * 0.044715) * (x_back * x_back))
        return g * (s + slope * out * (1.0 - s))

    return out, vjp


def gelu_input_form_vjp(x: np.ndarray):
    """The sigmoid-form gelu's VJP from its input: g s (1 + 2c (1 + 3 *
    0.044715 x^2) x (1 - s)), as whole-array expressions."""
    s = _gelu_sigmoid(x)

    def vjp(g):
        slope = (2.0 * GELU_C) * (1.0 + (3 * 0.044715) * (x * x))
        return g * (s * (1.0 + slope * x * (1.0 - s)))

    return vjp


def gelu_tanh_reference(x: np.ndarray) -> tuple:
    """Tanh-form gelu 0.5 x (1 + tanh u) as whole-array expressions: (output, VJP function)."""
    inner = GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        d_inner = GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return g * d

    return out, vjp


def silu_reference(x: np.ndarray) -> tuple:
    """silu x sigmoid(x) as whole-array expressions: (output, VJP function).
    The VJP reads the output, not x: g (s + out (1 - s))."""
    s = 1.0 / (1.0 + np.exp(-x))
    out = x * s

    def vjp(g):
        return g * (s + out * (1.0 - s))

    return out, vjp


def silu_input_form_vjp(x: np.ndarray):
    """silu's VJP from its input: g s (1 + x (1 - s)), as whole-array expressions."""
    s = 1.0 / (1.0 + np.exp(-x))

    def vjp(g):
        return g * (s * (1.0 + x * (1.0 - s)))

    return vjp


def burgers_step_doubling_reference(u0: np.ndarray, nu: float, t_final: float,
                                    rtol: float = 1e-8) -> tuple:
    """`pde.solve_burgers` with the full step and both half steps of each
    attempt run as three separate RK4 steps, eleven evaluations of the
    nonlinear term per attempt. Same dealiasing, integrating factor, error
    estimate and step controller; no input checks and no refusals.
    Returns (u(t_final), diagnostics) for 2-D u0 (samples, n)."""
    n = u0.shape[1]
    k = np.arange(n // 2 + 1, dtype=np.float64)
    flux_coef = -0.5j * 2.0 * np.pi * k * (k <= n / 3)
    lam = -nu * (2 * np.pi * k) ** 2
    weight = np.full(n // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0

    def sq_norm(v_hat):
        return np.sum(weight * (v_hat.real**2 + v_hat.imag**2), axis=1)

    def nonlinear(v_hat):
        v = np.fft.irfft(v_hat, n=n, axis=1)
        return flux_coef * np.fft.rfft(v * v, axis=1)

    def rk4(v_hat, h, na):
        e_half = np.exp(lam * h / 2.0)
        e_full = np.exp(lam * h)
        nb = nonlinear(e_half * (v_hat + 0.5 * h * na))
        nc = nonlinear(e_half * v_hat + 0.5 * h * nb)
        nd = nonlinear(e_full * v_hat + h * e_half * nc)
        return e_full * v_hat + h / 6.0 * (e_full * na + 2 * e_half * (nb + nc) + nd)

    v_hat = np.fft.rfft(u0, axis=1)
    mean0 = v_hat[:, 0].real.copy() / n
    dt = min(t_final, 1.0 / (n * max(float(np.max(np.abs(u0))), 1e-12)))
    t, rejected, err_max, taken = 0.0, 0, 0.0, []
    energies = [sq_norm(v_hat) / n**2]
    while t < t_final:
        last = t + dt >= t_final
        h = t_final - t if last else dt
        na = nonlinear(v_hat)
        full = rk4(v_hat, h, na)
        mid = rk4(v_hat, h / 2.0, na)
        half = rk4(mid, h / 2.0, nonlinear(mid))
        half_sq = sq_norm(half)
        ratio = sq_norm(half - full) / np.maximum(half_sq, np.finfo(float).tiny)
        err = float(np.sqrt(np.max(ratio))) / 15.0
        if err <= rtol:
            v_hat = half
            t = t_final if last else t + h
            taken.append(h)
            err_max = max(err_max, err)
            energies.append(half_sq / n**2)
        else:
            rejected += 1
        dt = h * (4.0 if err == 0 else min(4.0, max(0.2, 0.9 * (rtol / err) ** 0.2)))
    diagnostics = {
        "energies": np.stack(energies, axis=1),
        "mean_drift": np.abs(v_hat[:, 0].real / n - mean0),
        "rtol": rtol,
        "steps": len(taken),
        "rejected": rejected,
        "dt_min": min(taken, default=0.0),
        "dt_max": max(taken, default=0.0),
        "error_estimate_max": err_max,
    }
    return np.fft.irfft(v_hat, n=n, axis=1), diagnostics


# ---- the fused nodes' reference chains, one small tape node per step ----------

def taped_add(a, b):
    """a + b; the tape sums a broadcast gradient back to each shape."""
    return T._make(a.data + b.data, (a, b), lambda g: (g, g))


def taped_scale(a, c: float):
    """c a for a constant c."""
    return T._make(c * a.data, (a,), lambda g: (c * g,))


def taped_reshape(a, shape):
    return T._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def taped_concatenate(parts, axis: int):
    cuts = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return T._make(np.concatenate([p.data for p in parts], axis=axis), parts,
                   lambda g: tuple(np.split(g, cuts, axis=axis)))


def taped_activation(name: str, a):
    """The activation `name` of `tensor.ACTIVATION_KERNELS` as its own node,
    on a copy of a's data, which the kernel overwrites."""
    kernel, grad = T.ACTIVATION_KERNELS[name]
    out, saved = kernel(a.data.copy())
    return T._make(out, (a,), lambda g: (grad(g, out, saved),))


def taped_contraction(spec: str, a, b):
    """A two-operand einsum as one tape node: the forward and both VJP
    products are `np.einsum`, the VJP conjugating the other operand."""
    lhs, s_out = spec.split("->")
    s_a, s_b = lhs.split(",")

    def vjp(g):
        return (np.einsum(f"{s_out},{s_b}->{s_a}", g, np.conj(b.data)),
                np.einsum(f"{s_a},{s_out}->{s_b}", np.conj(a.data), g))

    return T._make(np.einsum(spec, a.data, b.data), (a, b), vjp)


def taped_linear(x, w, b):
    """Per-point linear map on channels-first data, (batch, I, spatial...)
    by weights (I, O) plus bias (O,), as the chain of a taped contraction,
    a reshape of the bias and an add."""
    spatial = "xy"[:x.ndim - 2]
    out = taped_contraction(f"bi{spatial},io->bo{spatial}", x, w)
    return taped_add(out, taped_reshape(b, (1, -1) + (1,) * (x.ndim - 2)))


# ---- test losses, one node each ------------------------------------------------

def inner(x, g):
    """Re sum(x conj(g)) for a fixed array g: the loss whose gradient in x is
    g, for a real or a complex x."""
    return T._make(np.sum(x.data * np.conj(g)).real, (x,), lambda d: (d * g,))


def sq_norm(x, centre=0.0):
    """sum |x - centre|^2 for a fixed centre; its gradient in x is 2 (x - centre)."""
    r = x.data - centre
    return T._make(np.sum((r * np.conj(r)).real), (x,), lambda d: (2.0 * d * r,))
