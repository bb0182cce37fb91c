"""From-scratch neural net layers: 1-D conv, LSTM cell/layer, dropout,
dense, and Adam. Everything is float64 numpy with explicit backward passes
so gradients can be verified against central finite differences.

Array layout is batch-first row vectors: activations are [B, features] or
[B, T, features], weights are [in_features, out_features], so a step is
`x @ W + b + h @ U`. LSTM weights are per-gate arrays (`LstmCellParams`; a
forecaster model's are views of its one parameter vector `theta`), fused
per call into W [in, 4H], U [H, 4H], b [4H] in gate order i, f, g, o: one
input matmul covers all T steps, each step is one [H, 4H] matmul, and
backward forms dW, dU, db with one matmul each after the loop.

Inside the LSTM layer the gates, c and h are time-major [T, B, .], so
each step reads and writes contiguous slices; the layer's interface
stays [B, T, .] (its output is a transposed view). A step
finishes all four gates with one tanh, using sigmoid(x) =
0.5 * (tanh(x/2) + 1): the sigmoid gates' columns of W, U and b are
pre-halved, and after the tanh the step adds an offset and multiplies by
a scale (1 and 0.5 for sigmoid gates, -0.0 and 1 for g, and x + -0.0 is x
even for x = -0.0). Scaling by a power of two commutes with IEEE
rounding, inside BLAS fused multiply-adds too, so short of subnormal
intermediates this is bit-identical to applying three sigmoids and a
tanh. Backward transposes the pre-activation gradients back to
[B, T, 4H] once, before the dW, dU and d_xs matmuls, so those sum over
the B*T rows in the batch-major order and every gradient keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError


# ---------------------------------------------------------------------------
# 1-D convolution (valid cross-correlation along time)
# ---------------------------------------------------------------------------

def conv1d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid (no padding) cross-correlation along the time axis.

    x: [n, c_in] or [B, n, c_in]; kernel: [width, c_in, c_out]; bias: [c_out].
    Output length is n - width + 1.
    """
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D input/kernel, got {x.shape} / {kernel.shape}")
    width, c_in, c_out = kernel.shape
    if x.shape[2] != c_in:
        raise ShapeError(f"conv1d: input has {x.shape[2]} channels, kernel expects {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv1d: bias shape {bias.shape} != ({c_out},)")
    n = x.shape[1]
    if n < width:
        raise ShapeError(f"conv1d: window length {n} < kernel width {width}")
    m = n - width + 1
    out = np.broadcast_to(bias, (x.shape[0], m, c_out)).copy()
    for dt in range(width):
        out += x[:, dt:dt + m, :] @ kernel[dt]
    return out[0] if single else out


def conv1d_backward(d_out: np.ndarray, x: np.ndarray, kernel: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_x, d_kernel, d_bias) for conv1d_forward on a batch."""
    width = kernel.shape[0]
    m = d_out.shape[1]
    d_x = np.zeros_like(x)
    d_kernel = np.zeros_like(kernel)
    for dt in range(width):
        d_kernel[dt] = np.einsum("btc,bto->co", x[:, dt:dt + m, :], d_out)
        d_x[:, dt:dt + m, :] += d_out @ kernel[dt].T
    d_bias = d_out.sum(axis=(0, 1))
    return d_x, d_kernel, d_bias


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

@dataclass
class LstmCellParams:
    """Weights for one LSTM layer: per gate, input weights w_* [in, hidden],
    recurrent weights u_* [hidden, hidden], bias b_* [hidden]."""
    w_i: np.ndarray
    u_i: np.ndarray
    b_i: np.ndarray
    w_f: np.ndarray
    u_f: np.ndarray
    b_f: np.ndarray
    w_g: np.ndarray
    u_g: np.ndarray
    b_g: np.ndarray
    w_o: np.ndarray
    u_o: np.ndarray
    b_o: np.ndarray

    @property
    def input_size(self) -> int:
        return self.w_i.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_i.shape[1]

    def array_names(self) -> list[str]:
        return [f.name for f in fields(self)]


def _fuse(p: LstmCellParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-gate fields as one block in gate order i, f, g, o:
    W [in, 4H], U [H, 4H], b [4H]."""
    return tuple(np.concatenate([getattr(p, f"{kind}_{gate}") for gate in "ifgo"], axis=-1)
                 for kind in "wub")


def _fuse_for_forward(p: LstmCellParams) -> tuple[np.ndarray, ...]:
    """W, U, b with the sigmoid gates' columns halved, plus the offset and
    scale that `_finish_step` applies after its one tanh."""
    H = p.hidden_size
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
    offset = np.repeat([1.0, 1.0, -0.0, 1.0], H)
    W, U, b = (a * scale for a in _fuse(p))
    return W, U, b, offset, scale


def _finish_step(z: np.ndarray, c_prev: np.ndarray, offset: np.ndarray, scale: np.ndarray,
                 c_t: np.ndarray, h_t: np.ndarray) -> None:
    """Finish one step from the pre-activations z [..., 4H] of
    `_fuse_for_forward`'s weights; z is overwritten with the gate values,
    and c_t and h_t are written into the given arrays."""
    H = c_prev.shape[-1]
    np.tanh(z, out=z)
    z += offset
    z *= scale
    i, f, g, o = z[..., :H], z[..., H:2 * H], z[..., 2 * H:3 * H], z[..., 3 * H:]
    np.multiply(f, c_prev, out=c_t)
    c_t += np.multiply(i, g, out=h_t)       # h_t holds i * g, then tanh(c_t), then h
    np.multiply(o, np.tanh(c_t, out=h_t), out=h_t)


def lstm_cell_forward(x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                      params: LstmCellParams) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step: sigmoid input/forget/output gates, tanh candidate.

        i = sig(x W_i + h U_i + b_i)     f = sig(x W_f + h U_f + b_f)
        g = tanh(x W_g + h U_g + b_g)    o = sig(x W_o + h U_o + b_o)
        c_t = f * c_prev + i * g         h_t = o * tanh(c_t)

    Accepts a single step [in] or a batch [B, in].
    """
    if x_t.shape[-1] != params.input_size:
        raise ShapeError(f"lstm cell: input width {x_t.shape[-1]} != {params.input_size}")
    if h_prev.shape[-1] != params.hidden_size or c_prev.shape[-1] != params.hidden_size:
        raise ShapeError("lstm cell: state width does not match hidden size")
    W, U, b, offset, scale = _fuse_for_forward(params)
    z = x_t @ W + b + h_prev @ U
    c_t, h_t = np.empty((2, *z.shape[:-1], params.hidden_size))
    _finish_step(z, c_prev, offset, scale, c_t, h_t)
    return h_t, c_t


def lstm_layer_forward(xs: np.ndarray, params: LstmCellParams
                       ) -> tuple[np.ndarray, dict]:
    """Run the cell over a [B, T, in] sequence from zero initial state.

    Returns the hidden sequence [B, T, hidden], a view of the time-major
    array the loop writes, and a cache for backward.
    """
    if xs.ndim != 3:
        raise ShapeError(f"lstm layer: expected [B, T, in], got {xs.shape}")
    if xs.shape[2] != params.input_size:
        raise ShapeError(f"lstm layer: input width {xs.shape[2]} != {params.input_size}")
    B, T, _ = xs.shape
    H = params.hidden_size
    W, U, b, offset, scale = _fuse_for_forward(params)
    # the input projection of every step, written through a batch-major view
    # into time-major memory, which holds the gate values once the loop has
    # run. Each batch row stays one [T, in] @ W product, as in a batch-major
    # layer: a [T, B, in] input would send B = 1 down BLAS's matrix-vector
    # path, whose sums round differently.
    gates = np.empty((T, B, 4 * H))
    np.matmul(xs, W, out=gates.transpose(1, 0, 2))
    gates += b
    c, h = np.empty((2, T, B, H))
    h_prev = c_prev = np.zeros((B, H))
    for t in range(T):
        z = gates[t]
        z += h_prev @ U
        _finish_step(z, c_prev, offset, scale, c[t], h[t])
        h_prev, c_prev = h[t], c[t]
    hs = h.transpose(1, 0, 2)
    return hs, {"xs": xs, "gates": gates, "c": c, "hs": hs}


def lstm_layer_backward(d_hs: np.ndarray, cache: dict, params: LstmCellParams
                        ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT through one layer. d_hs is the loss gradient w.r.t. every hidden
    output [B, T, hidden]. Returns (d_xs, grads keyed like the param fields).
    """
    xs, gates, c, hs = (cache[k] for k in ("xs", "gates", "c", "hs"))
    B, T, D = xs.shape
    H = params.hidden_size
    W, U, _ = _fuse(params)
    # d_a [T, B, 4H] starts as each gate's activation derivative and becomes
    # the loss gradient w.r.t. the fused pre-activations, one step at a time
    d_a = 1.0 - gates
    d_a *= gates
    d_a[..., 2 * H:3 * H] = 1.0 - gates[..., 2 * H:3 * H] ** 2
    # tanh(c) is recomputed here, for all steps at once, rather than cached:
    # forward runs far more often than backward, with evaluation batches
    # larger than training ones, so its cache sets the peak memory
    tanh_c = np.tanh(c)
    d_tanh_c = 1.0 - tanh_c ** 2
    products = np.empty((B, 4 * H))
    dc_i, dc_f, dc_g, dh_o = (products[:, k * H:(k + 1) * H] for k in range(4))
    dh_next, dc_next, zeros = np.zeros((3, B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o = (gates[t, :, k * H:(k + 1) * H] for k in range(4))
        dh = d_hs[:, t] + dh_next
        dc = dc_next + dh * o * d_tanh_c[t]
        np.multiply(dc, g, out=dc_i)
        np.multiply(dc, c[t - 1] if t > 0 else zeros, out=dc_f)
        np.multiply(dc, i, out=dc_g)
        np.multiply(dh, tanh_c[t], out=dh_o)
        d_a[t] *= products
        if t:    # nothing reads the carries out of step 0
            dc_next = dc * f
            dh_next = d_a[t] @ U.T
    # back to batch-major, so each weight gradient sums over B*T in the same
    # order as a batch-major layer would
    d_a = np.ascontiguousarray(d_a.transpose(1, 0, 2))
    h_prev = np.zeros((B, T, H))
    h_prev[:, 1:] = hs[:, :-1]
    d_w = xs.reshape(B * T, D).T @ d_a.reshape(B * T, 4 * H)
    d_u = h_prev.reshape(B * T, H).T @ d_a.reshape(B * T, 4 * H)
    d_b = d_a.sum(axis=(0, 1))
    grads = {f"{kind}_{gate}": part for kind, d in zip("wub", (d_w, d_u, d_b))
             for gate, part in zip("ifgo", np.split(d, 4, axis=-1))}
    return d_a @ W.T, grads


# ---------------------------------------------------------------------------
# Dropout (inverted scaling: eval mode needs no rescale)
# ---------------------------------------------------------------------------

def dropout_mask(shape: tuple, p: float, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative keep-mask: kept entries scaled by 1/(1-p). p=1 zeroes
    everything; p=0 is the identity."""
    if p <= 0.0:
        return np.ones(shape)
    if p >= 1.0:
        return np.zeros(shape)
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class Adam:
    """Adam over one parameter vector, updated in place. It is elementwise:
    each slice of the vector steps as a separate Adam over it would."""

    def __init__(self, theta: np.ndarray, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.theta = theta
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        self.theta -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)
