"""From-scratch neural net layers: 1-D conv, LSTM cell/layer, dropout,
dense, and Adam. Everything is float64 numpy with explicit backward passes
so gradients can be verified against central finite differences.

Array layout is batch-first row vectors: activations are [B, features] or
[B, T, features], weights are [in_features, out_features], so a step is
`x @ W + b + h @ U`. LSTM weights are stored per gate (`LstmCellParams`)
and fused per call into W [in, 4H], U [H, 4H], b [4H] in gate order i, f,
g, o: one input matmul covers all T steps, each step is one [H, 4H]
matmul, and backward forms dW, dU, db with one matmul each after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, which is stable for any x."""
    return 0.5 * (1.0 + np.tanh(x / 2.0))


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

    def validate(self) -> None:
        h = self.hidden_size
        d = self.input_size
        for name in self.array_names():
            arr = getattr(self, name)
            want = (d, h) if name.startswith("w_") else (h, h) if name.startswith("u_") else (h,)
            if arr.shape != want:
                raise ShapeError(f"lstm param {name}: shape {arr.shape} != {want}")


def _fuse(p: LstmCellParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-gate fields as one block in gate order i, f, g, o:
    W [in, 4H], U [H, 4H], b [4H]."""
    return tuple(np.concatenate([getattr(p, f"{kind}_{gate}") for gate in "ifgo"], axis=-1)
                 for kind in "wub")


def _step(z: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finish one step from fused pre-activations z [..., 4H]; z is
    overwritten with the gate values. Returns (h_t, c_t)."""
    i, f, g, o = np.split(z, 4, axis=-1)
    i[...], f[...], g[...], o[...] = sigmoid(i), sigmoid(f), np.tanh(g), sigmoid(o)
    c_t = f * c_prev + i * g
    return o * np.tanh(c_t), c_t


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
    W, U, b = _fuse(params)
    return _step(x_t @ W + b + h_prev @ U, c_prev)


def lstm_layer_forward(xs: np.ndarray, params: LstmCellParams
                       ) -> tuple[np.ndarray, dict]:
    """Run the cell over a [B, T, in] sequence from zero initial state.

    Returns the hidden sequence [B, T, hidden] and a cache for backward.
    """
    if xs.ndim != 3:
        raise ShapeError(f"lstm layer: expected [B, T, in], got {xs.shape}")
    if xs.shape[2] != params.input_size:
        raise ShapeError(f"lstm layer: input width {xs.shape[2]} != {params.input_size}")
    B, T, _ = xs.shape
    H = params.hidden_size
    W, U, b = _fuse(params)
    # input projection of every step at once; += keeps one [B, T, 4H] array,
    # which holds the gate values once the loop has run
    gates = xs @ W
    gates += b
    c_all, h_all = np.empty((2, B, T, H))
    h, c = np.zeros((2, B, H))
    for t in range(T):
        z = gates[:, t]
        z += h @ U
        h, c = _step(z, c)
        c_all[:, t], h_all[:, t] = c, h
    return h_all, {"xs": xs, "gates": gates, "c": c_all, "h": h_all}


def lstm_layer_backward(d_hs: np.ndarray, cache: dict, params: LstmCellParams
                        ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT through one layer. d_hs is the loss gradient w.r.t. every hidden
    output [B, T, hidden]. Returns (d_xs, grads keyed like the param fields).
    """
    xs, gates, c_all, h_all = cache["xs"], cache["gates"], cache["c"], cache["h"]
    B, T, D = xs.shape
    H = params.hidden_size
    W, U, _ = _fuse(params)
    # d_a starts as each gate's activation derivative and becomes the loss
    # gradient w.r.t. the fused pre-activations, one step at a time
    d_a = 1.0 - gates
    d_a *= gates
    d_a[..., 2 * H:3 * H] = 1.0 - gates[..., 2 * H:3 * H] ** 2
    dh_next, dc_next = np.zeros((2, B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o = np.split(gates[:, t], 4, axis=1)
        c_prev = c_all[:, t - 1] if t > 0 else np.zeros((B, H))
        tanh_c = np.tanh(c_all[:, t])
        dh = d_hs[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
        d_a[:, t] *= np.concatenate([dc * g, dc * c_prev, dc * i, dh * tanh_c], axis=1)
        dc_next = dc * f
        dh_next = d_a[:, t] @ U.T
    h_prev = np.zeros_like(h_all)
    h_prev[:, 1:] = h_all[:, :-1]
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
    """Adam over a dict of parameter arrays, updated in place."""

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
