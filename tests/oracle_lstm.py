"""The LSTM layer as it was before its time-major rewrite, used as a test
oracle.

`lstm_layer_forward` and `lstm_layer_backward` below are the batch-major
implementation, copied verbatim with the helpers they call: strided
per-step slices, one `np.split` per step, and three separate sigmoids. The
time-major layer in `spinescale.nn` must reproduce their outputs bit for
bit (see test_nn.py and test_forecaster.py).
"""

from __future__ import annotations

import numpy as np

from spinescale.errors import ShapeError
from spinescale.nn import LstmCellParams


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, which is stable for any x."""
    return 0.5 * (1.0 + np.tanh(x / 2.0))


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
