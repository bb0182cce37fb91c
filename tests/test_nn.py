import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_lstm
from spinescale.errors import ShapeError
from spinescale.nn import (Adam, LstmCellParams, _finish_step, _fuse_for_forward,
                           conv1d_backward, conv1d_forward, dropout_mask, lstm_cell_forward,
                           lstm_layer_backward, lstm_layer_forward)


# ---------------------------------------------------------------------------
# Independent scalar oracle for the LSTM cell (plain math, no numpy), with
# its outputs frozen below. The implementation must match the frozen values
# to 1e-12; the oracle is re-run against them too so it cannot drift.
# ---------------------------------------------------------------------------

def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))

def scalar_cell_oracle(x, h_prev, c_prev, p):
    i = _sig(p["w_i"] * x + p["u_i"] * h_prev + p["b_i"])
    f = _sig(p["w_f"] * x + p["u_f"] * h_prev + p["b_f"])
    g = math.tanh(p["w_g"] * x + p["u_g"] * h_prev + p["b_g"])
    o = _sig(p["w_o"] * x + p["u_o"] * h_prev + p["b_o"])
    c_t = f * c_prev + i * g
    h_t = o * math.tanh(c_t)
    return h_t, c_t


_ZEROS = {k: 0.0 for k in ("w_i", "u_i", "b_i", "w_f", "u_f", "b_f",
                           "w_g", "u_g", "b_g", "w_o", "u_o", "b_o")}

# (name, x, h_prev, c_prev, params, expected_h, expected_c)
ORACLE_CASES = [
    ("zero params, zero state", 0.7, 0.0, 0.0, dict(_ZEROS),
     0.0, 0.0),
    ("zero params, c_prev=0.8", -1.3, 0.25, 0.8, dict(_ZEROS),
     0.18997448112761245, 0.4),
    ("small mixed weights", 0.3, -0.2, 0.5,
     dict(w_i=0.5, u_i=-0.25, b_i=0.1, w_f=0.3, u_f=0.2, b_f=-0.1,
          w_g=0.8, u_g=-0.5, b_g=0.05, w_o=-0.4, u_o=0.6, b_o=0.2),
     0.20957279026561604, 0.4570764057030271),
    ("negative input", -0.9, 0.4, -0.3,
     dict(w_i=-0.7, u_i=0.15, b_i=-0.2, w_f=0.45, u_f=-0.35, b_f=0.6,
          w_g=-0.1, u_g=0.9, b_g=-0.4, w_o=0.55, u_o=-0.05, b_o=0.0),
     -0.04582733475887264, -0.1231444508099171),
    ("saturating gates", 2.5, -1.5, 1.2,
     dict(w_i=3.0, u_i=0.5, b_i=1.0, w_f=-2.0, u_f=1.5, b_f=-0.5,
          w_g=1.2, u_g=-0.8, b_g=0.3, w_o=2.2, u_o=0.4, b_o=-1.0),
     0.7464177890205237, 0.9998394285211095),
    ("unit weights", 0.1, 0.2, 0.3,
     dict(w_i=1.0, u_i=1.0, b_i=0.0, w_f=1.0, u_f=1.0, b_f=1.0,
          w_g=1.0, u_g=1.0, b_g=0.0, w_o=1.0, u_o=1.0, b_o=0.0),
     0.21977722972273955, 0.4030928451884389),
]


def scalar_params(p: dict) -> LstmCellParams:
    arr = {k: np.array([[v]]) if k[0] in "wu" else np.array([v]) for k, v in p.items()}
    return LstmCellParams(**arr)


@pytest.mark.parametrize("name,x,h0,c0,p,want_h,want_c",
                         ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_lstm_cell_matches_frozen_oracle(name, x, h0, c0, p, want_h, want_c):
    # the oracle itself must still reproduce the frozen values
    oh, oc = scalar_cell_oracle(x, h0, c0, p)
    assert abs(oh - want_h) <= 1e-12 and abs(oc - want_c) <= 1e-12

    h_t, c_t = lstm_cell_forward(np.array([x]), np.array([h0]), np.array([c0]),
                                 scalar_params(p))
    assert abs(float(h_t[0]) - want_h) <= 1e-12
    assert abs(float(c_t[0]) - want_c) <= 1e-12


def test_zero_params_gate_values_halve_memory():
    # all params zero: i=f=o=0.5, g=0 -> c_t = c/2, h_t = 0.5*tanh(c/2)
    for c in (0.0, 0.8, -2.4, 10.0):
        h_t, c_t = lstm_cell_forward(np.array([1.7]), np.array([0.0]), np.array([c]),
                                     scalar_params(_ZEROS))
        assert float(c_t[0]) == pytest.approx(0.5 * c, abs=1e-15)
        assert float(h_t[0]) == pytest.approx(0.5 * math.tanh(0.5 * c), abs=1e-15)


def test_lstm_cell_batch_matches_scalar_loop():
    rng = np.random.default_rng(0)
    p = scalar_params({k: float(rng.normal()) for k in _ZEROS})
    xs = rng.normal(size=(7, 1))
    hs = rng.normal(size=(7, 1))
    cs = rng.normal(size=(7, 1))
    h_b, c_b = lstm_cell_forward(xs, hs, cs, p)
    for b in range(7):
        h_s, c_s = lstm_cell_forward(xs[b], hs[b], cs[b], p)
        assert np.allclose(h_b[b], h_s, atol=1e-15)
        assert np.allclose(c_b[b], c_s, atol=1e-15)


def test_lstm_cell_shape_mismatch():
    p = scalar_params(_ZEROS)
    with pytest.raises(ShapeError):
        lstm_cell_forward(np.zeros(2), np.zeros(1), np.zeros(1), p)
    with pytest.raises(ShapeError):
        lstm_cell_forward(np.zeros(1), np.zeros(3), np.zeros(1), p)


def test_lstm_layer_equals_stepwise_cell():
    rng = np.random.default_rng(3)
    hidden, inp = 4, 3
    p = LstmCellParams(
        w_i=rng.normal(size=(inp, hidden)), u_i=rng.normal(size=(hidden, hidden)),
        b_i=rng.normal(size=hidden),
        w_f=rng.normal(size=(inp, hidden)), u_f=rng.normal(size=(hidden, hidden)),
        b_f=rng.normal(size=hidden),
        w_g=rng.normal(size=(inp, hidden)), u_g=rng.normal(size=(hidden, hidden)),
        b_g=rng.normal(size=hidden),
        w_o=rng.normal(size=(inp, hidden)), u_o=rng.normal(size=(hidden, hidden)),
        b_o=rng.normal(size=hidden),
    )
    xs = rng.normal(size=(2, 6, inp))
    hs, _ = lstm_layer_forward(xs, p)
    h = np.zeros((2, hidden))
    c = np.zeros((2, hidden))
    for t in range(6):
        h, c = lstm_cell_forward(xs[:, t], h, c, p)
        assert np.allclose(hs[:, t], h, atol=1e-14)


def test_lstm_layer_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    hidden, inp = 3, 2
    p = LstmCellParams(**{
        name: rng.normal(size=(inp, hidden)) * 0.5 if name.startswith("w_")
        else rng.normal(size=(hidden, hidden)) * 0.5 if name.startswith("u_")
        else rng.normal(size=hidden) * 0.5
        for name in LstmCellParams(*([np.zeros((1, 1))] * 12)).array_names()
    })
    xs = rng.normal(size=(2, 5, inp))

    def loss() -> float:
        hs, _ = lstm_layer_forward(xs, p)
        return float(np.sum(hs ** 2))

    hs, cache = lstm_layer_forward(xs, p)
    d_xs, grads = lstm_layer_backward(2.0 * hs, cache, p)

    eps = 1e-6
    for name in grads:
        arr = getattr(p, name)
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            j_plus = loss()
            flat[idx] = orig - eps
            j_minus = loss()
            flat[idx] = orig
            numeric = (j_plus - j_minus) / (2 * eps)
            analytic = grads[name].reshape(-1)[idx]
            assert abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8) < 1e-6
    # input gradients too
    flat = xs.reshape(-1)
    for idx in rng.choice(flat.size, size=5, replace=False):
        orig = flat[idx]
        flat[idx] = orig + eps
        j_plus = loss()
        flat[idx] = orig - eps
        j_minus = loss()
        flat[idx] = orig
        numeric = (j_plus - j_minus) / (2 * eps)
        analytic = d_xs.reshape(-1)[idx]
        assert abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8) < 1e-6


# ---------------------------------------------------------------------------
# Time-major layer against the batch-major oracle (tests/oracle_lstm.py):
# the same bits, signs of zeros included
# ---------------------------------------------------------------------------

GATE_FIELDS = LstmCellParams(*([np.zeros((1, 1))] * 12)).array_names()


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_step_finish_equals_three_sigmoids_and_a_tanh():
    # every column of z takes every value, so each gate sees +-0.0, tiny,
    # subnormal, saturating and infinite pre-activations
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 0.3, -2.5,
                       40.0, -40.0, 710.0, -710.0, np.inf, -np.inf])
    H = len(values)
    z = np.stack([np.roll(np.tile(values, 4), k) for k in range(H)])
    c_prev = np.resize([0.0, -0.0, 1.5, -0.7], (H, H))
    p = LstmCellParams(*([np.zeros((1, H)), np.zeros((H, H)), np.zeros(H)] * 4))
    _, _, _, offset, scale = _fuse_for_forward(p)
    want_z = z.copy()
    want_h, want_c = oracle_lstm._step(want_z, c_prev)
    got_z = z * scale                   # the pre-halved sigmoid columns
    c_t, h_t = np.empty((2, H, H))
    _finish_step(got_z, c_prev, offset, scale, c_t, h_t)
    assert same_bits(got_z, want_z)
    assert same_bits(c_t, want_c) and same_bits(h_t, want_h)
    # the g gate's -0.0 offset keeps tanh(-0.0) = -0.0
    g_in, g_out = z[:, 2 * H:3 * H], got_z[:, 2 * H:3 * H]
    assert np.signbit(g_out[g_in == 0.0]).tolist() == np.signbit(g_in[g_in == 0.0]).tolist()
    assert np.signbit(g_out[g_in == 0.0]).any()


def random_params(rng: np.random.Generator, D: int, H: int, saturate: bool,
                  g_zero: float | None) -> LstmCellParams:
    arrays = {}
    for name in GATE_FIELDS:
        shape = (D, H) if name[0] == "w" else (H, H) if name[0] == "u" else (H,)
        arrays[name] = rng.normal(scale=0.5, size=shape)
        if saturate and name[0] == "b":      # pre-activations around +-40
            arrays[name] += 40.0 * rng.choice([-1.0, 1.0], size=shape)
    if g_zero is not None:                   # g pre-activations of exactly +-0.0
        arrays["w_g"][...] = arrays["u_g"][...] = 0.0
        arrays["b_g"][...] = g_zero
    return LstmCellParams(**arrays)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(B=st.sampled_from([1, 5, 32]), T=st.sampled_from([1, 2, 46]),
       H=st.sampled_from([1, 8, 32]), D=st.sampled_from([1, 3, 8]),
       seed=st.integers(0, 2 ** 32 - 1), saturate=st.booleans(),
       g_zero=st.sampled_from([None, 0.0, -0.0]),
       layout=st.sampled_from(["contiguous", "time-major", "dropout"]),
       last_step_only=st.booleans())
def test_layer_bit_identical_to_batch_major_oracle(B, T, H, D, seed, saturate, g_zero,
                                                   layout, last_step_only):
    rng = np.random.default_rng(seed)
    p = random_params(rng, D, H, saturate, g_zero)
    xs = rng.normal(size=(B, T, D))
    if layout != "contiguous":               # same values, time-major memory
        xs = np.ascontiguousarray(xs.transpose(1, 0, 2)).transpose(1, 0, 2)
    if layout == "dropout":                  # as layer 2 sees layer 1's output
        xs = xs * dropout_mask(xs.shape, 0.2, rng)
    d_hs = rng.normal(size=(B, T, H))
    if last_step_only:                       # as the forecaster's loss gives it
        d_hs[:, :-1] = 0.0

    hs, cache = lstm_layer_forward(xs, p)
    want_hs, want_cache = oracle_lstm.lstm_layer_forward(xs, p)
    assert same_bits(hs, want_hs)
    d_xs, grads = lstm_layer_backward(d_hs, cache, p)
    want_d_xs, want_grads = oracle_lstm.lstm_layer_backward(d_hs, want_cache, p)
    assert same_bits(d_xs, want_d_xs)
    assert grads.keys() == want_grads.keys() == set(GATE_FIELDS)
    for name in GATE_FIELDS:
        assert same_bits(grads[name], want_grads[name]), name


def test_layer_output_is_a_view_of_time_major_memory():
    p = random_params(np.random.default_rng(0), 3, 4, False, None)
    hs, _ = lstm_layer_forward(np.ones((5, 7, 3)), p)
    assert hs.shape == (5, 7, 4)
    assert hs.transpose(1, 0, 2).flags.c_contiguous


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    x = np.random.default_rng(0).normal(size=(9, 3))
    kernel = np.eye(3)[None]          # width 1, channel j -> j
    out = conv1d_forward(x, kernel, np.zeros(3))
    assert np.array_equal(out, x)


def test_conv_zero_kernel_gives_bias():
    x = np.ones((6, 3))
    out = conv1d_forward(x, np.zeros((2, 3, 4)), np.full(4, 2.5))
    assert out.shape == (5, 4)
    assert np.all(out == 2.5)


def test_conv_width2_average():
    # hand cross-correlation: [1,2,3] * [0.5,0.5] -> [1.5, 2.5]
    x = np.array([[1.0], [2.0], [3.0]])
    kernel = np.array([[[0.5]], [[0.5]]])
    out = conv1d_forward(x, kernel, np.zeros(1))
    assert out.ravel().tolist() == [1.5, 2.5]


def test_conv_window_shorter_than_kernel():
    with pytest.raises(ShapeError):
        conv1d_forward(np.zeros((2, 3)), np.zeros((3, 3, 2)), np.zeros(2))


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        conv1d_forward(np.zeros((5, 2)), np.zeros((3, 3, 2)), np.zeros(2))


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 7, 3))
    kernel = rng.normal(size=(3, 3, 2))
    bias = rng.normal(size=2)

    def loss() -> float:
        return float(np.sum(conv1d_forward(x, kernel, bias) ** 2))

    out = conv1d_forward(x, kernel, bias)
    d_kernel, d_bias = conv1d_backward(2.0 * out, x, kernel)
    eps = 1e-6
    for arr, grad in ((kernel, d_kernel), (bias, d_bias)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            j_plus = loss()
            flat[idx] = orig - eps
            j_minus = loss()
            flat[idx] = orig
            numeric = (j_plus - j_minus) / (2 * eps)
            assert abs(gflat[idx] - numeric) / max(abs(gflat[idx]) + abs(numeric), 1e-8) < 1e-6


# ---------------------------------------------------------------------------
# dropout + Adam
# ---------------------------------------------------------------------------

def test_dropout_mask_edges():
    rng = np.random.default_rng(0)
    assert np.all(dropout_mask((4, 4), 0.0, rng) == 1.0)
    assert np.all(dropout_mask((4, 4), 1.0, rng) == 0.0)


def test_dropout_inverted_scaling_unbiased():
    rng = np.random.default_rng(1)
    mask = dropout_mask((200_000,), 0.3, rng)
    kept = mask > 0
    assert np.allclose(mask[kept], 1.0 / 0.7)
    assert abs(mask.mean() - 1.0) < 0.01


def test_adam_zero_lr_is_noop():
    params = {"w": np.array([1.0, -2.0])}
    before = params["w"].copy()
    opt = Adam(params["w"], lr=0.0)
    for _ in range(5):
        opt.step(np.array([10.0, -10.0]))
    assert np.array_equal(params["w"], before)


def test_adam_minimizes_quadratic():
    params = {"w": np.array([5.0, -3.0])}
    opt = Adam(params["w"], lr=0.05)
    for _ in range(500):
        opt.step(2.0 * params["w"])
    assert np.all(np.abs(params["w"]) < 1e-3)


def test_adam_over_a_vector_steps_each_slice_as_a_separate_adam_would():
    rng = np.random.default_rng(12)
    theta = rng.normal(size=40)
    slices = [slice(0, 1), slice(1, 13), slice(13, 40)]
    parts = [theta[s].copy() for s in slices]
    whole = Adam(theta, lr=0.01)
    separate = [Adam(part, lr=0.01) for part in parts]
    for _ in range(50):
        grad = rng.normal(size=theta.size) * rng.choice([1e-6, 1.0, 1e3], size=theta.size)
        whole.step(grad)
        for opt, s in zip(separate, slices):
            opt.step(grad[s])
    for part, s in zip(parts, slices):
        assert np.array_equal(theta[s], part)
