"""Numeric kernel: ops, layers, parameters, and spot gradient checks.

The exhaustive per-layer gradient sweep lives in test_acceptance.py;
here we pin analytic behaviors and a few representative backward passes.
"""

import numpy as np
import pytest

from openqa import nn
from openqa.errors import EvenWidth
from openqa.hyper import Hyper

RNG = np.random.default_rng(0)


class TestOps:
    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(4, 7))
        y = nn.softmax(x)
        assert np.allclose(y.sum(axis=-1), 1.0)

    def test_softmax_shift_invariance(self):
        x = RNG.normal(size=9)
        assert np.allclose(nn.softmax(x), nn.softmax(x + 123.4))

    def test_softmax_overflow_safe(self):
        y = nn.softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(y, [0.5, 0.5])

    def test_softmax_cross_entropy_matches_composition(self):
        logits = RNG.normal(size=6)
        loss, grad = nn.softmax_cross_entropy(logits, 2)
        probs = nn.softmax(logits)
        assert loss == pytest.approx(nn.cross_entropy(probs, 2))
        expected = probs.copy()
        expected[2] -= 1.0
        assert np.allclose(grad, expected)

    def test_cosine_range_and_gradient(self):
        u, v = RNG.normal(size=5), RNG.normal(size=5)
        c = nn.cosine(u, v)
        assert -1.0 <= c <= 1.0
        assert nn.cosine(u, u) == pytest.approx(1.0)
        # finite-difference check of the analytic gradient
        gu, gv = nn.cosine_backward(u, v, 1.0)
        eps = 1e-6
        for i in range(5):
            up = u.copy(); up[i] += eps
            um = u.copy(); um[i] -= eps
            num = (nn.cosine(up, v) - nn.cosine(um, v)) / (2 * eps)
            assert gu[i] == pytest.approx(num, abs=1e-6)


class TestLayers:
    def test_linear_forward(self):
        W, b, x = np.array([[1.0, 2.0]]), np.array([0.5]), np.array([[3.0, 4.0]])
        y, _ = nn.linear_forward(W, b, x)
        assert np.allclose(y, [[11.5]])

    def test_embedding_backward_accumulates_repeats(self):
        grad = np.ones((3, 4))
        table_grad = nn.embedding_backward(grad, [2, 2, 5], vocab_size=8)
        assert np.allclose(table_grad[2], 2.0)
        assert np.allclose(table_grad[5], 1.0)
        assert np.allclose(table_grad[0], 0.0)

    def test_conv1d_same_padding(self):
        d = 3
        filters = RNG.normal(size=(d, 3, d))
        x = RNG.normal(size=(5, d))
        y, _ = nn.conv1d_forward(filters, x)
        assert y.shape == (5, d)

    def test_conv1d_rejects_even_width(self):
        with pytest.raises(EvenWidth):
            nn.conv1d_forward(RNG.normal(size=(2, 4, 2)), RNG.normal(size=(3, 2)))

    def test_gru_saturated_update_gate_copies_state(self):
        params = nn.ModelParameters(rng_seed=0)
        nn.init_gru(params, "g.", d=4, h=3)
        params["g.b_z"][:] = 60.0  # update gate ~1 everywhere
        h_prev = RNG.normal(size=3)
        h, _ = nn.gru_step(params, "g.", RNG.normal(size=4), h_prev)
        assert np.allclose(h, h_prev, atol=1e-10)

    def test_lstm_step_shapes(self):
        params = nn.ModelParameters(rng_seed=0)
        nn.init_lstm(params, "l.", d=4, h=3)
        h, c, _ = nn.lstm_step(params, "l.", RNG.normal(size=4), np.zeros(3), np.zeros(3))
        assert h.shape == (3,) and c.shape == (3,)

    def test_bidirectional_concatenates_directions(self):
        params = nn.ModelParameters(rng_seed=1)
        nn.init_bidirectional(params, "b.", "gru", d=4, h=3)
        states, _ = nn.bidirectional_encode("gru", params, "b.", RNG.normal(size=(6, 4)))
        assert states.shape == (6, 6)

    def test_attention_weights_sum_to_one(self):
        keys = RNG.normal(size=(5, 4))
        ctx, weights, _ = nn.attention(RNG.normal(size=4), keys, keys)
        assert ctx.shape == (4,)
        assert weights.sum() == pytest.approx(1.0)

    def test_attention_scaling(self):
        # uniform keys -> uniform weights regardless of magnitude
        keys = np.ones((4, 8))
        _, weights, _ = nn.attention(RNG.normal(size=8), keys, keys)
        assert np.allclose(weights, 0.25)

    def test_layer_norm_standardizes(self):
        x = RNG.normal(size=(3, 16)) * 5 + 2
        y, _ = nn.layer_norm(x, np.ones(16), np.zeros(16))
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-9)

    def test_transformer_layer_preserves_shape(self):
        params = nn.ModelParameters(rng_seed=2)
        nn.init_transformer_layer(params, "t.", d=8, heads=2)
        y, _ = nn.transformer_encoder_layer(params, "t.", RNG.normal(size=(5, 8)), heads=2)
        assert y.shape == (5, 8)


class TestParameters:
    def test_glorot_bounds(self):
        params = nn.ModelParameters(rng_seed=3)
        W = params.add("W", (50, 80))
        r = np.sqrt(6.0 / (80 + 50))
        assert np.abs(W).max() <= r

    def test_seed_determinism(self):
        a = nn.ModelParameters(rng_seed=7); a.add("W", (4, 4))
        b = nn.ModelParameters(rng_seed=7); b.add("W", (4, 4))
        assert np.array_equal(a["W"], b["W"])

    def test_save_load_roundtrip(self, tmp_path):
        params = nn.ModelParameters(rng_seed=11, arch={"kind": "demo"})
        params.add("W", (3, 2))
        params.add_zeros("b", (3,))
        path = str(tmp_path / "model.json")
        params.save(path)
        loaded = nn.ModelParameters.load(path)
        assert np.array_equal(loaded["W"], params["W"])
        assert loaded.rng_seed == 11
        assert loaded.arch["kind"] == "demo"

    def test_sgd_step(self):
        params = nn.ModelParameters(rng_seed=0)
        params.add_zeros("w", (2,))
        grads = {"w": np.array([1.0, -2.0])}
        nn.sgd_step(params, grads, lr=0.5)
        assert np.allclose(params["w"], [-0.5, 1.0])

    def test_grad_check_flags_wrong_gradient(self):
        params = nn.ModelParameters(rng_seed=0)
        params.add("w", (3,))

        def good(p):
            return float(0.5 * (p["w"] ** 2).sum()), {"w": p["w"].copy()}

        def bad(p):
            return float(0.5 * (p["w"] ** 2).sum()), {"w": 2.0 * p["w"]}

        assert nn.grad_check(good, params) < 1e-6
        assert nn.grad_check(bad, params) > 1e-2

    def test_linear_backward_gradient(self):
        params = nn.ModelParameters(rng_seed=5)
        params.add("W", (3, 4))
        params.add_zeros("b", (3,))
        x = RNG.normal(size=(2, 4))

        def loss_fn(p):
            y, cache = nn.linear_forward(p["W"], p["b"], x)
            loss = float((y ** 2).sum())
            gW, gb, _ = nn.linear_backward(2.0 * y, cache)
            return loss, {"W": gW, "b": gb}

        assert nn.grad_check(loss_fn, params) < 1e-6
