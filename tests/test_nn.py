"""Numeric kernel: ops, layers, parameters, and spot gradient checks.

The exhaustive per-layer gradient sweep lives in test_acceptance.py;
here we pin analytic behaviors and a few representative backward passes,
and test the batched recurrences against a per-step oracle and the batched
attention heads against a per-head one.
"""

import os

import numpy as np
import pytest

from openqa import nn
from openqa.errors import Diverged, EmptyDataset, EvenWidth, IndexOutOfRange
from openqa.nn import layers

import oracles

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

    def test_sigmoid_equals_masked_formula(self):
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        # sigmoid is 1/2 tanh(x/2) + 1/2, which rounds differently from the exp
        # formula: they agree to one ulp of 1, and neither gives NaN at the edges
        rng = np.random.default_rng(3)
        edges = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf])
        for sd in (1.0, 30.0, 800.0):
            x = np.concatenate([rng.normal(scale=sd, size=10_000), edges])
            got = nn.sigmoid(x)
            assert np.abs(got - masked(x)).max() <= 2.0 ** -52
            assert not np.isnan(got).any()
        assert np.array_equal(nn.sigmoid(edges), [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])


class TestLayers:
    def test_linear_forward(self):
        W, b, x = np.array([[1.0, 2.0]]), np.array([0.5]), np.array([[3.0, 4.0]])
        y, _ = nn.linear_forward(W, b, x)
        assert np.allclose(y, [[11.5]])

    def test_embedding_lookup_names_the_first_id_outside_the_table(self):
        table = RNG.normal(size=(5, 3))
        assert np.array_equal(nn.embedding_lookup(table, [4, 0, 4]), table[[4, 0, 4]])
        assert nn.embedding_lookup(table, []).shape == (0, 3)
        for ids, bad in (([1, 5, -1], 5), ([2, -1, 7], -1)):
            with pytest.raises(IndexOutOfRange, match=f"^id {bad} outside vocab of 5$"):
                nn.embedding_lookup(table, ids)

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
        nn.init_bidirectional(params, "g.", "gru", d=4, h=3)
        params["g.b"][:, :3] = 60.0  # update gate ~1 everywhere, in both directions
        states, _ = nn.bidirectional_encode("gru", params, "g.", RNG.normal(size=(5, 4)))
        assert np.allclose(states, 0.0, atol=1e-10)  # every state copies the zero start

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_bidirectional_concatenates_directions(self, kind):
        params = nn.ModelParameters(rng_seed=1)
        nn.init_bidirectional(params, "b.", kind, d=4, h=3)
        states, _ = nn.bidirectional_encode(kind, params, "b.", RNG.normal(size=(6, 4)))
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
        arch = {"kind": "demo", "d": 3, "epoch_losses": [0.5, 1 / 3]}
        params = nn.ModelParameters(rng_seed=11, arch=arch)
        params.add("W", (3, 2))
        params.add_zeros("b", (3,))
        params.add("p.U", (2, 3, 4))
        path = str(tmp_path / "model.json")
        params.save(path)
        assert os.listdir(tmp_path) == ["model.json"]  # no "model.json.npz"
        loaded = nn.ModelParameters.load(path)
        assert list(loaded.entries) == ["W", "b", "p.U"]
        for name, arr in loaded.entries.items():
            assert np.array_equal(arr, params[name])
            assert arr.dtype == np.float64 and arr.flags.writeable
        assert loaded.rng_seed == 11
        assert loaded.arch == arch

    def test_flipped_bit_loads_the_same_model_or_is_a_value_error(self, tmp_path):
        params = nn.ModelParameters(rng_seed=3, arch={"kind": "demo"})
        params.add("W", (3, 2))
        path, damaged = str(tmp_path / "model.npz"), str(tmp_path / "damaged.npz")
        params.save(path)
        with open(path, "rb") as fh:
            data = fh.read()
        for i in range(len(data)):  # one bit per byte, every bit position in turn
            flipped = bytearray(data)
            flipped[i] ^= 1 << (i % 8)
            with open(damaged, "wb") as fh:
                fh.write(flipped)
            try:
                loaded = nn.ModelParameters.load(damaged)
            except ValueError:
                continue
            assert list(loaded.entries) == ["W"] and np.array_equal(loaded["W"], params["W"])
            assert (loaded.rng_seed, loaded.arch) == (3, {"kind": "demo"})

    def test_sgd_step(self):
        params = nn.ModelParameters(rng_seed=0)
        params.add_zeros("w", (2,))
        grads = {"w": np.array([1.0, -2.0])}
        nn.sgd_step(params, grads, lr=0.5)
        assert np.allclose(params["w"], [-0.5, 1.0])

    def test_fit_steps_once_per_example_in_order(self):
        params = nn.ModelParameters(rng_seed=0)
        params.add_zeros("w", (1,))
        seen = []

        def step(example):
            seen.append((example, float(params["w"][0])))  # the weight each step sees
            return float(example), {"w": np.array([1.0])}

        assert nn.fit(params, [1, 2, 3], step, epochs=2, lr=0.5) is params
        assert seen == [(1, 0.0), (2, -0.5), (3, -1.0), (1, -1.5), (2, -2.0), (3, -2.5)]
        assert params["w"].tolist() == [-3.0]
        assert params.arch["epoch_losses"] == [6.0, 6.0]
        with pytest.raises(EmptyDataset):
            nn.fit(params, [], step, epochs=2, lr=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_refuses_a_non_finite_epoch_loss(self, bad):
        params = nn.ModelParameters(rng_seed=0)
        params.add_zeros("w", (1,))
        losses = iter([1.0, 2.0, bad, 3.0])
        with pytest.raises(Diverged, match=f"epoch 2 loss is {bad}: training diverged"):
            nn.fit(params, [0, 1], lambda example: (next(losses), {"w": np.array([1.0])}), epochs=3, lr=0.5)
        assert "epoch_losses" not in params.arch

    def test_load_refuses_non_finite_weights(self, tmp_path):
        params = nn.ModelParameters(rng_seed=0, arch={"kind": "demo"})
        params.add("W", (3, 2))
        params.add("b", (2,))
        params.add("c", (2,))
        params["W"][1, 1] = np.inf
        params["c"][0] = np.nan
        path = str(tmp_path / "model.npz")
        params.save(path)
        with pytest.raises(ValueError, match="^arrays with non-finite values: W, c$"):
            nn.ModelParameters.load(path)

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


# -- per-step oracle: one sequence, one direction and one gate at a time; the
# reference the stacked, batched cell in openqa.nn.layers is tested against ----

def _block(arrays, cell, name):
    """A view of gate g's rows in direction k of the stored `{pre}{m}`, for
    name "m_g" (e.g. "W_z") and cell (pre, kind, k)."""
    pre, kind, k = cell
    m, gate = name.split("_")
    arr = arrays[pre + m][k]
    h = len(arr) // len(layers.GATES[kind])
    j = layers.GATES[kind].index(gate)
    return arr[j * h:(j + 1) * h]


def _zero_grads(p, cell):
    return {cell[0] + m: np.zeros_like(p[cell[0] + m]) for m in "WUb"}


def _oracle_gru_step(p, cell, x, h_prev):
    g = lambda n: _block(p, cell, n)
    z = nn.sigmoid(g("W_z") @ x + g("U_z") @ h_prev + g("b_z"))
    r = nn.sigmoid(g("W_r") @ x + g("U_r") @ h_prev + g("b_r"))
    rh = r * h_prev
    cand = np.tanh(g("W_h") @ x + g("U_h") @ rh + g("b_h"))
    return z * h_prev + (1.0 - z) * cand, (x, h_prev, z, r, rh, cand)


def _oracle_gru_step_backward(p, cell, cache, dh):
    g = lambda n: _block(p, cell, n)
    x, h_prev, z, r, rh, cand = cache
    dz, dcand, dh_prev = dh * (h_prev - cand), dh * (1.0 - z), dh * z
    da_cand = dcand * (1.0 - cand * cand)
    drh = g("U_h").T @ da_cand
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r
    da_z, da_r = dz * z * (1.0 - z), dr * r * (1.0 - r)
    grads = _zero_grads(p, cell)
    for gate, da, u_in in (("z", da_z, h_prev), ("r", da_r, h_prev), ("h", da_cand, rh)):
        _block(grads, cell, f"W_{gate}")[:] = np.outer(da, x)
        _block(grads, cell, f"U_{gate}")[:] = np.outer(da, u_in)
        _block(grads, cell, f"b_{gate}")[:] = da
    dx = g("W_z").T @ da_z + g("W_r").T @ da_r + g("W_h").T @ da_cand
    return grads, dx, dh_prev + g("U_z").T @ da_z + g("U_r").T @ da_r


def _oracle_lstm_step(p, cell, x, h_prev, c_prev):
    g = lambda n: _block(p, cell, n)
    i, f, o = (nn.sigmoid(g(f"W_{k}") @ x + g(f"U_{k}") @ h_prev + g(f"b_{k}")) for k in "ifo")
    cand = np.tanh(g("W_g") @ x + g("U_g") @ h_prev + g("b_g"))
    c = f * c_prev + i * cand
    tc = np.tanh(c)
    return o * tc, c, (x, h_prev, c_prev, i, f, o, cand, tc)


def _oracle_lstm_step_backward(p, cell, cache, dh, dc):
    x, h_prev, c_prev, i, f, o, cand, tc = cache
    dc_total = dc + dh * o * (1.0 - tc * tc)
    grads, dx, dh_prev = _zero_grads(p, cell), np.zeros_like(x), np.zeros_like(h_prev)
    for gate, da in (("i", dc_total * cand * i * (1.0 - i)), ("f", dc_total * c_prev * f * (1.0 - f)),
                     ("o", dh * tc * o * (1.0 - o)), ("g", dc_total * i * (1.0 - cand * cand))):
        _block(grads, cell, f"W_{gate}")[:] = np.outer(da, x)
        _block(grads, cell, f"U_{gate}")[:] = np.outer(da, h_prev)
        _block(grads, cell, f"b_{gate}")[:] = da
        dx += _block(p, cell, f"W_{gate}").T @ da
        dh_prev += _block(p, cell, f"U_{gate}").T @ da
    return grads, dx, dh_prev, dc_total * f


def _oracle_bidirectional(kind, p, prefix, x, grad_out):
    """States [n, 2h] of one sequence, and its param grads and dx for grad_out."""
    n, h = x.shape[0], grad_out.shape[1] // 2
    states, grads, dx = np.zeros((n, 2 * h)), {}, np.zeros_like(x)
    for col, k, order in ((0, 0, range(n)), (h, 1, range(n - 1, -1, -1))):
        cell = (prefix, kind, k)
        hs, cs, caches = np.zeros(h), np.zeros(h), {}
        for t in order:
            if kind == "gru":
                hs, caches[t] = _oracle_gru_step(p, cell, x[t], hs)
            else:
                hs, cs, caches[t] = _oracle_lstm_step(p, cell, x[t], hs, cs)
            states[t, col:col + h] = hs
        dh, dc = np.zeros(h), np.zeros(h)
        for t in reversed(order):
            if kind == "gru":
                g, dxt, dh = _oracle_gru_step_backward(p, cell, caches[t], grad_out[t, col:col + h] + dh)
            else:
                g, dxt, dh, dc = _oracle_lstm_step_backward(p, cell, caches[t], grad_out[t, col:col + h] + dh, dc)
            nn.accumulate(grads, g)
            dx[t] += dxt
    return states, grads, dx


def _ragged(rng, batch, max_len, d):
    lengths = [max_len] + list(rng.integers(1, max_len + 1, size=batch - 1))
    return [rng.normal(size=(int(n), d)) for n in rng.permutation(lengths)]


def _random_biases(p, rng):
    """Nonzero biases (they start at 0), so a bias used in the wrong place shows."""
    names = [name for name in p.entries if name.endswith(".b")]
    assert names, "no recurrent bias to randomise"
    for name in names:
        p[name][:] = rng.normal(size=p[name].shape)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_bidirectional_init_draws_blocks_in_order(kind):
    """Per direction, per gate: W's (h, d) Glorot block, then U's (h, h) block,
    drawn in turn from the recorded seed; the biases start at zero."""
    d, h = 5, 4
    p = nn.ModelParameters(rng_seed=9)
    nn.init_bidirectional(p, "b.", kind, d=d, h=h)
    rng = np.random.default_rng(9)
    r_w, r_u = np.sqrt(6.0 / (d + h)), np.sqrt(6.0 / (2 * h))
    assert list(p.entries) == ["b.W", "b.U", "b.b"]
    for k in range(2):
        for j in range(len(layers.GATES[kind])):
            assert np.array_equal(p["b.W"][k, j * h:(j + 1) * h], rng.uniform(-r_w, r_w, size=(h, d)))
            assert np.array_equal(p["b.U"][k, j * h:(j + 1) * h], rng.uniform(-r_u, r_u, size=(h, h)))
    assert p["b.b"].shape == (2, len(layers.GATES[kind]) * h) and not p["b.b"].any()


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("batch", [1, 5])
def test_fused_directions_equal_one_direction_cells(kind, batch):
    """bidirectional_encode_batch runs both directions in one time loop; its states
    must be bit-identical to each direction run alone as the D=1 cell on the same
    padded batch (right to left: each sequence reversed within its own length)."""
    rng = np.random.default_rng(40 + batch)
    p = nn.ModelParameters(rng_seed=41)
    nn.init_bidirectional(p, "b.", kind, d=5, h=4)
    _random_biases(p, rng)
    for _ in range(5):
        xs = _ragged(rng, batch, 7, 5)
        states, _ = nn.bidirectional_encode_batch(kind, p, "b.", xs)
        padded = np.zeros((2, states.shape[1], batch, 5))
        for b, x in enumerate(xs):
            padded[0, :len(x), b], padded[1, :len(x), b] = x, x[::-1]
        fwd, bwd = (layers._cell_forward(kind, tuple(p[f"b.{m}"][k:k + 1] for m in "WUb"), padded[k:k + 1])[0][0]
                    for k in range(2))
        for b, x in enumerate(xs):
            n = len(x)
            assert np.array_equal(states[b, :n, :4], fwd[:n, b])
            assert np.array_equal(states[b, :n, 4:], bwd[:n, b][::-1])
            assert not states[b, n:].any()


def _unhalved_forward(kind, weights, x):
    """The stacked cell's time loop with every gate through nn.sigmoid of its
    whole pre-activation: the forward before its sigmoid rows were halved."""
    W, U, b = weights
    (D, L, B, _), n = x.shape, U.shape[2]
    a = layers._project(x, W, b)
    h = c = np.zeros((D, B, n))
    states = np.empty((D, L, B, n))
    for t in range(L):
        if kind == "gru":
            zr = nn.sigmoid(a[:, t, :, :2 * n] + h @ U[:, :2 * n].swapaxes(1, 2))
            g = np.tanh(a[:, t, :, 2 * n:] + (zr[..., n:] * h) @ U[:, 2 * n:].swapaxes(1, 2))
            h = states[:, t] = g + zr[..., :n] * (h - g)
        else:
            pre = a[:, t] + h @ U.swapaxes(1, 2)
            ifo, g = nn.sigmoid(pre[..., :3 * n]), np.tanh(pre[..., 3 * n:])
            c = ifo[..., n:2 * n] * c + ifo[..., :n] * g
            h = states[:, t] = ifo[..., 2 * n:] * np.tanh(c)
    return states


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_halved_gate_rows_equal_sigmoid_bit_for_bit(kind):
    """The forward halves its sigmoid gates' rows of W, U and b and takes
    1/2 tanh + 1/2; halving is exact, so its gates, and with them its states,
    equal nn.sigmoid of the whole pre-activation to the bit."""
    rng = np.random.default_rng(50)
    p = nn.ModelParameters(rng_seed=51)
    nn.init_bidirectional(p, "b.", kind, d=5, h=4)
    _random_biases(p, rng)
    weights = tuple(p[f"b.{m}"] for m in "WUb")
    for scale in (0.5, 3.0, 40.0):  # 40: saturated gates
        x = rng.normal(scale=scale, size=(2, 9, 6, 5))
        a = layers._project(x, *weights[::2])
        halved = layers._project(x, layers._halved(kind, weights[0]), layers._halved(kind, weights[2]))
        sig = (len(layers.GATES[kind]) - 1) * 4
        assert np.array_equal(halved[..., :sig], 0.5 * a[..., :sig])
        assert np.array_equal(halved[..., sig:], a[..., sig:])
        states, _ = layers._cell_forward(kind, weights, x)
        assert np.array_equal(states, _unhalved_forward(kind, weights, x))


@pytest.mark.parametrize("kind", ["gru", "lstm"])
class TestRecurrenceOracle:
    @pytest.mark.parametrize("batch", [1, 6])
    def test_batch_equals_oracle(self, kind, batch):
        rng = np.random.default_rng(22 + batch)
        p = nn.ModelParameters(rng_seed=23)
        nn.init_bidirectional(p, "b.", kind, d=5, h=4)
        _random_biases(p, rng)
        for _ in range(5):
            xs = _ragged(rng, batch, 7, 5)
            states, cache = nn.bidirectional_encode_batch(kind, p, "b.", xs)
            grad_out = rng.normal(size=states.shape)  # padded positions too: they must be ignored
            grads, dx = nn.bidirectional_backward(p, cache, grad_out)
            want_grads = {}
            for b, x in enumerate(xs):
                n = x.shape[0]
                want_states, g, want_dx = _oracle_bidirectional(kind, p, "b.", x, grad_out[b, :n])
                nn.accumulate(want_grads, g)
                assert np.abs(states[b, :n] - want_states).max() < 1e-12
                assert np.abs(dx[b, :n] - want_dx).max() < 1e-12
                assert not states[b, n:].any() and not dx[b, n:].any()
            assert set(grads) == set(want_grads)
            for name, want in want_grads.items():
                assert np.abs(grads[name] - want).max() < 1e-12

    def test_single_sequence_form(self, kind):
        rng = np.random.default_rng(24)
        p = nn.ModelParameters(rng_seed=25)
        nn.init_bidirectional(p, "b.", kind, d=5, h=4)
        x, grad_out = rng.normal(size=(6, 5)), rng.normal(size=(6, 8))
        states, cache = nn.bidirectional_encode(kind, p, "b.", x)
        grads, dx = nn.bidirectional_backward(p, cache, grad_out)
        want_states, want_grads, want_dx = _oracle_bidirectional(kind, p, "b.", x, grad_out)
        assert states.shape == (6, 8) and dx.shape == (6, 5)
        assert np.abs(states - want_states).max() < 1e-12
        assert np.abs(dx - want_dx).max() < 1e-12
        for name, want in want_grads.items():
            assert np.abs(grads[name] - want).max() < 1e-12

    def test_grad_check_ragged_batch(self, kind):
        rng = np.random.default_rng(26)
        p = nn.ModelParameters(rng_seed=27)
        nn.init_bidirectional(p, "b.", kind, d=3, h=2)
        xs = [rng.normal(size=(n, 3)) for n in (3, 1, 2)]
        R = rng.normal(size=(3, 3, 4))

        def loss_fn(p_):
            states, cache = nn.bidirectional_encode_batch(kind, p_, "b.", xs)
            return float((states * R).sum()), nn.bidirectional_backward(p_, cache, R)[0]

        assert nn.grad_check(loss_fn, p) < 1e-6


def _transformer(rng, d, heads):
    """A layer with random biases and layer-norm gains, so none is trivially 0 or 1."""
    p = nn.ModelParameters(rng_seed=int(rng.integers(1 << 16)))
    nn.init_transformer_layer(p, "t.", d=d, heads=heads)
    for name, arr in p.entries.items():
        if arr.ndim == 1:
            arr += rng.normal(scale=0.5, size=arr.shape)
    return p


class TestTransformerOracle:
    @pytest.mark.parametrize("d,heads", [(d, h) for d in (6, 16, 32) for h in (1, 2, 4) if d % h == 0])
    def test_batched_heads_equal_per_head_oracle_bit_for_bit(self, d, heads):
        rng = np.random.default_rng(60 + d + heads)
        p = _transformer(rng, d, heads)
        for n in range(1, 41):
            x, R = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            out, cache = layers._mha_forward(p, "t.", x, np.ones((1, n), dtype=bool), heads)
            grads, dx = layers._mha_backward(p, "t.", cache, R)
            want_out, want_cache = oracles.mha_forward(p, "t.", x, heads)
            want_grads, want_dx = oracles.mha_backward(p, "t.", want_cache, R)
            assert np.array_equal(out, want_out) and np.array_equal(dx, want_dx)
            assert set(grads) == set(want_grads)
            for name, want in want_grads.items():
                assert np.array_equal(grads[name], want)

    @pytest.mark.parametrize("d,heads", [(6, 2), (16, 4), (32, 2)])
    def test_padded_batch_rows_equal_each_sequence_alone(self, d, heads):
        rng = np.random.default_rng(70 + d)
        p = _transformer(rng, d, heads)
        for _ in range(5):
            lengths = rng.integers(1, 41, size=rng.integers(1, 6))
            mask = np.arange(lengths.max()) < lengths[:, None]
            # noise in the padded rows, of x and of the upstream gradient: the mask must hide both
            x, R = rng.normal(size=mask.shape + (d,)), rng.normal(size=mask.shape + (d,))
            y, cache = nn.transformer_encoder_layer(p, "t.", x, heads, mask)
            grads, dx = nn.transformer_encoder_layer_backward(p, cache, R)
            want_grads = {}
            for c, n in enumerate(lengths):
                want_y, one = nn.transformer_encoder_layer(p, "t.", x[c, :n], heads)
                g, want_dx = nn.transformer_encoder_layer_backward(p, one, R[c, :n])
                nn.accumulate(want_grads, g)
                assert np.abs(y[c, :n] - want_y).max() < 1e-12
                assert np.abs(dx[c, :n] - want_dx).max() < 1e-12
                assert not y[c, n:].any() and not dx[c, n:].any()
            assert set(grads) == set(want_grads)
            for name, want in want_grads.items():
                assert np.abs(grads[name] - want).max() < 1e-12

    def test_grad_check_padded_batch(self):
        rng = np.random.default_rng(80)
        p = _transformer(rng, 6, 2)
        mask = np.arange(4) < np.array([3, 1, 4])[:, None]
        x, R = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6))

        def loss_fn(p_):
            y, cache = nn.transformer_encoder_layer(p_, "t.", x, 2, mask)
            return float((y * R).sum()), nn.transformer_encoder_layer_backward(p_, cache, R)[0]

        assert nn.grad_check(loss_fn, p) < 1e-4
