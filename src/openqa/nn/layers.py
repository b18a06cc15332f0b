"""Neural layers with hand-written forward and backward passes.

Each forward returns (output, cache); the matching backward consumes the
cache plus the upstream gradient and returns parameter gradients (keyed
by the same names as the parameter dict) and input gradients. Layer
parameters live in a flat dict under a caller-chosen prefix, e.g.
"lstm.W".

Gated recurrences are one stacked cell per kind, run bidirectionally over
whole sequences from zero states: `init_bidirectional`, then
`bidirectional_encode(_batch)` and `bidirectional_backward`. A cell under
`prefix` is stored as the three arrays it computes with: `{prefix}W`
[D, G, d], `{prefix}U` [D, G, h] and `{prefix}b` [D, G], where D = 2
directions (left to right, then right to left). G is 3h for the GRU (gates
z, r, candidate h) and 4h for the LSTM (i, f, o, g), one h-row block per
gate in `GATES` order. Every step's input projection x W^T + b, for both
directions, is one batched matmul before the time loop, written into one
[D, L, B, G] array; each step makes one batched recurrent matmul for both
directions, [D, B, 2h] for the GRU's z and r (plus U_h on r*h_prev for its
candidate) or [D, B, 4h] for the LSTM. The forward keeps only the states;
the backward recomputes every step's gates from them at once. A batch is
left-aligned and zero-padded to [B, L, d] (time-major inside); the
right-to-left direction runs over each sequence reversed within its own
length, in the same time loop, so padding only ever follows a sequence's
last step. A length mask zeroes the padded positions' states and drops
their gradients.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptySequence, EvenWidth, IndexOutOfRange, ShapeMismatch
from .ops import sigmoid, softmax, softmax_backward
from .params import Grads, ModelParameters, accumulate

# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def linear_forward(W: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """y = x W^T + b for x[batch, in], W[out, in], b[out]."""
    if x.ndim != 2 or W.ndim != 2 or x.shape[1] != W.shape[1] or b.shape != (W.shape[0],):
        raise ShapeMismatch(f"linear: x{x.shape} W{W.shape} b{b.shape}")
    y = x @ W.T + b
    return y, {"x": x, "W": W}


def linear_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_W, grad_b, grad_x)."""
    x, W = cache["x"], cache["W"]
    grad_W = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    grad_x = grad_out @ W
    return grad_W, grad_b, grad_x


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def embedding_lookup(table: np.ndarray, ids: list[int]) -> np.ndarray:
    """The rows of `table` for ids; the first id outside it is IndexOutOfRange."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = ids[(ids < 0) | (ids >= table.shape[0])][0]
        raise IndexOutOfRange(f"id {bad} outside vocab of {table.shape[0]}")
    return table[ids]


def embedding_backward(grad_out: np.ndarray, ids: list[int], vocab_size: int) -> np.ndarray:
    """Scatter-add of per-position gradients; duplicate ids accumulate."""
    grad = np.zeros((vocab_size, grad_out.shape[1]), dtype=np.float64)
    np.add.at(grad, np.asarray(ids, dtype=np.intp), grad_out)
    return grad


# ---------------------------------------------------------------------------
# 1-d convolution over the sequence axis, zero same-padding
# ---------------------------------------------------------------------------

def conv1d_forward(filters: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Cross-correlation: filters[c_out, width, d] over x[len, d] -> [len, c_out]."""
    c_out, width, d = filters.shape
    if width % 2 == 0:
        raise EvenWidth(f"filter width {width} must be odd")
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeMismatch(f"conv1d: x{x.shape} vs filters{filters.shape}")
    n = x.shape[0]
    pad = width // 2
    xpad = np.zeros((n + 2 * pad, d), dtype=np.float64)
    xpad[pad : pad + n] = x
    y = np.zeros((n, c_out), dtype=np.float64)
    for w in range(width):
        # window rows t+w of xpad align with output position t
        y += xpad[w : w + n] @ filters[:, w, :].T
    return y, {"xpad": xpad, "filters": filters, "n": n, "pad": pad}


def conv1d_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Returns (grad_filters, grad_x)."""
    xpad, filters = cache["xpad"], cache["filters"]
    n, pad = cache["n"], cache["pad"]
    c_out, width, d = filters.shape
    grad_f = np.zeros_like(filters)
    grad_xpad = np.zeros_like(xpad)
    for w in range(width):
        grad_f[:, w, :] = grad_out.T @ xpad[w : w + n]
        grad_xpad[w : w + n] += grad_out @ filters[:, w, :]
    return grad_f, grad_xpad[pad : pad + n]


# ---------------------------------------------------------------------------
# gated recurrences: one stacked cell per kind, run over a padded batch
# ---------------------------------------------------------------------------

GATES = {"gru": "zrh", "lstm": "ifog"}


def _weights(params, prefix: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored (W, U, b) of the cell under `prefix`."""
    return params[f"{prefix}W"], params[f"{prefix}U"], params[f"{prefix}b"]


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per direction, the sum over every step and row of outer(a, b): one batched matmul."""
    return a.reshape(len(a), -1, a.shape[-1]).swapaxes(1, 2) @ b.reshape(len(b), -1, b.shape[-1])


def _project(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x[D, L, B, d] W^T + b for every direction, step and row: one batched matmul,
    written with the bias straight into one [D, L, B, G] array."""
    D, L, B, d = x.shape
    a = np.empty((D, L, B, W.shape[1]))
    np.matmul(x.reshape(D, L * B, d), W.swapaxes(1, 2), out=a.reshape(D, L * B, -1))
    a += b[:, None, None]
    return a


def _times(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x[D, L, B, k] M[D, k, m] for every step and row: one batched matmul."""
    return (x.reshape(len(x), -1, x.shape[-1]) @ M).reshape(x.shape[:-1] + M.shape[2:])


def _halved(kind: str, M: np.ndarray) -> np.ndarray:
    """A copy of the stacked M ([D, G] or [D, G, k]) with the rows of its sigmoid
    gates (all but the last gate) halved: the forward computes each sigmoid as
    1/2 tanh(v/2) + 1/2, and halving by a power of two is exact, so a matmul or
    sum over halved rows is the halved pre-activation to the bit."""
    gates = len(GATES[kind])
    M = M.copy()
    M[:, :M.shape[1] // gates * (gates - 1)] *= 0.5
    return M


def _cell_forward(kind: str, weights, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """D directions at once: direction k runs over the time-major x[k] ([D, L, B, d])
    with the k-th of each stacked weight, from zero states. Returns states
    [D, L, B, h]. Only the states are kept; `_cell_backward` recomputes the
    gates from them. Each step takes one tanh per gate block, the sigmoid
    gates' rows pre-halved (see `_halved`), and writes its states in place."""
    W, U, b = weights
    (D, L, B, d), n = x.shape, U.shape[2]
    if (W.shape[0], W.shape[2]) != (D, d):
        raise ShapeMismatch(f"{kind}: input sizes disagree with parameters")
    h = c = np.zeros((D, B, n))
    a = _project(x, _halved(kind, W), _halved(kind, b))
    U = _halved(kind, U)
    hs, cs = np.empty((D, L + 1, B, n)), None  # hs[:, t], cs[:, t]: step t's incoming states
    hs[:, 0] = h
    if kind == "gru":
        U_zr, U_h = U[:, :2 * n].swapaxes(1, 2), U[:, 2 * n:].swapaxes(1, 2)
        for t in range(L):
            zr = h @ U_zr
            zr += a[:, t, :, :2 * n]
            np.tanh(zr, out=zr)
            zr *= 0.5
            zr += 0.5
            g = (zr[..., n:] * h) @ U_h
            g += a[:, t, :, 2 * n:]
            np.tanh(g, out=g)
            h_new = hs[:, t + 1]
            np.subtract(h, g, out=h_new)
            h_new *= zr[..., :n]
            h_new += g
            h = h_new
    else:
        cs = np.empty_like(hs)
        cs[:, 0] = c
        U_t = U.swapaxes(1, 2)
        for t in range(L):
            gates = h @ U_t
            gates += a[:, t]
            np.tanh(gates, out=gates)
            ifo = gates[..., :3 * n]
            ifo *= 0.5
            ifo += 0.5
            c_new, h = cs[:, t + 1], hs[:, t + 1]
            np.multiply(ifo[..., n:2 * n], c, out=c_new)
            c_new += ifo[..., :n] * gates[..., 3 * n:]
            np.tanh(c_new, out=h)
            h *= ifo[..., 2 * n:]
            c = c_new
    return hs[:, 1:], {"kind": kind, "x": x, "h": hs, "c": cs}


def _cell_backward(weights, cache: dict, dH: np.ndarray):
    """BPTT through `_cell_forward` from grads dH [D, L, B, h] on its states.
    Returns ((dW, dU, db) stacked, dx [D, L, B, d])."""
    W, U, b = weights
    x, h_prev = cache["x"], cache["h"][:, :-1]
    D, L, B, n = h_prev.shape
    a = _project(x, W, b)
    da = np.empty_like(a)
    dh = dc = np.zeros((D, B, n))
    if cache["kind"] == "gru":
        U_zr, U_h = U[:, :2 * n], U[:, 2 * n:]
        zr = sigmoid(a[..., :2 * n] + _times(h_prev, U_zr.swapaxes(1, 2)))
        z, r = zr[..., :n], zr[..., n:]
        rh = r * h_prev
        cand = np.tanh(a[..., 2 * n:] + _times(rh, U_h.swapaxes(1, 2)))
        k_zr = np.concatenate([(h_prev - cand) * z * (1.0 - z), h_prev * r * (1.0 - r)], axis=3)
        k_h = (1.0 - z) * (1.0 - cand * cand)
        for t in range(L - 1, -1, -1):
            dh = dH[:, t] + dh
            da[:, t, :, 2 * n:] = da_h = dh * k_h[:, t]
            drh = da_h @ U_h
            da[:, t, :, :2 * n] = da_zr = np.concatenate([dh, drh], axis=2) * k_zr[:, t]
            dh = dh * z[:, t] + drh * r[:, t] + da_zr @ U_zr
        dU = np.concatenate([_outer_sum(da[..., :2 * n], h_prev), _outer_sum(da[..., 2 * n:], rh)], axis=1)
    else:
        pre = a + _times(h_prev, U.swapaxes(1, 2))
        i, f, o = (sigmoid(pre[..., k * n:(k + 1) * n]) for k in range(3))
        cand, tc = np.tanh(pre[..., 3 * n:]), np.tanh(cache["c"][:, 1:])
        k = np.concatenate([cand * i * (1.0 - i), cache["c"][:, :-1] * f * (1.0 - f),
                            tc * o * (1.0 - o), i * (1.0 - cand * cand)], axis=3)
        k_c = o * (1.0 - tc * tc)
        for t in range(L - 1, -1, -1):
            dh = dH[:, t] + dh
            dc = dc + dh * k_c[:, t]
            da[:, t] = da_t = np.concatenate([dc, dc, dh, dc], axis=2) * k[:, t]
            dc = dc * f[:, t]
            dh = da_t @ U
        dU = _outer_sum(da, h_prev)
    return (_outer_sum(da, x), dU, da.sum(axis=(1, 2))), _times(da, W)


def init_bidirectional(params: ModelParameters, prefix: str, cell_kind: str, d: int, h: int) -> None:
    """W, U and b (zero) of a two-direction cell. The Glorot blocks are drawn per
    direction, per gate: W's (h, d) block, then U's (h, h) block."""
    G = len(GATES[cell_kind]) * h
    W = params.add_zeros(f"{prefix}W", (2, G, d))
    U = params.add_zeros(f"{prefix}U", (2, G, h))
    params.add_zeros(f"{prefix}b", (2, G))
    for k in range(2):
        for rows in range(0, G, h):
            W[k, rows:rows + h] = params.glorot((h, d))
            U[k, rows:rows + h] = params.glorot((h, h))


def bidirectional_encode_batch(cell_kind: str, params, prefix: str, xs: list[np.ndarray]) -> tuple[np.ndarray, dict]:
    """Encode the sequences xs[b] ([n_b, d]) as one padded batch: states
    [B, L, 2h] with L = max n_b, zero at padded positions. Both directions
    run in one time loop: the D=2 cell over x and each sequence reversed."""
    if not xs or any(x.ndim != 2 or x.shape[0] == 0 for x in xs):
        raise EmptySequence("bidirectional_encode needs at least one position")
    lengths = np.array([x.shape[0] for x in xs])
    steps = np.arange(lengths.max())[:, None]
    mask = steps < lengths  # [L, B]
    cols = np.arange(len(xs))
    rev = np.where(mask, lengths - 1 - steps, steps)  # [L, B], its own inverse
    x = np.zeros((2,) + mask.shape + (xs[0].shape[1],))
    for b, seq in enumerate(xs):
        x[0, :len(seq), b] = seq
    x[1] = x[0, rev, cols]
    states, cell = _cell_forward(cell_kind, _weights(params, prefix), x)
    out = np.concatenate([states[0], states[1, rev, cols]], axis=2)
    out[~mask] = 0.0
    return out.swapaxes(0, 1), {"prefix": prefix, "cell": cell, "mask": mask, "rev": rev}


def bidirectional_encode(cell_kind: str, params, prefix: str, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """The B=1 case of `bidirectional_encode_batch`: x [len, d] -> [len, 2h]."""
    out, cache = bidirectional_encode_batch(cell_kind, params, prefix, [x])
    return out[0], cache


def bidirectional_backward(params, cache: dict, grad_out: np.ndarray) -> tuple[Grads, np.ndarray]:
    """BPTT through both directions in one time loop; returns (param grads, grad_x). grad_out is
    [len, 2h] after `bidirectional_encode` and [B, L, 2h] after `bidirectional_encode_batch`;
    grad_x matches."""
    prefix, mask, rev = cache["prefix"], cache["mask"], cache["rev"]
    g = np.where(mask[..., None], grad_out.swapaxes(0, 1) if grad_out.ndim == 3 else grad_out[:, None], 0.0)
    n, cols = g.shape[2] // 2, np.arange(g.shape[1])
    grads, dxs = _cell_backward(_weights(params, prefix), cache["cell"], np.stack([g[..., :n], g[rev, cols, n:]]))
    dx = dxs[0] + dxs[1, rev, cols]
    named = dict(zip((f"{prefix}W", f"{prefix}U", f"{prefix}b"), grads))
    return named, dx.swapaxes(0, 1) if grad_out.ndim == 3 else dx[:, 0]


# ---------------------------------------------------------------------------
# scaled dot-product attention
# ---------------------------------------------------------------------------

def attention(query: np.ndarray, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """weights = softmax(keys . query / sqrt(d)); context = weights^T values."""
    if keys.ndim != 2 or keys.shape[0] == 0:
        raise EmptySequence("attention needs at least one key")
    if keys.shape[0] != values.shape[0] or keys.shape[1] != query.shape[0]:
        raise ShapeMismatch(f"attention: q{query.shape} K{keys.shape} V{values.shape}")
    scale = 1.0 / np.sqrt(query.shape[0])
    scores = keys @ query * scale
    weights = softmax(scores)
    context = weights @ values
    cache = {"query": query, "keys": keys, "values": values, "weights": weights, "scale": scale}
    return context, weights, cache


def attention_backward(cache: dict, grad_context: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_query, grad_keys, grad_values)."""
    q, K, V, w, scale = cache["query"], cache["keys"], cache["values"], cache["weights"], cache["scale"]
    dV = np.outer(w, grad_context)
    ds = softmax_backward(w, V @ grad_context)
    dK = np.outer(ds, q) * scale
    dq = (K.T @ ds) * scale
    return dq, dK, dV


# ---------------------------------------------------------------------------
# layer normalization
# ---------------------------------------------------------------------------

_LN_EPS = 1e-12


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, dict]:
    """Per-row normalization to mean 0 / variance 1, then affine scale/shift."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mean) * inv
    y = gamma * xhat + beta
    return y, {"xhat": xhat, "inv": inv, "gamma": gamma}


def layer_norm_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_x, grad_gamma, grad_beta)."""
    xhat, inv, gamma = cache["xhat"], cache["inv"], cache["gamma"]
    d = xhat.shape[-1]
    dgamma = (grad_out * xhat).sum(axis=tuple(range(grad_out.ndim - 1)))
    dbeta = grad_out.sum(axis=tuple(range(grad_out.ndim - 1)))
    dxhat = grad_out * gamma
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# transformer encoder layer (post-norm, ReLU feed-forward), over one sequence
# [n, d] or C sequences zero-padded to [C, n, d] under a key mask [C, n]: all
# heads of all sequences attend in one batched matmul, masked keys score -inf,
# and padded positions' outputs are zeroed and their gradients dropped
# ---------------------------------------------------------------------------

def init_transformer_layer(params: ModelParameters, prefix: str, d: int, heads: int) -> None:
    if d % heads != 0:
        raise ShapeMismatch(f"model dim {d} not divisible by {heads} heads")
    d_ff = 4 * d
    for name in ("Wq", "Wk", "Wv", "Wo"):
        params.add(f"{prefix}{name}", (d, d))
    # no key bias: a shared offset on every key cancels in the row softmax
    for name in ("bq", "bv", "bo"):
        params.add_zeros(f"{prefix}{name}", (d,))
    params.add(f"{prefix}W1", (d_ff, d))
    params.add_zeros(f"{prefix}b1", (d_ff,))
    params.add(f"{prefix}W2", (d, d_ff))
    params.add_zeros(f"{prefix}b2", (d,))
    for name in ("ln1_g", "ln2_g"):
        params.add_zeros(f"{prefix}{name}", (d,))
        params.entries[f"{prefix}{name}"][:] = 1.0
    for name in ("ln1_b", "ln2_b"):
        params.add_zeros(f"{prefix}{name}", (d,))


def _split_heads(rows: np.ndarray, C: int, heads: int) -> np.ndarray:
    """Rows [C*n, d] -> [C, heads, n, d/heads] (a view)."""
    return rows.reshape(C, -1, heads, rows.shape[1] // heads).swapaxes(1, 2)


def _mha_forward(params, prefix: str, x: np.ndarray, mask: np.ndarray, heads: int) -> tuple[np.ndarray, dict]:
    """Self-attention over rows x [C*n, d] of C sequences; mask [C, n] marks the real keys."""
    g = lambda n: params[prefix + n]
    C = mask.shape[0]
    scale = 1.0 / np.sqrt(x.shape[1] // heads)
    Q = _split_heads(x @ g("Wq").T + g("bq"), C, heads)
    K = _split_heads(x @ g("Wk").T, C, heads)
    V = _split_heads(x @ g("Wv").T + g("bv"), C, heads)
    A = softmax(np.where(mask[:, None, None, :], Q @ K.swapaxes(2, 3) * scale, -np.inf), axis=-1)
    O = (A @ V).swapaxes(1, 2).reshape(x.shape)
    out = O @ g("Wo").T + g("bo")
    return out, {"x": x, "Q": Q, "K": K, "V": V, "A": A, "O": O, "scale": scale}


def _mha_backward(params, prefix: str, cache: dict, grad_out: np.ndarray) -> tuple[Grads, np.ndarray]:
    g = lambda name: params[prefix + name]
    x, Q, K, V, A, scale = cache["x"], cache["Q"], cache["K"], cache["V"], cache["A"], cache["scale"]
    C, heads = A.shape[:2]
    grads: Grads = {
        prefix + "Wo": grad_out.T @ cache["O"],
        prefix + "bo": grad_out.sum(axis=0),
    }
    dO = _split_heads(grad_out @ g("Wo"), C, heads)
    dS = softmax_backward(A, dO @ V.swapaxes(2, 3), axis=-1)
    per_head = {"Wq": dS @ K * scale, "Wk": dS.swapaxes(2, 3) @ Q * scale, "Wv": A.swapaxes(2, 3) @ dO}
    dx = 0.0
    for name, dmat in per_head.items():
        dmat = dmat.swapaxes(1, 2).reshape(x.shape)
        grads[prefix + name] = dmat.T @ x
        if name != "Wk":
            grads[prefix + "b" + name[1]] = dmat.sum(axis=0)
        dx = dx + dmat @ g(name)
    return grads, dx


def transformer_encoder_layer(params, prefix: str, x: np.ndarray, heads: int,
                              mask: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Self-attention + residual + layer norm, then FFN + residual + layer norm, over x [n, d]
    or [C, n, d]; mask (default all True) has x's leading shape, True at real positions."""
    g = lambda n: params[prefix + n]
    if x.ndim not in (2, 3) or x.shape[-1] % heads != 0 or (mask is not None and mask.shape != x.shape[:-1]):
        raise ShapeMismatch(f"transformer layer: x{x.shape} with {heads} heads, mask {getattr(mask, 'shape', None)}")
    mask = np.ones(x.shape[:-1], dtype=bool) if mask is None else mask
    rows = x.reshape(-1, x.shape[-1])
    a, mha_cache = _mha_forward(params, prefix, rows, mask.reshape(-1, x.shape[-2]), heads)
    r1 = rows + a
    n1, ln1_cache = layer_norm(r1, g("ln1_g"), g("ln1_b"))
    pre = n1 @ g("W1").T + g("b1")
    hidden = np.maximum(pre, 0.0)
    f = hidden @ g("W2").T + g("b2")
    r2 = n1 + f
    y, ln2_cache = layer_norm(r2, g("ln2_g"), g("ln2_b"))
    cache = {"mha": mha_cache, "ln1": ln1_cache, "ln2": ln2_cache, "n1": n1, "pre": pre,
             "hidden": hidden, "prefix": prefix, "keep": mask[..., None]}
    return y.reshape(x.shape) * cache["keep"], cache


def transformer_encoder_layer_backward(params, cache: dict, grad_out: np.ndarray) -> tuple[Grads, np.ndarray]:
    prefix = cache["prefix"]
    g = lambda n: params[prefix + n]
    n1, pre, hidden = cache["n1"], cache["pre"], cache["hidden"]

    dr2, dg2, db2 = layer_norm_backward((grad_out * cache["keep"]).reshape(n1.shape), cache["ln2"])
    grads: Grads = {prefix + "ln2_g": dg2, prefix + "ln2_b": db2}

    df = dr2
    dn1 = dr2.copy()
    dhidden = df @ g("W2")
    grads[prefix + "W2"] = df.T @ hidden
    grads[prefix + "b2"] = df.sum(axis=0)
    dpre = dhidden * (pre > 0)
    grads[prefix + "W1"] = dpre.T @ n1
    grads[prefix + "b1"] = dpre.sum(axis=0)
    dn1 += dpre @ g("W1")

    dr1, dg1, db1 = layer_norm_backward(dn1, cache["ln1"])
    grads[prefix + "ln1_g"] = dg1
    grads[prefix + "ln1_b"] = db1

    mha_grads, dx = _mha_backward(params, prefix, cache["mha"], dr1)
    accumulate(grads, mha_grads)
    return grads, (dx + dr1).reshape(grad_out.shape)
