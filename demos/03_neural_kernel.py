"""Tour of the double-precision neural kernel.

Every layer ships its own backward pass; grad_check compares analytic
gradients against central finite differences.
"""

import numpy as np

from openqa import nn

rng = np.random.default_rng(0)

print("-- Glorot-initialized parameters --")
params = nn.ModelParameters(rng_seed=42)
W = params.add("W", (8, 16))
print(f"W[8,16]: bound ±{np.sqrt(6 / (16 + 8)):.3f}, observed max |w| = {np.abs(W).max():.3f}")

print("\n-- gradient check: bidirectional GRU --")
params = nn.ModelParameters(rng_seed=1)
nn.init_bidirectional(params, "g.", "gru", d=6, h=4)
x, R = rng.normal(size=(3, 6)), rng.normal(size=(3, 8))

def gru_loss(p):
    states, cache = nn.bidirectional_encode("gru", p, "g.", x)
    grads, _ = nn.bidirectional_backward(p, cache, R)
    return float((states * R).sum()), grads

print(f"max relative error: {nn.grad_check(gru_loss, params):.2e}")

print("\n-- gradient check: transformer encoder layer --")
params = nn.ModelParameters(rng_seed=2)
nn.init_transformer_layer(params, "t.", d=8, heads=2)
x, R = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))

def transformer_loss(p):
    y, cache = nn.transformer_encoder_layer(p, "t.", x, heads=2)
    grads, _ = nn.transformer_encoder_layer_backward(p, cache, R)
    return float((y * R).sum()), grads

print(f"max relative error: {nn.grad_check(transformer_loss, params):.2e}")

print("\n-- attention is shift-invariant through the softmax --")
keys = rng.normal(size=(4, 8))
_, weights, _ = nn.attention(rng.normal(size=8), keys, keys)
print("attention weights:", np.round(weights, 3), "sum =", weights.sum())
