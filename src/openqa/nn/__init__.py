"""Double-precision neural kernel: tensors are numpy float64 arrays,
parameters live in named, seed-recorded collections, and every layer has
a hand-written backward pass verified by finite differences."""

from .ops import (
    cosine,
    cosine_backward,
    cross_entropy,
    sigmoid,
    softmax,
    softmax_backward,
    softmax_cross_entropy,
)
from .params import Grads, Model, ModelParameters, accumulate, fit, grad_check, sgd_step
from .layers import (
    attention,
    attention_backward,
    bidirectional_backward,
    bidirectional_encode,
    bidirectional_encode_batch,
    conv1d_backward,
    conv1d_forward,
    embedding_backward,
    embedding_lookup,
    init_bidirectional,
    init_transformer_layer,
    layer_norm,
    layer_norm_backward,
    linear_backward,
    linear_forward,
    transformer_encoder_layer,
    transformer_encoder_layer_backward,
)
