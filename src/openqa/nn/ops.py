"""Basic tensor ops: stable softmax, cross entropy, cosine."""

from __future__ import annotations

import numpy as np

from ..errors import IndexOutOfRange


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis` (max subtraction)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(y: np.ndarray, grad_y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output y and upstream grad."""
    dot = np.sum(grad_y * y, axis=axis, keepdims=True)
    return y * (grad_y - dot)


_CLAMP = 1e-12


def cross_entropy(probabilities: np.ndarray, gold: int) -> float:
    """-log p[gold] with the probability clamped at 1e-12."""
    p = np.asarray(probabilities, dtype=np.float64)
    if gold < 0 or gold >= p.shape[-1]:
        raise IndexOutOfRange(f"gold {gold} outside [0, {p.shape[-1]})")
    return float(-np.log(max(float(p[gold]), _CLAMP)))


def softmax_cross_entropy(logits: np.ndarray, gold: int) -> tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. logits of cross_entropy(softmax(logits), gold)."""
    p = softmax(logits)
    loss = cross_entropy(p, gold)
    grad = p.copy()
    grad[gold] -= 1.0
    return loss, grad


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u)) + _CLAMP
    nv = float(np.linalg.norm(v)) + _CLAMP
    return float(np.dot(u, v) / (nu * nv))


def cosine_backward(u: np.ndarray, v: np.ndarray, grad: float) -> tuple[np.ndarray, np.ndarray]:
    nu = float(np.linalg.norm(u)) + _CLAMP
    nv = float(np.linalg.norm(v)) + _CLAMP
    c = float(np.dot(u, v) / (nu * nv))
    du = grad * (v / (nu * nv) - c * u / (nu * nu))
    dv = grad * (u / (nu * nv) - c * v / (nv * nv))
    return du, dv


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic as 1/2 tanh(x/2) + 1/2: one overflow-free ufunc, and the
    identity the recurrent cells compute their gates with."""
    return 0.5 * np.tanh(0.5 * np.asarray(x, dtype=np.float64)) + 0.5
