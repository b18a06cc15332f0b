"""Named parameter collections: initialization, serialization, SGD, grad check.

Everything is float64. Initialization is uniform(-r, r) with
r = sqrt(6 / (fan_in + fan_out)) from a generator seeded by a recorded
64-bit seed, so a saved model can be re-derived from its seed.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from ..errors import ShapeMismatch

Grads = dict[str, np.ndarray]


class ModelParameters:
    """Ordered name -> float64 array map plus the seed it was built from."""

    def __init__(self, rng_seed: int = 0, arch: dict | None = None):
        self.entries: dict[str, np.ndarray] = {}
        self.rng_seed = int(rng_seed)
        self.arch: dict = dict(arch or {})
        self._rng = np.random.default_rng(self.rng_seed)

    def glorot(self, shape: tuple[int, ...], fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
        """The next Glorot-uniform draw from the recorded seed, not stored."""
        if fan_in is None or fan_out is None:
            if len(shape) >= 2:
                fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
            else:
                fan_in = fan_out = max(shape[0], 1) if shape else 1
        r = np.sqrt(6.0 / (fan_in + fan_out))
        return self._rng.uniform(-r, r, size=shape).astype(np.float64)

    def add(self, name: str, shape: tuple[int, ...], fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
        """Glorot-uniform initialized parameter drawn from the recorded seed."""
        arr = self.add_zeros(name, shape)
        arr[...] = self.glorot(shape, fan_in, fan_out)
        return arr

    def add_zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name in self.entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.zeros(shape, dtype=np.float64)
        self.entries[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self.entries[name]

    def save(self, path: str) -> None:
        doc: dict = {"rng_seed": self.rng_seed, "arch": self.arch}
        for name, arr in self.entries.items():
            doc[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path: str) -> "ModelParameters":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out = cls(doc.get("rng_seed", 0), doc.get("arch"))
        for name, value in doc.items():
            if name in ("rng_seed", "arch"):
                continue
            arr = np.asarray(value["data"], dtype=np.float64).reshape(value["shape"])
            out.entries[name] = arr
        return out


def accumulate(total: Grads, delta: Grads) -> None:
    """In-place total += delta for matching keys (missing keys are created)."""
    for k, v in delta.items():
        if k in total:
            total[k] += v
        else:
            total[k] = v.copy()


def sgd_step(params: ModelParameters, grads: Grads, lr: float) -> ModelParameters:
    """p <- p - lr * g; parameters without a gradient stay unchanged."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    for name, g in grads.items():
        if name not in params.entries:
            continue
        p = params.entries[name]
        if p.shape != g.shape:
            raise ShapeMismatch(f"{name}: param {p.shape} vs grad {g.shape}")
        p -= lr * g
    return params


def grad_check(
    loss_fn: Callable[[ModelParameters], tuple[float, Grads]],
    params: ModelParameters,
    step: float = 1e-5,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    `loss_fn` must return (loss, analytic grads) and be deterministic.
    Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    _, analytic = loss_fn(params)
    worst = 0.0
    for name, arr in params.entries.items():
        a_grad = analytic.get(name)
        if a_grad is None:
            a_grad = np.zeros_like(arr)
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp, _ = loss_fn(params)
            flat[i] = orig - step
            lm, _ = loss_fn(params)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            a = float(a_grad.ravel()[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
