"""Named parameter collections: initialization, serialization, SGD, the training loop, grad check;
and `Model`, a collection bound to the vocabulary it reads.

Everything is float64. Initialization is uniform(-r, r) with
r = sqrt(6 / (fan_in + fan_out)) from a generator seeded by a recorded
64-bit seed, so a saved model can be re-derived from its seed.

A model file is numpy's own .npz archive: one float64 .npy entry per
parameter, in order, and a META entry. Only this module knows the format.
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import Diverged, EmptyDataset, ShapeMismatch
from ..text import Vocabulary

Grads = dict[str, np.ndarray]
META = "__meta__"  # the archive entry that holds rng_seed and arch as a JSON string


class ModelParameters:
    """Ordered name -> float64 array map plus the seed it was built from."""

    def __init__(self, rng_seed: int = 0, arch: dict | None = None, draw: bool = True):
        """With draw=False nothing is drawn and every parameter stays zero: an
        init function then gives a model's names, shapes and arch for the cost
        of its zero arrays."""
        self.entries: dict[str, np.ndarray] = {}
        self.rng_seed = int(rng_seed)
        self.arch: dict = dict(arch or {})
        self._draw = draw
        self._rng = None  # made on the first draw, so loading a model never imports numpy.random

    def glorot(self, shape: tuple[int, ...], fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
        """The next Glorot-uniform draw from the recorded seed, not stored
        (0.0 if this collection does not draw)."""
        if not self._draw:
            return 0.0
        if self._rng is None:
            self._rng = np.random.default_rng(self.rng_seed)
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
        """One .npz archive at exactly `path`: the arrays in order, then META."""
        meta = np.array(json.dumps({"rng_seed": self.rng_seed, "arch": self.arch}))
        with open(path, "wb") as fh:  # given a bare path, np.savez would append ".npz"
            np.savez(fh, **self.entries, **{META: meta})

    @classmethod
    def load(cls, path: str) -> "ModelParameters":
        """The model `save` wrote to `path`; ValueError for any other file,
        and for one whose weights are not all finite."""
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":  # np.load would return a bare .npy as one array
                raise ValueError("not an .npz archive")
            fh.seek(0)
            # what zipfile and numpy raise on damaged bytes; numpy's text for an
            # object array advises allow_pickle=True, so only the type is kept
            try:
                with np.load(fh, allow_pickle=False) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, ValueError, tokenize.TokenError) as exc:
                raise ValueError(f"damaged .npz archive ({type(exc).__name__})") from exc
        meta = arrays.pop(META, None)
        doc = json.loads(meta.item()) if isinstance(meta, np.ndarray) and meta.dtype.kind == "U" else None
        if not (isinstance(doc, dict) and isinstance(doc.get("rng_seed"), int) and isinstance(doc.get("arch"), dict)):
            raise ValueError(f"no {META} entry holding a JSON object with an integer rng_seed and an object arch")
        other = [name for name, arr in arrays.items() if getattr(arr, "dtype", None) != np.float64]
        if other:
            raise ValueError(f"arrays that are not float64: {', '.join(other)}")
        non_finite = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
        if non_finite:
            raise ValueError(f"arrays with non-finite values: {', '.join(non_finite)}")
        out = cls(doc["rng_seed"], doc["arch"])
        out.entries.update(arrays)
        return out


@dataclass(frozen=True)
class Model:
    """A model's parameters bound to the vocabulary whose ids they read."""
    params: ModelParameters
    vocab: Vocabulary


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


def fit(params: ModelParameters, examples: Sequence, step: Callable[..., tuple[float, Grads]],
        epochs: int, lr: float) -> ModelParameters:
    """Online SGD: `epochs` passes over `examples` in order, one `sgd_step` per
    example with the gradient `step(example)` returns under the weights as they
    are then. Each epoch's summed loss goes to arch["epoch_losses"]; one that
    is not finite raises Diverged, since the weights are then past use."""
    if not examples:
        raise EmptyDataset("no training examples")
    losses: list[float] = []
    for _ in range(epochs):
        total = 0.0
        for example in examples:
            loss, grads = step(example)
            total += loss
            sgd_step(params, grads, lr)
        if not math.isfinite(total):
            raise Diverged(f"epoch {len(losses) + 1} loss is {total}: training diverged")
        losses.append(total)
    params.arch["epoch_losses"] = losses
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
