"""Shared training/model hyperparameters with desk-scale defaults. Each is
checked when a `Hyper` is built, from the config, a model's `arch` or a CLI
flag, and a bad one is a `ConfigError` naming it; later assignment is not."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


def require_int(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def require_positive(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigError(f"{name} must be a number > 0, got {value!r}")


@dataclass
class Hyper:
    d: int = 32          # embedding / model width
    h: int = 32          # recurrent hidden size
    heads: int = 2       # transformer attention heads
    layers: int = 1      # transformer encoder layers
    lr: float = 0.05
    epochs: int = 300
    seed: int = 13

    def __post_init__(self):
        for name in ("d", "h", "heads", "layers", "epochs"):
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        require_positive("lr", self.lr)
