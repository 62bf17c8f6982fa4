"""Run configuration: plain-text key=value files with '#' comments plus overrides."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .data import PhantomSpec
from .losses import LossConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Every configuration key; each field's default also fixes the type its value parses to."""
    preset: str = "tiny"
    r: int = 2
    seed: int = 0
    epochs: int = 400
    steps: int = 0                # 0 = run out the epochs
    batch_size: int = 4
    lr: float = 1e-4
    lr_halve_epochs: int = 100
    weight_decay: float = 1e-4
    precision: str = "f32"        # f32 | f64
    data_dir: str = "data"
    out_dir: str = "out"
    samples: int = 8
    # the phantom and loss keys default to the specs they feed, so each default is written once
    side: int = PhantomSpec.side
    ellipses_min: int = PhantomSpec.ellipses_min
    ellipses_max: int = PhantomSpec.ellipses_max
    blur_sigma: float = PhantomSpec.blur_sigma
    noise_sigma: float = PhantomSpec.noise_sigma
    alpha: float = LossConfig.alpha
    lam: float = LossConfig.lam

    def echo(self, path):
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n")


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_POSITIVE = ("r", "batch_size", "lr_halve_epochs", "samples", "side")
_NON_NEGATIVE = ("seed", "epochs", "steps", "ellipses_max", "blur_sigma", "noise_sigma", "lr",
                 "weight_decay", "lam")


def _coerce(key, raw):
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return type(_DEFAULTS[key])(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def load_config(path=None, overrides=()):
    values = dict(_DEFAULTS)
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _coerce(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _coerce(key, raw)
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if values["precision"] not in ("f32", "f64"):
        raise ConfigError(f"precision must be f32 or f64, got {values['precision']!r}")
    for key in _POSITIVE:
        if values[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {values[key]}")
    for key in _NON_NEGATIVE:
        if values[key] < 0:
            raise ConfigError(f"{key} must be at least 0, got {values[key]}")
    if not 0 <= values["alpha"] <= 1:
        raise ConfigError(f"alpha must lie in [0, 1], got {values['alpha']}")
    # ellipses_max = 0 draws no ellipses, whatever ellipses_min says
    if values["ellipses_max"] > 0 and not 0 <= values["ellipses_min"] <= values["ellipses_max"]:
        raise ConfigError(f"ellipses_min must be between 0 and ellipses_max "
                          f"({values['ellipses_max']}), got {values['ellipses_min']}")
    return RunConfig(**values)
