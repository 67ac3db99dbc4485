"""Flat key=value experiment configuration.

Files are UTF-8 text, one ``key = value`` pair per line, '#' starts a
comment. Unknown keys, unknown choices and out-of-range numbers are rejected
at parse time, naming the key, so typos fail before any work is done; every
run can log the fully-resolved configuration via ``resolved_text``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError
from .switch import SWITCH_MODES


@dataclass
class ExperimentConfig:
    # randomness
    seed: int = 0
    # dataset
    data: str = "synthetic"          # synthetic | mnist
    dims: tuple = (100, 20)          # synthetic (d_x, d_h)
    n: int = 4000                    # synthetic dataset size
    mnist_images: str = ""
    mnist_labels: str = ""
    mnist_test_images: str = ""
    mnist_test_labels: str = ""
    subset: int = 0                  # 0 = use everything
    val_fraction: float = 0.1
    # model
    arch: str = "mlp"                # mlp | lenet5
    widths: tuple = (20, 50, 800, 500)
    # baseline training
    train_epochs: int = 1
    train_batch_size: int = 100
    train_lr: float = 0.05
    train_momentum: float = 0.9
    # switch training
    alpha0: float = 0.5
    estimator: str = "analytic"      # analytic | implicit
    k: int = 1
    kl_weight: float = -1.0          # -1 means 1/N
    mode: str = "per_layer"          # per_layer | joint
    epochs: int = 1
    batch_size: int = 100
    lr: float = 0.1
    # ranking / pruning
    method: str = "dirichlet"        # dirichlet | l1 | l2 | derivative | random
    keep_counts: tuple = ()
    rate: float = 0.0                # 0 means use keep_counts
    # fine-tuning
    finetune_epochs: int = 1
    finetune_batch_size: int = 100
    finetune_lr: float = 0.01
    finetune_momentum: float = 0.9
    # feature-map export
    layer: int = 0
    image_index: int = 0
    # artifact paths
    out_dir: str = "out"
    model_in: str = ""
    model_out: str = ""
    switches_path: str = ""
    ranking_path: str = ""
    plan_path: str = ""


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
# the one list of each key's allowed values; the pipeline dispatches on them
_CHOICES = {
    "data": ("synthetic", "mnist"),
    "arch": ("mlp", "lenet5"),
    "estimator": ("analytic", "implicit"),
    "mode": SWITCH_MODES,
    "method": ("dirichlet", "l1", "l2", "derivative", "random"),
}
# prunable layers of each built arch: one keep_counts entry each
_PRUNABLE_LAYERS = {"mlp": 1, "lenet5": 4}


def _coerce(name: str, text: str):
    kind = _FIELDS[name].type
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "tuple":
            if not text.strip():
                return ()
            parts = [p.strip() for p in text.split(",") if p.strip()]
            return tuple(int(p) for p in parts)
        return text
    except ValueError:
        raise ConfigError(f"key {name!r}: cannot parse {text!r}") from None


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = dataclasses.replace(base) if base is not None else ExperimentConfig()
    unknown = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            unknown.append(key)
            continue
        setattr(cfg, key, _coerce(key, value))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(set(unknown)))}")
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming the first key with an unknown choice or a
    value out of range."""
    for key, choices in _CHOICES.items():
        if getattr(cfg, key) not in choices:
            raise choice_error(cfg, key)
    checks = (
        ("rate", 0.0 <= cfg.rate < 1.0, "0 <= rate < 1"),
        ("val_fraction", 0.0 <= cfg.val_fraction < 1.0, "0 <= val_fraction < 1"),
        ("train_lr", cfg.train_lr > 0.0, "train_lr > 0"),
        ("lr", cfg.lr > 0.0, "lr > 0"),
        ("finetune_lr", cfg.finetune_lr > 0.0, "finetune_lr > 0"),
        ("k", cfg.k >= 1, "k >= 1"),
        ("alpha0", cfg.alpha0 > 0.0, "alpha0 > 0"),
        ("kl_weight", math.isfinite(cfg.kl_weight), "a finite kl_weight (< 0 selects 1/n)"),
        ("train_batch_size", cfg.train_batch_size >= 1, "train_batch_size >= 1"),
        ("batch_size", cfg.batch_size >= 1, "batch_size >= 1"),
        ("finetune_batch_size", cfg.finetune_batch_size >= 1, "finetune_batch_size >= 1"),
        ("keep_counts", all(c >= 1 for c in cfg.keep_counts), "every entry >= 1"),
        ("keep_counts", cfg.model_in or not cfg.keep_counts
         or len(cfg.keep_counts) == _PRUNABLE_LAYERS[cfg.arch],
         f"one entry per prunable layer of {cfg.arch} ({_PRUNABLE_LAYERS[cfg.arch]})"),
        ("dims", len(cfg.dims) == 2, "two values (d_x, d_h)"),
        ("widths", cfg.arch != "lenet5" or len(cfg.widths) == 4,
         "four values for lenet5 (conv1, conv2, fc1, fc2)"),
    )
    for key, ok, need in checks:
        if not ok:
            raise ConfigError(f"key {key!r}: need {need}, got {getattr(cfg, key)!r}")


def choice_error(cfg: ExperimentConfig, key: str) -> ConfigError:
    """The error for a ``key`` whose value is none of its allowed choices."""
    return ConfigError(f"key {key!r}: must be one of {', '.join(_CHOICES[key])}, "
                       f"got {getattr(cfg, key)!r}")


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read(), base)


def require(cfg: ExperimentConfig, *keys: str) -> None:
    """Raise listing every named key still at its empty default."""
    missing = []
    for key in keys:
        value = getattr(cfg, key)
        if value == "" or value == ():
            missing.append(key)
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")


def resolved_text(cfg: ExperimentConfig) -> str:
    lines = []
    for name in sorted(_FIELDS):
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"
