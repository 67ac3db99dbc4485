"""Flat key=value experiment configuration.

Files are UTF-8 text, one ``key = value`` pair per line, '#' starts a
comment. Unknown keys are rejected so typos fail loudly; every run can log
the fully-resolved configuration via ``resolved_text``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError


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
    return cfg


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
