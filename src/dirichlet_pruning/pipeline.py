"""Batch experiment pipeline: data, phases, artifacts.

run_pipeline chains train -> switch-train -> rank -> plan -> prune ->
finetune -> eval and drops its artifacts (resolved config, ranking CSV, plan
JSON, pruned/finetuned models, metrics CSV) into the configured output
directory. Any phase failure aborts with the phase name and cause. Each
phase is one function here, and the CLI subcommands call the same ones.

Deterministic outputs (metrics, rankings, plans, models) depend only on
(config, seed); wall-clock numbers go to a separate timings CSV so the
deterministic files are byte-stable across reruns.

Progress lines (each phase's seconds here, each epoch in the training
loops) go to the ``dirichlet_pruning`` logger at INFO. The library adds no
handler, so they show only where the caller configures logging; the CLI
prints them to stdout.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config import (ExperimentConfig, choice_error, require, resolved_text,
                     validate_config)
from .data import load_mnist_idx, train_val_split
from .errors import ConfigError, ContractError, PipelineError
from .models import (ModelGraph, TrainSchedule, build_lenet5, build_mlp,
                     count_flops, count_params, evaluate, forward, load_model,
                     output_width, prunable_indices, save_model, train_model)
from .pgm import to_u8, write_pgm
from .pruning import (PruningPlan, RankingReport, apply_plan, finetune,
                      make_plan, plan_to_json, rank_derivative, rank_dirichlet,
                      rank_magnitude, rank_random, ranking_to_csv)
from .switch import (AnalyticMean, ImplicitMC, SwitchTrainSchedule,
                     init_switch_states, posterior_report, save_states,
                     train_switches)
from .synthetic import gen_synthetic, task_model

logger = logging.getLogger(__name__)


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int


class _Phases:
    """Wraps each phase for timing, error attribution and a progress line."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def run(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        except Exception as e:
            raise PipelineError(f"phase {name!r} failed: {e}") from e
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        logger.info("phase %s: %.2fs", name, self.seconds[name])


def load_dataset(cfg: ExperimentConfig, rng) -> Dataset:
    if cfg.data == "synthetic":
        d_x, d_h = cfg.dims
        n_test = max(2, (cfg.n // 4) // 2 * 2)
        task, x, y = gen_synthetic(d_x, d_h, cfg.n + n_test, rng)
        x_train, y_train = x[:cfg.n], y[:cfg.n]
        x_test, y_test = x[cfg.n:], y[cfg.n:]
    elif cfg.data == "mnist":
        require(cfg, "mnist_images", "mnist_labels", "mnist_test_images", "mnist_test_labels")
        x_train, y_train = load_mnist_idx(cfg.mnist_images, cfg.mnist_labels)
        x_test, y_test = load_mnist_idx(cfg.mnist_test_images, cfg.mnist_test_labels)
        if cfg.subset > 0:
            x_train, y_train = x_train[:cfg.subset], y_train[:cfg.subset]
    else:
        raise choice_error(cfg, "data")
    x_train, y_train, x_val, y_val = train_val_split(x_train, y_train, cfg.val_fraction, rng)
    n_classes = int(max(y_train.max(), y_test.max())) + 1
    return Dataset(x_train, y_train, x_val, y_val, x_test, y_test, n_classes)


def artifact_path(cfg: ExperimentConfig, key: str, default_name: str) -> str:
    """The path configured under ``key``, else ``default_name`` in out_dir."""
    return getattr(cfg, key) or os.path.join(cfg.out_dir, default_name)


def write_resolved_config(cfg: ExperimentConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "resolved_config.txt"), "w") as f:
        f.write(resolved_text(cfg))


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# phases: run_pipeline and every CLI subcommand call these


def build_or_load_model(cfg: ExperimentConfig, dataset: Dataset, rng) -> ModelGraph:
    """The model_in model, else a fresh one of the configured arch. Raises
    ConfigError, naming the key the model came from, if it has fewer outputs
    than the data has classes."""
    if cfg.model_in:
        model, key = load_model(cfg.model_in), "model_in"
    elif cfg.arch == "lenet5":
        model, key = build_lenet5(cfg.widths, rng=rng, seed=cfg.seed), "arch"
    elif cfg.arch == "mlp":
        d_x, d_h = cfg.dims
        model, key = build_mlp(d_x, d_h, dataset.n_classes, rng=rng, seed=cfg.seed), "arch"
    else:
        raise choice_error(cfg, "arch")
    width = output_width(model)
    if width < dataset.n_classes:
        raise ConfigError(f"key {key!r}: the model has {width} outputs, but the "
                          f"data has {dataset.n_classes} classes")
    return model


def train_from_config(cfg: ExperimentConfig, model: ModelGraph, dataset: Dataset,
                      rng) -> list[float]:
    """Baseline SGD on the training split under the configured train_* schedule."""
    return train_model(model, dataset.x_train, dataset.y_train,
                       TrainSchedule(cfg.train_epochs, cfg.train_batch_size,
                                     cfg.train_lr, cfg.train_momentum), rng)


def estimator_from(cfg: ExperimentConfig):
    if cfg.estimator == "analytic":
        return AnalyticMean()
    if cfg.estimator == "implicit":
        return ImplicitMC(cfg.k)
    raise choice_error(cfg, "estimator")


def train_switches_from_config(cfg: ExperimentConfig, model: ModelGraph, states,
                               x, y, rng):
    """Fit the switch posteriors under the configured SwitchTrainSchedule; a
    negative kl_weight selects the default 1/n."""
    schedule = SwitchTrainSchedule(cfg.mode, cfg.epochs, cfg.batch_size, cfg.lr,
                                   estimator_from(cfg), cfg.alpha0,
                                   None if cfg.kl_weight < 0 else cfg.kl_weight)
    return train_switches(model, states, x, y, schedule, rng)


def rank_by_method(cfg: ExperimentConfig, model: ModelGraph, states,
                   dataset: Dataset, rng) -> RankingReport:
    if cfg.method == "dirichlet":
        if not states:
            raise ContractError("dirichlet ranking needs trained switch states")
        return rank_dirichlet(states)
    if cfg.method in ("l1", "l2"):
        return rank_magnitude(model, cfg.method.upper())
    if cfg.method == "derivative":
        nb = min(cfg.batch_size, dataset.x_train.shape[0])
        return rank_derivative(model, dataset.x_train[:nb], dataset.y_train[:nb])
    if cfg.method == "random":
        return rank_random(model, rng)
    raise choice_error(cfg, "method")


def plan_from_config(cfg: ExperimentConfig, report: RankingReport) -> PruningPlan:
    """The plan a ranking gives under the configured rate or keep_counts."""
    if cfg.rate > 0.0:
        return make_plan(report, rate=cfg.rate)
    if cfg.keep_counts:
        return make_plan(report, keep_counts=list(cfg.keep_counts))
    raise ConfigError("need keep_counts or rate")


def prune_with_states(model: ModelGraph, plan: PruningPlan, states) -> ModelGraph:
    """The physically pruned model, each switch folded in at its posterior mean."""
    means = {st.layer: st.posterior_mean() for st in states}
    return apply_plan(model, plan, switch_means=means)


def finetune_from_config(cfg: ExperimentConfig, model: ModelGraph, dataset: Dataset,
                         rng) -> tuple[ModelGraph, float]:
    """Fine-tuning under the configured finetune_* schedule: (best model,
    its validation error %)."""
    return finetune(model, dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val,
                    TrainSchedule(cfg.finetune_epochs, cfg.finetune_batch_size,
                                  cfg.finetune_lr, cfg.finetune_momentum), rng)


@dataclass
class PipelineResult:
    out_dir: str
    arch_string: str
    baseline_error: float
    prefinetune_error: float
    final_error: float
    params: int
    flops: int
    phase_seconds: dict[str, float] = field(default_factory=dict)
    pruned_model_path: str = ""
    ranking_path: str = ""
    plan_path: str = ""
    metrics_path: str = ""


def run_pipeline(cfg: ExperimentConfig) -> PipelineResult:
    validate_config(cfg)
    write_resolved_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    phases = _Phases()

    with phases.run("data"):
        dataset = load_dataset(cfg, rng)

    with phases.run("train"):
        model = build_or_load_model(cfg, dataset, rng)
        if not cfg.model_in and cfg.train_epochs > 0:
            train_from_config(cfg, model, dataset, rng)
        baseline_error = evaluate(model, dataset.x_test, dataset.y_test)

    with phases.run("switch_train"):
        states = init_switch_states(model)
        if states and cfg.epochs > 0:
            train_switches_from_config(cfg, model, states, dataset.x_train,
                                       dataset.y_train, rng)
        save_states(states, artifact_path(cfg, "switches_path", "switches.json"))

    with phases.run("rank"):
        report = rank_by_method(cfg, model, states, dataset, rng)
        ranking_path = artifact_path(cfg, "ranking_path", "ranking.csv")
        ranking_to_csv(report, ranking_path)

    with phases.run("plan"):
        plan = plan_from_config(cfg, report)
        plan_path = artifact_path(cfg, "plan_path", "plan.json")
        plan_to_json(plan, plan_path)

    with phases.run("prune"):
        pruned = prune_with_states(model, plan, states)
        prefinetune_error = evaluate(pruned, dataset.x_test, dataset.y_test)
        pruned_path = os.path.join(cfg.out_dir, "pruned.dpm1")
        save_model(pruned, pruned_path)

    with phases.run("finetune"):
        if cfg.finetune_epochs > 0:
            pruned, _ = finetune_from_config(cfg, pruned, dataset, rng)
        save_model(pruned, artifact_path(cfg, "model_out", "finetuned.dpm1"))

    with phases.run("eval"):
        final_error = evaluate(pruned, dataset.x_test, dataset.y_test)

    result = PipelineResult(
        out_dir=cfg.out_dir,
        arch_string=pruned.arch_string,
        baseline_error=baseline_error,
        prefinetune_error=prefinetune_error,
        final_error=final_error,
        params=count_params(pruned),
        flops=count_flops(pruned),
        phase_seconds=dict(phases.seconds),
        pruned_model_path=pruned_path,
        ranking_path=ranking_path,
        plan_path=plan_path,
        metrics_path=os.path.join(cfg.out_dir, "metrics.csv"),
    )
    _write_csv(result.metrics_path, ["metric", "value"], [
        ("arch_string", result.arch_string),
        ("baseline_error_percent", repr(baseline_error)),
        ("prefinetune_error_percent", repr(prefinetune_error)),
        ("error_percent", repr(final_error)),
        ("params", result.params),
        ("flops", result.flops),
    ])
    _write_csv(os.path.join(cfg.out_dir, "timings.csv"), ["phase", "seconds"],
               [(name, f"{secs:.6f}") for name, secs in phases.seconds.items()])
    return result


# ---------------------------------------------------------------------------
# posterior comparison experiment


@dataclass
class PosteriorCompareResult:
    true_switch: np.ndarray
    mean_mc: np.ndarray
    std_mc: np.ndarray
    mean_am: np.ndarray
    std_am: np.ndarray
    epoch_seconds_mc: list[float]
    epoch_seconds_am: list[float]
    csv_path: str = ""
    timings_path: str = ""


def run_posterior_compare(cfg: ExperimentConfig) -> PosteriorCompareResult:
    """Train the same frozen true-weight model twice, once per estimator,
    and report per-channel posterior mean/std next to the simulated truth."""
    d_x, d_h = cfg.dims
    rng = np.random.default_rng(cfg.seed)
    task, x, y = gen_synthetic(d_x, d_h, cfg.n, rng)
    model = task_model(task)

    def train(estimator, seed):
        run_cfg = dataclasses.replace(cfg, estimator=estimator)
        states = init_switch_states(model)
        hist = train_switches_from_config(run_cfg, model, states, x, y,
                                          np.random.default_rng(seed))
        mean, std = posterior_report(states[0])
        return mean, std, [h.seconds for h in hist]

    mean_mc, std_mc, secs_mc = train("implicit", cfg.seed + 1)
    mean_am, std_am, secs_am = train("analytic", cfg.seed + 2)

    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "posterior_compare.csv")
    _write_csv(csv_path, ["channel", "true_switch", "mean_mc", "std_mc", "mean_am", "std_am"],
               [[c, repr(float(task.true_switch[c])),
                 repr(float(mean_mc[c])), repr(float(std_mc[c])),
                 repr(float(mean_am[c])), repr(float(std_am[c]))] for c in range(d_h)])
    timings_path = os.path.join(cfg.out_dir, "posterior_compare_timings.csv")
    rows = [(f"implicit_mc_k{cfg.k}", i, f"{s:.6f}") for i, s in enumerate(secs_mc, start=1)]
    rows += [("analytic_mean", i, f"{s:.6f}") for i, s in enumerate(secs_am, start=1)]
    _write_csv(timings_path, ["estimator", "epoch", "seconds"], rows)
    return PosteriorCompareResult(task.true_switch, mean_mc, std_mc, mean_am,
                                  std_am, secs_mc, secs_am, csv_path, timings_path)


# ---------------------------------------------------------------------------
# feature-map export


def export_feature_maps(model: ModelGraph, image, layer_index: int, out_dir,
                        report: RankingReport | None = None) -> list[str]:
    """One min-max-normalized PGM per channel of the layer's output map,
    filenames prefixed by rank (from the report if given, else by channel
    index)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        image = image[None]
    if image.ndim != 4 or image.shape[0] != 1:
        raise ContractError(f"need one (C, H, W) image, got shape {image.shape}")
    if not 0 <= layer_index < len(model.layers):
        raise ContractError(f"layer index {layer_index} outside graph "
                            f"of {len(model.layers)} layers")
    maps = forward(model, image, stop=layer_index + 1).data
    if maps.ndim != 4:
        raise ContractError(f"layer {layer_index} has no spatial output "
                            f"(shape {maps.shape[1:]})")
    order = np.arange(maps.shape[1])
    if report is not None:
        ordinals = {gi: o for o, gi in enumerate(prunable_indices(model))}
        if layer_index not in ordinals:
            raise ContractError(f"layer {layer_index} has no ranking entry")
        order = report.layer(ordinals[layer_index]).order
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for rank, channel in enumerate(order):
        path = os.path.join(out_dir, f"map_{rank:03d}_channel_{int(channel):03d}.pgm")
        write_pgm(path, to_u8(maps[0, int(channel)]))
        paths.append(path)
    return paths
