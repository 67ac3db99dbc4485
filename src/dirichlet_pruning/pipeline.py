"""Batch experiment pipeline: data, phases, artifacts.

run_pipeline chains train -> switch-train -> rank -> plan -> prune ->
finetune -> eval and drops its artifacts (resolved config, ranking CSV, plan
JSON, pruned/finetuned models, metrics CSV) into the configured output
directory. Any phase failure aborts with the phase name and cause. Each
phase is one method of ``Run``, which also owns each artifact's path
(``ARTIFACTS``) and write; run_pipeline calls the phases in order on one
Run, and each CLI subcommand calls one on a Run it opens from the config
and the artifacts an earlier subcommand left in out_dir.

Deterministic outputs (switches, rankings, plans, models, metrics) depend
only on (config, seed, BLAS thread count); wall-clock numbers go to a
separate timings CSV so the deterministic files are byte-stable across
reruns with the same thread count. Another thread count can change the
last bits of a BLAS product, and with them switches.json, ranking.csv and
both models (a 1000x500 MLP does so between 1 and 2 OpenBLAS threads).

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
from .pruning import (PruningPlan, RankingReport, apply_plan, make_plan, plan_to_json,
                      rank_derivative, rank_dirichlet, rank_magnitude, rank_random,
                      ranking_to_csv)
from .switch import (AnalyticMean, ImplicitMC, SwitchTrainSchedule,
                     init_switch_states, load_states, posterior_report, save_states,
                     train_switches)
from .synthetic import gen_synthetic, task_model

logger = logging.getLogger(__name__)


@dataclass
class Dataset:
    """The split rows of a run. The training and validation rows are views
    of one shuffled array (for the synthetic task, the x whose last rows are
    the test rows), so no row is held twice. IDX images stay the uint8
    pixels their files store, one byte each; ``models.forward`` scales a
    batch of them to [0, 1]. Synthetic rows are float64."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int


@contextlib.contextmanager
def _phase(seconds: dict[str, float], name: str):
    """Time one phase into ``seconds``, name it in any error, log its seconds."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as e:
        raise PipelineError(f"phase {name!r} failed: {e}") from e
    seconds[name] = time.perf_counter() - t0
    logger.info("phase %s: %.2fs", name, seconds[name])


def _split_error(cfg: ExperimentConfig, n_train: int, n_val: int, need: str) -> ConfigError:
    return ConfigError(f"key 'val_fraction': {cfg.val_fraction!r} splits {n_train + n_val} "
                       f"rows into {n_train} training and {n_val} validation rows; "
                       f"need {need}")


def load_dataset(cfg: ExperimentConfig, rng) -> Dataset:
    """The configured data, split; raises ConfigError naming val_fraction if
    the split leaves no training row.

    The training rows (the first ``subset`` of an IDX file, copied so they do
    not keep the whole file alive) go through ``train_val_split``, which
    shuffles them in place, so the dataset holds no row twice."""
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
        if 0 < cfg.subset < y_train.size:  # copies, so the rows cut off are freed
            x_train, y_train = x_train[:cfg.subset].copy(), y_train[:cfg.subset].copy()
    else:
        raise choice_error(cfg, "data")
    x_train, y_train, x_val, y_val = train_val_split(x_train, y_train, cfg.val_fraction, rng)
    if y_train.size == 0:
        raise _split_error(cfg, 0, y_val.size, "a training row")
    n_classes = int(max(y_train.max(), y_test.max())) + 1
    return Dataset(x_train, y_train, x_val, y_val, x_test, y_test, n_classes)


# Each artifact's config key, which names its path, and its file name in
# out_dir while that key is empty. model_out names a command's last model.
ARTIFACTS = {
    "trained": ("model_out", "model.dpm1"),
    "switches": ("switches_path", "switches.json"),
    "ranking": ("ranking_path", "ranking.csv"),
    "plan": ("plan_path", "plan.json"),
    "pruned": ("model_out", "pruned.dpm1"),
    "finetuned": ("model_out", "finetuned.dpm1"),
}


def write_resolved_config(cfg: ExperimentConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "resolved_config.txt"), "w") as f:
        f.write(resolved_text(cfg))


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def switch_schedule(cfg: ExperimentConfig) -> SwitchTrainSchedule:
    """The configured switch training (``estimator`` a validated choice); a
    negative kl_weight selects the default 1/n."""
    estimator = ImplicitMC(cfg.k) if cfg.estimator == "implicit" else AnalyticMean()
    return SwitchTrainSchedule(cfg.epochs, cfg.batch_size, cfg.lr, estimator,
                               cfg.alpha0, None if cfg.kl_weight < 0 else cfg.kl_weight)


def prune_with_states(model: ModelGraph, plan: PruningPlan, states) -> ModelGraph:
    """The physically pruned model, each switch folded in at its posterior mean."""
    means = {st.layer: st.posterior_mean() for st in states}
    return apply_plan(model, plan, switch_means=means)


# ---------------------------------------------------------------------------
# phases: run_pipeline runs them in order, each CLI subcommand one of them


class Run:
    """One run in memory: the data, the model and its switch states. Its
    phase methods work under the configured schedule, and it writes each
    artifact at the path ``path`` resolves from ``ARTIFACTS``."""

    def __init__(self, cfg: ExperimentConfig):
        """Open the configured data and the model_in model, else a fresh one of
        the configured arch, with untrained switch states. Raises ConfigError,
        naming the key the model came from, if it takes rows of another shape
        than the data's or has fewer outputs than the data has classes."""
        validate_config(cfg)  # so arch, method and estimator hold known choices
        self.cfg = cfg
        self.rng = rng = np.random.default_rng(cfg.seed)
        self.dataset = data = load_dataset(cfg, rng)
        if cfg.model_in:
            model, key = load_model(cfg.model_in), "model_in"
        elif cfg.arch == "lenet5":
            model, key = build_lenet5(cfg.widths, rng=rng, seed=cfg.seed), "arch"
        else:
            model = build_mlp(*cfg.dims, data.n_classes, rng=rng, seed=cfg.seed)
            key = "arch"
        rows, width = data.x_train.shape[1:], output_width(model)
        if tuple(model.input_shape) != rows:
            raise ConfigError(f"key {key!r}: the model takes rows of shape "
                              f"{tuple(model.input_shape)}, but the data's are {rows}")
        if width < data.n_classes:
            raise ConfigError(f"key {key!r}: the model has {width} outputs, but the "
                              f"data has {data.n_classes} classes")
        self.model, self.states = model, init_switch_states(model)

    def path(self, artifact: str) -> str:
        key, name = ARTIFACTS[artifact]
        return getattr(self.cfg, key) or os.path.join(self.cfg.out_dir, name)

    def test_error(self) -> float:
        return evaluate(self.model, self.dataset.x_test, self.dataset.y_test)

    def train(self) -> None:
        cfg = self.cfg
        train_model(self.model, self.dataset.x_train, self.dataset.y_train,
                    TrainSchedule(cfg.train_epochs, cfg.train_batch_size, cfg.train_lr,
                                  cfg.train_momentum), self.rng)

    def train_switches(self) -> None:
        train_switches(self.model, self.states, self.dataset.x_train, self.dataset.y_train,
                       switch_schedule(self.cfg), self.rng)

    def read_states(self) -> None:
        """The states an earlier switch-train wrote, or none if it wrote none."""
        path = self.path("switches")
        self.states = load_states(path, self.model) if os.path.exists(path) else []

    def write_states(self) -> None:
        save_states(self.states, self.path("switches"))

    def ranking(self) -> RankingReport:
        """The configured method's ranking, not written."""
        cfg, data = self.cfg, self.dataset
        if cfg.method == "dirichlet":
            if not self.states:
                raise ConfigError(f"key 'switches_path': dirichlet ranking needs switch "
                                  f"states, and there are none at {self.path('switches')}")
            return rank_dirichlet(self.states)
        if cfg.method in ("l1", "l2"):
            return rank_magnitude(self.model, cfg.method.upper())
        if cfg.method == "derivative":  # on the first training batch
            return rank_derivative(self.model, data.x_train[:cfg.batch_size],
                                   data.y_train[:cfg.batch_size])
        return rank_random(self.model, self.rng)

    def rank(self) -> RankingReport:
        report = self.ranking()
        ranking_to_csv(report, self.path("ranking"))
        return report

    def plan_pruning(self, report: RankingReport) -> PruningPlan:
        """The plan under the configured rate, else keep_counts."""
        if self.cfg.rate > 0.0:
            plan = make_plan(report, rate=self.cfg.rate)
        elif self.cfg.keep_counts:
            plan = make_plan(report, keep_counts=list(self.cfg.keep_counts))
        else:
            raise ConfigError("need keep_counts or rate")
        plan_to_json(plan, self.path("plan"))
        return plan

    def check_validation_rows(self) -> None:
        """Raise ConfigError naming val_fraction if the split left no
        validation row to fine-tune against."""
        data = self.dataset
        if data.y_val.size == 0:
            raise _split_error(self.cfg, data.y_train.size, 0,
                               "a validation row to fine-tune against")

    def finetune(self) -> float:
        """Fine-tune the model in place, keeping its best epoch on the
        validation rows; returns that epoch's validation error %."""
        self.check_validation_rows()
        cfg, data = self.cfg, self.dataset
        train_model(self.model, data.x_train, data.y_train,
                    TrainSchedule(cfg.finetune_epochs, cfg.finetune_batch_size, cfg.finetune_lr,
                                  cfg.finetune_momentum), self.rng, val=(data.x_val, data.y_val))
        return self.model.metadata["training_history"][-1]["val_error"]

    def write_model(self, artifact: str) -> None:
        save_model(self.model, self.path(artifact))


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


def check_pipeline_config(cfg: ExperimentConfig) -> None:
    """``validate_config``, and reject method dirichlet with epochs = 0: its
    untrained posterior is uniform, so every score would be 1/D and the plan
    would keep channels by index. A config may still say so for the CLI's
    rank on switches an earlier run trained."""
    validate_config(cfg)
    if cfg.method == "dirichlet" and cfg.epochs == 0:
        raise ConfigError("key 'epochs': need epochs >= 1 for method dirichlet, "
                          "which ranks by the trained switches, got 0")


def run_pipeline(cfg: ExperimentConfig) -> PipelineResult:
    check_pipeline_config(cfg)  # before any file is written
    write_resolved_config(cfg)
    seconds: dict[str, float] = {}

    with _phase(seconds, "data"):
        run = Run(cfg)
        if cfg.finetune_epochs > 0:  # before any training
            run.check_validation_rows()

    with _phase(seconds, "train"):
        if not cfg.model_in and cfg.train_epochs > 0:  # a model_in is trained already
            run.train()
        baseline_error = run.test_error()

    with _phase(seconds, "switch_train"):
        if run.states and cfg.epochs > 0:
            run.train_switches()
        run.write_states()

    with _phase(seconds, "rank"):
        report = run.rank()

    with _phase(seconds, "plan"):
        plan = run.plan_pruning(report)

    with _phase(seconds, "prune"):
        run.model = prune_with_states(run.model, plan, run.states)
        prefinetune_error = run.test_error()
        # model_out names the final model, so the pruned one stays in out_dir
        save_model(run.model, os.path.join(cfg.out_dir, ARTIFACTS["pruned"][1]))

    with _phase(seconds, "finetune"):
        if cfg.finetune_epochs > 0:
            run.finetune()
        run.write_model("finetuned")

    with _phase(seconds, "eval"):
        final_error = run.test_error()

    result = PipelineResult(
        out_dir=cfg.out_dir,
        arch_string=run.model.arch_string,
        baseline_error=baseline_error,
        prefinetune_error=prefinetune_error,
        final_error=final_error,
        params=count_params(run.model),
        flops=count_flops(run.model),
        phase_seconds=seconds,
    )
    _write_csv(os.path.join(cfg.out_dir, "metrics.csv"), ["metric", "value"], [
        ("arch_string", result.arch_string),
        ("baseline_error_percent", repr(baseline_error)),
        ("prefinetune_error_percent", repr(prefinetune_error)),
        ("error_percent", repr(final_error)),
        ("params", result.params),
        ("flops", result.flops),
    ])
    _write_csv(os.path.join(cfg.out_dir, "timings.csv"), ["phase", "seconds"],
               [(name, f"{secs:.6f}") for name, secs in seconds.items()])
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
        hist = train_switches(model, states, x, y, switch_schedule(run_cfg),
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
    index). A uint8 image is read as ``forward`` reads 8-bit pixels."""
    image = np.asarray(image)
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
