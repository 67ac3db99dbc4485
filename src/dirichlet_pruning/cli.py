"""Command-line driver.

Every subcommand reads settings from --config (flat key=value file) with
--seed overriding the configured seed. Subcommands are batch phases; they
write artifacts to paths named in the config and print a one-line summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import ExperimentConfig, load_config, require
from .errors import ConfigError, ContractError, FormatError, PipelineError
from .models import (TrainSchedule, evaluate, load_model, save_model, train_model)
from .pipeline import (build_or_load_model, estimator_from, export_feature_maps,
                       kl_weight_from, load_dataset, plan_from_config,
                       rank_by_method, run_pipeline, run_posterior_compare,
                       write_resolved_config)
from .pruning import (apply_plan, finetune, plan_from_json, plan_to_json,
                      ranking_from_csv, ranking_to_csv)
from .switch import (SwitchTrainSchedule, init_switch_states, load_states,
                     posterior_report, save_states, train_switches)


def _echo(line: str) -> None:
    print(line)


def _out_path(cfg, attr, default_name):
    path = getattr(cfg, attr)
    if path:
        return path
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, default_name)


def _in_path(cfg, attr, default_name):
    """Configured path, falling back to the artifact a previous subcommand
    would have written under out_dir."""
    path = getattr(cfg, attr) or os.path.join(cfg.out_dir, default_name)
    if not os.path.exists(path):
        raise ConfigError(f"missing config keys: {attr} (no file at {path})")
    return path


def cmd_train(cfg: ExperimentConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    model = build_or_load_model(cfg, dataset, rng)
    if cfg.train_epochs > 0:
        train_model(model, dataset.x_train, dataset.y_train,
                    TrainSchedule(cfg.train_epochs, cfg.train_batch_size,
                                  cfg.train_lr, cfg.train_momentum), rng, log=_echo)
    path = _out_path(cfg, "model_out", "model.dpm1")
    save_model(model, path)
    err = evaluate(model, dataset.x_test, dataset.y_test)
    _echo(f"trained {model.arch_string}: test error {err:.2f}%, saved {path}")


def cmd_switch_train(cfg: ExperimentConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    model = build_or_load_model(cfg, dataset, rng)
    states = init_switch_states(model, alpha0=cfg.alpha0,
                                estimator=estimator_from(cfg),
                                kl_weight=kl_weight_from(cfg))
    if not states:
        raise ContractError("model has no switch layers")
    train_switches(model, states, dataset.x_train, dataset.y_train,
                   SwitchTrainSchedule(cfg.mode, cfg.epochs, cfg.batch_size, cfg.lr),
                   rng, log=_echo)
    path = _out_path(cfg, "switches_path", "switches.json")
    save_states(states, path)
    top = ", ".join(f"layer{st.layer_index}:{np.argmax(st.posterior_mean())}"
                    for st in states)
    _echo(f"switch posteriors saved to {path}; top channels {top}")


def cmd_rank(cfg: ExperimentConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    model = build_or_load_model(cfg, dataset, rng)
    states = []
    if cfg.method == "dirichlet":
        states = load_states(_in_path(cfg, "switches_path", "switches.json"))
    report = rank_by_method(cfg, model, states, dataset, rng)
    path = _out_path(cfg, "ranking_path", "ranking.csv")
    ranking_to_csv(report, path)
    _echo(f"{cfg.method} ranking over {len(report.per_layer)} layers saved to {path}")


def cmd_prune(cfg: ExperimentConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    model = build_or_load_model(cfg, dataset, rng)
    states = []
    states_path = cfg.switches_path or os.path.join(cfg.out_dir, "switches.json")
    if os.path.exists(states_path):
        states = load_states(states_path)
    plan_path = cfg.plan_path or os.path.join(cfg.out_dir, "plan.json")
    if os.path.exists(plan_path):
        plan = plan_from_json(plan_path)
    else:
        ranking_path = cfg.ranking_path or os.path.join(cfg.out_dir, "ranking.csv")
        if os.path.exists(ranking_path):
            report = ranking_from_csv(ranking_path)
        else:
            report = rank_by_method(cfg, model, states, dataset, rng)
        plan = plan_from_config(cfg, report)
        plan_to_json(plan, _out_path(cfg, "plan_path", "plan.json"))
    means = {st.layer_index: st.posterior_mean() for st in states}
    pruned = apply_plan(model, plan, switch_means=means)
    path = _out_path(cfg, "model_out", "pruned.dpm1")
    save_model(pruned, path)
    err = evaluate(pruned, dataset.x_test, dataset.y_test)
    _echo(f"pruned to {pruned.arch_string}: test error {err:.2f}%, saved {path}")


def cmd_finetune(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    model = load_model(cfg.model_in)
    model, val_err = finetune(model, dataset.x_train, dataset.y_train,
                              dataset.x_val, dataset.y_val,
                              TrainSchedule(cfg.finetune_epochs, cfg.finetune_batch_size,
                                            cfg.finetune_lr, cfg.finetune_momentum),
                              rng, log=_echo)
    path = _out_path(cfg, "model_out", "finetuned.dpm1")
    save_model(model, path)
    _echo(f"finetuned {model.arch_string}: val error {val_err:.2f}%, saved {path}")


def cmd_eval(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    model = load_model(cfg.model_in)
    err = evaluate(model, dataset.x_test, dataset.y_test)
    _echo(f"{model.arch_string}: test error {err:.2f}%")


def cmd_posterior_compare(cfg: ExperimentConfig) -> None:
    result = run_posterior_compare(cfg, log=_echo)
    _echo(f"posterior comparison saved to {result.csv_path}; "
          f"epoch seconds mc={sum(result.epoch_seconds_mc):.2f} "
          f"am={sum(result.epoch_seconds_am):.2f}")


def cmd_export_maps(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    model = load_model(cfg.model_in)
    report = None
    if cfg.ranking_path and os.path.exists(cfg.ranking_path):
        report = ranking_from_csv(cfg.ranking_path)
    image = dataset.x_test[cfg.image_index]
    paths = export_feature_maps(model, image, cfg.layer, cfg.out_dir, report)
    _echo(f"wrote {len(paths)} feature maps to {cfg.out_dir}")


def cmd_pipeline(cfg: ExperimentConfig) -> None:
    result = run_pipeline(cfg, log=_echo)
    _echo(f"pipeline done: {result.arch_string}, final error "
          f"{result.final_error:.2f}%, params {result.params}, flops {result.flops}")


_COMMANDS = {
    "train": cmd_train,
    "switch-train": cmd_switch_train,
    "rank": cmd_rank,
    "prune": cmd_prune,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "posterior-compare": cmd_posterior_compare,
    "export-maps": cmd_export_maps,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirichlet-pruning",
        description="Structured channel pruning via variational Dirichlet "
                    "importance switches.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        write_resolved_config(cfg)
        _COMMANDS[args.command](cfg)
    except (ConfigError, ContractError, FormatError, PipelineError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
