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
from .models import evaluate, save_model
from .pipeline import (artifact_path, build_or_load_model, export_feature_maps,
                       finetune_from_config, load_dataset, plan_from_config,
                       prune_with_states, rank_by_method, run_pipeline,
                       run_posterior_compare, switch_states_from_config,
                       train_from_config, train_switches_from_config,
                       write_resolved_config)
from .pruning import plan_from_json, plan_to_json, ranking_from_csv, ranking_to_csv
from .switch import load_states, save_states


def _existing_path(cfg, key, default_name):
    """artifact_path, which must name a file a previous subcommand wrote."""
    path = artifact_path(cfg, key, default_name)
    if not os.path.exists(path):
        raise ConfigError(f"missing config keys: {key} (no file at {path})")
    return path


def _setup(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    dataset = load_dataset(cfg, rng)
    return rng, dataset, build_or_load_model(cfg, dataset, rng)


def cmd_train(cfg: ExperimentConfig) -> None:
    rng, dataset, model = _setup(cfg)
    if cfg.train_epochs > 0:  # a loaded model_in trains further
        train_from_config(cfg, model, dataset, rng, log=print)
    path = artifact_path(cfg, "model_out", "model.dpm1")
    save_model(model, path)
    err = evaluate(model, dataset.x_test, dataset.y_test)
    print(f"trained {model.arch_string}: test error {err:.2f}%, saved {path}")


def cmd_switch_train(cfg: ExperimentConfig) -> None:
    rng, dataset, model = _setup(cfg)
    states = switch_states_from_config(cfg, model)
    if not states:
        raise ContractError("model has no switch layers")
    # epochs = 0 is an error here, not a skip: the schedule rejects it
    train_switches_from_config(cfg, model, states, dataset.x_train, dataset.y_train,
                               rng, log=print)
    path = artifact_path(cfg, "switches_path", "switches.json")
    save_states(states, path)
    top = ", ".join(f"layer{st.layer_index}:{np.argmax(st.posterior_mean())}"
                    for st in states)
    print(f"switch posteriors saved to {path}; top channels {top}")


def cmd_rank(cfg: ExperimentConfig) -> None:
    rng, dataset, model = _setup(cfg)
    states = []
    if cfg.method == "dirichlet":
        states = load_states(_existing_path(cfg, "switches_path", "switches.json"))
    report = rank_by_method(cfg, model, states, dataset, rng)
    path = artifact_path(cfg, "ranking_path", "ranking.csv")
    ranking_to_csv(report, path)
    print(f"{cfg.method} ranking over {len(report.per_layer)} layers saved to {path}")


def cmd_prune(cfg: ExperimentConfig) -> None:
    rng, dataset, model = _setup(cfg)
    states = []
    states_path = artifact_path(cfg, "switches_path", "switches.json")
    if os.path.exists(states_path):
        states = load_states(states_path)
    plan_path = artifact_path(cfg, "plan_path", "plan.json")
    if os.path.exists(plan_path):
        plan = plan_from_json(plan_path)
    else:
        ranking_path = artifact_path(cfg, "ranking_path", "ranking.csv")
        if os.path.exists(ranking_path):
            report = ranking_from_csv(ranking_path)
        else:
            report = rank_by_method(cfg, model, states, dataset, rng)
        plan = plan_from_config(cfg, report)
        plan_to_json(plan, plan_path)
    pruned = prune_with_states(model, plan, states)
    path = artifact_path(cfg, "model_out", "pruned.dpm1")
    save_model(pruned, path)
    err = evaluate(pruned, dataset.x_test, dataset.y_test)
    print(f"pruned to {pruned.arch_string}: test error {err:.2f}%, saved {path}")


def cmd_finetune(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    rng, dataset, model = _setup(cfg)
    model, val_err = finetune_from_config(cfg, model, dataset, rng, log=print)
    path = artifact_path(cfg, "model_out", "finetuned.dpm1")
    save_model(model, path)
    print(f"finetuned {model.arch_string}: val error {val_err:.2f}%, saved {path}")


def cmd_eval(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    _, dataset, model = _setup(cfg)
    err = evaluate(model, dataset.x_test, dataset.y_test)
    print(f"{model.arch_string}: test error {err:.2f}%")


def cmd_posterior_compare(cfg: ExperimentConfig) -> None:
    result = run_posterior_compare(cfg, log=print)
    print(f"posterior comparison saved to {result.csv_path}; "
          f"epoch seconds mc={sum(result.epoch_seconds_mc):.2f} "
          f"am={sum(result.epoch_seconds_am):.2f}")


def cmd_export_maps(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    _, dataset, model = _setup(cfg)
    report = None
    if cfg.ranking_path and os.path.exists(cfg.ranking_path):
        report = ranking_from_csv(cfg.ranking_path)
    image = dataset.x_test[cfg.image_index]
    paths = export_feature_maps(model, image, cfg.layer, cfg.out_dir, report)
    print(f"wrote {len(paths)} feature maps to {cfg.out_dir}")


def cmd_pipeline(cfg: ExperimentConfig) -> None:
    result = run_pipeline(cfg, log=print)
    print(f"pipeline done: {result.arch_string}, final error "
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
