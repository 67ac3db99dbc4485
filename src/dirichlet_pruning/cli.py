"""Command-line driver.

Every subcommand reads settings from --config (flat key=value file) with
--seed overriding the configured seed. Each phase subcommand opens a
``pipeline.Run`` from the config, reads what an earlier subcommand left in
out_dir, runs that Run's phase, writes its artifact where
``pipeline.ARTIFACTS`` says and prints a one-line summary.
The progress lines the library logs to the ``dirichlet_pruning`` logger
(epochs, phases) go to stdout for the length of the command.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .config import ExperimentConfig, load_config, require
from .errors import (ConfigError, ContractError, DomainError, FormatError, NumericError,
                     PipelineError, ShapeError)
from .pipeline import (Run, check_pipeline_config, export_feature_maps, prune_with_states,
                       run_pipeline, run_posterior_compare, write_resolved_config)
from .pruning import plan_from_json, ranking_from_csv


def cmd_train(cfg: ExperimentConfig) -> None:
    run = Run(cfg)
    if cfg.train_epochs > 0:  # a loaded model_in trains further
        run.train()
    run.write_model("trained")
    print(f"trained {run.model.arch_string}: test error {run.test_error():.2f}%, "
          f"saved {run.path('trained')}")


def cmd_switch_train(cfg: ExperimentConfig) -> None:
    run = Run(cfg)
    if not run.states:
        raise ContractError("model has no prunable layer to put a switch on")
    # epochs = 0 is an error here, not a skip: the schedule rejects it
    run.train_switches()
    run.write_states()
    top = ", ".join(f"layer{st.layer}:{np.argmax(st.posterior_mean())}"
                    for st in run.states)
    print(f"switch posteriors saved to {run.path('switches')}; top channels {top}")


def cmd_rank(cfg: ExperimentConfig) -> None:
    run = Run(cfg)
    run.read_states()  # as prune does, whatever the method
    report = run.rank()
    print(f"{cfg.method} ranking over {len(report.per_layer)} layers saved to "
          f"{run.path('ranking')}")


def cmd_prune(cfg: ExperimentConfig) -> None:
    run = Run(cfg)
    run.read_states()
    if cfg.plan_path and os.path.exists(cfg.plan_path):
        plan = plan_from_json(cfg.plan_path)
    else:  # a plan.json left in out_dir is an output: re-plan
        ranking = run.path("ranking")
        plan = run.plan_pruning(ranking_from_csv(ranking) if os.path.exists(ranking)
                                else run.ranking())
    run.model = prune_with_states(run.model, plan, run.states)
    run.write_model("pruned")
    print(f"pruned to {run.model.arch_string}: test error {run.test_error():.2f}%, "
          f"saved {run.path('pruned')}")


def cmd_finetune(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    run = Run(cfg)
    val_error = run.finetune()
    run.write_model("finetuned")
    print(f"finetuned {run.model.arch_string}: val error {val_error:.2f}%, "
          f"saved {run.path('finetuned')}")


def cmd_eval(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    run = Run(cfg)
    print(f"{run.model.arch_string}: test error {run.test_error():.2f}%")


def cmd_posterior_compare(cfg: ExperimentConfig) -> None:
    result = run_posterior_compare(cfg)
    print(f"posterior comparison saved to {result.csv_path}; "
          f"epoch seconds mc={sum(result.epoch_seconds_mc):.2f} "
          f"am={sum(result.epoch_seconds_am):.2f}")


def cmd_export_maps(cfg: ExperimentConfig) -> None:
    require(cfg, "model_in")
    run = Run(cfg)
    ranking = run.path("ranking")
    report = ranking_from_csv(ranking) if os.path.exists(ranking) else None
    n_test = run.dataset.x_test.shape[0]
    if cfg.image_index >= n_test:
        raise ConfigError(f"key 'image_index': need an index below the test split's "
                          f"{n_test} images, got {cfg.image_index}")
    paths = export_feature_maps(run.model, run.dataset.x_test[cfg.image_index], cfg.layer,
                                cfg.out_dir, report)
    print(f"wrote {len(paths)} feature maps to {cfg.out_dir}")


def cmd_pipeline(cfg: ExperimentConfig) -> None:
    result = run_pipeline(cfg)
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

    package_logger = logging.getLogger("dirichlet_pruning")
    handler = logging.StreamHandler(sys.stdout)
    old_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(logging.INFO)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.command == "pipeline":
            check_pipeline_config(cfg)  # before anything is written
        write_resolved_config(cfg)
        _COMMANDS[args.command](cfg)
    except (ConfigError, ContractError, DomainError, FormatError, NumericError,
            PipelineError, ShapeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(old_level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
