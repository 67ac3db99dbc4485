"""The whole train / switch-train / rank / prune / finetune chain in one call.

Experiments are described by flat key=value config files. run_pipeline reads
one, runs every phase, and leaves an auditable directory behind: the resolved
config, the pruned and fine-tuned models, the learned posterior, the ranking
CSV, the pruning plan, and a metrics summary. The command line wraps the
same entry points, so everything below is also reachable as

    dirichlet-pruning --config exp.cfg pipeline

or phase by phase with the train / switch-train / rank / prune / finetune /
eval subcommands. Each phase is one step of dirichlet_pruning.pipeline.Run,
which also writes the artifacts: `pipeline` runs the steps in order on one
Run, and each subcommand opens a Run from the config and the files an
earlier one left in out_dir, then runs its one step.

Progress lines (each epoch, each phase's seconds) go to the
`dirichlet_pruning` logger at INFO; the library itself stays silent, so
the demo turns them on with logging.basicConfig.
"""

import logging
import pathlib
import sys
import tempfile

from dirichlet_pruning.config import parse_config_text
from dirichlet_pruning.pipeline import run_pipeline

CONFIG = """
# synthetic two-class task, one switched hidden layer
seed = 9000
data = synthetic
dims = 20, 16
n = 3000
arch = mlp
widths = 16

train_epochs = 5
train_batch_size = 50
train_lr = 0.3

alpha0 = 0.5
estimator = analytic
mode = per_layer
epochs = 4
batch_size = 100
lr = 0.5

method = dirichlet
rate = 0.5
finetune_epochs = 5
finetune_lr = 0.05
"""

logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)

with tempfile.TemporaryDirectory() as tmp:
    cfg = parse_config_text(CONFIG)
    cfg.out_dir = str(pathlib.Path(tmp) / "run")

    result = run_pipeline(cfg)

    print(f"\narchitecture      {result.arch_string}")
    print(f"baseline error    {result.baseline_error:.2f}%")
    print(f"after pruning     {result.prefinetune_error:.2f}%")
    print(f"after finetuning  {result.final_error:.2f}%")
    print(f"remaining size    {result.params} weights, {result.flops} MACs")

    print("\nartifacts:")
    for p in sorted(pathlib.Path(result.out_dir).iterdir()):
        print(f"  {p.name:<24} {p.stat().st_size:>8} bytes")

    print("\nphase timings:")
    for phase, seconds in result.phase_seconds.items():
        print(f"  {phase:<12} {seconds:8.3f}s")
