"""Workload definitions: config text plus generated input files per seed.

Every input is made here, from the workload seed, before any timed region:
the program under test only ever sees files and a config. Generation uses
the library itself only where the workload needs a byte-exact copy of what
``pipeline.load_dataset`` will regenerate (the planted true weights of
``mlp_implicit``).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

WORKLOADS = ("mlp_analytic", "lenet_analytic", "mlp_implicit")

# Jobs per run cycle over this many instance seeds; final_error_pct is their
# mean, because one planted task's error says little about the next one's.
INSTANCES = {"mlp_analytic": 8, "lenet_analytic": 1, "mlp_implicit": 4}

# LeNet-5 as in the paper's MNIST experiments.
LENET_WIDTHS = (20, 50, 800, 500)
LENET_TRAIN_IMAGES = 1000
LENET_TEST_IMAGES = 500
LENET_CLASSES = 10
CHANCE_ERROR_PCT = 100.0 * (1.0 - 1.0 / LENET_CLASSES)
TEMPLATE_SEED = 2011_05985

MLP_ANALYTIC_CONFIG = """\
# README synthetic experiment, n raised so one job takes seconds; the hidden
# layer is wider and the rate lower so the final error varies less by task
seed = {seed}
data = synthetic
dims = 20, 64
n = 40000
arch = mlp
widths = 64
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
rate = 0.25
finetune_epochs = 5
finetune_lr = 0.05
"""

LENET_ANALYTIC_CONFIG = """\
# LeNet-5 on generated class-template images read through the IDX path
seed = {seed}
data = mnist
mnist_images = {images}
mnist_labels = {labels}
mnist_test_images = {test_images}
mnist_test_labels = {test_labels}
val_fraction = 0.1
arch = lenet5
widths = {widths}
train_epochs = 1
train_batch_size = 100
train_lr = 0.02
alpha0 = 0.5
estimator = analytic
mode = per_layer
epochs = 1
batch_size = 100
lr = 0.5
method = dirichlet
rate = 0.5
finetune_epochs = 1
finetune_batch_size = 100
finetune_lr = 0.02
"""

MLP_IMPLICIT_CONFIG = """\
# criterion-6 shape: frozen planted weights, ImplicitMC(100) switch training
seed = {seed}
data = synthetic
dims = 1000, 500
n = 400
arch = mlp
model_in = {model_in}
alpha0 = 0.5
estimator = implicit
k = 100
mode = per_layer
epochs = 1
batch_size = 100
lr = 0.5
method = dirichlet
rate = 0.5
finetune_epochs = 1
finetune_batch_size = 50
finetune_lr = 0.05
"""


def instance_seeds(workload: str, seed: int) -> list[int]:
    """Config seeds of a run's instances: 16 * seed + i, distinct across seeds."""
    return [16 * seed + i for i in range(INSTANCES[workload])]


def pruned_widths(widths, rate: float) -> list[int]:
    """Channels a rate-r plan keeps per layer: ceil((1 - r) * width)."""
    return [math.ceil((1.0 - rate) * w) for w in widths]


def _write_idx(path: str, array: np.ndarray) -> None:
    magic = 0x00000803 if array.ndim == 3 else 0x00000801
    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        f.write(struct.pack(f">{array.ndim}I", *array.shape))
        f.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def _class_templates(rng) -> np.ndarray:
    """One 28x28 pattern per class: three Gaussian bumps at random centres."""
    yy, xx = np.mgrid[0:28, 0:28]
    templates = np.zeros((LENET_CLASSES, 28, 28))
    for c in range(LENET_CLASSES):
        for _ in range(3):
            cy, cx = rng.uniform(6.0, 22.0, size=2)
            width = rng.uniform(2.0, 4.0)
            templates[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        templates[c] /= templates[c].max()
    return templates


def _template_images(rng, templates, n):
    """Images = randomly shifted, scaled class template plus pixel noise."""
    labels = rng.integers(0, LENET_CLASSES, size=n)
    shifts = rng.integers(-2, 3, size=(n, 2))
    scales = rng.uniform(0.6, 1.0, size=n)
    images = np.empty((n, 28, 28))
    for i in range(n):
        images[i] = np.roll(templates[labels[i]], tuple(shifts[i]), axis=(0, 1)) * scales[i]
    images += 0.3 * rng.standard_normal(images.shape)
    u8 = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    return u8, labels.astype(np.uint8)


def _lenet_inputs(seed: int, in_dir: str) -> dict:
    # The classes are fixed, like MNIST's digits; the seed draws the samples.
    templates = _class_templates(np.random.default_rng(TEMPLATE_SEED))
    rng = np.random.default_rng(seed)
    paths = {}
    for split, n in (("train", LENET_TRAIN_IMAGES), ("test", LENET_TEST_IMAGES)):
        images, labels = _template_images(rng, templates, n)
        prefix = "" if split == "train" else "test_"
        paths[f"{prefix}images"] = os.path.join(in_dir, f"{split}-images-idx3-ubyte")
        paths[f"{prefix}labels"] = os.path.join(in_dir, f"{split}-labels-idx1-ubyte")
        _write_idx(paths[f"{prefix}images"], images)
        _write_idx(paths[f"{prefix}labels"], labels)
    return paths


def _true_weights(seed: int, dims, n: int, path: str) -> None:
    """Save the planted task that ``load_dataset`` regenerates for this seed."""
    from dirichlet_pruning.models import save_model
    from dirichlet_pruning.synthetic import gen_synthetic, task_model

    n_test = max(2, (n // 4) // 2 * 2)  # as pipeline.load_dataset sizes it
    task, _, _ = gen_synthetic(dims[0], dims[1], n + n_test, np.random.default_rng(seed))
    save_model(task_model(task), path)


def make_inputs(workload: str, seed: int, in_dir: str) -> str:
    """Write the workload's input files into in_dir; return the config text."""
    os.makedirs(in_dir, exist_ok=True)
    if workload == "mlp_analytic":
        return MLP_ANALYTIC_CONFIG.format(seed=seed)
    if workload == "lenet_analytic":
        paths = _lenet_inputs(seed, in_dir)
        return LENET_ANALYTIC_CONFIG.format(
            seed=seed, widths=", ".join(map(str, LENET_WIDTHS)), **paths)
    if workload == "mlp_implicit":
        model_in = os.path.join(in_dir, "true_weights.dpm1")
        _true_weights(seed, (1000, 500), 400, model_in)
        return MLP_IMPLICIT_CONFIG.format(seed=seed, model_in=model_in)
    raise ValueError(f"unknown workload {workload!r}")
