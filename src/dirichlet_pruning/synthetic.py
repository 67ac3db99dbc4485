"""Synthetic switch-recovery task.

A small two-layer network with a known ground-truth switch vector generates
the labels; switch training on the frozen true weights should then recover
the relative importance of the hidden channels.

The truth vector zeroes out a quarter of the channels (down to eps = 1e-3/D)
and gives every surviving channel a strictly distinct draw from U(0.5, 1.5)
before renormalizing to the simplex. Distinct values keep rank agreement
between truth and posterior well defined; labels come from propagating the
inputs through the true switched network, with the output bias centered so
the two classes split the dataset evenly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .models import ModelGraph, build_mlp, linear_indices


@dataclass
class SyntheticTask:
    d_x: int
    d_h: int
    n: int
    true_switch: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def make_true_switch(d_h: int, rng) -> np.ndarray:
    """Quarter of the channels at eps = 1e-3/d_h, the rest U(0.5, 1.5),
    renormalized to sum 1."""
    if d_h < 4:
        raise ContractError(f"need d_h >= 4 so a quarter can be zeroed, got {d_h}")
    eps = 1e-3 / d_h
    k0 = d_h // 4
    s = rng.uniform(0.5, 1.5, size=d_h)
    off = rng.choice(d_h, size=k0, replace=False)
    s[off] = eps
    return s / s.sum()


# hidden-layer values in one row block of gen_synthetic (2 MiB of float64)
_BLOCK_VALUES = 2 ** 18


def _switched_logits(x, true_switch, w1, b1, w2, out):
    """relu(true_switch * (x @ w1 + b1)) @ w2 into ``out``, holding one row
    block of the hidden layer at a time. Returns the hidden layer if one
    block held every row, else None."""
    n = x.shape[0]
    rows = min(n, max(1, _BLOCK_VALUES // w1.shape[1]))
    block = np.empty((rows, w1.shape[1]))
    for i in range(0, n, rows):
        h = block[:n - i]  # the last block may be short
        np.matmul(x[i:i + rows], w1, out=h)
        h += b1
        h *= true_switch
        np.maximum(h, 0.0, out=h)
        np.matmul(h, w2, out=out[i:i + rows])
    return block if rows == n else None


def gen_synthetic(d_x: int, d_h: int, n: int, rng,
                  d_out: int = 2) -> tuple[SyntheticTask, np.ndarray, np.ndarray]:
    """Draw the true network and a labeled dataset of n standard-normal
    inputs. n must be even; labels are argmax outputs of the true switched
    network with the output bias median-centered, so for two classes the
    dataset comes out exactly balanced.

    Inputs are a single isotropic Gaussian on purpose: labels must be driven
    by the switched pathway itself, not by a cluster offset, or the hidden
    channels' importances leave no footprint in the likelihood and cannot be
    recovered.

    The hidden layer is built in row blocks of ``_BLOCK_VALUES`` values, so
    memory is O(n*d_x + block*d_h), not O(n*d_h). Up to one block, every
    output is bitwise that of a one-buffer build, and the rescaled pass
    reuses the block's hidden layer, so x @ w1 runs once. Past one block,
    BLAS need not round a row block's product as it rounds those rows of
    the full product, so w2 and b2 can differ from a one-buffer build in
    the last bit; x is the same draw either way.
    """
    if n < 2 or n % 2 != 0:
        raise ContractError(f"n must be even and >= 2, got {n}")
    if d_x < 1 or d_out < 2:
        raise ContractError(f"bad dims d_x={d_x}, d_out={d_out}")
    true_switch = make_true_switch(d_h, rng)
    w1 = rng.standard_normal((d_x, d_h)) / np.sqrt(d_x)
    b1 = 0.1 * rng.standard_normal(d_h)
    w2 = rng.standard_normal((d_h, d_out)) / np.sqrt(d_h)
    b2 = np.zeros(d_out)

    x = rng.standard_normal((n, d_x))
    # simplex-scale switches shrink the activations by ~d_h, which would
    # leave near-zero logit margins and no per-channel signal in the
    # likelihood; rescale the output layer so the true network is decisive
    logits = np.empty((n, d_out))
    hidden = _switched_logits(x, true_switch, w1, b1, w2, logits)
    spread = logits.std(axis=0).mean()
    if spread > 0.0:
        w2 = w2 * (3.0 / spread)
        if hidden is None:
            _switched_logits(x, true_switch, w1, b1, w2, logits)
        else:  # the one block's hidden layer does not depend on w2
            np.matmul(hidden, w2, out=logits)
    if d_out == 2:
        # np.median's arithmetic (mean of the two middle values; n is even)
        # without its first call's numpy.ma import
        gap = logits[:, 1] - logits[:, 0]
        gap.partition((n // 2 - 1, n // 2))
        b2[1] -= (gap[n // 2 - 1] + gap[n // 2]) / 2
    logits += b2
    y = logits.argmax(axis=1).astype(np.int64)
    task = SyntheticTask(d_x, d_h, n, true_switch, w1, b1, w2, b2)
    return task, x, y


def task_model(task: SyntheticTask) -> ModelGraph:
    """The true weights as a model graph; the truth switch is NOT folded in,
    so running it with switch 0 at the truth reproduces the label process."""
    model = build_mlp(task.d_x, task.d_h, task.w2.shape[1], rng=np.random.default_rng(0))
    first, last = linear_indices(model)
    model.weights[f"layer{first}.weight"] = task.w1.copy()
    model.weights[f"layer{first}.bias"] = task.b1.copy()
    model.weights[f"layer{last}.weight"] = task.w2.copy()
    model.weights[f"layer{last}.bias"] = task.b2.copy()
    return model
