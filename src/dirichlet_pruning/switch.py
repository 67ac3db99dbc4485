"""Variational training of per-layer Dirichlet importance switches.

Each prunable layer l gets a switch: a free parameter vector theta_l over
its output channels, addressed like rankings and plans by the layer's
prunable ordinal (0 for the first conv/fc layer). The posterior
concentration is phi_l = softplus(theta_l) + 1e-6, the prior is the symmetric
Dir(alpha0). The objective on a minibatch is

    neg_elbo = E_q[ NLL(batch) ] + kl_weight * sum_l KL(q_l || prior_l)

with kl_weight defaulting to 1/dataset_size. A layer's state is its theta
alone: alpha0, kl_weight and the gradient estimator are settings of the run,
held by ``SwitchTrainSchedule`` with epochs, batch size and lr. Training
fits one switch at a time, in ordinal order, while the others sit at their
posterior mean. Both estimators run the same path; they differ only in the
rows they draw for the trained switch:

  - ImplicitMC(k): k reparameterized posterior samples. Each switch sample
    is s = y / sum(y) with y ~ Gamma(phi, 1), and dy/dphi are the analytic
    implicit gradients of the Gamma draws.
  - AnalyticMean: one deterministic row at the posterior mean, s =
    phi / sum(phi), i.e. y = phi with the identity Jacobian dy/dphi = 1, so
    d(NLL)/d(theta) is exact for that plug-in objective.

A switch scales the input weights of its consumer, the conv or fc layer
after its own (``models.forward``). Per batch the path costs one untaped pass
through the layers before the trained switch's consumer and one taped pass
through the rest of the graph for all k rows at once: ``forward`` takes the
rows as one (k, D) switch and folds them into the consumer as k scaled
copies of its weight, so the suffix runs on k * N activation rows. Backprop
ends at that switch, whose gradient is every row's dL/ds, and one
vectorized chain rule carries the (k, D) dL/ds rows to theta. The rows go
through in chunks under one budget of stacked values (``_STACK_VALUES``),
each chunk on its own tape. The KL gradient is added in closed form. The
untaped pass is not repeated per batch after the first sweep: every row's
activation at the next sweep's consumer is computed once, when the
finished switches are fixed, so a later sweep's batch costs only its taped
suffix.

Cost: a step on the README MLP (20-64-2, 100 rows, D = 64, AnalyticMean)
makes about 160 numpy calls, most on arrays too small for their arithmetic
to matter. About 300 us on a shared 2-vCPU box (numpy 2.4.6, one BLAS
thread) splits as: the closed-form KL 140 us (lgamma, then psi and psi'
from one recurrence pass), the untaped prefix 30, the taped suffix 35, its
cross-entropy 25, backward 30, the chain rule to phi 12, and phi, the
draw, sigmoid and the gradient sum 30. With ``ImplicitMC(100)`` on the
planted 1000-500-2 MLP (the ``mlp_implicit`` benchmark), a 100-row step
takes about 40 ms on the same box, most of it in the sampler: the implicit
gradients of the 50,000 Gamma draws 19-26 ms, the draws 3-4, and the
stacked pass, with the 1000 x 500 prefix GEMM, 7-10.

Model weights stay frozen throughout; only theta moves.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .dirichlet import dirichlet_kl, dirichlet_marginal_std, dirichlet_sample_batch
from .errors import ContractError, FormatError, NumericError
from .models import (ModelGraph, _batches, _check_count, _check_rows, fold_switches, forward,
                     loss_bound, propagate_shapes, prunable_widths, read_json,
                     switch_consumers, write_json)
from .tensor import Tape, Tensor

logger = logging.getLogger(__name__)
_PHI_SHIFT = 1e-6
_THETA_INIT = math.log(math.expm1(1.0))  # softplus(theta) = 1
# A switch step stacks its draws into the consumer in chunks whose stacked
# weight and output hold at most this many values together (8 MiB of
# float64), at least one draw per chunk. A draw adds one weight copy and N
# output rows, and no later activation of LeNet or the MLP is larger than the
# consumer's output, so this bounds the taped suffix's memory. A row count
# could not: a LeNet conv2 output row holds 3,200 values, an MLP logit row 2.
_STACK_VALUES = 2 ** 20


@dataclass(frozen=True)
class AnalyticMean:
    def draw(self, phi, rng):
        """One row (s, y, dy/dphi) at the posterior mean: y = phi, s = y / sum(y)."""
        return (phi / np.add.reduce(phi))[None], phi[None], np.ones((1, phi.shape[0]))


@dataclass(frozen=True)
class ImplicitMC:
    k: int = 1

    def __post_init__(self):
        _check_count("k (the sample count)", self.k, 1)

    def draw(self, phi, rng):
        """k rows (s, y, dy/dphi) of reparameterized Dir(phi) samples."""
        return dirichlet_sample_batch(phi, self.k, rng)


def _sigmoid_np(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both as
    num / (1 + e) with e = e^-|x|, so neither exponential overflows."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)


@dataclass
class SwitchState:
    """Posterior parameters for the switch of one prunable layer, by ordinal."""

    layer: int
    theta: np.ndarray

    def phi(self) -> np.ndarray:
        return np.logaddexp(0.0, self.theta) + _PHI_SHIFT  # softplus

    def posterior_mean(self) -> np.ndarray:
        phi = self.phi()
        return phi / phi.sum()


def init_switch_states(model: ModelGraph) -> list[SwitchState]:
    """One state per prunable layer, every concentration starting at
    softplus(theta)+1e-6 with theta = softplus_inv(1)."""
    return [SwitchState(ordinal, np.full(width, _THETA_INIT))
            for ordinal, width in enumerate(prunable_widths(model))]


def posterior_report(state: SwitchState) -> tuple[np.ndarray, np.ndarray]:
    """(mean, marginal std) of the switch posterior, each of layer width."""
    return state.posterior_mean(), dirichlet_marginal_std(state.phi())


@dataclass(frozen=True)
class SwitchTrainSchedule:
    """The settings of one switch-training run, shared by every layer:
    the SGD schedule, the gradient estimator, the symmetric prior Dir(alpha0)
    and the KL weight (None means 1/n for n training rows)."""

    epochs: int = 1
    batch_size: int = 100
    lr: float = 0.1
    estimator: AnalyticMean | ImplicitMC = AnalyticMean()
    alpha0: float = 0.5
    kl_weight: float | None = None

    def __post_init__(self):
        _check_count("epochs", self.epochs, 1)
        _check_count("batch_size", self.batch_size, 1)
        kl = self.kl_weight
        for key, ok, need in (
                ("lr", math.isfinite(self.lr) and self.lr > 0.0, "finite and > 0"),
                ("estimator", isinstance(self.estimator, (AnalyticMean, ImplicitMC)),
                 "AnalyticMean or ImplicitMC"),
                ("alpha0", math.isfinite(self.alpha0) and self.alpha0 > 0.0, "finite and > 0"),
                ("kl_weight", kl is None or (math.isfinite(kl) and kl >= 0.0),
                 "None (1/n) or finite and >= 0")):
            if not ok:
                raise ContractError(f"{key} must be {need}, got {getattr(self, key)!r}")


@dataclass
class SwitchObjectiveValue:
    neg_elbo: float
    expected_nll: float
    kl_term: float
    kl_weight: float


def _nll_and_grads(model, states, hb, yb, layer, draw, start=0):
    """Estimate of E_q[NLL] and its phi gradient for switch ``layer``.

    ``hb`` is the batch's activation entering layer ``start``. ``draw`` is the
    estimator's (S, Y, dY/dphi) arrays for ``layer``, each of shape (k, D),
    with S = Y / sum(Y) row by row. A switch acts at its consumer's input
    weights, so the layers before that consumer do not depend on the rows:
    they run once per batch, untaped, with the other switches at their
    posterior mean. From the consumer on, ``forward`` runs once per chunk
    of rows on one tape, with the chunk as a (c, D) switch leaf: the
    consumer runs once on the N batch rows with c scaled copies of its
    weight, one conv im2col or one fc GEMM for all of them, and the rest of
    the graph on N * c rows (row n * c + j is batch row n under draw j). The
    loss is the sum of the c per-draw mean NLLs, so each draw's gradient is
    the one its own pass would give, and the leaf's gradient is every
    draw's dL/ds; one vectorized chain rule pushes them to phi. A chunk's
    stacked weight and consumer output hold at most ``_STACK_VALUES`` values
    (at least one draw each). AnalyticMean's one row is a chunk of one.
    """
    s, y, dy_dphi = draw
    k, n = len(s), hb.shape[0]
    mean_switches = {st.layer: st.posterior_mean() for st in states if st.layer != layer}
    entry = switch_consumers(model)[layer]
    h = forward(model, hb, switches=mean_switches, start=start, stop=entry)
    per = 1  # draws a chunk; AnalyticMean's one row needs no budget
    if k > 1:
        out_row = math.prod(propagate_shapes(model.layers[entry:entry + 1], h.shape[1:])[0])
        per = max(1, _STACK_VALUES // (model.weights[f"layer{entry}.weight"].size + n * out_row))
    g = np.empty(s.shape)
    nll_acc = 0.0
    for lo in range(0, k, per):
        leaf = Tensor(s[lo:lo + per], requires_grad=True)
        c = leaf.shape[0]
        with Tape():
            logits = forward(model, h, switches={**mean_switches, layer: leaf}, start=entry)
            nll = T.softmax_cross_entropy(logits, yb.repeat(c), copies=c)
        T.backward(nll)
        nll_acc += nll.item()
        g[lo:lo + c] = leaf.grad
    # s_m = y_m / sum(y): d(nll)/dphi_m = dy_dphi_m * (g_m - g.s) / sum(y)
    dphi = (dy_dphi * (g - np.add.reduce(g * s, axis=1, keepdims=True))
            / np.add.reduce(y, axis=1, keepdims=True))
    return nll_acc / k, np.add.reduce(dphi, axis=0) / k


def neg_elbo_and_grads(states, model, hb, yb, dataset_size, rng, *, layer, start=0,
                       schedule=SwitchTrainSchedule()):
    """Minibatch objective and d(neg_elbo)/d(theta) for switch ``layer``.

    ``hb`` is the batch's activation entering layer ``start`` (the input
    batch by default), which must not lie after that switch's consumer. The
    other switches run at their posterior mean; the KL sums every layer. The
    estimator, alpha0 and kl_weight come from ``schedule``.
    """
    hb, yb = _check_rows(hb, yb, "minibatch")
    if not states:
        raise ContractError("no switch states given")
    if dataset_size < 1:
        raise ContractError(f"dataset_size must be >= 1, got {dataset_size}")
    kl_weight = 1.0 / dataset_size if schedule.kl_weight is None else schedule.kl_weight
    phis = {st.layer: st.phi() for st in states}
    if layer not in phis:
        raise ContractError(f"layer {layer!r} names no switch state")
    draw = schedule.estimator.draw(phis[layer], rng)
    nll, nll_grad = _nll_and_grads(model, states, hb, yb, layer, draw, start)
    # both phi gradients reach theta through one dphi/dtheta = sigmoid
    kl = 0.0
    for st in states:
        phi = phis[st.layer]
        layer_kl, kl_grad = dirichlet_kl(phi, np.full(phi.shape, schedule.alpha0))
        kl += layer_kl
        if st.layer == layer:
            sig = _sigmoid_np(st.theta)
            grad = nll_grad * sig + kl_weight * (kl_grad * sig)
    return SwitchObjectiveValue(nll + kl_weight * kl, nll, kl, kl_weight), grad


def save_states(states: list[SwitchState], path) -> None:
    """Each layer's theta as JSON, keyed by ordinal. The run's settings
    (alpha0, kl_weight, estimator) are in its resolved config, not here."""
    write_json(path, {"theta": {str(st.layer): st.theta.tolist() for st in states}})


def load_states(path, model: ModelGraph) -> list[SwitchState]:
    """Read states written by ``save_states`` for ``model``: every state must
    name one of the model's prunable ordinals and match that layer's width.
    A malformed file or a non-finite theta raises FormatError naming the file
    and the key or layer; other keys (older files hold alpha0) are ignored."""
    payload = read_json(path, "switch state", "theta")
    widths = prunable_widths(model)
    states = []
    for layer, values in sorted(payload["theta"].items()):
        try:
            theta = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            raise FormatError(f"{path}: switch state for layer {layer} is not a number "
                              "vector") from None
        if not np.isfinite(theta).all():
            raise FormatError(f"{path}: switch state for layer {layer} holds a "
                              "non-finite theta")
        if layer >= len(widths):
            raise ContractError(f"switch state for layer {layer}: the model has "
                                f"no prunable layer {layer}")
        if theta.shape != (widths[layer],):
            raise ContractError(
                f"switch state for layer {layer} has width {theta.size}, "
                f"the model's layer {layer} has width {widths[layer]}")
        states.append(SwitchState(layer, theta))
    return states


@dataclass
class EpochStats:
    scope: str
    epoch: int
    mean_neg_elbo: float
    seconds: float


def _advance(model, states, h, start, stop, batch_size):
    """Every row of ``h``, the activation entering layer ``start``, run
    untaped to the activation entering layer ``stop``, ``batch_size`` rows at
    a time, with every switch at its posterior mean. Each switch whose
    consumer runs is folded into that consumer's weight once per call, not
    once per batch (``models.fold_switches``)."""
    means = {st.layer: st.posterior_mean() for st in states}
    folded = fold_switches(model, means, start, stop)
    out = None
    for rows in _batches(h.shape[0], batch_size):
        part = forward(model, h[rows], params=folded, start=start, stop=stop).data
        if out is None:
            out = np.empty((h.shape[0],) + part.shape[1:])
        out[rows] = part
    return out


def train_switches(model: ModelGraph, states: list[SwitchState], x, y,
                   schedule: SwitchTrainSchedule, rng) -> list[EpochStats]:
    """Plain SGD on theta, one switch per sweep in ordinal order while the
    others sit at their posterior mean. Mutates state.theta in place and
    returns per-epoch statistics, each also logged at INFO.

    The first sweep reads x. Before each later sweep, one untaped pass
    carries every row from the previous sweep's entry to the input of this
    sweep's consumer (the finished switches are fixed by then), so no batch
    runs the graph before that consumer again. The first entry is x itself;
    only later ones are stored.

    Raises NumericError, naming the scope, epoch and batch, at the first
    batch whose neg_elbo is not finite or whose expected NLL exceeds the
    divergence bound (``models.loss_bound``), before its step touches theta.
    """
    x, y = _check_rows(x, y, "training data")
    if not states:
        raise ContractError("no switch states given")
    n = x.shape[0]
    by_index = {st.layer: st for st in states}
    consumers = switch_consumers(model)
    bound = loss_bound(model)
    entry, start = x, 0  # every row's activation entering layer `start`
    history = []
    for sweep, layer in enumerate(sorted(by_index)):
        if sweep > 0:
            stop = consumers[layer]
            entry = _advance(model, states, entry, start, stop, schedule.batch_size)
            start = stop
        scope, st = f"layer{layer}", by_index[layer]
        for epoch in range(schedule.epochs):
            t0 = time.perf_counter()
            total, nb = 0.0, 0
            for sel in _batches(n, schedule.batch_size, rng):
                value, grad = neg_elbo_and_grads(states, model, entry[sel], y[sel], n, rng,
                                                 layer=layer, start=start, schedule=schedule)
                where = f"at epoch {epoch + 1}, batch {nb + 1}"
                if not math.isfinite(value.neg_elbo):
                    raise NumericError(f"{scope} neg_elbo is {value.neg_elbo} {where}")
                if value.expected_nll > bound:
                    raise NumericError(f"{scope} expected NLL {value.expected_nll:.6g} exceeds "
                                       f"the divergence bound {bound:.6g} {where}")
                st.theta = st.theta - schedule.lr * grad
                total += value.neg_elbo
                nb += 1
            stats = EpochStats(scope, epoch + 1, total / max(nb, 1),
                               time.perf_counter() - t0)
            history.append(stats)
            logger.info("%s epoch %d/%d: neg_elbo %.4f (%.2fs)", stats.scope, stats.epoch,
                        schedule.epochs, stats.mean_neg_elbo, stats.seconds)
    return history
