"""Variational training of per-layer Dirichlet importance switches.

Each switch layer l gets a free parameter vector theta_l; the posterior
concentration is phi_l = softplus(theta_l) + 1e-6, the prior is the symmetric
Dir(alpha0). The objective on a minibatch is

    neg_elbo = E_q[ NLL(batch) ] + kl_weight * sum_l KL(q_l || prior_l)

with kl_weight defaulting to 1/dataset_size. Both gradient estimators run
the same path; they differ only in the rows they draw for each trained layer:

  - ImplicitMC(k): k reparameterized posterior samples. Each switch sample
    is s = y / sum(y) with y ~ Gamma(phi, 1), and dy/dphi are the analytic
    implicit gradients of the Gamma draws.
  - AnalyticMean: one deterministic row at the posterior mean, s =
    phi / sum(phi), i.e. y = phi with the identity Jacobian dy/dphi = 1, so
    d(NLL)/d(theta) is exact for that plug-in objective.

Per batch the path costs one untaped pass through the layers before the
first trained switch and one taped pass through the rest of the graph per
row; backprop stops at s, and one vectorized chain rule carries the (k, D)
dL/ds rows to theta. The KL gradient is added in closed form.

Model weights stay frozen throughout; only theta moves.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .dirichlet import dirichlet_kl, dirichlet_marginal_std, dirichlet_sample_batch
from .errors import ContractError, FormatError, NumericError
from .models import ModelGraph, _batches, forward, read_json, switch_layer_indices
from .tensor import Tape, Tensor

_PHI_SHIFT = 1e-6
_THETA_INIT = math.log(math.expm1(1.0))  # softplus(theta) = 1


@dataclass(frozen=True)
class AnalyticMean:
    def draw(self, phi, rng):
        """One row (s, y, dy/dphi) at the posterior mean: y = phi, s = y / sum(y)."""
        return (phi / phi.sum())[None], phi[None], np.ones((1, phi.shape[0]))


@dataclass(frozen=True)
class ImplicitMC:
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"sample count must be >= 1, got {self.k}")

    def draw(self, phi, rng):
        """k rows (s, y, dy/dphi) of reparameterized Dir(phi) samples."""
        return dirichlet_sample_batch(phi, self.k, rng)


def _softplus_np(x):
    return np.logaddexp(0.0, x)


def _sigmoid_np(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class SwitchState:
    """Posterior parameters for one switch layer."""

    layer_index: int
    theta: np.ndarray
    alpha0: float = 0.5
    estimator: object = field(default_factory=AnalyticMean)
    kl_weight: float | None = None

    def phi(self) -> np.ndarray:
        return _softplus_np(self.theta) + _PHI_SHIFT

    def posterior_mean(self) -> np.ndarray:
        phi = self.phi()
        return phi / phi.sum()


def init_switch_states(model: ModelGraph, alpha0: float = 0.5,
                       estimator=None, kl_weight: float | None = None) -> list[SwitchState]:
    """One state per switch layer, every concentration starting at
    softplus(theta)+1e-6 with theta = softplus_inv(1)."""
    if alpha0 <= 0.0:
        raise ContractError(f"alpha0 must be > 0, got {alpha0}")
    states = []
    for idx in switch_layer_indices(model):
        width = model.layers[idx].d
        states.append(SwitchState(
            layer_index=idx,
            theta=np.full(width, _THETA_INIT),
            alpha0=alpha0,
            estimator=estimator if estimator is not None else AnalyticMean(),
            kl_weight=kl_weight,
        ))
    return states


def posterior_report(state: SwitchState) -> tuple[np.ndarray, np.ndarray]:
    """(mean, marginal std) of the switch posterior, each of layer width."""
    return state.posterior_mean(), dirichlet_marginal_std(state.phi())


@dataclass
class SwitchObjectiveValue:
    neg_elbo: float
    expected_nll: float
    kl_term: float
    kl_weight: float


def _resolve_kl_weight(states, dataset_size):
    if dataset_size < 1:
        raise ContractError(f"dataset_size must be >= 1, got {dataset_size}")
    weights = {st.kl_weight for st in states}
    if len(weights) != 1:
        raise ContractError("states disagree on kl_weight")
    (w,) = weights
    return 1.0 / dataset_size if w is None else float(w)


def _check_batch(xb, yb):
    xb = np.asarray(xb, dtype=np.float64)
    yb = np.asarray(yb)
    if xb.shape[0] == 0:
        raise ContractError("minibatch is empty")
    if yb.shape[0] != xb.shape[0]:
        raise ContractError(f"batch size mismatch: {xb.shape[0]} inputs, {yb.shape[0]} labels")
    return xb, yb


def _nll_and_grads(model, states, xb, yb, draws):
    """Estimate of E_q[NLL] and its phi gradients from the estimator's rows.

    ``draws`` maps each trained layer to its (S, Y, dY/dphi) arrays, each of
    shape (k, D), with S = Y / sum(Y) row by row. The layers before the
    first trained switch do not depend on the rows, so they run once per
    batch, untaped, with the other switches at their posterior mean. Only
    the suffix from the first trained switch on runs per row, each on its
    own tape: one prefix pass plus k suffix passes per batch, and the memory
    of one suffix tape. The per-row dL/ds are collected into (k, D) arrays
    and pushed to phi in one vectorized chain rule.
    """
    mean_switches = {st.layer_index: st.posterior_mean()
                     for st in states if st.layer_index not in draws}
    first = min(draws)
    h = forward(model, xb, switches=mean_switches, stop=first)
    k = len(next(iter(draws.values()))[0])
    g_s = {idx: np.zeros_like(s) for idx, (s, _, _) in draws.items()}
    nll_acc = 0.0
    for j in range(k):
        leaves = {idx: Tensor(s[j], requires_grad=True) for idx, (s, _, _) in draws.items()}
        with Tape():
            logits = forward(model, h, switches={**mean_switches, **leaves}, start=first)
            nll = T.softmax_cross_entropy(logits, yb)
        T.backward(nll)
        nll_acc += nll.item()
        for idx, leaf in leaves.items():
            if leaf.grad is not None:
                g_s[idx][j] = leaf.grad
    grads = {}
    for idx, (s, y, dy_dphi) in draws.items():
        g = g_s[idx]
        # s_m = y_m / sum(y): d(nll)/dphi_m = dy_dphi_m * (g_m - g.s) / sum(y)
        dphi = dy_dphi * (g - (g * s).sum(axis=1, keepdims=True)) / y.sum(axis=1, keepdims=True)
        grads[idx] = dphi.sum(axis=0) / k
    return nll_acc / k, grads


def neg_elbo_and_grads(states, model, xb, yb, dataset_size, rng,
                       train_indices=None):
    """Minibatch objective and d(neg_elbo)/d(theta) for the trained layers.

    train_indices selects which switch layers carry gradients (all by
    default); the others run at their posterior mean.
    """
    xb, yb = _check_batch(xb, yb)
    if not states:
        raise ContractError("no switch states given")
    kl_weight = _resolve_kl_weight(states, dataset_size)
    train_set = set(train_indices) if train_indices is not None \
        else {st.layer_index for st in states}
    by_index = {st.layer_index: st for st in states}
    if not train_set <= by_index.keys():
        raise ContractError(f"train_indices {sorted(train_set - by_index.keys())} "
                            "name no switch state")
    estimators = {by_index[idx].estimator for idx in train_set}
    if len(estimators) != 1:
        raise ContractError(f"trained states must share one estimator, got {estimators}")
    (estimator,) = estimators
    phis = {st.layer_index: st.phi() for st in states}
    draws = {idx: estimator.draw(phis[idx], rng) for idx in sorted(train_set)}
    nll, nll_grads = _nll_and_grads(model, states, xb, yb, draws)
    # the KL sums every layer; its phi gradient is kept for the trained ones,
    # and both phi gradients reach theta through one dphi/dtheta = sigmoid
    kl, grads = 0.0, {}
    for st in states:
        phi = phis[st.layer_index]
        layer_kl, kl_grad = dirichlet_kl(phi, np.full_like(phi, st.alpha0))
        kl += layer_kl
        if st.layer_index in train_set:
            sig = _sigmoid_np(st.theta)
            grads[st.layer_index] = (nll_grads[st.layer_index] * sig
                                     + kl_weight * (kl_grad * sig))
    return SwitchObjectiveValue(nll + kl_weight * kl, nll, kl, kl_weight), grads


def save_states(states: list[SwitchState], path) -> None:
    """Thetas and prior as JSON; the estimator is a training-time choice and
    is not persisted."""
    payload = {
        "version": 1,
        "alpha0": states[0].alpha0 if states else 0.5,
        "kl_weight": states[0].kl_weight if states else None,
        "theta": {str(st.layer_index): [float(v) for v in st.theta] for st in states},
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_states(path, model: ModelGraph, estimator=None) -> list[SwitchState]:
    """Read states written by ``save_states`` for ``model``: every state must
    sit on one of the model's switch layers and match its width. A malformed
    file raises FormatError naming the file and the key or layer."""
    payload = read_json(path, "switch state", "theta")
    states = []
    for layer, values in payload["theta"].items():
        try:
            states.append(SwitchState(
                layer_index=layer,
                theta=np.asarray(values, dtype=np.float64),
                alpha0=float(payload.get("alpha0")),
                estimator=estimator if estimator is not None else AnalyticMean(),
                kl_weight=payload.get("kl_weight"),
            ))
        except (TypeError, ValueError):
            raise FormatError(f"{path}: switch state for layer {layer} is not a number "
                              "vector with a numeric alpha0") from None
    states.sort(key=lambda st: st.layer_index)
    widths = {i: model.layers[i].d for i in switch_layer_indices(model)}
    for st in states:
        if st.layer_index not in widths:
            raise ContractError(f"switch state for layer {st.layer_index}: "
                                f"the model has no switch layer there")
        if st.theta.shape != (widths[st.layer_index],):
            raise ContractError(
                f"switch state for layer {st.layer_index} has width {st.theta.size}, "
                f"the model's switch layer {st.layer_index} has width "
                f"{widths[st.layer_index]}")
    return states


SWITCH_MODES = ("per_layer", "joint")


@dataclass
class SwitchTrainSchedule:
    mode: str = "per_layer"  # one of SWITCH_MODES
    epochs: int = 1
    batch_size: int = 100
    lr: float = 0.1

    def __post_init__(self):
        if self.mode not in SWITCH_MODES:
            raise ContractError(f"mode must be one of {', '.join(SWITCH_MODES)}, "
                                f"got {self.mode!r}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0.0:
            raise ContractError(f"lr must be > 0, got {self.lr}")


@dataclass
class EpochStats:
    scope: str
    epoch: int
    mean_neg_elbo: float
    seconds: float


def train_switches(model: ModelGraph, states: list[SwitchState], x, y,
                   schedule: SwitchTrainSchedule, rng, log=None) -> list[EpochStats]:
    """Plain SGD on theta. per_layer mode sweeps the switch layers in graph
    order, updating one layer's theta per sweep while the others sit at
    their posterior mean; joint mode updates all thetas together. Mutates
    state.theta in place and returns per-epoch statistics. Raises
    NumericError, naming the scope, epoch and batch, at the first batch whose
    neg_elbo is not finite, before its step touches theta."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise ContractError("training data is empty")
    if not states:
        raise ContractError("no switch states given")
    n = x.shape[0]
    by_index = {st.layer_index: st for st in states}
    if schedule.mode == "per_layer":
        groups = [("layer%d" % st.layer_index, [st.layer_index])
                  for st in sorted(states, key=lambda s: s.layer_index)]
    else:
        groups = [("joint", sorted(by_index))]
    history = []
    for scope, train_indices in groups:
        for epoch in range(schedule.epochs):
            t0 = time.perf_counter()
            total, nb = 0.0, 0
            for sel in _batches(n, schedule.batch_size, rng):
                value, grads = neg_elbo_and_grads(
                    states, model, x[sel], y[sel], n, rng, train_indices=train_indices)
                if not math.isfinite(value.neg_elbo):
                    raise NumericError(f"{scope} neg_elbo is {value.neg_elbo} at epoch "
                                       f"{epoch + 1}, batch {nb + 1}")
                for li in train_indices:
                    by_index[li].theta = by_index[li].theta - schedule.lr * grads[li]
                total += value.neg_elbo
                nb += 1
            stats = EpochStats(scope, epoch + 1, total / max(nb, 1),
                               time.perf_counter() - t0)
            history.append(stats)
            if log is not None:
                log(f"{stats.scope} epoch {stats.epoch}/{schedule.epochs}: "
                    f"neg_elbo {stats.mean_neg_elbo:.4f} ({stats.seconds:.2f}s)")
    return history
