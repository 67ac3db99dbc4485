"""Variational training of per-layer Dirichlet importance switches.

Each switch layer l gets a free parameter vector theta_l; the posterior
concentration is phi_l = softplus(theta_l) + 1e-6, the prior is the symmetric
Dir(alpha0). The objective on a minibatch is

    neg_elbo = E_q[ NLL(batch) ] + kl_weight * sum_l KL(q_l || prior_l)

with kl_weight defaulting to 1/dataset_size. Two gradient estimators:

  - AnalyticMean: runs the forward pass at the posterior mean phi/sum(phi),
    which sits on the autodiff tape, so d(NLL)/d(theta) is exact for that
    plug-in objective; the KL gradient is added in closed form.
  - ImplicitMC(k): averages k reparameterized posterior samples. Each switch
    sample is s = y / sum(y) with y ~ Gamma(phi, 1); backprop stops at s and
    the chain to phi uses the implicit gradients dy/dphi of the Gamma draws,
    which are analytic. Per batch it costs one untaped pass through the
    layers before the first trained switch, one (k, D) draw per trained
    layer, and k taped passes through the rest of the graph.

Model weights stay frozen throughout; only theta moves.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .dirichlet import (dirichlet_kl, dirichlet_kl_grad, dirichlet_marginal_std,
                        dirichlet_sample_batch)
from .errors import ContractError, ShapeError
from .models import ModelGraph, _batches, forward, switch_layer_indices
from .tensor import Tape, Tensor

_PHI_SHIFT = 1e-6
_THETA_INIT = math.log(math.expm1(1.0))  # softplus(theta) = 1


@dataclass(frozen=True)
class AnalyticMean:
    pass


@dataclass(frozen=True)
class ImplicitMC:
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"sample count must be >= 1, got {self.k}")


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


def _taped_mean(theta: Tensor) -> Tensor:
    """The posterior mean phi / sum(phi) as a function of theta on the tape."""
    phi = T.add(T.softplus(theta), Tensor(np.float64(_PHI_SHIFT)))
    return T.div(phi, T.tsum(phi))


def switch_forward(state: SwitchState, h, sample=None, theta: Tensor | None = None):
    """Scale each channel of a pre-activation by the switch: s o h.

    Uses the provided simplex sample when given, the posterior mean
    otherwise. The surrounding graph applies its own nonlinearity after.
    Pass theta as a Tensor to route the mean through the tape, which makes
    d(output)/d(theta) available from backward.
    """
    ht = h if isinstance(h, Tensor) else Tensor(np.asarray(h, dtype=np.float64))
    width = state.theta.shape[0]
    if ht.data.ndim < 2 or ht.data.shape[1] != width:
        raise ShapeError(
            f"switch width {width} does not match channel axis of input {ht.data.shape}")
    if sample is not None:
        s = sample if isinstance(sample, Tensor) else Tensor(np.asarray(sample, dtype=np.float64))
    elif theta is not None:
        s = _taped_mean(theta)
    else:
        s = Tensor(state.posterior_mean())
    if s.data.ndim != 1 or s.data.shape[0] != width:
        raise ShapeError(f"switch value must have shape ({width},), got {s.data.shape}")
    return T.broadcast_mul_channels(ht, s)


@dataclass
class SwitchObjectiveValue:
    neg_elbo: float
    expected_nll: float
    kl_term: float
    kl_weight: float


def _kl_parts(states, dataset_size):
    """Total KL across layers and its per-state theta gradients."""
    kl = 0.0
    grads = {}
    for st in states:
        phi = st.phi()
        prior = np.full_like(phi, st.alpha0)
        kl += dirichlet_kl(phi, prior)
        grads[st.layer_index] = dirichlet_kl_grad(phi, prior) * _sigmoid_np(st.theta)
    return kl, grads


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


def _nll_and_grads_analytic(model, states, train_set, xb, yb):
    theta_t = {}
    switches = {}
    with Tape():
        for st in states:
            if st.layer_index in train_set:
                th = Tensor(st.theta, requires_grad=True)
                switches[st.layer_index] = _taped_mean(th)
                theta_t[st.layer_index] = th
            else:
                switches[st.layer_index] = st.posterior_mean()
        logits = forward(model, xb, switches=switches)
        nll = T.softmax_cross_entropy(logits, yb)
    T.backward(nll)
    grads = {idx: th.grad if th.grad is not None else np.zeros_like(th.data)
             for idx, th in theta_t.items()}
    return nll.item(), grads


def _nll_and_grads_implicit(model, states, train_set, xb, yb, k, rng):
    """k-sample Monte Carlo estimate of E_q[NLL] and its theta gradients.

    The layers before the first trained switch do not depend on the sample,
    so they run once per batch, untaped, with the other switches at their
    posterior mean. Each trained layer takes its k draws, with the implicit
    gradients dy/dphi, from one dirichlet_sample_batch call. Only the suffix
    from the first trained switch on runs per sample, each on its own tape:
    one prefix pass plus k suffix passes per batch, and the memory of one
    suffix tape. The per-sample dL/ds rows are collected into (k, D) arrays
    and pushed to phi in one vectorized chain rule.
    """
    by_index = {st.layer_index: st for st in states}
    mean_switches = {st.layer_index: st.posterior_mean()
                     for st in states if st.layer_index not in train_set}
    first = min(train_set)
    h = forward(model, xb, switches=mean_switches, stop=first)
    draws = {idx: dirichlet_sample_batch(by_index[idx].phi(), k, rng)
             for idx in sorted(train_set)}
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
        grads[idx] = dphi.sum(axis=0) / k * _sigmoid_np(by_index[idx].theta)
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
    estimators = {type(st.estimator) for st in states if st.layer_index in train_set}
    ks = {st.estimator.k for st in states
          if st.layer_index in train_set and isinstance(st.estimator, ImplicitMC)}
    if len(estimators) > 1:
        raise ContractError("trained states disagree on estimator")
    if estimators == {ImplicitMC}:
        nll, nll_grads = _nll_and_grads_implicit(model, states, train_set, xb, yb,
                                                 k=ks.pop(), rng=rng)
    else:
        nll, nll_grads = _nll_and_grads_analytic(model, states, train_set, xb, yb)
    kl, kl_grads = _kl_parts(states, dataset_size)
    value = SwitchObjectiveValue(
        neg_elbo=nll + kl_weight * kl,
        expected_nll=nll,
        kl_term=kl,
        kl_weight=kl_weight,
    )
    grads = {idx: nll_grads[idx] + kl_weight * kl_grads[idx] for idx in train_set}
    return value, grads


def neg_elbo_minibatch(states, model, xb, yb, dataset_size, rng) -> SwitchObjectiveValue:
    value, _ = neg_elbo_and_grads(states, model, xb, yb, dataset_size, rng)
    return value


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


def load_states(path, estimator=None) -> list[SwitchState]:
    with open(path) as f:
        payload = json.load(f)
    if payload.get("version") != 1:
        raise ContractError(f"unsupported switch state version {payload.get('version')!r}")
    states = []
    for key in sorted(payload["theta"], key=int):
        states.append(SwitchState(
            layer_index=int(key),
            theta=np.asarray(payload["theta"][key], dtype=np.float64),
            alpha0=float(payload["alpha0"]),
            estimator=estimator if estimator is not None else AnalyticMean(),
            kl_weight=payload.get("kl_weight"),
        ))
    return states


@dataclass
class SwitchTrainSchedule:
    mode: str = "per_layer"  # "per_layer" or "joint"
    epochs: int = 1
    batch_size: int = 100
    lr: float = 0.1

    def __post_init__(self):
        if self.mode not in ("per_layer", "joint"):
            raise ContractError(f"mode must be per_layer or joint, got {self.mode!r}")
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
    state.theta in place and returns per-epoch statistics."""
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
