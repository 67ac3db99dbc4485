"""Variational switch training: objective, estimators, per-layer sweeps."""

import json
import math
import warnings

import numpy as np
import pytest

from dirichlet_pruning import dirichlet as dirichlet_module
from dirichlet_pruning import switch as switch_module
from dirichlet_pruning import tensor as T
from dirichlet_pruning.dirichlet import dirichlet_kl
from dirichlet_pruning.errors import ContractError, FormatError, NumericError
from dirichlet_pruning.models import (Conv2d, FullyConnected, ModelGraph, Relu,
                                      build_lenet5, build_mlp, forward,
                                      prunable_widths, switch_consumers)
from dirichlet_pruning.switch import (AnalyticMean, ImplicitMC, SwitchState,
                                      SwitchTrainSchedule, init_switch_states,
                                      load_states, neg_elbo_and_grads,
                                      posterior_report, save_states,
                                      train_switches)
from dirichlet_pruning.synthetic import gen_synthetic, task_model
from dirichlet_pruning.tensor import Tape, Tensor

from conftest import central_fd, grad_err, peak_mib
from tape_ops import add, div, softplus, tsum

PHI_SHIFT = 1e-6


def _theta_for_phi(phi):
    """Inverse of phi = softplus(theta) + shift."""
    return np.log(np.expm1(np.asarray(phi, dtype=np.float64) - PHI_SHIFT))


def _small_problem(seed=40, d_x=5, d_h=4, n=60, k_classes=2):
    rng = np.random.default_rng(seed)
    model = build_mlp(d_x, d_h, k_classes, rng=rng)
    x = rng.standard_normal((n, d_x))
    y = rng.integers(0, k_classes, n)
    return model, x, y


# ---------------------------------------------------------------------------
# state basics


def test_phi_always_positive():
    st = SwitchState(layer=0, theta=np.array([-1000.0, 0.0, 50.0]))
    phi = st.phi()
    assert np.all(phi > 0.0)
    assert phi[0] == pytest.approx(PHI_SHIFT)


def test_implicit_mc_requires_positive_k():
    ImplicitMC(1)
    ImplicitMC(np.int64(3))
    with pytest.raises(ContractError):
        ImplicitMC(0)
    # a non-integer k would pass the >= 1 check and fail in the first draw
    for bad in (2.5, True):
        with pytest.raises(ContractError, match="k .*must be an int"):
            ImplicitMC(bad)


def test_init_switch_states():
    model, _, _ = _small_problem()
    states = init_switch_states(model)
    assert [st.layer for st in states] == [0]
    assert [st.theta.size for st in states] == prunable_widths(model)
    lenet = build_lenet5([3, 4, 8, 6], rng=np.random.default_rng(41))
    assert [(st.layer, st.theta.size) for st in init_switch_states(lenet)] == [
        (0, 3), (1, 4), (2, 8), (3, 6)]
    for st in states:
        assert np.allclose(st.phi(), 1.0, atol=1e-9)


def test_posterior_report_uniform():
    st = SwitchState(layer=0, theta=_theta_for_phi(np.full(4, 0.5)))
    mean, std = posterior_report(st)
    assert np.allclose(mean, 0.25, atol=1e-12)
    assert np.all(std > 0.0)


def test_posterior_mean_ranking_scale_invariant():
    phi = np.array([0.4, 2.2, 1.1, 0.7])
    st1 = SwitchState(layer=0, theta=_theta_for_phi(phi))
    st2 = SwitchState(layer=0, theta=_theta_for_phi(7.0 * phi))
    m1, _ = posterior_report(st1)
    m2, _ = posterior_report(st2)
    assert np.array_equal(np.argsort(-m1), np.argsort(-m2))


# ---------------------------------------------------------------------------
# objective


def test_neg_elbo_decomposition_identity():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    for _ in range(3):
        v = neg_elbo_and_grads(states, model, x[:20], y[:20], 60, np.random.default_rng(0),
                               layer=0)[0]
        assert v.neg_elbo == v.expected_nll + v.kl_weight * v.kl_term


def test_kl_term_zero_iff_phi_equals_prior():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    v_init = neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0),
                                layer=0)[0]
    assert v_init.kl_term > 1e-6  # phi starts at 1, the default prior at 0.5
    for st in states:
        st.theta = _theta_for_phi(np.full(st.theta.shape, 0.5))
    v = neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0),
                           layer=0)[0]
    assert abs(v.kl_term) <= 1e-9


def test_expected_nll_is_log_k_for_zero_weights():
    model, x, y = _small_problem(k_classes=2)
    for name in model.weights:
        model.weights[name] = np.zeros_like(model.weights[name])
    states = init_switch_states(model)
    v = neg_elbo_and_grads(states, model, x[:16], y[:16], 60, np.random.default_rng(0),
                           layer=0)[0]
    assert abs(v.expected_nll - math.log(2.0)) <= 1e-12
    # a sampled estimator sees the same constant surface
    v_mc = neg_elbo_and_grads(states, model, x[:16], y[:16], 60, np.random.default_rng(1),
                              layer=0, schedule=SwitchTrainSchedule(estimator=ImplicitMC(3)))[0]
    assert abs(v_mc.expected_nll - math.log(2.0)) <= 1e-12


def test_default_kl_weight_is_one_over_n():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    v = neg_elbo_and_grads(states, model, x[:10], y[:10], 250, np.random.default_rng(0),
                           layer=0)[0]
    assert v.kl_weight == 1.0 / 250
    v = neg_elbo_and_grads(states, model, x[:10], y[:10], 250, np.random.default_rng(0),
                           layer=0, schedule=SwitchTrainSchedule(kl_weight=0.03))[0]
    assert v.kl_weight == 0.03


def test_empty_batch_rejected():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    with pytest.raises(ContractError):
        neg_elbo_and_grads(states, model, x[:0], y[:0], 60, np.random.default_rng(0), layer=0)


def test_layer_must_name_a_switch_state():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    with pytest.raises(ContractError, match="layer 7 names no switch state"):
        neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0),
                           layer=7)


def test_analytic_grad_matches_fd():
    model, x, y = _small_problem(seed=43)
    states = init_switch_states(model)
    idx = states[0].layer
    theta0 = states[0].theta.copy()
    _, grad = neg_elbo_and_grads(states, model, x[:25], y[:25], 60,
                                 np.random.default_rng(0), layer=idx)

    def value(theta):
        states[0].theta = theta
        v = neg_elbo_and_grads(states, model, x[:25], y[:25], 60, np.random.default_rng(0),
                               layer=idx)[0]
        states[0].theta = theta0
        return v.neg_elbo

    assert grad_err(grad, central_fd(value, theta0)) <= 1e-4


def test_analytic_objective_deterministic():
    model, x, y = _small_problem(seed=44)
    states = init_switch_states(model)
    v1, g1 = neg_elbo_and_grads(states, model, x[:20], y[:20], 60, np.random.default_rng(5),
                                layer=0)
    v2, g2 = neg_elbo_and_grads(states, model, x[:20], y[:20], 60, np.random.default_rng(99),
                                layer=0)
    assert v1.neg_elbo == v2.neg_elbo
    assert np.array_equal(g1, g2)


def test_implicit_mc_concentrates_with_k():
    model, x, y = _small_problem(seed=45, d_x=8, d_h=6, n=64, k_classes=3)
    xb, yb = x[:32], y[:32]

    def stderr(k, reps=20):
        vals = []
        for r in range(reps):
            v = neg_elbo_and_grads(init_switch_states(model), model, xb, yb, 64,
                                   np.random.default_rng(1000 + r), layer=0,
                                   schedule=SwitchTrainSchedule(estimator=ImplicitMC(k)))[0]
            vals.append(v.expected_nll)
        vals = np.array(vals)
        return vals.std(ddof=1) / math.sqrt(reps)

    assert stderr(500) < stderr(50)


def test_implicit_mc_underflowed_draws_raise_numeric_error():
    # phi ~ 1e-6 floors every Gamma draw at the smallest subnormal; the step
    # must fail loudly instead of training on uniform switches
    model, x, y = _small_problem(seed=52)
    states = init_switch_states(model)
    states[0].theta = np.full(states[0].theta.shape, -60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError):
            neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0),
                               layer=0, schedule=SwitchTrainSchedule(estimator=ImplicitMC(4)))


def _per_sample_oracle(model, states, layer, xb, yb, draw):
    """The estimator before batching: k full forward passes, each on its own
    tape, with the chain rule to theta applied sample by sample. ``draw`` is
    the (S, Y, dY/dphi) arrays the batched estimator drew for ``layer``; only
    the raw Gamma values and their gradients are used."""
    st = next(st for st in states if st.layer == layer)
    mean_switches = {o.layer: o.posterior_mean() for o in states if o.layer != layer}
    _, y_all, dy_all = draw
    k = len(y_all)
    nll_acc = 0.0
    grad = np.zeros_like(st.theta)
    for j in range(k):
        y, dy_dphi = y_all[j], dy_all[j]
        total = y.sum()
        s_t = Tensor(y / total, requires_grad=True)
        with Tape():
            logits = forward(model, xb, switches={**mean_switches, layer: s_t})
            nll = T.softmax_cross_entropy(logits, yb)
        T.backward(nll)
        nll_acc += nll.item()
        if s_t.grad is None:
            continue
        g_s = s_t.grad
        dphi = dy_dphi * (g_s - float(g_s @ s_t.data)) / total
        grad += dphi * (1.0 / (1.0 + np.exp(-st.theta)))
    return nll_acc / k, grad / k


def _taped_mean(theta: Tensor) -> Tensor:
    """The posterior mean phi / sum(phi) as a function of theta on the tape."""
    phi = add(softplus(theta), Tensor(np.float64(PHI_SHIFT)))
    return div(phi, tsum(phi))


def _taped_mean_oracle(model, states, layer, xb, yb):
    """The analytic estimator without the shared sampled path: one full
    forward pass at the posterior mean, taped from theta, with the theta
    gradient from backward."""
    switches = {}
    with Tape():
        for st in states:
            if st.layer == layer:
                theta = Tensor(st.theta, requires_grad=True)
                switches[st.layer] = _taped_mean(theta)
            else:
                switches[st.layer] = st.posterior_mean()
        logits = forward(model, xb, switches=switches)
        nll = T.softmax_cross_entropy(logits, yb)
    T.backward(nll)
    return nll.item(), theta.grad


def _assert_matches_oracle(estimator, model, states, layer, xb, yb):
    """The shared estimator path against the per-sample oracle (ImplicitMC)
    or the taped-mean oracle (AnalyticMean), on the same draws."""
    assert any(np.any(st.theta < 0.0) for st in states)
    st = next(st for st in states if st.layer == layer)
    draw = estimator.draw(st.phi(), np.random.default_rng(60))
    nll, dphi = switch_module._nll_and_grads(model, states, xb, yb, layer, draw)
    grad = dphi * switch_module._sigmoid_np(st.theta)
    if isinstance(estimator, AnalyticMean):
        nll_ref, grad_ref = _taped_mean_oracle(model, states, layer, xb, yb)
    else:
        nll_ref, grad_ref = _per_sample_oracle(model, states, layer, xb, yb, draw)
    np.testing.assert_allclose(nll, nll_ref, rtol=1e-10, atol=0)
    assert np.any(grad_ref != 0.0)
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-10, atol=0)


def _spread_thetas(states, seed):
    rng = np.random.default_rng(seed)
    for st in states:
        st.theta = rng.normal(0.5, 0.8, st.theta.shape)


def _mlp_per_layer_case():
    model, x, y = _small_problem(seed=53, d_x=7, d_h=6, n=30, k_classes=3)
    states = init_switch_states(model)
    _spread_thetas(states, 54)
    return model, states, 0, x, y


def _lenet_case(layer):
    rng = np.random.default_rng(56)
    model = build_lenet5([3, 4, 8, 6], rng=rng)
    x = rng.standard_normal((6, 1, 28, 28))
    y = rng.integers(0, 10, 6)
    states = init_switch_states(model)
    _spread_thetas(states, 57)
    return model, states, layer, x, y


def _lenet_first_switch_case():
    # the consumer is conv2, so dL/ds comes from a conv kernel gradient
    return _lenet_case(0)


def _lenet_second_switch_case():
    # the consumer is fc1 after the flatten: s scales its rows group by group
    return _lenet_case(1)


def _lenet_third_switch_case():
    # the prefix holds conv, pool and the first two switches at their means
    return _lenet_case(2)


def test_implicit_mc_matches_per_sample_oracle_mlp_per_layer():
    _assert_matches_oracle(ImplicitMC(9), *_mlp_per_layer_case())


def test_implicit_mc_matches_per_sample_oracle_lenet_first_switch():
    _assert_matches_oracle(ImplicitMC(5), *_lenet_first_switch_case())


def test_implicit_mc_matches_per_sample_oracle_lenet_second_switch():
    _assert_matches_oracle(ImplicitMC(5), *_lenet_second_switch_case())


def test_implicit_mc_matches_per_sample_oracle_lenet_third_switch():
    _assert_matches_oracle(ImplicitMC(5), *_lenet_third_switch_case())


@pytest.mark.parametrize("case", [_lenet_first_switch_case, _lenet_second_switch_case,
                                  _mlp_per_layer_case],
                         ids=["lenet_conv_consumer", "lenet_fc_consumer", "mlp_fc_consumer"])
def test_implicit_mc_in_ragged_chunks_matches_per_sample_oracle(case, monkeypatch):
    # a stack budget of two draws splits five draws into chunks of 2, 2 and 1
    model, states, layer, x, y = case()
    entry = switch_consumers(model)[layer]
    out_row = forward(model, x[:1], stop=entry + 1).data.size
    per_draw = model.weights[f"layer{entry}.weight"].size + x.shape[0] * out_row
    monkeypatch.setattr(switch_module, "_STACK_VALUES", 2 * per_draw + 1)
    chunks, loss = [], T.softmax_cross_entropy

    def counted(logits, labels, copies=1):
        chunks.append(copies)
        return loss(logits, labels, copies)

    monkeypatch.setattr(T, "softmax_cross_entropy", counted)
    _assert_matches_oracle(ImplicitMC(5), model, states, layer, x, y)
    assert chunks[:3] == [2, 2, 1]  # the oracle's own passes follow, one draw each


@pytest.mark.parametrize("case", [_mlp_per_layer_case, _lenet_first_switch_case,
                                  _lenet_second_switch_case, _lenet_third_switch_case],
                         ids=["mlp_per_layer", "lenet_first_switch", "lenet_second_switch",
                              "lenet_third_switch"])
def test_analytic_mean_matches_taped_oracle(case):
    _assert_matches_oracle(AnalyticMean(), *case())


@pytest.mark.parametrize("d_in,d_out,width,c,budget", [
    (800, 800, 50, 1, None), (800, 500, 800, 1, None), (500, 2, 500, 100, None),
    (800, 800, 50, 3, None),  # LeNet's fc1 and fc2 consumers, the MLP's logits
    (96, 5, 12, 3, 5 * 8 * 3 * 5),  # chunks of 5, 5 and 2 channel groups
    (96, 5, 12, 3, 1),  # one group a chunk
])
def test_fc_row_grads_in_chunks_equal_the_whole_product_bitwise(d_in, d_out, width, c, budget,
                                                                 monkeypatch):
    # the row gradient of T.scale_input_channels for an fc consumer's weight
    if budget is not None:
        monkeypatch.setattr(T, "_ROW_GRAD_VALUES", budget)
    rng = np.random.default_rng(d_in + d_out + width + c)
    w, rows = rng.standard_normal((d_in, d_out)), rng.random((c, width))
    grad = rng.standard_normal((d_in, c * d_out))
    whole = np.add.reduce(grad.reshape(width, -1, c, d_out) * w.reshape(width, -1, 1, d_out),
                          axis=(1, 3)).T
    with Tape() as tape:
        T.scale_input_channels(Tensor(w), Tensor(rows, requires_grad=True))
    (node,) = tape._nodes
    (got,) = node.backward_fn(grad)
    assert got.shape == (c, width) and np.array_equal(got, whole)


def test_fc_consumer_switch_step_allocation_peak_full_lenet():
    # conv2's switch scales fc1's (800, 800) weight: a step holds a draw's
    # scaled weight and its gradient, 4.9 MiB each, and contracts that
    # gradient with the weight in chunks of 0.5 MiB. Eight draws run one a
    # chunk, and each chunk's scaled weight and gradient are freed on its
    # own tape. About 10.4 MiB for either estimator; one whole product of
    # the gradient's size peaked at 15.3 MiB, and so did eight draws whose
    # scaled weight and gradient lived on while the next draw's was made
    model = build_lenet5([20, 50, 800, 500], rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0.0, 1.0, (100, 1, 28, 28)), rng.integers(0, 10, 100)
    entry = switch_consumers(model)[1]
    h = forward(model, x, stop=entry).data
    states = init_switch_states(model)
    w_mib = model.weights[f"layer{entry}.weight"].nbytes / 2 ** 20
    for estimator in (AnalyticMean(), ImplicitMC(8)):
        schedule = SwitchTrainSchedule(estimator=estimator)
        step = lambda: neg_elbo_and_grads(states, model, h, y, 1000, np.random.default_rng(2),
                                          layer=1, start=entry, schedule=schedule)
        assert peak_mib(step) <= 2 * w_mib + 1.5, estimator


def test_no_model_weight_gradients_with_frozen_weights():
    model, x, y = _small_problem(seed=46)
    weight_tensors = {n: Tensor(w, requires_grad=False) for n, w in model.weights.items()}
    st = init_switch_states(model)[0]
    th = Tensor(st.theta, requires_grad=True)
    with Tape():
        logits = forward(model, x[:10], switches={st.layer: _taped_mean(th)},
                         params=weight_tensors)
        loss = T.softmax_cross_entropy(logits, y[:10])
    T.backward(loss)
    assert th.grad is not None
    for name, t in weight_tensors.items():
        assert t.grad is None, name


# ---------------------------------------------------------------------------
# training


def test_train_switches_mutates_theta_not_weights():
    model, x, y = _small_problem(seed=47, n=80)
    weights_before = {n: w.copy() for n, w in model.weights.items()}
    states = init_switch_states(model)
    theta_before = states[0].theta.copy()
    stats = train_switches(model, states, x, y,
                           SwitchTrainSchedule(epochs=2, batch_size=20, lr=0.3),
                           np.random.default_rng(48))
    assert len(stats) == 2
    assert not np.array_equal(states[0].theta, theta_before)
    for name in weights_before:
        assert np.array_equal(model.weights[name], weights_before[name])


def test_schedule_validation():
    with pytest.raises(ContractError):
        SwitchTrainSchedule(epochs=0)
    with pytest.raises(ContractError):
        SwitchTrainSchedule(lr=0.0)
    with pytest.raises(ContractError, match="batch_size must be >= 1, got 0"):
        SwitchTrainSchedule(batch_size=0)


def test_schedule_holds_the_run_settings():
    default = SwitchTrainSchedule()
    assert (default.estimator, default.alpha0, default.kl_weight) == (AnalyticMean(), 0.5, None)
    SwitchTrainSchedule(estimator=ImplicitMC(3), alpha0=2.0, kl_weight=0.0)


@pytest.mark.parametrize("setting,value,match", [
    ("lr", math.inf, "lr must be finite and > 0, got inf"),
    ("lr", math.nan, "lr must be finite and > 0, got nan"),
    ("alpha0", 0.0, "alpha0 must be finite and > 0"),
    ("alpha0", -1.0, "alpha0 must be finite and > 0"),
    ("alpha0", math.nan, "alpha0 must be finite and > 0"),
    ("alpha0", math.inf, "alpha0 must be finite and > 0"),
    ("kl_weight", -1.0, "kl_weight must be None"),
    ("kl_weight", math.nan, "kl_weight must be None"),
    ("kl_weight", math.inf, "kl_weight must be None"),
    ("estimator", "analytic", "estimator must be AnalyticMean or ImplicitMC"),
])
def test_schedule_rejects_bad_run_setting(setting, value, match):
    with pytest.raises(ContractError, match=match):
        SwitchTrainSchedule(**{setting: value})


def test_train_switches_contract_errors():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    with pytest.raises(ContractError):
        train_switches(model, states, x[:0], y[:0], SwitchTrainSchedule(),
                       np.random.default_rng(0))
    with pytest.raises(ContractError):
        train_switches(model, [], x, y, SwitchTrainSchedule(), np.random.default_rng(0))


def test_kl_gradient_only_for_trained_layers(monkeypatch):
    # every layer's KL value needs psi, and the merged KL takes psi' from the
    # same recurrence: one psi/psi' pass per layer per step, no second pass
    # for the gradient, and a theta gradient only for the trained layer
    rng = np.random.default_rng(49)
    model = build_lenet5([3, 4, 6, 5], rng=rng)
    x = rng.uniform(0.0, 1.0, (40, 1, 28, 28))
    y = rng.integers(0, 10, 40)
    states = init_switch_states(model)
    assert len(states) == 4
    kl_calls, psi_calls = [], []
    kl, psi = switch_module.dirichlet_kl, dirichlet_module._psi_recurrence
    monkeypatch.setattr(switch_module, "dirichlet_kl",
                        lambda *a: kl_calls.append(1) or kl(*a))
    monkeypatch.setattr(dirichlet_module, "_psi_recurrence",
                        lambda *a: psi_calls.append(a[1:]) or psi(*a))
    value, grad = neg_elbo_and_grads(states, model, x[:10], y[:10], 40,
                                     np.random.default_rng(0), layer=states[1].layer)
    assert grad.shape == states[1].theta.shape
    assert len(kl_calls) == 4 and psi_calls == [(True,)] * 4
    # the KL term still sums every layer, trained or not
    expected_kl = sum(kl(st.phi(), np.full(st.theta.shape, 0.5))[0] for st in states)
    assert value.kl_term == pytest.approx(expected_kl, rel=1e-12)
    kl_calls.clear()
    psi_calls.clear()
    train_switches(model, states, x, y,
                   SwitchTrainSchedule(epochs=1, batch_size=20, lr=0.1),
                   np.random.default_rng(50))
    # 4 layers x 2 batches steps, each with one KL pass per layer
    assert len(kl_calls) == len(psi_calls) == 4 * 2 * 4


def test_train_switches_raises_on_non_finite_neg_elbo():
    model, x, y = _small_problem(seed=51)
    model.weights["layer2.weight"][0, 0] = np.nan
    states = init_switch_states(model)
    with pytest.raises(NumericError, match="layer0 neg_elbo is nan at epoch 1, batch 1"):
        train_switches(model, states, x, y, SwitchTrainSchedule(batch_size=20),
                       np.random.default_rng(52))


def test_train_switches_raises_on_diverged_expected_nll():
    # logits scaled by 1e12 give a finite NLL far above 1e9 * log(2)
    model, x, y = _small_problem(seed=51)
    model.weights["layer2.weight"] = model.weights["layer2.weight"] * 1e12
    states = init_switch_states(model)
    with pytest.raises(NumericError, match=r"layer0 expected NLL \S+ exceeds the divergence "
                                           r"bound 6\.93147e\+08 at epoch 1, batch 1"):
        train_switches(model, states, x, y, SwitchTrainSchedule(batch_size=20),
                       np.random.default_rng(52))


def _per_layer_from_x(model, states, x, y, schedule, rng):
    """Switch training as it ran before sweeps were chained: every batch
    of every sweep runs the graph from x through ``neg_elbo_and_grads``
    with the default ``start``.
    Returns each epoch's mean neg_elbo."""
    n = x.shape[0]
    means = []
    for st in sorted(states, key=lambda s: s.layer):
        for _ in range(schedule.epochs):
            idx = np.arange(n)
            rng.shuffle(idx)
            total = 0.0
            for lo in range(0, n, schedule.batch_size):
                sel = idx[lo:lo + schedule.batch_size]
                value, grad = neg_elbo_and_grads(states, model, x[sel], y[sel], n, rng,
                                                 layer=st.layer, schedule=schedule)
                st.theta = st.theta - schedule.lr * grad
                total += value.neg_elbo
            means.append(total / math.ceil(n / schedule.batch_size))
    return means


@pytest.mark.parametrize("estimator", [AnalyticMean(), ImplicitMC(3)], ids=["analytic", "mc3"])
@pytest.mark.parametrize("arch", ["lenet", "mlp"])
def test_chained_sweeps_match_sweeps_from_x(estimator, arch, monkeypatch):
    if arch == "lenet":
        rng = np.random.default_rng(58)
        model = build_lenet5([3, 4, 8, 6], rng=rng)
        x = rng.uniform(0.0, 1.0, (30, 1, 28, 28))
        y = rng.integers(0, 10, 30)
    else:
        model, x, y = _two_switch_model()
        x, y = x[:90], y[:90]
    schedule = SwitchTrainSchedule(epochs=2, batch_size=20, lr=0.5, estimator=estimator)
    states = init_switch_states(model)
    _spread_thetas(states, 59)
    thetas = [st.theta.copy() for st in states]
    ref_states = [SwitchState(st.layer, st.theta.copy()) for st in states]
    entries = []
    advance = switch_module._advance
    monkeypatch.setattr(switch_module, "_advance",
                        lambda *a: entries.append(a[3:5]) or advance(*a))
    stats = train_switches(model, states, x, y, schedule, np.random.default_rng(60))
    want = _per_layer_from_x(model, ref_states, x, y, schedule, np.random.default_rng(60))
    # the first sweep reads x; each later one starts at its consumer's input
    consumers = [i for i, l in enumerate(model.layers)
                 if isinstance(l, (Conv2d, FullyConnected))][1:]
    assert entries == list(zip([0] + consumers[1:-1], consumers[1:]))
    np.testing.assert_allclose([s.mean_neg_elbo for s in stats], want, rtol=1e-12, atol=0)
    for st, ref, before in zip(states, ref_states, thetas):
        assert not np.array_equal(st.theta, before)
        np.testing.assert_allclose(st.theta, ref.theta, rtol=1e-12, atol=0)


def test_advance_folds_each_switch_once_per_call(monkeypatch):
    # one scaled copy of conv2's and of fc1's weight for the whole call, not
    # one per batch, and the rows are bit for bit those of per-batch passes
    # with the mean switches; fc2, where switch 2 acts, is not run
    rng = np.random.default_rng(63)
    model = build_lenet5([3, 4, 8, 6], rng=rng)
    x = rng.uniform(0.0, 1.0, (50, 1, 28, 28))
    states = init_switch_states(model)
    _spread_thetas(states, 64)
    stop = switch_consumers(model)[2]
    folded, scale = [], T.scale_input_channels
    monkeypatch.setattr(T, "scale_input_channels",
                        lambda w, rows: folded.append(w.shape) or scale(w, rows))
    got = switch_module._advance(model, states, x, 0, stop, 10)
    assert folded == [model.weights[f"layer{i}.weight"].shape
                      for i in switch_consumers(model)[:2]]
    monkeypatch.undo()
    means = {st.layer: st.posterior_mean() for st in states}
    want = [forward(model, x[i:i + 10], switches=means, stop=stop).data for i in range(0, 50, 10)]
    assert np.array_equal(got, np.concatenate(want))


def test_advance_between_equal_shaped_entries_allocates_no_second_entry():
    # fc1 of a LeNet whose fc1 keeps its 64 input widths: the entry at fc2
    # has the entry at fc1's shape, so each batch goes back into the rows it
    # was read from. The result is bit for bit a fresh entry's, and the
    # call's peak is a batch's arrays, not a second 1.5 MiB entry
    rng = np.random.default_rng(65)
    model = build_lenet5([3, 4, 64, 6], rng=rng)
    states = init_switch_states(model)
    _spread_thetas(states, 66)
    start, stop = switch_consumers(model)[1:3]
    entry = rng.uniform(0.0, 1.0, (3000, 64))
    want = switch_module._advance(model, states, entry, start, stop, 100)
    assert want is not entry
    peak = peak_mib(lambda: switch_module._advance(model, states, entry, start, stop, 100, True))
    assert np.array_equal(entry, want)
    assert peak <= 0.5 < entry.nbytes / 2 ** 20


def test_chained_sweeps_write_over_their_own_entries_only(monkeypatch):
    # four dense layers of one width: every entry has x's shape. The first
    # advance reads x, the caller's rows, and makes a new entry; the second
    # writes over that one. x is left alone, and the thetas are bit for bit
    # those of a run that stores every entry anew
    rng = np.random.default_rng(67)
    layers = [FullyConnected(6, 6), Relu(), FullyConnected(6, 6), Relu(),
              FullyConnected(6, 6), Relu(), FullyConnected(6, 3)]
    weights = {}
    for i in (0, 2, 4, 6):
        weights[f"layer{i}.weight"] = rng.standard_normal((6, layers[i].d_out))
        weights[f"layer{i}.bias"] = rng.standard_normal(layers[i].d_out) * 0.1
    model = ModelGraph(layers, weights, (6,))
    x, y = rng.standard_normal((80, 6)), rng.integers(0, 3, 80)
    x_before = x.copy()
    schedule = SwitchTrainSchedule(epochs=1, batch_size=20, lr=0.5)
    advance, calls = switch_module._advance, []

    def logged(model, states, h, *args):
        out = advance(model, states, h, *args)
        calls.append(out is h)
        return out

    monkeypatch.setattr(switch_module, "_advance", logged)
    states = init_switch_states(model)
    train_switches(model, states, x, y, schedule, np.random.default_rng(68))
    assert calls == [False, True] and np.array_equal(x, x_before)
    monkeypatch.setattr(switch_module, "_advance", lambda *args: advance(*args[:6]))
    fresh = init_switch_states(model)
    train_switches(model, fresh, x, y, schedule, np.random.default_rng(68))
    assert all(np.array_equal(a.theta, b.theta) for a, b in zip(states, fresh))


def test_single_switch_run_stores_no_entry(monkeypatch):
    calls = []
    monkeypatch.setattr(switch_module, "_advance", lambda *a: calls.append(a))
    model, x, y = _small_problem(seed=61)
    train_switches(model, init_switch_states(model), x, y, SwitchTrainSchedule(batch_size=20),
                   np.random.default_rng(62))
    assert calls == []


def test_kl_descends_when_loss_ignores_switch():
    # zeroing the output layer makes the logits constant in s, so the only
    # gradient left is the KL pull toward the symmetric prior
    model, x, y = _small_problem(seed=49, n=100)
    model.weights["layer2.weight"] = np.zeros_like(model.weights["layer2.weight"])
    model.weights["layer2.bias"] = np.zeros_like(model.weights["layer2.bias"])
    states = init_switch_states(model)
    st = states[0]
    prior = np.full(st.theta.shape, 0.5)
    kl_before = dirichlet_kl(st.phi(), prior)[0]
    train_switches(model, states, x, y,
                   SwitchTrainSchedule(epochs=3, batch_size=25, lr=0.5),
                   np.random.default_rng(50))
    kl_after = dirichlet_kl(st.phi(), prior)[0]
    assert kl_after < kl_before


def test_ground_truth_switch_recovery():
    task, x, y = gen_synthetic(30, 8, 800, np.random.default_rng(31))
    model = task_model(task)
    states = init_switch_states(model)
    train_switches(model, states, x, y,
                   SwitchTrainSchedule(epochs=20, batch_size=100, lr=1.0),
                   np.random.default_rng(32))
    mean, _ = posterior_report(states[0])
    weak = task.true_switch < 1e-3
    assert weak.any() and (~weak).any()
    assert mean[weak].max() < mean[~weak].min()


def _two_switch_model():
    """Three-layer dense net with planted channel importances in both
    switch-bearing layers: the last channels barely reach the logits."""
    rng = np.random.default_rng(33)
    layers = [FullyConnected(10, 6), Relu(), FullyConnected(6, 5), Relu(),
              FullyConnected(5, 3)]
    w1 = rng.standard_normal((10, 6))
    w2 = rng.standard_normal((6, 5))
    w3 = rng.standard_normal((5, 3)) * 3.0
    w2[3:, :] *= 0.02
    w3[2:, :] *= 0.02
    weights = {
        "layer0.weight": w1, "layer0.bias": np.zeros(6),
        "layer2.weight": w2, "layer2.bias": np.zeros(5),
        "layer4.weight": w3, "layer4.bias": np.zeros(3),
    }
    model = ModelGraph(layers, weights, (10,))
    x = rng.standard_normal((400, 10))
    logits = forward(model, x).data
    y = logits.argmax(axis=1)
    return model, x, y


# ---------------------------------------------------------------------------
# persistence


def test_save_load_states_round_trip(tmp_path):
    model, x, y = _small_problem(seed=51)
    states = init_switch_states(model)
    states[0].theta = np.array([0.3, -1.2, 4.0, 0.001])
    p = tmp_path / "switches.json"
    save_states(states, p)
    loaded = load_states(p, model)
    assert len(loaded) == len(states)
    assert np.array_equal(loaded[0].theta, states[0].theta)
    # a state is its theta: the run's prior, KL weight and estimator stay out
    assert json.loads(p.read_text()) == {"version": 1,
                                         "theta": {"0": [0.3, -1.2, 4.0, 0.001]}}


def test_load_states_reads_files_that_store_the_prior(tmp_path):
    # files written before the prior moved to the schedule hold alpha0 and
    # kl_weight; they load unchanged, and the two keys are ignored
    model, _, _ = _small_problem(seed=51)
    path = tmp_path / "switches.json"
    path.write_text('{"version": 1, "alpha0": 0.7, "kl_weight": null, '
                    '"theta": {"0": [0.3, -1.2, 4.0, 0.001]}}')
    (st,) = load_states(path, model)
    assert st.layer == 0
    assert np.array_equal(st.theta, [0.3, -1.2, 4.0, 0.001])


def test_load_states_rejects_widths_of_another_model(tmp_path):
    trained = build_lenet5((20, 50, 800, 500), rng=np.random.default_rng(52))
    path = tmp_path / "switches.json"
    save_states(init_switch_states(trained), path)
    assert len(load_states(path, trained)) == 4
    model = build_lenet5((10, 25, 400, 250), rng=np.random.default_rng(53))
    with pytest.raises(ContractError,
                       match="layer 0 has width 20, the model's layer 0 has width 10"):
        load_states(path, model)


@pytest.mark.parametrize("text,match", [
    ('{"version": 1, "alpha0": 0.5}', "switch state has no 'theta' object"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"0": [0, 0', "not valid JSON"),
    ('{"version": 1, "alpha0": 0.5, "theta": [0]}', "no 'theta' object"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"one": [0, 0, 0, 0]}}',
     "keys \\['one'\\] are not distinct layer indices"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"0": [0, 0, 0, 0], "00": [0, 0, 0, 0]}}',
     "keys \\['0', '00'\\] are not distinct layer indices"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"0": ["a", 0, 0, 0]}}',
     "switch state for layer 0 is not a number vector"),
    ('{"version": 1, "theta": {"0": [0, NaN, 0, 0]}}',
     "switch state for layer 0 holds a non-finite theta"),
    ('{"version": 1, "theta": {"0": [0, 0, -Infinity, 0]}}',
     "switch state for layer 0 holds a non-finite theta"),
], ids=["no-theta", "truncated", "theta-not-an-object", "bad-layer",
        "repeated-layer", "bad-value", "nan-theta", "infinite-theta"])
def test_load_states_malformed_file_rejected(tmp_path, text, match):
    model, _, _ = _small_problem(seed=55)
    path = tmp_path / "switches.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=match) as e:
        load_states(path, model)
    assert str(path) in str(e.value)


def test_load_states_rejects_state_off_the_switch_layers(tmp_path):
    model, _, _ = _small_problem(seed=54)
    states = init_switch_states(model)
    states[0].layer = 1  # one past the MLP's only prunable layer
    path = tmp_path / "switches.json"
    save_states(states, path)
    with pytest.raises(ContractError, match="layer 1: the model has no prunable layer 1"):
        load_states(path, model)
