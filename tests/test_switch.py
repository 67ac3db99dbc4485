"""Variational switch training: objective, estimators, training modes."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from dirichlet_pruning import dirichlet as dirichlet_module
from dirichlet_pruning import switch as switch_module
from dirichlet_pruning import tensor as T
from dirichlet_pruning.dirichlet import dirichlet_kl
from dirichlet_pruning.errors import ContractError, FormatError, NumericError
from dirichlet_pruning.models import (FullyConnected, ModelGraph, Relu,
                                      Switch, build_lenet5, build_mlp, forward,
                                      switch_layer_indices)
from dirichlet_pruning.switch import (AnalyticMean, ImplicitMC, SwitchState,
                                      SwitchTrainSchedule, init_switch_states,
                                      load_states, neg_elbo_and_grads,
                                      posterior_report, save_states,
                                      train_switches)
from dirichlet_pruning.synthetic import gen_synthetic, task_model
from dirichlet_pruning.tensor import Tape, Tensor

from conftest import central_fd, grad_err
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
    st = SwitchState(layer_index=1, theta=np.array([-1000.0, 0.0, 50.0]))
    phi = st.phi()
    assert np.all(phi > 0.0)
    assert phi[0] == pytest.approx(PHI_SHIFT)


def test_implicit_mc_requires_positive_k():
    ImplicitMC(1)
    with pytest.raises(ContractError):
        ImplicitMC(0)


def test_init_switch_states():
    model, _, _ = _small_problem()
    states = init_switch_states(model, alpha0=0.5)
    assert [st.layer_index for st in states] == switch_layer_indices(model)
    for st in states:
        assert np.allclose(st.phi(), 1.0, atol=1e-9)
    with pytest.raises(ContractError):
        init_switch_states(model, alpha0=0.0)


def test_posterior_report_uniform():
    st = SwitchState(layer_index=0, theta=_theta_for_phi(np.full(4, 0.5)), alpha0=0.5)
    mean, std = posterior_report(st)
    assert np.allclose(mean, 0.25, atol=1e-12)
    assert np.all(std > 0.0)


def test_posterior_mean_ranking_scale_invariant():
    phi = np.array([0.4, 2.2, 1.1, 0.7])
    st1 = SwitchState(layer_index=0, theta=_theta_for_phi(phi))
    st2 = SwitchState(layer_index=0, theta=_theta_for_phi(7.0 * phi))
    m1, _ = posterior_report(st1)
    m2, _ = posterior_report(st2)
    assert np.array_equal(np.argsort(-m1), np.argsort(-m2))


# ---------------------------------------------------------------------------
# objective


def test_neg_elbo_decomposition_identity():
    model, x, y = _small_problem()
    states = init_switch_states(model, estimator=AnalyticMean())
    for _ in range(3):
        v = neg_elbo_and_grads(states, model, x[:20], y[:20], 60, np.random.default_rng(0))[0]
        assert v.neg_elbo == v.expected_nll + v.kl_weight * v.kl_term


def test_kl_term_zero_iff_phi_equals_prior():
    model, x, y = _small_problem()
    states = init_switch_states(model, alpha0=0.5, estimator=AnalyticMean())
    v_init = neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0))[0]
    assert v_init.kl_term > 1e-6  # phi starts at 1, prior at 0.5
    for st in states:
        st.theta = _theta_for_phi(np.full(st.theta.shape, st.alpha0))
    v = neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0))[0]
    assert abs(v.kl_term) <= 1e-9


def test_expected_nll_is_log_k_for_zero_weights():
    model, x, y = _small_problem(k_classes=2)
    for name in model.weights:
        model.weights[name] = np.zeros_like(model.weights[name])
    states = init_switch_states(model, estimator=AnalyticMean())
    v = neg_elbo_and_grads(states, model, x[:16], y[:16], 60, np.random.default_rng(0))[0]
    assert abs(v.expected_nll - math.log(2.0)) <= 1e-12
    # a sampled estimator sees the same constant surface
    states_mc = init_switch_states(model, estimator=ImplicitMC(3))
    v_mc = neg_elbo_and_grads(states_mc, model, x[:16], y[:16], 60, np.random.default_rng(1))[0]
    assert abs(v_mc.expected_nll - math.log(2.0)) <= 1e-12


def test_default_kl_weight_is_one_over_n():
    model, x, y = _small_problem()
    states = init_switch_states(model, estimator=AnalyticMean())
    v = neg_elbo_and_grads(states, model, x[:10], y[:10], 250, np.random.default_rng(0))[0]
    assert v.kl_weight == 1.0 / 250
    states = init_switch_states(model, estimator=AnalyticMean(), kl_weight=0.03)
    v = neg_elbo_and_grads(states, model, x[:10], y[:10], 250, np.random.default_rng(0))[0]
    assert v.kl_weight == 0.03


def test_empty_batch_rejected():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    with pytest.raises(ContractError):
        neg_elbo_and_grads(states, model, x[:0], y[:0], 60, np.random.default_rng(0))


def test_train_indices_must_name_switch_states():
    model, x, y = _small_problem()
    states = init_switch_states(model)
    with pytest.raises(ContractError, match=r"\[7\] name no switch state"):
        neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0),
                           train_indices=[states[0].layer_index, 7])


def test_analytic_grad_matches_fd():
    model, x, y = _small_problem(seed=43)
    states = init_switch_states(model, estimator=AnalyticMean())
    idx = states[0].layer_index
    theta0 = states[0].theta.copy()
    _, grads = neg_elbo_and_grads(states, model, x[:25], y[:25], 60,
                                  np.random.default_rng(0))

    def value(theta):
        states[0].theta = theta
        v = neg_elbo_and_grads(states, model, x[:25], y[:25], 60, np.random.default_rng(0))[0]
        states[0].theta = theta0
        return v.neg_elbo

    assert grad_err(grads[idx], central_fd(value, theta0)) <= 1e-4


def test_analytic_objective_deterministic():
    model, x, y = _small_problem(seed=44)
    states = init_switch_states(model, estimator=AnalyticMean())
    v1, g1 = neg_elbo_and_grads(states, model, x[:20], y[:20], 60, np.random.default_rng(5))
    v2, g2 = neg_elbo_and_grads(states, model, x[:20], y[:20], 60, np.random.default_rng(99))
    assert v1.neg_elbo == v2.neg_elbo
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def test_implicit_mc_concentrates_with_k():
    model, x, y = _small_problem(seed=45, d_x=8, d_h=6, n=64, k_classes=3)
    xb, yb = x[:32], y[:32]

    def stderr(k, reps=20):
        vals = []
        for r in range(reps):
            states = init_switch_states(model, estimator=ImplicitMC(k))
            v = neg_elbo_and_grads(states, model, xb, yb, 64, np.random.default_rng(1000 + r))[0]
            vals.append(v.expected_nll)
        vals = np.array(vals)
        return vals.std(ddof=1) / math.sqrt(reps)

    assert stderr(500) < stderr(50)


def test_implicit_mc_underflowed_draws_raise_numeric_error():
    # phi ~ 1e-6 floors every Gamma draw at the smallest subnormal; the step
    # must fail loudly instead of training on uniform switches
    model, x, y = _small_problem(seed=52)
    states = init_switch_states(model, estimator=ImplicitMC(4))
    states[0].theta = np.full(states[0].theta.shape, -60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError):
            neg_elbo_and_grads(states, model, x[:10], y[:10], 60, np.random.default_rng(0))


def _per_sample_oracle(model, states, train_set, xb, yb, draws):
    """The estimator before batching: k full forward passes, each on its own
    tape, with the chain rule to theta applied sample by sample. ``draws``
    maps layer index to the (S, Y, dY/dphi) arrays the batched estimator
    drew; only the raw Gamma values and their gradients are used."""
    by_index = {st.layer_index: st for st in states}
    mean_switches = {st.layer_index: st.posterior_mean()
                     for st in states if st.layer_index not in train_set}
    k = len(next(iter(draws.values()))[1])
    nll_acc = 0.0
    grads = {idx: np.zeros_like(by_index[idx].theta) for idx in train_set}
    for j in range(k):
        leaves = {}
        switches = dict(mean_switches)
        for idx in train_set:
            _, y_all, dy_all = draws[idx]
            y, dy_dphi = y_all[j], dy_all[j]
            total = y.sum()
            s_t = Tensor(y / total, requires_grad=True)
            switches[idx] = s_t
            leaves[idx] = (s_t, total, dy_dphi, by_index[idx])
        with Tape():
            logits = forward(model, xb, switches=switches)
            nll = T.softmax_cross_entropy(logits, yb)
        T.backward(nll)
        nll_acc += nll.item()
        for idx, (s_t, total, dy_dphi, st) in leaves.items():
            if s_t.grad is None:
                continue
            g_s = s_t.grad
            dphi = dy_dphi * (g_s - float(g_s @ s_t.data)) / total
            grads[idx] += dphi * (1.0 / (1.0 + np.exp(-st.theta)))
    return nll_acc / k, {idx: g / k for idx, g in grads.items()}


def _taped_mean(theta: Tensor) -> Tensor:
    """The posterior mean phi / sum(phi) as a function of theta on the tape."""
    phi = add(softplus(theta), Tensor(np.float64(PHI_SHIFT)))
    return div(phi, tsum(phi))


def _taped_mean_oracle(model, states, train_set, xb, yb):
    """The analytic estimator without the shared sampled path: one full
    forward pass at the posterior mean, taped from theta, with the theta
    gradients from backward."""
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
    return nll.item(), {idx: th.grad for idx, th in theta_t.items()}


def _assert_matches_oracle(model, states, train_set, xb, yb):
    """The shared estimator path against the per-sample oracle (ImplicitMC)
    or the taped-mean oracle (AnalyticMean), on the same draws."""
    assert any(np.any(st.theta < 0.0) for st in states)
    rng = np.random.default_rng(60)
    draws = {st.layer_index: st.estimator.draw(st.phi(), rng)
             for st in states if st.layer_index in train_set}
    nll, dphi = switch_module._nll_and_grads(model, states, xb, yb, draws)
    by_index = {st.layer_index: st for st in states}
    grads = {idx: g * switch_module._sigmoid_np(by_index[idx].theta) for idx, g in dphi.items()}
    if isinstance(states[0].estimator, AnalyticMean):
        nll_ref, grads_ref = _taped_mean_oracle(model, states, train_set, xb, yb)
    else:
        nll_ref, grads_ref = _per_sample_oracle(model, states, train_set, xb, yb, draws)
    np.testing.assert_allclose(nll, nll_ref, rtol=1e-10, atol=0)
    assert set(grads) == set(train_set)
    for idx in train_set:
        assert np.any(grads_ref[idx] != 0.0)
        np.testing.assert_allclose(grads[idx], grads_ref[idx], rtol=1e-10, atol=0)


def _spread_thetas(states, seed):
    rng = np.random.default_rng(seed)
    for st in states:
        st.theta = rng.normal(0.5, 0.8, st.theta.shape)


def _mlp_per_layer_case(estimator):
    model, x, y = _small_problem(seed=53, d_x=7, d_h=6, n=30, k_classes=3)
    states = init_switch_states(model, estimator=estimator)
    _spread_thetas(states, 54)
    return model, states, {1}, x, y


def _mlp_joint_case(estimator):
    model, x, y = _two_switch_model()
    states = init_switch_states(model, estimator=estimator)
    _spread_thetas(states, 55)
    return model, states, {1, 4}, x[:40], y[:40]


def _lenet_third_switch_case(estimator):
    # the prefix holds conv, pool and the first two switches at their means
    rng = np.random.default_rng(56)
    model = build_lenet5([3, 4, 8, 6], rng=rng)
    x = rng.standard_normal((6, 1, 28, 28))
    y = rng.integers(0, 10, 6)
    states = init_switch_states(model, estimator=estimator)
    _spread_thetas(states, 57)
    third = switch_layer_indices(model)[2]
    assert any(st.layer_index < third for st in states)
    return model, states, {third}, x, y


def test_implicit_mc_matches_per_sample_oracle_mlp_per_layer():
    _assert_matches_oracle(*_mlp_per_layer_case(ImplicitMC(9)))


def test_implicit_mc_matches_per_sample_oracle_mlp_joint():
    _assert_matches_oracle(*_mlp_joint_case(ImplicitMC(7)))


def test_implicit_mc_matches_per_sample_oracle_lenet_third_switch():
    _assert_matches_oracle(*_lenet_third_switch_case(ImplicitMC(5)))


@pytest.mark.parametrize("case", [_mlp_per_layer_case, _mlp_joint_case,
                                  _lenet_third_switch_case],
                         ids=["mlp_per_layer", "mlp_joint", "lenet_third_switch"])
def test_analytic_mean_matches_taped_oracle(case):
    _assert_matches_oracle(*case(AnalyticMean()))


def test_trained_states_with_different_k_rejected():
    model, x, y = _two_switch_model()
    states = init_switch_states(model, estimator=ImplicitMC(3))
    states[1].estimator = ImplicitMC(5)
    with pytest.raises(ContractError, match="one estimator"):
        neg_elbo_and_grads(states, model, x[:20], y[:20], 400, np.random.default_rng(0))
    # a layer held at its posterior mean does not take part
    neg_elbo_and_grads(states, model, x[:20], y[:20], 400, np.random.default_rng(0),
                       train_indices=[states[0].layer_index])


def test_no_model_weight_gradients_with_frozen_weights():
    model, x, y = _small_problem(seed=46)
    weight_tensors = {n: Tensor(w, requires_grad=False) for n, w in model.weights.items()}
    st = init_switch_states(model, estimator=AnalyticMean())[0]
    th = Tensor(st.theta, requires_grad=True)
    with Tape():
        logits = forward(model, x[:10], switches={st.layer_index: _taped_mean(th)},
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
    states = init_switch_states(model, estimator=AnalyticMean())
    theta_before = states[0].theta.copy()
    stats = train_switches(model, states, x, y,
                           SwitchTrainSchedule(mode="per_layer", epochs=2, batch_size=20, lr=0.3),
                           np.random.default_rng(48))
    assert len(stats) == 2
    assert not np.array_equal(states[0].theta, theta_before)
    for name in weights_before:
        assert np.array_equal(model.weights[name], weights_before[name])


def test_schedule_validation():
    with pytest.raises(ContractError):
        SwitchTrainSchedule(epochs=0)
    with pytest.raises(ContractError):
        SwitchTrainSchedule(mode="both")
    with pytest.raises(ContractError):
        SwitchTrainSchedule(lr=0.0)


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
    value, grads = neg_elbo_and_grads(states, model, x[:10], y[:10], 40,
                                      np.random.default_rng(0),
                                      train_indices=[states[1].layer_index])
    assert list(grads) == [states[1].layer_index]
    assert len(kl_calls) == 4 and psi_calls == [(True, True)] * 4
    # the KL term still sums every layer, trained or not
    expected_kl = sum(kl(st.phi(), np.full(st.theta.shape, st.alpha0))[0] for st in states)
    assert value.kl_term == pytest.approx(expected_kl, rel=1e-12)
    kl_calls.clear()
    psi_calls.clear()
    train_switches(model, states, x, y,
                   SwitchTrainSchedule(mode="per_layer", epochs=1, batch_size=20, lr=0.1),
                   np.random.default_rng(50))
    # 4 layers x 2 batches steps, each with one KL pass per layer
    assert len(kl_calls) == len(psi_calls) == 4 * 2 * 4


def test_train_switches_raises_on_non_finite_neg_elbo():
    model, x, y = _small_problem(seed=51)
    model.weights["layer3.weight"][0, 0] = np.nan
    states = init_switch_states(model)
    with pytest.raises(NumericError, match="layer1 neg_elbo is nan at epoch 1, batch 1"):
        train_switches(model, states, x, y, SwitchTrainSchedule(batch_size=20),
                       np.random.default_rng(52))


def test_kl_descends_when_loss_ignores_switch():
    # zeroing the output layer makes the logits constant in s, so the only
    # gradient left is the KL pull toward the symmetric prior
    model, x, y = _small_problem(seed=49, n=100)
    model.weights["layer3.weight"] = np.zeros_like(model.weights["layer3.weight"])
    model.weights["layer3.bias"] = np.zeros_like(model.weights["layer3.bias"])
    states = init_switch_states(model, alpha0=0.5, estimator=AnalyticMean())
    st = states[0]
    prior = np.full(st.theta.shape, st.alpha0)
    kl_before = dirichlet_kl(st.phi(), prior)[0]
    train_switches(model, states, x, y,
                   SwitchTrainSchedule(mode="per_layer", epochs=3, batch_size=25, lr=0.5),
                   np.random.default_rng(50))
    kl_after = dirichlet_kl(st.phi(), prior)[0]
    assert kl_after < kl_before


def test_ground_truth_switch_recovery():
    task, x, y = gen_synthetic(30, 8, 800, np.random.default_rng(31))
    model = task_model(task)
    states = init_switch_states(model, estimator=AnalyticMean())
    train_switches(model, states, x, y,
                   SwitchTrainSchedule(mode="per_layer", epochs=20, batch_size=100, lr=1.0),
                   np.random.default_rng(32))
    mean, _ = posterior_report(states[0])
    weak = task.true_switch < 1e-3
    assert weak.any() and (~weak).any()
    assert mean[weak].max() < mean[~weak].min()


def _two_switch_model():
    """Three-layer dense net with planted channel importances in both
    switch-bearing layers: the last channels barely reach the logits."""
    rng = np.random.default_rng(33)
    layers = [FullyConnected(10, 6), Switch(6), Relu(),
              FullyConnected(6, 5), Switch(5), Relu(),
              FullyConnected(5, 3)]
    w1 = rng.standard_normal((10, 6))
    w2 = rng.standard_normal((6, 5))
    w3 = rng.standard_normal((5, 3)) * 3.0
    w2[3:, :] *= 0.02
    w3[2:, :] *= 0.02
    weights = {
        "layer0.weight": w1, "layer0.bias": np.zeros(6),
        "layer3.weight": w2, "layer3.bias": np.zeros(5),
        "layer6.weight": w3, "layer6.bias": np.zeros(3),
    }
    model = ModelGraph(layers, weights, (10,))
    x = rng.standard_normal((400, 10))
    logits = forward(model, x).data
    y = logits.argmax(axis=1)
    return model, x, y


def test_joint_and_per_layer_rankings_agree():
    model, x, y = _two_switch_model()

    def run(mode, seed):
        states = init_switch_states(model, estimator=AnalyticMean())
        train_switches(model, states, x, y,
                       SwitchTrainSchedule(mode=mode, epochs=4, batch_size=50, lr=0.5),
                       np.random.default_rng(seed))
        return [posterior_report(st)[0] for st in states]

    per_layer = run("per_layer", 34)
    joint = run("joint", 34)
    for m_pl, m_j in zip(per_layer, joint):
        rho = scipy.stats.spearmanr(m_pl, m_j).statistic
        assert rho >= 0.7, (m_pl, m_j)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_states_round_trip(tmp_path):
    model, x, y = _small_problem(seed=51)
    states = init_switch_states(model, alpha0=0.7, estimator=AnalyticMean(), kl_weight=0.01)
    states[0].theta = np.array([0.3, -1.2, 4.0, 0.001])
    p = tmp_path / "switches.json"
    save_states(states, p)
    loaded = load_states(p, model, estimator=ImplicitMC(5))
    assert len(loaded) == len(states)
    assert np.array_equal(loaded[0].theta, states[0].theta)
    assert loaded[0].alpha0 == 0.7
    assert loaded[0].kl_weight == 0.01
    assert loaded[0].estimator == ImplicitMC(5)
    payload = json.loads(p.read_text())
    assert payload["version"] == 1
    assert "estimator" not in payload


def test_load_states_rejects_widths_of_another_model(tmp_path):
    trained = build_lenet5((20, 50, 800, 500), rng=np.random.default_rng(52))
    path = tmp_path / "switches.json"
    save_states(init_switch_states(trained), path)
    assert len(load_states(path, trained)) == 4
    model = build_lenet5((10, 25, 400, 250), rng=np.random.default_rng(53))
    first = switch_layer_indices(model)[0]
    with pytest.raises(ContractError,
                       match=f"layer {first} has width 20, the model's switch layer {first} "
                             f"has width 10"):
        load_states(path, model)


@pytest.mark.parametrize("text,match", [
    ('{"version": 1, "alpha0": 0.5}', "switch state has no 'theta' object"),
    ('{"version": 1, "theta": {"1": [0, 0, 0, 0]}}', "with a numeric alpha0"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"1": [0, 0', "not valid JSON"),
    ('{"version": 1, "alpha0": 0.5, "theta": [0]}', "no 'theta' object"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"one": [0, 0, 0, 0]}}',
     "keys \\['one'\\] are not distinct layer indices"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"1": [0, 0, 0, 0], "01": [0, 0, 0, 0]}}',
     "keys \\['01', '1'\\] are not distinct layer indices"),
    ('{"version": 1, "alpha0": 0.5, "theta": {"1": ["a", 0, 0, 0]}}',
     "switch state for layer 1 is not a number vector"),
], ids=["no-theta", "no-alpha0", "truncated", "theta-not-an-object", "bad-layer",
        "repeated-layer", "bad-value"])
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
    states[0].layer_index = 0  # the first linear layer, not a switch
    path = tmp_path / "switches.json"
    save_states(states, path)
    with pytest.raises(ContractError, match="layer 0: the model has no switch layer there"):
        load_states(path, model)
