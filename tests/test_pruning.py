"""Channel ranking, pruning plans, physical pruning, and fine-tuning."""

import copy
import json
import logging

import numpy as np
import pytest

from dirichlet_pruning.errors import ContractError, FormatError, ShapeError
from dirichlet_pruning.models import (Conv2d, Flatten, FullyConnected,
                                      ModelGraph, Relu, TrainSchedule,
                                      build_lenet5, build_mlp, count_params,
                                      evaluate, forward, prunable_widths,
                                      train_model)
from dirichlet_pruning.pruning import (LayerRanking, PruningPlan,
                                       RankingReport, apply_plan, make_plan,
                                       plan_from_json, plan_to_json,
                                       rank_derivative, rank_dirichlet,
                                       rank_magnitude, rank_random,
                                       ranking_from_csv, ranking_to_csv)
from dirichlet_pruning.pipeline import prune_with_states
from dirichlet_pruning.switch import _PHI_SHIFT, SwitchState, init_switch_states
from dirichlet_pruning.synthetic import gen_synthetic

from masked_oracle import masked_logits


def _theta_for_phi(phi):
    """Inverse of phi = softplus(theta) + shift."""
    return np.log(np.expm1(np.asarray(phi, dtype=np.float64) - _PHI_SHIFT))


def _state(layer, phi):
    return SwitchState(layer, _theta_for_phi(phi))


def _fc_chain(w1, b1, w2, b2):
    """fc -> relu -> fc graph with explicit parameters."""
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    layers = [FullyConnected(w1.shape[0], w1.shape[1]), Relu(),
              FullyConnected(w2.shape[0], w2.shape[1])]
    weights = {"layer0.weight": w1, "layer0.bias": np.asarray(b1, dtype=np.float64),
               "layer2.weight": w2, "layer2.bias": np.asarray(b2, dtype=np.float64)}
    return ModelGraph(layers, weights, (w1.shape[0],))


# ---------------------------------------------------------------------------
# ranking: dirichlet


def test_rank_dirichlet_uniform_ties_break_by_index():
    report = rank_dirichlet([_state(0, [1.0, 1.0, 1.0])])
    lr = report.layer(0)
    assert np.array_equal(lr.order, [0, 1, 2])
    np.testing.assert_allclose(lr.scores, [1 / 3] * 3, rtol=1e-14)


def test_rank_dirichlet_orders_by_posterior_mean():
    report = rank_dirichlet([_state(0, [1.0, 5.0, 2.0])])
    lr = report.layer(0)
    assert np.array_equal(lr.order, [1, 2, 0])
    np.testing.assert_allclose(lr.scores, np.array([1.0, 5.0, 2.0]) / 8.0, atol=1e-12)
    assert lr.method == "dirichlet"


def test_rank_dirichlet_concentration_scale_invariance():
    base = np.array([1.0, 5.0, 2.0])
    a = rank_dirichlet([_state(0, base)]).layer(0)
    b = rank_dirichlet([_state(0, 7.0 * base)]).layer(0)
    assert np.array_equal(a.order, b.order)
    np.testing.assert_allclose(a.scores, b.scores, atol=1e-14)


def test_rank_dirichlet_empty_states_rejected():
    with pytest.raises(ContractError):
        rank_dirichlet([])


def test_rank_dirichlet_sorts_states_by_graph_position():
    # handed out of order; the report follows the states' ordinals
    deep = _state(1, [1.0, 5.0, 2.0])
    shallow = _state(0, [1.0, 1.0])
    report = rank_dirichlet([deep, shallow])
    assert [lr.layer for lr in report.per_layer] == [0, 1]
    assert report.layer(0).scores.size == 2
    assert report.layer(1).scores.size == 3
    with pytest.raises(ContractError):
        report.layer(2)


# ---------------------------------------------------------------------------
# ranking: magnitude


def test_rank_magnitude_l1_two_channel_example():
    # channel 0 owns weights [1, -1], channel 1 owns [0, 0]
    model = _fc_chain([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0],
                      [[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0])
    lr = rank_magnitude(model, "L1").layer(0)
    np.testing.assert_array_equal(lr.scores, [2.0, 0.0])
    assert np.array_equal(lr.order, [0, 1])


def test_rank_magnitude_equal_scores_tie_break():
    model = _fc_chain(np.ones((3, 4)), np.ones(4), np.ones((4, 2)), np.zeros(2))
    lr = rank_magnitude(model, "L1").layer(0)
    np.testing.assert_array_equal(lr.scores, [4.0] * 4)
    assert np.array_equal(lr.order, [0, 1, 2, 3])


def test_rank_magnitude_bias_contributes():
    model = _fc_chain(np.zeros((2, 2)), [5.0, 0.0], np.ones((2, 2)), np.zeros(2))
    lr = rank_magnitude(model, "L1").layer(0)
    np.testing.assert_array_equal(lr.scores, [5.0, 0.0])


def test_rank_magnitude_l2_global_scale_invariance():
    model = build_mlp(6, 5, 3, rng=np.random.default_rng(7))
    scaled = copy.deepcopy(model)
    for name in scaled.weights:
        scaled.weights[name] = scaled.weights[name] * 3.7
    a = rank_magnitude(model, "L2").layer(0)
    b = rank_magnitude(scaled, "L2").layer(0)
    assert np.array_equal(a.order, b.order)
    np.testing.assert_allclose(b.scores, 3.7 * a.scores, rtol=1e-13)


def test_rank_magnitude_norms_can_disagree():
    # L1: channel 1 wins (4 > 3); L2: channel 0 wins (3 > 2.83)
    model = _fc_chain([[3.0, 2.0], [0.0, 2.0]], [0.0, 0.0],
                      np.ones((2, 2)), np.zeros(2))
    l1 = rank_magnitude(model, "L1").layer(0)
    l2 = rank_magnitude(model, "L2").layer(0)
    assert np.array_equal(l1.order, [1, 0])
    assert np.array_equal(l2.order, [0, 1])


def test_rank_magnitude_conv_kernel_slice_plus_bias():
    layers = [Conv2d(1, 2, 2, 2), Relu(), Flatten(), FullyConnected(8, 3)]
    w = np.array([[[[1.0, -2.0], [3.0, -4.0]]],
                  [[[0.0, 0.0], [0.0, 1.0]]]])
    weights = {"layer0.weight": w, "layer0.bias": np.array([0.5, -0.25]),
               "layer3.weight": np.zeros((8, 3)), "layer3.bias": np.zeros(3)}
    model = ModelGraph(layers, weights, (1, 3, 3))
    lr = rank_magnitude(model, "L1").layer(0)
    np.testing.assert_array_equal(lr.scores, [10.5, 1.25])
    assert np.array_equal(lr.order, [0, 1])


def test_rank_magnitude_bad_norm_rejected():
    model = build_mlp(4, 3, 2, rng=np.random.default_rng(0))
    with pytest.raises(ContractError):
        rank_magnitude(model, "Linf")


# ---------------------------------------------------------------------------
# ranking: derivative


def test_rank_derivative_dead_channel_scores_zero():
    model = _fc_chain([[0.4, 0.0], [0.2, 0.0]], [0.1, 0.0],
                      [[1.0, -1.0], [0.5, 0.5]], [0.0, 0.0])
    lr = rank_derivative(model, [[1.0, 1.0]], [0]).layer(0)
    assert lr.scores[1] == 0.0
    assert lr.scores[0] > 0.0
    assert np.array_equal(lr.order, [0, 1])


def test_rank_derivative_zero_outgoing_scores_zero():
    # channel 1 is alive but nothing downstream reads it
    model = _fc_chain([[0.4, 0.3], [0.2, 0.1]], [0.1, 0.2],
                      [[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    lr = rank_derivative(model, [[1.0, 1.0]], [0]).layer(0)
    assert lr.scores[1] == 0.0
    assert lr.scores[0] > 0.0


def test_rank_derivative_matches_ablation_oracle():
    w1 = np.array([[0.4, -0.3], [0.2, 0.5], [-0.1, 0.2]])
    b1 = np.array([0.05, 0.2])
    w2 = np.array([[1.2, -0.7], [0.3, 0.9]])
    b2 = np.zeros(2)
    model = _fc_chain(w1, b1, w2, b2)
    x = np.array([[1.0, 0.5, -0.25]])
    y = np.array([0])

    def ce(m):
        logits = forward(m, x).data[0]
        z = logits - logits.max()
        return float(np.log(np.exp(z).sum()) - z[y[0]])

    base = ce(model)
    scores = rank_derivative(model, x, y).layer(0).scores
    delta = 1e-5
    for j in range(2):
        ablated = copy.deepcopy(model)
        ablated.weights["layer0.weight"][:, j] *= 1.0 - delta
        ablated.weights["layer0.bias"][j] *= 1.0 - delta
        oracle = abs(ce(ablated) - base) / delta
        assert abs(scores[j] - oracle) <= 1e-3 * max(1.0, oracle)


def test_rank_derivative_empty_batch_rejected():
    model = build_mlp(4, 3, 2, rng=np.random.default_rng(0))
    with pytest.raises(ContractError):
        rank_derivative(model, np.zeros((0, 4)), np.zeros(0, dtype=np.int64))


def test_rank_derivative_conv_layers_average_spatially():
    model = build_lenet5([2, 2, 8, 4], rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 1, 28, 28))
    y = np.array([0, 1])
    report = rank_derivative(model, x, y)
    widths = prunable_widths(model)
    assert [report.layer(o).scores.size for o in range(4)] == widths
    for o in range(4):
        assert np.all(report.layer(o).scores >= 0.0)


# ---------------------------------------------------------------------------
# ranking: random, shared invariants


def test_rank_random_permutations_and_seed_determinism():
    model = build_lenet5([3, 4, 16, 8], rng=np.random.default_rng(0))
    a = rank_random(model, np.random.default_rng(9))
    b = rank_random(model, np.random.default_rng(9))
    for o, width in enumerate(prunable_widths(model)):
        assert sorted(a.layer(o).order.tolist()) == list(range(width))
        assert np.array_equal(a.layer(o).order, b.layer(o).order)


def test_rankers_are_deterministic_on_repeat():
    model = build_mlp(6, 5, 3, rng=np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(8, 6))
    y = np.arange(8) % 3
    for make in (lambda: rank_magnitude(model, "L1"),
                 lambda: rank_magnitude(model, "L2"),
                 lambda: rank_derivative(model, x, y)):
        first, second = make(), make()
        assert np.array_equal(first.layer(0).scores, second.layer(0).scores)
        assert np.array_equal(first.layer(0).order, second.layer(0).order)


def test_rankings_cover_every_prunable_layer():
    model = build_lenet5([3, 4, 16, 8], rng=np.random.default_rng(5))
    report = rank_magnitude(model, "L1")
    assert [lr.layer for lr in report.per_layer] == [0, 1, 2, 3]
    widths = prunable_widths(model)
    for o in range(4):
        assert sorted(report.layer(o).order.tolist()) == list(range(widths[o]))


# ---------------------------------------------------------------------------
# plans


def _report_for_widths(widths, rng):
    per_layer = []
    for o, w in enumerate(widths):
        scores = rng.random(w)
        order = np.lexsort((np.arange(w), -scores))
        per_layer.append(LayerRanking(o, scores, order, "test"))
    return RankingReport(per_layer)


def test_make_plan_full_counts_is_identity():
    report = _report_for_widths([5, 3], np.random.default_rng(0))
    plan = make_plan(report, keep_counts=[5, 3])
    assert np.array_equal(plan.keep[0], np.arange(5))
    assert np.array_equal(plan.keep[1], np.arange(3))


def test_make_plan_rate_keeps_ceil():
    report = _report_for_widths([8, 20, 7], np.random.default_rng(1))
    plan = make_plan(report, rate=0.5)
    assert plan.keep[0].size == 4
    plan = make_plan(report, rate=0.9)
    assert [plan.keep[o].size for o in range(3)] == [1, 2, 1]
    plan = make_plan(report, rate=0.3)
    assert plan.keep[2].size == 5


def test_make_plan_takes_top_of_ranking():
    scores = np.array([0.1, 0.9, 0.5, 0.7])
    order = np.lexsort((np.arange(4), -scores))
    report = RankingReport([LayerRanking(0, scores, order, "test")])
    plan = make_plan(report, keep_counts=[2])
    assert np.array_equal(plan.keep[0], [1, 3])  # sorted ascending


def test_make_plan_requires_exactly_one_selector():
    report = _report_for_widths([4], np.random.default_rng(2))
    with pytest.raises(ContractError):
        make_plan(report)
    with pytest.raises(ContractError):
        make_plan(report, keep_counts=[2], rate=0.5)


def test_make_plan_count_bounds():
    report = _report_for_widths([4], np.random.default_rng(3))
    with pytest.raises(ContractError):
        make_plan(report, keep_counts=[0])
    with pytest.raises(ContractError):
        make_plan(report, keep_counts=[5])


@pytest.mark.parametrize("counts", [[2], [2, 2, 2], {0: 2}, {1: 2, 2: 2}],
                         ids=["short_list", "long_list", "dict_missing_key", "dict_wrong_key"])
def test_make_plan_needs_one_count_per_ranked_layer(counts):
    report = _report_for_widths([4, 6], np.random.default_rng(5))
    with pytest.raises(ContractError) as info:
        make_plan(report, keep_counts=counts)
    assert str(info.value) == (f"keep_counts: need one count for each ranked layer "
                               f"[0, 1], got {counts}")


def test_make_plan_rate_bounds():
    report = _report_for_widths([4], np.random.default_rng(4))
    for rate in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ContractError):
            make_plan(report, rate=rate)


def test_make_plan_accepts_count_mapping():
    report = _report_for_widths([4, 6], np.random.default_rng(5))
    plan = make_plan(report, keep_counts={0: 1, 1: 6})
    assert plan.keep[0].size == 1
    assert np.array_equal(plan.keep[1], np.arange(6))


def test_plan_validation_errors():
    model = build_mlp(6, 8, 3, rng=np.random.default_rng(6))
    PruningPlan({0: np.array([0, 3, 7])}).validate_against(model)
    with pytest.raises(ContractError):
        PruningPlan({4: np.array([0])}).validate_against(model)
    with pytest.raises(ContractError):
        PruningPlan({0: np.array([], dtype=np.int64)}).validate_against(model)
    with pytest.raises(ContractError):
        PruningPlan({0: np.array([3, 1])}).validate_against(model)
    with pytest.raises(ContractError):
        PruningPlan({0: np.array([1, 1, 2])}).validate_against(model)
    with pytest.raises(ShapeError):
        PruningPlan({0: np.array([0, 8])}).validate_against(model)
    with pytest.raises(ShapeError):
        PruningPlan({0: np.array([-1, 2])}).validate_against(model)


# ---------------------------------------------------------------------------
# apply_plan vs masked forward


def _random_plan(model, seed, rate=0.5):
    return make_plan(rank_random(model, np.random.default_rng(seed)), rate=rate)


def _random_means(model, seed):
    rng = np.random.default_rng(seed)
    means = {}
    for ordinal, width in enumerate(prunable_widths(model)):
        raw = rng.uniform(0.05, 1.0, size=width)
        means[ordinal] = raw / raw.sum()
    return means


def test_identity_plan_matches_mean_folded_forward():
    model = build_mlp(6, 8, 3, rng=np.random.default_rng(10))
    means = _random_means(model, 11)
    plan = PruningPlan({0: np.arange(8)})
    x = np.random.default_rng(12).normal(size=(5, 6))
    pruned = apply_plan(model, plan, switch_means=means)
    np.testing.assert_allclose(forward(pruned, x).data,
                               masked_logits(model, plan, x, switch_means=means),
                               atol=1e-9)


def test_identity_plan_without_switches_is_bitwise():
    # no means given: apply_plan folds nothing, not a uniform 1/D
    model = build_mlp(6, 8, 3, rng=np.random.default_rng(13))
    plan = PruningPlan({0: np.arange(8)})
    pruned = apply_plan(model, plan)
    x = np.random.default_rng(14).normal(size=(5, 6))
    np.testing.assert_array_equal(forward(pruned, x).data, forward(model, x).data)


def _identity_plan_rel_error(model, x):
    """Relative error of the logits after pruning nothing at the untrained,
    uniform switch posterior."""
    plan = PruningPlan({o: np.arange(w) for o, w in enumerate(prunable_widths(model))})
    pruned = prune_with_states(model, plan, init_switch_states(model))
    want = forward(model, x).data
    return np.linalg.norm(forward(pruned, x).data - want) / np.linalg.norm(want)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: prune_with_states folds each switch "
                   "at its simplex mean, about 1/D, while training and evaluation run it as "
                   "the identity")
def test_uniform_posterior_identity_plan_reproduces_logits():
    rng = np.random.default_rng(15)
    mlp = build_mlp(20, 64, 2, rng=rng)
    lenet = build_lenet5([20, 50, 800, 500], rng=rng)
    errors = [_identity_plan_rel_error(mlp, rng.normal(size=(8, 20))),
              _identity_plan_rel_error(lenet, rng.uniform(0.0, 1.0, size=(4, 1, 28, 28)))]
    assert max(errors) <= 1e-9, errors


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_mask_remove_agreement_mlp(seed):
    model = build_mlp(10, 8, 3, rng=np.random.default_rng(20 + seed))
    plan = _random_plan(model, 40 + seed)
    means = _random_means(model, 60 + seed)
    x = np.random.default_rng(80 + seed).normal(size=(6, 10))
    pruned = apply_plan(model, plan, switch_means=means)
    np.testing.assert_allclose(forward(pruned, x).data,
                               masked_logits(model, plan, x, switch_means=means),
                               atol=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_mask_remove_agreement_lenet(seed):
    model = build_lenet5([3, 4, 16, 8], rng=np.random.default_rng(100 + seed))
    plan = _random_plan(model, 110 + seed)
    means = _random_means(model, 120 + seed)
    x = np.random.default_rng(130 + seed).normal(size=(2, 1, 28, 28))
    pruned = apply_plan(model, plan, switch_means=means)
    np.testing.assert_allclose(forward(pruned, x).data,
                               masked_logits(model, plan, x, switch_means=means),
                               atol=1e-9)


def test_mask_remove_agreement_switchless():
    model = build_mlp(10, 8, 3, rng=np.random.default_rng(140))
    plan = _random_plan(model, 141)
    x = np.random.default_rng(142).normal(size=(6, 10))
    pruned = apply_plan(model, plan)
    np.testing.assert_allclose(forward(pruned, x).data,
                               masked_logits(model, plan, x), atol=1e-9)


def test_prune_to_single_channel_everywhere():
    model = build_lenet5([3, 4, 16, 8], rng=np.random.default_rng(150))
    plan = make_plan(rank_magnitude(model, "L1"), keep_counts=[1, 1, 1, 1])
    means = _random_means(model, 151)
    pruned = apply_plan(model, plan, switch_means=means)
    assert pruned.arch_string == "1-1-1-1"
    x = np.random.default_rng(152).normal(size=(2, 1, 28, 28))
    np.testing.assert_allclose(forward(pruned, x).data,
                               masked_logits(model, plan, x, switch_means=means),
                               atol=1e-9)


def test_pruned_model_structure_and_metadata():
    parent = build_lenet5([20, 50, 800, 500], rng=np.random.default_rng(160))
    plan = make_plan(rank_magnitude(parent, "L2"), keep_counts=[6, 8, 40, 20])
    pruned = apply_plan(parent, plan)
    assert pruned.arch_string == "6-8-40-20"
    assert pruned.metadata["pruned_from"] == "20-50-800-500"
    assert [type(l) for l in pruned.layers] == [type(l) for l in parent.layers]
    assert prunable_widths(pruned) == [6, 8, 40, 20]


def test_count_params_strictly_decreases():
    model = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(170))
    before = count_params(model)
    for counts in ([5, 8, 40, 20], [6, 8, 40, 19], [3, 4, 20, 10]):
        pruned = apply_plan(model, make_plan(rank_magnitude(model, "L1"),
                                             keep_counts=counts))
        assert count_params(pruned) < before


def test_partial_plan_prunes_only_named_layers():
    model = build_mlp(6, 8, 3, rng=np.random.default_rng(180))
    deep = build_lenet5([3, 4, 16, 8], rng=np.random.default_rng(181))
    plan = PruningPlan({1: np.array([0, 2])})
    pruned = apply_plan(deep, plan, switch_means=_random_means(deep, 182))
    assert prunable_widths(pruned) == [3, 2, 16, 8]
    x = np.random.default_rng(183).normal(size=(2, 1, 28, 28))
    np.testing.assert_allclose(
        forward(pruned, x).data,
        masked_logits(deep, plan, x, switch_means=_random_means(deep, 182)),
        atol=1e-9)
    del model


def test_apply_plan_rejects_incompatible_plan():
    model = build_mlp(6, 8, 3, rng=np.random.default_rng(190))
    with pytest.raises(ShapeError):
        apply_plan(model, PruningPlan({0: np.array([0, 11])}))


def test_bad_switch_means_shape_rejected():
    model = build_mlp(6, 8, 3, rng=np.random.default_rng(191))
    with pytest.raises(ShapeError, match=r"layer 0 have shape \(5,\), expected \(8,\)"):
        apply_plan(model, PruningPlan({0: np.arange(8)}), switch_means={0: np.ones(5)})
    with pytest.raises(ContractError, match="switch means for layer 1: the model has no "
                                            "prunable layer 1"):
        apply_plan(model, PruningPlan({0: np.arange(8)}), switch_means={1: np.ones(3)})


# ---------------------------------------------------------------------------
# fine-tuning


def _finetune_data(seed, n=600):
    _, x, y = gen_synthetic(10, 8, n, np.random.default_rng(seed))
    cut = 2 * n // 3
    return x[:cut], y[:cut], x[cut:], y[cut:]


def _finetune(model, x_tr, y_tr, x_val, y_val, schedule, rng):
    """``train_model``'s fine-tune of a copy of ``model``: the copy with its
    best epoch in place, and that epoch's validation error %."""
    tuned = copy.deepcopy(model)
    train_model(tuned, x_tr, y_tr, schedule, rng, val=(x_val, y_val))
    return tuned, tuned.metadata["training_history"][-1]["val_error"]


def test_finetune_zero_epochs_returns_unchanged_copy():
    x_tr, y_tr, x_val, y_val = _finetune_data(210)
    model = build_mlp(10, 6, 2, rng=np.random.default_rng(211))
    tuned, err = _finetune(model, x_tr, y_tr, x_val, y_val,
                           TrainSchedule(0, 50, 0.1), np.random.default_rng(212))
    assert err == evaluate(model, x_val, y_val)
    assert tuned is not model
    for name in model.weights:
        np.testing.assert_array_equal(tuned.weights[name], model.weights[name])


def test_finetune_one_epoch_helps_across_seeds():
    x_tr, y_tr, x_val, y_val = _finetune_data(220)
    before, after = [], []
    for seed in range(5):
        model = build_mlp(10, 6, 2, rng=np.random.default_rng(230 + seed))
        b = evaluate(model, x_val, y_val)
        _, a = _finetune(model, x_tr, y_tr, x_val, y_val,
                         TrainSchedule(1, 50, 0.2), np.random.default_rng(240 + seed))
        before.append(b)
        after.append(a)
        assert a <= b  # best-of includes the starting model
    assert np.mean(after) < np.mean(before)


def test_finetune_returns_best_epoch_not_last():
    x_tr, y_tr, x_val, y_val = _finetune_data(250)
    model = build_mlp(10, 6, 2, rng=np.random.default_rng(251))
    model, _ = _finetune(model, x_tr, y_tr, x_val, y_val,
                         TrainSchedule(2, 50, 0.2), np.random.default_rng(252))
    start_err = evaluate(model, x_val, y_val)
    # an absurd step size can only hurt; best-of must fall back to the input
    tuned, err = _finetune(model, x_tr, y_tr, x_val, y_val,
                           TrainSchedule(3, 50, 1e6), np.random.default_rng(253))
    assert err == start_err
    for name in model.weights:
        np.testing.assert_array_equal(tuned.weights[name], model.weights[name])


def test_finetune_stops_at_a_diverged_epoch(caplog):
    x_tr, y_tr, x_val, y_val = _finetune_data(250)
    model = build_mlp(10, 6, 2, rng=np.random.default_rng(251))
    caplog.set_level(logging.INFO, logger="dirichlet_pruning")
    tuned, err = _finetune(model, x_tr, y_tr, x_val, y_val, TrainSchedule(3, 50, 1e6),
                           np.random.default_rng(253))
    lines = caplog.messages
    assert len(lines) == 1
    assert lines[0].startswith("finetune epoch 1/3: training loss ")
    assert "exceeds the divergence bound 6.93147e+08 at epoch 1, batch 2; stopped" in lines[0]
    assert err == evaluate(model, x_val, y_val)


def test_finetune_empty_data_rejected():
    model = build_mlp(10, 6, 2, rng=np.random.default_rng(260))
    x = np.zeros((0, 10))
    y = np.zeros(0, dtype=np.int64)
    good_x = np.zeros((4, 10))
    good_y = np.zeros(4, dtype=np.int64)
    with pytest.raises(ContractError):
        _finetune(model, x, y, good_x, good_y, TrainSchedule(1, 4, 0.1),
                  np.random.default_rng(261))
    with pytest.raises(ContractError):
        _finetune(model, good_x, good_y, x, y, TrainSchedule(1, 4, 0.1),
                  np.random.default_rng(262))


def test_finetune_recovers_accuracy_after_pruning():
    _, x, y = gen_synthetic(12, 8, 900, np.random.default_rng(270))
    x_tr, y_tr, x_val, y_val = x[:600], y[:600], x[600:], y[600:]
    model = build_mlp(12, 8, 2, rng=np.random.default_rng(271))
    train_model(model, x_tr, y_tr, TrainSchedule(4, 50, 0.3), np.random.default_rng(272))
    plan = make_plan(rank_magnitude(model, "L2"), rate=0.5)
    pruned = apply_plan(model, plan)
    err_pruned = evaluate(pruned, x_val, y_val)
    tuned, err_tuned = _finetune(pruned, x_tr, y_tr, x_val, y_val,
                                 TrainSchedule(3, 50, 0.3), np.random.default_rng(273))
    assert err_tuned <= err_pruned
    assert count_params(tuned) < count_params(model)


# ---------------------------------------------------------------------------
# serialization


def test_ranking_csv_roundtrip_exact(tmp_path):
    model = build_lenet5([3, 4, 16, 8], rng=np.random.default_rng(300))
    report = rank_magnitude(model, "L2")
    path = tmp_path / "ranking.csv"
    ranking_to_csv(report, path)
    back = ranking_from_csv(path)
    assert [lr.layer for lr in back.per_layer] == [lr.layer for lr in report.per_layer]
    for o in range(4):
        np.testing.assert_array_equal(back.layer(o).scores, report.layer(o).scores)
        np.testing.assert_array_equal(back.layer(o).order, report.layer(o).order)


def test_ranking_csv_layout(tmp_path):
    report = RankingReport([LayerRanking(0, np.array([0.25, 0.75]),
                                         np.array([1, 0]), "test")])
    path = tmp_path / "ranking.csv"
    ranking_to_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer,channel,score,rank"
    assert lines[1] == "0,0,0.25,1"
    assert lines[2] == "0,1,0.75,0"  # top score carries rank 0


def test_plan_json_roundtrip(tmp_path):
    plan = PruningPlan({0: np.array([0, 2, 4]), 2: np.array([1])})
    path = tmp_path / "plan.json"
    plan_to_json(plan, path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    back = plan_from_json(path)
    assert sorted(back.keep) == sorted(plan.keep)
    for k in plan.keep:
        np.testing.assert_array_equal(back.keep[k], plan.keep[k])


def test_plan_json_bad_version_rejected(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"version": 2, "keep": {"0": [0]}}))
    with pytest.raises(ContractError):
        plan_from_json(path)


_CSV_HEAD = "layer,channel,score,rank\n"


@pytest.mark.parametrize("text,match", [
    (_CSV_HEAD + "0,0,0.5,0\n0,1,0.4,0\n0,2,0.3,2\n", "layer 0: no channel has rank 1"),
    (_CSV_HEAD + "0,0,0.5,0\n0,1,0.4,3\n", "layer 0: no channel has rank 1"),
    (_CSV_HEAD + "0,0,0.5,1\n0,2,0.4,0\n", "layer 0: channels are not 0..1"),
    (_CSV_HEAD + "0,0,0.5,0\n0,x,0.4,1\n", "line 3: not a layer,channel,score,rank row"),
    (_CSV_HEAD + "0,0,0.5\n", "line 2: not a layer,channel,score,rank row"),
    ("layer,channel,score\n0,0,0.5\n", "no rank column"),
], ids=["repeated-rank", "rank-past-the-end", "channel-gap", "bad-channel", "short-row",
        "no-rank-column"])
def test_ranking_csv_malformed_rejected(tmp_path, text, match):
    path = tmp_path / "ranking.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=match) as e:
        ranking_from_csv(path)
    assert str(path) in str(e.value)


@pytest.mark.parametrize("text,match", [
    ('{"version": 1}', "plan has no 'keep' object"),
    ('{"version": 1, "keep": {"0": [0, 1', "not valid JSON"),
    ('[1]', "expected a JSON object"),
    ('{"version": 1, "keep": [0]}', "no 'keep' object keyed by layer"),
    ('{"version": 1, "keep": {"a": [0]}}', "keys \\['a'\\] are not distinct layer indices"),
    ('{"version": 1, "keep": {"0": [0], "00": [1]}}',
     "keys \\['0', '00'\\] are not distinct layer indices"),
    ('{"version": 1, "keep": {"0": ["x"]}}', "keep-list for layer 0"),
], ids=["no-keep", "truncated", "not-an-object", "keep-not-an-object", "bad-layer",
        "repeated-layer", "bad-channel"])
def test_plan_json_malformed_rejected(tmp_path, text, match):
    path = tmp_path / "plan.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=match) as e:
        plan_from_json(path)
    assert str(path) in str(e.value)
