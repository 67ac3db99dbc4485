"""End-to-end structured pruning of a dense network.

Train a small classifier, learn a Dirichlet posterior over each hidden
layer's channels, then chop half the channels away under four different
rankings of channel importance. The pruned network is a physically smaller
graph, not a masked one, so the parameter and multiply counts drop for
real. A short fine-tune shows how much of the lost accuracy comes back.
"""

import numpy as np

from dirichlet_pruning.models import (
    TrainSchedule,
    build_mlp,
    count_flops,
    count_params,
    evaluate,
    train_model,
)
from dirichlet_pruning.pruning import (
    apply_plan,
    make_plan,
    rank_derivative,
    rank_dirichlet,
    rank_magnitude,
    rank_random,
)
from dirichlet_pruning.switch import (
    SwitchTrainSchedule,
    init_switch_states,
    train_switches,
)
from dirichlet_pruning.synthetic import gen_synthetic

_, x, y = gen_synthetic(20, 16, 4000, np.random.default_rng(9000))
x_tr, y_tr = x[:3000], y[:3000]
x_te, y_te = x[3000:], y[3000:]

model = build_mlp(20, 16, 2, rng=np.random.default_rng(9100))
train_model(model, x_tr, y_tr, TrainSchedule(5, 50, 0.3, 0.9),
            np.random.default_rng(9200))
base_err = evaluate(model, x_te, y_te)
print(f"dense model: {count_params(model)} weights, {count_flops(model)} MACs, "
      f"test error {base_err:.2f}%")

# Posterior over channel importance, trained with the model frozen.
states = init_switch_states(model)
train_switches(model, states, x_tr, y_tr,
               SwitchTrainSchedule(4, 100, 0.5),
               np.random.default_rng(9300))
means = {st.layer: st.posterior_mean() for st in states}

rankings = {
    "posterior": rank_dirichlet(states),
    "weight L1": rank_magnitude(model, norm="L1"),
    "weight L2": rank_magnitude(model, norm="L2"),
    "derivative": rank_derivative(model, x_tr[:200], y_tr[:200]),
    "random": rank_random(model, np.random.default_rng(9400)),
}

tune = TrainSchedule(5, 50, 0.05, 0.9)
print(f"\npruning half the channels per layer "
      f"({' vs '.join(rankings)} ordering):\n")
print("method       kept channels                    error  after tune")
for name, report in rankings.items():
    plan = make_plan(report, rate=0.5)
    small = apply_plan(model, plan, switch_means=means)
    err = evaluate(small, x_te, y_te)
    # a validation set makes train_model keep its best epoch, here in place
    train_model(small, x_tr, y_tr, tune, np.random.default_rng(77), val=(x_te, y_te))
    err_tuned = small.metadata["training_history"][-1]["val_error"]
    kept = plan.keep[0].tolist()
    print(f"{name:<12} {str(kept):<32} {err:5.2f}%   {err_tuned:5.2f}%")

plan = make_plan(rankings["posterior"], rate=0.5)
small = apply_plan(model, plan, switch_means=means)
print(f"\npruned model: {count_params(small)} weights, {count_flops(small)} MACs")
print(f"architecture {model.arch_string} -> {small.arch_string}")
