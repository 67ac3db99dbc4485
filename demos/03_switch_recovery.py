"""Recovering a planted channel-importance vector from data alone.

A two-layer network is built whose hidden channels are scaled by a known
sparse simplex: a quarter of them near zero, the rest spread over a range.
Labels come from propagating inputs through that scaled network. We then
plant the weights, put a Dirichlet posterior over the switch, and ask
variational inference to find the scaling. Rank agreement with the truth
is the score; both the deterministic and the sampling estimator get a run.
"""

import numpy as np
from scipy.stats import spearmanr

from dirichlet_pruning.switch import (
    AnalyticMean,
    ImplicitMC,
    SwitchTrainSchedule,
    init_switch_states,
    posterior_report,
    train_switches,
)
from dirichlet_pruning.synthetic import gen_synthetic, task_model

D_X, D_H, N = 60, 12, 3000
task, x, y = gen_synthetic(D_X, D_H, N, np.random.default_rng(123))
print(f"task: {D_X} inputs, {D_H} switched channels, {N} samples")
print("true switch:", np.round(task.true_switch, 4))
print("near-zero channels:", np.nonzero(task.true_switch < 1e-3)[0].tolist())


def run(schedule, seed):
    model = task_model(task)
    states = init_switch_states(model)
    train_switches(model, states, x, y, schedule, np.random.default_rng(seed))
    hidden = next(s for s in states if s.layer == 0)  # the only prunable layer
    return posterior_report(hidden)


# a schedule holds every setting of a run, the estimator, the prior
# Dir(alpha0) and the KL weight among them; a layer's state is its theta
am_sched = SwitchTrainSchedule(epochs=8, batch_size=100, lr=0.5,
                               estimator=AnalyticMean(), alpha0=0.5, kl_weight=1.0 / N)
mean_am, std_am = run(am_sched, seed=11)

mc_sched = SwitchTrainSchedule(epochs=3, batch_size=100, lr=3.0,
                               estimator=ImplicitMC(k=10), alpha0=0.5, kl_weight=1.0 / N)
mean_mc, std_mc = run(mc_sched, seed=12)

rho_am = spearmanr(mean_am, task.true_switch).statistic
rho_mc = spearmanr(mean_mc, task.true_switch).statistic
print(f"\nrank correlation with truth: analytic {rho_am:.3f}, sampling {rho_mc:.3f}")

print("\nchannel   truth    analytic mean/std    sampling mean/std")
for c in np.argsort(task.true_switch)[::-1]:
    print(
        f"  {c:>2}    {task.true_switch[c]:.4f}"
        f"    {mean_am[c]:.4f} +- {std_am[c]:.4f}"
        f"    {mean_mc[c]:.4f} +- {std_mc[c]:.4f}"
    )

frac = float(np.mean(std_mc < std_am))
print(f"\nsampling posterior is tighter on {100 * frac:.0f}% of channels")
print("(the deterministic estimator ignores the likelihood's curvature in the")
print(" sample direction, so its concentrations grow more slowly)")
