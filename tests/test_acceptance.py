"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``criterion N: PASS/FAIL - detail`` line (shown
with -s, or in the captured output on failure) and asserts both the stated
tolerance and the stated runtime budget.
"""

import os
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from conftest import central_fd, grad_err
from masked_oracle import masked_logits
from tape_ops import mul, tsum

import dirichlet_pruning.tensor as T
from dirichlet_pruning.dirichlet import (dirichlet_kl, dirichlet_marginal_std,
                                         dirichlet_sample_batch)
from dirichlet_pruning.models import (TrainSchedule, build_lenet5, build_mlp,
                                      count_flops, count_params, evaluate,
                                      prunable_widths, train_model)
from dirichlet_pruning.data import load_mnist_idx
from dirichlet_pruning.pruning import apply_plan, make_plan, rank_dirichlet, rank_random
from dirichlet_pruning.special import gamma_implicit_grad_batch, gamma_sample_batch
from dirichlet_pruning.switch import (AnalyticMean, ImplicitMC, SwitchState,
                                      SwitchTrainSchedule, init_switch_states,
                                      neg_elbo_and_grads, posterior_report,
                                      train_switches)
from dirichlet_pruning.synthetic import gen_synthetic, task_model
from dirichlet_pruning.tensor import Tensor


def _line(n, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {status} - {detail} ({time.perf_counter() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# 1. closed-form KL vs quadrature and Monte Carlo


def _kl_beta_quadrature(q, p):
    """KL between D=2 Dirichlets via their Beta marginal on s1."""
    fq = scipy.stats.beta(q[0], q[1])
    fp = scipy.stats.beta(p[0], p[1])
    val, _ = scipy.integrate.quad(
        lambda s: fq.pdf(s) * (fq.logpdf(s) - fp.logpdf(s)), 0.0, 1.0,
        limit=200)
    return val


def test_criterion_1_kl_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_quad = 0.0
    for _ in range(50):
        q = rng.uniform(0.2, 10.0, size=2)
        p = rng.uniform(0.2, 10.0, size=2)
        worst_quad = max(worst_quad, abs(dirichlet_kl(q, p)[0] - _kl_beta_quadrature(q, p)))

    worst_z = 0.0
    n = 10**6
    for _ in range(10):
        q = rng.uniform(0.5, 5.0, size=3)
        p = rng.uniform(0.5, 5.0, size=3)
        s = rng.dirichlet(q, size=n)  # independent sampler as the oracle
        # scipy's density, one column per point
        diffs = scipy.stats.dirichlet.logpdf(s.T, q) - scipy.stats.dirichlet.logpdf(s.T, p)
        se = diffs.std(ddof=1) / np.sqrt(n)
        worst_z = max(worst_z, abs(diffs.mean() - dirichlet_kl(q, p)[0]) / se)

    elapsed = time.perf_counter() - t0
    ok = worst_quad <= 1e-5 and worst_z <= 3.0 and elapsed < 30.0
    _line(1, ok, f"quadrature max |err| {worst_quad:.2e}, MC max |z| {worst_z:.2f} SE", t0)
    assert worst_quad <= 1e-5
    assert worst_z <= 3.0
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. finite-difference gradient suite


def _fd_check(build, arrays):
    """Worst grad_err between tape gradients and central differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with T.Tape():
        loss = build(*tensors)
    T.backward(loss)
    worst = 0.0
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        def f(v, i=i):
            fresh = [Tensor(arrays[j].copy() if j != i else np.asarray(v, dtype=np.float64))
                     for j in range(len(arrays))]
            return build(*fresh).item()
        worst = max(worst, grad_err(t.grad, central_fd(f, a)))
    return worst


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)

    def mat(*shape):
        a = rng.uniform(-2.0, 2.0, size=shape)
        a[np.abs(a) < 0.05] = 0.1  # keep clear of relu/div kinks
        return a

    a34 = mat(3, 4)
    c34 = Tensor(rng.normal(size=(3, 4)))
    a32 = Tensor(rng.normal(size=(3, 2)))
    h = mat(2, 3, 4, 4)
    s3 = rng.uniform(0.2, 1.0, size=3)
    xc = mat(2, 2, 5, 5)
    kc = rng.normal(size=(3, 2, 3, 3)) * 0.5
    cconv = Tensor(rng.normal(size=(2, 3, 3, 3)))
    xp = (np.random.default_rng(7).permutation(2 * 2 * 36).astype(np.float64)
          .reshape(2, 2, 6, 6)) / 10.0
    cpool = Tensor(rng.normal(size=(2, 2, 3, 3)))
    cflat = Tensor(rng.normal(size=(2, 48)))
    logits = rng.normal(size=(6, 4)) * 2.0
    labels = rng.integers(0, 4, size=6)
    rows = np.stack([s3, s3[::-1]])  # two rows of three channel scales

    def ramp(*shape):
        return Tensor(np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape))

    # every op that models.forward and its loss record; tsum(mul(out, c))
    # from the test-side ops turns an output into a scalar loss
    cases = [
        ("matmul", lambda x: tsum(mul(T.matmul(x, a32), Tensor(np.ones((3, 2))))),
         [mat(3, 3)]),
        ("relu", lambda x: tsum(mul(T.relu(x), c34)), [a34]),
        ("reshape", lambda x: tsum(mul(T.reshape(x, (2, 6)), Tensor(np.ones((2, 6))))),
         [mat(3, 4)[:2, :3].reshape(2, 3).repeat(2, axis=1)]),
        ("flatten", lambda x: tsum(mul(T.flatten_batch(x), cflat)), [h]),
        ("scale_input_channels_conv",
         lambda s: tsum(mul(T.scale_input_channels(cconv, s), ramp(4, 3, 3, 3))), [rows]),
        ("scale_input_channels_fc",
         lambda s: tsum(mul(T.scale_input_channels(Tensor(h.reshape(12, 8)), s), ramp(12, 16))),
         [rows]),
        ("matmul_bias", lambda x, w, b: tsum(mul(T.matmul(x, w, bias=b), c34)),
         [mat(3, 5), rng.normal(size=(5, 4)), rng.normal(size=4)]),
        ("conv2d", lambda x, k: tsum(mul(T.conv2d(x, k, padding=1), ramp(2, 3, 5, 5))),
         [xc, kc]),
        ("conv2d_bias", lambda x, k, b: tsum(mul(T.conv2d(x, k, padding=1, bias=b),
                                                 ramp(2, 3, 5, 5))), [xc, kc, rng.normal(size=3)]),
        ("maxpool2d", lambda x: tsum(mul(T.maxpool2d(x, 2), cpool)), [xp]),
        ("cross_entropy", lambda z: T.softmax_cross_entropy(z, labels), [logits]),
    ]
    worst = {}
    for name, build, arrays in cases:
        worst[name] = _fd_check(build, arrays)
    worst_prim = max(worst.values())

    # the analytic-mean variational objective, differentiated w.r.t. theta
    model = build_mlp(6, 5, 3, rng=np.random.default_rng(1003))
    states = init_switch_states(model)
    xb = rng.normal(size=(20, 6))
    yb = rng.integers(0, 3, size=20)
    st = states[0]
    _, grad = neg_elbo_and_grads(states, model, xb, yb, 200,
                                 np.random.default_rng(0), layer=st.layer)

    def f_theta(theta):
        probe = SwitchState(st.layer, np.asarray(theta, dtype=np.float64))
        return neg_elbo_and_grads([probe], model, xb, yb, 200,
                                  np.random.default_rng(0), layer=st.layer)[0].neg_elbo

    elbo_err = grad_err(grad, central_fd(f_theta, st.theta))

    elapsed = time.perf_counter() - t0
    ok = worst_prim <= 1e-5 and elbo_err <= 1e-4 and elapsed < 60.0
    slowest = max(worst, key=worst.get)
    _line(2, ok, f"primitives max err {worst_prim:.2e} ({slowest}), "
                 f"neg_elbo theta grad err {elbo_err:.2e}", t0)
    assert worst_prim <= 1e-5, worst
    assert elbo_err <= 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. implicit Gamma gradient vs quantile finite differences (scipy's quantile)


def test_criterion_3_implicit_gamma_gradient():
    t0 = time.perf_counter()
    worst = 0.0
    quantile = scipy.special.gammaincinv
    for shape in (0.3, 1.0, 3.0, 10.0):
        h = 1e-4 * max(1.0, shape)
        for u in np.arange(0.1, 0.95, 0.1):
            x = quantile(shape, u)
            grad = gamma_implicit_grad_batch(shape, x)
            fd = (quantile(shape + h, u) - quantile(shape - h, u)) / (2 * h)
            worst = max(worst, abs(grad - fd) / abs(fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 5.0
    _line(3, ok, f"max rel err {worst:.2e} over 36 grid points", t0)
    assert worst <= 1e-3
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. sampler statistics


def test_criterion_4_sampler_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    conc = rng.uniform(0.5, 5.0, size=5)
    n = 10**5
    s, _, _ = dirichlet_sample_batch(conc, n, rng)

    mean = conc / conc.sum()
    std = dirichlet_marginal_std(conc)
    mean_z = np.abs(s.mean(axis=0) - mean) / (std / np.sqrt(n))
    var_hat = s.var(axis=0, ddof=1)
    mu4 = ((s - mean) ** 4).mean(axis=0)
    var_se = np.sqrt(np.maximum(mu4 - std**4, 1e-30) / n)
    var_z = np.abs(var_hat - std**2) / var_se

    ks_ok = True
    ks_detail = []
    for a in (0.5, 3.0):
        m = 20000
        draws = gamma_sample_batch(np.full(m, a), np.random.default_rng(int(10 * a)))
        stat = scipy.stats.kstest(draws, scipy.stats.gamma(a).cdf).statistic
        crit = np.sqrt(-0.5 * np.log(0.005)) / np.sqrt(m)  # 0.99 level
        ks_detail.append(f"shape {a}: {stat:.4f} < {crit:.4f}")
        ks_ok = ks_ok and stat < crit

    elapsed = time.perf_counter() - t0
    ok = mean_z.max() <= 4.0 and var_z.max() <= 4.0 and ks_ok and elapsed < 30.0
    _line(4, ok, f"mean max {mean_z.max():.2f} SE, var max {var_z.max():.2f} SE, "
                 f"KS {'; '.join(ks_detail)}", t0)
    assert mean_z.max() <= 4.0
    assert var_z.max() <= 4.0
    assert ks_ok, ks_detail
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. posterior recovery at (100, 20) with both estimators


def test_criterion_5_posterior_recovery_both_estimators():
    t0 = time.perf_counter()
    task, x, y = gen_synthetic(100, 20, 4000, np.random.default_rng(123))
    model = task_model(task)

    def run(schedule, seed):
        states = init_switch_states(model)
        train_switches(model, states, x, y, schedule, np.random.default_rng(seed))
        mean, std = posterior_report(states[0])
        rho = scipy.stats.spearmanr(mean, task.true_switch).statistic
        return rho, std

    rho_am, std_am = run(SwitchTrainSchedule(8, 100, 0.5, AnalyticMean()), 11)
    rho_mc, std_mc = run(SwitchTrainSchedule(3, 100, 3.0, ImplicitMC(10)), 12)
    tighter = float(np.mean(std_mc <= std_am))

    elapsed = time.perf_counter() - t0
    ok = rho_am >= 0.8 and rho_mc >= 0.8 and tighter >= 0.6 and elapsed < 300.0
    _line(5, ok, f"rho analytic {rho_am:.3f}, rho implicit {rho_mc:.3f}, "
                 f"implicit std tighter on {tighter:.0%} of channels", t0)
    assert rho_am >= 0.8
    assert rho_mc >= 0.8
    assert tighter >= 0.6
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 6. epoch timing ratio at (1000, 500)


def test_criterion_6_analytic_epoch_speedup():
    t0 = time.perf_counter()
    task, x, y = gen_synthetic(1000, 500, 400, np.random.default_rng(5))
    model = task_model(task)

    def epoch_seconds(estimator, seed):
        states = init_switch_states(model)
        stats = train_switches(model, states, x, y,
                               SwitchTrainSchedule(1, 100, 0.5, estimator),
                               np.random.default_rng(seed))
        return stats[0].seconds

    am = epoch_seconds(AnalyticMean(), 61)
    mc = epoch_seconds(ImplicitMC(1000), 62)
    ratio = mc / am

    elapsed = time.perf_counter() - t0
    ok = ratio >= 5.0 and elapsed < 600.0
    _line(6, ok, f"analytic {am:.3f}s vs implicit(k=1000) {mc:.1f}s per epoch, "
                 f"ratio {ratio:.0f}x", t0)
    assert ratio >= 5.0
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. mask/remove equivalence on random plans


def test_criterion_7_mask_remove_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        model = build_mlp(10, 8, 3, rng=np.random.default_rng(700 + i))
        plan = make_plan(rank_random(model, np.random.default_rng(710 + i)), rate=0.5)
        means = {o: np.random.default_rng(720 + i).dirichlet(np.ones(w))
                 for o, w in enumerate(prunable_widths(model))}
        xb = np.random.default_rng(730 + i).normal(size=(6, 10))
        diff = np.abs(apply_and_forward(model, plan, means, xb)
                      - masked_logits(model, plan, xb, switch_means=means)).max()
        worst = max(worst, diff)
    for i in range(10):
        model = build_lenet5([3, 4, 16, 8], rng=np.random.default_rng(740 + i))
        plan = make_plan(rank_random(model, np.random.default_rng(750 + i)), rate=0.4)
        means = {o: np.random.default_rng(760 + i).dirichlet(np.ones(w))
                 for o, w in enumerate(prunable_widths(model))}
        xb = np.random.default_rng(770 + i).normal(size=(2, 1, 28, 28))
        diff = np.abs(apply_and_forward(model, plan, means, xb)
                      - masked_logits(model, plan, xb, switch_means=means)).max()
        worst = max(worst, diff)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _line(7, ok, f"20 plans, worst |masked - pruned| {worst:.2e}", t0)
    assert worst <= 1e-9
    assert elapsed < 30.0


def apply_and_forward(model, plan, means, xb):
    from dirichlet_pruning.models import forward
    return forward(apply_plan(model, plan, switch_means=means), xb).data


# ---------------------------------------------------------------------------
# 8. end-to-end MNIST pruning (data permitting)


_MNIST_NAMES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _mnist_paths():
    roots = []
    env = os.environ.get("DIRICHLET_MNIST_DIR")
    if env:
        roots.append(env)
    roots.append(os.path.join(os.path.dirname(__file__), "..", "data", "mnist"))
    for root in roots:
        found = []
        for name in _MNIST_NAMES:
            for suffix in ("", ".gz"):
                p = os.path.join(root, name + suffix)
                if os.path.exists(p):
                    found.append(p)
                    break
        if len(found) == 4:
            return found
    return None


def test_criterion_8_end_to_end_mnist_pruning():
    t0 = time.perf_counter()
    paths = _mnist_paths()
    if paths is None:
        _line(8, True, "SKIP - MNIST IDX files not found and this environment "
                       "has no network access; set DIRICHLET_MNIST_DIR or place "
                       "the four IDX files under data/mnist/ to enable", t0)
        pytest.skip("MNIST IDX files not found (data/mnist/ or DIRICHLET_MNIST_DIR) "
                    "and this environment has no network access to fetch them")

    full = os.environ.get("DIRICHLET_MNIST_FULL") == "1"
    budget = 7200.0 if full else 900.0
    err_cap = 1.5 if full else 5.0
    x, y = load_mnist_idx(paths[0], paths[1])
    x_test, y_test = load_mnist_idx(paths[2], paths[3])
    if not full:
        x, y = x[:10000], y[:10000]
    n_val = max(1000, x.shape[0] // 10)
    x_tr, y_tr = x[:-n_val], y[:-n_val]
    x_val, y_val = x[-n_val:], y[-n_val:]

    rng = np.random.default_rng(8)
    model = build_lenet5([20, 50, 800, 500], rng=rng)
    train_model(model, x_tr, y_tr,
                TrainSchedule(10 if full else 4, 100, 0.05, 0.9), rng)
    baseline = evaluate(model, x_test, y_test)

    states = init_switch_states(model)
    train_switches(model, states, x_tr[:2000], y_tr[:2000],
                   SwitchTrainSchedule(2, 100, 0.5), rng)
    plan = make_plan(rank_dirichlet(states), keep_counts=[6, 8, 40, 20])
    means = {st.layer: st.posterior_mean() for st in states}
    tuned = apply_plan(model, plan, switch_means=means)  # fine-tuned in place below
    train_model(tuned, x_tr, y_tr, TrainSchedule(6 if full else 3, 100, 0.02, 0.9), rng,
                val=(x_val, y_val))
    final = evaluate(tuned, x_test, y_test)
    params, flops = count_params(tuned), count_flops(tuned)

    elapsed = time.perf_counter() - t0
    ok = (baseline <= err_cap and final <= baseline + 1.0
          and 4500 <= params <= 7500 and 126000 <= flops <= 210000
          and elapsed <= budget)
    _line(8, ok, f"baseline {baseline:.2f}%, final {final:.2f}%, "
                 f"params {params}, flops {flops}", t0)
    assert baseline <= err_cap
    assert final <= baseline + 1.0
    assert 4500 <= params <= 7500
    assert 126000 <= flops <= 210000
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 9. ranking quality: posterior ranking vs random at 50% pruning


def test_criterion_9_ranking_beats_random():
    t0 = time.perf_counter()
    wins = 0
    details = []
    for seed in range(10):
        _, x, y = gen_synthetic(12, 8, 1200, np.random.default_rng(9000 + seed))
        x_tr, y_tr, x_te, y_te = x[:800], y[:800], x[800:], y[800:]
        model = build_mlp(12, 8, 2, rng=np.random.default_rng(9100 + seed))
        train_model(model, x_tr, y_tr, TrainSchedule(3, 50, 0.3, 0.9),
                    np.random.default_rng(9200 + seed))
        states = init_switch_states(model)
        train_switches(model, states, x_tr, y_tr,
                       SwitchTrainSchedule(4, 100, 0.5),
                       np.random.default_rng(9300 + seed))
        means = {st.layer: st.posterior_mean() for st in states}
        plan_post = make_plan(rank_dirichlet(states), rate=0.5)
        plan_rand = make_plan(rank_random(model, np.random.default_rng(9400 + seed)),
                              rate=0.5)
        err_post = evaluate(apply_plan(model, plan_post, switch_means=means),
                            x_te, y_te)
        err_rand = evaluate(apply_plan(model, plan_rand, switch_means=means),
                            x_te, y_te)
        wins += err_post <= err_rand
        details.append(f"{err_post:.1f}/{err_rand:.1f}")

    elapsed = time.perf_counter() - t0
    ok = wins >= 8
    _line(9, ok, f"posterior ranking <= random error on {wins}/10 seeds "
                 f"(post/rand % per seed: {', '.join(details)})", t0)
    assert wins >= 8, details
