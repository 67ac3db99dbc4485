"""Dirichlet distribution: sampling, mean, KL divergence, log-density."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from dirichlet_pruning.dirichlet import (dirichlet_kl, dirichlet_log_pdf_batch,
                                         dirichlet_marginal_std,
                                         dirichlet_sample_batch,
                                         validate_concentration)
from dirichlet_pruning.errors import DomainError, NumericError, ShapeError
from dirichlet_pruning.special import lgamma_batch
from dirichlet_pruning.switch import AnalyticMean, _sigmoid_np

from psi_oracle import digamma_masked, kl_grad_two_pass

from conftest import central_fd, grad_err

# quadrature oracle, frozen: KL(Dir[2,2] || Dir[1,1])
KL_22_11 = 0.12509280256138688


def _kl_quadrature(q, p):
    """1-d adaptive quadrature of q(s) log(q(s)/p(s)) for D=2 Dirichlets."""
    fq = scipy.stats.beta(q[0], q[1])
    fp = scipy.stats.beta(p[0], p[1])
    val, err = scipy.integrate.quad(
        lambda s: fq.pdf(s) * (fq.logpdf(s) - fp.logpdf(s)), 0.0, 1.0,
        epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-8
    return val


def _kl_scipy_formula(q, p):
    """Closed form evaluated with scipy's special functions."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    sq = q.sum()
    return float(scipy.special.gammaln(sq) - scipy.special.gammaln(p.sum())
                 - scipy.special.gammaln(q).sum() + scipy.special.gammaln(p).sum()
                 + np.sum((q - p) * (scipy.special.digamma(q) - scipy.special.digamma(sq))))


def _mean(conc):
    """The posterior-mean switch row that the analytic estimator plugs in."""
    (mean,), _, _ = AnalyticMean().draw(np.asarray(conc, dtype=np.float64), rng=None)
    return mean


def _log_pdf(conc, s):
    """The log density at one simplex point, as a batch of one row."""
    return float(dirichlet_log_pdf_batch(conc, np.asarray(s, dtype=np.float64)[None])[0])


# ---------------------------------------------------------------------------
# validation


def test_concentration_validation():
    validate_concentration(np.array([0.1, 2.0]))
    with pytest.raises(DomainError):
        validate_concentration(np.array([1.0]))
    with pytest.raises(DomainError):
        validate_concentration(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        validate_concentration(np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# mean


def test_mean_simple():
    assert np.array_equal(_mean(np.array([1.0, 3.0])), np.array([0.25, 0.75]))


def test_mean_symmetric_is_uniform():
    for d in (2, 5, 9):
        for c in (0.5, 1.0, 7.0):
            m = _mean(np.full(d, c))
            assert np.allclose(m, 1.0 / d, atol=1e-15)


def test_mean_scale_invariance():
    phi = np.array([0.4, 1.1, 2.6, 0.9])
    # power-of-two scalings are exact in float64, so bitwise equality holds
    for c in (2.0, 0.25, 1024.0):
        assert np.array_equal(_mean(phi), _mean(c * phi))
    for c in (3.7, 0.013):
        assert np.allclose(_mean(phi), _mean(c * phi),
                           rtol=1e-14, atol=0)
        assert np.array_equal(np.argsort(_mean(phi)),
                              np.argsort(_mean(c * phi)))


# ---------------------------------------------------------------------------
# sampling


def test_sample_symmetric_two_dims():
    rng = np.random.default_rng(200)
    n = 100_000
    a = 2.0
    conc = np.array([a, a])
    s, _, _ = dirichlet_sample_batch(conc, n, rng)
    var = a * a / ((2 * a) ** 2 * (2 * a + 1))
    se = math.sqrt(var / n)
    assert abs(s[:, 0].mean() - 0.5) <= 4 * se


def test_sample_simplex_invariants_and_gamma_parts():
    rng = np.random.default_rng(201)
    conc = np.array([0.3, 1.0, 4.0])
    s, y, dy = dirichlet_sample_batch(conc, 300, rng)
    assert s.shape == y.shape == dy.shape == (300, 3)
    assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(s >= 0.0)
    assert np.all(y > 0.0) and np.all(dy > 0.0)
    assert np.allclose(s, y / y.sum(axis=1, keepdims=True), rtol=1e-12, atol=0)


def test_sample_mean_matches_analytic():
    rng = np.random.default_rng(202)
    conc = np.array([2.0, 3.0, 5.0])
    n = 100_000
    s, _, _ = dirichlet_sample_batch(conc, n, rng)
    mean = _mean(conc)
    std = dirichlet_marginal_std(conc)
    for j in range(3):
        assert abs(s[:, j].mean() - mean[j]) <= 4 * std[j] / math.sqrt(n)


def test_sample_marginal_variance_matches_formula():
    rng = np.random.default_rng(203)
    conc = np.array([0.5, 1.2, 2.0, 3.3, 5.0])
    n = 20_000
    s, _, _ = dirichlet_sample_batch(conc, n, rng)
    var = dirichlet_marginal_std(conc) ** 2
    for j in range(5):
        x = s[:, j]
        mu4 = np.mean((x - x.mean()) ** 4)
        se = math.sqrt(max(mu4 - var[j] ** 2, 0.0) / n)
        assert abs(x.var(ddof=1) - var[j]) <= 4 * se, j


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_underflow_raises_numeric_error():
    # the underflow is caught before the implicit gradients would overflow
    rng = np.random.default_rng(204)
    with pytest.raises(NumericError):
        dirichlet_sample_batch(np.array([1e-300, 1e-300]), 1, rng)


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_self_is_zero():
    rng = np.random.default_rng(205)
    for _ in range(20):
        q = rng.uniform(0.2, 10.0, rng.integers(2, 6))
        assert abs(dirichlet_kl(q, q)[0]) <= 1e-12


def test_kl_beta_case_matches_quadrature():
    assert abs(dirichlet_kl(np.array([2.0, 2.0]), np.array([1.0, 1.0]))[0] - KL_22_11) <= 1e-10
    rng = np.random.default_rng(206)
    for _ in range(8):
        q = rng.uniform(0.2, 10.0, 2)
        p = rng.uniform(0.2, 10.0, 2)
        assert abs(dirichlet_kl(q, p)[0] - _kl_quadrature(q, p)) <= 1e-5, (q, p)


def test_kl_matches_monte_carlo():
    q = np.array([0.5, 1.5, 2.0])
    p = np.array([1.0, 1.0, 1.0])
    rng = np.random.default_rng(207)
    n = 200_000
    s = rng.dirichlet(q, size=n)  # independent sampler
    s = np.clip(s, 1e-12, None)
    s /= s.sum(axis=1, keepdims=True)
    diffs = dirichlet_log_pdf_batch(q, s) - dirichlet_log_pdf_batch(p, s)
    est = diffs.mean()
    se = diffs.std(ddof=1) / math.sqrt(n)
    assert abs(dirichlet_kl(q, p)[0] - est) <= 4 * se


def test_kl_matches_independent_formula_evaluation():
    rng = np.random.default_rng(208)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        q = rng.uniform(0.05, 20.0, d)
        p = rng.uniform(0.05, 20.0, d)
        assert abs(dirichlet_kl(q, p)[0] - _kl_scipy_formula(q, p)) <= 1e-10


def test_kl_nonnegative():
    rng = np.random.default_rng(209)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        q = rng.uniform(0.1, 15.0, d)
        p = rng.uniform(0.1, 15.0, d)
        assert dirichlet_kl(q, p)[0] >= -1e-12


def test_kl_length_mismatch():
    with pytest.raises(ShapeError):
        dirichlet_kl(np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0]))


def test_kl_grad_matches_fd():
    rng = np.random.default_rng(210)
    for _ in range(5):
        d = int(rng.integers(2, 6))
        q = rng.uniform(0.3, 8.0, d)
        p = rng.uniform(0.3, 8.0, d)
        grad = dirichlet_kl(q, p)[1]
        fd = central_fd(lambda v: dirichlet_kl(v, p)[0], q, eps=1e-6)
        assert grad_err(grad, fd) <= 1e-7, (q, p)


@pytest.mark.parametrize("d", [2, 5, 64, 800])
def test_kl_grad_times_sigmoid_is_bitwise_the_two_pass_gradient(d):
    # what a switch step feeds to theta: the merged gradient times
    # sigmoid(theta) must be exactly the separate psi' pass times sigmoid
    rng = np.random.default_rng(211 + d)
    for alpha0 in (0.5, 1.0, 3.0):
        theta = rng.normal(0.5, 2.0, d)
        phi = np.logaddexp(0.0, theta) + 1e-6
        prior = np.full(d, alpha0)
        sig = _sigmoid_np(theta)
        _, grad = dirichlet_kl(phi, prior)
        assert np.array_equal(grad * sig, kl_grad_two_pass(phi, prior) * sig)


def test_kl_value_is_bitwise_the_separate_kernel_sum():
    # one lgamma call on both concentrations and one psi pass give the bits
    # of separate calls, summed in the same order
    rng = np.random.default_rng(212)
    for d in (2, 7, 64, 801):
        q = rng.uniform(0.05, 20.0, d)
        p = np.full(d, 0.5) if d % 2 else rng.uniform(0.05, 20.0, d)
        lg_q = lgamma_batch(np.append(q, q.sum()))
        lg_p = lgamma_batch(np.append(p, p.sum()))
        psi_q = digamma_masked(np.append(q, q.sum()))
        kl = lg_q[-1] - lg_p[-1]
        kl -= lg_q[:-1].sum()
        kl += lg_p[:-1].sum()
        kl += ((q - p) * (psi_q[:-1] - psi_q[-1])).sum()
        assert dirichlet_kl(q, p)[0] == float(kl)


# ---------------------------------------------------------------------------
# log-density


def test_log_pdf_uniform_dirichlet_is_zero():
    ones = np.array([1.0, 1.0])
    for s1 in (0.1, 0.33, 0.5, 0.9):
        assert abs(_log_pdf(ones, np.array([s1, 1.0 - s1]))) <= 1e-12


def test_log_pdf_integrates_to_one():
    phi = np.array([2.5, 1.7])
    val, err = scipy.integrate.quad(
        lambda s: math.exp(_log_pdf(phi, np.array([s, 1.0 - s]))),
        0.0, 1.0, epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-8
    assert abs(val - 1.0) <= 1e-6


def test_log_pdf_matches_scipy():
    rng = np.random.default_rng(211)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        phi = rng.uniform(0.3, 6.0, d)
        s = rng.dirichlet(np.full(d, 2.0))
        ref = float(scipy.stats.dirichlet.logpdf(s[:-1] if d > 2 else s, phi)
                    if False else scipy.stats.dirichlet(phi).logpdf(s))
        assert abs(_log_pdf(phi, s) - ref) <= 1e-10


def test_log_pdf_permutation_invariance():
    phi2 = np.array([3.0, 3.0])
    s2 = np.array([0.3, 0.7])
    assert _log_pdf(phi2, s2) == _log_pdf(phi2, s2[::-1])
    phi4 = np.full(4, 1.8)
    s4 = np.array([0.1, 0.2, 0.3, 0.4])
    base = _log_pdf(phi4, s4)
    rng = np.random.default_rng(212)
    for _ in range(5):
        perm = rng.permutation(4)
        assert abs(_log_pdf(phi4, s4[perm]) - base) <= 1e-12


def test_log_pdf_boundary_with_small_concentration():
    # the density is infinite at this boundary point; entries are clamped up
    # to 1e-12, so the value is the finite density just inside the simplex
    phi = np.array([0.5, 2.0])
    value = _log_pdf(phi, np.array([0.0, 1.0]))
    assert math.isfinite(value)
    assert value == _log_pdf(phi, np.array([1e-12, 1.0]))


def test_log_pdf_batch_matches_scalar():
    rng = np.random.default_rng(213)
    phi = np.array([0.7, 2.0, 3.3])
    s = rng.dirichlet(np.full(3, 2.0), size=10)
    batch = dirichlet_log_pdf_batch(phi, s)
    ref = np.array([_log_pdf(phi, row) for row in s])  # one row at a time
    assert np.allclose(batch, ref, rtol=1e-12, atol=1e-12)
