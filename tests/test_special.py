"""Special functions and Gamma machinery against independent oracles.

Frozen reference values were produced with mpmath at 50 decimal digits and
with adaptive quadrature of the Gamma density; the live cross-checks below
recompute them where the oracle library is importable.
"""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from dirichlet_pruning import special
from dirichlet_pruning.dirichlet import dirichlet_sample_batch
from dirichlet_pruning.errors import DomainError, NumericError
from dirichlet_pruning.special import (digamma_batch, gamma_implicit_grad_batch,
                                       gamma_log_pdf, gamma_sample_batch, lgamma_batch)

from conftest import child_env, peak_mib, rel_err
from lanczos_oracle import lgamma_loop
from psi_oracle import digamma_masked, trigamma_masked

# mpmath, 50 digits
LGAMMA_10_3 = 13.482036786138356970615073432570092518681144966518
LGAMMA_HALF = 0.57236494292470008707171367567652935582364740645766
DIGAMMA_7_5 = 1.9467574842460867880692911772687547003171079056071
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992
TRIGAMMA_3_7 = 0.31003785767003831910385929811999707838408779774345


# ---------------------------------------------------------------------------
# lgamma


def test_lgamma_at_one_and_two():
    assert abs(lgamma_batch(1.0)) <= 1e-14
    assert abs(lgamma_batch(2.0)) <= 1e-14


def test_lgamma_half_is_log_root_pi():
    assert abs(lgamma_batch(0.5) - LGAMMA_HALF) <= 1e-13


def test_lgamma_against_high_precision_reference():
    assert abs(lgamma_batch(10.3) - LGAMMA_10_3) <= 1e-12
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for x in [1e-3, 0.11, 0.9, 3.3, 42.0, 817.0]:
        ref = float(mpmath.loggamma(mpmath.mpf(repr(x))))
        assert abs(lgamma_batch(x) - ref) <= 1e-12, x


def test_lgamma_large_arguments_to_machine_precision():
    # Above ~1e3 the value itself exceeds 1e3·eps, so the absolute target is
    # capped by float64 representation; a few-ulp relative bound is the
    # strongest satisfiable contract there.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for x in [1e3, 3.7e4, 1e6]:
        ref = float(mpmath.loggamma(mpmath.mpf(repr(x))))
        assert rel_err(lgamma_batch(x), ref) <= 5e-15, x


def test_lgamma_domain_error():
    for bad in (0.0, -0.5, -3.0, math.nan):
        with pytest.raises(DomainError):
            lgamma_batch(bad)
    with pytest.raises(DomainError, match="nan"):
        lgamma_batch(np.array([2.0, math.nan]))


def test_lgamma_batch_matches_scalar():
    # each kernel masks its branches per element, so a value must not depend
    # on the rest of the batch: the batch equals each element run alone
    xs = np.array([1e-3, 0.5, 1.0, 7.7, 120.0, 1e5])
    batch = lgamma_batch(xs)
    assert np.array_equal(batch, np.array([lgamma_batch(float(x)) for x in xs]))


# ---------------------------------------------------------------------------
# digamma / trigamma


def trigamma(x):
    """psi'(x) from the recurrence the KL gradient uses."""
    return special._psi_recurrence(x, True)[1]


def test_digamma_one_is_minus_euler_gamma():
    # oracle: Euler's constant as the limit of H_n - ln n, with the two
    # leading correction terms so n = 1e5 already gives ~1e-16 accuracy
    n = 100_000
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    gamma_est = harmonic - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)
    assert abs(digamma_batch(1.0) + gamma_est) <= 1e-10
    assert abs(digamma_batch(1.0) + EULER_GAMMA) <= 1e-12


def test_digamma_recurrence():
    assert abs(digamma_batch(2.0) - digamma_batch(1.0) - 1.0) <= 1e-12
    for x in [0.3, 1.7, 9.2]:
        assert abs(digamma_batch(x + 1.0) - digamma_batch(x) - 1.0 / x) <= 1e-12


def test_digamma_against_high_precision_reference():
    assert abs(digamma_batch(7.5) - DIGAMMA_7_5) <= 1e-12
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for x in [1e-3, 0.2, 1.0, 14.0, 900.0, 1e6]:
        ref = float(mpmath.digamma(mpmath.mpf(repr(x))))
        err = abs(digamma_batch(x) - ref)
        assert err <= max(1e-10, 1e-13 * abs(ref)), x


def test_digamma_is_derivative_of_lgamma():
    for x in [0.5, 0.8, 2.0, 3.7, 10.0, 41.0, 100.0]:
        h = 1e-6 * x
        fd = (lgamma_batch(x + h) - lgamma_batch(x - h)) / (2 * h)
        assert rel_err(digamma_batch(x), fd) <= 1e-6, x


def test_digamma_domain_error():
    with pytest.raises(DomainError):
        digamma_batch(0.0)
    with pytest.raises(DomainError):
        digamma_batch(-2.0)
    with pytest.raises(DomainError, match="nan"):
        digamma_batch(np.array([2.0, math.nan]))


def test_digamma_batch_matches_scalar():
    xs = np.array([0.01, 0.5, 3.0, 77.0])
    assert np.array_equal(digamma_batch(xs), np.array([digamma_batch(float(x)) for x in xs]))


def test_trigamma_basics():
    assert abs(trigamma(1.0) - math.pi**2 / 6.0) <= 1e-12
    assert abs(trigamma(3.7) - TRIGAMMA_3_7) <= 1e-12
    for x in [0.4, 2.2, 15.0]:
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / x**2) <= 1e-12
    xs = np.array([0.2, 1.0, 9.0])
    assert np.array_equal(trigamma(xs), np.array([trigamma(float(x)) for x in xs]))


def _psi_grid():
    rng = np.random.default_rng(213)
    ten = np.array([np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 11.0), 9.0, 9.5])
    return np.concatenate([np.logspace(-300, 300, 6001), ten, ten - 1e-9,
                           rng.uniform(0.0, 20.0, 2000) + 1e-3,
                           [5e-324, 1e-310, 1e-170, 1.3e154, 1.4e154, 1e300, np.inf]])


@pytest.mark.parametrize("kernel,oracle", [(digamma_batch, digamma_masked),
                                           (trigamma, trigamma_masked)],
                         ids=["digamma", "trigamma"])
def test_psi_kernels_bitwise_match_masked_loop_oracle(kernel, oracle):
    grid = _psi_grid()
    with np.errstate(all="ignore"):  # the oracle warns where inf is the answer
        expected = oracle(grid)
    assert np.array_equal(kernel(grid), expected)
    # shapes: 0-d gives a numpy scalar, 2-d and read-only broadcast views keep their shape
    for x in (1.0, 0.37, 10.0, 123.5):
        value = kernel(x)
        assert type(value) is np.float64 and value == oracle(np.float64(x))
    square = grid[:2000].reshape(40, 50)
    assert np.array_equal(kernel(square), expected[:2000].reshape(40, 50))
    row = np.random.default_rng(214).uniform(0.05, 12.0, 50)
    wide = np.broadcast_to(row, (30, 50))
    assert np.array_equal(kernel(wide), np.broadcast_to(oracle(row), (30, 50)))
    assert kernel(np.empty((0, 3))).shape == (0, 3)


def test_lgamma_bitwise_matches_per_element_lanczos_loop():
    # the vectorized Lanczos sum adds its terms in the loop's order; the grid
    # spans more than one block of the sum's table
    grid = _psi_grid()
    with np.errstate(all="ignore"):  # both overflow to inf or NaN at the far ends
        got, want = lgamma_batch(grid), lgamma_loop(grid)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for x in (1.0, 0.37, 10.0, 123.5):
        assert lgamma_batch(x) == lgamma_loop(x)
    square = grid[2000:4000].reshape(40, 50)
    assert np.array_equal(lgamma_batch(square), lgamma_loop(square))
    row = np.random.default_rng(216).uniform(0.05, 12.0, 50)
    assert np.array_equal(lgamma_batch(np.broadcast_to(row, (30, 50))),
                          np.broadcast_to(lgamma_loop(row), (30, 50)))


@pytest.mark.filterwarnings("error")
def test_psi_extremes_are_exact_without_warnings():
    # 1/x^2 underflows to inf and x^2 overflows to a zero tail: both are the
    # correctly rounded answers, so neither may warn
    assert digamma_batch(1e300) == 690.7755278982137
    assert trigamma(1e-170) == np.inf
    assert digamma_batch(1e-310) == -np.inf
    assert trigamma(1e300) == 1e-300


def test_digamma_allocation_peak_on_broadcast_rows():
    # the recurrence works on one copy of the input and tables of at most
    # 4096 columns; an (iterations, N) table of the whole input would need
    # ~13 MiB here
    shapes = np.broadcast_to(np.random.default_rng(215).uniform(0.1, 5.0, 500), (100, 500))
    digamma_batch(shapes)
    assert peak_mib(lambda: digamma_batch(shapes)) <= 3.0


# ---------------------------------------------------------------------------
# regularized incomplete gamma


def front_times_f(a, x):
    """(series, front * F) from the implicit gradient's series / continued-
    fraction loop, for x > 0: front * F is P(a, x) on the series branch and
    Q = 1 - P on the fraction branch."""
    a, x = (np.ravel(np.asarray(v, dtype=np.float64)) for v in np.broadcast_arrays(a, x))
    series, f, _ = special._incomplete_gamma_terms(a, x)
    return series, np.exp(a * np.log(x) - x - lgamma_batch(a)) * f


def gamma_P(a, x):
    series, front_f = front_times_f(a, x)
    return np.where(series, front_f, 1.0 - front_f)


def test_gamma_P_exponential_case():
    for x in [0.1, 1.0, 5.0]:
        assert abs(gamma_P(1.0, x)[0] - (1.0 - math.exp(-x))) <= 1e-12


def test_gamma_P_endpoints():
    # the loop takes x > 0, so the ends are approached from inside: P is 0
    # to within 1e-12 at a tiny x and 1 to within 1e-12 far in the tail
    for a in [0.3, 1.0, 4.5]:
        assert abs(gamma_P(a, 1e-300)[0]) <= 1e-12
        assert abs(gamma_P(a, 700.0)[0] - 1.0) <= 1e-12
    got = gamma_P(np.array([0.3, 2.0, 2.0]), np.array([700.0, 1e-300, 1.0]))
    assert abs(got[0] - 1.0) <= 1e-12 and abs(got[1]) <= 1e-12 and 0.0 < got[2] < 1.0


def test_gamma_P_against_quadrature():
    # adaptive quadrature of the Gamma(2.5, 1) density over [0, 3]
    val, quad_err = scipy.integrate.quad(
        lambda t: t**1.5 * np.exp(-t) / scipy.special.gamma(2.5), 0.0, 3.0,
        epsabs=1e-13, epsrel=1e-13)
    assert quad_err < 1e-10
    assert abs(gamma_P(2.5, 3.0)[0] - val) <= 1e-10


def test_gamma_P_against_scipy_grid():
    for a in [0.1, 0.7, 1.0, 2.5, 10.0, 80.0]:
        for x in [1e-3, 0.5, 1.0, 3.0, 20.0, 150.0]:
            (series,), (front_f,) = front_times_f(a, x)
            ref = scipy.special.gammainc(a, x) if series else scipy.special.gammaincc(a, x)
            assert abs(front_f - ref) <= 1e-10, (a, x)


def test_gamma_P_batch_matches_scalar():
    # a batch element converges and stops adding terms on its own schedule:
    # it must come out exactly as in a call of its own, on either branch
    rng = np.random.default_rng(264)
    a = np.concatenate([[0.5, 1.0, 3.0, 3.0], np.geomspace(0.1, 50.0, 4000)])
    x = np.concatenate([[0.2, 1.0, 0.5, 9.0],
                        np.exp(rng.uniform(np.log(1e-3), np.log(200.0), 4000))])
    series, f, df = special._incomplete_gamma_terms(a, x)
    picked = np.concatenate([np.arange(4), rng.choice(np.arange(4, a.size), 200, replace=False)])
    assert 0 < series[picked].sum() < picked.size  # both branches are sampled
    for i in picked:
        one = special._incomplete_gamma_terms(a[i:i + 1], x[i:i + 1])
        assert (one[0][0], one[1][0], one[2][0]) == (series[i], f[i], df[i]), (a[i], x[i])


def test_gamma_log_pdf_matches_scipy():
    for a in [0.4, 1.0, 6.0]:
        for x in [0.05, 1.0, 7.5]:
            ref = float(scipy.stats.gamma.logpdf(x, a))
            assert abs(gamma_log_pdf(a, x) - ref) <= 1e-10, (a, x)


# ---------------------------------------------------------------------------
# sampling


def test_gamma_sample_mean_shape3():
    rng = np.random.default_rng(100)
    n = 100_000
    vals = gamma_sample_batch(np.full(n, 3.0), rng)
    se = math.sqrt(3.0 / n)
    assert abs(vals.mean() - 3.0) <= 4 * se


def test_gamma_sample_variance_shape_half():
    rng = np.random.default_rng(101)
    n = 100_000
    vals = gamma_sample_batch(np.full(n, 0.5), rng)
    # var of the sample variance for Gamma(a): (mu4 - sigma^4)/n with
    # mu4 = 3a^2 + 6a, sigma^2 = a
    a = 0.5
    se = math.sqrt((3 * a * a + 6 * a - a * a) / n)
    assert abs(vals.var(ddof=1) - a) <= 4 * se


def test_gamma_sample_fields_and_positivity():
    rng = np.random.default_rng(102)
    for shape in [0.05, 0.5, 1.0, 2.3, 40.0]:
        values = gamma_sample_batch(np.full(200, shape), rng)
        grads = gamma_implicit_grad_batch(shape, values)
        assert values.shape == grads.shape == (200,)
        assert np.all(values > 0.0)
        assert np.all(grads > 0.0)
        u = scipy.special.gammainc(shape, values)
        assert np.all((u > 0.0) & (u < 1.0))


def test_gamma_sample_ks_against_cdf():
    rng = np.random.default_rng(103)
    n = 10_000
    for shape in [0.5, 3.0]:
        vals = np.sort(gamma_sample_batch(np.full(n, shape), rng))
        u = scipy.special.gammainc(shape, vals)
        grid = np.arange(1, n + 1) / n
        ks = float(np.max(np.maximum(grid - u, u - (grid - 1.0 / n))))
        threshold = math.sqrt(-0.5 * math.log(0.01 / 2.0)) / math.sqrt(n)
        assert ks < threshold, shape


def test_gamma_sample_batch_rejects_nan_shape():
    # in a child process, so that a sampler that loops on NaN fails here
    # by timeout instead of hanging the suite
    code = ("import numpy as np\n"
            "from dirichlet_pruning.errors import DomainError\n"
            "from dirichlet_pruning.special import gamma_sample_batch\n"
            "try:\n"
            "    gamma_sample_batch(np.array([2.0, np.nan]), np.random.default_rng(0))\n"
            "except DomainError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "nan" in proc.stdout


def test_gamma_sample_batch_stream_is_pinned():
    # the draws for fixed seeds, hashed: a rewrite of the accept test must
    # accept exactly the same proposals. Shape 0.3 takes the boost branch;
    # 1 + 1e-6 sits at the branch edge
    digest = hashlib.sha256()
    for seed in (11, 12):
        for shape in (0.3, 1.0 + 1e-6, 2.5, 40.0):
            values = gamma_sample_batch(np.full(5000, shape), np.random.default_rng(seed))
            digest.update(values.tobytes())
    assert digest.hexdigest() == \
        "30a04f571ed2d280353afc76ed26591043c69637abf09c115941ae747cf1a04b"


def test_gamma_sample_batch_reproducible_and_valid():
    shapes = np.array([0.3, 1.0, 5.0, 0.8])
    values_a = gamma_sample_batch(shapes, np.random.default_rng(7))
    values_b = gamma_sample_batch(shapes, np.random.default_rng(7))
    grads_a = gamma_implicit_grad_batch(shapes, values_a)
    grads_b = gamma_implicit_grad_batch(shapes, values_b)
    assert np.array_equal(values_a, values_b)
    assert np.array_equal(grads_a, grads_b)
    assert np.all(values_a > 0)
    assert np.all(grads_a > 0)


def _dirichlet_rows():
    """(100, 500) shapes as k = 100 Dirichlet draws of one D = 500 vector
    give them: one row, broadcast."""
    return np.broadcast_to(np.random.default_rng(216).uniform(0.5, 2.0, 500), (100, 500))


def test_gamma_sample_batch_allocation_peak_on_broadcast_rows():
    # d and c formed once per distinct shape, the rounds run in buffers made
    # once: 2.9 MiB, 7.6 times one (100, 500) array. Raveled shapes, per-
    # entry terms and fresh arrays for each step of a round peaked at 6.3
    shapes = _dirichlet_rows()
    assert peak_mib(lambda: gamma_sample_batch(shapes, np.random.default_rng(217))) <= 3.25


# ---------------------------------------------------------------------------
# implicit reparameterization gradient


def _quantile_fd(shape, u, h_scale=1e-4):
    """d/dshape of scipy's Gamma quantile at fixed u, by central differences."""
    h = h_scale * max(1.0, shape)
    quantile = scipy.special.gammaincinv
    return (quantile(shape + h, u) - quantile(shape - h, u)) / (2 * h)


def test_implicit_grad_exponential_median():
    value = math.log(2.0)
    grad = gamma_implicit_grad_batch(1.0, value)
    fd = _quantile_fd(1.0, 0.5)
    assert rel_err(grad, fd) <= 1e-3


def test_implicit_grad_grid_against_quantile_fd():
    for shape in [0.3, 1.0, 3.0, 10.0]:
        for u in np.arange(0.1, 0.95, 0.1):
            value = scipy.special.gammaincinv(shape, float(u))
            grad = gamma_implicit_grad_batch(shape, value)
            fd = _quantile_fd(shape, float(u))
            assert rel_err(grad, fd) <= 1e-3, (shape, u)


def test_implicit_grad_positive_on_random_draws():
    rng = np.random.default_rng(104)
    shapes = np.exp(rng.uniform(np.log(0.05), np.log(50.0), 10_000))
    us = rng.uniform(0.001, 0.999, 10_000)
    values = scipy.special.gammaincinv(shapes, us)
    grads = gamma_implicit_grad_batch(shapes, values)
    assert np.all(grads > 0)


def test_implicit_grad_against_mpmath_shape_derivative():
    # dy/da = -(dP/da) / pdf(y), with dP/da from mpmath.diff of the
    # regularized lower incomplete gamma and the density from mpmath too
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    shapes, values, refs = [], [], []
    for a in [0.05, 0.3, 1.0, 3.0, 10.0, 50.0]:
        for u in [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]:
            y = float(scipy.special.gammaincinv(a, u))
            a_mp, y_mp = mpmath.mpf(a), mpmath.mpf(y)
            dp_da = mpmath.diff(lambda t: mpmath.gammainc(t, 0, y_mp, regularized=True), a_mp)
            pdf = y_mp ** (a_mp - 1) * mpmath.exp(-y_mp) / mpmath.gamma(a_mp)
            shapes.append(a)
            values.append(y)
            refs.append(float(-dp_da / pdf))
    grads = gamma_implicit_grad_batch(np.array(shapes), np.array(values))
    rel = np.abs(grads - np.array(refs)) / np.abs(np.array(refs))
    worst = int(rel.argmax())
    assert rel[worst] <= 1e-10, (shapes[worst], values[worst], rel[worst])


def test_implicit_grad_domain_errors():
    for shape, value in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            gamma_implicit_grad_batch(shape, value)
    with pytest.raises(DomainError, match="nan"):
        gamma_implicit_grad_batch(np.array([1.0, 2.0]), np.array([0.5, math.nan]))


def test_implicit_grad_tail_raises_numeric_error():
    with pytest.raises(NumericError) as e:
        gamma_implicit_grad_batch(1.0, 50_000.0)
    msg = str(e.value)
    assert "1.0" in msg and "50000" in msg


def test_implicit_grad_batch_matches_scalar():
    shapes = np.array([0.4, 2.0, 9.0])
    values = np.array([0.3, 1.5, 8.0])
    got = gamma_implicit_grad_batch(shapes, values)
    ref = np.array([gamma_implicit_grad_batch(float(a), float(v)) for a, v in zip(shapes, values)])
    assert np.allclose(got, ref, rtol=1e-12, atol=0)


def _implicit_grad_every_element(shapes, values):
    """The implicit gradient with psi and lgamma run on every element of the
    broadcast shapes, as the kernel did before it ran them once per
    distinct shape."""
    shapes, values = np.broadcast_arrays(np.asarray(shapes, dtype=np.float64),
                                         np.asarray(values, dtype=np.float64))
    a, y = np.ascontiguousarray(shapes).ravel(), values.ravel()
    assert np.all(gamma_log_pdf(a, y) >= -700.0)
    series, f, df = special._incomplete_gamma_terms(a, y)
    scaled = y * (f * (np.log(y) - digamma_batch(a)) + df)
    return np.where(series, -scaled, scaled).reshape(shapes.shape)


def _broadcast_cases():
    rng = np.random.default_rng(70)
    conc = np.concatenate([rng.uniform(0.05, 1.0, 20), rng.uniform(1.0, 40.0, 20)])
    shapes = np.broadcast_to(conc, (9, conc.size))  # k Dirichlet draws of one vector
    yield shapes, gamma_sample_batch(shapes, rng)
    column = np.broadcast_to(conc[:6, None], (6, 5))  # repeats along the last axis
    yield column, gamma_sample_batch(column, rng)
    plain = rng.uniform(0.1, 20.0, (4, 7))  # nothing repeats
    yield plain, gamma_sample_batch(plain, rng)
    yield conc, np.float64(0.7)  # the values broadcast, the shapes do not
    yield np.float64(2.5), np.float64(1.3)


def test_implicit_grad_once_per_shape_is_bitwise_the_per_element_kernel():
    for shapes, values in _broadcast_cases():
        got = gamma_implicit_grad_batch(shapes, values)
        want = _implicit_grad_every_element(shapes, values)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_implicit_grad_allocation_peak_on_broadcast_rows():
    # the shapes indexed through their broadcast, the density dropped once
    # checked, and each branch of the incomplete-gamma loop run on 8192
    # gathered elements at a time: 2.7 MiB. Raveled shapes and psi, a kept
    # density and whole-branch buffers peaked at 4.9
    shapes = _dirichlet_rows()
    values = gamma_sample_batch(shapes, np.random.default_rng(217))
    assert peak_mib(lambda: gamma_implicit_grad_batch(shapes, values)) <= 3.0


def test_implicit_grad_runs_psi_and_lgamma_on_the_distinct_shapes(monkeypatch):
    seen = {"digamma": [], "lgamma": []}
    digamma, lgamma = special.digamma_batch, special.lgamma_batch
    monkeypatch.setattr(special, "digamma_batch",
                        lambda x: seen["digamma"].append(np.size(x)) or digamma(x))
    monkeypatch.setattr(special, "lgamma_batch",
                        lambda x: seen["lgamma"].append(np.size(x)) or lgamma(x))
    conc = np.random.default_rng(71).uniform(0.3, 5.0, 30)
    dirichlet_sample_batch(conc, 100, np.random.default_rng(72))
    # D = 30 elements per kernel, not k * D = 3000
    assert seen == {"digamma": [30], "lgamma": [30]}
