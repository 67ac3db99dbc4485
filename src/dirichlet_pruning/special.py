"""Special functions and Gamma-distribution machinery.

Everything here is scale-1 Gamma: density x^(a-1) e^(-x) / Gamma(a). Each
job has one numpy kernel that works elementwise on arrays: ``lgamma_batch``,
``digamma_batch``, ``trigamma_batch``, ``gamma_regularized_P_batch``,
``gamma_sample_batch``, ``gamma_implicit_grad_batch`` and ``gamma_quantile``.
The scalar names ``lgamma``, ``digamma``, ``trigamma``, ``gamma_regularized_P``
and ``gamma_implicit_grad`` are thin wrappers that call the kernel on one
value. Every kernel rejects NaN and out-of-domain input with a DomainError
that names the offending value.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError

# Lanczos approximation, g = 7, 9 terms; ~1e-14 relative over the positive axis.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_2PI = 0.9189385332046727  # log(2*pi)/2


def _check_domain(fn: str, requirement: str, x: np.ndarray, ok: np.ndarray) -> None:
    """Raise DomainError naming the first entry of x where ``ok`` fails.

    ``ok`` is a comparison such as x > 0, which is False at NaN.
    """
    if not np.all(ok):
        raise DomainError(f"{fn} requires {requirement}, got {x[~ok].flat[0]}")


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    return float(lgamma_batch(x))


def lgamma_batch(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for x > 0, elementwise, by the Lanczos sum."""
    x = np.asarray(x, dtype=np.float64)
    _check_domain("lgamma", "x > 0", x, x > 0.0)
    small = x < 0.5
    xs = np.where(small, 1.0 - x, x)  # reflection keeps the Lanczos sum in its sweet spot
    xm1 = xs - 1.0
    a = np.full_like(xs, _LANCZOS_C[0])
    for i in range(1, 9):
        a += _LANCZOS_C[i] / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    main = _HALF_LOG_2PI + (xm1 + 0.5) * np.log(t) - t + np.log(a)
    if np.any(small):
        with np.errstate(invalid="ignore"):
            refl = np.log(np.pi / np.sin(np.pi * x)) - main
        return np.where(small, refl, main)
    return main


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x), for x > 0."""
    return float(digamma_batch(x))


def digamma_batch(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0, elementwise.

    Recurrence pushes the argument above 10, then the asymptotic series in
    1/x^2 takes over.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_domain("digamma", "x > 0", x, x > 0.0)
    x = x.copy()
    acc = np.zeros_like(x)
    mask = x < 10.0
    while np.any(mask):
        acc[mask] -= 1.0 / x[mask]
        x[mask] += 1.0
        mask = x < 10.0
    inv2 = 1.0 / (x * x)
    # Bernoulli tail: 1/12 - 1/120 z + 1/252 z^2 - 1/240 z^3 + 1/132 z^4 - 691/32760 z^5
    tail = inv2 * (1 / 12.0 - inv2 * (1 / 120.0 - inv2 * (1 / 252.0 - inv2 * (
        1 / 240.0 - inv2 * (1 / 132.0 - inv2 * (691.0 / 32760.0))))))
    return acc + np.log(x) - 0.5 / x - tail


def trigamma(x: float) -> float:
    """psi'(x) for x > 0; needed for the gradient of the Dirichlet KL term."""
    return float(trigamma_batch(x))


def trigamma_batch(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x > 0, elementwise: recurrence above 10, then the
    asymptotic series."""
    x = np.asarray(x, dtype=np.float64)
    _check_domain("trigamma", "x > 0", x, x > 0.0)
    x = x.copy()
    acc = np.zeros_like(x)
    mask = x < 10.0
    while np.any(mask):
        acc[mask] += 1.0 / (x[mask] * x[mask])
        x[mask] += 1.0
        mask = x < 10.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv * (1.0 + inv * (0.5 + inv * (1 / 6.0 - inv2 * (1 / 30.0 - inv2 * (
        1 / 42.0 - inv2 * (1 / 30.0 - inv2 * (5.0 / 66.0)))))))
    return acc + tail


# ---------------------------------------------------------------------------
# regularized incomplete gamma


_P_MAX_ITER = 500
_P_EPS = 1e-15


def gamma_regularized_P(shape: float, x: float) -> float:
    """Lower regularized incomplete gamma P(shape, x), scale 1."""
    return float(gamma_regularized_P_batch(shape, x))


def _incomplete_gamma_terms(a: np.ndarray, x: np.ndarray, with_grad: bool):
    """The one series / continued-fraction loop behind P(a, x) and dP/da.

    ``a`` and ``x`` are flat arrays with x > 0. For x < a + 1 the series
    gives F = sum_n x^n / (a (a+1) ... (a+n)) and P = front * F; otherwise
    the modified Lentz continued fraction gives F with Q = 1 - P = front * F.
    Here front = exp(a log x - x - lgamma(a)). With ``with_grad``, dF/da is
    carried forward-mode through the same recurrence (Moore, AS 187, 1982),
    and each element iterates until both F and dF/da have converged.

    Returns (series, F, dF) with ``series`` the mask of elements on the
    series branch; dF is None without ``with_grad``.
    """
    series = x < a + 1.0
    f = np.empty_like(a)
    df = np.empty_like(a) if with_grad else None

    if np.any(series):
        aa = a[series]
        xx = x[series]
        term = 1.0 / aa
        total = term.copy()
        denom = aa.copy()
        live = np.ones(aa.shape, dtype=bool)
        if with_grad:
            dterm = -term / aa
            dtotal = dterm.copy()
            live_d = live.copy()
        else:
            live_d = np.zeros(aa.shape, dtype=bool)
        for _ in range(_P_MAX_ITER):
            denom += 1.0
            ratio = xx / denom
            if with_grad:
                # t_n = t_(n-1) x/(a+n), so dt_n = x/(a+n) (dt_(n-1) - t_(n-1)/(a+n))
                dterm = ratio * (dterm - term / denom)
                dtotal = np.where(live_d, dtotal + dterm, dtotal)
                live_d &= np.abs(dterm) >= np.abs(dtotal) * _P_EPS
            term *= ratio
            total = np.where(live, total + term, total)
            live &= np.abs(term) >= np.abs(total) * _P_EPS
            if not (live.any() or live_d.any()):
                break
        else:
            raise NumericError("P series failed to converge on a batch element")
        f[series] = total
        if with_grad:
            df[series] = dtotal

    frac = ~series
    if np.any(frac):
        aa = a[frac]
        xx = x[frac]
        tiny = 1e-300
        b = xx + 1.0 - aa
        c = np.full_like(xx, 1.0 / tiny)
        d = np.where(b != 0.0, 1.0 / np.where(b == 0.0, 1.0, b), 1.0 / tiny)
        h = d.copy()
        live = np.ones(aa.shape, dtype=bool)
        if with_grad:
            # every b_i has db/da = -1 and a_i = -i (i - a) has da_i/da = i;
            # c_0 does not depend on a, d_0 = 1/b_0 has dd/da = d_0^2
            dc = np.zeros_like(xx)
            dd = d * d
            dh = dd.copy()
            live_d = live.copy()
        else:
            live_d = np.zeros(aa.shape, dtype=bool)
        for i in range(1, _P_MAX_ITER + 1):
            an = -i * (i - aa)
            b += 2.0
            if with_grad:
                dden = i * d + an * dd - 1.0
                dc = (i - an / c * dc) / c - 1.0
            d = an * d + b
            np.copyto(d, tiny, where=np.abs(d) < tiny)
            c = b + an / c
            np.copyto(c, tiny, where=np.abs(c) < tiny)
            d = 1.0 / d
            delta = d * c
            if with_grad:
                dd = -dden * d * d
                step = dh * (delta - 1.0) + h * (dc * d + c * dd)
                dh = np.where(live_d, dh + step, dh)
                live_d &= np.abs(step) >= np.abs(dh) * _P_EPS
            h = np.where(live, h * delta, h)
            live &= np.abs(delta - 1.0) >= _P_EPS
            if not (live.any() or live_d.any()):
                break
        else:
            raise NumericError("P continued fraction failed to converge on a batch element")
        f[frac] = h
        if with_grad:
            df[frac] = dh

    return series, f, df


def gamma_regularized_P_batch(shape: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(shape, x) elementwise for shape > 0 and x >= 0; shapes broadcast.

    Power series for x < shape + 1, continued fraction (modified Lentz) for
    the complement otherwise. P(shape, 0) = 0 and P(shape, inf) = 1.
    """
    shape = np.asarray(shape, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    shape, x = np.broadcast_arrays(shape, x)
    _check_domain("gamma_regularized_P", "shape > 0", shape, shape > 0.0)
    _check_domain("gamma_regularized_P", "x >= 0", x, x >= 0.0)
    out = np.where(x == np.inf, 1.0, 0.0)
    pos = (x > 0.0) & (x < np.inf)
    if np.any(pos):
        a = shape[pos]
        xx = x[pos]
        series, f, _ = _incomplete_gamma_terms(a, xx, with_grad=False)
        front_f = np.exp(a * np.log(xx) - xx - lgamma_batch(a)) * f
        out[pos] = np.where(series, np.minimum(1.0, front_f), np.maximum(0.0, 1.0 - front_f))
    return out


def gamma_log_pdf(shape, x):
    """log of the scale-1 Gamma density at x > 0, elementwise; shapes
    broadcast. Scalar input gives a scalar."""
    shape = np.asarray(shape, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_domain("gamma_log_pdf", "x > 0", x, x > 0.0)
    return ((shape - 1.0) * np.log(x) - x - lgamma_batch(shape))[()]


# ---------------------------------------------------------------------------
# quantile (inverse CDF)

_QUANTILE_TOL = 1e-11
_QUANTILE_MAX_ITER = 200
_U_CLAMP = 1e-12


def gamma_quantile(shape, u):
    """x such that P(shape, x) = u, elementwise; shapes broadcast.

    Each root is bracketed by doubling, then found by Newton steps that
    fall back to bisection when a step leaves the bracket or the density
    underflows. u is clamped to [1e-12, 1 - 1e-12] before inversion; values
    outside (0, 1) are rejected outright. Scalar input gives a scalar.
    """
    shape, u = np.broadcast_arrays(np.asarray(shape, dtype=np.float64),
                                   np.asarray(u, dtype=np.float64))
    _check_domain("gamma_quantile", "shape > 0", shape, shape > 0.0)
    _check_domain("gamma_quantile", "u in (0, 1)", u, (u > 0.0) & (u < 1.0))
    u = np.clip(u, _U_CLAMP, 1.0 - _U_CLAMP)
    lg = lgamma_batch(shape)

    # bracket [lo, hi] with P(lo) < u <= P(hi)
    lo = np.zeros_like(u)
    hi = np.maximum(shape, 1.0)
    for _ in range(300):
        low = gamma_regularized_P_batch(shape, hi) < u
        if not low.any():
            break
        lo = np.where(low, hi, lo)
        hi = np.where(low, 2.0 * hi, hi)
    else:
        raise NumericError(f"gamma_quantile failed to bracket ({shape[low][0]}, {u[low][0]})")

    # initial guess: small-x expansion for u near 0, else the mean-ish midpoint
    with np.errstate(over="ignore"):
        x = np.exp((np.log(u) + np.log(shape) + lg) / shape)
    fallback = np.where(lo > 0.0, 0.5 * (lo + hi), np.minimum(shape, hi))
    x = np.where((lo < x) & (x < hi), x, fallback)

    live = np.ones(u.shape, dtype=bool)
    err = np.zeros_like(u)
    for _ in range(_QUANTILE_MAX_ITER):
        err[live] = gamma_regularized_P_batch(shape[live], x[live]) - u[live]
        live &= np.abs(err) > _QUANTILE_TOL
        if not live.any():
            return x[()]  # a scalar for scalar input
        hi = np.where(live & (err > 0.0), x, hi)
        lo = np.where(live & (err <= 0.0), x, lo)
        log_pdf = (shape - 1.0) * np.log(x) - x - lg
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x_new = x - err / np.exp(log_pdf)
        newton = (log_pdf >= -700.0) & (lo < x_new) & (x_new < hi)
        x = np.where(live, np.where(newton, x_new, 0.5 * (lo + hi)), x)
    raise NumericError(f"gamma_quantile did not converge for ({shape[live][0]}, {u[live][0]})")


# ---------------------------------------------------------------------------
# sampling


def gamma_sample_batch(shapes: np.ndarray, rng) -> np.ndarray:
    """Draw y ~ Gamma(shape, 1) at each entry of ``shapes`` by Marsaglia-Tsang.

    For shape < 1 the draw is taken at shape + 1 and boosted by U^(1/shape),
    which is exact in distribution. ``gamma_implicit_grad_batch`` gives the
    draws' gradients; it consumes no randomness.
    """
    shapes = np.asarray(shapes, dtype=np.float64)
    _check_domain("gamma_sample", "shape > 0", shapes, shapes > 0.0)
    flat = shapes.ravel()
    small = flat < 1.0
    eff = np.where(small, flat + 1.0, flat)

    d = eff - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    values = np.empty_like(flat)
    pending = np.ones(flat.shape, dtype=bool)
    while pending.any():
        idx = np.nonzero(pending)[0]
        x = rng.standard_normal(idx.size)
        v = 1.0 + c[idx] * x
        ok = v > 0.0
        v = v * v * v
        u = rng.random(idx.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            squeeze = u < 1.0 - 0.0331 * x ** 4
            full = np.log(u) < 0.5 * x * x + d[idx] * (1.0 - v + np.log(np.where(ok, v, 1.0)))
        accept = ok & (squeeze | full)
        take = idx[accept]
        values[take] = d[take] * v[accept]
        pending[take] = False
    if small.any():
        boost = rng.random(int(small.sum())) ** (1.0 / flat[small])
        values[small] *= boost
    values = np.maximum(values, 5e-324)
    return values.reshape(shapes.shape)


# ---------------------------------------------------------------------------
# implicit reparameterization gradient


def gamma_implicit_grad(shape: float, value: float) -> float:
    """d(value)/d(shape) at fixed underlying uniform, for one draw."""
    return float(gamma_implicit_grad_batch(shape, value))


def gamma_implicit_grad_batch(shapes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """d(value)/d(shape) at fixed underlying uniform, by implicit differentiation.

    Differentiating P(shape, y(shape)) = u gives dy/dshape = -(dP/dshape) / pdf(y)
    (Figurnov et al., 2018). dP/dshape is analytic: with P = front * F on the
    series branch and 1 - P = front * F on the continued-fraction branch,
    d(log front)/dshape = log y - psi(shape), and pdf(y) = front / y. The front
    factor cancels, leaving dy/dshape = -/+ y (F (log y - psi(shape)) + dF/dshape).
    Raises NumericError where the density underflows.
    """
    shapes = np.asarray(shapes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    _check_domain("gamma_implicit_grad", "shape > 0", shapes, shapes > 0.0)
    _check_domain("gamma_implicit_grad", "value > 0", values, values > 0.0)
    shapes, values = np.broadcast_arrays(shapes, values)
    log_pdf = gamma_log_pdf(shapes, values)
    if np.any(log_pdf < -700.0):
        bad = np.argwhere(log_pdf < -700.0)[0]
        raise NumericError(
            f"gamma density underflow at shape={shapes[tuple(bad)]}, "
            f"value={values[tuple(bad)]}")
    a = shapes.ravel()
    y = values.ravel()
    series, f, df = _incomplete_gamma_terms(a, y, with_grad=True)
    scaled = y * (f * (np.log(y) - digamma_batch(a)) + df)
    return np.where(series, -scaled, scaled).reshape(shapes.shape)
