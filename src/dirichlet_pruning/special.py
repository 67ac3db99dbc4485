"""Scalar special functions and Gamma-distribution machinery.

Everything here is scale-1 Gamma: density x^(a-1) e^(-x) / Gamma(a).  The
scalar entry points carry the documented accuracy contracts; the ``*_batch``
variants are vectorized equivalents used on hot paths (sampling-based switch
training, Monte Carlo tests) and agree with the scalar ones to rounding.
The implicit gradient exists only in batch form; ``gamma_implicit_grad`` is
its scalar wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"lgamma requires x > 0, got {x}")
    return _lgamma_pos(float(x))


def _lgamma_pos(x: float) -> float:
    if x < 0.5:
        # reflection keeps the Lanczos sum in its sweet spot
        return math.log(math.pi / math.sin(math.pi * x)) - _lgamma_pos(1.0 - x)
    xm1 = x - 1.0
    a = _LANCZOS_C[0]
    for i in range(1, 9):
        a += _LANCZOS_C[i] / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (xm1 + 0.5) * math.log(t) - t + math.log(a)


def lgamma_batch(x: np.ndarray) -> np.ndarray:
    """Vectorized lgamma; same Lanczos evaluation as the scalar path."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise DomainError("lgamma requires x > 0")
    small = x < 0.5
    xs = np.where(small, 1.0 - x, x)  # evaluate at reflected point where needed
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
    """psi(x) = d/dx log Gamma(x), for x > 0.

    Recurrence pushes the argument above 10, then the asymptotic series in
    1/x^2 takes over.
    """
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    x = float(x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli tail: 1/12 - 1/120 z + 1/252 z^2 - 1/240 z^3 + 1/132 z^4 - 691/32760 z^5
    tail = inv2 * (1 / 12.0 - inv2 * (1 / 120.0 - inv2 * (1 / 252.0 - inv2 * (
        1 / 240.0 - inv2 * (1 / 132.0 - inv2 * (691.0 / 32760.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def digamma_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise DomainError("digamma requires x > 0")
    x = x.copy()
    acc = np.zeros_like(x)
    mask = x < 10.0
    while np.any(mask):
        acc[mask] -= 1.0 / x[mask]
        x[mask] += 1.0
        mask = x < 10.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (1 / 12.0 - inv2 * (1 / 120.0 - inv2 * (1 / 252.0 - inv2 * (
        1 / 240.0 - inv2 * (1 / 132.0 - inv2 * (691.0 / 32760.0))))))
    return acc + np.log(x) - 0.5 / x - tail


def trigamma(x: float) -> float:
    """psi'(x) for x > 0; needed for the gradient of the Dirichlet KL term."""
    if not x > 0.0:
        raise DomainError(f"trigamma requires x > 0, got {x}")
    x = float(x)
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv * (1.0 + inv * (0.5 + inv * (1 / 6.0 - inv2 * (1 / 30.0 - inv2 * (
        1 / 42.0 - inv2 * (1 / 30.0 - inv2 * (5.0 / 66.0)))))))
    return acc + tail


def trigamma_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise DomainError("trigamma requires x > 0")
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
    """Lower regularized incomplete gamma P(shape, x), scale 1.

    Power series for x < shape + 1, continued fraction (modified Lentz) for
    the complement otherwise.
    """
    if not shape > 0.0:
        raise DomainError(f"gamma_regularized_P requires shape > 0, got {shape}")
    if x < 0.0:
        raise DomainError(f"gamma_regularized_P requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    lg = _lgamma_pos(shape)
    log_front = shape * math.log(x) - x - lg
    if x < shape + 1.0:
        # series: P = front * sum_n x^n / (a (a+1) ... (a+n))
        term = 1.0 / shape
        total = term
        denom = shape
        for _ in range(_P_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _P_EPS:
                break
        else:
            raise NumericError(f"P series failed to converge at ({shape}, {x})")
        if log_front + math.log(total) < -745.0:
            return 0.0
        return min(1.0, math.exp(log_front) * total)
    # Lentz continued fraction for Q = 1 - P
    tiny = 1e-300
    b = x + 1.0 - shape
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _P_MAX_ITER + 1):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _P_EPS:
            break
    else:
        raise NumericError(f"P continued fraction failed to converge at ({shape}, {x})")
    if log_front + math.log(abs(h)) < -745.0:
        q = 0.0
    else:
        q = math.exp(log_front) * h
    return max(0.0, 1.0 - q)


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
    """Vectorized P(shape, x); shapes broadcast."""
    shape = np.asarray(shape, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    shape, x = np.broadcast_arrays(shape, x)
    if np.any(shape <= 0.0):
        raise DomainError("gamma_regularized_P requires shape > 0")
    if np.any(x < 0.0):
        raise DomainError("gamma_regularized_P requires x >= 0")
    out = np.zeros(shape.shape)
    pos = x > 0.0
    if np.any(pos):
        a = shape[pos]
        xx = x[pos]
        series, f, _ = _incomplete_gamma_terms(a, xx, with_grad=False)
        front_f = np.exp(a * np.log(xx) - xx - lgamma_batch(a)) * f
        out[pos] = np.where(series, np.minimum(1.0, front_f), np.maximum(0.0, 1.0 - front_f))
    return out


def gamma_log_pdf(shape: float, x: float) -> float:
    """log of the scale-1 Gamma density at x > 0."""
    return (shape - 1.0) * math.log(x) - x - _lgamma_pos(shape)


# ---------------------------------------------------------------------------
# quantile (inverse CDF)

_QUANTILE_TOL = 1e-11
_QUANTILE_MAX_ITER = 200
_U_CLAMP = 1e-12


def gamma_quantile(shape: float, u: float) -> float:
    """x such that P(shape, x) = u, via safeguarded Newton iterations.

    u is clamped to [1e-12, 1 - 1e-12] before inversion; values outside
    (0, 1) are rejected outright.
    """
    if not shape > 0.0:
        raise DomainError(f"gamma_quantile requires shape > 0, got {shape}")
    if not 0.0 < u < 1.0:
        raise DomainError(f"gamma_quantile requires u in (0, 1), got {u}")
    u = min(max(u, _U_CLAMP), 1.0 - _U_CLAMP)
    lg = _lgamma_pos(shape)

    # bracket [lo, hi] with P(lo) < u < P(hi)
    lo = 0.0
    hi = max(shape, 1.0)
    for _ in range(300):
        if gamma_regularized_P(shape, hi) >= u:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NumericError(f"gamma_quantile failed to bracket ({shape}, {u})")

    # initial guess: small-x expansion for u near 0, else the mean-ish midpoint
    x = math.exp((math.log(u) + math.log(shape) + lg) / shape)
    if not (lo < x < hi):
        x = 0.5 * (lo + hi) if lo > 0.0 else min(shape, hi)

    for _ in range(_QUANTILE_MAX_ITER):
        p = gamma_regularized_P(shape, x)
        err = p - u
        if abs(err) <= _QUANTILE_TOL:
            return x
        if err > 0.0:
            hi = x
        else:
            lo = x
        log_pdf = (shape - 1.0) * math.log(x) - x - lg
        if log_pdf < -700.0:
            x = 0.5 * (lo + hi)
            continue
        step = err / math.exp(log_pdf)
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise NumericError(f"gamma_quantile did not converge for ({shape}, {u})")


# ---------------------------------------------------------------------------
# sampling


@dataclass
class GammaSample:
    """One scale-1 Gamma draw with the implicit shape-gradient attached.

    ``u`` is the effective uniform P(shape, value); ``dvalue_dshape`` is the
    derivative of the quantile at that fixed u, computed on access.
    """
    value: float
    shape: float
    u: float

    @property
    def dvalue_dshape(self) -> float:
        return gamma_implicit_grad(self.shape, self.value)


def _marsaglia_tsang(shape: float, rng) -> float:
    """Squeeze sampler for shape >= 1."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.random()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def gamma_sample(shape: float, rng) -> GammaSample:
    """Draw y ~ Gamma(shape, 1) by Marsaglia-Tsang, with gradient bookkeeping.

    For shape < 1 the draw is taken at shape + 1 and boosted by U^(1/shape),
    which is exact in distribution.
    """
    if not shape > 0.0:
        raise DomainError(f"gamma_sample requires shape > 0, got {shape}")
    if shape >= 1.0:
        value = _marsaglia_tsang(shape, rng)
    else:
        boost = rng.random() ** (1.0 / shape)
        value = _marsaglia_tsang(shape + 1.0, rng) * boost
    value = max(value, 5e-324)
    return GammaSample(value=value, shape=shape, u=gamma_regularized_P(shape, value))


def gamma_sample_batch(shapes: np.ndarray, rng, with_grad: bool = False):
    """Vectorized Marsaglia-Tsang draws at the given shape vector.

    Returns values, or (values, dvalue_dshape) when ``with_grad`` is set.
    """
    shapes = np.asarray(shapes, dtype=np.float64)
    if np.any(shapes <= 0.0):
        raise DomainError("gamma_sample requires shape > 0")
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
    values = values.reshape(shapes.shape)
    if not with_grad:
        return values
    return values, gamma_implicit_grad_batch(shapes, values)


# ---------------------------------------------------------------------------
# implicit reparameterization gradient


def gamma_implicit_grad(shape: float, value: float) -> float:
    """d(value)/d(shape) at fixed underlying uniform; scalar form of
    ``gamma_implicit_grad_batch``."""
    if not shape > 0.0:
        raise DomainError(f"gamma_implicit_grad requires shape > 0, got {shape}")
    if not value > 0.0:
        raise DomainError(f"gamma_implicit_grad requires value > 0, got {value}")
    return float(gamma_implicit_grad_batch(np.array([shape]), np.array([value]))[0])


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
    if np.any(shapes <= 0.0) or np.any(values <= 0.0):
        raise DomainError("gamma_implicit_grad requires shape > 0 and value > 0")
    shapes, values = np.broadcast_arrays(shapes, values)
    log_pdf = (shapes - 1.0) * np.log(values) - values - lgamma_batch(shapes)
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
