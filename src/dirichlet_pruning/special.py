"""Special functions and Gamma-distribution machinery.

Everything here is scale-1 Gamma: density x^(a-1) e^(-x) / Gamma(a). Each
job has exactly one numpy kernel, and it works elementwise on arrays (a
Python float is a 0-d array): ``lgamma_batch``, ``digamma_batch``,
``trigamma_batch``, ``gamma_regularized_P_batch``, ``gamma_log_pdf``,
``gamma_sample_batch`` and ``gamma_implicit_grad_batch``; psi and psi' share
one (``_psi_recurrence``, which the KL calls once for both). There is no
quantile: sampling is by Marsaglia-Tsang, and the implicit gradient needs
only P and its shape derivative. Every kernel rejects NaN and out-of-domain
input with a DomainError that names the offending value.
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


def _rounds_below_ten(v) -> int:
    """How many float64 +1 steps take v to 10 or more."""
    v, rounds = float(v), 0
    while v < 10.0:
        v, rounds = v + 1.0, rounds + 1
    return rounds


def _psi_recurrence(x, want_psi: bool, want_psi1: bool):
    """(psi(x), psi'(x)) for x > 0 (checked by the caller), None for the one
    not wanted: psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2
    below 10, then the asymptotic series. Each step is an in-place ufunc
    with no boolean indexing; ``step`` is 0.0 at or above 10, where 0/x and
    x + 0 change nothing, so an element's float operations do not depend on
    what shares the call. Adding 1 is monotone, so ``step`` is fixed until
    the largest element below 10 gets there."""
    x = np.array(x, dtype=np.float64)  # advanced in place
    psi = np.zeros(x.shape) if want_psi else None
    psi1 = np.zeros(x.shape) if want_psi1 else None
    r = np.empty_like(x)
    step = np.less(x, 10.0, out=np.empty_like(x))
    fixed = _rounds_below_ten(np.max(x, where=x < 10.0, initial=0.0))
    # -inf, inf and a zero tail are the correctly rounded answers where 1/x
    # (x < 5.6e-309), 1/x^2 (x < 7.5e-155) or x^2 (x > 1.3e154) is out of range
    with np.errstate(over="ignore", divide="ignore"):
        for i in range(_rounds_below_ten(np.min(x, initial=np.inf))):
            if i >= fixed:
                np.less(x, 10.0, out=step)
            if want_psi:
                np.divide(step, x, out=r)
                np.subtract(psi, r, out=psi)
            if want_psi1:
                np.multiply(x, x, out=r)
                np.divide(step, r, out=r)
                np.add(psi1, r, out=psi1)
            np.add(x, step, out=x)
        inv2 = 1.0 / (x * x) if want_psi else None
    del r, step  # free the loop buffers before the series allocate theirs
    if want_psi:
        # Bernoulli tail: 1/12 - 1/120 z + 1/252 z^2 - 1/240 z^3 + 1/132 z^4 - 691/32760 z^5
        tail = inv2 * (1 / 12.0 - inv2 * (1 / 120.0 - inv2 * (1 / 252.0 - inv2 * (
            1 / 240.0 - inv2 * (1 / 132.0 - inv2 * (691.0 / 32760.0))))))
        psi = (psi + np.log(x) - 0.5 / x - tail)[()]
    if want_psi1:
        inv = 1.0 / x
        inv2 = inv * inv
        tail = inv * (1.0 + inv * (0.5 + inv * (1 / 6.0 - inv2 * (1 / 30.0 - inv2 * (
            1 / 42.0 - inv2 * (1 / 30.0 - inv2 * (5.0 / 66.0)))))))
        psi1 = (psi1 + tail)[()]
    return psi, psi1


def digamma_batch(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    _check_domain("digamma", "x > 0", x, x > 0.0)
    return _psi_recurrence(x, True, False)[0]


def trigamma_batch(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x > 0, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    _check_domain("trigamma", "x > 0", x, x > 0.0)
    return _psi_recurrence(x, False, True)[1]


# ---------------------------------------------------------------------------
# regularized incomplete gamma


_P_MAX_ITER = 500
_P_EPS = 1e-15


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
