"""Special functions and Gamma-distribution machinery.

Everything here is scale-1 Gamma: density x^(a-1) e^(-x) / Gamma(a). Each
job has exactly one numpy kernel, and it works elementwise on arrays (a
Python float is a 0-d array): ``lgamma_batch``, ``digamma_batch``,
``gamma_log_pdf``, ``gamma_sample_batch`` and ``gamma_implicit_grad_batch``.
psi and psi' share one recurrence (``_psi_recurrence``, which the KL calls
once for both). There is no quantile and no P: sampling is by
Marsaglia-Tsang, and the implicit gradient needs only the incomplete-gamma
series or fraction and its shape derivative (``_incomplete_gamma_terms``).
Every public kernel rejects NaN and out-of-domain input with a DomainError
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


def _check_positive(fn: str, name: str, x: np.ndarray) -> None:
    """Raise DomainError naming the first entry of x that is not > 0; a NaN
    is not, and its minimum is NaN."""
    if not np.minimum.reduce(x, axis=None, initial=np.inf) > 0.0:
        raise DomainError(f"{fn} requires {name} > 0, got {x[~(x > 0.0)].flat[0]}")


# The Lanczos sum and the psi recurrence lay their terms or rounds along a
# leading axis, form them in a few whole-table ufuncs and add them up one row
# at a time, in the order a loop over terms or rounds adds them. Inputs go
# through in blocks of this many elements, so a table stays under 1 MiB.
_BLOCK = 4096
_LANCZOS_SHIFT = np.arange(1.0, 9.0)[:, None]  # (8, 1): the i of C_i / (x - 1 + i)
_LANCZOS_TAIL = np.array(_LANCZOS_C[1:])[:, None]


def _blocks(n: int, size: int = _BLOCK):
    return (slice(lo, lo + size) for lo in range(0, n, size))


def _lanczos_sum(xm1: np.ndarray) -> np.ndarray:
    """C_0 + C_1 / (xm1 + 1) + ... + C_8 / (xm1 + 8), added left to right."""
    flat = np.ravel(xm1)
    a = np.empty(flat.shape)
    for part in _blocks(flat.size):
        terms = np.divide(_LANCZOS_TAIL, np.add(flat[part], _LANCZOS_SHIFT))
        acc = a[part]
        np.add(_LANCZOS_C[0], terms[0], out=acc)
        for row in terms[1:]:
            acc += row
    return a.reshape(np.shape(xm1))


def lgamma_batch(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for x > 0, elementwise, by the Lanczos sum."""
    x = np.asarray(x, dtype=np.float64)
    _check_positive("lgamma", "x", x)
    small = x < 0.5
    xs = np.where(small, 1.0 - x, x)  # reflection keeps the Lanczos sum in its sweet spot
    xm1 = xs - 1.0
    a = _lanczos_sum(xm1)
    t = xm1 + _LANCZOS_G + 0.5
    main = _HALF_LOG_2PI + (xm1 + 0.5) * np.log(t) - t + np.log(a)
    if small.any():
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


def _psi_rounds(x: np.ndarray, psi: np.ndarray, psi1) -> None:
    """The recurrence's rounds on one flat block, in place: each round takes
    every element below 10 to x + 1, subtracting 1/x from psi and adding
    1/x^2 to psi1 (unless None). x ends at 10 or above."""
    # row i: x after i steps of +1, each rounded as a loop would round it
    xs = np.empty((_rounds_below_ten(x.min()) + 1, x.size))
    xs[0] = x
    xs[1:] = 1.0
    np.add.accumulate(xs, axis=0, out=xs)
    # adding 1 is monotone, so round i moves exactly the elements whose row i
    # is below 10, and its row i then equals the loop's x; every other
    # element adds 0/x = 0. psi adds its terms negated, as a - b = a + -b
    below = xs[:-1] < 10.0
    terms = np.empty((len(below), 1 if psi1 is None else 2, x.size))
    np.divide(below, xs[:-1], out=terms[:, 0])
    np.negative(terms[:, 0], out=terms[:, 0])
    if psi1 is not None:
        np.divide(below, np.multiply(xs[:-1], xs[:-1]), out=terms[:, 1])
    sums = np.zeros(terms.shape[1:])
    for row in terms:
        sums += row
    psi[...] = sums[0]
    if psi1 is not None:
        psi1[...] = sums[1]
    # the loop stops an element at its first row at or above 10, its least
    np.minimum.reduce(xs, axis=0, out=x, where=xs >= 10.0, initial=np.inf)


def _psi_recurrence(x, want_psi1: bool):
    """(psi(x), psi'(x)) for x > 0 (checked by the caller), with None for
    psi' unless ``want_psi1``: psi(x) = psi(x + 1) - 1/x and psi'(x) =
    psi'(x + 1) + 1/x^2 below 10 (``_psi_rounds``), then the asymptotic
    series. An element's float operations do not depend on what shares the
    call."""
    x = np.array(x, dtype=np.float64, order="C")  # advanced in place, through flat views
    psi = np.empty(x.shape)
    psi1 = np.empty(x.shape) if want_psi1 else None
    flat_x, flat_psi = x.reshape(-1), psi.reshape(-1)
    flat_psi1 = psi1.reshape(-1) if want_psi1 else None
    # -inf, inf and a zero tail are the correctly rounded answers where 1/x
    # (x < 5.6e-309), 1/x^2 (x < 7.5e-155) or x^2 (x > 1.3e154) is out of range
    with np.errstate(over="ignore", divide="ignore"):
        for part in _blocks(x.size):
            _psi_rounds(flat_x[part], flat_psi[part],
                        flat_psi1[part] if want_psi1 else None)
        inv2 = 1.0 / (x * x)
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
    _check_positive("digamma", "x", x)
    return _psi_recurrence(x, False)[0]


# ---------------------------------------------------------------------------
# regularized incomplete gamma


_P_MAX_ITER = 500
_P_EPS = 1e-15
_P_BLOCK = 8192  # elements per block of a series or fraction loop (64 KiB per buffer)


def _incomplete_gamma_terms(a: np.ndarray, x: np.ndarray):
    """The one series / continued-fraction loop behind P(a, x) and dP/da.

    ``a`` broadcasts against ``x``, with x > 0: a repeated shape can come in
    once, and the results have x's shape. For x < a + 1 the series gives
    F = sum_n x^n / (a (a+1) ... (a+n)) and P = front * F; otherwise the
    modified Lentz continued fraction gives F with Q = 1 - P = front * F.
    Here front = exp(a log x - x - lgamma(a)). dF/da is carried forward-mode
    through the same recurrence (Moore, AS 187, 1982), and each element
    iterates until both F and dF/da have converged. Each branch runs on the
    elements it gathers, ``_P_BLOCK`` at a time, so its buffers stay under
    1 MiB; a converged element only adds zeros, so its values do not depend
    on what shares its block.

    Returns (series, F, dF) with ``series`` the mask of elements on the
    series branch.
    """
    series = x < a + 1.0
    a = np.broadcast_to(a, np.shape(x))
    f = np.empty(np.shape(x))
    df = np.empty(np.shape(x))
    for mask, branch in ((series, _incomplete_gamma_series),
                         (~series, _incomplete_gamma_fraction)):
        aa, xx = a[mask], x[mask]
        f_m, df_m = np.empty(aa.size), np.empty(aa.size)
        for part in _blocks(aa.size, _P_BLOCK):
            f_m[part], df_m[part] = branch(aa[part], xx[part])
        f[mask], df[mask] = f_m, df_m
    return series, f, df


def _incomplete_gamma_series(aa: np.ndarray, xx: np.ndarray):
    """(F, dF/da) on the series branch, for 1-d ``aa`` and ``xx`` gathered
    by the caller; ``aa`` is overwritten."""
    term = 1.0 / aa
    total = term.copy()
    dterm = -term / aa
    dtotal = dterm.copy()
    denom = aa  # a + n at step n; the shapes are not read again
    live = np.ones(aa.shape, dtype=bool)
    live_d = live.copy()
    # term and total stay finite and > 0, dterm and dtotal < 0. So the
    # tests |term| >= |total| eps and |dterm| >= |dtotal| eps need no abs,
    # and a converged element adds term * False = +-0, which leaves its
    # sum as it is: an in-place add, not a select into a new array. Every
    # step writes into one of three buffers, allocating nothing
    ratio, tmp = np.empty_like(aa), np.empty_like(aa)
    flag = np.empty(aa.shape, dtype=bool)
    for _ in range(_P_MAX_ITER):
        denom += 1.0
        np.divide(xx, denom, out=ratio)
        # t_n = t_(n-1) x/(a+n), so dt_n = x/(a+n) (dt_(n-1) - t_(n-1)/(a+n))
        np.divide(term, denom, out=tmp)
        dterm -= tmp
        dterm *= ratio
        dtotal += np.multiply(dterm, live_d, out=tmp)
        live_d &= np.less_equal(dterm, np.multiply(dtotal, _P_EPS, out=tmp), out=flag)
        term *= ratio
        total += np.multiply(term, live, out=tmp)
        live &= np.greater_equal(term, np.multiply(total, _P_EPS, out=tmp), out=flag)
        if not (live.any() or live_d.any()):
            break
    else:
        raise NumericError("P series failed to converge on a batch element")
    return total, dtotal


def _incomplete_gamma_fraction(aa: np.ndarray, xx: np.ndarray):
    """(F, dF/da) on the continued-fraction branch, for 1-d ``aa`` and
    ``xx`` gathered by the caller."""
    tiny = 1e-300
    b = xx + 1.0 - aa
    c = np.full_like(xx, 1.0 / tiny)
    d = np.where(b != 0.0, 1.0 / np.where(b == 0.0, 1.0, b), 1.0 / tiny)
    h = d.copy()
    live = np.ones(aa.shape, dtype=bool)
    # every b_i has db/da = -1 and a_i = -i (i - a) has da_i/da = i;
    # c_0 does not depend on a, d_0 = 1/b_0 has dd/da = d_0^2
    dc = np.zeros_like(xx)
    dd = d * d
    dh = dd.copy()
    live_d = live.copy()
    # every step writes into these buffers, allocating nothing; each
    # product and sum is the one the plain formulas give, up to operand
    # order, which IEEE products and sums do not depend on
    an, q, dden, delta, dm1, step, tmp = (np.empty_like(xx) for _ in range(7))
    flag = np.empty(aa.shape, dtype=bool)
    for i in range(1, _P_MAX_ITER + 1):
        np.subtract(i, aa, out=an)
        an *= -i  # a_i = -i (i - a)
        b += 2.0
        np.multiply(i, d, out=dden)  # i d + a_i dd - 1
        dden += np.multiply(an, dd, out=tmp)
        dden -= 1.0
        np.divide(an, c, out=q)  # a_i / c, at the old c
        dc *= q  # dc = (i - a_i / c dc) / c - 1
        np.subtract(i, dc, out=dc)
        dc /= c
        dc -= 1.0
        d *= an  # d = 1 / (a_i d + b), kept at least tiny in magnitude
        d += b
        np.copyto(d, tiny, where=np.less(np.abs(d, out=tmp), tiny, out=flag))
        np.add(b, q, out=c)  # c = b + a_i / c, likewise
        np.copyto(c, tiny, where=np.less(np.abs(c, out=tmp), tiny, out=flag))
        np.divide(1.0, d, out=d)
        np.multiply(d, c, out=delta)
        np.negative(dden, out=dd)  # dd = -dden d d
        dd *= d
        dd *= d
        # step = dh (delta - 1) + h (dc d + c dd)
        np.multiply(dc, d, out=step)
        step += np.multiply(c, dd, out=tmp)
        step *= h
        np.subtract(delta, 1.0, out=dm1)
        step += np.multiply(dh, dm1, out=tmp)
        np.add(dh, step, out=dh, where=live_d)
        np.multiply(np.abs(dh, out=tmp), _P_EPS, out=tmp)
        live_d &= np.greater_equal(np.abs(step, out=step), tmp, out=flag)
        np.multiply(h, delta, out=h, where=live)
        live &= np.greater_equal(np.abs(dm1, out=dm1), _P_EPS, out=flag)
        if not (live.any() or live_d.any()):
            break
    else:
        raise NumericError("P continued fraction failed to converge on a batch element")
    return h, dh


def gamma_log_pdf(shape, x):
    """log of the scale-1 Gamma density at x > 0, elementwise; shapes
    broadcast. Scalar input gives a scalar."""
    shape = np.asarray(shape, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_positive("gamma_log_pdf", "x", x)
    return ((shape - 1.0) * np.log(x) - x - lgamma_batch(shape))[()]


# ---------------------------------------------------------------------------
# sampling


def _distinct(shapes: np.ndarray) -> np.ndarray:
    """``shapes`` with every axis it only repeats (stride 0, as a broadcast
    leaves it, e.g. k Dirichlet draws of one D-vector) cut to length 1, so
    an elementwise function of the shapes runs once per distinct shape and
    broadcasts back."""
    return shapes[tuple(slice(0, 1) if st == 0 else slice(None) for st in shapes.strides)]


def gamma_sample_batch(shapes: np.ndarray, rng) -> np.ndarray:
    """Draw y ~ Gamma(shape, 1) at each entry of ``shapes`` by Marsaglia-Tsang.

    For shape < 1 the draw is taken at shape + 1 and boosted by U^(1/shape),
    which is exact in distribution. ``gamma_implicit_grad_batch`` gives the
    draws' gradients; it consumes no randomness.

    The per-shape terms d = shape' - 1/3 and c = 1 / sqrt(9 d) are formed
    once per distinct shape (``_distinct``) and gathered for the entries a
    round still draws, and each round's arithmetic runs in buffers made once.
    """
    shapes = np.asarray(shapes, dtype=np.float64)
    _check_positive("gamma_sample", "shape", shapes)
    distinct = _distinct(shapes)
    small = distinct < 1.0
    d = np.where(small, distinct + 1.0, distinct)
    d -= 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    d, c = np.broadcast_to(d, shapes.shape), np.broadcast_to(c, shapes.shape)
    values = np.empty(shapes.shape)
    pending = np.ones(shapes.shape, dtype=bool)
    n = pending.size
    # a round of n proposals works in the first n entries of these
    tmp, rhs = np.empty(n), np.empty(n)
    ok_buf, squeeze_buf, accept_buf = (np.empty(n, dtype=bool) for _ in range(3))
    while n:
        x = rng.standard_normal(n)
        v = c[pending]
        v *= x
        v += 1.0  # 1 + c x
        ok = np.greater(v, 0.0, out=ok_buf[:n])
        t = np.multiply(v, v, out=tmp[:n])
        np.multiply(t, v, out=v)  # (v v) v
        u = rng.random(n)
        x2 = np.multiply(x, x, out=x)  # x^4 as (x*x)*(x*x): the generic pow was a third of the call
        with np.errstate(invalid="ignore", divide="ignore"):
            np.multiply(x2, x2, out=t)  # squeeze: u < 1 - 0.0331 x^4
            t *= 0.0331
            np.subtract(1.0, t, out=t)
            squeeze = np.less(u, t, out=squeeze_buf[:n])
            t.fill(1.0)  # full: log u < x^2 / 2 + d (1 - v + log v), v = 1 where not ok
            np.copyto(t, v, where=ok)
            np.log(t, out=t)
            r = np.subtract(1.0, v, out=rhs[:n])
            r += t
            dv = d[pending]
            r *= dv
            np.multiply(x2, 0.5, out=t)
            t += r
            np.log(u, out=u)
            accept = np.less(u, t, out=accept_buf[:n])
        accept |= squeeze
        accept &= ok
        # every pending entry takes d v; one still pending is written again
        # by the round that accepts it
        dv *= v
        values[pending] = dv
        pending[pending] = np.logical_not(accept, out=accept)
        n = np.count_nonzero(pending)
    if small.any():
        small = np.broadcast_to(small, shapes.shape)
        boost = rng.random(np.count_nonzero(small)) ** (1.0 / shapes[small])
        values[small] *= boost
    return np.maximum(values, 5e-324, out=values)


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
    _check_positive("gamma_implicit_grad", "shape", shapes)
    _check_positive("gamma_implicit_grad", "value", values)
    shapes, values = np.broadcast_arrays(shapes, values)
    # psi and lgamma are elementwise, so they run once per distinct shape,
    # and the shapes are indexed through their broadcast, never copied
    distinct = _distinct(shapes)
    low = gamma_log_pdf(distinct, values) < -700.0  # the density is not kept
    if np.any(low):
        bad = np.argwhere(low)[0]
        raise NumericError(
            f"gamma density underflow at shape={shapes[tuple(bad)]}, "
            f"value={values[tuple(bad)]}")
    series, grad, df = _incomplete_gamma_terms(distinct, values)
    # grad = F, then F (log y - psi) + dF, then y times that, negated on the series branch
    log_y = np.log(values)
    log_y -= digamma_batch(distinct)
    grad *= log_y
    grad += df
    grad *= values
    return np.negative(grad, out=grad, where=series)
