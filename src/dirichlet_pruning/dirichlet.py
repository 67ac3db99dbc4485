"""Dirichlet distribution over importance switches.

Sampling goes through normalized Gamma draws so callers can push gradients
through the normalization; the KL between two Dirichlets is closed-form.
Concentration vectors are plain float64 arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .special import digamma_batch, gamma_sample_batch, lgamma_batch, trigamma_batch

_INTERIOR_CLAMP = 1e-12
_SIMPLEX_TOL = 1e-9
# Gamma draws are floored at the smallest subnormal to keep them positive, so
# "everything underflowed" shows up as a denormal-scale total, not an exact 0.
_UNDERFLOW_TOTAL = 1e-280


def validate_concentration(conc) -> np.ndarray:
    conc = np.asarray(conc, dtype=np.float64)
    if conc.ndim != 1 or conc.size < 2:
        raise DomainError(f"concentration must be a vector of length >= 2, got shape {conc.shape}")
    if not np.all(conc > 0.0):
        raise DomainError("concentration entries must all be > 0")
    return conc


def validate_simplex(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if np.any(values < 0.0):
        raise DomainError("simplex vector entries must be >= 0")
    if abs(values.sum() - 1.0) > _SIMPLEX_TOL:
        raise DomainError(f"simplex vector sums to {values.sum()}, not 1")
    return values


def dirichlet_mean(conc) -> np.ndarray:
    """Analytic mean: conc / sum(conc)."""
    conc = validate_concentration(conc)
    return conc / conc.sum()


def dirichlet_marginal_std(conc) -> np.ndarray:
    """Per-coordinate standard deviation of the Dirichlet marginals."""
    conc = validate_concentration(conc)
    total = conc.sum()
    var = conc * (total - conc) / (total * total * (total + 1.0))
    return np.sqrt(var)


def dirichlet_sample_batch(conc, k: int, rng):
    """k draws at once: returns (S, Y, G) with rows s = y/sum(y), the raw Gamma
    values y, and the implicit gradients dy/dconcentration, each (k, D)."""
    conc = validate_concentration(conc)
    shapes = np.broadcast_to(conc, (k, conc.size))
    y, g = gamma_sample_batch(shapes, rng, with_grad=True)
    totals = y.sum(axis=1, keepdims=True)
    if np.any(totals < _UNDERFLOW_TOTAL) or not np.all(np.isfinite(totals)):
        raise NumericError(f"Gamma draws underflowed for concentration {conc}")
    return y / totals, y, g


def dirichlet_kl(q_conc, p_conc) -> float:
    """KL( Dir(q_conc) || Dir(p_conc) ), closed form.

    Reduces to the symmetric-prior special case when p_conc is constant.
    """
    q = validate_concentration(q_conc)
    p = validate_concentration(p_conc)
    if q.shape != p.shape:
        raise ShapeError(f"concentration length mismatch: {q.shape} vs {p.shape}")
    # one kernel call per function: the concentrations with their total last
    q_ext = np.append(q, q.sum())
    lg_q = lgamma_batch(q_ext)
    lg_p = lgamma_batch(np.append(p, p.sum()))
    psi_q = digamma_batch(q_ext)
    kl = lg_q[-1] - lg_p[-1]
    kl -= lg_q[:-1].sum()
    kl += lg_p[:-1].sum()
    kl += ((q - p) * (psi_q[:-1] - psi_q[-1])).sum()
    return float(kl)


def dirichlet_kl_grad(q_conc, p_conc) -> np.ndarray:
    """Gradient of dirichlet_kl with respect to q_conc.

    d/dq_j = (q_j - p_j) psi'(q_j) - psi'(sum q) * sum_m (q_m - p_m).
    """
    q = validate_concentration(q_conc)
    p = validate_concentration(p_conc)
    if q.shape != p.shape:
        raise ShapeError(f"concentration length mismatch: {q.shape} vs {p.shape}")
    diff = q - p
    psi1 = trigamma_batch(np.append(q, q.sum()))
    return diff * psi1[:-1] - psi1[-1] * diff.sum()


def _log_normalizer(conc: np.ndarray) -> float:
    lg = lgamma_batch(np.append(conc, conc.sum()))
    return float(lg[:-1].sum()) - float(lg[-1])


def dirichlet_log_pdf(conc, s) -> float:
    """Log density at a strictly interior simplex point.

    Entries are clamped up to 1e-12; a true boundary entry with its
    concentration below 1 has infinite density and raises instead.
    """
    conc = validate_concentration(conc)
    s = np.asarray(s, dtype=np.float64)
    if s.shape != conc.shape:
        raise ShapeError(f"sample shape {s.shape} does not match concentration {conc.shape}")
    if np.any((s < _INTERIOR_CLAMP) & (conc < 1.0)):
        raise NumericError("boundary sample with concentration < 1 has unbounded density")
    s = np.maximum(s, _INTERIOR_CLAMP)
    return float(((conc - 1.0) * np.log(s)).sum()) - _log_normalizer(conc)


def dirichlet_log_pdf_batch(conc, samples: np.ndarray) -> np.ndarray:
    """Log density for each row of ``samples`` (k, D)."""
    conc = validate_concentration(conc)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != conc.size:
        raise ShapeError(f"samples shape {samples.shape} does not match concentration {conc.shape}")
    s = np.maximum(samples, _INTERIOR_CLAMP)
    return np.log(s) @ (conc - 1.0) - _log_normalizer(conc)
