"""Dirichlet distribution over importance switches.

Sampling goes through normalized Gamma draws so callers can push gradients
through the normalization; the KL between two Dirichlets is closed-form.
Concentration vectors are plain float64 arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .special import (_psi_recurrence, gamma_implicit_grad_batch, gamma_sample_batch,
                      lgamma_batch)

# Gamma draws are floored at the smallest subnormal to keep them positive, so
# "everything underflowed" shows up as a denormal-scale total, not an exact 0.
_UNDERFLOW_TOTAL = 1e-280


def validate_concentration(conc) -> np.ndarray:
    conc = np.asarray(conc, dtype=np.float64)
    if conc.ndim != 1 or conc.size < 2:
        raise DomainError(f"concentration must be a vector of length >= 2, got shape {conc.shape}")
    if not np.minimum.reduce(conc) > 0.0:  # NaN is no minimum > 0
        raise DomainError("concentration entries must all be > 0")
    return conc


def dirichlet_marginal_std(conc) -> np.ndarray:
    """Per-coordinate standard deviation of the Dirichlet marginals."""
    conc = validate_concentration(conc)
    total = conc.sum()
    var = conc * (total - conc) / (total * total * (total + 1.0))
    return np.sqrt(var)


def dirichlet_sample_batch(conc, k: int, rng):
    """k draws at once: returns (S, Y, G) with rows s = y/sum(y), the raw Gamma
    values y, and the implicit gradients dy/dconcentration, each (k, D).
    Underflowed draws raise NumericError before any gradient is computed."""
    conc = validate_concentration(conc)
    shapes = np.broadcast_to(conc, (k, conc.size))
    y = gamma_sample_batch(shapes, rng)
    totals = y.sum(axis=1, keepdims=True)
    if np.any(totals < _UNDERFLOW_TOTAL) or not np.all(np.isfinite(totals)):
        raise NumericError(f"Gamma draws underflowed for concentration {conc}")
    return y / totals, y, gamma_implicit_grad_batch(shapes, y)


def dirichlet_kl(q_conc, p_conc) -> tuple[float, np.ndarray]:
    """KL( Dir(q_conc) || Dir(p_conc) ) and its gradient in q_conc, closed form:
    d/dq_j = (q_j - p_j) psi'(q_j) - psi'(sum q) * sum_m (q_m - p_m). One lgamma
    call covers both vectors and their totals, one psi/psi' pass q and its total."""
    q = validate_concentration(q_conc)
    p = validate_concentration(p_conc)
    if q.shape != p.shape:
        raise ShapeError(f"concentration length mismatch: {q.shape} vs {p.shape}")
    d = q.size
    # rows (q, sum q) and (p, sum p): one lgamma call covers both, one psi/psi'
    # pass the first, and each pair of sums is one reduce
    ext = np.empty((2, d + 1))
    ext[0, :d] = q
    ext[1, :d] = p
    np.add.reduce(ext[:, :d], axis=1, out=ext[:, d])
    lg = lgamma_batch(ext)
    psi, psi1 = _psi_recurrence(ext[0], True)
    diff = q - p
    lg_sums = np.add.reduce(lg[:, :d], axis=1)
    kl = lg[0, d] - lg[1, d]
    kl -= lg_sums[0]
    kl += lg_sums[1]
    kl += np.add.reduce(diff * (psi[:-1] - psi[-1]))
    return float(kl), diff * psi1[:-1] - psi1[-1] * np.add.reduce(diff)
