"""The masked-loop psi and psi' kernels, kept as the bitwise oracle for
``special.digamma_batch``, ``special.trigamma_batch`` and the KL gradient.

Each kernel pushes the elements below 10 up by one per round through
boolean gather and scatter, then finishes with the asymptotic series. The
library's in-place recurrence must return exactly the same bits.
"""

import numpy as np

from dirichlet_pruning.dirichlet import validate_concentration


def digamma_masked(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).copy()
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


def trigamma_masked(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).copy()
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


def kl_grad_two_pass(q_conc, p_conc) -> np.ndarray:
    """d KL(Dir(q) || Dir(p)) / dq from its own psi' pass:
    (q_j - p_j) psi'(q_j) - psi'(sum q) * sum_m (q_m - p_m)."""
    q = validate_concentration(q_conc)
    p = validate_concentration(p_conc)
    diff = q - p
    psi1 = trigamma_masked(np.append(q, q.sum()))
    return diff * psi1[:-1] - psi1[-1] * diff.sum()
