"""Gamma and Dirichlet machinery: sampling, densities, KL, implicit gradients.

The sampler is Marsaglia-Tsang with the shape boost for a < 1, so each draw
carries an effective uniform u = P(a, y). Holding u fixed and differentiating
P(a, y(a)) = u gives dy/da = -(dP/da) / pdf(y), a pathwise gradient with no
score-function variance. It costs no randomness, so it is computed after the
draw; the Dirichlet sampler returns it with every draw.
"""

import numpy as np
from scipy import special, stats

from dirichlet_pruning.dirichlet import (
    dirichlet_kl,
    dirichlet_log_pdf_batch,
    dirichlet_sample_batch,
)
from dirichlet_pruning.special import (gamma_implicit_grad_batch,
                                       gamma_regularized_P_batch, gamma_sample_batch,
                                       trigamma_batch)

rng = np.random.default_rng(42)

# Draw gammas at a few shapes and compare moments against theory.
for shape in (0.5, 2.0, 7.5):
    draws = gamma_sample_batch(np.full(20000, shape), rng)
    print(
        f"gamma(a={shape:>3}) sample mean {draws.mean():7.4f} (theory {shape:7.4f})"
        f"  var {draws.var():7.4f} (theory {shape:7.4f})"
    )

# One draw with its implicit gradient, checked against scipy's quantile
# function: the implicit dy/da should match d/da of the quantile at the
# draw's fixed u.
a0, h = 2.3, 1e-4
values = gamma_sample_batch(np.array([a0]), rng)
y, dy_da = float(values[0]), float(gamma_implicit_grad_batch(a0, values)[0])
u = float(gamma_regularized_P_batch(a0, y))
numeric = (special.gammaincinv(a0 + h, u) - special.gammaincinv(a0 - h, u)) / (2 * h)
print(f"\ndraw y={y:.5f} at u={u:.5f}")
print(f"dy/da implicit {dy_da:.6f}  quantile finite-diff {numeric:.6f}")

# Dirichlet draws are normalized gammas; the batch sampler also returns the
# raw gammas and their implicit gradients so gradients can be assembled later.
conc = np.array([4.0, 1.0, 0.5, 2.5])
samples, raw, raw_grads = dirichlet_sample_batch(conc, 50000, rng)
print("\ndirichlet mean  ", np.round(samples.mean(axis=0), 4))
print("theory          ", np.round(conc / conc.sum(), 4))
print("rows sum to one ", bool(np.allclose(samples.sum(axis=1), 1.0)))

# Log densities agree with scipy.
pts = samples[:5]
ours = dirichlet_log_pdf_batch(conc, pts)
ref = np.array([stats.dirichlet.logpdf(p / p.sum(), conc) for p in pts])
print("logpdf max |diff| vs scipy:", float(np.abs(ours - ref).max()))

# Closed-form KL between Dirichlets, checked by Monte Carlo. The same call
# returns the gradient in q, which the switch training uses every step.
q = np.array([3.0, 2.0, 4.0])
p = np.array([1.0, 1.0, 1.0])
kl, kl_grad = dirichlet_kl(q, p)
s, _, _ = dirichlet_sample_batch(q, 200000, rng)
mc = (dirichlet_log_pdf_batch(q, s) - dirichlet_log_pdf_batch(p, s)).mean()
print(f"\nKL(q||p) closed form {kl:.5f}   monte carlo {mc:.5f}")

# The gradient is (q_j - p_j) psi'(q_j) - psi'(sum q) sum_m (q_m - p_m).
psi1 = trigamma_batch(np.append(q, q.sum()))
by_hand = (q - p) * psi1[:-1] - psi1[-1] * (q - p).sum()
print("dKL/dq          ", np.round(kl_grad, 6))
print("from psi' terms ", np.round(by_hand, 6))

# KL to itself is zero and grows as q concentrates away from the prior.
print("KL(q||q) =", dirichlet_kl(q, q)[0])
for scale in (1.0, 5.0, 25.0):
    print(f"KL(scale {scale:>4} * q || uniform) = {dirichlet_kl(scale * q, p)[0]:8.4f}")
