"""The one-buffer oracle for ``synthetic.gen_synthetic``.

``one_buffer_synthetic`` draws from the rng in the generator's order and
builds the whole (n, d_h) hidden layer in one product: the formula in its
plainest form. The row-block generator must give the same x and y exactly,
and the same w2 and b2 up to the rounding of the block-wise products
(test_harness.py).
"""

import numpy as np

from dirichlet_pruning.synthetic import make_true_switch


def one_buffer_synthetic(d_x, d_h, n, rng, d_out=2):
    """(true_switch, w1, b1, w2, b2, x, y) from one (n, d_h) hidden buffer."""
    true_switch = make_true_switch(d_h, rng)
    w1 = rng.standard_normal((d_x, d_h)) / np.sqrt(d_x)
    b1 = 0.1 * rng.standard_normal(d_h)
    w2 = rng.standard_normal((d_h, d_out)) / np.sqrt(d_h)
    b2 = np.zeros(d_out)
    x = rng.standard_normal((n, d_x))
    h = np.maximum(true_switch * (x @ w1 + b1), 0.0)
    logits = h @ w2
    spread = logits.std(axis=0).mean()
    if spread > 0.0:
        w2 = w2 * (3.0 / spread)
        logits = h @ w2
    if d_out == 2:
        b2[1] -= np.median(logits[:, 1] - logits[:, 0])
    y = (h @ w2 + b2).argmax(axis=1).astype(np.int64)
    return true_switch, w1, b1, w2, b2, x, y
