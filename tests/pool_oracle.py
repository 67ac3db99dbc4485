"""The general max-pool, any window and stride, kept as the reference for
``tensor.maxpool2d`` and the pool inside ``tensor.conv2d``.

The library pools only in k x k windows at stride k that tile their input,
in row blocks on a tap-major copy (``tensor._pool_tiles``). This reference
takes each tap as a strided view of the whole input, keeps a running
maximum, and routes the gradient by a scatter over the taps, so it shares
no kernel with the code it checks. On tiling windows both must give the
same values and gradients bit for bit; the tests check this reference
itself against a plain loop on overlapping and non-tiling windows too.
"""

import numpy as np

from dirichlet_pruning.errors import ContractError, ShapeError
from dirichlet_pruning.tensor import _TAPES, Tensor, _output, _record


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Max pooling over k x k windows with the given stride (NCHW).

    The forward is a running maximum over the k*k strided taps. The backward
    routes each window's gradient to its first maximum in row-major window
    order, as argmax would pick it. A recorded forward finds those maxima
    right away, as one boolean mask per tap of the output's shape, and its
    backward keeps only the masks and the shapes: not the input, whose array
    is freed as soon as nothing else holds it, nor the output. A pool whose
    windows tile the output of the conv right before it (every LeNet pool)
    runs inside that conv instead (``conv2d(..., pool=k)``), which never
    makes the conv's whole output; ``models.forward`` picks that op.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d needs NCHW input, got {x.shape}")
    if k < 1 or stride < 1:
        raise ContractError(f"pool window and stride must be >= 1, got k={k}, stride={stride}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"pool window {k} larger than input {x.shape}")
    h_out = (h - k) // stride + 1
    w_out = (w - k) // stride + 1

    def tap(a, t):
        """The view of a (N, C, H, W) array that tap t of every window reads."""
        i, j = divmod(t, k)
        return a[:, :, i:i + stride * (h_out - 1) + 1:stride, j:j + stride * (w_out - 1) + 1:stride]

    best = tap(x.data, 0).copy()
    for t in range(1, k * k):
        np.maximum(best, tap(x.data, t), out=best)
    if not (_TAPES and x.requires_grad):  # exactly when _record records
        return _output(best)
    free = np.ones(best.shape, dtype=bool)
    first = []
    for t in range(k * k):
        hit = tap(x.data, t) == best
        hit &= free
        free ^= hit
        first.append(hit)

    def bwd(g):
        gx = np.zeros((n, c, h, w))
        # each tap adds np.where(mask, g, 0.0), not g * mask: an inf or NaN
        # gradient then reaches only the window's maximum, as a scatter
        # would send it. As in relu, the select is an AND of g's bits with
        # an all-ones or all-zeros word, in one buffer that every tap reuses
        # (np.add(..., where=mask) runs a masked loop, 3x slower). Last tap
        # first: an input shared by overlapping windows then sums its
        # gradients in window order, exactly as a scatter over windows
        bits, keep = g.view(np.int64), np.empty(g.shape, dtype=np.int64)
        for t in reversed(range(k * k)):
            np.negative(first[t], out=keep, dtype=np.int64)
            tap(gx, t)[...] += np.bitwise_and(bits, keep, out=keep).view(np.float64)
        return (gx,)

    return _record(_output(best), (x,), bwd)
