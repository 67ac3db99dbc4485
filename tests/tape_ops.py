"""Tape ops that only the tests use, built on ``tensor._record``.

The library records just what ``models.forward`` and its loss need. The
tests also need a scalar reduction of any tensor (``tsum(mul(out, c))``
turns an op's output into a loss whose output gradient is ``c``) and, for
the taped posterior-mean oracle in test_switch.py, softplus, addition and
division. Each op follows the library's backward contract: one gradient per
input, ``None`` for an input that needs none. test_tensor.py checks each
against finite differences.
"""

import numpy as np

from dirichlet_pruning.tensor import Tensor, _record


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = (_unbroadcast(-g * a.data / (b.data * b.data), b.shape)
              if b.requires_grad else None)
        return ga, gb

    return _record(out, (a, b), bwd)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    out = Tensor(np.logaddexp(0.0, x.data))
    return _record(out, (x,), lambda g: (g * (1.0 / (1.0 + np.exp(-x.data))),))


def tsum(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))
    return _record(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))
