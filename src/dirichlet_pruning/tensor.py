"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The primitive set is exactly what the rest of the package needs: matmul,
conv2d (im2col), elementwise arithmetic, relu, softplus, per-channel
broadcast ops, max-pooling, reshape, reductions and softmax cross-entropy.
Ops record onto the innermost active ``Tape``; ``backward`` replays the
tape in reverse insertion order and then clears it.

Tensors are never mutated in place by ops; gradients accumulate additively
into ``.grad`` on leaves (and on tensors with ``retain_grad`` set).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class _Node:
    """One recorded op: its output, inputs and a closure computing input grads."""

    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: "Tensor", inputs: Sequence["Tensor"],
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.output = output
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


class Tape:
    """Append-only op record; topological order equals insertion order."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def clear(self) -> None:
        """Drop all nodes, freeing saved activations."""
        self._nodes.clear()


class Tensor:
    """n-d array of float64 in row-major order, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "retain_grad", "_tape", "_recorded")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.retain_grad = False
        self._tape: Optional[Tape] = None
        self._recorded = False  # True iff produced by a recorded op

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants are lifted to untracked tensors
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return mul(self, _lift(-1.0))

    def __matmul__(self, other):
        return matmul(self, _lift(other))


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        out._recorded = True
        tape._nodes.append(_Node(out, inputs, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dx into ``.grad`` of every tracked leaf reachable from loss.

    ``loss`` must be a scalar produced on a live tape; traversal is strict
    reverse insertion order, so every node's output gradient is complete by
    the time the node is visited. The sweep consumes the tape: clearing it
    breaks the output -> tape -> node -> output cycle, so saved activations
    are freed at once, not by a later cyclic GC pass. A second backward on
    the same tape raises ContractError.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        if loss.requires_grad and not loss._recorded:
            # a bare leaf: d(leaf)/d(leaf) = 1
            _accumulate_leaf(loss, np.ones_like(loss.data))
            return
        raise ContractError("loss is not attached to a live tape")
    if not tape._nodes:
        raise ContractError("the loss's tape was already consumed by backward")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape._nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        holders.pop(id(node.output), None)
        if node.output.retain_grad:
            _accumulate_leaf(node.output, g_out)
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                holders[key] = t
    tape.clear()
    for key, t in holders.items():
        if not t._recorded:  # leaves only; recorded orphans lie on other branches
            _accumulate_leaf(t, grads[key])


def _accumulate_leaf(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0
    return _record(out, (x,), lambda g: (g * mask,))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    out = Tensor(np.logaddexp(0.0, x.data))
    sig = 1.0 / (1.0 + np.exp(-x.data))
    return _record(out, (x,), lambda g: (g * sig,))


def tsum(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))
    return _record(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(np.asarray(x.data.mean()))
    return _record(out, (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(old),))


def flatten_batch(x: Tensor) -> Tensor:
    """(N, ...) -> (N, prod(...))."""
    return reshape(x, (x.shape[0], -1))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), bwd)


def broadcast_mul_channels(h: Tensor, s: Tensor) -> Tensor:
    """Multiply every element of channel j (axis 1 of h, or axis 1 of an (N,C)
    matrix) by s[j]."""
    if s.data.ndim != 1:
        raise ShapeError(f"channel scale must be 1-d, got {s.shape}")
    if h.data.ndim < 2 or h.shape[1] != s.shape[0]:
        raise ShapeError(f"channel count mismatch: h {h.shape} vs s {s.shape}")
    view = s.data.reshape((1, s.shape[0]) + (1,) * (h.data.ndim - 2))
    out = Tensor(h.data * view)

    def bwd(g):
        axes = (0,) + tuple(range(2, h.data.ndim))
        return g * view, (g * h.data).sum(axis=axes)

    return _record(out, (h, s), bwd)


def broadcast_add_channels(h: Tensor, b: Tensor) -> Tensor:
    """Add b[j] to every element of channel j."""
    if b.data.ndim != 1:
        raise ShapeError(f"channel shift must be 1-d, got {b.shape}")
    if h.data.ndim < 2 or h.shape[1] != b.shape[0]:
        raise ShapeError(f"channel count mismatch: h {h.shape} vs b {b.shape}")
    view = b.data.reshape((1, b.shape[0]) + (1,) * (h.data.ndim - 2))
    out = Tensor(h.data + view)

    def bwd(g):
        axes = (0,) + tuple(range(2, h.data.ndim))
        return g, g.sum(axis=axes)

    return _record(out, (h, b), bwd)


# ---------------------------------------------------------------------------
# convolution / pooling


def _conv_geometry(x_shape, k_shape, stride, padding):
    n, c_in, h, w = x_shape
    c_out, kc, kh, kw = k_shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x_shape} vs kernel {k_shape}")
    if stride < 1:
        raise ContractError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ContractError(f"padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel {k_shape} larger than padded input {(n, c_in, hp, wp)}")
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    return n, c_in, c_out, kh, kw, h_out, w_out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, h_out: int, w_out: int):
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride][:, :, :h_out, :w_out]
    # (N, C, H', W', kh, kw) -> (N*H'*W', C*kh*kw)
    n, c = xp.shape[0], xp.shape[1]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, c * kh * kw)
    return np.ascontiguousarray(cols)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 2-d cross-correlation by im2col, NCHW layout, no kernel flip.

    The im2col matrix is kept for the kernel gradient.
    """
    n, c_in, c_out, kh, kw, h_out, w_out = _conv_geometry(x.shape, kernel.shape, stride, padding)
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(xp, kh, kw, stride, h_out, w_out)
    rows = cols @ kernel.data.reshape(c_out, -1).T  # one row per output pixel
    out = Tensor(rows.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2))
    h, w = x.shape[2], x.shape[3]

    def bwd(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, c_out)
        grad_k = (g2.T @ cols).reshape(kernel.shape)
        grad_cols = g2 @ kernel.data.reshape(c_out, -1)
        gc = grad_cols.reshape(n, h_out, w_out, c_in, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        gxp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += gc[:, :, i, j]
        if padding:
            gx = gxp[:, :, padding:-padding, padding:-padding]
        else:
            gx = gxp
        return gx, grad_k

    return _record(out, (x, kernel), bwd)


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Max pooling over k x k windows with the given stride (NCHW)."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d needs NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"pool window {k} larger than input {x.shape}")
    h_out = (h - k) // stride + 1
    w_out = (w - k) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride][:, :, :h_out, :w_out]
    flat = windows.reshape(n, c, h_out, w_out, k * k)
    arg = flat.argmax(axis=-1)
    out = Tensor(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])

    def bwd(g):
        di, dj = np.divmod(arg, k)
        oh = np.arange(h_out)[None, None, :, None] * stride
        ow = np.arange(w_out)[None, None, None, :] * stride
        rows = oh + di
        cols_ = ow + dj
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        idx = ((nn * c + cc) * h + rows) * w + cols_
        gx = np.zeros(n * c * h * w)
        np.add.at(gx, idx.ravel(), g.ravel())
        return (gx.reshape(n, c, h, w),)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-shifted for stability."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label out of range [0, {k})")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    out = Tensor(np.asarray(-log_probs[np.arange(n), labels].mean()))
    probs = ez / sez

    def bwd(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    return _record(out, (logits,), bwd)
