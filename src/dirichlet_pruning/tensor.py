"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The primitive set is exactly what ``models.forward`` and its loss need:
matmul and conv2d (im2col, zero padding), each with an optional bias added
inside the op, relu, the switch fold ``scale_input_channels``, max-pooling
in k x k windows that tile the input (alone, or inside conv2d), reshape
(behind ``flatten_batch``) and softmax cross-entropy, which is the only
reduction to a scalar loss. There is no elementwise arithmetic between
tensors and no operator overloading.
Ops record onto the innermost active ``Tape``; ``backward`` replays the
tape in reverse insertion order, popping each node as it runs, so a node's
saved arrays are freed as soon as its gradient is taken.

What a node keeps: its backward closure, and for each recorded input a
route, which is the input's slot when a recorded op on the same tape made
it and the Tensor itself only when it is a leaf that needs a gradient.
``_record`` gives each recorded Tensor its slot, the index of its node on
its tape; backward routes gradients by slot, never by id(), since an
intermediate Tensor dies as soon as the forward drops it and its id can
then be handed to a new one. So an activation lives only while the forward
or some closure holds its array.

Backward contract: a node's ``backward_fn`` returns one gradient per
recorded input, and ``None`` for an input whose ``requires_grad`` is False;
it computes nothing for that input. Each gradient is a fresh array or a
view of g, so a leaf takes its sum as it is, with no copy. Work that only a
backward pass reads (ReLU masks, first-maximum masks, softmax probabilities)
is kept or built only when the op is recorded, so an untaped or frozen
forward pays for none of it. conv2d keeps no im2col matrix at all: it works
in row blocks of bounded size and its backward rebuilds each block's
columns (im2col, or a kw-only lowering) from the input, which its closure
holds. Both pools run in row blocks on one kernel (``_pool_tiles``) and
keep neither their input nor their output. conv2d with ``pool`` pools each
row block of its output while the block is in cache and its backward
rebuilds each block's output gradient from the pooled one, so LeNet's
largest activation, conv1's output, and pool1's input gradient never exist
whole.

Tensors are never mutated in place by ops; gradients accumulate additively
into ``.grad`` on leaves. By default every leaf takes its gradient when the
sweep ends. ``backward(loss, on_leaf=f)`` hands each leaf over earlier: the
leaf takes its gradient, and f is called with it, right after the sweep has
run the earliest recorded node that routes to it, the last node that can
add to it. That node and every later one have then run their backward, and
no earlier node takes the leaf as an input, so f may write the leaf's array
in place and drop its gradient while the sweep goes on. That is the
invariant an in-sweep parameter step relies on: a parameter buffer is
written only after every recorded op that read it, or a view of it, has run
its backward. ``models.train_model`` steps LeNet's fc weights this way, so
their gradients never wait for the conv backward to finish.

Cost: at the tens of rows of the synthetic MLP's steps, an op's time is
mostly fixed per-call overhead of about 1 us per numpy call, not
arithmetic, so each op makes as few calls as it can. An op's result is
wrapped without Tensor's conversion (``_output``); recording routes the
inputs in one plain loop, and backward looks each route up in one dict.
relu's backward selects with an AND of bit patterns, because np.where
branches per element and mispredicts on each step's fresh mask (about 25 us
against 9 us for a 50 x 64 batch). softmax_cross_entropy takes the
log-probabilities at the labels only, and its gather checks the top of the
label range.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_TAPES: list = []  # the open tapes, innermost last; nothing here starts a thread


class _Node:
    """One recorded op: its closure and where each gradient it returns goes.

    ``routes`` has one entry per recorded input: that input's slot when a
    recorded op on the same tape made it, the Tensor itself when it is a leaf
    that needs a gradient, else None (the gradient is dropped). The node holds
    no intermediate Tensor, so an activation lives only while the forward or
    some backward closure holds its array.
    """

    __slots__ = ("routes", "backward_fn")

    def __init__(self, routes: tuple,
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.routes = routes
        self.backward_fn = backward_fn


class Tape:
    """Append-only op record; topological order equals insertion order. The
    node at index i made the Tensor whose slot is i."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self._nodes)


class Tensor:
    """n-d array of float64 in row-major order, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_recorded", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[Tape] = None
        self._recorded = False  # True iff produced by a recorded op
        # _slot, set only by _record: this Tensor's node index on _tape

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _output(data: np.ndarray) -> Tensor:
    """An untracked Tensor of an op's fresh C-contiguous float64 result, made
    without Tensor.__init__'s conversion."""
    out = object.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = out._tape = None
    out._recorded = False
    return out


def _lift(x) -> Tensor:
    """x itself if it is a Tensor, else an untracked Tensor of it."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    """Put ``out`` on the innermost open tape if any of ``inputs`` needs a
    gradient; ``inputs`` is the tuple ``backward_fn`` returns gradients for.
    The node keeps each input's route (see ``_Node``), not the input."""
    if _TAPES:
        tape = _TAPES[-1]
        routes, needed = (), False
        for t in inputs:  # one plain loop: a comprehension is one more call
            if t.requires_grad:
                needed = True
                routes += (t._slot if t._tape is tape else None if t._recorded else t,)
            else:
                routes += (None,)
        if needed:
            nodes = tape._nodes
            out.requires_grad = True
            out._tape = tape
            out._recorded = True
            out._slot = len(nodes)
            nodes.append(_Node(routes, backward_fn))
    return out


def backward(loss: Tensor,
             on_leaf: Optional[Callable[[Tensor], None]] = None) -> None:
    """Accumulate d(loss)/dx into ``.grad`` of every tracked leaf reachable from loss.

    ``loss`` must be a scalar produced on a live tape; traversal is strict
    reverse insertion order, so every node's output gradient is complete by
    the time the node is visited. The sweep consumes the tape: each node is
    popped before its backward runs, which breaks the Tensor -> tape -> node
    -> closure -> Tensor cycle of a closure holding a recorded input node by
    node, so a node's saved arrays are freed as soon as it is done, not at
    the end of the sweep or by a later cyclic GC pass. A second backward on
    the same tape raises ContractError.

    A leaf takes the sum of its gradients from this sweep as it is, with no
    copy: a backward_fn returns fresh arrays or views of its g, which nothing
    else holds once the sweep ends. Without ``on_leaf`` every leaf takes its
    sum after the sweep. With it, a leaf takes its sum as soon as the sweep
    has run the earliest recorded node that routes to it, the last node that
    can add to it, and ``on_leaf(leaf)`` is called right then, once per leaf
    the sweep reached. Every node that read the leaf's array has run its
    backward by then, so the callback may write that array in place (a
    momentum step) and drop ``.grad``, which frees the gradient before the
    sweep goes on. A leaf that no path from the loss reaches is not handed
    over.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        if loss.requires_grad and not loss._recorded:
            # a bare leaf: d(leaf)/d(leaf) = 1
            _accumulate_leaf(loss, np.array(1.0).reshape(loss.data.shape))
            if on_leaf is not None:
                on_leaf(loss)
            return
        raise ContractError("loss is not attached to a live tape")
    nodes = tape._nodes
    if not nodes:
        raise ContractError("the loss's tape was already consumed by backward")

    # the leaves each slot's node is the last in the sweep to route to: the
    # first node in insertion order that routes to a leaf
    last = {}
    if on_leaf is not None:
        seen = set()
        for slot, node in enumerate(nodes):
            for key in node.routes:
                if isinstance(key, Tensor) and key not in seen:
                    seen.add(key)
                    last.setdefault(slot, []).append(key)
    # keyed by slot for a recorded Tensor and by the Tensor itself for a leaf
    grads = {loss._slot: np.array(1.0).reshape(loss.data.shape)}
    while nodes:
        node = nodes.pop()
        slot = len(nodes)  # the popped node's
        g_out = grads.pop(slot, None)
        if g_out is not None:
            for key, g in zip(node.routes, node.backward_fn(g_out)):
                if g is None or key is None:
                    continue
                prev = grads.get(key)
                grads[key] = g if prev is None else prev + g
        for t in last.pop(slot, ()):
            g = grads.pop(t, None)
            if g is not None:
                _accumulate_leaf(t, g)
                on_leaf(t)
    # every slot was popped with its node: the leaves are left, first seen first
    for t, g in grads.items():
        _accumulate_leaf(t, g)


def _accumulate_leaf(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise and shape ops


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        # g where out > 0 (exactly where x > 0), else +0.0, even for an inf or
        # NaN g: np.where(out > 0, g, 0.0), computed as an AND of g's bits with
        # an all-ones or all-zeros word, which has no data-dependent branch
        keep = (out > 0.0).astype(np.int64)
        np.negative(keep, out=keep)
        return (np.bitwise_and(g.view(np.int64), keep, out=keep).view(np.float64),)

    return _record(_output(out), (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return _record(_output(x.data.reshape(shape)), (x,), lambda g: (g.reshape(old),))


def flatten_batch(x: Tensor) -> Tensor:
    """(N, ...) -> (N, prod(...))."""
    return reshape(x, (x.shape[0], -1))


# ---------------------------------------------------------------------------
# linear algebra


def _check_bias(bias, width: int, what: str) -> None:
    if bias.data.ndim != 1 or bias.shape[0] != width:
        raise ShapeError(f"{what} bias must be ({width},), got {bias.shape}")


def matmul(a: Tensor, b: Tensor, *, bias: Optional[Tensor] = None) -> Tensor:
    """a @ b, plus bias[j] on every row's column j when a bias is given.

    The bias is added in place to the fresh product, so no second (N, d)
    array is made; its gradient is g summed over the rows. The backward
    returns one gradient per recorded input: (a, b), or (a, b, bias).
    """
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    prod = ad @ bd
    if bias is None:
        inputs = (a, b)
    else:
        _check_bias(bias, bd.shape[1], "matmul")
        prod += bias.data
        inputs = (a, b, bias)

    def bwd(g):
        grads = (g @ bd.T if a.requires_grad else None,
                 ad.T @ g if b.requires_grad else None)
        if bias is None:
            return grads
        return grads + (np.add.reduce(g, axis=0) if bias.requires_grad else None,)

    return _record(_output(prod), inputs, bwd)


# scale_input_channels' backward contracts an fc weight's gradient with the
# weight in chunks of channel groups whose product holds at most this many
# values (512 KiB of float64)
_ROW_GRAD_VALUES = 2 ** 16


def scale_input_channels(w: Tensor, rows: Tensor) -> Tensor:
    """The weight ``w`` once per row of ``rows`` (c, C), or of a 1-d switch
    (C,), each copy with its C input channels scaled by its row, side by
    side on the output axis: a conv kernel (c * c_out, C, kh, kw), or an fc
    weight (d_in, c * d_out) whose d_in rows form C equal groups, one per
    channel of the flattened activation.

    Only ``rows`` takes a gradient: each copy's block of g contracted with
    ``w`` over all but the input channel, for an fc weight a few channel
    groups at a time, at most ``_ROW_GRAD_VALUES`` values (one group where a
    group holds more), each channel's sum the whole product's bit for bit.
    A tracked ``w`` raises ContractError: its gradient would be dropped.
    """
    wd, rd = w.data, rows.data
    if w.requires_grad:
        raise ContractError(f"scale_input_channels drops a tracked weight's gradient {w.shape}")
    if rd.ndim not in (1, 2):
        raise ShapeError(f"channel scales must be (C,) or (c, C), got {rows.shape}")
    table = rd[None] if rd.ndim == 1 else rd
    c, width = table.shape
    if not (wd.ndim == 4 and wd.shape[1] == width
            or wd.ndim == 2 and width and wd.shape[0] % width == 0):
        raise ShapeError(f"{width} channel scales do not fit weight {w.shape}")
    if wd.ndim == 4:
        out = (table[:, None, :, None, None] * wd).reshape((c * wd.shape[0],) + wd.shape[1:])
    else:
        d_in, d_out = wd.shape
        out = np.empty((width, d_in // width, c, d_out))
        # written through a (.., d_out, c) view, so the inner loop runs over the
        # c copies, not over d_out, which is 2 for the MLP's logits
        np.multiply(wd.reshape(width, -1, d_out, 1), table.T.reshape(width, 1, 1, c),
                    out=out.transpose(0, 1, 3, 2))
        out = out.reshape(d_in, c * d_out)

    def bwd(g):
        if wd.ndim == 4:
            grad = np.add.reduce(g.reshape((c,) + wd.shape) * wd, axis=(1, 3, 4))
            return (grad.reshape(rd.shape),)
        g, groups = g.reshape(width, -1, c, d_out), wd.reshape(width, -1, 1, d_out)
        grad = np.empty((width, c))
        per = max(1, _ROW_GRAD_VALUES // max(1, g[0].size))  # channel groups a chunk
        for lo in range(0, width, per):
            np.add.reduce(g[lo:lo + per] * groups[lo:lo + per], axis=(1, 3),
                          out=grad[lo:lo + per])
        return (grad.T.reshape(rd.shape),)

    return _record(_output(out), (rows,), bwd)


# ---------------------------------------------------------------------------
# convolution / pooling


# A row block of conv2d, with or without its pool, or of maxpool2d keeps
# its buffers within this many values: 2 MiB of float64, about one core's
# L2 cache, so a block's GEMMs, adds, copies and pooling read their
# operands from cache and no buffer but the input, output, gradients and
# pool masks grows with the batch.
_BLOCK_VALUES = 2 ** 18


def _conv_geometry(x_shape, k_shape, padding):
    if len(x_shape) != 4 or len(k_shape) != 4:
        raise ShapeError(f"conv2d needs NCHW input and (c_out, C, kh, kw) kernel, "
                         f"got {x_shape} and {k_shape}")
    n, c_in, h, w = x_shape
    c_out, kc, kh, kw = k_shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x_shape} vs kernel {k_shape}")
    if padding < 0:
        raise ContractError(f"padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel {k_shape} larger than padded input {(n, c_in, hp, wp)}")
    return n, c_in, c_out, kh, kw, hp - kh + 1, wp - kw + 1


def _conv_blocks(x: np.ndarray, rows: int, kh: int, kw: int, padding: int, lowered: bool):
    """Yield (start, stop, cols) for each block of ``rows`` rows of the NCHW
    array x, the last one ragged, with x zero-padded by ``padding``.

    cols is the block's tap-major im2col matrix, shaped (C, kh, kw, rows, H',
    W'), so the one gather copies runs of W' input pixels. With ``lowered``
    it is instead the kw-only lowering of MEC (Cho and Brand, ICML 2017),
    shaped (C, kw, Hp, W', rows) with Hp the padded height: entry (c, j, y,
    x, n) is input pixel (y, x + j) of row n, so its rows i to i + H' - 1
    are kernel row i's taps for every output pixel, one matrix with columns
    in (y, x, n) order. Every block is built in the same buffer (and padded
    in one more), whose sliding-window view is made once, so a block's
    matrix lives until the next is yielded."""
    n, c, h, w = x.shape
    src = x
    if padding:
        src = np.zeros((rows, c, h + 2 * padding, w + 2 * padding))
    if lowered:  # (N, C, Hp, W', kw) -> (C, kw, Hp, W', N)
        windows = np.lib.stride_tricks.sliding_window_view(src, kw, axis=3)
        order = (1, 4, 2, 3, 0)
    else:  # (N, C, H', W', kh, kw) -> (C, kh, kw, N, H', W')
        windows = np.lib.stride_tricks.sliding_window_view(src, (kh, kw), axis=(2, 3))
        order = (1, 4, 5, 0, 2, 3)
    per_row = math.prod(windows.shape[1:])
    buf = np.empty(per_row * rows)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        if padding:
            src[:stop - start, :, padding:padding + h, padding:padding + w] = x[start:stop]
            block = windows[:stop - start].transpose(order)
        else:
            block = windows[start:stop].transpose(order)
        cols = buf[:block.size].reshape(block.shape)
        np.copyto(cols, block)
        yield start, stop, cols


def conv2d(x: Tensor, kernel: Tensor, *, padding: int = 0,
           bias: Optional[Tensor] = None, pool: Optional[int] = None) -> Tensor:
    """Batched 2-d cross-correlation at stride 1, NCHW layout, no kernel
    flip, on x zero-padded by ``padding`` on each side, plus bias[o] on
    every element of output channel o when a bias is given, and with
    ``pool=k`` then maxpool2d(k), whose windows must tile the output (k
    divides H' and W').

    The batch runs in blocks of rows whose buffers, reused by every block of
    the call, together hold at most ``_BLOCK_VALUES`` values (one row's
    where one row needs more), so no buffer but the input, output and
    gradients grows with the batch. The GEMMs take the form the layer's
    shape favours:

    - Where a row has at least as many output pixels as taps (H'*W' >=
      C*kh*kw, LeNet's conv1) a block is a tap-major im2col matrix. The
      forward is one GEMM per row, (c_out, C*kh*kw) @ (C*kh*kw, H'*W'),
      written straight into that row's slot of the NCHW output, and the
      kernel gradient sums the per-row products g (c_out, H'*W') @ cols.T,
      which read g in place.
    - Elsewhere (LeNet's conv2) a block is the kw-only MEC lowering of its
      input (see ``_conv_blocks``), 1/kh of im2col's size. The
      forward sums kh GEMMs, (c_out, C*kw) @ (C*kw, H'*W'*rows), one per
      kernel row, in a block buffer that one copy transposes into NCHW; the
      kernel gradient is kh GEMMs, g @ lowered.T.

    Either way a block's bias is added while the block is in cache. Nothing
    is kept for the backward but the input, from which it rebuilds each
    block. The backward copies each block of g once into (c_out, H'*W'*rows)
    order, which the lowered kernel gradient and the input gradient share.
    Tap (i, j) of a block's input gradient is one GEMM, g.T @ kernel[:, :,
    i, j], (H'*W'*rows, C); at C = 1 one GEMM makes every tap, since a
    per-tap product would be a GEMV, which rounds otherwise. Each tap is
    added, in col2im's order and so with its rounding, to its window of a
    (Hp, Wp, rows, C) buffer: W'*rows*C contiguous values per output row,
    one 1-d add each, since numpy buffers a strided add of short
    runs and runs it several times slower. One copy then transposes the
    buffer into NCHW. The bias gradient sums g over each row's H' and W',
    then over the rows. The backward returns one gradient per recorded
    input: (x, kernel), or (x, kernel, bias).

    With ``pool`` the NCHW block goes to a block buffer, not the output, and
    is pooled there while in cache (``_pool_tiles``): only the pooled rows
    and, when recorded, the first-max masks are written, so no array of the
    whole conv output is made. The backward rebuilds each block's conv
    output gradient from the pooled g and the masks in a block buffer
    (``_unpool_tiles``) and hands it to that block's GEMMs. The blocks, and
    so every GEMM and sum, are those of the conv alone, and max is exact:
    values and gradients equal conv2d then maxpool2d bit for bit.
    """
    n, c_in, c_out, kh, kw, h_out, w_out = _conv_geometry(x.shape, kernel.shape, padding)
    if bias is not None:
        _check_bias(bias, c_out, "conv2d")
    if pool is not None and (pool < 1 or h_out % pool or w_out % pool):
        raise ContractError(f"pool window {pool} does not tile the conv output "
                            f"{(h_out, w_out)}")
    h, w = x.shape[2], x.shape[3]
    hp, wp = h + 2 * padding, w + 2 * padding
    hw = h_out * w_out
    depth = c_in * kh * kw
    lowered = hw < depth
    tap_values = (kh * kw if c_in == 1 else c_in) * hw  # one row's input-gradient taps
    # values one row puts in the block buffers, which together hold at most
    # _BLOCK_VALUES: its im2col matrix or lowered input and, when padded, the
    # zero-bordered input they are gathered from; two conv-output blocks
    # (the forward's two partial outputs, or with pool its output and that
    # output's tap-major copy; the backward's transposed g and with pool the
    # rebuilt conv-output gradient); the input gradient's taps and its padded
    # gradient
    per_row = (c_in * kw * hp * w_out if lowered else depth * hw) \
        + (c_in * hp * wp if padding else 0) + 2 * c_out * hw + tap_values \
        + c_in * hp * wp
    rows = max(1, min(n, _BLOCK_VALUES // max(1, per_row)))
    kd = kernel.data
    # the bias as one (c_out, H'*W') plane: numpy adds a plane broadcast over
    # a block's rows about twice as fast as a (c_out, 1) column
    bias_plane = None if bias is None else np.repeat(bias.data, hw).reshape(c_out, hw)
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    if pool is None:
        out, first = np.empty((n, c_out, h_out, w_out)), None
    else:
        out = np.empty((n, c_out, h_out // pool, w_out // pool))
        # first-max masks, kept only when _record will record
        recorded = bool(_TAPES) and any(t.requires_grad for t in inputs)
        first = np.empty((pool * pool,) + out.shape, dtype=bool) if recorded else None

    def finish(block, start, stop):
        """Add the bias to a (b, c_out, H'*W') block of conv output and, with
        pool, pool it into out through acc, which the block no longer needs."""
        if bias_plane is not None:
            block += bias_plane
        if pool is not None:
            _pool_tiles(block, pool, out[start:stop],
                        None if first is None else first[:, start:stop], acc, block)

    def kernel_row(low, i):
        """Kernel row i's taps of a lowered block: (C*kw, H'*W'*rows)."""
        return low[:, :, i:i + h_out].reshape(c_in * kw, -1)

    if lowered or pool is not None:  # two conv-output block buffers
        acc, part = np.empty(c_out * hw * rows), np.empty(c_out * hw * rows)
    if lowered:
        k_rows = kd.transpose(2, 0, 1, 3).reshape(kh, c_out, c_in * kw)  # row i: (o, (c, j))
        for start, stop, low in _conv_blocks(x.data, rows, kh, kw, padding, True):
            b = stop - start
            o = acc[:c_out * hw * b].reshape(c_out, hw * b)
            np.matmul(k_rows[0], kernel_row(low, 0), out=o)
            p = part[:c_out * hw * b].reshape(c_out, hw * b)
            for i in range(1, kh):
                o += np.matmul(k_rows[i], kernel_row(low, i), out=p)
            block = (out[start:stop] if pool is None else p).reshape(b, c_out, hw)
            np.copyto(block, o.reshape(c_out, hw, b).transpose(2, 0, 1))
            finish(block, start, stop)
    else:
        k2 = kd.reshape(c_out, depth)
        for start, stop, cols in _conv_blocks(x.data, rows, kh, kw, padding, False):
            b = stop - start
            block = (out[start:stop] if pool is None else part[:c_out * hw * b]).reshape(
                b, c_out, hw)
            np.matmul(k2, cols.reshape(depth, b, hw).transpose(1, 0, 2), out=block)
            finish(block, start, stop)

    def bwd(g):
        grad_x = grad_k = None
        need_b = bias is not None and bias.requires_grad
        lower = kernel.requires_grad and lowered  # the kernel gradient reads lowered blocks
        im2col = kernel.requires_grad and not lowered  # ... or im2col blocks
        if lower or im2col:
            blocks = _conv_blocks(x.data, rows, kh, kw, padding, lowered)
        else:
            blocks = ((start, min(start + rows, n), None) for start in range(0, n, rows))
        if im2col:
            grad_k = np.zeros((c_out, depth))
        if lower:
            grad_rows = np.zeros((kh, c_out, c_in * kw))
        if x.requires_grad:
            grad_x = np.empty(x.shape)
            k_taps = kd.transpose(2, 3, 0, 1).reshape(kh * kw, c_out, c_in)  # tap (i, j)
            tap_buf, pad_buf = np.empty(tap_values * rows), np.empty(hp * wp * c_in * rows)
        if need_b:  # per row, so the sum is g.sum(axis=(0, 2, 3)) at c_out > 1
            row_sums = np.empty((n, c_out))
        transposed = x.requires_grad or lower
        if transposed or pool is not None:
            # with pool, the unpool's select words live here until g's copy
            gt_buf = np.empty(c_out * hw * rows)
        if pool is not None:
            g_buf = np.empty(c_out * hw * rows)
        for start, stop, cols in blocks:
            b = stop - start
            if pool is None:
                gb = g[start:stop].reshape(b, c_out, hw)
            else:
                gb = g_buf[:c_out * hw * b].reshape(b, c_out, hw)
                _unpool_tiles(g[start:stop], first[:, start:stop], pool, gb,
                              gt_buf.view(np.int64))
            if need_b:
                np.add.reduce(gb, axis=2, out=row_sums[start:stop])
            if im2col:
                grad_k += np.add.reduce(
                    np.matmul(gb, cols.reshape(depth, b, hw).transpose(1, 2, 0)), axis=0)
            if not transposed:
                continue
            gt = gt_buf[:c_out * hw * b].reshape(c_out, h_out, w_out, b)
            np.copyto(gt, gb.reshape(b, c_out, h_out, w_out).transpose(1, 2, 3, 0))
            gt = gt.reshape(c_out, hw * b)  # columns (y, x, n)
            if lower:
                for i in range(kh):
                    grad_rows[i] += gt @ kernel_row(cols, i).T
            if x.requires_grad:
                if c_in == 1:
                    taps = np.matmul(k_taps[:, :, 0], gt,
                                     out=tap_buf[:tap_values * b].reshape(kh * kw, hw * b))
                else:
                    tap_out = tap_buf[:tap_values * b].reshape(hw * b, c_in)
                gxp = pad_buf[:hp * wp * b * c_in].reshape(hp, wp, b * c_in)
                gxp.fill(0.0)
                for t in range(kh * kw):
                    i, j = divmod(t, kw)
                    tap = taps[t] if c_in == 1 else np.matmul(gt.T, k_taps[t], out=tap_out)
                    tap_rows = tap.reshape(h_out, w_out, b * c_in)
                    window = gxp[:, j:j + w_out]
                    for y in range(h_out):
                        row = window[i + y]
                        np.add(row, tap_rows[y], out=row)
                grad_x[start:stop] = gxp.reshape(hp, wp, b, c_in)[
                    padding:padding + h, padding:padding + w].transpose(2, 3, 0, 1)
        if im2col:
            grad_k = grad_k.reshape(kernel.shape)
        if lower:
            grad_k = np.ascontiguousarray(
                grad_rows.reshape(kh, c_out, c_in, kw).transpose(1, 2, 0, 3))
        if bias is None:
            return grad_x, grad_k
        return grad_x, grad_k, np.add.reduce(row_sums, axis=0) if need_b else None

    return _record(_output(out), inputs, bwd)


def _pool_tiles(block: np.ndarray, k: int, top: np.ndarray, first: Optional[np.ndarray],
                tiles: np.ndarray, free: Optional[np.ndarray]) -> None:
    """Max-pool one row block, a contiguous array of b rows of C channels of
    H x W pixels, in the k x k windows that tile it, into ``top`` (b, C,
    H/k, W/k). With ``first``, a (k*k,) + top.shape bool array, each
    window's first maximum in row-major window order, the one argmax picks,
    is marked at its tap.

    numpy's ufuncs run several times slower on a strided view of short runs
    than on a copy, so the block is first copied tap-major into ``tiles``,
    (k*k, b, C, H/k, W/k). With ``first``, the first top.size bytes of
    ``free``, which may be the copied block, hold the mask of windows whose
    maximum no earlier tap has.
    """
    b, c, h_out, w_out = top.shape
    taps = tiles[:block.size].reshape(k, k, b, c, h_out, w_out)
    np.copyto(taps, block.reshape(b, c, h_out, k, w_out, k).transpose(3, 5, 0, 1, 2, 4))
    taps = taps.reshape(k * k, b, c, h_out, w_out)
    np.maximum.reduce(taps, axis=0, out=top)
    if first is None:
        return
    free = free.reshape(-1).view(np.bool_)[:top.size].reshape(top.shape)
    free.fill(True)
    for t in range(k * k):
        hit = first[t]
        np.equal(taps[t], top, out=hit)
        hit &= free
        free ^= hit


def _unpool_tiles(g: np.ndarray, first: np.ndarray, k: int, grad: np.ndarray,
                  keep: np.ndarray) -> None:
    """Write into ``grad``, a contiguous block of input gradient, the
    gradient of the block that ``_pool_tiles`` pooled with masks ``first``:
    each window's pooled g (b, C, H/k, W/k) at its first maximum and +0.0
    elsewhere, even for an inf or NaN g, each pixel written once. As in
    relu, the select is an AND of g's bits with an all-ones or all-zeros
    word, made in ``keep``, an int64 buffer of at least g's size."""
    b, c, h_out, w_out = g.shape
    bits, keep = g.view(np.int64), keep[:g.size].reshape(g.shape)
    pixels = grad.reshape(b, c, h_out, k, w_out, k)
    for t in range(k * k):
        i, j = divmod(t, k)
        np.negative(first[t], out=keep, dtype=np.int64)
        np.bitwise_and(keep, bits, out=keep)
        np.copyto(pixels[:, :, :, i, :, j], keep.view(np.float64))


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """Max pooling over the k x k windows that tile the NCHW input (k
    divides H and W), on the kernel of the pool inside conv2d, in row blocks
    whose tap-major copy holds at most ``_BLOCK_VALUES`` values (one row's
    where one row needs more).

    The backward routes each window's gradient to its first maximum in
    row-major window order, as argmax would pick it. A recorded forward
    marks those maxima right away (``_pool_tiles``), and its backward keeps
    only the masks: not the input, nor the output. A pool right after a
    conv (every LeNet pool) runs inside that conv instead (``conv2d(...,
    pool=k)``), which never makes the conv's whole output; ``models.forward``
    picks that op.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d needs NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if k < 1 or h % k or w % k:
        raise ContractError(f"pool window {k} does not tile the input {(h, w)}")
    out, first = np.empty((n, c, h // k, w // k)), None
    if _TAPES and x.requires_grad:  # exactly when _record records
        first = np.empty((k * k,) + out.shape, dtype=bool)
    # the free mask and the backward's select words are at most a copy's size
    rows = max(1, min(n, _BLOCK_VALUES // max(1, c * h * w)))
    tiles, pooled = np.empty(c * h * w * rows), rows * c * (h // k) * (w // k)
    free = None if first is None else np.empty(pooled, dtype=bool)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        _pool_tiles(x.data[start:stop], k, out[start:stop],
                    None if first is None else first[:, start:stop], tiles, free)

    def bwd(g):
        gx, keep = np.empty((n, c, h, w)), np.empty(pooled, dtype=np.int64)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            _unpool_tiles(g[start:stop], first[:, start:stop], k, gx[start:stop], keep)
        return (gx,)

    return _record(_output(out), (x,), bwd)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(logits: Tensor, labels, copies: int = 1) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-shifted for stability.

    The mean is taken as np.mean takes it, the row sum divided by N, over the
    labelled entries only; the softmax probabilities are formed in the
    backward pass. With ``copies`` > 1 the N rows hold that many batches of
    N / copies rows each, in any order, and the loss is the sum of their
    means: the row sum divided by N / copies, so each batch's gradient is
    the one its own mean would give.
    """
    labels = np.asarray(labels)
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {logits.shape}")
    n, k = z.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if copies < 1 or n % copies:
        raise ContractError(f"{n} rows do not split into {copies} equal batches")
    if labels.dtype.kind not in "iu":  # a float label would fail the gather as out of range
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    if np.minimum.reduce(labels) < 0:  # the gather below checks the top of the range
        raise IndexError(f"label out of range [0, {k})")
    rows = np.arange(n)
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    shifted = z - zmax
    ez = np.exp(shifted)
    sez = np.add.reduce(ez, axis=1, keepdims=True)
    try:
        picked = shifted[rows, labels]
    except IndexError:
        raise IndexError(f"label out of range [0, {k})") from None
    picked -= np.log(sez[:, 0])
    per = n // copies
    out = _output(np.asarray(-(np.add.reduce(picked) / per)))

    def bwd(g):
        grad = ez / sez  # the softmax probabilities
        grad[rows, labels] -= 1.0
        return (grad * (g / per),)

    return _record(out, (logits,), bwd)
