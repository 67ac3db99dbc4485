"""Autodiff engine: forward values, tape mechanics, gradients vs finite differences."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from dirichlet_pruning import tensor as T
from dirichlet_pruning.errors import ContractError, ShapeError
from dirichlet_pruning.tensor import Tape, Tensor, _record

from conftest import central_fd, grad_err, in_one_blas_thread, peak_mib, traced_mib
from pool_oracle import maxpool2d as reference_maxpool2d
from tape_ops import add, div, mul, softplus, tsum


def _grad_of(op, args, wrt, out_reduce=tsum):
    """Run op under a tape, reduce to scalar with tsum, return grad of args[wrt]."""
    tensors = [Tensor(a, requires_grad=(i == wrt)) for i, a in enumerate(args)]
    with Tape():
        out = op(*tensors)
        loss = out_reduce(out)
    T.backward(loss)
    return tensors[wrt].grad


def _seed(out, g):
    """A scalar loss on the current tape whose gradient w.r.t. out is g, with
    no forward product: a non-finite g then never meets a zero output."""
    return _record(Tensor(np.asarray(0.0)), (out,), lambda _: (g,))


def _fd_of(op, args, wrt, eps=1e-6):
    def f(x):
        inputs = [Tensor(x) if i == wrt else Tensor(a) for i, a in enumerate(args)]
        return float(op(*inputs).data.sum())

    return central_fd(f, args[wrt], eps)


# ---------------------------------------------------------------------------
# Tensor / Tape basics


def test_tensor_shape_matches_data():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.shape == (2, 3)
    assert t.size == 6
    assert t.data.dtype == np.float64
    assert t.grad is None


def test_ops_do_not_record_without_grad():
    x = Tensor(np.ones(3))
    with Tape() as tape:
        tsum(mul(x, x))
    assert len(tape) == 0


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    out = T.matmul(a, b)
    assert np.array_equal(out.data, b.data)


def test_matmul_zero():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.zeros((2, 1)))
    assert np.array_equal(T.matmul(a, b).data, np.array([[0.0]]))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def test_matmul_grad_analytic_and_fd():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    ga = _grad_of(T.matmul, (a, b), wrt=0)
    assert np.allclose(ga, np.ones((3, 2)) @ b.T, atol=1e-12)
    assert grad_err(ga, _fd_of(T.matmul, (a, b), 0)) <= 1e-5
    gb = _grad_of(T.matmul, (a, b), wrt=1)
    assert grad_err(gb, _fd_of(T.matmul, (a, b), 1)) <= 1e-5


# ---------------------------------------------------------------------------
# conv2d


def _conv_naive(x, k, padding):
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out, w_out = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for i in range(n):
        for o in range(c_out):
            for r in range(h_out):
                for s in range(w_out):
                    out[i, o, r, s] = float((xp[i, :, r:r + kh, s:s + kw] * k[o]).sum())
    return out


def test_conv2d_ones_kernel():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)))
    k = Tensor(np.zeros((4, 3, 3, 3)))
    assert np.all(T.conv2d(x, k).data == 0.0)


# case ids are "stride-padding"; every conv runs at stride 1
@pytest.mark.parametrize("padding", [0, 1, 2], ids=["1-0", "1-1", "1-2"])
def test_conv2d_matches_naive_loops(padding):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 8, 8))
    k = rng.standard_normal((4, 3, 3, 3))
    got = T.conv2d(Tensor(x), Tensor(k), padding=padding).data
    ref = _conv_naive(x, k, padding)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 5, 5))))


@pytest.mark.parametrize("x_shape,k_shape", [
    ((4, 8), (2, 1, 3, 3)),          # a batch of flat rows
    ((1, 5, 5), (2, 1, 3, 3)),       # one CHW image, no batch axis
    ((1, 1, 5, 5), (2, 1, 3)),       # a kernel without its width axis
])
def test_conv2d_rejects_a_tensor_that_is_not_4d(x_shape, k_shape):
    with pytest.raises(ShapeError, match="conv2d needs NCHW input"):
        T.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)))


def test_conv2d_grads_match_fd():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, (1, 2, 5, 5))
    k = rng.uniform(-2, 2, (3, 2, 3, 3))
    op = lambda a, b: T.conv2d(a, b, padding=1)
    assert grad_err(_grad_of(op, (x, k), 0), _fd_of(op, (x, k), 0)) <= 1e-5
    assert grad_err(_grad_of(op, (x, k), 1), _fd_of(op, (x, k), 1)) <= 1e-5


def _conv2d_grads_col2im(x, k, g, padding):
    """Reference conv2d backward: im2col GEMMs, then a col2im scatter of the
    (N*H'*W', C*kh*kw) column gradient, one add per kernel tap."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    h_out, w_out = g.shape[2], g.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, c_in * kh * kw)
    g2 = g.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, c_out)
    grad_k = (g2.T @ cols).reshape(k.shape)
    grad_cols = g2 @ k.reshape(c_out, -1)
    gc = grad_cols.reshape(n, h_out, w_out, c_in, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + h_out, j:j + w_out] += gc[:, :, i, j]
    return gxp[:, :, padding:padding + h, padding:padding + w], grad_k


def _conv2d_einsum(x, k, padding):
    """Reference conv2d forward: one einsum over the sliding windows."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k.shape[2:], axis=(2, 3))
    return np.einsum("ncyxij,ocij->noyx", windows, k)


@pytest.fixture
def conv_blocks(monkeypatch):
    """(lowered, start, stop) of every row block conv2d builds, in order."""
    log = []
    build = T._conv_blocks

    def logged(x, rows, kh, kw, padding, lowered):
        for start, stop, cols in build(x, rows, kh, kw, padding, lowered):
            log.append((lowered, start, stop))
            yield start, stop, cols

    monkeypatch.setattr(T, "_conv_blocks", logged)
    return log


def _check_conv_against_oracles(x, k, g_draw, padding, blocks):
    """conv2d's output against the einsum oracle at 1e-12 abs, and its input
    and kernel gradients, for the output gradient g_draw(shape), against the
    col2im oracle at rtol 1e-12; returns the (lowered, start, stop) of the
    row blocks its forward built."""
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with Tape():
        out = T.conv2d(xt, kt, padding=padding)
        forward_blocks = list(blocks)
        g = g_draw(out.shape)
        loss = tsum(mul(out, Tensor(g)))
    assert np.max(np.abs(out.data - _conv2d_einsum(x, k, padding))) <= 1e-12
    T.backward(loss)
    gx, gk = _conv2d_grads_col2im(x, k, g, padding)
    np.testing.assert_allclose(xt.grad, gx, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(kt.grad, gk, rtol=1e-12, atol=0.0)
    return forward_blocks


def _assert_ragged_blocks(blocks, n):
    """At least three row blocks that cover the n rows in order, the last one
    shorter than the others."""
    sizes = [stop - start for _, start, stop in blocks]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0] and sum(sizes) == n
    assert [start for _, start, _ in blocks] == [0] + list(np.cumsum(sizes[:-1]))


# 2400 rows are at least three row blocks of conv2d, the last one ragged,
# at padding 0 and each c_in below; at padding 1 and c_in 1 a block is 100
# rows, so that case takes 50 more
BLOCKED_ROWS = 2400


@pytest.mark.parametrize("c_in", [1, 3])
@pytest.mark.parametrize("padding,n", [
    (0, 3), (1, 3), (2, 3), (0, BLOCKED_ROWS), (1, BLOCKED_ROWS + 50),
], ids=["1-0", "1-1", "1-2", "1-0-blocked", "1-1-blocked"])  # stride-padding
def test_conv2d_grads_match_col2im_oracle(padding, n, c_in, conv_blocks):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((n, c_in, 9, 10))
    k = rng.standard_normal((4, c_in, 3, 3))
    blocks = _check_conv_against_oracles(x, k, rng.standard_normal, padding, conv_blocks)
    if n >= BLOCKED_ROWS:
        _assert_ragged_blocks(blocks, n)


# conv2d lowers a block by kw only (MEC) where a row has fewer output pixels
# than taps, H'*W' < C*kh*kw, and builds im2col elsewhere: cases on both
# sides of that rule, at its boundary, with padding and, at 1000 rows, three
# or more row blocks with a ragged last one (ids: form-stride-padding). The
# data are positive, so no sum cancels and rtol 1e-12 holds in any summation order:
# with mixed signs a kernel-gradient entry summed from 20,000 products can
# land near zero, where a blocked sum misses the one-GEMM oracle by more
# (it did at mec-1-0-blocked, by 3.3e-12, for the parent's kernel too)
@pytest.mark.parametrize("x_hw,c_in,k_hw,padding,n,lowered", [
    ((7, 6), 8, (3, 3), 0, 4, True),      # H'*W' = 20 < 72
    ((7, 6), 8, (3, 3), 1, 4, True),      # 42 < 72
    ((7, 6), 8, (3, 3), 0, 1000, True),
    ((7, 6), 8, (3, 3), 1, 1000, True),
    ((8, 7), 4, (3, 3), 0, 4, True),      # 30 < 36, just below the boundary
    ((8, 8), 4, (3, 3), 0, 4, False),     # 36 = 36, on it
    ((9, 10), 2, (2, 3), 0, 4, False),    # 64 >= 12
    ((9, 10), 2, (2, 3), 1, 4, False),    # 80 >= 12
    ((9, 10), 2, (2, 3), 0, 1000, False),
    ((9, 10), 2, (2, 3), 1, 1000, False),
], ids=["mec-1-0", "mec-1-1", "mec-1-0-blocked", "mec-1-1-blocked",
        "mec-boundary", "im2col-boundary", "im2col-1-0", "im2col-1-1",
        "im2col-1-0-blocked", "im2col-1-1-blocked"])
def test_conv2d_gemm_forms_match_col2im_oracle(x_hw, c_in, k_hw, padding, n, lowered,
                                               conv_blocks):
    rng = np.random.default_rng(32)

    def positive(shape):
        return rng.uniform(0.5, 2.0, shape)

    x, k = positive((n, c_in) + x_hw), positive((5, c_in) + k_hw)
    blocks = _check_conv_against_oracles(x, k, positive, padding, conv_blocks)
    assert {form for form, _, _ in blocks} == {lowered}
    if n == 1000:
        _assert_ragged_blocks(blocks, n)


@pytest.mark.parametrize("x_shape,k_shape", [
    ((0, 2, 6, 6), (3, 2, 3, 3)),    # an empty batch
    ((2, 0, 6, 6), (3, 0, 3, 3)),    # no input channel: every sum is empty
])
def test_conv2d_of_an_empty_batch_or_no_channels(x_shape, k_shape):
    rng = np.random.default_rng(30)
    x, k, bias = rng.standard_normal(x_shape), rng.standard_normal(k_shape), np.arange(3.0)
    out = T.conv2d(Tensor(x), Tensor(k), bias=Tensor(bias)).data
    ref = _conv2d_einsum(x, k, 0) + bias[:, None, None]
    assert out.shape == ref.shape and np.array_equal(out, ref)
    # recorded and padded too: every gradient but the bias's is a sum over
    # no terms
    for padding in (0, 1, 2):
        xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, bias))
        with Tape():
            out = T.conv2d(xt, kt, padding=padding, bias=bt)
            assert np.array_equal(out.data, _conv2d_einsum(x, k, padding)
                                  + bias[:, None, None])
            g = rng.standard_normal(out.shape)
            loss = _seed(out, g)
        T.backward(loss)
        assert np.array_equal(xt.grad, np.zeros(x.shape))
        assert np.array_equal(kt.grad, np.zeros(k.shape))
        assert np.array_equal(bt.grad, g.sum(axis=(0, 2, 3)))


def test_conv2d_allocation_peak_is_its_output_plus_one_block():
    # LeNet conv2 on 400 rows: 11.7 MiB, the 9.8 MiB output and one 2 MiB
    # im2col block; a whole-batch im2col, GEMM result and NCHW copy peaked
    # at 117.2 MiB
    rng = np.random.default_rng(29)
    x = Tensor(rng.standard_normal((400, 20, 12, 12)))
    k = Tensor(rng.standard_normal((50, 20, 5, 5)))
    out_mib = 400 * 50 * 8 * 8 * 8 / 2 ** 20
    assert peak_mib(lambda: T.conv2d(x, k)) <= out_mib + 3.0


def test_conv2d_backward_allocation_peak_is_its_gradients_plus_one_block():
    # LeNet conv2's recorded backward on 400 rows: 10.9 MiB, the 8.8 MiB
    # input gradient, the 0.2 MiB kernel gradient and the block buffers,
    # which together hold at most one block; a fresh g transpose, tap
    # matrix and padded gradient per block peaked at 15.6 MiB
    rng = np.random.default_rng(33)
    x = Tensor(rng.standard_normal((400, 20, 12, 12)), requires_grad=True)
    k = Tensor(rng.standard_normal((50, 20, 5, 5)), requires_grad=True)
    with Tape() as tape:
        out = T.conv2d(x, k)
    g = rng.standard_normal(out.shape)
    (node,) = tape._nodes
    grads_mib = (x.size + k.size) * 8 / 2 ** 20
    block_mib = T._BLOCK_VALUES * 8 / 2 ** 20
    assert peak_mib(lambda: node.backward_fn(g)) <= grads_mib + block_mib + 0.5


@pytest.mark.parametrize("padding", [1, 2])
def test_conv2d_padded_block_buffers_stay_within_one_block(padding):
    # LeNet conv2's shape on 400 rows, padded: the zero-bordered input a
    # block is gathered from counts against the block too
    rng = np.random.default_rng(34)
    x = Tensor(rng.standard_normal((400, 20, 12, 12)), requires_grad=True)
    k = Tensor(rng.standard_normal((50, 20, 5, 5)), requires_grad=True)
    block_mib = T._BLOCK_VALUES * 8 / 2 ** 20
    with Tape() as tape:
        out = T.conv2d(x, k, padding=padding)
    out_mib = out.size * 8 / 2 ** 20
    assert peak_mib(lambda: T.conv2d(x, k, padding=padding)) <= out_mib + block_mib + 0.25
    g = rng.standard_normal(out.shape)
    (node,) = tape._nodes
    grads_mib = (x.size + k.size) * 8 / 2 ** 20
    assert peak_mib(lambda: node.backward_fn(g)) <= grads_mib + block_mib + 0.25


def _small_ints(rng, shape):
    """Integers in [-8, 8] as float64: every product and partial sum of a
    conv on them is an integer far below 2**53, so float64 sums them
    exactly in any order, and an exact check tests the taps, transposes and
    padding, not the summation order."""
    return rng.integers(-8, 9, shape).astype(np.float64)


def _conv2d_grads_einsum(x, k, g, padding):
    """Reference conv2d backward from the sliding windows: the kernel
    gradient is one einsum; the input gradient adds, for each kernel tap,
    one einsum to that tap's window of the padded input."""
    h, w = x.shape[2:]
    kh, kw = k.shape[2:]
    h_out, w_out = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    grad_k = np.einsum("ncyxij,noyx->ocij", windows, g)
    gxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + h_out, j:j + w_out] += np.einsum("noyx,oc->ncyx", g, k[:, :, i, j])
    return gxp[:, :, padding:padding + h, padding:padding + w], grad_k


def _tile_pool_oracle(y, k, g):
    """Max-pool of y in the k x k windows at stride k that tile it, and the
    pooled gradient g routed to each window's first maximum in row-major
    window order, the one np.argmax picks; +0.0 elsewhere."""
    n, c, h, w = y.shape
    shape = (n, c, h // k, w // k, k * k)
    win = y.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5).reshape(shape)
    pick = win.argmax(axis=-1)[..., None]
    gy = np.zeros(shape)
    np.put_along_axis(gy, pick, g[..., None], axis=-1)
    gy = gy.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(y.shape)
    return np.take_along_axis(win, pick, axis=-1)[..., 0], gy


def _recorded_conv(x, k, bias, g, padding, pool=None, pool_op=None):
    """(output, x, kernel and bias gradients) of a recorded conv2d for the
    output gradient g: with ``pool`` as one op, or with ``pool_op`` as
    conv2d then pool_op(conv, pool)."""
    xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, bias))
    with Tape():
        if pool_op is not None:
            out = pool_op(T.conv2d(xt, kt, padding=padding, bias=bt), pool)
        else:
            out = T.conv2d(xt, kt, padding=padding, bias=bt, pool=pool)
        loss = _seed(out, g)
    T.backward(loss)
    return out.data, xt.grad, kt.grad, bt.grad


# the exact cases: LeNet's conv1 (im2col) and conv2 (MEC) at batch 100, each
# form padded, and each form over 1000 rows, three or more row blocks with a
# ragged last one; with pool, windows that tile the output. Each case is
# (x shape, kernel shape, padding, lowered, pool); ids are form-stride-padding
EXACT_CASES = {
    "lenet-conv1": ((100, 1, 28, 28), (20, 1, 5, 5), 0, False, 2),
    "lenet-conv2": ((100, 20, 12, 12), (50, 20, 5, 5), 0, True, 2),
    "im2col-1-1": ((6, 2, 11, 12), (5, 2, 2, 3), 1, False, 3),     # H'*W' = 144 >= 12
    "mec-1-1": ((6, 8, 8, 8), (5, 8, 3, 3), 1, True, 2),           # 64 < 72
    "im2col-blocked": ((1000, 2, 9, 10), (5, 2, 2, 3), 0, False, 4),  # 64 >= 12
    "mec-blocked": ((1000, 8, 8, 6), (5, 8, 3, 3), 0, True, 2),        # 24 < 72
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_conv2d_equals_sliding_window_einsum_exactly_on_small_integers(case, conv_blocks):
    x_shape, k_shape, padding, lowered, _ = EXACT_CASES[case]
    rng = np.random.default_rng(40)
    x, k, bias = _small_ints(rng, x_shape), _small_ints(rng, k_shape), _small_ints(rng, k_shape[0])
    want = _conv2d_einsum(x, k, padding) + bias[:, None, None]
    g = _small_ints(rng, want.shape)
    out, gx, gk, gb = _recorded_conv(x, k, bias, g, padding)
    assert {form for form, _, _ in conv_blocks} == {lowered}
    if x_shape[0] == 1000:
        _assert_ragged_blocks(conv_blocks[:len(conv_blocks) // 2], 1000)  # the forward's
    ref_gx, ref_gk = _conv2d_grads_einsum(x, k, g, padding)
    assert np.array_equal(out, want)
    assert np.array_equal(gx, ref_gx)
    assert np.array_equal(gk, ref_gk)
    assert np.array_equal(gb, g.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_conv2d_pool_equals_einsum_then_first_max_exactly_on_small_integers(case):
    # small integers tie often, so the first maximum of a window matters
    x_shape, k_shape, padding, _, pool = EXACT_CASES[case]
    rng = np.random.default_rng(41)
    x, k, bias = _small_ints(rng, x_shape), _small_ints(rng, k_shape), _small_ints(rng, k_shape[0])
    conv = _conv2d_einsum(x, k, padding) + bias[:, None, None]
    g = _small_ints(rng, conv[:, :, ::pool, ::pool].shape)
    want, g_conv = _tile_pool_oracle(conv, pool, g)
    out, gx, gk, gb = _recorded_conv(x, k, bias, g, padding, pool)
    ref_gx, ref_gk = _conv2d_grads_einsum(x, k, g_conv, padding)
    assert np.array_equal(out, want)
    assert np.array_equal(gx, ref_gx)
    assert np.array_equal(gk, ref_gk)
    assert np.array_equal(gb, g.sum(axis=(0, 2, 3)))


# Rounded cases: standard-normal data, checked against a bound that holds
# for any summation order. A float64 sum of n products a_i b_i, taken in
# any order, is within gamma_n * sum |a_i b_i| of the exact sum, gamma_n =
# n u / (1 - n u) with u the unit roundoff (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., 2002, ch. 3). The reference sums in long
# double, whose own error adds the same bound at its roundoff.
_ROUNDOFFS = (np.finfo(np.float64).eps / 2, np.finfo(np.longdouble).eps / 2)


def _assert_within_gamma_n(got, spec, a, b, n, extra=None):
    """Each entry of ``got`` is within (gamma_n + long double gamma_n) * sum
    |a_i b_i| of y = einsum(spec, a, b), plus ``extra`` (one more term, a
    bias) when given, both summed in long double."""
    a, b = a.astype(np.longdouble), b.astype(np.longdouble)
    y, size = np.einsum(spec, a, b), np.einsum(spec, np.abs(a), np.abs(b))
    if extra is not None:
        extra = extra.astype(np.longdouble)
        y, size, n = y + extra, size + np.abs(extra), n + 1
    gamma = sum(n * u / (1 - n * u) for u in _ROUNDOFFS)
    assert got.shape == y.shape
    excess = np.abs(got - y) - gamma * size
    assert np.all(excess <= 0.0), float(excess.max())


@pytest.mark.parametrize("x_shape,k_shape,padding,lowered", [
    ((6, 1, 28, 28), (20, 1, 5, 5), 0, False),    # LeNet conv1: H'*W' = 576 >= 25
    ((5, 2, 9, 10), (4, 2, 3, 3), 1, False),      # 90 >= 18
    ((6, 20, 12, 12), (50, 20, 5, 5), 0, True),   # LeNet conv2: 64 < 500
    ((5, 8, 6, 7), (5, 8, 3, 3), 1, True),        # 42 < 72
    ((900, 2, 9, 10), (4, 2, 3, 3), 1, False),
    ((900, 8, 6, 7), (5, 8, 3, 3), 1, True),
], ids=["im2col-1-0", "im2col-1-1", "mec-1-0", "mec-1-1", "im2col-1-1-blocked",
        "mec-1-1-blocked"])
def test_conv2d_is_within_gamma_n_of_the_exact_sums(x_shape, k_shape, padding, lowered,
                                                     conv_blocks):
    (n, c_in, h, w), (c_out, _, kh, kw) = x_shape, k_shape
    h_out, w_out = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    rng = np.random.default_rng(44)
    x, k = rng.standard_normal(x_shape), rng.standard_normal(k_shape)
    bias, g = rng.standard_normal(c_out), rng.standard_normal((n, c_out, h_out, w_out))
    out, gx, gk, gb = _recorded_conv(x, k, bias, g, padding)
    assert {form for form, _, _ in conv_blocks} == {lowered}
    if n == 900:
        _assert_ragged_blocks(conv_blocks[:len(conv_blocks) // 2], n)  # the forward's
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    _assert_within_gamma_n(out, "ncyxij,ocij->noyx", windows, k, c_in * kh * kw,
                           np.broadcast_to(bias[:, None, None], out.shape))
    _assert_within_gamma_n(gk, "ncyxij,noyx->ocij", windows, g, n * h_out * w_out)
    _assert_within_gamma_n(gb, "noyx,noyx->o", g, np.ones(g.shape), n * h_out * w_out)
    # the input gradient is the correlation of g, padded by the kernel less
    # one, with the flipped kernel, less the input's padding
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    g_windows = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(2, 3))
    g_windows = g_windows[:, :, padding:padding + h, padding:padding + w]
    _assert_within_gamma_n(gx, "noyxij,ocij->ncyx", g_windows, k[:, :, ::-1, ::-1],
                           c_out * kh * kw)


def test_matmul_is_within_gamma_n_of_the_exact_sums():
    rng = np.random.default_rng(46)
    a, b, bias = (rng.standard_normal(s) for s in ((60, 300), (300, 40), (40,)))
    g = rng.standard_normal((60, 40))
    at, bt, biast = (Tensor(v, requires_grad=True) for v in (a, b, bias))
    with Tape():
        out = T.matmul(at, bt, bias=biast)
        loss = _seed(out, g)
    T.backward(loss)
    _assert_within_gamma_n(out.data, "ij,jk->ik", a, b, 300, np.broadcast_to(bias, g.shape))
    _assert_within_gamma_n(at.grad, "ik,jk->ij", g, b, 40)
    _assert_within_gamma_n(bt.grad, "ij,ik->jk", a, g, 60)
    _assert_within_gamma_n(biast.grad, "ik,ik->k", g, np.ones(g.shape), 60)


@pytest.mark.parametrize("w_shape,per", [
    ((12, 5, 3, 3), None),  # a conv kernel, C = 5
    ((320, 30), None),      # an fc weight after a flatten: 5 channels of 64 rows
    ((320, 30), 2),         # the same, its row gradient in chunks of 2 channel groups
], ids=["conv", "fc", "fc-chunks-2"])
def test_scale_input_channels_row_grad_is_within_gamma_n_of_the_exact_sums(w_shape, per,
                                                                           monkeypatch):
    rng = np.random.default_rng(47)
    w, rows = rng.standard_normal(w_shape), rng.standard_normal((3, 5))
    if per is not None:  # per groups fit, per + 1 do not
        group = 64 * 3 * 30  # values of one channel group of the stacked gradient
        monkeypatch.setattr(T, "_ROW_GRAD_VALUES", per * group + group - 1)
    leaf = Tensor(rows, requires_grad=True)
    with Tape():
        out = T.scale_input_channels(Tensor(w), leaf)
        g = rng.standard_normal(out.shape)
        loss = _seed(out, g)
    T.backward(loss)
    if w.ndim == 4:
        _assert_within_gamma_n(leaf.grad, "jocab,ocab->jc", g.reshape((3,) + w_shape), w,
                               w_shape[0] * 9)
    else:
        _assert_within_gamma_n(leaf.grad, "crjq,crq->jc", g.reshape(5, 64, 3, 30),
                               w.reshape(5, 64, 30), 64 * 30)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _reference_pool(t, k):
    """The reference max-pool (``pool_oracle``) in the k x k windows at
    stride k."""
    return reference_maxpool2d(t, k, k)


@pytest.mark.parametrize("data", ["normal", "tied", "non-finite"])
@pytest.mark.parametrize("case", ["im2col", "mec", "im2col-1-1", "mec-1-1", "mec-1-2",
                                  "im2col-blocked", "mec-blocked"])
def test_conv2d_pool_equals_conv2d_then_maxpool2d_bit_for_bit(case, data, monkeypatch,
                                                              conv_blocks):
    # conv2d(..., pool=k), and conv2d then maxpool2d(k), each against conv2d
    # then the reference pool, which shares no kernel with either
    x_shape, k_shape, padding, lowered, pool = {
        "im2col": ((3, 1, 12, 12), (4, 1, 5, 5), 0, False, 2),
        "mec": ((3, 4, 8, 8), (6, 4, 5, 5), 0, True, 2),
        "im2col-1-1": ((3, 2, 11, 12), (5, 2, 2, 3), 1, False, 3),   # 144 >= 12
        "mec-1-1": ((3, 8, 8, 8), (5, 8, 3, 3), 1, True, 2),         # 64 < 72
        "mec-1-2": ((3, 8, 6, 6), (5, 8, 5, 5), 2, True, 3),         # 36 < 200
        # under a budget of 3 rows' block buffers (3,856 and 1,152 values a
        # row), 10 rows make blocks of 3, 3, 3 and 1
        "im2col-blocked": ((10, 1, 12, 12), (4, 1, 5, 5), 0, False, 2),
        "mec-blocked": ((10, 4, 8, 8), (6, 4, 5, 5), 0, True, 2),
    }[case]
    if case.endswith("blocked"):
        monkeypatch.setattr(T, "_BLOCK_VALUES", 3 * (1152 if lowered else 3856))
    rng = np.random.default_rng(42)
    if data == "tied":  # a conv of small integers is an integer: windows tie
        x, k = rng.integers(-2, 3, x_shape) * 1.0, rng.integers(-1, 2, k_shape) * 1.0
    else:
        x, k = rng.standard_normal(x_shape), rng.standard_normal(k_shape)
    bias = np.round(rng.standard_normal(k_shape[0]), 1)
    conv = _conv2d_einsum(x, k, padding)
    g = rng.standard_normal(conv[:, :, ::pool, ::pool].shape)
    g *= 10.0 ** rng.uniform(-8, 8, g.shape)  # so a different summation order shows
    if data == "non-finite":
        g.flat[::7] = np.inf
        g.flat[3::11] = np.nan
    runs = []
    for pool_op in (_reference_pool, None, T.maxpool2d):
        conv_blocks.clear()
        with np.errstate(invalid="ignore"):  # inf - inf in the GEMMs of non-finite g
            runs.append((_recorded_conv(x, k, bias, g, padding, pool, pool_op),
                         list(conv_blocks)))
    (want, want_blocks), checked = runs[0], runs[1:]
    for got, blocks in checked:
        for name, a, b in zip(("output", "x grad", "kernel grad", "bias grad"), got, want):
            assert _same_bits(a, b), name
        assert blocks == want_blocks  # the same row blocks
    assert {form for form, _, _ in want_blocks} == {lowered}
    if case.endswith("blocked"):
        _assert_ragged_blocks(want_blocks[:len(want_blocks) // 2], x_shape[0])
    # and untaped, with no mask
    plain = T.conv2d(Tensor(x), Tensor(k), padding=padding, bias=Tensor(bias), pool=pool)
    assert _same_bits(plain.data, want[0])
    plain = T.maxpool2d(T.conv2d(Tensor(x), Tensor(k), padding=padding, bias=Tensor(bias)), pool)
    assert _same_bits(plain.data, want[0])


def test_conv2d_pool_must_tile_the_conv_output():
    x, k = Tensor(np.zeros((1, 1, 7, 8))), Tensor(np.zeros((2, 1, 2, 2)))  # output 6 x 7
    with pytest.raises(ContractError,
                       match=r"pool window 2 does not tile the conv output \(6, 7\)"):
        T.conv2d(x, k, pool=2)
    with pytest.raises(ContractError, match="pool window 0"):
        T.conv2d(x, k, pool=0)


def test_conv2d_pool_never_makes_a_whole_conv_output():
    # LeNet's conv1 and pool1 as one op on 400 rows. The forward holds the
    # pooled output and the first-max masks and, for the rest, one block;
    # the backward holds the kernel and bias gradients and one block. Either
    # alone is below the 35.2 MiB of conv1's whole output, or of pool1's
    # whole input gradient, which the separate ops make
    rng = np.random.default_rng(43)
    x = Tensor(rng.uniform(0.0, 1.0, (400, 1, 28, 28)))
    k = Tensor(rng.standard_normal((20, 1, 5, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(20), requires_grad=True)
    conv_mib = 400 * 20 * 24 * 24 * 8 / 2 ** 20
    block_mib = T._BLOCK_VALUES * 8 / 2 ** 20
    with Tape() as tape:
        fwd_peak, held = traced_mib(lambda: T.conv2d(x, k, bias=b, pool=2))
    out_mib = 400 * 20 * 12 * 12 * 8 / 2 ** 20
    masks_mib = 4 * 400 * 20 * 12 * 12 / 2 ** 20
    assert held <= out_mib + masks_mib + 0.05
    assert fwd_peak <= out_mib + masks_mib + block_mib + 0.25 < conv_mib / 2
    (node,) = tape._nodes
    g = rng.standard_normal((400, 20, 12, 12))
    assert peak_mib(lambda: node.backward_fn(g)) <= block_mib + 0.25


def test_maxpool2d_never_holds_more_than_one_block_beside_its_arrays():
    # pool1 alone on LeNet's conv1 output, 200 rows. The forward holds the
    # pooled output and the first-max masks and, for the rest, one block;
    # the backward holds the input gradient and one block. Its select words
    # once spanned the whole pooled gradient (4.4 MiB)
    rng = np.random.default_rng(44)
    x = Tensor(rng.standard_normal((200, 20, 24, 24)), requires_grad=True)
    block_mib = T._BLOCK_VALUES * 8 / 2 ** 20
    with Tape() as tape:
        fwd_peak, held = traced_mib(lambda: T.maxpool2d(x, 2))
    out_mib = 200 * 20 * 12 * 12 * 8 / 2 ** 20
    masks_mib = 4 * 200 * 20 * 12 * 12 / 2 ** 20
    assert held <= out_mib + masks_mib + 0.05
    assert fwd_peak <= out_mib + masks_mib + block_mib + 0.25
    (node,) = tape._nodes
    g = rng.standard_normal((200, 20, 12, 12))
    assert peak_mib(lambda: node.backward_fn(g)) <= x.size * 8 / 2 ** 20 + block_mib + 0.25


@pytest.mark.parametrize("fused", [True, False], ids=["conv-pool", "maxpool2d"])
def test_recorded_lenet_pool_keeps_one_byte_per_pooled_value(fused):
    # pool1 on LeNet's conv1 output at 100 rows: a recorded forward holds
    # its pooled output and one byte per pooled value, the tap of each
    # window's first maximum, where four bool masks held four
    rng = np.random.default_rng(73)
    if fused:
        x = Tensor(rng.uniform(0.0, 1.0, (100, 1, 28, 28)))
        k = Tensor(rng.standard_normal((20, 1, 5, 5)), requires_grad=True)
        op = lambda: T.conv2d(x, k, pool=2)
    else:
        x = Tensor(rng.standard_normal((100, 20, 24, 24)), requires_grad=True)
        op = lambda: T.maxpool2d(x, 2)
    with Tape():
        _, held = traced_mib(op)
    pooled = 100 * 20 * 12 * 12
    assert held * 2 ** 20 <= pooled * (8 + 1) + 4096


def test_maxpool2d_of_windows_of_more_taps_than_a_byte_counts():
    # 16 x 16 windows have 256 taps, so their first-max taps and the no-
    # maximum mark take two bytes; ties and a NaN window route as argmax
    # and as a NaN window do
    rng = np.random.default_rng(74)
    x = np.round(rng.uniform(0.0, 1.0, (2, 1, 16, 32)), 1)
    x[1, 0, 3, 20] = np.nan
    xt = Tensor(x, requires_grad=True)
    with Tape():
        out = T.maxpool2d(xt, 16)
        g = rng.standard_normal(out.shape)
        loss = tsum(mul(out, Tensor(g)))
    T.backward(loss)
    want, gx = _tile_pool_oracle(np.nan_to_num(x, nan=-1.0), 16, g)
    want[1, 0, 0, 1] = np.nan
    gx[1, 0, :, 16:] = 0.0  # the NaN window: no tap equals its maximum
    assert np.array_equal(out.data, want, equal_nan=True) and np.array_equal(xt.grad, gx)


# ---------------------------------------------------------------------------
# elementwise suite


def test_scale_input_channels_at_ones_is_the_weight():
    rng = np.random.default_rng(5)
    for shape in [(2, 4, 3, 3), (12, 5)]:
        w = rng.standard_normal(shape)
        out = T.scale_input_channels(Tensor(w), Tensor(np.ones(4)))
        assert np.array_equal(out.data, w)


def test_scale_input_channels_one_hot_keeps_one_channel():
    rng = np.random.default_rng(6)
    s = np.zeros(4)
    s[1] = 1.0
    k = rng.standard_normal((2, 4, 3, 3)) + 5.0
    out = T.scale_input_channels(Tensor(k), Tensor(s)).data
    assert np.array_equal(out[:, 1], k[:, 1])
    assert np.all(out[:, [0, 2, 3]] == 0.0)
    w = rng.standard_normal((12, 5)) + 5.0  # four groups of three rows
    out = T.scale_input_channels(Tensor(w), Tensor(s)).data
    assert np.array_equal(out[3:6], w[3:6])
    assert np.all(out[:3] == 0.0) and np.all(out[6:] == 0.0)


@pytest.mark.parametrize("w_shape", [(2, 4, 3, 3), (12, 5)], ids=["conv", "fc"])
@pytest.mark.parametrize("r_shape", [(4,), (3, 4)], ids=["1-d", "3-rows"])
def test_scale_input_channels_row_grad_matches_fd(w_shape, r_shape):
    rng = np.random.default_rng(7)
    w, rows = rng.uniform(-2, 2, w_shape), rng.uniform(0.1, 2, r_shape)
    op = T.scale_input_channels
    g_out = rng.standard_normal(op(Tensor(w), Tensor(rows)).shape)
    g = _grad_of(op, (w, rows), wrt=1, out_reduce=lambda out: tsum(mul(out, Tensor(g_out))))
    fd = central_fd(lambda r: float((op(Tensor(w), Tensor(r)).data * g_out).sum()), rows)
    assert g.shape == rows.shape
    assert grad_err(g, fd) <= 1e-6


def _scale_input_channels_einsum(w, table, g):
    """The op's output and its (c, C) row gradient for the output gradient
    g, by einsum: a conv kernel's copies stacked on c_out, an fc weight's on
    d_out, its rows in C groups."""
    c, width = table.shape
    if w.ndim == 4:
        out = np.einsum("jc,ocab->jocab", table, w).reshape((-1,) + w.shape[1:])
        return out, np.einsum("jocab,ocab->jc", g.reshape((c,) + w.shape), w)
    groups = w.reshape(width, -1, w.shape[1])
    out = np.einsum("jc,crq->crjq", table, groups).reshape(w.shape[0], -1)
    return out, np.einsum("crjq,crq->jc", g.reshape(width, -1, c, w.shape[1]), groups)


@pytest.mark.parametrize("r_shape", [(4,), (1, 4), (3, 4)], ids=["1-d", "1-row", "3-rows"])
@pytest.mark.parametrize("w_shape,per", [
    ((6, 4, 3, 3), None),  # a conv kernel, C = c_in
    ((64, 5), None),  # an fc weight after a flatten: 4 channels of H*W = 16 rows
    ((64, 5), 3),  # the same, its row gradient in chunks of 3 and 1 channel groups
    ((64, 5), 1),  # one group a chunk
], ids=["conv", "fc", "fc-chunks-3-1", "fc-chunks-1"])
def test_scale_input_channels_equals_einsum_exactly_on_small_integers(w_shape, per, r_shape,
                                                                      monkeypatch):
    # on integers in [-8, 8] every product and sum is exact in any order
    rng = np.random.default_rng(43)
    w, rows = _small_ints(rng, w_shape), _small_ints(rng, r_shape)
    table = rows.reshape(-1, 4)
    if per is not None:  # per groups fit, per + 1 do not
        group = 16 * len(table) * 5  # values of one channel group of the stacked gradient
        monkeypatch.setattr(T, "_ROW_GRAD_VALUES", per * group + group - 1)
    leaf = Tensor(rows, requires_grad=True)
    with Tape():
        out = T.scale_input_channels(Tensor(w), leaf)
        g = _small_ints(rng, out.shape)
        loss = _seed(out, g)
    T.backward(loss)
    want, want_grad = _scale_input_channels_einsum(w, table, g)
    assert np.array_equal(out.data, want)
    assert leaf.grad.shape == rows.shape
    assert np.array_equal(leaf.grad.reshape(table.shape), want_grad)


def test_scale_input_channels_rejects_a_tracked_weight():
    # the op returns no weight gradient, so a tracked weight would lose it
    w = Tensor(np.ones((6, 4)), requires_grad=True)
    with pytest.raises(ContractError, match="tracked weight"):
        T.scale_input_channels(w, Tensor(np.ones(2)))


def test_scale_input_channels_mismatch():
    for w_shape, r_shape in [((2, 3, 1, 1), (4,)), ((10, 2), (4,)), ((8, 2), (2, 2, 2)),
                             ((8, 2, 1), (2,)), ((8, 2), (0,))]:
        with pytest.raises(ShapeError):
            T.scale_input_channels(Tensor(np.ones(w_shape)), Tensor(np.ones(r_shape)))


@pytest.mark.parametrize("op,n_args", [
    (add, 2), (mul, 2), (div, 2), (T.relu, 1), (softplus, 1), (tsum, 1),
])
def test_primitive_grads_match_fd(op, n_args):
    rng = np.random.default_rng(8)
    args = []
    for _ in range(n_args):
        a = rng.uniform(-2, 2, (3, 4))
        a[np.abs(a) < 0.05] = 0.1  # keep relu kink and div poles away
        args.append(a)
    if op is div:
        args[1] = np.sign(args[1]) * np.maximum(np.abs(args[1]), 0.5)
    for w in range(n_args):
        assert grad_err(_grad_of(op, args, w), _fd_of(op, args, w)) <= 1e-5


def test_reshape_and_flatten_grads():
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, (2, 3, 4))
    op = lambda t: T.reshape(t, (4, 6))
    assert grad_err(_grad_of(op, (x,), 0), _fd_of(op, (x,), 0)) <= 1e-5
    assert grad_err(_grad_of(T.flatten_batch, (x,), 0), _fd_of(T.flatten_batch, (x,), 0)) <= 1e-5


@pytest.mark.parametrize("op,shapes", [
    (lambda a, b, c: T.matmul(a, b, bias=c), [(3, 4), (4, 5), (5,)]),
    (lambda a, b, c: T.conv2d(a, b, padding=1, bias=c),
     [(1, 2, 5, 5), (3, 2, 3, 3), (3,)]),
], ids=["matmul", "conv2d"])
def test_bias_grads_match_fd(op, shapes):
    rng = np.random.default_rng(10)
    args = [rng.uniform(-2, 2, s) for s in shapes]
    for wrt in range(3):
        assert grad_err(_grad_of(op, args, wrt), _fd_of(op, args, wrt)) <= 1e-5, wrt


def test_bias_is_added_per_output_channel():
    rng = np.random.default_rng(21)
    a, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    assert np.array_equal(T.matmul(Tensor(a), Tensor(w), bias=Tensor(b)).data, a @ w + b)
    x, k, c = (rng.standard_normal((2, 3, 6, 6)), rng.standard_normal((4, 3, 3, 3)),
               rng.standard_normal(4))
    got = T.conv2d(Tensor(x), Tensor(k), padding=1, bias=Tensor(c)).data
    want = T.conv2d(Tensor(x), Tensor(k), padding=1).data + c[:, None, None]
    assert np.array_equal(got, want)
    with pytest.raises(ShapeError, match=r"bias must be \(4,\)"):
        T.conv2d(Tensor(x), Tensor(k), bias=Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match=r"bias must be \(2,\)"):
        T.matmul(Tensor(a), Tensor(w), bias=Tensor(np.zeros((1, 2))))


@pytest.mark.parametrize("op", [T.conv2d, T.matmul], ids=lambda op: op.__name__)
def test_bias_is_keyword_only(op):
    # the benchmark's trace hooks read conv2d's third positional argument
    # as the stride, so a bias passed by position would be misread there
    param = inspect.signature(op).parameters["bias"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY
    assert param.default is None


def test_conv2d_padding_is_keyword_only():
    # conv2d once took a stride before the padding: a call written for it,
    # conv2d(x, k, 1, 0), fails instead of padding by 1
    assert inspect.signature(T.conv2d).parameters["padding"].kind is \
        inspect.Parameter.KEYWORD_ONLY
    with pytest.raises(TypeError):
        T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), 1, 0)


def _maxpool_naive(x, k, stride, g):
    """Loop reference: each window's max, and its gradient routed to the first
    maximum in row-major window order, windows visited in row-major order."""
    n, c, h, w = x.shape
    h_out, w_out = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.zeros((n, c, h_out, w_out))
    gx = np.zeros_like(x)
    for a in range(n):
        for b in range(c):
            for r in range(h_out):
                for s in range(w_out):
                    top, left = r * stride, s * stride
                    bi, bj = 0, 0
                    for i in range(k):
                        for j in range(k):
                            if x[a, b, top + i, left + j] > x[a, b, top + bi, left + bj]:
                                bi, bj = i, j
                    out[a, b, r, s] = x[a, b, top + bi, left + bj]
                    gx[a, b, top + bi, left + bj] += g[a, b, r, s]
    return out, gx


def _tiles(hw, k, stride):
    """Whether the k x k windows at ``stride`` tile an input of ``hw``."""
    return stride == k and hw[0] % k == hw[1] % k == 0


# k x k windows at stride k tile (9, 12) at k = 3 and (10, 12) and (12, 12)
# at k = 2; (9, 11) at k = 2 and (10, 12) at k = 3 leave a last row over (H
# = k*H' + 1). The reference pool runs every case, maxpool2d each that tiles
@pytest.mark.parametrize("hw", [(9, 11), (10, 12), (9, 12), (12, 12)])
@pytest.mark.parametrize("k,stride", [(2, 2), (3, 2), (2, 1), (3, 3)])
def test_maxpool2d_matches_naive_loop_with_ties(k, stride, hw):
    _check_pool_against_naive_loop((2, 3) + hw, k, stride,
                                   lambda t: reference_maxpool2d(t, k, stride))
    if _tiles(hw, k, stride):
        _check_pool_against_naive_loop((2, 3) + hw, k, stride, lambda t: T.maxpool2d(t, k))


def _unit_conv_pool(k):
    """conv2d with a 1 x 1 kernel of 1.0 and ``pool=k``: on one channel, a
    max-pool of its input in the conv's row blocks, whose input gradient is
    the pool's, each entry times 1.0."""
    return lambda t: T.conv2d(t, Tensor(np.ones((1, 1, 1, 1))), pool=k)


def test_conv2d_pool_tiles_match_naive_loop_across_row_blocks(monkeypatch, conv_blocks):
    # a block budget of three rows' buffers (480 values a row for a 1 x 1
    # kernel on 8 x 12 pixels): 7 rows make blocks of 3, 3 and 1
    monkeypatch.setattr(T, "_BLOCK_VALUES", 3 * 480)
    _check_pool_against_naive_loop((7, 1, 8, 12), 2, 2, _unit_conv_pool(2))
    assert [stop - start for _, start, stop in conv_blocks] == [3, 3, 1] * 2


def test_maxpool2d_tiles_match_naive_loop_across_row_blocks(monkeypatch):
    # a block budget of three rows' tap-major copies (2 x 8 x 12 values):
    # 7 rows make blocks of 3, 3 and 1, all pooled by the conv's kernel
    monkeypatch.setattr(T, "_BLOCK_VALUES", 3 * 192)
    pooled = []
    kernel = T._pool_tiles

    def logged(block, *args):
        pooled.append(block.shape[0])
        kernel(block, *args)

    monkeypatch.setattr(T, "_pool_tiles", logged)
    _check_pool_against_naive_loop((7, 2, 8, 12), 2, 2, lambda t: T.maxpool2d(t, 2))
    assert pooled == [3, 3, 1] * 2  # the taped forward, then the untaped one


def _check_pool_against_naive_loop(x_shape, k, stride, op):
    rng = np.random.default_rng(18)
    # ReLU zeros and values rounded to 0.1 give many tied windows
    x = np.round(np.maximum(rng.standard_normal(x_shape), 0.0), 1)
    xt = Tensor(x, requires_grad=True)
    with Tape():
        out = op(xt)
        # gradients over 16 decades, so a different summation order shows
        g = rng.standard_normal(out.shape) * 10.0 ** rng.uniform(-8, 8, out.shape)
        loss = tsum(mul(out, Tensor(g)))
    T.backward(loss)
    ref_out, ref_gx = _maxpool_naive(x, k, stride, g)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(xt.grad, ref_gx)
    # an untaped forward keeps no masks
    assert np.array_equal(op(Tensor(x)).data, ref_out)


@pytest.mark.parametrize("k,stride", [(2, 2), (3, 2)])
def test_maxpool2d_sends_non_finite_gradient_to_the_maximum_only(k, stride):
    # the reference pool on windows that do not tile: a scatter over them
    _check_non_finite_pool_gradient((1, 2, 9, 11), k, stride,
                                    lambda t: reference_maxpool2d(t, k, stride))


@pytest.mark.parametrize("hw,k", [((8, 12), 2), ((9, 12), 3), ((9, 12), 2), ((10, 12), 3)],
                         ids=["tiles-2", "tiles-3", "row-over-2", "row-over-3"])
def test_maxpool2d_tiled_or_not_sends_non_finite_gradient_to_the_maximum_only(hw, k):
    # windows at stride k that tile the input, and one row left over (H =
    # k*H' + 1), which only the reference pool takes; maxpool2d raises there
    x_shape = (1, 2) + hw
    _check_non_finite_pool_gradient(x_shape, k, k, lambda t: reference_maxpool2d(t, k, k))
    if _tiles(hw, k, k):
        _check_non_finite_pool_gradient(x_shape, k, k, lambda t: T.maxpool2d(t, k))
    else:
        with pytest.raises(ContractError, match=f"pool window {k} does not tile"):
            T.maxpool2d(Tensor(np.zeros(x_shape)), k)


@pytest.mark.parametrize("hw,k", [((8, 12), 2), ((9, 12), 3)], ids=["tiles-2", "tiles-3"])
def test_conv2d_pool_sends_non_finite_gradient_to_the_first_maximum_only(hw, k):
    _check_non_finite_pool_gradient((2, 1) + hw, k, k, _unit_conv_pool(k), tied=True)


def _check_non_finite_pool_gradient(x_shape, k, stride, op, tied=False):
    rng = np.random.default_rng(19)
    x = rng.permutation(int(np.prod(x_shape))).astype(np.float64).reshape(x_shape)
    if tied:  # each value three times, so that windows tie
        x //= 3
    xt = Tensor(x, requires_grad=True)
    with Tape():
        out = op(xt)
        g = rng.standard_normal(out.shape)
        g.flat[::3] = np.inf
        g.flat[1::5] = np.nan
        loss = tsum(mul(out, Tensor(g)))
    T.backward(loss)
    _, ref_gx = _maxpool_naive(x, k, stride, g)
    assert np.array_equal(xt.grad, ref_gx, equal_nan=True)
    assert np.count_nonzero(xt.grad) <= out.data.size


def test_relu_sends_non_finite_gradient_to_active_units_only():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((4, 6))
    x[0, :2] = 0.0
    g = rng.standard_normal(x.shape)
    g.flat[::3] = np.inf
    g.flat[1::5] = np.nan
    xt = Tensor(x, requires_grad=True)
    with Tape():
        loss = _seed(T.relu(xt), g)
    T.backward(loss)
    assert np.array_equal(xt.grad, np.where(x > 0.0, g, 0.0), equal_nan=True)
    assert np.all(xt.grad[x <= 0.0] == 0.0)


@pytest.mark.parametrize("k", [2, 3])
def test_pool_then_relu_equals_relu_then_pool(k):
    # the two orders must agree bit for bit, forward and input gradient:
    # values rounded to 0.1 tie often, and the top-left windows are all
    # negative, where both orders must send no gradient at all
    rng = np.random.default_rng(23)
    x = np.round(rng.standard_normal((2, 3, 12, 12)), 1)
    x[:, :, :4, :4] = -np.abs(x[:, :, :4, :4]) - 0.1
    pool = lambda t: T.maxpool2d(t, k)
    results = []
    for ops in ((pool, T.relu), (T.relu, pool)):
        xt = Tensor(x, requires_grad=True)
        with Tape():
            h = xt
            for op in ops:
                h = op(h)
            g = np.random.default_rng(24).standard_normal(h.shape)
            g *= 10.0 ** np.random.default_rng(25).uniform(-8, 8, h.shape)
            g.flat[::7] = np.inf
            loss = _seed(h, g)
        T.backward(loss)
        results.append((h.data, xt.grad))
    (out_a, grad_a), (out_b, grad_b) = results
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(grad_a, grad_b)
    negative = 4 // k * k  # the rows and columns of the all-negative windows
    assert np.all(grad_a[:, :, :negative, :negative] == 0.0)


@pytest.mark.parametrize("k,hw", [(0, (4, 4)), (-1, (4, 4)), (3, (4, 4)), (2, (5, 4)),
                                  (2, (4, 5))],
                         ids=["0", "-1", "3-on-4x4", "2-on-5x4", "2-on-4x5"])
def test_maxpool2d_rejects_a_window_that_does_not_tile(k, hw):
    # a zero window used to raise a bare ZeroDivisionError, and one that
    # does not tile to pool the windows that fit, dropping the rest
    with pytest.raises(ContractError, match=rf"pool window {k} does not tile the input "
                                            rf"\({hw[0]}, {hw[1]}\)"):
        T.maxpool2d(Tensor(np.zeros((1, 1) + hw)), k)


def test_maxpool2d_forward_and_grad():
    # values spaced well apart so the argmax never flips under the FD step
    rng = np.random.default_rng(11)
    base = rng.permutation(16 * 6).astype(np.float64).reshape(1, 1, 8, 12) * 0.05
    op = lambda t: T.maxpool2d(t, 2)
    out = op(Tensor(base)).data
    assert out.shape == (1, 1, 4, 6)
    assert out[0, 0, 0, 0] == base[0, 0, :2, :2].max()
    assert grad_err(_grad_of(op, (base,), 0), _fd_of(op, (base,), 0)) <= 1e-5


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_cross_entropy_equal_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss = T.softmax_cross_entropy(logits, np.array([0, 1, 3]))
    assert abs(loss.item() - np.log(4.0)) <= 1e-12


def test_cross_entropy_confident_pair():
    loss = T.softmax_cross_entropy(Tensor(np.array([[10.0, -10.0]])), np.array([0]))
    assert abs(loss.item() - np.log1p(np.exp(-20.0))) <= 1e-15


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


def test_cross_entropy_rejects_float_labels_by_dtype():
    # 0.0 and 1.0 are in range; the error must say what is wrong with them
    for labels in (np.array([0.0, 1.0]), np.array([0.0, 1.0], dtype=np.float32),
                   np.array([True, False])):
        with pytest.raises(ContractError, match=f"labels must be integers, got dtype "
                                                f"{labels.dtype}"):
            T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), labels)
    for dtype in (np.uint8, np.int32, np.int64):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 2], dtype=dtype))


def test_cross_entropy_grad_matches_fd_and_formula():
    rng = np.random.default_rng(12)
    logits = rng.uniform(-2, 2, (5, 3))
    labels = rng.integers(0, 3, 5)
    t = Tensor(logits, requires_grad=True)
    with Tape():
        loss = T.softmax_cross_entropy(t, labels)
    T.backward(loss)
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.eye(3)[labels]
    assert np.allclose(t.grad, (p - onehot) / 5.0, atol=1e-12)
    fd = central_fd(lambda x: T.softmax_cross_entropy(Tensor(x), labels).item(), logits)
    assert grad_err(t.grad, fd) <= 1e-6


def test_cross_entropy_of_copies_is_the_sum_of_their_means():
    # three batches of four rows, interleaved: the loss sums their means, and
    # each row's gradient is the one its own batch's mean gives it
    rng = np.random.default_rng(13)
    logits = rng.uniform(-2, 2, (12, 3))
    labels = rng.integers(0, 3, 12)
    t = Tensor(logits, requires_grad=True)
    with Tape():
        loss = T.softmax_cross_entropy(t, labels, copies=3)
    T.backward(loss)
    parts = [(logits[j::3], labels[j::3]) for j in range(3)]
    assert loss.item() == pytest.approx(
        sum(T.softmax_cross_entropy(Tensor(z), y).item() for z, y in parts), rel=1e-14)
    for j, (z, y) in enumerate(parts):
        part = Tensor(z, requires_grad=True)
        with Tape():
            one = T.softmax_cross_entropy(part, y)
        T.backward(one)
        np.testing.assert_allclose(t.grad[j::3], part.grad, rtol=1e-14, atol=1e-16)
    with pytest.raises(ContractError, match="12 rows do not split into 5 equal batches"):
        T.softmax_cross_entropy(t, labels, copies=5)


# ---------------------------------------------------------------------------
# backward mechanics


def _switched_conv(rows, x):
    """x convolved with a fixed kernel whose input channels each row of
    ``rows`` scales, one output copy per row."""
    kernel = Tensor(np.linspace(-1.0, 1.0, 4 * 3 * 2 * 2).reshape(4, 3, 2, 2))
    return T.conv2d(x, T.scale_input_channels(kernel, rows))


_MULTI_INPUT_OPS = [
    (add, [(3, 4), (3, 4)]),
    (lambda a, b: T.conv2d(a, b), [(2, 3, 5, 5), (4, 3, 2, 2)]),
    (mul, [(3, 4), (3, 4)]),
    (div, [(3, 4), (3, 4)]),
    (T.matmul, [(3, 4), (4, 2)]),
    (lambda a, b: T.conv2d(a, b, padding=1), [(2, 3, 6, 6), (4, 3, 3, 3)]),
    (_switched_conv, [(2, 3), (2, 3, 5, 5)]),
    (lambda a, b, c: T.matmul(a, b, bias=c), [(3, 4), (4, 2), (2,)]),
    (lambda a, b, c: T.conv2d(a, b, padding=1, bias=c),
     [(2, 3, 6, 6), (4, 3, 3, 3), (4,)]),
]


@pytest.mark.parametrize("op,shapes", _MULTI_INPUT_OPS)
def test_gradients_of_any_input_subset_match_all_inputs_run(op, shapes):
    rng = np.random.default_rng(19)
    args = [rng.uniform(0.5, 2.0, s) for s in shapes]  # away from div's pole

    def grads(wanted):
        tensors = [Tensor(a, requires_grad=i in wanted) for i, a in enumerate(args)]
        with Tape():
            out = op(*tensors)
            loss = tsum(mul(out, Tensor(np.linspace(-1.0, 1.0, out.size).reshape(out.shape))))
        T.backward(loss)
        return [t.grad for t in tensors]

    full = grads(set(range(len(args))))
    for wanted in ({i} for i in range(len(args))):
        got = grads(wanted)
        for i in range(len(args)):
            if i in wanted:
                assert np.array_equal(got[i], full[i]), (wanted, i)
            else:
                assert got[i] is None


@pytest.mark.parametrize("op,shapes", [_MULTI_INPUT_OPS[i] for i in (4, 5, 7, 8)])
def test_frozen_weight_gets_no_gradient_computed(op, shapes):
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal(shapes[0]), requires_grad=True)
    frozen = [Tensor(rng.standard_normal(s)) for s in shapes[1:]]  # weight, bias
    with Tape() as tape:
        out = op(x, *frozen)
    (node,) = tape._nodes
    grad_x, *frozen_grads = node.backward_fn(np.ones(out.shape))
    assert frozen_grads == [None] * len(frozen)
    assert grad_x.shape == x.shape


def test_backward_linear():
    x = Tensor(np.asarray(2.0), requires_grad=True)
    with Tape():
        y = mul(Tensor(np.asarray(3.0)), x)
    T.backward(y)
    assert x.grad == 3.0


def test_backward_square():
    x = Tensor(np.asarray(5.0), requires_grad=True)
    with Tape():
        y = mul(x, x)
    T.backward(y)
    assert x.grad == 10.0


def test_backward_consumes_the_tape():
    # recorded Tensors point at their tape, and mul's closure on the tape
    # holds relu's recorded output; backward must break that cycle, so the
    # tape dies by reference counting
    gc.disable()
    try:
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(T.relu(x), x))
        ref = weakref.ref(tape)
        T.backward(loss)
        assert np.array_equal(x.grad, 2.0 * np.arange(1.0, 4.0))
        assert len(tape) == 0
        with pytest.raises(ContractError, match="already consumed"):
            T.backward(loss)
        del tape, loss
        assert ref() is None
    finally:
        gc.enable()


def test_backward_frees_each_node_as_it_goes():
    # each node leaves the tape before its backward runs, so what a later
    # node saved is gone by the time an earlier node's backward runs
    late, alive_then = [], []

    def scale_by_fresh_array(t):
        saved = np.full(t.shape, 2.0)
        late.append(weakref.ref(saved))
        return _record(Tensor(t.data * saved), (t,), lambda g: (g * saved,))

    def probe(t):
        def bwd(g):
            alive_then.append(late[0]() is not None)
            return (g,)
        return _record(Tensor(t.data.copy()), (t,), bwd)

    gc.disable()
    try:
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        with Tape():
            loss = tsum(scale_by_fresh_array(probe(x)))
        T.backward(loss)
    finally:
        gc.enable()
    assert alive_then == [False]
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_recorded_conv_and_pool_outputs_die_with_the_forward():
    # max-pool keeps its first-max masks, not its input, and no node keeps
    # its output, so each activation dies once the next op has run
    gc.disable()
    try:
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 1, 8, 8)))
        kernel = Tensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True)
        with Tape():
            conv = T.conv2d(x, kernel)
            pooled = T.maxpool2d(conv, 2)
            refs = [weakref.ref(conv.data), weakref.ref(pooled.data)]
            del conv
            act = T.relu(pooled)
            del pooled
            loss = tsum(act)
        alive = [r() is not None for r in refs]
        T.backward(loss)
    finally:
        gc.enable()
    assert alive == [False, False]
    expected = _grad_of(lambda k: tsum(T.relu(T.maxpool2d(T.conv2d(x, k), 2))),
                        [kernel.data], 0)
    assert np.array_equal(kernel.grad, expected)


def test_backward_routes_by_slot_through_freed_intermediates():
    # reshape and relu keep no Tensor, so each intermediate below dies as
    # soon as the next op has run and CPython may hand its id to a later
    # one: gradients must go by tape slot, not by id
    x = Tensor(np.array([-2.0, 1.0, 3.0, -1.0, 5.0, 0.5]), requires_grad=True)
    w = Tensor(np.arange(1.0, 7.0))
    with Tape():
        h = x
        for shape in [(2, 3), (6,), (3, 2), (6,)]:
            h = T.relu(T.reshape(h, shape))
        loss = tsum(mul(h, w))
    T.backward(loss)
    assert np.array_equal(x.grad, np.where(x.data > 0.0, w.data, 0.0))


_C1, _C2 = np.array([1.5, -2.0, 0.25]), np.array([0.5, 3.0, -1.0])


def _two_route_graph(on_leaf=None):
    """Backward of loss = sum((x * c1 + x * c2) * w) and of an op on u that
    the loss does not use: two early recorded ops route to x, one late op to
    w, and no path from the loss leads to u. Returns the leaves (x, w, u)."""
    x = Tensor(np.array([2.0, -1.0, 4.0]), requires_grad=True)
    w = Tensor(np.array([-3.0, 0.5, 2.0]), requires_grad=True)
    u = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape():
        dead = mul(u, u)  # noqa: F841 - on the tape, off every path to the loss
        loss = tsum(mul(add(mul(x, Tensor(_C1)), mul(x, Tensor(_C2))), w))
    leaves = (x, w, u)
    T.backward(loss, on_leaf=None if on_leaf is None
               else lambda t, rows, g: on_leaf(t, rows, g, leaves))
    return leaves


def test_backward_hands_a_leaf_over_once_after_its_last_route():
    # w's only route is the late mul, so it is handed over while x still
    # waits for the two earlier ones; x then comes once, with their sum.
    # Neither takes a .grad: the callback has the gradient
    handed = []
    x, w, u = _two_route_graph(lambda t, rows, g, leaves: handed.append(
        (t, rows, g.copy(), [v.grad is None for v in leaves])))
    assert [t for t, _, _, _ in handed] == [w, x]
    assert [rows for _, rows, _, _ in handed] == [..., ...]
    assert all(flags == [True, True, True] for _, _, _, flags in handed)
    assert np.array_equal(handed[1][2], w.data * _C1 + w.data * _C2)
    assert np.array_equal(handed[0][2], x.data * _C1 + x.data * _C2)


def test_backward_never_hands_over_a_leaf_no_path_reaches():
    handed = []
    x, w, u = _two_route_graph(lambda t, rows, g, leaves: handed.append(t))
    assert u not in handed and len(handed) == 2
    assert u.grad is None


def test_backward_without_a_callback_sets_grad_as_with_one():
    # the callback takes each gradient that .grad would otherwise sum; a
    # gradient already on a leaf is added to only without one
    handed = {}
    plain = _two_route_graph()
    _two_route_graph(lambda t, rows, g, leaves: handed.setdefault(leaves.index(t), g))
    for i, t in enumerate(plain):
        assert (t.grad is None and i not in handed) or np.array_equal(t.grad, handed[i])
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    x.grad = np.array([10.0, 20.0])
    with Tape():
        loss = tsum(mul(x, x))
    T.backward(loss)
    assert np.array_equal(x.grad, np.array([14.0, 18.0]))
    x.grad, handed = np.array([10.0, 20.0]), []
    with Tape():
        loss = tsum(mul(x, x))
    T.backward(loss, on_leaf=lambda t, rows, g: handed.append(g))
    assert np.array_equal(x.grad, [10.0, 20.0]) and np.array_equal(handed, [[4.0, -2.0]])
    bare, handed = Tensor(np.asarray(3.0), requires_grad=True), []
    T.backward(bare, on_leaf=lambda t, rows, g: handed.append((t, rows, g)))  # its own loss
    assert handed == [(bare, ..., 1.0)] and bare.grad is None


def test_backward_hands_a_sole_route_weight_over_in_row_blocks(monkeypatch):
    # w (9 x 5) feeds one matmul, so it goes over in row blocks of 3 rows,
    # in order; v feeds two, so its sum goes over once, whole, and so does
    # x. The handed gradients are the ones .grad takes without a callback
    monkeypatch.setattr(T, "_ROW_TILE", 3)
    monkeypatch.setattr(T, "_ROW_GRAD_VALUES", 15)
    monkeypatch.setattr(T, "_ROW_MACS", 1)
    rng = np.random.default_rng(71)
    arrays = [rng.standard_normal(shape) for shape in ((4, 9), (9, 5), (5, 5))]
    labels = np.array([0, 1, 2, 3])

    def sweep(on_leaf=None):
        x, w, v = (Tensor(a, requires_grad=True) for a in arrays)
        with Tape():
            loss = T.softmax_cross_entropy(T.matmul(T.matmul(T.matmul(x, w), v), v), labels)
        T.backward(loss, on_leaf=on_leaf)
        return x, w, v

    handed = []
    x, w, v = sweep(lambda t, rows, g: handed.append((t, rows, g)))
    assert [(t, rows) for t, rows, _ in handed] == [
        (v, ...), (w, slice(0, 3)), (w, slice(3, 6)), (w, slice(6, 9)), (x, ...)]
    assert all(t.grad is None for t in (x, w, v))
    plain = sweep()
    assert np.array_equal(handed[0][2], plain[2].grad)
    assert np.array_equal(np.concatenate([g for t, _, g in handed if t is w]), plain[1].grad)
    assert np.array_equal(handed[-1][2], plain[0].grad)


def _check_row_blocks_bitwise(d_in, d_out):
    """The row blocks of a (d_in, d_out) weight gradient, at a batch of 100
    rows and at ragged last batches, cover it once, in order, each the rows
    of the whole product bit for bit."""
    for n in (100, 64, 37, 7, 1):
        rng = np.random.default_rng(d_in + d_out + n)
        a = rng.standard_normal((n, d_in))
        g = rng.standard_normal((n, d_out)) * 10.0 ** rng.uniform(-8, 8, (n, d_out))
        grad = T._WeightGrad(a, g)
        whole, blocks = grad.whole(), list(grad.blocks())
        assert [rows.start for rows, _ in blocks] == [0] + [rows.stop for rows, _ in blocks[:-1]]
        assert blocks[-1][0].stop == d_in
        for rows, block in blocks:
            assert np.array_equal(block, whole[rows]), (n, rows)
        if n == 100:  # a LeNet batch: blocks of a budget's values, rounded up to the grid
            assert len(blocks) > 2
            assert max(b.size for _, b in blocks) <= T._ROW_GRAD_VALUES + T._ROW_TILE * d_out


@pytest.mark.parametrize("d_in,d_out", [(800, 800), (800, 500), (1000, 250)],
                         ids=["lenet-fc1", "lenet-fc2", "mlp-finetune"])
def test_weight_gradient_row_blocks_equal_the_whole_product_bitwise(d_in, d_out):
    # with one BLAS thread, as the benchmark runs
    in_one_blas_thread("test_tensor", "_check_row_blocks_bitwise", d_in, d_out)


def test_a_weight_of_fewer_values_than_a_block_goes_over_whole():
    # so train_model's small parameters, stepped after the sweep, come
    # whole; a weight of _ROW_GRAD_VALUES values goes over in row blocks
    rng = np.random.default_rng(72)
    for d_in, d_out in ((500, 10), (4, 16383), (16383, 4), (255, 257), (256, 256)):
        x = Tensor(rng.standard_normal((100, d_in)))
        w = Tensor(rng.standard_normal((d_in, d_out)), requires_grad=True)
        with Tape():
            loss = T.softmax_cross_entropy(T.matmul(x, w), np.zeros(100, dtype=np.int64))
        handed = []
        T.backward(loss, on_leaf=lambda t, rows, g: handed.append(rows))
        assert (handed == [...]) == (w.size < T._ROW_GRAD_VALUES)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        y = mul(x, x)
        with pytest.raises(ContractError):
            T.backward(y)


def test_grad_accumulation_is_additive():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(4)
    c1 = rng.standard_normal(4)
    c2 = rng.standard_normal(4)

    def run(*terms):
        t = Tensor(x, requires_grad=True)
        with Tape():
            parts = [tsum(mul(t, Tensor(c))) for c in terms]
            loss = parts[0] if len(parts) == 1 else add(parts[0], parts[1])
        T.backward(loss)
        return t.grad

    both = run(c1, c2)
    assert np.array_equal(both, run(c1) + run(c2))
    assert np.array_equal(both, c1 + c2)


def test_two_layer_mlp_grads_match_fd():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((6, 5))
    labels = rng.integers(0, 3, 6)
    params = {
        "w1": rng.standard_normal((5, 4)) * 0.7,
        "b1": rng.standard_normal(4) * 0.3,
        "w2": rng.standard_normal((4, 3)) * 0.7,
        "b2": rng.standard_normal(3) * 0.3,
    }

    def loss_value(p):
        h = T.matmul(Tensor(x), Tensor(p["w1"]), bias=Tensor(p["b1"]))
        z = T.matmul(T.relu(h), Tensor(p["w2"]), bias=Tensor(p["b2"]))
        return T.softmax_cross_entropy(z, labels).item()

    tensors = {n: Tensor(v, requires_grad=True) for n, v in params.items()}
    with Tape():
        h = T.matmul(Tensor(x), tensors["w1"], bias=tensors["b1"])
        z = T.matmul(T.relu(h), tensors["w2"], bias=tensors["b2"])
        loss = T.softmax_cross_entropy(z, labels)
    T.backward(loss)
    for name in params:
        def f(v, name=name):
            q = dict(params)
            q[name] = v
            return loss_value(q)

        assert grad_err(tensors[name].grad, central_fd(f, params[name])) <= 1e-5, name


def test_forward_values_independent_of_requires_grad():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))

    def run(track):
        t = Tensor(w, requires_grad=track)
        with Tape():
            out = T.relu(T.matmul(Tensor(x), t))
        return out.data

    assert np.array_equal(run(False), run(True))


def test_forward_outputs_finite():
    rng = np.random.default_rng(16)
    x = Tensor(rng.uniform(-2, 2, (4, 4)))
    image = Tensor(rng.uniform(-2, 2, (1, 4, 4, 4)))
    # logits of size 1e3 overflow exp unless the loss shifts by the maximum
    outs = [T.matmul(x, x), T.relu(x), T.flatten_batch(image),
            T.scale_input_channels(x, Tensor(np.arange(4.0))),
            T.matmul(x, x, bias=Tensor(np.arange(4.0))), T.maxpool2d(image, 2),
            T.softmax_cross_entropy(Tensor(1e3 * x.data), np.arange(4))]
    for o in outs:
        assert np.all(np.isfinite(o.data))
