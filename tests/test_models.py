"""Model graphs: builders, forward, counting conventions, DPM1 serialization."""

import copy
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from dirichlet_pruning.errors import ContractError, FormatError, NumericError, ShapeError
from dirichlet_pruning.models import (Conv2d, Flatten, FullyConnected,
                                      MaxPool2d, ModelGraph, Relu, TrainSchedule,
                                      build_lenet5, build_mlp,
                                      count_flops, count_params, evaluate,
                                      forward, load_model, propagate_shapes,
                                      prunable_indices, prunable_widths,
                                      save_model, switch_consumers,
                                      train_model, validate_model)
from dirichlet_pruning import models as M
from dirichlet_pruning import tensor as T
from dirichlet_pruning.switch import (SwitchTrainSchedule, init_switch_states,
                                      neg_elbo_and_grads, train_switches)
from dirichlet_pruning.synthetic import gen_synthetic
from dirichlet_pruning.tensor import Tape, Tensor

from conftest import in_one_blas_thread, peak_mib
from tape_ops import mul


def _fc_only(d_in=4, d_out=3):
    layers = [FullyConnected(d_in, d_out)]
    weights = {"layer0.weight": np.arange(d_in * d_out, dtype=np.float64).reshape(d_in, d_out),
               "layer0.bias": np.ones(d_out)}
    return ModelGraph(layers, weights, (d_in,))


def _conv_only(c_in, c_out, k, hw):
    layers = [Conv2d(c_in, c_out, k, k)]
    weights = {"layer0.weight": np.ones((c_out, c_in, k, k)),
               "layer0.bias": np.zeros(c_out)}
    return ModelGraph(layers, weights, (c_in, hw, hw))


# ---------------------------------------------------------------------------
# builders


def test_lenet_full_widths_builds_and_runs():
    model = build_lenet5([20, 50, 800, 500], rng=np.random.default_rng(0))
    validate_model(model)
    out = forward(model, np.zeros((1, 1, 28, 28)))
    assert out.shape == (1, 10)


def test_lenet_arch_string():
    model = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(0))
    assert model.arch_string == "6-8-40-20"
    assert prunable_widths(model) == [6, 8, 40, 20]


def test_lenet_minimum_widths():
    model = build_lenet5([1, 1, 1, 1], rng=np.random.default_rng(0))
    out = forward(model, np.zeros((2, 1, 28, 28)))
    assert out.shape == (2, 10)


def test_lenet_structure():
    model = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(0))
    kinds = [type(l) for l in model.layers]
    assert kinds == [Conv2d, MaxPool2d, Relu, Conv2d, MaxPool2d, Relu, Flatten,
                     FullyConnected, Relu, FullyConnected, Relu, FullyConnected]
    assert prunable_indices(model) == [0, 3, 7, 9]
    assert switch_consumers(model) == [3, 7, 9, 11]


def test_lenet_in_the_relu_then_pool_order_gives_identical_logits(tmp_path):
    # a graph written before the pool moved ahead of the ReLU: its linear
    # layers keep their indices, so the same weights load and run unchanged,
    # and train to the same weight gradients bit for bit
    model = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for n, w in model.weights.items():  # nonzero biases too
        model.weights[n] = w + 0.05 * rng.standard_normal(w.shape)
    old = copy.deepcopy(model)
    for i in (1, 4):
        old.layers[i], old.layers[i + 1] = old.layers[i + 1], old.layers[i]
    assert [type(l) for l in old.layers[:6]] == [Conv2d, Relu, MaxPool2d] * 2
    save_model(old, tmp_path / "old.dpm1")
    loaded = load_model(tmp_path / "old.dpm1")
    assert loaded.layers == old.layers
    x = rng.standard_normal((4, 1, 28, 28))
    want = forward(model, x).data
    assert np.array_equal(forward(loaded, x).data, want)

    def weight_grads(m):
        params = {n: Tensor(w, requires_grad=True) for n, w in m.weights.items()}
        with Tape():
            loss = T.softmax_cross_entropy(forward(m, x, params=params), np.arange(4))
        T.backward(loss)
        return {n: p.grad for n, p in params.items()}

    new_grads, old_grads = weight_grads(model), weight_grads(old)
    for n in model.weights:
        assert np.array_equal(old_grads[n], new_grads[n]), n


def test_lenet_bad_widths():
    with pytest.raises(ContractError):
        build_lenet5([6, 8, 40], rng=np.random.default_rng(0))
    with pytest.raises(ContractError):
        build_lenet5([0, 8, 40, 20], rng=np.random.default_rng(0))


def test_builders_deterministic_given_seeded_rng():
    a = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(42))
    b = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(42))
    for name in a.weights:
        assert np.array_equal(a.weights[name], b.weights[name])


def test_builder_seed_recorded():
    model = build_mlp(5, 4, 2, rng=np.random.default_rng(3), seed=17)
    assert model.metadata["seed"] == 17
    assert model.metadata["training_history"] == []


def test_mlp_configurations():
    for d_x, d_h in [(100, 20), (1000, 500)]:
        model = build_mlp(d_x, d_h, 2, rng=np.random.default_rng(0))
        assert prunable_widths(model) == [d_h]
        out = forward(model, np.zeros((3, d_x)))
        assert out.shape == (3, 2)


def test_mlp_zero_weights_uniform_logits():
    model = build_mlp(6, 5, 3, rng=np.random.default_rng(0))
    for name in model.weights:
        model.weights[name] = np.zeros_like(model.weights[name])
    out = forward(model, np.random.default_rng(1).standard_normal((4, 6)))
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_mlp_bad_dims():
    with pytest.raises(ContractError):
        build_mlp(0, 5, 2)


# ---------------------------------------------------------------------------
# shape propagation


def test_propagate_shapes_lenet():
    model = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(0))
    shapes = propagate_shapes(model.layers, (1, 28, 28))
    assert shapes[0] == (6, 24, 24)
    assert shapes[2] == (6, 12, 12)
    assert shapes[3] == (8, 8, 8)
    assert shapes[5] == (8, 4, 4)
    assert shapes[6] == (128,)
    assert shapes[-1] == (10,)


def test_propagate_shapes_errors_name_layer():
    with pytest.raises(ShapeError) as e:
        propagate_shapes([Conv2d(1, 1, 5, 5)], (1, 3, 3))
    assert "layer 0" in str(e.value)
    with pytest.raises(ShapeError) as e:
        propagate_shapes([Conv2d(1, 2, 3, 3), FullyConnected(10, 4)], (1, 8, 8))
    assert "layer 1" in str(e.value)
    with pytest.raises(ShapeError):
        propagate_shapes([Conv2d(3, 4, 3, 3)], (1, 8, 8))  # channel mismatch


def test_validate_model_missing_weight():
    model = _fc_only()
    del model.weights["layer0.bias"]
    with pytest.raises(ShapeError):
        validate_model(model)


# ---------------------------------------------------------------------------
# forward semantics


def test_switch_at_ones_is_identity():
    model = build_lenet5([3, 4, 10, 6], rng=np.random.default_rng(5))
    x = np.random.default_rng(6).standard_normal((2, 1, 28, 28))
    plain = forward(model, x).data
    ones = {o: np.ones(w) for o, w in enumerate(prunable_widths(model))}
    assert np.array_equal(forward(model, x, switches=ones).data, plain)
    # missing switch entries act as identity too
    assert np.array_equal(forward(model, x, switches={}).data, plain)


def test_forward_layer_range_composes_to_full_graph():
    model = build_lenet5([3, 4, 10, 6], rng=np.random.default_rng(10))
    x = np.random.default_rng(11).standard_normal((2, 1, 28, 28))
    rng = np.random.default_rng(12)
    switches = {o: rng.dirichlet(np.ones(w)) for o, w in enumerate(prunable_widths(model))}
    full = forward(model, x, switches=switches).data
    for cut in (1, 3, 6, 7, len(model.layers)):
        head = forward(model, x, switches=switches, stop=cut)
        tail = forward(model, head, switches=switches, start=cut)
        assert np.array_equal(tail.data, full), cut
    with pytest.raises(ContractError):
        forward(model, x, start=3, stop=2)
    with pytest.raises(ContractError):
        forward(model, x, stop=len(model.layers) + 1)


def test_forward_pools_inside_each_conv_unless_a_stop_or_relu_splits_them(monkeypatch):
    # LeNet's two convs run with their pools as one op; a stop between a conv
    # and its pool, or a ReLU between them, runs them as separate ops, with
    # the same loss and weight gradients bit for bit
    model = build_lenet5([3, 4, 10, 6], rng=np.random.default_rng(15))
    rng = np.random.default_rng(16)
    for n, w in model.weights.items():  # nonzero biases too
        model.weights[n] = w + 0.05 * rng.standard_normal(w.shape)
    old = copy.deepcopy(model)  # conv, relu, pool: the older order
    for i in (1, 4):
        old.layers[i], old.layers[i + 1] = old.layers[i + 1], old.layers[i]
    x, y = np.round(rng.standard_normal((5, 1, 28, 28)), 1), np.arange(5)
    calls = []
    for op in ("conv2d", "maxpool2d"):
        def logged(*args, _op=getattr(T, op), _name=op, **kwargs):
            calls.append((_name, kwargs.get("pool")))
            return _op(*args, **kwargs)
        monkeypatch.setattr(T, op, logged)

    def run(m, cut):
        params = {n: Tensor(w, requires_grad=True) for n, w in m.weights.items()}
        calls.clear()
        with Tape():
            h = forward(m, x, params=params, stop=cut)
            loss = T.softmax_cross_entropy(forward(m, h, params=params, start=cut), y)
        T.backward(loss)
        return loss.item(), {n: p.grad for n, p in params.items()}, list(calls)

    fused_loss, fused_grads, fused_calls = run(model, 0)
    assert fused_calls == [("conv2d", 2)] * 2
    for m, cut in ((model, 1), (model, 4), (old, 0)):
        loss, grads, ops = run(m, cut)
        assert ("maxpool2d", None) in ops and ("conv2d", None) in ops
        assert loss == fused_loss
        for n in model.weights:
            assert np.array_equal(grads[n], fused_grads[n]), (cut, n)


def _activation_scaling_forward(model, x, switches):
    """The forward before switches were folded into weights: switch o
    multiplies the activations leaving prunable layer o, channel by channel."""
    ordinal_of = {gi: o for o, gi in enumerate(prunable_indices(model))}
    h = T._lift(x)
    for i, spec in enumerate(model.layers):
        w = T._lift(model.weights.get(f"layer{i}.weight", np.zeros(0)))
        b = T._lift(model.weights.get(f"layer{i}.bias", np.zeros(0)))
        if isinstance(spec, Conv2d):
            h = T.conv2d(h, w, padding=spec.pad, bias=b)
        elif isinstance(spec, FullyConnected):
            h = T.matmul(h, w, bias=b)
        elif isinstance(spec, Relu):
            h = T.relu(h)
        elif isinstance(spec, MaxPool2d):
            h = T.maxpool2d(h, spec.k)
        elif isinstance(spec, Flatten):
            h = T.flatten_batch(h)
        if ordinal_of.get(i) in switches:
            s = T._lift(switches[ordinal_of[i]])
            h = mul(h, T.reshape(s, (1, s.shape[0]) + (1,) * (h.ndim - 2)))
    return h


def _dirichlet_switch_cases():
    rng = np.random.default_rng(14)
    lenet = build_lenet5([3, 4, 10, 6], rng=rng)
    mlp = build_mlp(7, 9, 3, rng=rng)
    for model, x in ((lenet, rng.standard_normal((3, 1, 28, 28))),
                     (mlp, rng.standard_normal((5, 7)))):
        switches = {o: rng.dirichlet(np.full(w, 0.7))
                    for o, w in enumerate(prunable_widths(model))}
        yield model, x, switches


def test_folded_switches_match_activation_scaling_oracle():
    for model, x, switches in _dirichlet_switch_cases():
        want = _activation_scaling_forward(model, x, switches).data
        np.testing.assert_allclose(forward(model, x, switches=switches).data, want,
                                   rtol=1e-12, atol=0)
        # every split point: a switch before the cut still scales its
        # consumer after it, and one whose consumer is later waits for it
        for cut in range(len(model.layers) + 1):
            head = forward(model, x, switches=switches, stop=cut)
            tail = forward(model, head, switches=switches, start=cut)
            np.testing.assert_allclose(tail.data, want, rtol=1e-12, atol=0, err_msg=str(cut))


def test_folded_switch_gradients_match_activation_scaling_oracle():
    for model, x, switches in _dirichlet_switch_cases():
        y = np.arange(x.shape[0]) % 3
        grads = []
        for run in (forward, _activation_scaling_forward):
            leaves = {i: Tensor(s, requires_grad=True) for i, s in switches.items()}
            with Tape():
                loss = T.softmax_cross_entropy(run(model, x, switches=leaves), y)
            T.backward(loss)
            grads.append({i: leaf.grad for i, leaf in leaves.items()})
        for i in switches:
            np.testing.assert_allclose(grads[0][i], grads[1][i], rtol=1e-12, atol=0)


def test_forward_rejects_negative_switch_entry():
    model = build_mlp(5, 4, 2, rng=np.random.default_rng(15))
    x = np.random.default_rng(16).standard_normal((3, 5))
    with pytest.raises(ContractError, match="switch 0 has a negative entry"):
        forward(model, x, switches={0: np.array([0.5, 0.6, -0.2, 0.1])})
    forward(model, x, switches={0: np.array([0.5, 0.5, 0.0, 0.0])})


@pytest.mark.parametrize("ordinal,length", [(0, 2), (1, 2), (1, 8), (2, 4)],
                         ids=["conv-consumer", "fc-after-flatten-2", "fc-after-flatten-8",
                              "fc-consumer"])
def test_forward_rejects_switch_of_another_width_than_its_producer(ordinal, length):
    # LeNet [3, 4, 10, 6]: conv1's switch scales conv2's 3 input channels,
    # conv2's fc1's 64 rows in 4 groups of 16, fc1's fc2's 10 rows. A length
    # that divides the rows (2 or 8 of 64) would fold without the check
    model = build_lenet5([3, 4, 10, 6], rng=np.random.default_rng(17))
    x = np.random.default_rng(18).standard_normal((2, 1, 28, 28))
    for s in (np.full(length, 1.0 / length), np.full((3, length), 1.0 / length)):
        with pytest.raises(ShapeError):
            forward(model, x, switches={ordinal: s})


def test_forward_runs_each_row_of_a_switch_on_every_batch_row():
    # a (c, C) switch: output row n * c + j is batch row n under row j
    rng = np.random.default_rng(19)
    model = build_lenet5([3, 4, 10, 6], rng=rng)
    x = rng.standard_normal((2, 1, 28, 28))
    for o, width in enumerate(prunable_widths(model)):
        rows = rng.dirichlet(np.ones(width), size=3)
        got = forward(model, x, switches={o: rows}).data
        assert got.shape == (6, 10)
        for j in range(3):
            np.testing.assert_allclose(got[j::3], forward(model, x, switches={o: rows[j]}).data,
                                       rtol=1e-10, atol=1e-12, err_msg=f"switch {o}, row {j}")


def test_forward_rejects_a_tracked_parameter_that_a_switch_would_drop():
    # the fold returns no weight gradient, and a tiled bias no bias gradient
    model = build_mlp(5, 4, 2, rng=np.random.default_rng(15))
    x = np.random.default_rng(16).standard_normal((3, 5))
    tracked = {n: Tensor(w, requires_grad=True) for n, w in model.weights.items()}
    rows = np.full((3, 4), 0.25)
    with pytest.raises(ContractError, match="bias is tracked"):
        forward(model, x, switches={0: rows}, params={"layer2.bias": tracked["layer2.bias"]})
    with pytest.raises(ContractError, match="tracked weight"):
        forward(model, x, switches={0: rows[0]}, params=tracked)
    forward(model, x, switches={0: rows[:1]}, params={"layer2.bias": tracked["layer2.bias"]})


@pytest.mark.parametrize("key", [1, 4, -1, "0"])
def test_forward_rejects_switch_key_that_is_no_ordinal(key):
    # a graph index or a string must not be dropped as if it were identity
    model = build_mlp(5, 4, 2, rng=np.random.default_rng(15))
    x = np.random.default_rng(16).standard_normal((3, 5))
    with pytest.raises(ContractError, match=fr"switch key {key!r} is not a prunable "
                                            r"ordinal in range\(1\)"):
        forward(model, x, switches={key: np.full(4, 0.25)})


def test_forward_rejects_bad_rank():
    model = build_mlp(5, 4, 2, rng=np.random.default_rng(9))
    with pytest.raises(ShapeError):
        forward(model, np.zeros(5))


# ---------------------------------------------------------------------------
# counting (convention: multiplicative weight elements; one MAC per element
# application, linear layers only)


def test_count_params_fc():
    assert count_params(_fc_only(4, 3)) == 12


def test_count_params_conv():
    assert count_params(_conv_only(3, 8, 5, 28)) == 600


def test_count_params_enumeration_identity():
    model = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(10))
    total = sum(v.size for k, v in model.weights.items()
                if k.endswith(".weight") or k.endswith(".scale"))
    assert count_params(model) == total


def test_count_flops_fc():
    assert count_flops(_fc_only(4, 3)) == 12


def test_count_flops_conv_single():
    assert count_flops(_conv_only(1, 1, 3, 3)) == 9


def test_lenet_pinned_counts():
    small = build_lenet5([6, 8, 40, 20], rng=np.random.default_rng(11))
    assert count_params(small) == 7470
    assert count_flops(small) == 169_320
    parent = build_lenet5([20, 50, 800, 500], rng=np.random.default_rng(11))
    assert count_params(parent) == 1_070_500
    assert count_flops(parent) == 2_933_000


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    model = build_lenet5([3, 4, 10, 6], rng=np.random.default_rng(13), seed=13)
    train_x = np.random.default_rng(14).standard_normal((2, 1, 28, 28))
    before = forward(model, train_x).data
    p = tmp_path / "model.dpm1"
    save_model(model, p)
    loaded = load_model(p)
    assert [type(l) for l in loaded.layers] == [type(l) for l in model.layers]
    assert loaded.input_shape == model.input_shape
    assert loaded.metadata["seed"] == 13
    for name in model.weights:
        assert np.array_equal(loaded.weights[name], model.weights[name])
    assert np.array_equal(forward(loaded, train_x).data, before)


def test_save_load_save_identical_bytes(tmp_path):
    model = build_mlp(7, 5, 3, rng=np.random.default_rng(15), seed=15)
    p1 = tmp_path / "a.dpm1"
    p2 = tmp_path / "b.dpm1"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    model = build_mlp(3, 2, 2, rng=np.random.default_rng(16))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    raw = p.read_bytes()
    assert raw[:4] == b"DPM1"
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    assert header["version"] == 1
    assert header["arch_string"] == "2"
    names = [w["name"] for w in header["weights"]]
    assert names == sorted(names)
    blob_bytes = sum(int(np.prod(w["shape"])) * 8 for w in header["weights"])
    assert len(raw) == 8 + hlen + blob_bytes


def test_load_bad_magic(tmp_path):
    p = tmp_path / "bad.dpm1"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError) as e:
        load_model(p)
    assert "byte 0" in str(e.value)


def test_load_truncated(tmp_path):
    model = build_mlp(3, 2, 2, rng=np.random.default_rng(17))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    raw = p.read_bytes()
    for cut in (6, len(raw) // 2, len(raw) - 3):
        q = tmp_path / f"cut{cut}.dpm1"
        q.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as e:
            load_model(q)
        assert "byte" in str(e.value)


def test_load_checks_a_weight_against_the_file_size_before_allocating_it(tmp_path):
    # a header may name any shape: a 2^40-value weight (8 TiB) in a 200-byte
    # file is a truncated file, not an allocation to attempt
    blob = json.dumps({"version": 1, "layers": [], "input_shape": [1],
                       "weights": [{"name": "w", "shape": [2 ** 40]}]}).encode()
    start = 8 + len(blob)
    p = tmp_path / "huge.dpm1"
    p.write_bytes((b"DPM1" + struct.pack("<I", len(blob)) + blob).ljust(200, b"\0"))
    with pytest.raises(FormatError, match=re.escape(
            f"file truncated at byte 200: weight w needs bytes [{start}, {start + 2 ** 43})")):
        load_model(p)


def _four_mib_model(tmp_path):
    """A 1000-500-2 MLP (3.8 MiB of weights) and the path it is saved at."""
    model = build_mlp(1000, 500, 2, rng=np.random.default_rng(29))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    return model, p


def test_load_allocation_peak_is_the_weights(tmp_path):
    # each weight is read straight into its array: 3.83 MiB for 3.83 MiB of
    # weights, where the whole file's bytes, a slice of them and a cast
    # peaked at 11.46
    model, p = _four_mib_model(tmp_path)
    weights_mib = sum(w.nbytes for w in model.weights.values()) / 2 ** 20
    assert peak_mib(lambda: load_model(p)) <= weights_mib + 0.25


def test_save_allocation_peak_holds_no_weight_copy(tmp_path):
    # each weight is written from its own buffer: 0.01 MiB, where a
    # tobytes() copy of the largest weight peaked at 3.82
    model, p = _four_mib_model(tmp_path)
    assert peak_mib(lambda: save_model(model, p)) <= 0.25


def test_load_trailing_garbage(tmp_path):
    model = build_mlp(3, 2, 2, rng=np.random.default_rng(18))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(FormatError):
        load_model(p)


def _rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the .dpm1 file at ``path``."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen:])


def test_load_rejects_switch_layer_kind(tmp_path):
    # unpruned files once held a "switch" layer after each prunable layer
    model = build_mlp(3, 2, 2, rng=np.random.default_rng(19))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    _rewrite_header(p, lambda h: h["layers"].insert(1, {"kind": "switch", "d": 2}))
    with pytest.raises(FormatError, match="unknown layer kind 'switch'"):
        load_model(p)


@pytest.mark.parametrize("edit,match", [
    (lambda h: h.pop("layers"), "header has no 'layers'"),
    (lambda h: h.pop("weights"), "header has no 'weights'"),
    (lambda h: h.pop("input_shape"), "header has no 'input_shape'"),
    (lambda h: h["layers"][0].update(bias=True), "header 'layers' is malformed .*'bias'"),
    (lambda h: h["layers"].__setitem__(1, "relu"),
     "header 'layers' is malformed .*'relu' is not an object"),
    (lambda h: h["layers"][0].pop("kind"), "header 'layers' is malformed .*'kind'"),
    (lambda h: h["weights"][0].pop("name"), "header 'weights' is malformed .*'name'"),
    (lambda h: h["weights"][0].update(shape=[-3, -2]), "header 'weights': .* shape \\[-3, -2\\]"),
    (lambda h: h["layers"][0].update(d_in=4), "fc expects \\(4,\\), got \\(3,\\)"),
], ids=["no-layers", "no-weights", "no-input-shape", "unknown-layer-field",
        "layer-not-an-object", "layer-without-kind", "weight-without-name",
        "negative-weight-shape", "layers-disagree-with-input"])
def test_load_malformed_header_names_file_and_key(tmp_path, edit, match):
    model = build_mlp(3, 2, 2, rng=np.random.default_rng(19))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    _rewrite_header(p, edit)
    with pytest.raises(FormatError, match=match) as e:
        load_model(p)
    assert str(p) in str(e.value)


@pytest.mark.parametrize("layer,field,value", [
    (0, "stride", 0), (0, "kh", 0), (0, "pad", -1), (1, "stride", 0), (1, "k", 0),
], ids=["conv-stride-0", "conv-kernel-0", "conv-pad-negative", "pool-stride-0",
        "pool-window-0"])
def test_load_rejects_a_conv_or_pool_that_would_divide_by_zero(tmp_path, layer, field, value):
    # a zero stride used to escape as a bare ZeroDivisionError, and a zero
    # pool window to load and then crash at the first forward
    model = build_lenet5([2, 3, 4, 5], rng=np.random.default_rng(27))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    _rewrite_header(p, lambda h: h["layers"][layer].update({field: value}))
    kind = "conv2d" if layer == 0 else "maxpool2d"
    with pytest.raises(FormatError, match=f"layer {layer}: {kind} needs .*{field}={value}") as e:
        load_model(p)
    assert str(p) in str(e.value)


@pytest.mark.parametrize("edit,match", [
    (lambda h: h["layers"][0].update(stride=2), r"layer 0: conv2d needs .* got .*stride=2"),
    (lambda h: h["layers"][1].update(k=3, stride=2),
     r"layer 1: maxpool2d needs .* tile .* got k=3, stride=2"),
    (lambda h: h.update(input_shape=[1, 29, 29]),
     r"layer 1: maxpool2d needs .* tile its \(25, 25\) input, got k=2, stride=2"),
], ids=["conv-stride-2", "pool-3-stride-2", "pool-2-on-odd-input"])
def test_load_rejects_a_geometry_the_tensor_ops_do_not_run(tmp_path, edit, match):
    # every conv runs at stride 1 and every pool in windows that tile; the
    # odd input used to load and pool its 25 x 25 conv1 maps to 12 x 12
    model = build_lenet5([2, 3, 4, 5], rng=np.random.default_rng(27))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    _rewrite_header(p, edit)
    with pytest.raises(FormatError, match=match) as e:
        load_model(p)
    assert str(p) in str(e.value)


def test_forward_raises_where_a_pool_does_not_tile_its_input():
    # a 30 x 30 input gives conv2 9 x 9 maps; pool2 used to floor them to
    # 4 x 4, the size fc1 takes, and the forward ran. Both orders raise, with
    # each pool inside its conv and with each pool alone after a ReLU
    model = build_lenet5([2, 3, 4, 5], rng=np.random.default_rng(28))
    old = copy.deepcopy(model)
    for i in (1, 4):
        old.layers[i], old.layers[i + 1] = old.layers[i + 1], old.layers[i]
    x = np.zeros((2, 1, 30, 30))
    for m, what in ((model, "conv output"), (old, "input")):
        with pytest.raises(ContractError, match=rf"pool window 2 does not tile the {what} "
                                                r"\(9, 9\)"):
            forward(m, x)


def test_load_bad_version(tmp_path):
    model = build_mlp(3, 2, 2, rng=np.random.default_rng(19))
    p = tmp_path / "m.dpm1"
    save_model(model, p)
    _rewrite_header(p, lambda h: h.update(version=9))
    with pytest.raises(FormatError):
        load_model(p)


# ---------------------------------------------------------------------------
# training / evaluation


def _blob_task(n=120, seed=20):
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.standard_normal((half, 4)) + np.array([2.0, 2.0, 0.0, 0.0])
    x1 = rng.standard_normal((half, 4)) - np.array([2.0, 2.0, 0.0, 0.0])
    x = np.vstack([x0, x1])
    y = np.array([0] * half + [1] * half)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def test_train_model_reduces_loss_and_error():
    x, y = _blob_task()
    model = build_mlp(4, 6, 2, rng=np.random.default_rng(21))
    err0 = evaluate(model, x, y)
    losses = train_model(model, x, y, TrainSchedule(epochs=5, batch_size=20, lr=0.1),
                         np.random.default_rng(22))
    assert losses[-1] < losses[0]
    assert evaluate(model, x, y) < err0
    assert evaluate(model, x, y) <= 5.0
    assert model.metadata["training_history"][-1]["epochs"] == 5


def _numpy_momentum_sgd(weights, x, y, order, batch, lr, momentum):
    """The weights before each step and after the last, and the final
    velocities, of momentum SGD on fc -> relu -> fc restated in plain numpy:
    softmax cross-entropy backward, then v = momentum * v - lr * g and
    w = w + v."""
    w = {k: a.copy() for k, a in weights.items()}
    v = {k: np.zeros_like(a) for k, a in w.items()}
    seen = []
    for start in range(0, len(order), batch):
        seen.append({k: a.copy() for k, a in w.items()})
        idx = order[start:start + batch]
        xb, yb, n = x[idx], y[idx], len(idx)
        h = xb @ w["layer0.weight"]
        h += w["layer0.bias"]
        a = np.maximum(h, 0.0)
        z = a @ w["layer2.weight"]
        z += w["layer2.bias"]
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        gz = ez / ez.sum(axis=1, keepdims=True)
        gz[np.arange(n), yb] -= 1.0
        gz = gz * (1.0 / n)
        gh = np.where(a > 0.0, gz @ w["layer2.weight"].T, 0.0)
        grads = {"layer0.weight": xb.T @ gh, "layer0.bias": gh.sum(axis=0),
                 "layer2.weight": a.T @ gz, "layer2.bias": gz.sum(axis=0)}
        for k in w:
            v[k] = momentum * v[k] - lr * grads[k]
            w[k] = w[k] + v[k]
    seen.append(w)
    return seen, v


def _assert_matches_numpy_momentum_sgd(monkeypatch, dims, seed, batch=4):
    """Three steps of train_model on build_mlp(*dims), ``batch`` rows each,
    against the plain-numpy restatement, bit for bit: the weights before
    each step and after the last; and no parameter holds a gradient once a
    step is done. Returns the (leaf, rows, .grad is None) of each hand-over
    by backward."""
    rng = np.random.default_rng(seed)
    model = build_mlp(*dims, seed=seed + 1)
    n = 3 * batch
    x, y = rng.standard_normal((n, dims[0])), rng.integers(0, dims[2], n)
    order = np.arange(n)
    np.random.default_rng(seed + 2).shuffle(order)  # as train_model's batches draw it
    want, velocity = _numpy_momentum_sgd(model.weights, x, y, order, batch, 0.3, 0.9)
    assert all(np.any(v != 0.0) for v in velocity.values())

    seen, leaves, handed, backward = [], set(), [], T.backward

    def spy(loss, on_leaf=None):
        seen.append({k: a.copy() for k, a in model.weights.items()})
        leaves.update(r for node in loss._tape._nodes for r in node.routes
                      if isinstance(r, Tensor))

        def handing(t, rows, g):
            on_leaf(t, rows, g)
            handed.append((t, rows, t.grad is None))

        backward(loss, on_leaf=None if on_leaf is None else handing)

    monkeypatch.setattr(T, "backward", spy)
    train_model(model, x, y, TrainSchedule(1, batch, 0.3, 0.9), np.random.default_rng(seed + 2))
    seen.append(model.weights)
    assert len(seen) == len(want) == 4
    for got, expected in zip(seen, want):
        assert sorted(got) == sorted(expected)
        assert all(np.array_equal(got[k], expected[k]) for k in expected)
    assert len(leaves) == 4 and all(t.grad is None for t in leaves)
    return handed


def test_train_model_matches_numpy_momentum_sgd_bitwise(monkeypatch):
    # three steps pin the update rule: the weights before each step and after
    # the last equal the plain-numpy restatement bit for bit, and from the
    # second step on they depend on the velocities. Every parameter here is
    # small, so all of them step together after the sweep, and backward
    # hands none over early
    assert _assert_matches_numpy_momentum_sgd(monkeypatch, (6, 5, 3), 44) == []


def test_train_model_steps_a_large_weight_in_the_sweep_bitwise(monkeypatch):
    # layer0.weight holds 300 * 250 = 75,000 values, one full chunk of
    # _STEP_VALUES and a ragged one: it steps as soon as backward hands it
    # over and its gradient is dropped right then; the others step after
    # the sweep. The weights still equal the numpy restatement bit for bit
    assert 300 * 250 > M._STEP_VALUES > 250 * 3
    handed = _assert_matches_numpy_momentum_sgd(monkeypatch, (300, 250, 3), 50)
    assert len(handed) == 3 * 4
    assert all(dropped == (t.size >= M._STEP_VALUES) for t, _, dropped in handed)
    assert sum(dropped for _, _, dropped in handed) == 3


def _check_row_block_steps():
    with pytest.MonkeyPatch.context() as monkeypatch:
        handed = _assert_matches_numpy_momentum_sgd(monkeypatch, (800, 500, 3), 51, batch=100)
    blocks = [(rows, dropped) for t, rows, dropped in handed if t.shape == (800, 500)]
    assert len(blocks) % 3 == 0 and len(blocks) > 3 * 2
    per_step = blocks[:len(blocks) // 3]
    assert all(dropped for _, dropped in blocks)
    assert [rows.start for rows, _ in per_step] == [0] + [rows.stop for rows, _ in per_step[:-1]]
    assert per_step[-1][0].stop == 800
    assert all(t.data[rows].shape == t.shape for t, rows, _ in handed if t.shape != (800, 500))


def test_train_model_steps_an_fc_weight_in_row_blocks_bitwise():
    # at 100 rows, layer0.weight (800 x 500, fc2's shape) goes over in row
    # blocks that cover it once, in order, and each steps its rows; every
    # other parameter comes whole. The weights still equal the numpy
    # restatement, which forms each whole gradient, bit for bit (with one
    # BLAS thread, which the benchmark runs)
    in_one_blas_thread("test_models", "_check_row_block_steps")


def test_train_model_leaves_arrays_shared_with_another_model_alone():
    # the step updates the weights in place, so it must work on its own copies
    source = build_mlp(6, 5, 3, seed=47)
    before = {k: a.copy() for k, a in source.weights.items()}
    sharing = ModelGraph(source.layers, dict(source.weights), source.input_shape)
    rng = np.random.default_rng(48)
    train_model(sharing, rng.standard_normal((8, 6)), rng.integers(0, 3, 8),
                TrainSchedule(1, 4, 0.3), rng)
    assert all(np.array_equal(source.weights[k], before[k]) for k in before)
    assert not np.array_equal(sharing.weights["layer0.weight"], before["layer0.weight"])


def test_train_model_contract_errors():
    model = build_mlp(4, 3, 2, rng=np.random.default_rng(23))
    with pytest.raises(ContractError):
        train_model(model, np.zeros((0, 4)), np.zeros(0, dtype=int),
                    TrainSchedule(), np.random.default_rng(0))
    with pytest.raises(ContractError):
        train_model(model, np.zeros((4, 4)), np.zeros(4, dtype=int),
                    TrainSchedule(epochs=0), np.random.default_rng(0))


def test_evaluate_perfect_and_empty():
    model = _fc_only(2, 2)
    model.weights["layer0.weight"] = np.array([[5.0, -5.0], [-5.0, 5.0]])
    model.weights["layer0.bias"] = np.zeros(2)
    x = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, 0.0]])
    y = np.array([0, 1, 0])
    assert evaluate(model, x, y) == 0.0
    with pytest.raises(ContractError):
        evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_train_model_raises_on_non_finite_loss():
    # the README MLP at train_lr = 1e3 would overflow to inf, then NaN, in
    # epoch 2; its finite loss (1.23, 1.2e5, 1.8e10, ...) already passes the
    # divergence bound, 1e9 * log(2), at batch 3, before any overflow warning
    _, x, y = gen_synthetic(20, 16, 4000, np.random.default_rng(0))
    model = build_mlp(20, 16, 2, rng=np.random.default_rng(1))
    with pytest.raises(NumericError, match=r"exceeds the divergence bound 6\.93147e\+08 "
                                           "at epoch 1, batch 3"):
        train_model(model, x[:3000], y[:3000], TrainSchedule(3, 50, 1e3, 0.9),
                    np.random.default_rng(2))
    # a NaN loss still raises as not finite
    model = build_mlp(20, 16, 2, rng=np.random.default_rng(1))
    model.weights["layer2.weight"][0, 0] = np.nan
    with pytest.raises(NumericError, match="training loss is nan at epoch 1, batch 1"):
        train_model(model, x[:100], y[:100], TrainSchedule(1, 50, 0.1, 0.9),
                    np.random.default_rng(2))


@pytest.mark.parametrize("arch", ["lenet", "mlp"])
def test_evaluate_ignores_batch_size(arch):
    rng = np.random.default_rng(25)
    n = 730
    if arch == "lenet":
        model = build_lenet5([3, 4, 12, 8], rng=rng)
        x = rng.uniform(0.0, 1.0, (n, 1, 28, 28))
        y = rng.integers(0, 10, n)
    else:
        model = build_mlp(4, 6, 2, rng=rng)
        x = rng.standard_normal((n, 4))
        y = rng.integers(0, 2, n)
    errors = {evaluate(model, x, y, batch_size=b) for b in (100, 500, n)}
    assert len(errors) == 1
    assert 0.0 < errors.pop() < 100.0


@pytest.mark.parametrize("batch_size", [0, -1])
@pytest.mark.parametrize("entry", ["evaluate", "train_model", "train_switches"])
def test_batch_size_below_one_is_rejected_naming_it(entry, batch_size):
    # a negative size used to run no batch at all (0% error, a loss of 0.0
    # per epoch) and a zero one to die inside numpy's range()
    rng = np.random.default_rng(26)
    model = build_mlp(4, 6, 2, rng=rng)
    x = rng.standard_normal((20, 4))
    y = rng.integers(0, 2, 20)
    before = {k: v.copy() for k, v in model.weights.items()}
    with pytest.raises(ContractError, match=f"batch_size must be >= 1, got {batch_size}"):
        if entry == "evaluate":
            evaluate(model, x, y, batch_size=batch_size)
        elif entry == "train_model":
            train_model(model, x, y, TrainSchedule(batch_size=batch_size), rng)
        else:
            train_switches(model, init_switch_states(model), x, y,
                           SwitchTrainSchedule(batch_size=batch_size), rng)
    assert all(np.array_equal(model.weights[k], v) for k, v in before.items())


def _full_lenet_task(n):
    model = build_lenet5([20, 50, 800, 500], rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    return model, rng.uniform(0.0, 1.0, (n, 1, 28, 28)), rng.integers(0, 10, n)


def test_evaluate_allocation_peak_full_lenet():
    # 100-row batches, conv2d in row blocks of at most 2 MiB, and each pool
    # run inside its conv, so conv1's 9.2 MB output is never made: 5.3 MiB.
    # Making that output peaked at 11.7 MiB; one whole-batch im2col and its
    # GEMM result per conv call at 32.1, and 500-row batches at 160.5
    model, x, y = _full_lenet_task(500)
    assert peak_mib(lambda: evaluate(model, x, y)) <= 9.0


def test_train_step_allocation_peak_full_lenet():
    # one batch-100 step: 25.0 MiB, with no array kept that no backward
    # reads, each pool run inside its conv, so neither conv1's 9.2 MB output
    # nor pool1's input gradient is made, and fc1's and fc2's weights
    # stepped in row blocks as backward hands their gradients over, each
    # block scaled in place, so no whole fc weight gradient, whole-model
    # gradient or step buffer is held. Whole fc1 and fc2 gradients peaked at
    # 27.3 MiB; also a 0.5 MiB step chunk at 27.8; also making pool1's input
    # gradient at 30.1; also keeping every gradient to the end of the sweep
    # and concatenating an 8.6 MB step buffer at 37.5; also keeping conv1's
    # output and pool1's 2.3 MB output for pool1's backward at 60.1; also
    # keeping conv2's 25.6 MB im2col matrix, and building each conv's
    # whole-batch matrix, at 97.0
    model, x, y = _full_lenet_task(100)
    step = lambda: train_model(model, x, y, TrainSchedule(1, 100, 0.01, 0.9),
                               np.random.default_rng(2))
    assert peak_mib(step) <= 30.5


def test_train_step_allocation_peak_above_its_entry_full_lenet(monkeypatch):
    # one batch-100 step, from its forward's entry to the end of its
    # backward sweep, above what is held at that entry (the weights, the
    # velocity and the batch): 8.0 MiB. fc1's and fc2's weight gradients
    # go over in row blocks of at most about 0.6 MiB, each stepped as it is
    # formed, and each pool keeps one byte per pooled value. The whole 4.9
    # MiB fc1 and 3.1 MiB fc2 gradients and four bool first-max masks per
    # pooled value peaked at 10.4
    model, x, y = _full_lenet_task(100)
    marks, forward, backward = [], M.forward, T.backward

    def entering(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return forward(*args, **kwargs)

    def sweeping(*args, **kwargs):
        backward(*args, **kwargs)
        marks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(M, "forward", entering)
    monkeypatch.setattr(T, "backward", sweeping)
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        train_model(model, x, y, TrainSchedule(1, 100, 0.01, 0.9), np.random.default_rng(2))
    finally:
        if not outer:
            tracemalloc.stop()
    entry, peak = marks
    assert (peak - entry) / 2 ** 20 <= 9.0


def test_train_model_never_forms_a_whole_fc_weight_gradient(monkeypatch):
    # fc1's (800 x 800) and fc2's (800 x 500) gradients come only in row
    # blocks; fc3's small weight takes its whole product in matmul's backward
    model, x, y = _full_lenet_task(100)
    whole, blocks = [], {}
    form, split = T._WeightGrad.whole, T._WeightGrad.blocks

    def forming(self):
        grad = form(self)
        whole.append(grad.shape)
        return grad

    def splitting(self):
        for rows, block in split(self):
            blocks.setdefault(block.shape[1], []).append(block.size)
            yield rows, block

    monkeypatch.setattr(T._WeightGrad, "whole", forming)
    monkeypatch.setattr(T._WeightGrad, "blocks", splitting)
    train_model(model, x, y, TrainSchedule(1, 100, 0.01, 0.9), np.random.default_rng(2))
    assert whole == []
    assert sum(blocks[800]) == 800 * 800 and sum(blocks[500]) == 800 * 500
    assert max(blocks[800] + blocks[500]) <= T._ROW_GRAD_VALUES + T._ROW_TILE * 800
    assert sorted(blocks) == [500, 800]


_BAD_SCHEDULES = [
    (TrainSchedule, "epochs", 2.5, "epochs must be an int, got 2.5"),
    (TrainSchedule, "epochs", True, "epochs must be an int, got True"),
    (TrainSchedule, "epochs", -1, "epochs must be >= 0, got -1"),
    (TrainSchedule, "batch_size", 2.5, "batch_size must be an int, got 2.5"),
    (TrainSchedule, "batch_size", True, "batch_size must be an int, got True"),
    (TrainSchedule, "batch_size", 0, "batch_size must be >= 1, got 0"),
    (TrainSchedule, "lr", -0.1, "lr must be finite and > 0, got -0.1"),
    (TrainSchedule, "lr", 0.0, "lr must be finite and > 0, got 0.0"),
    (TrainSchedule, "lr", math.nan, "lr must be finite and > 0, got nan"),
    (TrainSchedule, "lr", math.inf, "lr must be finite and > 0, got inf"),
    (TrainSchedule, "momentum", 1.5, "momentum must be in [0, 1), got 1.5"),
    (TrainSchedule, "momentum", 1.0, "momentum must be in [0, 1), got 1.0"),
    (TrainSchedule, "momentum", -0.1, "momentum must be in [0, 1), got -0.1"),
    (TrainSchedule, "momentum", math.nan, "momentum must be in [0, 1), got nan"),
    (SwitchTrainSchedule, "epochs", 2.5, "epochs must be an int, got 2.5"),
    (SwitchTrainSchedule, "epochs", True, "epochs must be an int, got True"),
    (SwitchTrainSchedule, "batch_size", 2.5, "batch_size must be an int, got 2.5"),
    (SwitchTrainSchedule, "batch_size", True, "batch_size must be an int, got True"),
]


@pytest.mark.parametrize("schedule,key,value,match", _BAD_SCHEDULES,
                         ids=[f"{c.__name__}-{k}-{v}" for c, k, v, _ in _BAD_SCHEDULES])
def test_schedules_reject_a_bad_setting_naming_it(schedule, key, value, match):
    # TrainSchedule(1, 2.5, 0.1, 0.9) used to die at the first batch with a
    # bare TypeError, a negative lr to run gradient ascent, and a momentum of
    # 1.5 to train without error
    with pytest.raises(ContractError, match=re.escape(match)):
        schedule(**{key: value})


def test_schedules_accept_numpy_ints():
    assert TrainSchedule(np.int64(0), np.int32(5)).batch_size == 5
    assert SwitchTrainSchedule(np.int64(2), np.uint8(5)).epochs == 2


@pytest.mark.parametrize("entry,rows,labels", [
    ("evaluate", 10, 5), ("evaluate", 5, 10), ("train_model", 10, 5),
    ("train_model", 5, 10), ("validation", 10, 5), ("neg_elbo_and_grads", 10, 5)])
def test_rows_and_labels_must_match(entry, rows, labels):
    # evaluate on 10 rows and 5 labels used to die with a bare IndexError, and
    # on 5 rows and 10 labels to score the 5 rows
    rng = np.random.default_rng(27)
    model = build_mlp(4, 3, 2, rng=rng)
    x, y = rng.standard_normal((rows, 4)), rng.integers(0, 2, labels)
    good_x, good_y = rng.standard_normal((6, 4)), rng.integers(0, 2, 6)
    before = {k: v.copy() for k, v in model.weights.items()}
    with pytest.raises(ContractError, match=f"has {rows} rows but {labels} labels"):
        if entry == "evaluate":
            evaluate(model, x, y)
        elif entry == "train_model":
            train_model(model, x, y, TrainSchedule(1, 4), rng)
        elif entry == "validation":
            train_model(model, good_x, good_y, TrainSchedule(1, 4), rng, val=(x, y))
        else:
            neg_elbo_and_grads(init_switch_states(model), model, x, y, 10, rng, layer=0)
    assert all(np.array_equal(model.weights[k], v) for k, v in before.items())


def _finetune_task():
    _, x, y = gen_synthetic(10, 8, 600, np.random.default_rng(300))
    model = build_mlp(10, 6, 2, rng=np.random.default_rng(400))
    return model, x[:400], y[:400], (x[400:], y[400:])


def test_finetune_evaluates_the_start_and_each_epoch_once(monkeypatch):
    model, x, y, val = _finetune_task()
    calls, evaluate_ = [], M.evaluate
    monkeypatch.setattr(M, "evaluate", lambda *a, **k: calls.append(a) or evaluate_(*a, **k))
    train_model(model, x, y, TrainSchedule(3, 50, 0.05), np.random.default_rng(500), val=val)
    assert len(calls) == 4


def test_finetune_momentum_carries_across_epochs():
    model, x, y, val = _finetune_task()
    tuned = copy.deepcopy(model)
    train_model(tuned, x, y, TrainSchedule(2, 50, 0.05), np.random.default_rng(500), val=val)
    history = tuned.metadata["training_history"]
    assert len(history) == 1 and history[0]["kept_epoch"] == 2  # the last epoch is best
    assert history[0]["val_error"] == evaluate(tuned, *val)
    plain = copy.deepcopy(model)
    train_model(plain, x, y, TrainSchedule(2, 50, 0.05), np.random.default_rng(500))
    assert all(np.array_equal(tuned.weights[k], plain.weights[k]) for k in model.weights)
    # two one-epoch calls restart the velocity at zero, as fine-tuning once did
    reset, rng = copy.deepcopy(model), np.random.default_rng(500)
    for _ in range(2):
        train_model(reset, x, y, TrainSchedule(1, 50, 0.05), rng)
    assert not np.array_equal(tuned.weights["layer0.weight"], reset.weights["layer0.weight"])
