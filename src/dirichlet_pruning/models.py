"""Model graphs: layer specs, forward pass, builders, counting, serialization.

A model is a flat list of layer specs plus a dict of named float64 weight
arrays. The forward pass runs on the autodiff tensor engine; switch layers
multiply channels by an externally supplied simplex vector and default to
identity when no vector is given.

Conventions used throughout:
  - conv weights are (c_out, c_in, kh, kw), fc weights are (d_in, d_out)
    applied as x @ W, biases are per output channel/neuron
  - count_params counts multiplicative weight elements only (conv kernels
    and fc matrices); biases are excluded
  - count_flops counts one multiply-accumulate per kernel/matrix element
    application, linear layers only
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, FormatError, ShapeError
from .tensor import Tape, Tensor

MAGIC = b"DPM1"


# ---------------------------------------------------------------------------
# layer specs


@dataclass(frozen=True)
class Conv2d:
    c_in: int
    c_out: int
    kh: int
    kw: int
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class FullyConnected:
    d_in: int
    d_out: int


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool2d:
    k: int
    stride: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Switch:
    d: int


_KIND_TO_CLS = {
    "conv2d": Conv2d,
    "fc": FullyConnected,
    "relu": Relu,
    "maxpool2d": MaxPool2d,
    "flatten": Flatten,
    "switch": Switch,
}
_CLS_TO_KIND = {v: k for k, v in _KIND_TO_CLS.items()}


def _spec_to_dict(spec) -> dict:
    d = {"kind": _CLS_TO_KIND[type(spec)]}
    d.update(vars(spec))
    return d


def _spec_from_dict(d: dict):
    d = dict(d)
    kind = d.pop("kind")
    if kind not in _KIND_TO_CLS:
        raise FormatError(f"unknown layer kind {kind!r}")
    return _KIND_TO_CLS[kind](**d)


# ---------------------------------------------------------------------------
# graph


@dataclass
class ModelGraph:
    layers: list
    weights: dict[str, np.ndarray]
    input_shape: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def arch_string(self) -> str:
        return "-".join(str(w) for w in prunable_widths(self))


def prunable_indices(model: ModelGraph) -> list[int]:
    """Graph positions of prunable layers: every conv/fc except the final
    linear layer, which holds the class outputs."""
    linear = [i for i, l in enumerate(model.layers) if isinstance(l, (Conv2d, FullyConnected))]
    return linear[:-1]


def prunable_widths(model: ModelGraph) -> list[int]:
    out = []
    for i in prunable_indices(model):
        l = model.layers[i]
        out.append(l.c_out if isinstance(l, Conv2d) else l.d_out)
    return out


def _conv_out_hw(h, w, spec: Conv2d):
    oh = (h + 2 * spec.pad - spec.kh) // spec.stride + 1
    ow = (w + 2 * spec.pad - spec.kw) // spec.stride + 1
    return oh, ow


def propagate_shapes(layers, input_shape) -> list[tuple]:
    """Output shape (without batch dim) after each layer; raises ShapeError
    on any mismatch, including non-positive spatial dims."""
    shape = tuple(int(v) for v in input_shape)
    shapes = []
    for i, spec in enumerate(layers):
        if isinstance(spec, Conv2d):
            if len(shape) != 3 or shape[0] != spec.c_in:
                raise ShapeError(f"layer {i}: conv2d expects ({spec.c_in}, H, W), got {shape}")
            oh, ow = _conv_out_hw(shape[1], shape[2], spec)
            if oh <= 0 or ow <= 0:
                raise ShapeError(f"layer {i}: conv2d output spatial dims ({oh}, {ow}) not positive")
            shape = (spec.c_out, oh, ow)
        elif isinstance(spec, FullyConnected):
            if len(shape) != 1 or shape[0] != spec.d_in:
                raise ShapeError(f"layer {i}: fc expects ({spec.d_in},), got {shape}")
            shape = (spec.d_out,)
        elif isinstance(spec, MaxPool2d):
            if len(shape) != 3:
                raise ShapeError(f"layer {i}: maxpool2d expects (C, H, W), got {shape}")
            oh = (shape[1] - spec.k) // spec.stride + 1
            ow = (shape[2] - spec.k) // spec.stride + 1
            if oh <= 0 or ow <= 0:
                raise ShapeError(f"layer {i}: maxpool2d output spatial dims ({oh}, {ow}) not positive")
            shape = (shape[0], oh, ow)
        elif isinstance(spec, Flatten):
            shape = (int(np.prod(shape)),)
        elif isinstance(spec, Switch):
            if shape[0] != spec.d:
                raise ShapeError(f"layer {i}: switch of width {spec.d} applied to {shape}")
        elif isinstance(spec, Relu):
            pass
        else:
            raise ShapeError(f"layer {i}: unknown spec {spec!r}")
        shapes.append(shape)
    return shapes


def validate_model(model: ModelGraph) -> None:
    propagate_shapes(model.layers, model.input_shape)
    for i, spec in enumerate(model.layers):
        if isinstance(spec, Conv2d):
            want = {f"layer{i}.weight": (spec.c_out, spec.c_in, spec.kh, spec.kw),
                    f"layer{i}.bias": (spec.c_out,)}
        elif isinstance(spec, FullyConnected):
            want = {f"layer{i}.weight": (spec.d_in, spec.d_out),
                    f"layer{i}.bias": (spec.d_out,)}
        else:
            continue
        for name, shape in want.items():
            if name not in model.weights:
                raise ShapeError(f"missing weight {name}")
            if model.weights[name].shape != shape:
                raise ShapeError(
                    f"weight {name} has shape {model.weights[name].shape}, expected {shape}")


# ---------------------------------------------------------------------------
# forward


def forward(model: ModelGraph, x, switches: dict | None = None,
            params: dict | None = None, collect_preacts: bool = False,
            *, start: int = 0, stop: int | None = None):
    """Run the graph on a batch.

    x is (N, C, H, W) for conv models or (N, d) for dense ones. ``switches``
    maps switch layer index to a simplex vector (array or Tensor); missing
    entries act as identity. ``params`` overrides weights by name with
    Tensors, for gradient-carrying passes. With collect_preacts=True returns
    (logits, preacts) where preacts maps each prunable layer index to its
    pre-activation Tensor with retain_grad set.

    ``start`` and ``stop`` run only layers[start:stop]; x is then the
    activation that enters layer ``start``, and the result is the one that
    leaves layer ``stop - 1``. The default runs the whole graph.
    """
    switches = switches or {}
    params = params or {}
    h = T._lift(x)
    if h.data.ndim not in (2, 4):
        raise ShapeError(f"input must be (N, d) or (N, C, H, W), got {h.data.shape}")
    prunable = set(prunable_indices(model))
    preacts: dict[int, Tensor] = {}

    def weight(name):
        if name in params:
            return params[name]
        return T._lift(model.weights[name])

    stop = len(model.layers) if stop is None else stop
    if not 0 <= start <= stop <= len(model.layers):
        raise ContractError(
            f"layer range [{start}, {stop}) outside a graph of {len(model.layers)} layers")
    for i in range(start, stop):
        spec = model.layers[i]
        if isinstance(spec, Conv2d):
            h = T.conv2d(h, weight(f"layer{i}.weight"), stride=spec.stride, padding=spec.pad)
            h = T.broadcast_add_channels(h, weight(f"layer{i}.bias"))
        elif isinstance(spec, FullyConnected):
            h = T.matmul(h, weight(f"layer{i}.weight"))
            h = T.broadcast_add_channels(h, weight(f"layer{i}.bias"))
        elif isinstance(spec, Relu):
            h = T.relu(h)
        elif isinstance(spec, MaxPool2d):
            h = T.maxpool2d(h, k=spec.k, stride=spec.stride)
        elif isinstance(spec, Flatten):
            h = T.flatten_batch(h)
        elif isinstance(spec, Switch):
            s = switches.get(i)
            if s is not None:
                h = T.broadcast_mul_channels(h, T._lift(s))
        if collect_preacts and i in prunable:
            h.retain_grad = True
            preacts[i] = h
    if collect_preacts:
        return h, preacts
    return h


# ---------------------------------------------------------------------------
# builders


def _he_conv(rng, c_out, c_in, kh, kw):
    fan_in = c_in * kh * kw
    return rng.standard_normal((c_out, c_in, kh, kw)) * np.sqrt(2.0 / fan_in)


def _he_fc(rng, d_in, d_out):
    return rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in)


def _he_initialized(layers, input_shape, family: str, rng, seed) -> ModelGraph:
    """The graph with He-initialized weights drawn in layer order, zero biases."""
    weights: dict[str, np.ndarray] = {}
    for i, spec in enumerate(layers):
        if isinstance(spec, Conv2d):
            weights[f"layer{i}.weight"] = _he_conv(rng, spec.c_out, spec.c_in, spec.kh, spec.kw)
            weights[f"layer{i}.bias"] = np.zeros(spec.c_out)
        elif isinstance(spec, FullyConnected):
            weights[f"layer{i}.weight"] = _he_fc(rng, spec.d_in, spec.d_out)
            weights[f"layer{i}.bias"] = np.zeros(spec.d_out)
    meta: dict = {"family": family, "training_history": []}
    if seed is not None:
        meta["seed"] = int(seed)
    model = ModelGraph(layers, weights, input_shape, meta)
    validate_model(model)
    return model


def build_lenet5(widths, rng=None, with_switches: bool = True,
                 seed: int | None = None) -> ModelGraph:
    """LeNet-5 for 1x28x28 inputs: conv5x5 -> pool -> conv5x5 -> pool ->
    fc -> fc -> fc(10), widths = [c1, c2, f1, f2], a switch after each of
    the four prunable pre-activations when with_switches is set."""
    widths = [int(w) for w in widths]
    if len(widths) != 4 or any(w < 1 for w in widths):
        raise ContractError(f"widths must be four positive ints, got {widths}")
    c1, c2, f1, f2 = widths
    rng = rng if rng is not None else np.random.default_rng(seed or 0)
    layers: list = [Conv2d(1, c1, 5, 5)]
    if with_switches:
        layers.append(Switch(c1))
    layers += [Relu(), MaxPool2d(2, 2), Conv2d(c1, c2, 5, 5)]
    if with_switches:
        layers.append(Switch(c2))
    layers += [Relu(), MaxPool2d(2, 2), Flatten(), FullyConnected(c2 * 16, f1)]
    if with_switches:
        layers.append(Switch(f1))
    layers += [Relu(), FullyConnected(f1, f2)]
    if with_switches:
        layers.append(Switch(f2))
    layers += [Relu(), FullyConnected(f2, 10)]
    return _he_initialized(layers, (1, 28, 28), "lenet5", rng, seed)


def build_mlp(d_x: int, d_h: int, d_out: int = 2, rng=None,
              with_switches: bool = True, seed: int | None = None) -> ModelGraph:
    """Two-layer dense net fc(d_x, d_h) -> switch -> relu -> fc(d_h, d_out)."""
    if min(d_x, d_h, d_out) < 1:
        raise ContractError(f"dims must be positive, got {(d_x, d_h, d_out)}")
    rng = rng if rng is not None else np.random.default_rng(seed or 0)
    layers: list = [FullyConnected(d_x, d_h)]
    if with_switches:
        layers.append(Switch(d_h))
    layers += [Relu(), FullyConnected(d_h, d_out)]
    return _he_initialized(layers, (d_x,), "mlp", rng, seed)


def switch_layer_indices(model: ModelGraph) -> list[int]:
    return [i for i, l in enumerate(model.layers) if isinstance(l, Switch)]


# ---------------------------------------------------------------------------
# counting


def count_params(model: ModelGraph) -> int:
    """Multiplicative weight elements: conv kernels and fc matrices. Biases
    do not count."""
    total = 0
    for i, spec in enumerate(model.layers):
        if isinstance(spec, (Conv2d, FullyConnected)):
            total += model.weights[f"layer{i}.weight"].size
    return int(total)


def count_flops(model: ModelGraph, input_shape=None) -> int:
    """Multiply-accumulates in the linear layers for one input.

    conv: kh*kw*c_in*c_out*H_out*W_out, fc: d_in*d_out.
    """
    shapes = propagate_shapes(model.layers, input_shape or model.input_shape)
    total = 0
    for i, spec in enumerate(model.layers):
        if isinstance(spec, Conv2d):
            _, oh, ow = shapes[i]
            total += spec.kh * spec.kw * spec.c_in * spec.c_out * oh * ow
        elif isinstance(spec, FullyConnected):
            total += spec.d_in * spec.d_out
    return int(total)


# ---------------------------------------------------------------------------
# serialization: magic, u32 header length, JSON header, raw little-endian
# float64 blobs in header order


def save_model(model: ModelGraph, path) -> None:
    names = sorted(model.weights)
    header = {
        "version": 1,
        "layers": [_spec_to_dict(l) for l in model.layers],
        "input_shape": list(model.input_shape),
        "arch_string": model.arch_string,
        "metadata": model.metadata,
        "weights": [{"name": n, "shape": list(model.weights[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(model.weights[n], dtype="<f8").tobytes())


def load_model(path) -> ModelGraph:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r} at byte 0, expected {MAGIC!r}")
    if len(raw) < 8:
        raise FormatError(f"file truncated at byte {len(raw)}: header length missing")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + hlen:
        raise FormatError(f"file truncated at byte {len(raw)}: header runs to {8 + hlen}")
    try:
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"bad JSON header at byte 8: {e}") from None
    if header.get("version") != 1:
        raise FormatError(f"unsupported version {header.get('version')!r}")
    layers = [_spec_from_dict(d) for d in header["layers"]]
    offset = 8 + hlen
    weights = {}
    for entry in header["weights"]:
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape)) * 8 if shape else 8
        if len(raw) < offset + nbytes:
            raise FormatError(
                f"file truncated at byte {len(raw)}: weight {entry['name']} "
                f"needs bytes [{offset}, {offset + nbytes})")
        weights[entry["name"]] = np.frombuffer(
            raw[offset:offset + nbytes], dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise FormatError(f"trailing {len(raw) - offset} bytes at byte {offset}")
    model = ModelGraph(layers, weights, tuple(header["input_shape"]), header.get("metadata", {}))
    validate_model(model)
    return model


# ---------------------------------------------------------------------------
# plain supervised training and evaluation


@dataclass
class TrainSchedule:
    epochs: int = 1
    batch_size: int = 100
    lr: float = 0.05
    momentum: float = 0.9


def _batches(n, batch_size, rng=None):
    idx = np.arange(n)
    if rng is not None:
        rng.shuffle(idx)
    for start in range(0, n, batch_size):
        yield idx[start:start + batch_size]


def train_model(model: ModelGraph, x, y, schedule: TrainSchedule, rng,
                log=None) -> list[float]:
    """Minibatch SGD with momentum on the cross-entropy; switches run as
    identity. Mutates model.weights in place; returns per-epoch mean loss."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise ContractError("training data is empty")
    if schedule.epochs < 1:
        raise ContractError(f"epochs must be >= 1, got {schedule.epochs}")
    names = sorted(model.weights)
    velocity = {n: np.zeros_like(model.weights[n]) for n in names}
    losses = []
    for epoch in range(schedule.epochs):
        t0 = time.perf_counter()
        total, nb = 0.0, 0
        for idx in _batches(x.shape[0], schedule.batch_size, rng):
            params = {n: Tensor(model.weights[n], requires_grad=True) for n in names}
            with Tape():
                logits = forward(model, x[idx], params=params)
                loss = T.softmax_cross_entropy(logits, y[idx])
            T.backward(loss)
            for n in names:
                g = params[n].grad
                if g is None:
                    continue
                velocity[n] = schedule.momentum * velocity[n] - schedule.lr * g
                model.weights[n] = model.weights[n] + velocity[n]
            total += loss.item()
            nb += 1
        losses.append(total / max(nb, 1))
        if log is not None:
            log(f"epoch {epoch + 1}/{schedule.epochs}: "
                f"loss {losses[-1]:.4f} ({time.perf_counter() - t0:.2f}s)")
    model.metadata.setdefault("training_history", []).append(
        {"epochs": schedule.epochs, "lr": schedule.lr,
         "batch_size": schedule.batch_size, "final_loss": losses[-1]})
    return losses


def evaluate(model: ModelGraph, x, y, switches=None, batch_size: int = 500) -> float:
    """Classification error in percent."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise ContractError("evaluation data is empty")
    wrong = 0
    for idx in _batches(x.shape[0], batch_size):
        logits = forward(model, x[idx], switches=switches)
        wrong += int((logits.data.argmax(axis=1) != y[idx]).sum())
    return 100.0 * wrong / x.shape[0]


def copy_model(model: ModelGraph) -> ModelGraph:
    return ModelGraph([*model.layers], {k: v.copy() for k, v in model.weights.items()},
                      tuple(model.input_shape), json.loads(json.dumps(model.metadata)))
