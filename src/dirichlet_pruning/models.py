"""Model graphs: layer specs, forward pass, builders, counting, serialization.

A model is a flat list of layer specs plus a dict of named float64 weight
arrays. The forward pass runs on the autodiff tensor engine. Every prunable
layer (each conv/fc but the last) may be given a switch: a non-negative
scale (a simplex vector) on its output channels, addressed by the layer's
prunable ordinal. The scale is folded into the input weights of the switch's
consumer, the next conv or fc layer, so the activations themselves are never
multiplied. That is exact because only ReLU, max-pooling and flatten can lie
between two linear layers, and they commute with a non-negative per-channel
scale. A (c, C) switch folds c scales at once, one copy of the consumer's
weight each, and the graph after the consumer runs on c times the rows.

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
import logging
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, FormatError, NumericError, ShapeError
from .tensor import Tape, Tensor

logger = logging.getLogger(__name__)
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


_KIND_TO_CLS = {
    "conv2d": Conv2d,
    "fc": FullyConnected,
    "relu": Relu,
    "maxpool2d": MaxPool2d,
    "flatten": Flatten,
}
_CLS_TO_KIND = {v: k for k, v in _KIND_TO_CLS.items()}


def _spec_to_dict(spec) -> dict:
    d = {"kind": _CLS_TO_KIND[type(spec)]}
    d.update(vars(spec))
    return d


def _spec_from_dict(d: dict):
    if not isinstance(d, dict):
        raise FormatError(f"layer entry {d!r} is not an object")
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


def linear_indices(model: ModelGraph) -> list[int]:
    """Graph positions of the conv and fc layers, in order."""
    return [i for i, l in enumerate(model.layers) if isinstance(l, (Conv2d, FullyConnected))]


def prunable_indices(model: ModelGraph) -> list[int]:
    """Graph positions of prunable layers, by ordinal: every conv/fc except
    the final linear layer, which holds the class outputs."""
    return linear_indices(model)[:-1]


def switch_consumers(model: ModelGraph) -> list[int]:
    """Graph position of each switch's consumer, by ordinal: the conv or fc
    layer after prunable layer ``o``, whose input weights switch ``o``
    scales."""
    return linear_indices(model)[1:]


def _width(spec) -> int:
    """Output channels of a conv layer, output units of an fc layer."""
    return spec.c_out if isinstance(spec, Conv2d) else spec.d_out


def prunable_widths(model: ModelGraph) -> list[int]:
    return [_width(model.layers[i]) for i in prunable_indices(model)]


def propagate_shapes(layers, input_shape) -> list[tuple]:
    """Output shape (without batch dim) after each layer; raises ShapeError,
    naming the layer, on any mismatch, including non-positive spatial dims,
    and on a geometry the tensor ops do not run: a conv at a stride other
    than 1, and a max-pool whose k x k windows at stride k do not tile."""
    shape = tuple(int(v) for v in input_shape)
    shapes = []
    for i, spec in enumerate(layers):
        if isinstance(spec, Conv2d):
            if min(spec.kh, spec.kw) < 1 or spec.stride != 1 or spec.pad < 0:
                raise ShapeError(f"layer {i}: conv2d needs kernel >= 1, stride 1 and pad >= 0, "
                                 f"got kh={spec.kh}, kw={spec.kw}, stride={spec.stride}, "
                                 f"pad={spec.pad}")
            if len(shape) != 3 or shape[0] != spec.c_in:
                raise ShapeError(f"layer {i}: conv2d expects ({spec.c_in}, H, W), got {shape}")
            oh = shape[1] + 2 * spec.pad - spec.kh + 1
            ow = shape[2] + 2 * spec.pad - spec.kw + 1
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
            k = spec.k
            if k < 1 or spec.stride != k or shape[1] % k or shape[2] % k or 0 in shape[1:]:
                raise ShapeError(f"layer {i}: maxpool2d needs k x k windows at stride k that "
                                 f"tile its {shape[1:]} input, got k={k}, stride={spec.stride}")
            shape = (shape[0], shape[1] // k, shape[2] // k)
        elif isinstance(spec, Flatten):
            shape = (int(np.prod(shape)),)
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
            params: dict | None = None, *, start: int = 0, stop: int | None = None):
    """Run the graph on a batch.

    x is (N, C, H, W) for conv models or (N, d) for dense ones. A uint8 x
    holds 8-bit pixels (``data.load_mnist_idx``) and enters the graph as
    float64 ``x / 255.0``, in [0, 1]; any other x enters as float64.

    ``switches`` maps a prunable ordinal to a non-negative scale on that
    layer's output channels (array or Tensor); a missing entry acts as
    identity, and a key that is no ordinal raises ContractError. A switch
    acts at its consumer (see ``switch_consumers``) through
    ``tensor.scale_input_channels``: a conv kernel is scaled along c_in, an
    fc weight row group by row group, a group being the H*W rows one
    channel fills after a flatten. A negative entry raises ContractError,
    since the fold is exact only for s >= 0, and a width other than its
    layer's raises ShapeError. A (c, C) switch folds c scales at once: the
    consumer runs with c scaled copies of its weight and its untracked bias
    tiled c times, and its output, pooled if its conv pools, becomes N * c
    rows, row n * c + j being batch row n under scale j. ``params``
    overrides weights by name with Tensors, for gradient-carrying passes (a
    tracked weight takes no switch).

    ``start`` and ``stop`` run only layers[start:stop]; x is then the
    activation that enters layer ``start``, and the result is the one that
    leaves layer ``stop - 1``. A switch scales nothing until its consumer
    runs, so an activation between a prunable layer and its consumer is
    unscaled, and a switch on a layer before ``start`` still scales a
    consumer at or after it. The default runs the whole graph.

    A conv followed by a max-pool, both inside [start, stop), runs as one
    op, ``conv2d(..., pool=k)``, which never makes the conv's whole output
    (LeNet's conv1 and conv2). A ``stop`` between the two, or a ReLU between
    them as in a graph of the older order, runs them as separate ops; the
    values and gradients are the same either way. An input on which a pool
    does not tile, as one of another size than the graph's, raises
    ContractError.
    """
    if isinstance(x, np.ndarray) and x.dtype == np.uint8:
        x = x / 255.0  # the graph's only input scale: 8-bit pixels to [0, 1]
    h = T._lift(x)
    if h.data.ndim not in (2, 4):
        raise ShapeError(f"input must be (N, d) or (N, C, H, W), got {h.data.shape}")
    layers, weights, params = model.layers, model.weights, params or {}
    feeding = {}
    if switches:
        linear = linear_indices(model)
        for o in switches:
            if o not in range(len(linear) - 1):
                raise ContractError(f"switch key {o!r} is not a prunable ordinal "
                                    f"in range({len(linear) - 1})")
        feeding = {c: o for o, c in enumerate(linear[1:]) if switches.get(o) is not None}
    stop = len(layers) if stop is None else stop
    if not 0 <= start <= stop <= len(layers):
        raise ContractError(
            f"layer range [{start}, {stop}) outside a graph of {len(layers)} layers")
    pooled = None  # the index of a max-pool that ran inside the conv before it
    for i in range(start, stop):
        spec = layers[i]
        if isinstance(spec, (FullyConnected, Conv2d)):
            name, bias_name = f"layer{i}.weight", f"layer{i}.bias"
            w = params.get(name) or Tensor(weights[name])
            b = params.get(bias_name) or Tensor(weights[bias_name])
            copies = 1
            if i in feeding:
                o = feeding[i]
                s = T._lift(switches[o])
                if (s.data < 0.0).any():
                    raise ContractError(f"switch {o} has a negative entry; only a "
                                        f"non-negative scale folds into layer {i}")
                width = _width(layers[linear[o]])
                if s.shape[-1:] != (width,):
                    raise ShapeError(f"switch {o} has shape {s.shape}; layer {linear[o]} "
                                     f"has {width} output channels")
                w = T.scale_input_channels(w, s)
                if s.data.ndim == 2 and s.shape[0] > 1:
                    copies = s.shape[0]
                    if b.requires_grad:
                        raise ContractError(f"layer {i}'s bias is tracked, but a switch of "
                                            f"{copies} rows tiles it untaped")
                    b = Tensor(np.concatenate((b.data,) * copies))
            if isinstance(spec, FullyConnected):
                h = T.matmul(h, w, bias=b)
            else:
                nxt = layers[i + 1] if i + 1 < stop else None
                pool = nxt.k if isinstance(nxt, MaxPool2d) else None
                h = T.conv2d(h, w, padding=spec.pad, bias=b, pool=pool)
                if pool is not None:
                    pooled = i + 1
            if copies > 1:  # row n * copies + j: batch row n under switch row j
                h = T.reshape(h, (h.shape[0] * copies, h.shape[1] // copies) + h.shape[2:])
        elif isinstance(spec, Relu):
            h = T.relu(h)
        elif isinstance(spec, MaxPool2d):
            if i != pooled:
                h = T.maxpool2d(h, spec.k)
        elif isinstance(spec, Flatten):
            h = T.flatten_batch(h)
    return h


def fold_switches(model: ModelGraph, switches: dict, start: int, stop: int) -> dict:
    """Each 1-d switch in ``switches`` (by prunable ordinal) folded into the
    weight of its consumer, where that consumer lies in layers[start:stop],
    as ``forward``'s ``params``: a pass over that range given them and no
    switch computes what one given the switches does, bit for bit, while
    each weight is scaled once however many batches it runs on."""
    consumers = switch_consumers(model)
    params = {}
    for o, s in switches.items():
        if start <= consumers[o] < stop:
            name = f"layer{consumers[o]}.weight"
            params[name] = T.scale_input_channels(Tensor(model.weights[name]), T._lift(s))
    return params


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


def build_lenet5(widths, rng=None, seed: int | None = None) -> ModelGraph:
    """LeNet-5 for 1x28x28 inputs: conv5x5 -> pool -> relu -> conv5x5 ->
    pool -> relu -> fc -> fc -> fc(10), widths = [c1, c2, f1, f2].

    Each pool comes before its ReLU: max-pooling and ReLU commute exactly,
    values and gradients alike, and ReLU then runs on a quarter of the
    elements. A graph in the other order loads and runs unchanged."""
    widths = [int(w) for w in widths]
    if len(widths) != 4 or any(w < 1 for w in widths):
        raise ContractError(f"widths must be four positive ints, got {widths}")
    c1, c2, f1, f2 = widths
    rng = rng if rng is not None else np.random.default_rng(seed or 0)
    layers = [Conv2d(1, c1, 5, 5), MaxPool2d(2, 2), Relu(),
              Conv2d(c1, c2, 5, 5), MaxPool2d(2, 2), Relu(), Flatten(),
              FullyConnected(c2 * 16, f1), Relu(),
              FullyConnected(f1, f2), Relu(),
              FullyConnected(f2, 10)]
    return _he_initialized(layers, (1, 28, 28), "lenet5", rng, seed)


def build_mlp(d_x: int, d_h: int, d_out: int = 2, rng=None,
              seed: int | None = None) -> ModelGraph:
    """Two-layer dense net fc(d_x, d_h) -> relu -> fc(d_h, d_out)."""
    if min(d_x, d_h, d_out) < 1:
        raise ContractError(f"dims must be positive, got {(d_x, d_h, d_out)}")
    rng = rng if rng is not None else np.random.default_rng(seed or 0)
    layers = [FullyConnected(d_x, d_h), Relu(), FullyConnected(d_h, d_out)]
    return _he_initialized(layers, (d_x,), "mlp", rng, seed)


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


def count_flops(model: ModelGraph) -> int:
    """Multiply-accumulates in the linear layers for one input.

    conv: kh*kw*c_in*c_out*H_out*W_out, fc: d_in*d_out.
    """
    shapes = propagate_shapes(model.layers, model.input_shape)
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
    """Write ``model`` as a .dpm1 file. Each weight goes out from its own
    buffer (a C-contiguous little-endian float64 array is not copied)."""
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
            f.write(np.ascontiguousarray(model.weights[n], dtype="<f8"))


def load_model(path) -> ModelGraph:
    """Read a .dpm1 file written by ``save_model``. The header is read first;
    each weight's byte range is checked against the file's size before its
    array is allocated, and the bytes are then read straight into that
    array, so loading holds no copy of the file. A bad magic, a truncated or
    overlong file, a malformed header or weights that do not fit the layers
    raise FormatError naming the byte, the file or the key."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if head[:4] != MAGIC:
            raise FormatError(f"bad magic {head[:4]!r} at byte 0, expected {MAGIC!r}")
        if len(head) < 8:
            raise FormatError(f"file truncated at byte {len(head)}: header length missing")
        (hlen,) = struct.unpack("<I", head[4:8])
        if size < 8 + hlen:
            raise FormatError(f"file truncated at byte {size}: header runs to {8 + hlen}")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"bad JSON header at byte 8: {e}") from None
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header is not a JSON object")
        if header.get("version") != 1:
            raise FormatError(f"unsupported version {header.get('version')!r}")
        parsed = {}
        for key, parse in (("layers", lambda v: [_spec_from_dict(d) for d in v]),
                           ("weights", lambda v: [(e["name"], tuple(e["shape"])) for e in v]),
                           ("input_shape", tuple)):
            if key not in header:
                raise FormatError(f"{path}: header has no {key!r}")
            try:
                parsed[key] = parse(header[key])
            except (KeyError, TypeError, ValueError) as e:
                raise FormatError(f"{path}: header {key!r} is malformed "
                                  f"({type(e).__name__}: {e})") from None
        offset = 8 + hlen
        weights = {}
        for name, shape in parsed["weights"]:
            if not all(isinstance(n, int) and n >= 0 for n in shape):
                raise FormatError(f"{path}: header 'weights': {name} has shape {list(shape)}")
            nbytes = math.prod(shape) * 8
            if size < offset + nbytes:
                raise FormatError(
                    f"file truncated at byte {size}: weight {name} "
                    f"needs bytes [{offset}, {offset + nbytes})")
            array = np.empty(shape, dtype="<f8")
            if f.readinto(array) != nbytes:
                raise FormatError(f"{path}: the file shrank while weight {name} was read")
            weights[name] = array.astype(np.float64, copy=False)  # no copy on a little-endian host
            offset += nbytes
    if offset != size:
        raise FormatError(f"trailing {size - offset} bytes at byte {offset}")
    model = ModelGraph(parsed["layers"], weights, parsed["input_shape"],
                       header.get("metadata", {}))
    try:
        validate_model(model)
    except ShapeError as e:
        raise FormatError(f"{path}: {e}") from None
    return model


def read_json(path, what: str, by_layer: str) -> dict:
    """The payload of a version-1 JSON artifact (a plan, switch states),
    whose ``by_layer`` entry is an object keyed by prunable ordinal; that
    entry comes back keyed by int.

    A file that is not such a JSON object raises FormatError naming the file
    and the key; another version raises ContractError.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as e:  # truncated or not text
        raise FormatError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("version") != 1:
        raise ContractError(f"unsupported {what} version {payload.get('version')!r}")
    entries = payload.get(by_layer)
    if not isinstance(entries, dict):
        raise FormatError(f"{path}: {what} has no {by_layer!r} object keyed by layer")
    payload[by_layer] = {int(k): v for k, v in entries.items() if k.isdecimal()}
    if len(payload[by_layer]) != len(entries):  # a key that is no index, or a repeat
        raise FormatError(f"{path}: {what} {by_layer!r} keys {sorted(entries)} are not "
                          "distinct layer indices")
    return payload


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as the version-1 JSON artifact ``read_json`` reads:
    indented, keys sorted, one trailing newline."""
    with open(path, "w") as f:
        json.dump({"version": 1, **payload}, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# plain supervised training and evaluation


# train_model steps a parameter of at least this many values (512 KiB of
# float64) inside the backward sweep, from its own gradient, or each row block
# of it, scaled in place; a smaller one, whose gradient comes whole, steps
# with the rest after the sweep, in one concatenated update
_STEP_VALUES = T._ROW_GRAD_VALUES


def _check_count(key: str, value, least: int) -> None:
    """Raise ContractError naming ``key`` unless ``value`` is an int of at
    least ``least``; a numpy int counts, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{key} must be an int, got {value!r}")
    if value < least:
        raise ContractError(f"{key} must be >= {least}, got {value}")


@dataclass
class TrainSchedule:
    """Momentum SGD settings. Zero epochs is a schedule only for a fine-tune,
    whose starting weights ``train_model`` scores on its validation set."""

    epochs: int = 1
    batch_size: int = 100
    lr: float = 0.05
    momentum: float = 0.9

    def __post_init__(self):
        _check_count("epochs", self.epochs, 0)
        _check_count("batch_size", self.batch_size, 1)
        for key, ok, need in (("lr", math.isfinite(self.lr) and self.lr > 0.0, "finite and > 0"),
                              ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)")):
            if not ok:
                raise ContractError(f"{key} must be {need}, got {getattr(self, key)!r}")


def output_width(model: ModelGraph) -> int:
    """Outputs of the last conv or fc layer: the number of classes the model
    can tell apart."""
    return _width(model.layers[linear_indices(model)[-1]])


def loss_bound(model: ModelGraph) -> float:
    """1e9 times log(classes), the cross-entropy of a uniform guess: a finite
    loss above it means the run has diverged. A diverging run grows by orders
    of magnitude per batch, so it passes the bound a batch or two later than
    a tighter one; a tighter one would stop the planted-weight MLP's
    fine-tune (its large output weights give batch losses up to about 6e5 at
    lr 0.05, and it still lowers the error)."""
    return 1e9 * math.log(max(output_width(model), 2))


def _check_rows(x, y, what: str):
    """``x`` as float64, or as it is if it holds uint8 pixels (``forward``
    scales each batch of those), and ``y`` as an array; ContractError,
    naming ``what``, if there is no row or the row and label counts differ."""
    x = np.asarray(x)
    if x.dtype != np.uint8:
        x = x.astype(np.float64, copy=False)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise ContractError(f"{what} is empty")
    if y.shape[:1] != x.shape[:1]:
        raise ContractError(f"{what} has {x.shape[0]} rows but {y.size} labels")
    return x, y


def _batches(n, batch_size, rng=None):
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    idx = np.arange(n)
    if rng is not None:
        rng.shuffle(idx)
    for start in range(0, n, batch_size):
        yield idx[start:start + batch_size]


def train_model(model: ModelGraph, x, y, schedule: TrainSchedule, rng, *,
                val=None) -> list[float]:
    """Minibatch SGD with momentum on the cross-entropy, with no switch;
    returns per-epoch mean loss, each logged at INFO, and appends one
    ``training_history`` entry. Replaces each linear layer's weight and bias
    in model.weights with a view of one new buffer that the steps update in
    place; the velocity lives across the whole schedule. A parameter of at
    least ``_STEP_VALUES`` values (LeNet's fc1 and fc2 weights) takes its
    step inside the backward sweep, as soon as ``tensor.backward`` hands its
    gradient over, with that gradient scaled in place into lr * g, and the
    gradient is dropped right then. An fc weight goes over in row blocks as
    its matmul's backward forms them, each block stepping its rows, so no
    whole fc weight gradient, whole-model gradient or step buffer is held;
    the smaller parameters step together after the sweep, from one
    concatenated lr * g freed before the next batch's forward. Each element
    takes the same operations on every path. Raises NumericError,
    naming the epoch and batch, at the first batch whose loss is not finite
    or exceeds ``loss_bound``, before its step touches the weights.

    With ``val=(x_val, y_val)`` it is a fine-tune: the starting weights
    (epoch 0) and each epoch's are scored on the validation rows, each
    epoch's error is logged, and the best (the earliest on a tie) end in
    place; the history entry adds their ``kept_epoch`` and ``val_error`` %.
    A NumericError then ends the schedule, logged, since no later epoch
    could be trusted. Zero epochs, a ContractError without ``val``, only
    scores the weights."""
    x, y = _check_rows(x, y, "training data")
    if val is not None:
        x_val, y_val = _check_rows(*val, "validation data")
    elif schedule.epochs < 1:
        raise ContractError(f"epochs must be >= 1 without a validation set, "
                            f"got {schedule.epochs}")
    bound = loss_bound(model)
    # one buffer, as a copy, leaves arrays shared with another model alone;
    # the small parameters lie first in it, so their step is four in-place
    # ufuncs on its head, not four per weight
    names = [f"layer{i}.{kind}" for i in linear_indices(model) for kind in ("weight", "bias")]
    names.sort(key=lambda n: model.weights[n].size >= _STEP_VALUES)  # stable: small first
    flat = np.concatenate([model.weights[n] for n in names], axis=None, dtype=np.float64)
    velocity = np.zeros_like(flat)
    params, small, large, start = {}, [], {}, 0
    for n in names:
        shape = model.weights[n].shape
        stop = start + math.prod(shape)
        view = flat[start:stop].reshape(shape)
        model.weights[n] = view
        params[n] = p = Tensor(view, requires_grad=True)
        if stop - start < _STEP_VALUES:
            small.append(p)
        else:
            large[p] = (view, velocity[start:stop].reshape(shape))
        start = stop
    n_small = sum(p.size for p in small)
    head, v_head = flat[:n_small], velocity[:n_small]

    def take(p, rows, g):
        """The momentum step of rows ``rows`` of a large parameter, whose
        gradient there is g, final, and held by nothing else, so it is
        scaled in place and dropped; a small one's whole g waits in .grad."""
        if p not in large:
            p.grad = g
            return
        w, v = (a[rows] for a in large[p])
        g *= schedule.lr
        v *= schedule.momentum
        v -= g
        w += v

    on_leaf = take if large else None  # with none, backward scans no routes
    if val is not None:
        best, best_err, kept = flat.copy(), evaluate(model, x_val, y_val), 0
    losses = []
    for epoch in range(schedule.epochs):
        t0 = time.perf_counter()
        total, nb = 0.0, 0
        try:
            for idx in _batches(x.shape[0], schedule.batch_size, rng):
                with Tape():
                    logits = forward(model, x.take(idx, axis=0), params=params)
                    loss = T.softmax_cross_entropy(logits, y.take(idx))
                value = loss.item()
                if not value <= bound:  # NaN fails this test as well
                    where = f"at epoch {epoch + 1}, batch {nb + 1}"
                    if not math.isfinite(value):
                        raise NumericError(f"training loss is {value} {where}")
                    raise NumericError(f"training loss {value:.6g} exceeds the "
                                       f"divergence bound {bound:.6g} {where}")
                T.backward(loss, on_leaf=on_leaf)
                # v = momentum * v - lr * g; w = w + v
                step = np.concatenate([p.grad for p in small], axis=None)
                step *= schedule.lr
                v_head *= schedule.momentum
                v_head -= step
                head += v_head
                del step  # not held through the next batch's forward and backward
                for p in small:
                    p.grad = None
                total += value
                nb += 1
        except NumericError as e:
            if val is None:
                raise
            logger.info("finetune epoch %d/%d: %s; stopped", epoch + 1, schedule.epochs, e)
            break
        losses.append(total / max(nb, 1))
        logger.info("epoch %d/%d: loss %.4f (%.2fs)", epoch + 1, schedule.epochs,
                    losses[-1], time.perf_counter() - t0)
        if val is not None:
            err = evaluate(model, x_val, y_val)
            logger.info("finetune epoch %d/%d: val error %.2f%%", epoch + 1,
                        schedule.epochs, err)
            if err < best_err:
                best[:] = flat
                best_err, kept = err, epoch + 1
    entry = {"epochs": schedule.epochs, "lr": schedule.lr, "batch_size": schedule.batch_size,
             "final_loss": losses[-1] if losses else None}
    if val is not None:
        flat[:] = best
        entry.update(kept_epoch=kept, val_error=best_err)
    model.metadata.setdefault("training_history", []).append(entry)
    return losses


def evaluate(model: ModelGraph, x, y, batch_size: int = 100) -> float:
    """Classification error in percent, with no switch.

    Rows run in batches of ``batch_size``, the training batch size of every
    shipped config. The batch size sets the memory, not the answer: each
    conv runs with its pool (``forward``), so at 100 rows full LeNet's
    largest activation is pool1's 2.3 MB output, and at 500 rows 11.5 MB;
    no pass makes conv1's whole output, and conv2d's block buffers never
    exceed one 2 MiB row block.
    """
    x, y = _check_rows(x, y, "evaluation data")
    wrong = 0
    for idx in _batches(x.shape[0], batch_size):
        logits = forward(model, x[idx])
        wrong += int((logits.data.argmax(axis=1) != y[idx]).sum())
    return 100.0 * wrong / x.shape[0]
