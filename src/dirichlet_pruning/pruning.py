"""Channel ranking, pruning plans, physical channel removal.

Rankings, plans and switches address prunable layers by ordinal: 0 for
the first conv/fc layer in the graph, 1 for the next, and so on (the final
linear layer holds the class outputs and is never pruned). A plan's
keep-list for a layer is a sorted subset of that layer's output channel
indices.

Physical removal slices output channels of each pruned layer and the
matching input slices of the next linear layer (expanding across flatten to
all spatial positions). A layer given a switch mean has each kept channel's
weights and bias scaled by its mean value, so the pruned network reproduces
the masked switched forward exactly. The short fine-tune that follows is
``models.train_model`` given a validation set.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, FormatError, ShapeError
from .models import (Conv2d, Flatten, FullyConnected, ModelGraph, Tensor, _check_rows,
                     forward, propagate_shapes, prunable_indices, prunable_widths,
                     read_json, validate_model, write_json)
from .switch import SwitchState


# ---------------------------------------------------------------------------
# rankings


@dataclass
class LayerRanking:
    layer: int
    scores: np.ndarray
    order: np.ndarray
    method: str


@dataclass
class RankingReport:
    per_layer: list[LayerRanking]

    def layer(self, ordinal: int) -> LayerRanking:
        for lr in self.per_layer:
            if lr.layer == ordinal:
                return lr
        raise ContractError(f"no ranking for layer {ordinal}")


def _order_desc(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score, ties broken by lower channel index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def rank_dirichlet(states: list[SwitchState]) -> RankingReport:
    """Channels scored by their switch posterior mean."""
    if not states:
        raise ContractError("no switch states given")
    per_layer = []
    for st in sorted(states, key=lambda s: s.layer):
        scores = st.posterior_mean()
        per_layer.append(LayerRanking(st.layer, scores, _order_desc(scores), "dirichlet"))
    return RankingReport(per_layer)


def rank_magnitude(model: ModelGraph, norm: str = "L1") -> RankingReport:
    """Channels scored by the norm of their own parameters: the output
    channel's kernel slice plus bias for conv, the incoming weight column
    plus bias for fc."""
    if norm not in ("L1", "L2"):
        raise ContractError(f"norm must be L1 or L2, got {norm!r}")
    per_layer = []
    for ordinal, gi in enumerate(prunable_indices(model)):
        spec = model.layers[gi]
        w = model.weights[f"layer{gi}.weight"]
        b = model.weights[f"layer{gi}.bias"]
        if isinstance(spec, Conv2d):
            flat = np.concatenate([w.reshape(spec.c_out, -1), b[:, None]], axis=1)
        else:
            flat = np.concatenate([w.T, b[:, None]], axis=1)
        if norm == "L1":
            scores = np.abs(flat).sum(axis=1)
        else:
            scores = np.sqrt((flat * flat).sum(axis=1))
        per_layer.append(LayerRanking(ordinal, scores, _order_desc(scores), norm))
    return RankingReport(per_layer)


def rank_derivative(model: ModelGraph, xb, yb) -> RankingReport:
    """First-order removal cost |dC/dh * h| averaged over the batch and any
    spatial positions, taken at each prunable layer's pre-activation h.

    Each layer's h is reached by an untaped pass that continues from the
    previous layer's h; a taped pass from h, whose only leaf is h itself,
    gives dC/dh. No weight gradient is computed."""
    xb, yb = _check_rows(xb, yb, "ranking batch")
    per_layer = []
    h, start = xb, 0
    for ordinal, gi in enumerate(prunable_indices(model)):
        h = forward(model, h, start=start, stop=gi + 1).data
        start = gi + 1
        leaf = Tensor(h, requires_grad=True)
        with T.Tape():
            loss = T.softmax_cross_entropy(forward(model, leaf, start=start), yb)
        T.backward(loss)
        prod = np.abs(leaf.grad * h)
        axes = (0,) if prod.ndim == 2 else (0, 2, 3)
        scores = prod.mean(axis=axes)
        per_layer.append(LayerRanking(ordinal, scores, _order_desc(scores), "derivative"))
    return RankingReport(per_layer)


def rank_random(model: ModelGraph, rng) -> RankingReport:
    """Uniform random scores; the control baseline."""
    per_layer = []
    for ordinal, width in enumerate(prunable_widths(model)):
        scores = rng.random(width)
        per_layer.append(LayerRanking(ordinal, scores, _order_desc(scores), "random"))
    return RankingReport(per_layer)


# ---------------------------------------------------------------------------
# plans


@dataclass
class PruningPlan:
    keep: dict[int, np.ndarray] = field(default_factory=dict)

    def validate_against(self, model: ModelGraph) -> None:
        widths = prunable_widths(model)
        for ordinal, kept in self.keep.items():
            if not 0 <= ordinal < len(widths):
                raise ContractError(f"plan addresses layer {ordinal}, "
                                    f"model has {len(widths)} prunable layers")
            kept = np.asarray(kept)
            if kept.size == 0:
                raise ContractError(f"layer {ordinal}: keep-list is empty")
            if np.any(np.diff(kept) <= 0):
                raise ContractError(f"layer {ordinal}: keep-list not strictly increasing")
            if kept[0] < 0 or kept[-1] >= widths[ordinal]:
                raise ShapeError(f"layer {ordinal}: keep indices {kept} outside "
                                 f"width {widths[ordinal]}")


def make_plan(report: RankingReport, keep_counts=None, rate: float | None = None) -> PruningPlan:
    """Top-k of each layer's ranking; k from explicit per-layer counts or a
    global pruning rate, where rate r keeps ceil((1-r)*width) channels.
    keep_counts is a list (entry i for prunable ordinal i) or a dict keyed by
    ordinal, with exactly one count per ranked layer."""
    if (keep_counts is None) == (rate is None):
        raise ContractError("give exactly one of keep_counts or rate")
    if keep_counts is not None:
        given = keep_counts if isinstance(keep_counts, dict) else range(len(keep_counts))
        ranked = [lr.layer for lr in report.per_layer]
        if sorted(given) != sorted(ranked):
            raise ContractError(f"keep_counts: need one count for each ranked layer "
                                f"{ranked}, got {keep_counts}")
    keep = {}
    for lr in report.per_layer:
        width = lr.scores.size
        if rate is not None:
            if not 0.0 < rate < 1.0:
                raise ContractError(f"rate must be in (0,1), got {rate}")
            count = math.ceil((1.0 - rate) * width)
        else:
            count = int(keep_counts[lr.layer])
        if count < 1 or count > width:
            raise ContractError(f"layer {lr.layer}: keep count {count} "
                                f"outside [1, {width}]")
        keep[lr.layer] = np.sort(lr.order[:count])
    return PruningPlan(keep)


def apply_plan(model: ModelGraph, plan: PruningPlan,
               switch_means: dict | None = None) -> ModelGraph:
    """Physically pruned copy of the model; see the module docstring for the
    slicing rules. switch_means maps prunable ordinals to switch means (e.g.
    from trained SwitchState.posterior_mean()); each is folded into its
    layer, and a layer with no entry is left unscaled."""
    plan.validate_against(model)
    widths = prunable_widths(model)
    means = {}
    for ordinal, m in (switch_means or {}).items():
        if ordinal not in range(len(widths)):
            raise ContractError(f"switch means for layer {ordinal}: the model has "
                                f"no prunable layer {ordinal}")
        means[ordinal] = np.asarray(m, dtype=np.float64)
        if means[ordinal].shape != (widths[ordinal],):
            raise ShapeError(f"switch means for layer {ordinal} have shape "
                             f"{means[ordinal].shape}, expected ({widths[ordinal]},)")
    shapes = propagate_shapes(model.layers, model.input_shape)
    ordinal_of = {gi: o for o, gi in enumerate(prunable_indices(model))}

    new_layers: list = []
    new_weights: dict[str, np.ndarray] = {}
    in_keep: np.ndarray | None = None  # kept input channels of the next layer

    def put(spec, **arrays):
        new_layers.append(spec)
        idx = len(new_layers) - 1
        for suffix, arr in arrays.items():
            new_weights[f"layer{idx}.{suffix}"] = np.ascontiguousarray(arr)

    for i, spec in enumerate(model.layers):
        if isinstance(spec, (Conv2d, FullyConnected)):
            w = model.weights[f"layer{i}.weight"]
            b = model.weights[f"layer{i}.bias"]
            # take, not w[:, keep], whose copy is column-major and would be
            # copied once more into row order
            conv = isinstance(spec, Conv2d)
            if in_keep is not None:
                w = w.take(in_keep, axis=1 if conv else 0)
            ordinal = ordinal_of.get(i)
            out_keep = None
            if ordinal in plan.keep:
                out_keep = np.asarray(plan.keep[ordinal])
                w, b = w.take(out_keep, axis=0 if conv else 1), b.take(out_keep)
            if ordinal in means:
                # a cut array is a fresh copy, scaled in place; an uncut one
                # is the source's, so its scaled copy is a new array
                scale = means[ordinal] if out_keep is None else means[ordinal][out_keep]
                cut = out_keep is not None
                w = np.multiply(w, scale.reshape((-1, 1, 1, 1) if conv else (1, -1)),
                                out=w if cut or in_keep is not None else None)
                b = np.multiply(b, scale, out=b if cut else None)
            if conv:
                put(Conv2d(w.shape[1], w.shape[0], spec.kh, spec.kw, spec.stride, spec.pad),
                    weight=w, bias=b)
            else:
                put(FullyConnected(w.shape[0], w.shape[1]), weight=w, bias=b)
            in_keep = out_keep
        elif isinstance(spec, Flatten):
            if in_keep is not None:
                c, h, w = shapes[i - 1] if i > 0 else model.input_shape
                hw = h * w
                in_keep = (in_keep[:, None] * hw + np.arange(hw)[None, :]).reshape(-1)
            put(Flatten())
        else:
            put(spec)

    pruned = ModelGraph(new_layers, new_weights, tuple(model.input_shape),
                        dict(model.metadata, pruned_from=model.arch_string))
    validate_model(pruned)
    return pruned


# ---------------------------------------------------------------------------
# serialization


def ranking_to_csv(report: RankingReport, path) -> None:
    """Rows layer,channel,score,rank with rank 0 for the top channel."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "channel", "score", "rank"])
        for lr in report.per_layer:
            rank_of = np.empty(lr.order.size, dtype=np.int64)
            rank_of[lr.order] = np.arange(lr.order.size)
            for c in range(lr.scores.size):
                w.writerow([lr.layer, c, repr(float(lr.scores[c])), int(rank_of[c])])


def ranking_from_csv(path) -> RankingReport:
    """Read a ranking written by ``ranking_to_csv``. Each layer's channels
    and ranks must both run over 0..D-1, or FormatError names the file and
    the layer, line or rank."""
    rows = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = {"layer", "channel", "score", "rank"} - set(reader.fieldnames or ())
        if missing:
            raise FormatError(f"{path}: no {', '.join(sorted(missing))} column")
        for row in reader:
            try:
                rows.setdefault(int(row["layer"]), []).append(
                    (int(row["channel"]), float(row["score"]), int(row["rank"])))
            except (TypeError, ValueError):
                raise FormatError(f"{path}: line {reader.line_num}: "
                                  "not a layer,channel,score,rank row") from None
    per_layer = []
    for layer in sorted(rows):
        channels, scores, ranks = (np.array(col) for col in zip(*sorted(rows[layer])))
        every = np.arange(channels.size)
        if not np.array_equal(channels, every):
            raise FormatError(f"{path}: layer {layer}: channels are not 0..{every[-1]}")
        absent = np.setdiff1d(every, ranks)
        if absent.size:
            raise FormatError(f"{path}: layer {layer}: no channel has rank {absent[0]}")
        per_layer.append(LayerRanking(layer, scores, np.argsort(ranks), "csv"))
    return RankingReport(per_layer)


def plan_to_json(plan: PruningPlan, path) -> None:
    write_json(path, {"keep": {str(k): [int(v) for v in kept]
                               for k, kept in sorted(plan.keep.items())}})


def plan_from_json(path) -> PruningPlan:
    """Read a plan written by ``plan_to_json``; a malformed file raises
    FormatError naming the file and the key or layer."""
    keep = {}
    for layer, kept in read_json(path, "plan", "keep")["keep"].items():
        try:
            keep[layer] = np.asarray(sorted(int(i) for i in kept), dtype=np.int64)
        except (TypeError, ValueError):
            raise FormatError(f"{path}: keep-list for layer {layer} is not a list of "
                              "channel indices") from None
    return PruningPlan(keep)
