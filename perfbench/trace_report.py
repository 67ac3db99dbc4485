"""Per-module metrics from one trace file written by ``trace_hooks.Tracer``.

A span's self time is its duration minus the time its direct child spans
cover. Every metric name a trace of today's package produces is listed by
``known_metrics``, so BENCHMARK.json can be checked without a run.
"""

from __future__ import annotations

import numpy as np

from trace_hooks import PLAIN_OPS, SPANNED

LAYERS = {"conv2d": ("conv1", "conv2"), "maxpool2d": ("pool1", "pool2"),
          "matmul": ("fc1", "fc2", "fc3")}
# span rows summed under a metric name of their own
ROWS_METRIC = {"models.forward": "rows", "special.gamma_sample_batch": "draws",
               "special.gamma_regularized_P_batch": "elements"}
# the LeNet rows ROADMAP item 1 first measured ad hoc (ms / s per 1000 images)
ROADMAP_BASELINE = {
    "tensor.conv2d.conv1.fwd_ms_b100": 8.0, "tensor.conv2d.conv1.bwd_ms_b100": 23.0,
    "tensor.conv2d.conv2.fwd_ms_b100": 17.0, "tensor.conv2d.conv2.bwd_ms_b100": 44.0,
    "models.train_model.full_s_per_1k_rows": 1.27,
    "models.evaluate.full_s_per_1k_rows": 0.50,
}
TRACE_METRICS = ("trace.pipeline_s", "trace.overhead_s")


def _total_name(span: str) -> str:
    return "tensor.backward_s" if span == "tensor.backward" else f"{span}.s"


def known_metrics() -> dict[str, str]:
    """Every per-module metric name this report can emit, with its unit."""
    known = {}
    for module, fns in SPANNED.items():
        for fn in fns:
            span = f"{module}.{fn}"
            known[_total_name(span)] = "s"
            known[f"{span}.self_s"] = "s"
            known[f"{span}.calls"] = "count"
            if span in ROWS_METRIC:
                known[f"{span}.{ROWS_METRIC[span]}"] = "count"
    for op, layers in LAYERS.items():
        for layer in layers:
            known[f"tensor.{op}.{layer}.fwd_s"] = "s"
            known[f"tensor.{op}.{layer}.bwd_s"] = "s"
            if op != "maxpool2d":
                known[f"tensor.{op}.{layer}.macs"] = "MAC"
    for op in PLAIN_OPS:
        known[f"tensor.{op}.fwd_s"] = "s"
        known[f"tensor.{op}.bwd_s"] = "s"
    known["tensor.other.bwd_s"] = "s"  # backward of ops not traced by name
    known["tensor.tape_nodes"] = "count"
    for name in ROADMAP_BASELINE:
        known[name] = "ms" if name.endswith("_b100") else "s/1k_rows"
    for name in TRACE_METRICS:
        known[name] = "s"
    return known


def _full_model_mask(names, name_id, start):
    """Spans that ran on the unpruned model: before the plan was applied."""
    nid = {n: i for i, n in enumerate(names)}
    if "pruning.apply_plan" not in nid:
        return np.ones(start.shape, dtype=bool)
    cut = start[name_id == nid["pruning.apply_plan"]].min()
    return start < cut


def metrics_from_trace(path: str) -> dict[str, float]:
    """All metrics of one traced job. Known names absent from the trace are
    0; names outside ``known_metrics`` (say, a matmul called outside
    ``models.forward``) are kept too."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name_id, parent = z["name_id"], z["parent"]
        start, end, rows = z["start"], z["end"], z["rows"]
        counters = dict(zip((str(n) for n in z["counter_names"]),
                            z["counter_values"].tolist()))
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    k = len(names)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_total = np.bincount(name_id, weights=self_time, minlength=k)
    calls = np.bincount(name_id, minlength=k)
    row_sum = np.bincount(name_id, weights=rows, minlength=k)

    out = {name: 0.0 for name in known_metrics()}
    for i, name in enumerate(names):
        if name.endswith(".fwd") or name.endswith(".bwd"):
            out[f"{name}_s"] = float(total[i])
        else:
            out[_total_name(name)] = float(total[i])
            out[f"{name}.self_s"] = float(self_total[i])
            out[f"{name}.calls"] = float(calls[i])
            if name in ROWS_METRIC:
                out[f"{name}.{ROWS_METRIC[name]}"] = float(row_sum[i])
    out.update(counters)

    full = _full_model_mask(names, name_id, start)
    for layer in ("conv1", "conv2"):
        for phase in ("fwd", "bwd"):
            span = f"tensor.conv2d.{layer}.{phase}"
            if span in names:
                sel = full & (name_id == names.index(span)) & (rows == 100)
                if sel.any():
                    out[f"{span}_ms_b100"] = 1000.0 * float(dur[sel].mean())
    for fn in ("train_model", "evaluate"):
        span = f"models.{fn}"
        if span in names:
            sel = full & (name_id == names.index(span))
            if rows[sel].sum() > 0:
                out[f"{span}.full_s_per_1k_rows"] = 1000.0 * float(
                    dur[sel].sum() / rows[sel].sum())
    return out
