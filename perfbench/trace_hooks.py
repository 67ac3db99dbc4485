"""Spans and counters around the package's public functions, from outside.

``Tracer.install()`` imports ``dirichlet_pruning`` and replaces each traced
function, in every package module that holds a reference to it, with a
wrapper that records a span (name, parent, start, end, rows). No library
file is edited. Tensor ops are keyed by graph layer: the n-th conv2d,
maxpool2d or matmul inside one ``models.forward`` call is ``convN``,
``poolN`` or ``fcN``. Per-op backward time comes from wrapping the closure
each op hands to ``tensor._record``; the same hook counts tape nodes.

Spans live in flat arrays until ``dump`` writes them, with the counters, to
one ``.npz`` file; ``trace_report`` turns that into metrics.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# module -> functions that get a plain span named "<module>.<function>"
SPANNED = {
    "special": ("gamma_sample_batch", "gamma_implicit_grad_batch",
                "gamma_regularized_P_batch", "lgamma_batch", "digamma_batch",
                "trigamma_batch"),
    "dirichlet": ("dirichlet_kl", "dirichlet_kl_grad"),
    "switch": ("train_switches", "neg_elbo_and_grads"),
    "models": ("forward", "train_model", "evaluate", "save_model", "load_model",
               "copy_model"),
    "pruning": ("rank_dirichlet", "make_plan", "apply_plan", "finetune",
                "ranking_to_csv", "plan_to_json"),
    "pipeline": ("run_pipeline", "load_dataset"),
    "config": ("parse_config_text",),
    "data": ("load_mnist_idx",),
    "synthetic": ("gen_synthetic",),
    "tensor": ("backward",),
}
# tensor ops keyed by graph layer; value is the layer-name prefix
LAYER_OPS = {"conv2d": "conv", "maxpool2d": "pool", "matmul": "fc"}
PLAIN_OPS = ("relu", "broadcast_add_channels", "broadcast_mul_channels",
             "softmax_cross_entropy")


def _rows_of(module: str, fn: str, args) -> int:
    """Work size recorded on the span: batch rows, or elements for P."""
    if module == "models" and fn in ("forward", "evaluate", "train_model"):
        rows = int(np.shape(args[1])[0])
        if fn == "train_model":
            rows *= args[3].epochs
        return rows
    if module == "special" and fn == "gamma_sample_batch":
        return int(np.size(args[0]))
    if module == "special" and fn == "gamma_regularized_P_batch":
        return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)
    return 0


def _macs(op: str, args, kwargs) -> int:
    a, b = args[0].shape, args[1].shape
    if op == "matmul":
        return a[0] * a[1] * b[1]
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    pad = kwargs.get("padding", args[3] if len(args) > 3 else 0)
    h_out = (a[2] + 2 * pad - b[2]) // stride + 1
    w_out = (a[3] + 2 * pad - b[3]) // stride + 1
    return a[0] * b[0] * h_out * w_out * b[1] * b[2] * b[3]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._layer_counts: dict[str, int] | None = None
        self._op: tuple[str, int] | None = None

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str, rows: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.rows.append(rows)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, module: str, fn_name: str, fn):
        name = f"{module}.{fn_name}"
        is_forward = name == "models.forward"

        def wrapper(*args, **kwargs):
            idx = self._begin(name, _rows_of(module, fn_name, args))
            saved = self._layer_counts
            if is_forward:
                self._layer_counts = {}
            try:
                return fn(*args, **kwargs)
            finally:
                self._layer_counts = saved
                self._finish(idx)
        return wrapper

    def _layer_key(self, op: str) -> str:
        if self._layer_counts is None:
            return "other"
        n = self._layer_counts.get(op, 0) + 1
        self._layer_counts[op] = n
        return f"{LAYER_OPS[op]}{n}"

    def _tensor_op(self, op: str, fn):
        layered = op in LAYER_OPS

        def wrapper(*args, **kwargs):
            prefix = f"tensor.{op}"
            if layered:
                prefix = f"{prefix}.{self._layer_key(op)}"
                if op != "maxpool2d":
                    self.count(f"{prefix}.macs", _macs(op, args, kwargs))
            rows = int(args[0].shape[0])
            outer = self._op
            self._op = (prefix, rows)
            idx = self._begin(prefix + ".fwd", rows)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)
                self._op = outer
        return wrapper

    def _record_hook(self, record):
        def wrapper(out, inputs, backward_fn):
            op = self._op
            name, rows = (op[0] + ".bwd", op[1]) if op else ("tensor.other.bwd", 0)

            def timed_backward(g):
                idx = self._begin(name, rows)
                try:
                    return backward_fn(g)
                finally:
                    self._finish(idx)

            result = record(out, inputs, timed_backward)
            if out._recorded:
                self.count("tensor.tape_nodes", 1)
            return result
        return wrapper

    # -- install / dump ----------------------------------------------------

    def install(self) -> None:
        import dirichlet_pruning  # noqa: F401  (loads every traced module)
        from dirichlet_pruning import tensor

        package = {name: mod for name, mod in sys.modules.items()
                   if name == "dirichlet_pruning" or name.startswith("dirichlet_pruning.")}

        def replace(original, wrapper):
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        # A function the package no longer has is skipped: its metrics read 0.
        for module, fns in SPANNED.items():
            mod = package.get(f"dirichlet_pruning.{module}")
            for fn_name in fns:
                original = getattr(mod, fn_name, None)
                if original is not None:
                    replace(original, self._spanned(module, fn_name, original))
        for op in (*LAYER_OPS, *PLAIN_OPS):
            original = getattr(tensor, op, None)
            if original is not None:
                replace(original, self._tensor_op(op, original))
        if hasattr(tensor, "_record"):
            tensor._record = self._record_hook(tensor._record)

    def dump(self, path: str) -> None:
        names = sorted(self.counters)
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int32),
                 start=np.asarray(self.start, dtype=np.float64),
                 end=np.asarray(self.end, dtype=np.float64),
                 rows=np.asarray(self.rows, dtype=np.int64),
                 counter_names=np.array(names, dtype=str),
                 counter_values=np.array([self.counters[n] for n in names]))
