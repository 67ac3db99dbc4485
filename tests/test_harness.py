"""Config parsing, dataset IO, synthetic task, pipeline, and the CLI."""

import dataclasses
import gzip
import hashlib
import importlib.util
import inspect
import json
import logging
import math
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from dirichlet_pruning.config import (ExperimentConfig, load_config,
                                      parse_config_text, require,
                                      resolved_text)
from dirichlet_pruning.data import load_mnist_idx, train_val_split
from dirichlet_pruning.errors import (ConfigError, ContractError, FormatError,
                                      NumericError, PipelineError)
from dirichlet_pruning.models import (build_lenet5, build_mlp, forward, load_model,
                                      save_model)
from dirichlet_pruning.pgm import to_u8, write_pgm
from dirichlet_pruning.pipeline import (export_feature_maps, load_dataset,
                                        run_pipeline, run_posterior_compare)
from dirichlet_pruning.pruning import (LayerRanking, RankingReport, make_plan,
                                       plan_to_json, rank_magnitude)
from dirichlet_pruning.synthetic import (_BLOCK_VALUES, _WHOLE_VALUES, gen_synthetic,
                                         make_true_switch, task_model)
from dirichlet_pruning import cli, errors
from dirichlet_pruning import pipeline as pipeline_module
from dirichlet_pruning import synthetic as synthetic_module

from conftest import child_env, in_one_blas_thread, peak_mib, traced_mib
from synthetic_oracle import one_buffer_synthetic


# ---------------------------------------------------------------------------
# config


def test_config_parses_values_comments_and_blanks():
    cfg = parse_config_text("""
# experiment settings
seed = 7
dims = 12, 6   # trailing comment
lr = 0.25
arch = lenet5
keep_counts =
""")
    assert cfg.seed == 7
    assert cfg.dims == (12, 6)
    assert cfg.lr == 0.25
    assert cfg.arch == "lenet5"
    assert cfg.keep_counts == ()


def test_config_unknown_keys_listed_sorted():
    with pytest.raises(ConfigError, match="unknown config keys: alpha, zeta"):
        parse_config_text("zeta = 1\nalpha = 2\nzeta = 3\n")


def test_config_unparseable_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("seed = seven\n")


def test_config_line_without_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\nnot a pair\n")


@pytest.mark.parametrize("text,key", [
    ("estimator = implcit", "estimator"),
    ("rate = 1.5", "rate"),
    ("rate = -0.1", "rate"),
    ("data = imagenet", "data"),
    ("arch = vgg", "arch"),
    ("mode = both", "mode"),
    ("mode = joint", "mode"),
    ("method = l3", "method"),
    ("val_fraction = 1.0", "val_fraction"),
    ("train_lr = 0", "train_lr"),
    ("lr = -0.5", "lr"),
    ("finetune_lr = nan", "finetune_lr"),
    ("train_lr = inf", "train_lr"),
    ("lr = inf", "lr"),
    ("finetune_lr = inf", "finetune_lr"),
    ("alpha0 = inf", "alpha0"),
    ("k = 0", "k"),
    ("dims = 8", "dims"),
    ("n = 0", "n"),
    ("n = 4001", "n"),
    ("dims = 100, 3", "dims"),
    ("dims = 0, 20", "dims"),
    ("arch = lenet5\nwidths = 2, 2, 8", "widths"),
    ("arch = lenet5\nwidths = 20, 0, 800, 500", "widths"),
    ("arch = lenet5\nwidths = 20, 50, -3, 500", "widths"),
    ("alpha0 = 0", "alpha0"),
    ("alpha0 = nan", "alpha0"),
    ("kl_weight = nan", "kl_weight"),
    ("kl_weight = inf", "kl_weight"),
    ("kl_weight = -inf", "kl_weight"),
    ("train_batch_size = 0", "train_batch_size"),
    ("batch_size = 0", "batch_size"),
    ("finetune_batch_size = -1", "finetune_batch_size"),
    ("keep_counts = 3, 0", "keep_counts"),
    ("keep_counts = 3, 3", "keep_counts"),
    ("arch = lenet5\nkeep_counts = 2, 2, 8", "keep_counts"),
    ("subset = -1", "subset"),
    ("train_epochs = -2", "train_epochs"),
    ("epochs = -1", "epochs"),
    ("finetune_epochs = -3", "finetune_epochs"),
    ("train_momentum = 1.5", "train_momentum"),
    ("finetune_momentum = -0.2", "finetune_momentum"),
])
def test_config_rejects_bad_choice_or_range_naming_the_key(text, key):
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_config_text(text + "\n")


@pytest.mark.parametrize("key,value", [
    ("estimator", "implcit"), ("rate", 1.5), ("alpha0", 0.0), ("kl_weight", math.nan),
    ("train_batch_size", 0), ("batch_size", 0), ("finetune_batch_size", 0),
    ("keep_counts", (3, 3)), ("keep_counts", (0,)), ("image_index", -1),
    ("mode", "joint"), ("subset", -1), ("train_epochs", -2), ("epochs", -1),
    ("finetune_epochs", -3), ("train_momentum", 1.5), ("finetune_momentum", -0.2),
    ("train_lr", math.inf), ("lr", math.inf), ("finetune_lr", math.inf), ("alpha0", math.inf),
    ("widths", (20, 0, 800, 500)), ("widths", (20, 50, -3, 500)),
])
def test_bad_config_writes_no_artifact(tmp_path, key, value):
    out = tmp_path / "run"
    lenet = {"arch": "lenet5"} if key == "widths" else {}  # only lenet5 reads widths
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        run_pipeline(_nano_config(out, **lenet, **{key: value}))
    assert not out.exists()
    text = ", ".join(map(str, value)) if isinstance(value, tuple) else value
    extra = "".join(f"{k} = {v}\n" for k, v in lenet.items())
    path = _write_cfg(tmp_path, "bad.cfg", _base_cfg_text(out) + extra + f"{key} = {text}\n")
    assert cli.main(["--config", path, "pipeline"]) == 1
    assert not out.exists()


def test_dirichlet_pipeline_without_switch_epochs_writes_no_artifact(tmp_path):
    # untrained switches rank by the uniform posterior: every score 1/D and
    # a plan that keeps channels by index
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="key 'epochs'"):
        run_pipeline(_nano_config(out, epochs=0))
    assert not out.exists()
    path = _write_cfg(tmp_path, "bad.cfg", _base_cfg_text(out) + "epochs = 0\n")
    assert cli.main(["--config", path, "pipeline"]) == 1
    assert not out.exists()
    # the config itself is valid: rank reads the switches an earlier run trained
    run_pipeline(_nano_config(out))
    assert cli.main(["--config", path, "rank"]) == 0
    # and a method that needs no switches runs without switch training
    run_pipeline(_nano_config(tmp_path / "l1", epochs=0, method="l1"))
    assert (tmp_path / "l1" / "plan.json").exists()


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["MLP_ANALYTIC_CONFIG", "LENET_ANALYTIC_CONFIG",
                                  "MLP_IMPLICIT_CONFIG"])
def test_benchmark_configs_parse(name):
    # a key or choice the benchmark's configs use must not go away unnoticed
    workloads = _perfbench_workloads()
    text = getattr(workloads, name).format(
        seed=48, model_in="true.dpm1", images="train-images", labels="train-labels",
        test_images="test-images", test_labels="test-labels",
        widths=",".join(map(str, workloads.LENET_WIDTHS)))
    cfg = parse_config_text(text)
    assert cfg.seed == 48 and cfg.mode == "per_layer"


def test_config_require_reports_empty_keys():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="missing config keys: mnist_images, mnist_labels"):
        require(cfg, "mnist_images", "mnist_labels")
    require(cfg, "arch")  # non-empty default passes


def test_config_resolved_text_roundtrip(tmp_path):
    cfg = parse_config_text("seed = 11\ndims = 3,4\nrate = 0.5\nmethod = l2\n")
    again = parse_config_text(resolved_text(cfg))
    assert again == cfg
    path = tmp_path / "exp.cfg"
    path.write_text(resolved_text(cfg))
    assert load_config(path) == cfg


def test_config_resolved_text_is_sorted():
    lines = resolved_text(ExperimentConfig()).strip().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# IDX ingestion


def _idx_images(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    n, h, w = arr.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + arr.tobytes()


def _idx_labels(values):
    values = np.asarray(values, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, values.size) + values.tobytes()


def _write(tmp_path, name, raw):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


def _graph_input(x):
    """What ``forward`` makes of ``x`` as the graph's input (no layer runs)."""
    model = build_lenet5([2, 2, 8, 4], rng=np.random.default_rng(0))
    return forward(model, x, stop=0).data


def test_idx_roundtrip_and_scaling(tmp_path):
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    pixels[0, 0, 0] = 255
    pixels[1, 2, 1] = 128
    ip = _write(tmp_path, "imgs", _idx_images(pixels))
    lp = _write(tmp_path, "labels", _idx_labels([3, 1]))
    x, y = load_mnist_idx(ip, lp)
    assert x.shape == (2, 1, 3, 3) and x.dtype == np.uint8
    assert x.flags.writeable and x.flags.c_contiguous
    assert np.array_equal(x[:, 0], pixels)
    # the graph reads the stored pixels scaled to [0, 1]
    scaled = _graph_input(x)
    assert scaled.dtype == np.float64
    assert scaled[0, 0, 0, 0] == 1.0
    assert scaled[1, 0, 2, 1] == 128 / 255
    assert scaled.min() == 0.0
    assert y.tolist() == [3, 1] and y.dtype == np.int64


def test_idx_gzip_transparent(tmp_path):
    pixels = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    ip = _write(tmp_path, "imgs.gz", gzip.compress(_idx_images(pixels)))
    lp = _write(tmp_path, "labels.gz", gzip.compress(_idx_labels([0, 1])))
    x, y = load_mnist_idx(ip, lp)
    assert x.dtype == np.uint8 and np.array_equal(x[:, 0], pixels)
    assert _graph_input(x)[:, 0].tobytes() == (pixels / 255.0).tobytes()
    assert y.tolist() == [0, 1]


def test_idx_bad_magic_names_offset(tmp_path):
    raw = struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4)
    ip = _write(tmp_path, "imgs", raw)
    lp = _write(tmp_path, "labels", _idx_labels([0]))
    with pytest.raises(FormatError, match=r"bad magic 0x00000802 at byte 0"):
        load_mnist_idx(ip, lp)


def test_idx_truncated_header(tmp_path):
    ip = _write(tmp_path, "imgs", struct.pack(">II", 0x00000803, 1))
    lp = _write(tmp_path, "labels", _idx_labels([0]))
    with pytest.raises(FormatError, match="truncated at byte 8"):
        load_mnist_idx(ip, lp)


def test_idx_data_length_mismatch(tmp_path):
    raw = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(7)  # needs 8
    ip = _write(tmp_path, "imgs", raw)
    lp = _write(tmp_path, "labels", _idx_labels([0, 1]))
    with pytest.raises(FormatError, match="expected 8 data bytes after byte 16"):
        load_mnist_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip = _write(tmp_path, "imgs", _idx_images(np.zeros((2, 2, 2), dtype=np.uint8)))
    lp = _write(tmp_path, "labels", _idx_labels([0, 1, 2]))
    with pytest.raises(FormatError, match="2 images but 3 labels"):
        load_mnist_idx(ip, lp)


def test_idx_allocation_peak_is_one_uint8_copy(tmp_path):
    # the pixels are the buffer the file is read into, 1.01x the pixel bytes;
    # a gzip file is gunzipped into it in pieces, 1.11x. Returning a
    # writable copy of the file's bytes took 2.01x
    pixels = np.random.default_rng(12).integers(0, 256, (2000, 28, 28))
    images, labels = _idx_images(pixels), _idx_labels(np.arange(2000) % 10)
    pixel_mib = 2000 * 28 * 28 / 2 ** 20
    for suffix, pack in (("", bytes), (".gz", gzip.compress)):
        ip = _write(tmp_path, "imgs" + suffix, pack(images))
        lp = _write(tmp_path, "labels" + suffix, pack(labels))
        assert peak_mib(lambda: load_mnist_idx(ip, lp)) <= 1.25 * pixel_mib, suffix


def _permutation_split(x, y, val_fraction, rng):
    """The split as fancy-index copies through one ``rng.permutation``: the
    reference the in-place shuffle must match row for row and draw for draw."""
    n = x.shape[0]
    n_val = int(round(val_fraction * n))
    idx = rng.permutation(n)
    val, train = idx[:n_val], idx[n_val:]
    return x[train], y[train], x[val], y[val]


def test_train_val_split_partitions():
    base = np.random.default_rng(3).standard_normal((203, 12))
    idx = base[:, :8].copy().reshape(203, 1, 2, 4)
    # rows that no view flattens: a strided one, and one whose flattening copies
    cases = {"2-d": base, "idx": idx, "strided": base[:, ::3],
             "transposed": idx.transpose(0, 1, 3, 2)}
    for name, x in cases.items():  # each case copies its x before the split
        x_ref, y = x.copy(), np.arange(203)
        ref_rng, rng = np.random.default_rng(4), np.random.default_rng(4)
        want = _permutation_split(x_ref, y.copy(), 0.25, ref_rng)
        got = train_val_split(x, y, 0.25, rng)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype, name
            assert g.tobytes() == w.tobytes(), name  # rows and labels, bit for bit
        assert got[2].shape[0] == 51 and got[0].shape[0] == 152, name
        assert rng.random() == ref_rng.random(), name  # the same later draws
        # each row comes back with its label: y numbers the rows of x
        assert np.array_equal(np.concatenate([got[0], got[2]]).reshape(203, -1),
                              x_ref[np.concatenate([got[1], got[3]])].reshape(203, -1)), name
        for part in got[1], got[3]:
            assert np.shares_memory(part, y), name
        if x.flags.c_contiguous:
            for part in got[0], got[2]:
                assert np.shares_memory(part, x), name


def test_train_val_split_moves_pixels_as_their_float_form():
    # whole rows swap through a void view of any item size, so uint8 pixels
    # and their float64 form split alike and leave rng in the same state
    pixels = np.random.default_rng(5).integers(0, 256, (203, 1, 4, 4)).astype(np.uint8)
    rng8, rngf = np.random.default_rng(6), np.random.default_rng(6)
    got8 = train_val_split(pixels.copy(), np.arange(203), 0.25, rng8)
    gotf = train_val_split(pixels / 255.0, np.arange(203), 0.25, rngf)
    for rows8, rowsf in zip(got8[::2], gotf[::2]):
        assert rows8.dtype == np.uint8
        assert (rows8 / 255.0).tobytes() == rowsf.tobytes()
    for labels8, labelsf in zip(got8[1::2], gotf[1::2]):
        assert np.array_equal(labels8, labelsf)
    assert rng8.bit_generator.state == rngf.bit_generator.state


# ---------------------------------------------------------------------------
# PGM export


def test_to_u8_min_max_normalizes():
    out = to_u8(np.array([[0.0, 0.5], [1.0, 0.25]]))
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, [[0, 128], [255, 64]])


def test_to_u8_constant_map_pins_to_zero():
    np.testing.assert_array_equal(to_u8(np.full((3, 3), 2.5)),
                                  np.zeros((3, 3), dtype=np.uint8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_to_u8_rejects_a_non_finite_map(bad):
    # one NaN or infinity used to turn the whole map into zeros, with only
    # a cast warning
    values = np.array([[0.0, 0.5], [bad, 0.25]])
    with pytest.raises(NumericError, match="the map holds 1 non-finite values of 4"):
        to_u8(values)


def _read_pgm(path) -> np.ndarray:
    """The pixels of a binary (P5) PGM file with maxval 255."""
    raw = pathlib.Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    assert m is not None, f"{path}: not a binary PGM header"
    w, h = int(m.group(1)), int(m.group(2))
    assert len(raw) == m.end() + w * h, f"{path}: expected {w * h} pixel bytes"
    return np.frombuffer(raw[m.end():], dtype=np.uint8).reshape(h, w)


def test_pgm_roundtrip(tmp_path):
    pixels = np.arange(30, dtype=np.uint8).reshape(5, 6)
    path = tmp_path / "map.pgm"
    write_pgm(path, pixels)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n6 5\n255\n")
    np.testing.assert_array_equal(_read_pgm(path), pixels)


def test_pgm_write_rejects_bad_input(tmp_path):
    with pytest.raises(ContractError):
        write_pgm(tmp_path / "a.pgm", np.zeros((2, 2)))  # float, not u8
    with pytest.raises(ContractError):
        write_pgm(tmp_path / "b.pgm", np.zeros((2, 2, 2), dtype=np.uint8))


# ---------------------------------------------------------------------------
# synthetic task


def test_synthetic_deterministic_given_seed():
    a_task, a_x, a_y = gen_synthetic(10, 8, 100, np.random.default_rng(5))
    b_task, b_x, b_y = gen_synthetic(10, 8, 100, np.random.default_rng(5))
    np.testing.assert_array_equal(a_x, b_x)
    np.testing.assert_array_equal(a_y, b_y)
    np.testing.assert_array_equal(a_task.true_switch, b_task.true_switch)
    np.testing.assert_array_equal(a_task.w2, b_task.w2)


def test_synthetic_two_class_balance_is_exact():
    _, _, y = gen_synthetic(10, 8, 200, np.random.default_rng(6))
    assert np.bincount(y, minlength=2).tolist() == [100, 100]


def test_true_switch_is_sparse_simplex():
    rng = np.random.default_rng(7)
    s = make_true_switch(12, rng)
    assert s.shape == (12,)
    assert abs(s.sum() - 1.0) < 1e-12
    assert np.all(s > 0.0)
    assert (s < 1e-3).sum() == 3  # a quarter pinned to the shared eps floor
    survivors = s[s >= 1e-3]
    assert np.unique(survivors).size == 9  # distinct, so ranks are well defined


def test_synthetic_contracts():
    rng = np.random.default_rng(8)
    with pytest.raises(ContractError):
        gen_synthetic(10, 8, 101, rng)  # odd n
    with pytest.raises(ContractError):
        gen_synthetic(10, 8, 0, rng)
    with pytest.raises(ContractError):
        gen_synthetic(10, 3, 100, rng)  # quarter of 3 channels is nothing
    with pytest.raises(ContractError):
        gen_synthetic(0, 8, 100, rng)
    with pytest.raises(ContractError):
        gen_synthetic(10, 8, 100, rng, d_out=1)


_WHOLE_ROWS = _WHOLE_VALUES // 64  # most rows of a hidden layer built whole at d_h = 64
_BLOCK_ROWS = _BLOCK_VALUES // 64  # rows of one hidden block at d_h = 64


@pytest.mark.parametrize("n,d_out", [
    (2, 2), (100, 2), (_WHOLE_ROWS, 2), (3 * _WHOLE_ROWS, 2), (2 * _WHOLE_ROWS + 202, 2),
    (2 * _WHOLE_ROWS + 202, 3),
])
def test_synthetic_matches_the_one_buffer_oracle(n, d_out):
    # up to _WHOLE_ROWS the hidden layer is built whole; past it, in whole
    # row blocks and, at 2 * _WHOLE_ROWS + 202, a ragged last one
    task, x, y = gen_synthetic(10, 64, n, np.random.default_rng(n + d_out), d_out=d_out)
    switch, w1, b1, w2, b2, x_want, y_want = one_buffer_synthetic(
        10, 64, n, np.random.default_rng(n + d_out), d_out=d_out)
    assert np.array_equal(x, x_want) and np.array_equal(y, y_want)
    for got, want in ((task.true_switch, switch), (task.w1, w1), (task.b1, b1)):
        assert np.array_equal(got, want)
    if n <= _WHOLE_ROWS:  # b2 too: its median is np.median's, bit for bit
        assert np.array_equal(task.w2, w2) and np.array_equal(task.b2, b2)
    else:  # a block's product may round apart from those rows of the full one
        np.testing.assert_allclose(task.w2, w2, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(task.b2, b2, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n,hidden_passes", [(_WHOLE_ROWS, 1), (_WHOLE_ROWS + 2, 2)])
def test_synthetic_rescaled_pass_reuses_a_one_block_hidden_layer(monkeypatch, n,
                                                                 hidden_passes):
    # with the hidden layer built whole, the pass after w2's rescale is only
    # the output GEMM on the kept layer; in blocks, x @ w1 runs again
    passes, switched = [], synthetic_module._switched_logits
    monkeypatch.setattr(synthetic_module, "_switched_logits",
                        lambda *a: passes.append(n) or switched(*a))
    gen_synthetic(10, 64, n, np.random.default_rng(15))
    assert len(passes) == hidden_passes


def test_synthetic_builds_a_hidden_layer_whole_by_its_size_alone(monkeypatch):
    # whole, and reused by the rescaled pass, while n * d_h fits
    # _WHOLE_VALUES, as the 1000-500 planted task's 500 rows do; past it, in
    # blocks of _BLOCK_VALUES, however the hidden width compares with x's
    passes, shapes = [], []  # arrays allocated from the first hidden pass on
    switched, empty = synthetic_module._switched_logits, np.empty

    def counted(*args):
        passes.append(1)
        return switched(*args)

    def recorded(*args, **kwargs):
        out = empty(*args, **kwargs)
        if passes:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(synthetic_module, "_switched_logits", counted)
    monkeypatch.setattr(synthetic_module.np, "empty", recorded)
    for d_x, d_h, n, hidden in ((1000, 500, 500, (500, 500)),
                                (20, 64, _WHOLE_ROWS, (_WHOLE_ROWS, 64)),
                                (20, 64, _WHOLE_ROWS + 2, (_BLOCK_ROWS, 64)),
                                (1000, 500, 526, (_BLOCK_VALUES // 500, 500))):
        gen_synthetic(d_x, d_h, n, np.random.default_rng(48))
        assert shapes == [hidden] * len(passes), (d_x, d_h, n)
        assert len(passes) == (1 if n * d_h <= _WHOLE_VALUES else 2)
        passes.clear()
        shapes.clear()


# SHA-256 of (x, y, w2, b2) from gen_synthetic at benchmark instance seeds,
# one BLAS thread: the 20-64 MLP of mlp_analytic (40,000 + 10,000 rows, in
# row blocks) and the 1000-500 planted task of mlp_implicit (400 + 100 rows,
# whole). Computed when the 20-64 hidden layer ran in 4,096-row blocks and
# the labels were an int64 copy of argmax.
_SYNTHETIC_DIGESTS = {
    ((20, 64, 50_000), 48): "2097ff6fb534bd6907b8c35c20993479cc632b57a1caf8d7a7f7ec6ac518312d",
    ((20, 64, 50_000), 55): "2314f7e87833eacc3de89e242c445b94d86133aa99307b9a8feef33ca4b634b9",
    ((20, 64, 50_000), 67872): "bc048acd7b93814ec9c449c3a9e86ea970f3420b2b024f60eb23be4255bb7844",
    ((1000, 500, 500), 48): "6049f22d7683775738100f9b4e329bced37cb6bbf3fb345d7fc6cd38e6988c7e",
    ((1000, 500, 500), 51): "106a9244897606961284a8b23e2a5f995c51891cbeccb29eefb06e4000b668c1",
    ((1000, 500, 500), 67872): "4ef24f271bb64bb20e4e593f5e0802e0e6b2fb1cc28a88d83cd1b3a1fe15d51b",
}


def _check_synthetic_digests():
    for (shape, seed), want in _SYNTHETIC_DIGESTS.items():
        task, x, y = gen_synthetic(*shape, np.random.default_rng(seed))
        digest = hashlib.sha256()
        for a in (x, y, task.w2, task.b2):
            digest.update(f"{a.dtype.str} {a.shape}".encode())
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == want, (shape, seed)


def test_synthetic_bytes_are_pinned_at_benchmark_seeds():
    in_one_blas_thread("test_harness", "_check_synthetic_digests")


def test_synthetic_allocation_peak_is_x_plus_one_block():
    # x is 7.6 MiB; the rest is a 0.25 MiB hidden block, the (n, 2) logits
    # and std's (n, 2) temporary: 1.6 MiB, where 2 MiB blocks took 2.8 and
    # the one (n, d_h) hidden buffer 29.0
    x_mib = 50_000 * 20 * 8 / 2 ** 20
    peak = peak_mib(lambda: gen_synthetic(20, 64, 50_000, np.random.default_rng(13)))
    assert peak - x_mib <= 2.5


def test_synthetic_allocation_peak_of_a_narrow_hidden_layer():
    # a hidden layer narrower than x past _WHOLE_VALUES runs in blocks too:
    # x is 7.6 MiB, and beyond it a 0.25 MiB block, the (n, 2) logits and
    # std's (n, 2) temporary (0.3 MiB each) peak at 0.9 MiB, where the whole
    # (n, 20) layer alone is 3.1 MiB
    x_mib = 20_000 * 50 * 8 / 2 ** 20
    peak = peak_mib(lambda: gen_synthetic(50, 20, 20_000, np.random.default_rng(16)))
    assert peak - x_mib <= 1.5


def test_load_dataset_allocation_peak_is_x_plus_one_block():
    # x holds the training, validation and test rows (7.6 MiB). Beyond it
    # the peak is gen_synthetic's (n, 2) logits and the (n, 2) temporary of
    # their std, both 0.76 MiB; a 0.25 MiB hidden block is freed by then.
    # 2 MiB blocks set the peak at 10.5 MiB. The split shuffles the rows in
    # place, where copying the 40,000 training and validation rows added
    # 6.1 MiB to the peak and to what stays held.
    cfg = ExperimentConfig()
    cfg.dims, cfg.n = (20, 64), 40_000
    rows = cfg.n + cfg.n // 4
    x_mib, logits_mib = rows * 20 * 8 / 2 ** 20, rows * 2 * 8 / 2 ** 20
    rng = np.random.default_rng(14)  # out of the trace: it imports numpy.random
    peak, held = traced_mib(lambda: load_dataset(cfg, rng))
    assert peak <= x_mib + 2 * logits_mib + 0.3
    assert held <= x_mib + rows * 8 / 2 ** 20 + 0.1  # x and the int64 labels


def test_load_dataset_keeps_only_the_subset_rows(tmp_path):
    # a view of the first 200 rows would keep all 2,000 (1.5 MiB) alive
    cfg = _idx_data_config(tmp_path, 2000, 100, 28, subset=200)
    row_mib = 28 * 28 / 2 ** 20  # one byte a pixel
    rng = np.random.default_rng(15)
    _, held = traced_mib(lambda: load_dataset(cfg, rng))
    assert held <= (200 + 100) * row_mib + 0.1


def test_gen_synthetic_does_not_import_numpy_ma():
    # np.median imports numpy.ma on its first call: 10-17 ms per process
    code = ("import sys\n"
            "import numpy as np\n"
            "from dirichlet_pruning.synthetic import gen_synthetic\n"
            "gen_synthetic(10, 8, 100, np.random.default_rng(0))\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_task_model_at_truth_reproduces_labels():
    task, x, y = gen_synthetic(9, 8, 300, np.random.default_rng(9))
    model = task_model(task)
    logits = forward(model, x, switches={0: task.true_switch}).data
    assert np.array_equal(logits.argmax(axis=1), y)


# ---------------------------------------------------------------------------
# pipeline


def _nano_config(out_dir, **overrides):
    cfg = ExperimentConfig()
    cfg.out_dir = str(out_dir)
    cfg.dims = (8, 4)
    cfg.n = 80
    cfg.train_epochs = 1
    cfg.train_batch_size = 20
    cfg.epochs = 1
    cfg.batch_size = 20
    cfg.rate = 0.5
    cfg.finetune_epochs = 1
    cfg.finetune_batch_size = 20
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_pipeline_smoke_writes_all_artifacts(tmp_path):
    import time
    out = tmp_path / "run"
    t0 = time.perf_counter()
    result = run_pipeline(_nano_config(out))
    assert time.perf_counter() - t0 < 10.0  # nano smoke budget
    for name in ("resolved_config.txt", "switches.json", "ranking.csv",
                 "plan.json", "pruned.dpm1", "finetuned.dpm1",
                 "metrics.csv", "timings.csv"):
        assert (out / name).exists(), name
    assert result.arch_string == "2"
    assert result.params > 0 and result.flops > 0
    assert 0.0 <= result.final_error <= 100.0
    assert set(result.phase_seconds) == {"data", "train", "switch_train",
                                         "rank", "plan", "prune",
                                         "finetune", "eval"}
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1] == "arch_string,2"


def _nano_lenet_config(tmp_path, out_dir, widths=(2, 3, 6, 4)):
    """``_nano_config`` for LeNet on 40 generated 28 x 28 IDX images, which
    it both trains and tests on."""
    rng = np.random.default_rng(35)
    pixels = rng.integers(0, 256, size=(40, 28, 28)).astype(np.uint8)
    ip = _write(tmp_path, "imgs.idx", _idx_images(pixels))
    lp = _write(tmp_path, "labels.idx", _idx_labels(rng.integers(0, 10, 40)))
    return _nano_config(out_dir, data="mnist", arch="lenet5", widths=widths,
                        mnist_images=ip, mnist_labels=lp,
                        mnist_test_images=ip, mnist_test_labels=lp)


# every artifact a pipeline run writes but timings.csv
_STABLE_ARTIFACTS = ("resolved_config.txt", "switches.json", "ranking.csv",
                     "plan.json", "pruned.dpm1", "finetuned.dpm1", "metrics.csv")


@pytest.mark.parametrize("config", [
    lambda tmp_path, out: _nano_config(out),
    lambda tmp_path, out: _nano_config(out, estimator="implicit", k=3),
    # conv1's width 3 makes conv2 lower its input by kw (H'*W' = 64 < 75
    # taps) while conv1 builds im2col, and both pools tile their input
    lambda tmp_path, out: _nano_lenet_config(tmp_path, out, widths=(3, 3, 6, 4)),
], ids=["analytic", "implicit", "lenet"])
def test_pipeline_deterministic_artifacts_are_byte_stable(tmp_path, config):
    out = tmp_path / "run"
    run_pipeline(config(tmp_path, out))
    first = {name: (out / name).read_bytes() for name in _STABLE_ARTIFACTS}
    run_pipeline(config(tmp_path, out))
    for name in _STABLE_ARTIFACTS:
        assert (out / name).read_bytes() == first[name], name


def test_model_in_implicit_pipeline_allocation_peak(tmp_path):
    # the mlp_implicit benchmark job of instance 48: a saved 1000-500-2 model
    # in (3.8 MiB), 500 rows of 1000 inputs (3.8 MiB) and ImplicitMC(100)
    # switches. 12.2 MiB, set in the switch step; loading the model through
    # a whole-file read, a slice and a cast, and forming the sampler's
    # per-shape terms for all k * D draws, peaked at 15.3
    cfg = parse_config_text(_perfbench_workloads().make_inputs("mlp_implicit", 48,
                                                               str(tmp_path / "in")))
    cfg.out_dir = str(tmp_path / "run")
    peak, _ = traced_mib(lambda: run_pipeline(cfg))
    assert peak <= 13.0


def test_mlp_analytic_pipeline_allocation_peak(tmp_path):
    # the mlp_analytic benchmark job of instance 48: 50,000 rows of 20
    # inputs (7.6 MiB) through a 20-64-2 MLP. 9.2 MiB, set while
    # gen_synthetic holds x and its logits (9.9 with numpy.random's import
    # in the trace); a 2 MiB hidden block and an int64 copy of the labels
    # peaked at 10.5 (11.2)
    cfg = parse_config_text(_perfbench_workloads().make_inputs("mlp_analytic", 48,
                                                               str(tmp_path / "in")))
    cfg.out_dir = str(tmp_path / "run")
    peak, _ = traced_mib(lambda: run_pipeline(cfg))
    assert peak <= 10.3


def test_pipeline_on_pixels_matches_the_float64_rows(tmp_path, monkeypatch):
    # the uint8 pixels enter the graph as x / 255.0, bit for bit the rows
    # the float64 loader held, so every artifact is the same
    out = tmp_path / "run"
    cfg = _nano_lenet_config(tmp_path, out, widths=(3, 3, 6, 4))
    run_pipeline(cfg)
    shipped = {name: (out / name).read_bytes() for name in _STABLE_ARTIFACTS}

    def float64_rows(images_path, labels_path):
        x, y = load_mnist_idx(images_path, labels_path)
        rows = x.astype(np.float64)
        rows /= 255.0
        return rows, y

    monkeypatch.setattr(pipeline_module, "load_mnist_idx", float64_rows)
    run_pipeline(cfg)
    for name in _STABLE_ARTIFACTS:
        assert (out / name).read_bytes() == shipped[name], name


def test_pipeline_writes_switches_to_switches_path(tmp_path):
    out = tmp_path / "run"
    target = tmp_path / "elsewhere.json"
    run_pipeline(_nano_config(out, switches_path=str(target)))
    assert json.loads(target.read_text())["version"] == 1
    assert not (out / "switches.json").exists()


def test_pipeline_artifacts_share_the_prunable_ordinals(tmp_path):
    # switches.json, ranking.csv and plan.json all address LeNet's four
    # prunable layers as 0..3, not by graph position
    out = tmp_path / "run"
    run_pipeline(_nano_lenet_config(tmp_path, out))
    ordinals = ["0", "1", "2", "3"]
    assert sorted(json.loads((out / "switches.json").read_text())["theta"]) == ordinals
    assert sorted(json.loads((out / "plan.json").read_text())["keep"]) == ordinals
    rows = (out / "ranking.csv").read_text().strip().splitlines()[1:]
    assert sorted({row.split(",")[0] for row in rows}) == ordinals


def test_pipeline_failure_names_the_phase(tmp_path):
    cfg = _nano_config(tmp_path / "run", rate=0.0, keep_counts=(),
                       train_epochs=0, epochs=0, method="l1")
    with pytest.raises(PipelineError, match="phase 'plan' failed"):
        run_pipeline(cfg)
    cfg = _nano_config(tmp_path / "run2", data="mnist")
    with pytest.raises(PipelineError, match="phase 'data' failed"):
        run_pipeline(cfg)


def _idx_data_config(tmp_path, n_train, n_test, side, **overrides):
    """An ``mnist`` config over generated IDX files of side x side images."""
    rng = np.random.default_rng(n_train + side)
    cfg = ExperimentConfig()
    cfg.data = "mnist"
    for key, n in (("mnist", n_train), ("mnist_test", n_test)):
        pixels = rng.integers(0, 256, size=(n, side, side))
        setattr(cfg, f"{key}_images", str(_write(tmp_path, f"{key}.img", _idx_images(pixels))))
        labels = _idx_labels(rng.integers(0, 10, n))
        setattr(cfg, f"{key}_labels", str(_write(tmp_path, f"{key}.lbl", labels)))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _dataset_digest(data) -> str:
    """SHA-256 of the dtype, shape and bytes of a Dataset's six arrays."""
    digest = hashlib.sha256()
    for a in (data.x_train, data.y_train, data.x_val, data.y_val, data.x_test, data.y_test):
        digest.update(f"{a.dtype.str} {a.shape}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


# computed with the split by fancy-index copies of one rng.permutation, so
# any change to the split order, the centering or the draws shows here;
# "mnist" pins the IDX rows as the graph reads them (each x / 255.0, the
# rows the float64 loader made), "mnist_pixels" the uint8 rows as loaded
_DATASET_DIGESTS = {
    "synthetic": "a14e53006ceec0603a7b3d0dfd82284622fb92551e8d1dc0c94e4208a9ca5a0c",
    "mnist": "b062879abf34d2d48d98f129864e6b404d9b325ca884f868811c69fbe7ed053f",
    "mnist_pixels": "309abefca7c2292348e5aca7fca931d095163666627f6079aba4aa6216008d52",
}


@pytest.mark.parametrize("data", ["synthetic", "mnist"])
def test_load_dataset_bytes_are_pinned(tmp_path, data):
    if data == "synthetic":
        cfg = ExperimentConfig()
        cfg.dims, cfg.n, cfg.val_fraction = (12, 8), 300, 0.2
    else:
        cfg = _idx_data_config(tmp_path, 90, 30, 9, subset=64, val_fraction=0.25)
    dataset = load_dataset(cfg, np.random.default_rng(21))
    if data == "mnist":
        assert _dataset_digest(dataset) == _DATASET_DIGESTS["mnist_pixels"]
        dataset = dataclasses.replace(dataset, **{
            key: getattr(dataset, key) / 255.0 for key in ("x_train", "x_val", "x_test")})
    assert _dataset_digest(dataset) == _DATASET_DIGESTS[data]


def test_load_dataset_rejects_unknown_source():
    cfg = ExperimentConfig()
    cfg.data = "imagenet"
    with pytest.raises(ConfigError):
        load_dataset(cfg, np.random.default_rng(0))


def test_posterior_compare_writes_csv(tmp_path):
    cfg = ExperimentConfig()
    cfg.out_dir = str(tmp_path / "pc")
    cfg.dims = (8, 4)
    cfg.n = 60
    cfg.epochs = 1
    cfg.batch_size = 20
    cfg.k = 2
    result = run_posterior_compare(cfg)
    lines = (tmp_path / "pc" / "posterior_compare.csv").read_text().strip().splitlines()
    assert lines[0] == "channel,true_switch,mean_mc,std_mc,mean_am,std_am"
    assert len(lines) == 1 + 4  # one row per hidden channel
    assert result.mean_mc.shape == (4,) and result.std_am.shape == (4,)
    assert np.all(result.std_mc > 0.0) and np.all(result.std_am > 0.0)
    # the two estimators land on nearby posterior means
    assert np.all(np.abs(result.mean_mc - result.mean_am)
                  <= 3.0 * (result.std_mc + result.std_am))
    timing_lines = (tmp_path / "pc" / "posterior_compare_timings.csv").read_text().strip().splitlines()
    assert timing_lines[0] == "estimator,epoch,seconds"
    assert len(timing_lines) == 1 + 2 * cfg.epochs


# ---------------------------------------------------------------------------
# feature-map export


def _lenet_and_image(seed=0):
    model = build_lenet5([2, 2, 8, 4], rng=np.random.default_rng(seed))
    image = np.random.default_rng(seed + 1).normal(size=(1, 28, 28))
    return model, image


def test_export_maps_one_pgm_per_channel(tmp_path):
    model, image = _lenet_and_image()
    paths = export_feature_maps(model, image, 0, tmp_path / "maps")
    assert [p.split("/")[-1] for p in paths] == [
        "map_000_channel_000.pgm", "map_001_channel_001.pgm"]
    for p in paths:
        assert _read_pgm(p).shape == (24, 24)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_export_maps_names_the_layer_and_channel_of_a_non_finite_map(tmp_path, bad):
    # a diverged model's map would have been written as a blank PGM; no map
    # of the layer is written
    model, image = _lenet_and_image()
    model.weights["layer0.bias"][1] = bad
    with pytest.raises(NumericError, match="layer 0, channel 1: the map holds 576 non-finite"):
        export_feature_maps(model, image, 0, tmp_path / "maps")
    assert not (tmp_path / "maps").exists()


def test_export_maps_orders_by_ranking(tmp_path):
    model, image = _lenet_and_image(2)
    report = RankingReport([LayerRanking(0, np.array([0.1, 0.9]),
                                         np.array([1, 0]), "test")])
    paths = export_feature_maps(model, image, 0, tmp_path / "maps", report)
    assert paths[0].endswith("map_000_channel_001.pgm")
    assert paths[1].endswith("map_001_channel_000.pgm")


def test_export_maps_contract_errors(tmp_path):
    model, image = _lenet_and_image(3)
    with pytest.raises(ContractError, match="no spatial output"):
        export_feature_maps(model, image, 9, tmp_path)  # fc layer
    with pytest.raises(ContractError, match="outside graph"):
        export_feature_maps(model, image, 99, tmp_path)
    with pytest.raises(ContractError, match="need one"):
        export_feature_maps(model, np.zeros((2, 1, 28, 28)), 0, tmp_path)


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _base_cfg_text(out_dir):
    return (f"out_dir = {out_dir}\n"
            "dims = 8, 4\n"
            "n = 80\n"
            "train_epochs = 1\n"
            "train_batch_size = 20\n"
            "epochs = 1\n"
            "batch_size = 20\n"
            "k = 2\n"
            "rate = 0.5\n"
            "finetune_epochs = 1\n"
            "finetune_batch_size = 20\n")


def test_cli_subcommand_chain(tmp_path, capsys):
    out = tmp_path / "out"
    base = _base_cfg_text(out)
    train_cfg = _write_cfg(tmp_path, "train.cfg", base)
    assert cli.main(["--config", train_cfg, "train"]) == 0
    assert "test error" in capsys.readouterr().out
    assert (out / "model.dpm1").exists()

    loaded = base + f"model_in = {out / 'model.dpm1'}\n"
    loaded_cfg = _write_cfg(tmp_path, "loaded.cfg", loaded)
    assert cli.main(["--config", loaded_cfg, "switch-train"]) == 0
    assert (out / "switches.json").exists()
    assert cli.main(["--config", loaded_cfg, "rank"]) == 0
    assert (out / "ranking.csv").exists()
    assert cli.main(["--config", loaded_cfg, "prune"]) == 0
    assert (out / "plan.json").exists()
    assert (out / "pruned.dpm1").exists()
    capsys.readouterr()

    tune = base + (f"model_in = {out / 'pruned.dpm1'}\n"
                   f"model_out = {out / 'finetuned.dpm1'}\n")
    tune_cfg = _write_cfg(tmp_path, "tune.cfg", tune)
    assert cli.main(["--config", tune_cfg, "finetune"]) == 0
    assert (out / "finetuned.dpm1").exists()
    assert cli.main(["--config", tune_cfg, "eval"]) == 0
    assert "test error" in capsys.readouterr().out

    assert cli.main(["--config", train_cfg, "posterior-compare"]) == 0
    assert (out / "posterior_compare.csv").exists()


def test_cli_rank_dirichlet_without_switches_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "r.cfg", _base_cfg_text(tmp_path / "out"))
    assert cli.main(["--config", cfg, "rank"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "switches_path" in err
    assert not (tmp_path / "out" / "ranking.csv").exists()


def test_cli_train_with_model_in_trains_further(tmp_path):
    out = tmp_path / "out"
    base = _base_cfg_text(out)
    assert cli.main(["--config", _write_cfg(tmp_path, "t.cfg", base), "train"]) == 0
    again = base + (f"model_in = {out / 'model.dpm1'}\n"
                    f"model_out = {out / 'model2.dpm1'}\n")
    assert cli.main(["--config", _write_cfg(tmp_path, "t2.cfg", again), "train"]) == 0
    assert len(load_model(out / "model.dpm1").metadata["training_history"]) == 1
    assert len(load_model(out / "model2.dpm1").metadata["training_history"]) == 2


def test_cli_switch_train_on_a_pruned_model(tmp_path, capsys):
    # a pruned model has a switch on each prunable layer like any other
    pout = tmp_path / "pout"
    cfg = _write_cfg(tmp_path, "p.cfg", _base_cfg_text(pout))
    assert cli.main(["--config", cfg, "pipeline"]) == 0
    out = tmp_path / "out"
    again = _base_cfg_text(out) + f"model_in = {pout / 'pruned.dpm1'}\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "s.cfg", again), "switch-train"]) == 0
    theta = json.loads((out / "switches.json").read_text())["theta"]
    assert {k: len(v) for k, v in theta.items()} == {"0": 2}


def test_cli_switch_train_with_zero_epochs_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "z.cfg", _base_cfg_text(tmp_path / "out") + "epochs = 0\n")
    assert cli.main(["--config", cfg, "switch-train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epochs" in err
    assert not (tmp_path / "out" / "switches.json").exists()


def test_cli_switch_train_on_a_nan_weight_exits_one(tmp_path, capsys):
    model = build_mlp(8, 4, 2, rng=np.random.default_rng(31))
    model.weights["layer2.weight"][0, 0] = np.nan
    save_model(model, tmp_path / "nan.dpm1")
    text = _base_cfg_text(tmp_path / "out") + f"model_in = {tmp_path / 'nan.dpm1'}\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "n.cfg", text), "switch-train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "neg_elbo is nan at epoch 1, batch 1" in err
    assert not (tmp_path / "out" / "switches.json").exists()


def test_cli_reports_every_package_error(tmp_path, capsys, monkeypatch):
    kinds = [c for _, c in inspect.getmembers(errors, inspect.isclass)
             if c.__module__ == errors.__name__]
    assert len(kinds) >= 7
    cfg = _write_cfg(tmp_path, "e.cfg", _base_cfg_text(tmp_path / "out"))
    for kind in kinds:
        def fail(cfg, kind=kind):
            raise kind(f"a {kind.__name__}")
        monkeypatch.setitem(cli._COMMANDS, "eval", fail)
        assert cli.main(["--config", cfg, "eval"]) == 1, kind
        assert capsys.readouterr().err == f"error: a {kind.__name__}\n"


def _mlp_with_ranking_csv(tmp_path):
    """A saved 4-channel MLP and an out_dir/ranking.csv for it; returns
    (out_dir, config text)."""
    out = tmp_path / "out"
    out.mkdir()
    model_path = tmp_path / "mlp.dpm1"
    save_model(build_mlp(8, 4, 2, rng=np.random.default_rng(30)), model_path)
    (out / "ranking.csv").write_text("layer,channel,score,rank\n"
                                     "0,0,0.5,2\n0,1,0.5,1\n0,2,0.5,3\n0,3,0.5,0\n")
    return out, _base_cfg_text(out) + f"model_in = {model_path}\n"


def test_cli_prune_plans_from_existing_ranking_csv(tmp_path):
    # method = dirichlet without a switches file: re-ranking would fail
    out, text = _mlp_with_ranking_csv(tmp_path)
    assert cli.main(["--config", _write_cfg(tmp_path, "p.cfg", text), "prune"]) == 0
    assert json.loads((out / "plan.json").read_text())["keep"] == {"0": [1, 3]}
    assert not (out / "switches.json").exists()
    assert (out / "pruned.dpm1").exists()


def _saved_mlp(tmp_path, seed=32):
    model = build_mlp(8, 4, 2, rng=np.random.default_rng(seed))
    save_model(model, tmp_path / "mlp.dpm1")
    return model, tmp_path / "mlp.dpm1"


def test_cli_prune_without_a_ranking_plans_from_a_fresh_one(tmp_path):
    # no ranking.csv in out_dir: prune ranks the model itself and writes
    # only the plan and the pruned model
    out = tmp_path / "out"
    model, model_path = _saved_mlp(tmp_path)
    text = _base_cfg_text(out) + f"model_in = {model_path}\nmethod = l1\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "p.cfg", text), "prune"]) == 0
    plan_to_json(make_plan(rank_magnitude(model, "L1"), rate=0.5), tmp_path / "want.json")
    assert (out / "plan.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert not (out / "ranking.csv").exists()
    assert (out / "pruned.dpm1").exists()


def test_cli_prune_dirichlet_without_switches_or_ranking_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    _, model_path = _saved_mlp(tmp_path)
    text = _base_cfg_text(out) + f"model_in = {model_path}\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "p.cfg", text), "prune"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "switches_path" in err
    assert not (out / "plan.json").exists()
    assert not (out / "pruned.dpm1").exists()


@pytest.mark.parametrize("name,text,cfg_line,match", [
    ("ranking.csv", "layer,channel,score,rank\n0,0,0.5,0\n0,1,0.5,0\n0,2,0.5,2\n"
     "0,3,0.5,3\n", "", "no channel has rank 1"),
    ("switches.json", '{"version": 1, "alpha0": 0.5, "theta": {"1": [0, 0', "",
     "not valid JSON"),
    ("switches.json", '{"version": 1, "alpha0": 0.5}', "", "no 'theta' object"),
    ("plan.json", '{"version": 1}', "plan_path = {out}/plan.json\n", "no 'keep' object"),
], ids=["ranking-repeated-rank", "switches-truncated", "switches-no-theta", "plan-no-keep"])
def test_cli_prune_malformed_artifact_exits_one(tmp_path, capsys, name, text, cfg_line,
                                                match):
    out, cfg_text = _mlp_with_ranking_csv(tmp_path)
    (out / name).write_text(text)
    cfg = _write_cfg(tmp_path, "p.cfg", cfg_text + cfg_line.format(out=out))
    assert cli.main(["--config", cfg, "prune"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and match in err


def test_cli_prune_replans_when_rate_changes(tmp_path):
    # the plan.json a previous prune left in out_dir is an output, not an input
    out, text = _mlp_with_ranking_csv(tmp_path)
    for rate, kept in (("0.5", [1, 3]), ("0.25", [0, 1, 3])):
        cfg = _write_cfg(tmp_path, "p.cfg", text + f"rate = {rate}\n")
        assert cli.main(["--config", cfg, "prune"]) == 0
        assert json.loads((out / "plan.json").read_text())["keep"] == {"0": kept}
        assert load_model(out / "pruned.dpm1").layers[0].d_out == len(kept)


def test_cli_pipeline_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "p.cfg", _base_cfg_text(tmp_path / "pout"))
    assert cli.main(["--config", cfg, "pipeline"]) == 0
    assert "pipeline done" in capsys.readouterr().out
    assert (tmp_path / "pout" / "finetuned.dpm1").exists()


@pytest.mark.parametrize("extra,command,split", [
    ("val_fraction = 0\n", "pipeline", "0.0 splits 80 rows into 80 training and 0 "
                                       "validation rows; need a validation row to "
                                       "fine-tune against"),
    ("n = 10\nval_fraction = 0.96\n", "pipeline", "0.96 splits 10 rows into 0 training "
                                                   "and 10 validation rows; need a "
                                                   "training row"),
    ("n = 10\nval_fraction = 0.96\n", "train", "0.96 splits 10 rows into 0 training "
                                                "and 10 validation rows; need a "
                                                "training row"),
])
def test_cli_rejects_a_val_fraction_that_empties_a_split(tmp_path, capsys, extra, command,
                                                         split):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "v.cfg", _base_cfg_text(out) + extra)
    assert cli.main(["--config", cfg, command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"key 'val_fraction': {split}\n" in err
    assert not (out / "model.dpm1").exists() and not (out / "switches.json").exists()


def test_cli_finetune_without_validation_rows_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    _, model_path = _saved_mlp(tmp_path)
    text = _base_cfg_text(out) + f"model_in = {model_path}\nval_fraction = 0\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "f.cfg", text), "finetune"]) == 1
    assert capsys.readouterr().err == (
        "error: key 'val_fraction': 0.0 splits 80 rows into 80 training and 0 "
        "validation rows; need a validation row to fine-tune against\n")
    assert not (out / "finetuned.dpm1").exists()


def test_cli_pipeline_without_validation_rows_runs_when_not_finetuning(tmp_path):
    out = tmp_path / "out"
    text = _base_cfg_text(out) + "val_fraction = 0\nfinetune_epochs = 0\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "v.cfg", text), "pipeline"]) == 0
    assert (out / "finetuned.dpm1").exists()


def test_cli_seed_override_reaches_config(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "s.cfg", _base_cfg_text(out) + "seed = 1\n")
    assert cli.main(["--config", cfg, "--seed", "7", "train"]) == 0
    assert "seed = 7" in (out / "resolved_config.txt").read_text()


def _export_maps_cfg(tmp_path):
    rng = np.random.default_rng(20)
    pixels = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
    ip = _write(tmp_path, "imgs.idx", _idx_images(pixels))
    lp = _write(tmp_path, "labels.idx", _idx_labels([0, 1, 2, 3]))
    out = tmp_path / "maps"
    model = build_lenet5([2, 2, 8, 4], rng=np.random.default_rng(21))
    model_path = tmp_path / "lenet.dpm1"
    save_model(model, model_path)
    text = (f"out_dir = {out}\n"
            "data = mnist\n"
            f"mnist_images = {ip}\nmnist_labels = {lp}\n"
            f"mnist_test_images = {ip}\nmnist_test_labels = {lp}\n"
            "arch = lenet5\nwidths = 2,2,8,4\n"
            f"model_in = {model_path}\n"
            "layer = 0\nimage_index = 1\n")
    return out, _write_cfg(tmp_path, "maps.cfg", text)


def test_cli_export_maps_on_mnist_files(tmp_path, capsys):
    out, cfg = _export_maps_cfg(tmp_path)
    assert cli.main(["--config", cfg, "export-maps"]) == 0
    assert "wrote 2 feature maps" in capsys.readouterr().out
    assert (out / "map_000_channel_000.pgm").exists()
    assert (out / "map_001_channel_001.pgm").exists()


def test_cli_export_maps_reads_pixels_as_their_float_form(tmp_path):
    # the test split's uint8 image (image_index = 1; the test split is not
    # shuffled) writes the PGM bytes of its float form, x / 255.0
    out, cfg = _export_maps_cfg(tmp_path)
    assert cli.main(["--config", cfg, "export-maps"]) == 0
    x, _ = load_mnist_idx(tmp_path / "imgs.idx", tmp_path / "labels.idx")
    assert x.dtype == np.uint8
    model = load_model(tmp_path / "lenet.dpm1")
    paths = export_feature_maps(model, x[1] / 255.0, 0, tmp_path / "float")
    assert len(paths) == 2
    for path in paths:
        name = pathlib.Path(path).name
        assert (out / name).read_bytes() == pathlib.Path(path).read_bytes(), name


def test_cli_export_maps_reads_default_ranking(tmp_path):
    out, cfg = _export_maps_cfg(tmp_path)
    out.mkdir()
    (out / "ranking.csv").write_text("layer,channel,score,rank\n0,0,0.1,1\n0,1,0.9,0\n")
    assert cli.main(["--config", cfg, "export-maps"]) == 0
    assert sorted(p.name for p in out.glob("*.pgm")) == [
        "map_000_channel_001.pgm", "map_001_channel_000.pgm"]


def test_cli_export_maps_index_past_the_test_split_exits_one(tmp_path, capsys):
    out, cfg = _export_maps_cfg(tmp_path)
    text = pathlib.Path(cfg).read_text().replace("image_index = 1", "image_index = 4")
    assert cli.main(["--config", _write_cfg(tmp_path, "far.cfg", text), "export-maps"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'image_index'" in err and "4 images" in err
    assert not list(out.glob("*.pgm"))


def _lenet_on_twelve_classes(tmp_path, extra=""):
    """A LeNet config on IDX files whose labels run 0-11, two more classes
    than LeNet's 10 outputs."""
    pixels = np.random.default_rng(22).integers(0, 256, size=(12, 28, 28))
    ip = _write(tmp_path, "imgs12.idx", _idx_images(pixels))
    lp = _write(tmp_path, "labels12.idx", _idx_labels(np.arange(12)))
    text = (f"out_dir = {tmp_path / 'out'}\n"
            "data = mnist\n"
            f"mnist_images = {ip}\nmnist_labels = {lp}\n"
            f"mnist_test_images = {ip}\nmnist_test_labels = {lp}\n"
            "arch = lenet5\nwidths = 2,2,8,4\n" + extra)
    return _write_cfg(tmp_path, "twelve.cfg", text)


def test_cli_train_rejects_a_model_with_fewer_outputs_than_classes(tmp_path, capsys):
    cfg = _lenet_on_twelve_classes(tmp_path)
    assert cli.main(["--config", cfg, "train"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: key 'arch': the model has 10 outputs, but the data "
                   "has 12 classes\n")
    assert not (tmp_path / "out" / "model.dpm1").exists()


def test_cli_rejects_a_model_in_with_fewer_outputs_than_classes(tmp_path, capsys):
    model_path = tmp_path / "lenet.dpm1"
    save_model(build_lenet5([2, 2, 8, 4], rng=np.random.default_rng(23)), model_path)
    cfg = _lenet_on_twelve_classes(tmp_path, f"model_in = {model_path}\n")
    assert cli.main(["--config", cfg, "eval"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'model_in'") and "10 outputs" in err
    assert "12 classes" in err


def test_cli_rejects_an_arch_whose_input_does_not_fit_the_data(tmp_path, capsys):
    # LeNet-5 takes 28x28 images; the synthetic rows are flat vectors of 8
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "l.cfg", _base_cfg_text(out) + "arch = lenet5\n")
    assert cli.main(["--config", cfg, "train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'arch'") and "(1, 28, 28)" in err and "(8,)" in err
    assert not (out / "model.dpm1").exists()


@pytest.mark.parametrize("command", ["train", "eval", "pipeline"])
def test_cli_rejects_a_model_in_whose_input_does_not_fit_the_data(tmp_path, capsys,
                                                                   command):
    model_path = tmp_path / "wide.dpm1"
    save_model(build_mlp(10, 4, 2, rng=np.random.default_rng(33)), model_path)
    out = tmp_path / "out"
    text = _base_cfg_text(out) + f"model_in = {model_path}\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "w.cfg", text), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "key 'model_in'" in err
    assert "(10,)" in err and "(8,)" in err
    assert not list(out.glob("*.dpm1"))


@pytest.mark.parametrize("counts", ["2, 2", "2, 2, 2, 2, 9"])
def test_cli_prune_keep_counts_not_one_per_layer_exits_one(tmp_path, capsys, counts):
    # validate_config cannot count the layers of a model_in, so make_plan does
    _, cfg = _export_maps_cfg(tmp_path)
    text = pathlib.Path(cfg).read_text() + f"method = l1\nkeep_counts = {counts}\n"
    assert cli.main(["--config", _write_cfg(tmp_path, "k.cfg", text), "prune"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: keep_counts:")
    assert "[0, 1, 2, 3]" in err and f"[{counts}]" in err
    assert not (tmp_path / "maps" / "pruned.dpm1").exists()


def test_cli_config_that_is_a_directory_exits_one(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path), "train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err


def test_cli_out_dir_that_is_a_file_exits_one(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    cfg = _write_cfg(tmp_path, "f.cfg", _base_cfg_text(blocker))
    assert cli.main(["--config", cfg, "train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(blocker) in err


def test_cli_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.cfg", "seeed = 1\n")
    assert cli.main(["--config", cfg, "train"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_missing_model_in_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "e.cfg", _base_cfg_text(tmp_path / "out"))
    assert cli.main(["--config", cfg, "eval"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model_in" in err


def test_cli_eval_malformed_model_header_exits_one(tmp_path, capsys):
    # a .dpm1 header without its layer list
    model_path = tmp_path / "m.dpm1"
    blob = json.dumps({"version": 1, "weights": [], "input_shape": [8]}).encode()
    model_path.write_bytes(b"DPM1" + struct.pack("<I", len(blob)) + blob)
    cfg = _write_cfg(tmp_path, "e.cfg", _base_cfg_text(tmp_path / "out")
                     + f"model_in = {model_path}\n")
    assert cli.main(["--config", cfg, "eval"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(model_path) in err and "'layers'" in err


def test_cli_module_entry_point(tmp_path):
    cfg = _write_cfg(tmp_path, "m.cfg", _base_cfg_text(tmp_path / "mout")
                     + "train_epochs = 0\nepochs = 0\nfinetune_epochs = 0\nmethod = l1\n")
    proc = subprocess.run([sys.executable, "-m", "dirichlet_pruning",
                           "--config", cfg, "pipeline"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "pipeline done" in proc.stdout


# ---------------------------------------------------------------------------
# progress lines: the dirichlet_pruning logger, printed by the CLI


def _mask_seconds(text):
    return re.sub(r"\d+\.\d+s\b", "Xs", text)


def test_cli_pipeline_stdout_lines(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "p.cfg", _base_cfg_text(tmp_path / "pout"))
    assert cli.main(["--config", cfg, "pipeline"]) == 0
    # the fine-tune is train_model with the validation rows: each epoch's
    # loss line is followed by that epoch's validation error line
    assert _mask_seconds(capsys.readouterr().out).splitlines() == [
        "phase data: Xs",
        "epoch 1/1: loss 1.4158 (Xs)",
        "phase train: Xs",
        "layer0 epoch 1/1: neg_elbo 0.7152 (Xs)",
        "phase switch_train: Xs",
        "phase rank: Xs",
        "phase plan: Xs",
        "phase prune: Xs",
        "epoch 1/1: loss 0.6753 (Xs)",
        "finetune epoch 1/1: val error 25.00%",
        "phase finetune: Xs",
        "phase eval: Xs",
        "pipeline done: 2, final error 55.00%, params 20, flops 20",
    ]


def test_cli_main_twice_prints_each_line_once_and_restores_the_logger(tmp_path, capsys):
    package_logger = logging.getLogger("dirichlet_pruning")
    old_level = package_logger.level
    package_logger.setLevel(logging.ERROR)
    try:
        cfg = _write_cfg(tmp_path, "t.cfg", _base_cfg_text(tmp_path / "out"))
        outs = []
        for _ in range(2):
            assert cli.main(["--config", cfg, "train"]) == 0
            outs.append(_mask_seconds(capsys.readouterr().out).splitlines())
            assert package_logger.handlers == []
            assert package_logger.level == logging.ERROR
        assert outs[0] == outs[1]
        assert len(outs[0]) == 2 and outs[0][0].startswith("epoch 1/1: loss ")
        assert outs[0][1].startswith("trained 4: test error ")
    finally:
        package_logger.setLevel(old_level)


def test_run_pipeline_without_logging_configured_is_silent(tmp_path):
    # a fresh interpreter, so no logging setup of the test runner applies
    code = ("import sys\n"
            "from dirichlet_pruning.config import load_config\n"
            "from dirichlet_pruning.pipeline import run_pipeline\n"
            "run_pipeline(load_config(sys.argv[1]))\n")
    cfg = _write_cfg(tmp_path, "q.cfg", _base_cfg_text(tmp_path / "qout"))
    proc = subprocess.run([sys.executable, "-c", code, cfg], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", "")
    assert (tmp_path / "qout" / "metrics.csv").exists()
