"""Config parsing, dataset IO, synthetic task, pipeline, and the CLI."""

import gzip
import json
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
                                      PipelineError)
from dirichlet_pruning.models import (build_lenet5, build_mlp, evaluate, forward,
                                      load_model, save_model,
                                      switch_layer_indices)
from dirichlet_pruning.pgm import to_u8, write_pgm
from dirichlet_pruning.pipeline import (export_feature_maps, load_dataset,
                                        run_pipeline, run_posterior_compare)
from dirichlet_pruning.pruning import LayerRanking, RankingReport
from dirichlet_pruning.synthetic import gen_synthetic, make_true_switch, task_model
from dirichlet_pruning import cli


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
    ("method = l3", "method"),
    ("val_fraction = 1.0", "val_fraction"),
    ("train_lr = 0", "train_lr"),
    ("lr = -0.5", "lr"),
    ("finetune_lr = nan", "finetune_lr"),
    ("k = 0", "k"),
    ("dims = 8", "dims"),
    ("arch = lenet5\nwidths = 2, 2, 8", "widths"),
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
])
def test_config_rejects_bad_choice_or_range_naming_the_key(text, key):
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_config_text(text + "\n")


@pytest.mark.parametrize("key,value", [
    ("estimator", "implcit"), ("rate", 1.5), ("alpha0", 0.0), ("kl_weight", math.nan),
    ("train_batch_size", 0), ("batch_size", 0), ("finetune_batch_size", 0),
    ("keep_counts", (3, 3)), ("keep_counts", (0,)),
])
def test_bad_config_writes_no_artifact(tmp_path, key, value):
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        run_pipeline(_nano_config(out, **{key: value}))
    assert not out.exists()
    text = ", ".join(map(str, value)) if isinstance(value, tuple) else value
    path = _write_cfg(tmp_path, "bad.cfg", _base_cfg_text(out) + f"{key} = {text}\n")
    assert cli.main(["--config", path, "pipeline"]) == 1
    assert not out.exists()


def test_config_base_overlay_keeps_other_fields():
    base = parse_config_text("seed = 3\nn = 500\n")
    cfg = parse_config_text("seed = 9\n", base=base)
    assert cfg.seed == 9
    assert cfg.n == 500
    assert base.seed == 3  # overlay must not mutate the base


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


def test_idx_roundtrip_and_scaling(tmp_path):
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    pixels[0, 0, 0] = 255
    pixels[1, 2, 1] = 128
    ip = _write(tmp_path, "imgs", _idx_images(pixels))
    lp = _write(tmp_path, "labels", _idx_labels([3, 1]))
    x, y = load_mnist_idx(ip, lp)
    assert x.shape == (2, 1, 3, 3) and x.dtype == np.float64
    assert x[0, 0, 0, 0] == 1.0
    assert x[1, 0, 2, 1] == 128 / 255
    assert x.min() == 0.0
    assert y.tolist() == [3, 1] and y.dtype == np.int64


def test_idx_gzip_transparent(tmp_path):
    pixels = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    ip = _write(tmp_path, "imgs.gz", gzip.compress(_idx_images(pixels)))
    lp = _write(tmp_path, "labels.gz", gzip.compress(_idx_labels([0, 1])))
    x, y = load_mnist_idx(ip, lp)
    np.testing.assert_allclose(x[:, 0], pixels / 255.0)
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


def test_train_val_split_partitions():
    x = np.arange(40, dtype=np.float64).reshape(20, 2)
    y = np.arange(20)
    x_tr, y_tr, x_val, y_val = train_val_split(x, y, 0.25, np.random.default_rng(0))
    assert x_val.shape == (5, 2) and x_tr.shape == (15, 2)
    assert sorted(np.concatenate([y_tr, y_val]).tolist()) == list(range(20))


# ---------------------------------------------------------------------------
# PGM export


def test_to_u8_min_max_normalizes():
    out = to_u8(np.array([[0.0, 0.5], [1.0, 0.25]]))
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, [[0, 128], [255, 64]])


def test_to_u8_constant_map_pins_to_zero():
    np.testing.assert_array_equal(to_u8(np.full((3, 3), 2.5)),
                                  np.zeros((3, 3), dtype=np.uint8))


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


def test_task_model_at_truth_reproduces_labels():
    task, x, y = gen_synthetic(9, 8, 300, np.random.default_rng(9))
    model = task_model(task)
    sw = switch_layer_indices(model)[0]
    logits = forward(model, x, switches={sw: task.true_switch}).data
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


def test_pipeline_deterministic_artifacts_are_byte_stable(tmp_path):
    out = tmp_path / "run"
    stable = ("resolved_config.txt", "switches.json", "ranking.csv",
              "plan.json", "pruned.dpm1", "finetuned.dpm1", "metrics.csv")
    run_pipeline(_nano_config(out))
    first = {name: (out / name).read_bytes() for name in stable}
    run_pipeline(_nano_config(out))
    for name in stable:
        assert (out / name).read_bytes() == first[name], name


def test_pipeline_writes_switches_to_switches_path(tmp_path):
    out = tmp_path / "run"
    target = tmp_path / "elsewhere.json"
    run_pipeline(_nano_config(out, switches_path=str(target)))
    assert json.loads(target.read_text())["version"] == 1
    assert not (out / "switches.json").exists()


def test_pipeline_failure_names_the_phase(tmp_path):
    cfg = _nano_config(tmp_path / "run", rate=0.0, keep_counts=(),
                       train_epochs=0, epochs=0)
    with pytest.raises(PipelineError, match="phase 'plan' failed"):
        run_pipeline(cfg)
    cfg = _nano_config(tmp_path / "run2", data="mnist")
    with pytest.raises(PipelineError, match="phase 'data' failed"):
        run_pipeline(cfg)


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


def test_cli_switch_train_with_zero_epochs_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "z.cfg", _base_cfg_text(tmp_path / "out") + "epochs = 0\n")
    assert cli.main(["--config", cfg, "switch-train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epochs" in err
    assert not (tmp_path / "out" / "switches.json").exists()


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


def test_cli_export_maps_reads_default_ranking(tmp_path):
    out, cfg = _export_maps_cfg(tmp_path)
    out.mkdir()
    (out / "ranking.csv").write_text("layer,channel,score,rank\n0,0,0.1,1\n0,1,0.9,0\n")
    assert cli.main(["--config", cfg, "export-maps"]) == 0
    assert sorted(p.name for p in out.glob("*.pgm")) == [
        "map_000_channel_001.pgm", "map_001_channel_000.pgm"]


def test_cli_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.cfg", "seeed = 1\n")
    assert cli.main(["--config", cfg, "train"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_missing_model_in_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "e.cfg", _base_cfg_text(tmp_path / "out"))
    assert cli.main(["--config", cfg, "eval"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model_in" in err


def test_cli_module_entry_point(tmp_path):
    cfg = _write_cfg(tmp_path, "m.cfg", _base_cfg_text(tmp_path / "mout")
                     + "train_epochs = 0\nepochs = 0\nfinetune_epochs = 0\n")
    proc = subprocess.run([sys.executable, "-m", "dirichlet_pruning",
                           "--config", cfg, "pipeline"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "pipeline done" in proc.stdout
