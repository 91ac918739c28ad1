"""End-to-end CLI behavior: exit codes, CSV contracts, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ifr import checkpoint, cli, diagnostics, gradcheck
from ifr.blocks import block_apply_factory, init_head
from ifr.checkpoint import load_checkpoint, save_checkpoint
from ifr.cli import load_experiment_config, main
from ifr.data import EntryMismatchError, load_container, save_container, tensors_to_samples
from ifr.diagnostics import unroll_convergence
from ifr.gradcheck import run_grad_check
from ifr.implicit import ifr_forward
from ifr.rng import CounterRng
from ifr.solver import SolverConfig
from ifr.training import solver_config_for, train


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "head": {
            "strategy": "implicit-broyden",
            "depth_or_budget": 8,
            "channels": 4,
            "predictor_classes": 1,
            "shortcut_mode": "conv1x1",
            "weight_norm": True,
            "gn2_scale_init": 0.1,
            "shortcut_gain_init": 0.2,
            "gn2_scale_cap": 0.1,
            "shortcut_gain_cap": 0.25,
        },
        "solver": {"max_iters": 8, "rel_tol": 1e-6},
        "train": {
            "base_lr": 0.01,
            "total_iters": 8,
            "decay_points": [],
            "warmup_iters": 2,
            "batch_size": 4,
            "seed": 0,
        },
        "data": {"seed": 3, "count": 24, "channels": 4},
        "output_dir": str(path.parent),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg.get(key, {}), **value}
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ifr-csv")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_gen_data_round_trip_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.ifr")]) == 0
    first = capsys.readouterr().out
    assert "wrote 24 samples" in first
    tensors = load_container(tmp_path / "d.ifr")
    assert tensors["features"].shape == (24, 4, 14, 14)

    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d2.ifr")]) == 0
    second = capsys.readouterr().out
    checksum = lambda text: re.search(r"sha256 (\w+)", text).group(1)
    assert checksum(first) == checksum(second)


def test_gen_data_invalid_count_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", data={"seed": 3, "count": 0, "channels": 4})
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.ifr")]) == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"train": "ab"},
        {"train": 5},
        {"train": {"decay_points": 5}},
        {"train": {"decay_points": [1.5]}},
        {"data": {"count": 3.5}},
        {"data": {"count": True}},
        {"head": {"depth_or_budget": 2.5}},
        {"train": {"batch_size": 2.5}},
        {"train": {"total_iters": 2.5}},
        {"head": {"depth_or_budget": 0}},
        {"head": {"strategy": "unrolled-shared", "depth_or_budget": 0}},
        {"data": {"shape_family": "two-blob-union"}},
        {"data": {"encoder_seed": 7}},
        {"train": {"decay_factor": 0.1}},
        {"solver": {"max_iters": 8, "divergence_factor": 1e3}},
        {"solver": {"max_iters": 8, "divergence_factor": 10.0}},
        {"head": {"gn2_scale_cap": 0}},
        {"head": {"shortcut_gain_cap": -0.25}},
        {"train": {"base_lr": float("nan")}},
        {"train": {"base_lr": -1}},
        {"train": {"base_lr": 0}},
        {"train": {"momentum": 2.0}},
        {"train": {"momentum": -0.1}},
        {"head": {"gn2_scale_init": float("nan")}},
        {"head": {"shortcut_gain_init": float("inf")}},
        {"data": {"noise_sigma": float("nan")}},
        {"data": {"noise_sigma": float("inf")}},
        {"head": {"channel_multiplier": float("inf")}},
        {"head": {"channel_multiplier": float("nan")}},
        {"solver": {"rel_tol": float("inf")}},
        {"data": {"corrupt_patch": False}},
        {"data": {"identity_encoder": True}},
        {"output_dir": None},
        {"output_dir": 5},
        {"head": {"weight_norm": "no"}},
        {"head": {"double_residual": 1}},
        {"solver": {"rel_tol": True}},
        {"head": {"channel_multiplier": True}},
        {"head": {"gn2_scale_cap": "0.1"}},
    ],
)
@pytest.mark.parametrize("command", ["gen-data", "train", "compare"])
def test_bad_config_value_is_config_error(tmp_path, capsys, overrides, command):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="d.ifr", **overrides)
    argv = {
        "gen-data": ["gen-data", "--config", str(cfg), "--out", "d.ifr"],
        "train": ["train", "--config", str(cfg)],
        "compare": ["compare", "--config", str(cfg), "--strategies", "implicit-broyden"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("dataset_path", [5, ["d.ifr"]])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_non_string_dataset_path_is_config_error(tmp_path, capsys, dataset_path, command):
    cfg = write_config(tmp_path / "cfg.json", dataset_path=dataset_path)
    argv = {
        "train": ["train", "--config", str(cfg)],
        "compare": ["compare", "--config", str(cfg), "--strategies", "implicit-broyden"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: dataset_path must be a string or null")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("overrides,message", [
    ({"head": {"weight_norm": "no"}}, "head.weight_norm must be a boolean"),
    ({"head": {"weight_norm": 1}}, "head.weight_norm must be a boolean"),
    ({"head": {"double_residual": 1}}, "head.double_residual must be a boolean"),
    ({"solver": {"rel_tol": True}}, "solver.rel_tol must be a number"),
    ({"head": {"channel_multiplier": True}}, "head.channel_multiplier must be a number"),
    ({"head": {"gn2_scale_cap": "0.1"}}, "head.gn2_scale_cap must be a number or null"),
    ({"head": {"strategy": 3}}, "head.strategy must be a string"),
    ({"train": {"decay_points": [4, True]}}, "train.decay_points must be a list of integers"),
    ({"solver": [8]}, "solver must be an object"),
])
def test_a_mistyped_field_is_named_before_anything_is_written(tmp_path, capsys, overrides,
                                                              message):
    good = write_config(tmp_path / "good.json", dataset_path="d.ifr")
    assert main(["gen-data", "--config", str(good), "--out", "d.ifr"]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path / "cfg.json", dataset_path="d.ifr", **overrides)
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}, got ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.ifr", "good.json"]


@pytest.mark.parametrize("command", ["gen-data", "train", "compare"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    argv = {
        "gen-data": ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.ifr")],
        "train": ["train", "--config", str(cfg)],
        "compare": ["compare", "--config", str(cfg), "--strategies", "implicit-broyden"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: config is not UTF-8")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("container,missing", [
    ("checkpoint", ["features", "masks"]),
    ("features-only", ["masks"]),
])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_dataset_container_without_its_entries_is_an_io_error(
    tmp_path, capsys, container, missing, command
):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="c.ifr")
    if container == "checkpoint":
        head = load_experiment_config(cfg).head
        save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    else:
        save_container(tmp_path / "c.ifr", {"features": np.zeros((2, 4, 14, 14))})
    argv = {
        "train": ["train", "--config", str(cfg)],
        "compare": ["compare", "--config", str(cfg), "--strategies", "implicit-broyden"],
    }[command]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: dataset container missing entries {missing}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_dataset_container_with_0d_entries_is_an_io_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="c.ifr")
    save_container(tmp_path / "c.ifr", {"features": np.array(1.0), "masks": np.array(0.0)})
    flags = ["--strategies", "implicit-broyden"] * (command == "compare")
    assert main([command, "--config", str(cfg), *flags]) == 3
    err = capsys.readouterr().err
    assert err == "error: dataset features and masks need a leading sample axis\n"
    assert not list(tmp_path.glob("*.csv"))


def test_importing_the_cli_leaves_hashlib_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, ifr.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Experiment config.*?```json\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "cfg.json").write_text(example, encoding="utf-8")
    cfg = load_experiment_config(tmp_path / "cfg.json")
    assert (cfg.data.count, cfg.train.decay_points) == (320, (800, 1000))


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    obj = json.loads(cfg_path.read_text())
    obj["head"]["bogus_knob"] = 3
    cfg_path.write_text(json.dumps(obj))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d.ifr")]) == 1


def test_train_writes_metrics_and_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="d.ifr")
    assert main(["gen-data", "--config", str(cfg), "--out", "d.ifr"]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    header, rows = read_csv(tmp_path / "metrics.csv")
    assert header == ["iter", "lr", "loss", "held_out_iou", "solver_converged_frac"]
    assert len(rows) >= 1
    loaded_cfg, params = load_checkpoint(tmp_path / "checkpoint.ifr")
    assert loaded_cfg.strategy == "implicit-broyden"
    assert sum(arr.size for _, arr in params.leaf_items()) > 0


def test_checkpoint_round_trips_capped_head_config(tmp_path):
    head = load_experiment_config(write_config(tmp_path / "cfg.json")).head
    assert (head.gn2_scale_cap, head.shortcut_gain_cap) == (0.1, 0.25)
    save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    loaded, _ = load_checkpoint(tmp_path / "c.ifr")
    assert loaded == head
    # a checkpoint written without cap entries loads with None caps
    tensors = load_container(tmp_path / "c.ifr")
    del tensors["config/gn2_scale_cap"], tensors["config/shortcut_gain_cap"]
    save_container(tmp_path / "uncapped.ifr", tensors)
    loaded, _ = load_checkpoint(tmp_path / "uncapped.ifr")
    assert loaded == dataclasses.replace(head, gn2_scale_cap=None, shortcut_gain_cap=None)


def test_train_zero_iterations_header_only_csv(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        dataset_path="d.ifr",
        train={"total_iters": 0, "decay_points": [], "warmup_iters": 0,
               "base_lr": 0.01, "batch_size": 4, "seed": 0},
    )
    assert main(["gen-data", "--config", str(cfg), "--out", "d.ifr"]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # comment + header only


def test_train_missing_dataset_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="absent.ifr")
    assert main(["train", "--config", str(cfg)]) == 3
    assert "dataset not found" in capsys.readouterr().err


def test_train_without_dataset_path_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["train", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "strategy,multiplier,expected",
    [
        ("implicit-broyden", "1", "1.5 M"),
        ("explicit-independent:4", "1", "5.0 M"),
        ("implicit-broyden", "1/8", "0.4 M"),
        ("implicit-broyden", "1/4", "0.6 M"),
        ("implicit-broyden", "1/2", "0.9 M"),
        ("implicit-broyden", "2", "2.6 M"),
    ],
)
def test_param_count_coco_profile(capsys, strategy, multiplier, expected):
    assert main(["param-count", "--profile", "coco-maskhead", "--strategy", strategy,
                 "--multiplier", multiplier]) == 0
    out = capsys.readouterr().out
    assert f"rounded {expected}" in out


def test_param_count_bad_profile_is_error(capsys):
    assert main(["param-count", "--profile", "coco-maskhead", "--strategy", "bogus"]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--multiplier", "0.3"],
        ["--multiplier", "abc"],
        ["--multiplier", "-1"],
        ["--multiplier", "1/0"],
        ["--multiplier", "inf"],
        ["--strategy", "explicit-independent:-1"],
        ["--strategy", "unrolled-shared:0"],
        ["--strategy", "implicit-broyden:0"],
    ],
)
def test_param_count_bad_input_is_config_error(capsys, flags):
    argv = ["param-count", "--profile", "toy", "--strategy", "explicit-independent:4", *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_compare_grid_and_csv_determinism(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    args = ["compare", "--config", str(cfg), "--strategies",
            "explicit-independent:0,implicit-broyden", "--budgets", "3",
            "--out", "compare.csv"]
    assert main(args) == 0
    first = (tmp_path / "compare.csv").read_bytes()
    header, rows = read_csv(tmp_path / "compare.csv")
    assert header[:5] == ["cell", "strategy", "depth_or_budget", "double_residual", "param_count"]
    assert len(rows) == 2
    assert all(row[-1] == "ok" for row in rows)

    assert main(args) == 0
    assert (tmp_path / "compare.csv").read_bytes() == first


@pytest.mark.parametrize(
    "flags",
    [
        ["--budgets", "abc"],
        ["--budgets", "3,"],
        ["--budgets", "0"],
        ["--budgets", "-2"],
        ["--strategies", "unrolled-shared:0"],
        ["--strategies", "explicit-independent:-1"],
        ["--strategies", "implicit-broyden:x"],
        ["--strategies", "explicit-independent:0", "--budgets", "0,-3"],
    ],
)
def test_compare_bad_cell_is_config_error_before_training(tmp_path, capsys, monkeypatch, flags):
    cfg = write_config(tmp_path / "cfg.json")
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a cell trained"))
    argv = ["compare", "--config", str(cfg), "--strategies", "implicit-broyden", *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("head,message", [
    ({"channels": 8}, "dataset feature channels 4 != head.channels 8"),
    ({"predictor_classes": 2}, "dataset mask classes 1 != head.predictor_classes 2"),
], ids=["channels", "classes"])
def test_a_dataset_that_does_not_fit_the_head_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, head, message
):
    # train reads the dataset file, compare generates it from the data section
    dataset_path = "d.ifr" if command == "train" else None
    cfg = write_config(tmp_path / "cfg.json", dataset_path=dataset_path, head=head)
    assert main(["gen-data", "--config", str(cfg), "--out", "d.ifr"]) == 0
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a cell trained"))
    flags = ["--strategies", "implicit-broyden,explicit-independent:2"] * (command == "compare")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "checkpoint.ifr").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("features,masks,message", [
    (np.zeros((6, 4, 10, 10)), np.zeros((6, 1, 28, 28)),
     "dataset mask shape (1, 28, 28) is not (classes, 2H, 2W) for feature shape (4, 10, 10)"),
    (np.zeros((6, 4, 14)), np.zeros((6, 1, 28, 28)),
     "dataset mask shape (1, 28, 28) is not (classes, 2H, 2W) for feature shape (4, 14)"),
    (np.zeros((0, 4, 14, 14)), np.zeros((0, 1, 28, 28)), "dataset has no samples"),
    # the right shapes with values no head can train on
    (np.full((12, 4, 14, 14), np.nan), np.zeros((12, 1, 28, 28)),
     "dataset features contain non-finite values"),
    (np.zeros((12, 4, 14, 14)), np.full((12, 1, 28, 28), 0.5),
     "dataset mask entries must be exactly 0 or 1"),
], ids=["10x10-features-28x28-masks", "2d-features", "empty", "nan-features", "half-masks"])
def test_a_dataset_of_the_wrong_shape_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, features, masks, message
):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="d.ifr")
    save_container(tmp_path / "d.ifr", {"features": features, "masks": masks})
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a cell trained"))
    flags = ["--strategies", "implicit-broyden,explicit-independent:2"] * (command == "compare")
    assert main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.ifr"]


def test_compare_records_a_failing_cell_as_an_error_row(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")

    def failing(head, *args, **kwargs):
        raise FloatingPointError(f"{head.strategy} blew up")

    monkeypatch.setattr(cli, "train", failing)
    assert main(["compare", "--config", str(cfg), "--strategies",
                 "explicit-independent:1,implicit-broyden", "--budgets", "2,3",
                 "--out", "c.csv"]) == 0
    _, rows = read_csv(tmp_path / "c.csv")
    assert [row[:4] for row in rows] == [["0", "explicit-independent", "1", "1"],
                                         ["1", "implicit-broyden", "2", "1"],
                                         ["2", "implicit-broyden", "3", "1"]]
    assert rows[1][-1] == "error: implicit-broyden blew up"


def test_finite_cells_report_no_solver_converged_fraction(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="d.ifr",
                       head={"strategy": "unrolled-shared", "depth_or_budget": 2})
    assert main(["gen-data", "--config", str(cfg), "--out", "d.ifr"]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    header, rows = read_csv(tmp_path / "metrics.csv")
    column = header.index("solver_converged_frac")
    assert rows and all(row[column] == "" for row in rows)
    assert main(["compare", "--config", str(cfg), "--strategies",
                 "explicit-independent:0,unrolled-shared:2,implicit-broyden:3",
                 "--out", "c.csv"]) == 0
    header, rows = read_csv(tmp_path / "c.csv")
    column = header.index("solver_converged_frac")
    assert [row[column] for row in rows[:2]] == ["", ""]
    exp = load_experiment_config(cfg)
    implicit = dataclasses.replace(exp.head, strategy="implicit-broyden", depth_or_budget=3)
    dataset = tensors_to_samples(load_container(tmp_path / "d.ifr"))
    _, metrics = train(implicit, exp.train, dataset, solver_cfg=exp.solver)
    assert rows[2][column] == repr(metrics[-1]["solver_converged_frac"])


@pytest.mark.parametrize("leaf,value", [("stage0.w1.direction", np.nan),
                                        ("predictor.proj.bias", np.inf)])
def test_diagnose_non_finite_checkpoint_leaf_is_io_error(tmp_path, capsys, leaf, value):
    head = load_experiment_config(write_config(tmp_path / "cfg.json")).head
    save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    tensors = load_container(tmp_path / "c.ifr")
    tensors[f"param/{leaf}"] = tensors[f"param/{leaf}"].copy()
    tensors[f"param/{leaf}"].flat[0] = value
    save_container(tmp_path / "bad.ifr", tensors)
    argv = ["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "bad.ifr", "--steps", "5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"param/{leaf}" in err
    assert not (tmp_path / "diagnostics.csv").exists()


def test_compare_nores_token(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["compare", "--config", str(cfg), "--strategies",
                 "implicit-broyden:3@nores", "--out", "c.csv"]) == 0
    _, rows = read_csv(tmp_path / "c.csv")
    assert rows[0][3] == "0"  # double_residual off


def test_diagnose_linear_profile_geometric_trace(tmp_path):
    assert main(["--output-dir", str(tmp_path), "diagnose", "--profile", "linear-1d",
                 "--steps", "10", "--out", "diag.csv"]) == 0
    _, rows = read_csv(tmp_path / "diag.csv")
    norm_rows = [r for r in rows if r[1] == "norm_diff"]
    values = [float(r[3]) for r in norm_rows]
    assert values == [2.0**-k for k in range(10)]
    # the solver root is exactly 2; the 10-step unroll is 2*(1 - 2^-10)
    gap_rows = [r for r in rows if r[1] == "implicit_gap"]
    assert abs(float(gap_rows[0][3]) - 2.0**-9) < 1e-12
    radius_rows = [r for r in rows if r[1] == "spectral_radius"]
    assert [float(r[3]) for r in radius_rows] == [0.5]
    # the Broyden solve from h = 0: iterate 1 is h = 1, the secant step lands on 2
    solve_rows = [r for r in rows if r[1] == "solve_residual"]
    assert [int(r[2]) for r in solve_rows] == [0, 1, 2]
    assert [float(r[3]) for r in solve_rows] == [1 / 1e-9, 0.5 / (1 + 1e-9), 0.0]
    assert rows[-len(solve_rows):] == solve_rows


def test_diagnose_trained_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="d.ifr")
    assert main(["gen-data", "--config", str(cfg), "--out", "d.ifr"]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "checkpoint.ifr",
                 "--steps", "300", "--inputs", "2", "--out", "diag.csv"]) == 0
    _, rows = read_csv(tmp_path / "diag.csv")
    metrics = {r[1] for r in rows}
    assert "norm_diff" in metrics


def test_diagnose_gap_reads_the_one_unroll_it_traces(tmp_path, monkeypatch):
    head = load_experiment_config(write_config(tmp_path / "cfg.json")).head
    params = init_head(CounterRng(0), head)
    save_checkpoint(tmp_path / "c.ifr", head, params)
    calls = []

    def counting_factory(p, x):
        apply = block_apply_factory(p, x)
        return lambda h: calls.append(1) or apply(h)

    monkeypatch.setattr(diagnostics, "block_apply_factory", counting_factory)
    assert main(["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "c.ifr",
                 "--steps", "200", "--inputs", "2", "--seed", "5", "--out", "diag.csv"]) == 0
    monkeypatch.undo()
    assert len(calls) == 2 * 200
    _, rows = read_csv(tmp_path / "diag.csv")
    gaps = [float(r[3]) for r in rows if r[1] == "implicit_gap"]
    block, rng = params.stages[0], CounterRng(5)
    solver_cfg = solver_config_for(head, SolverConfig(rel_tol=1e-10))
    expected = []
    for i in range(2):
        x = rng.split(i).normal((head.channels, 14, 14))
        root = ifr_forward(block, x, solver_cfg).equilibrium
        expected.append(float(np.max(np.abs(root - unroll_convergence(block, x, 200).endpoint))))
    assert gaps == expected


def test_diagnose_solve_residual_rows_are_the_gap_solve_trace(tmp_path, monkeypatch):
    head = load_experiment_config(write_config(tmp_path / "cfg.json")).head
    params = init_head(CounterRng(0), head)
    save_checkpoint(tmp_path / "c.ifr", head, params)
    solves = []

    def counting_forward(p, x, cfg):
        solves.append(1)
        return ifr_forward(p, x, cfg)

    monkeypatch.setattr(diagnostics, "ifr_forward", counting_forward)
    assert main(["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "c.ifr",
                 "--steps", "50", "--inputs", "2", "--seed", "5", "--out", "diag.csv"]) == 0
    monkeypatch.undo()
    assert len(solves) == 2
    _, rows = read_csv(tmp_path / "diag.csv")
    block, rng = params.stages[0], CounterRng(5)
    solver_cfg = solver_config_for(head, SolverConfig(rel_tol=1e-10))
    for i in range(2):
        x = rng.split(i).normal((head.channels, 14, 14))
        trace = ifr_forward(block, x, solver_cfg).forward_result.problems[0].residual_trace
        mine = [r for r in rows if r[0] == str(i)]
        # an input's rows end with its solve's residual at iterates 0, 1, ...
        tail = mine[-len(trace) - 1:]
        assert [r[1] for r in tail] == ["implicit_gap"] + ["solve_residual"] * len(trace)
        assert [(int(r[2]), float(r[3])) for r in tail[1:]] == list(enumerate(trace))


@pytest.mark.parametrize("flags", [["--steps", "0"], ["--steps", "-3"], ["--inputs", "0"]])
def test_diagnose_needs_a_step_and_an_input(tmp_path, capsys, flags):
    head = load_experiment_config(write_config(tmp_path / "cfg.json")).head
    save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    for source in (["--profile", "linear-1d"], ["--checkpoint", "c.ifr"]):
        argv = ["--output-dir", str(tmp_path), "diagnose", *source, *flags, "--out", "diag.csv"]
        assert main(argv) == 1
        assert "--steps and --inputs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "diag.csv").exists()


def test_diagnose_stageless_checkpoint_is_config_error(tmp_path, capsys):
    head = load_experiment_config(
        write_config(tmp_path / "cfg.json",
                     head={"strategy": "explicit-independent", "depth_or_budget": 0})
    ).head
    save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    argv = ["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "c.ifr", "--steps", "5"]
    assert main(argv) == 1
    assert "no refinement block" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.csv").exists()


def test_diagnose_corrupt_checkpoint_is_io_error(tmp_path):
    bad = tmp_path / "bad.ifr"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "bad.ifr"]) == 3


@pytest.mark.parametrize(
    "key,value",
    [
        ("strategy", [7.0]),
        ("strategy", [-1.0]),
        ("strategy", [np.nan]),
        ("shortcut_mode", [2.0]),
        ("channels", [4.5]),
        ("weight_norm", [2.0]),
        ("channels", []),
        ("channels", [4.0, 4.0]),
        ("channels", [0.0]),
        ("depth_or_budget", [0.0]),
        ("gn2_scale_init", [np.nan]),
        ("shortcut_gain_init", [np.inf]),
        ("channel_multiplier", [np.inf]),
        ("channel_multiplier", [np.nan]),
    ],
)
def test_diagnose_bad_checkpoint_config_entry_is_io_error(tmp_path, capsys, key, value):
    head = load_experiment_config(write_config(tmp_path / "cfg.json")).head
    save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    tensors = load_container(tmp_path / "c.ifr")
    tensors[f"config/{key}"] = np.array(value)
    save_container(tmp_path / "bad.ifr", tensors)
    argv = ["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "bad.ifr", "--steps", "5"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("edit,named", [
    # a depth-4 head's checkpoint relabelled as depth 2 keeps stages 2 and 3
    ({"config/depth_or_budget": np.array([2.0])}, "param/stage2."),
    ({"junk": np.zeros(1)}, "'junk'"),
], ids=["relabelled-depth", "junk"])
def test_checkpoint_entry_outside_its_head_is_rejected(tmp_path, capsys, edit, named):
    head = load_experiment_config(write_config(
        tmp_path / "cfg.json", head={"strategy": "explicit-independent", "depth_or_budget": 4}
    )).head
    save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    tensors = {**load_container(tmp_path / "c.ifr"), **edit}
    save_container(tmp_path / "bad.ifr", tensors)
    with pytest.raises(EntryMismatchError, match=re.escape(named)):
        load_checkpoint(tmp_path / "bad.ifr")
    argv = ["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "bad.ifr", "--steps", "5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("depth_or_budget", 50.0), ("channels", 16.0), ("predictor_classes", 50.0),
])
def test_a_checkpoint_config_that_outgrows_its_values_is_rejected_before_building(
    tmp_path, capsys, monkeypatch, key, value
):
    head = load_experiment_config(write_config(
        tmp_path / "cfg.json", head={"strategy": "explicit-independent", "depth_or_budget": 1}
    )).head
    save_checkpoint(tmp_path / "c.ifr", head, init_head(CounterRng(0), head))
    tensors = {**load_container(tmp_path / "c.ifr"), f"config/{key}": np.array([value])}
    save_container(tmp_path / "bad.ifr", tensors)

    def no_build(*_args):
        raise AssertionError("the head was built before its size was checked")

    monkeypatch.setattr(checkpoint, "init_head", no_build)
    named = r"needs \d+ parameter values, the file stores \d+"
    with pytest.raises(EntryMismatchError, match=named):
        load_checkpoint(tmp_path / "bad.ifr")
    argv = ["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "bad.ifr", "--steps", "5"]
    assert main(argv) == 3
    assert re.match("error: checkpoint head config " + named, capsys.readouterr().err)
    assert not (tmp_path / "diagnostics.csv").exists()


def test_grad_check_ok_and_negative_control(capsys):
    assert main(["grad-check", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert main(["grad-check", "--trials", "1", "--break-vjp"]) == 2


def test_grad_check_reports_adjoint_convergence(capsys):
    assert main(["grad-check", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = run_grad_check(trials=2)
    assert 0 <= result.adjoint_converged <= 2
    assert lines[2] == (
        f"adjoint solves converged: {result.adjoint_converged}/2 (rel_tol 1e-10, budget 15)"
    )
    assert lines[0].startswith("max rel error vs finite differences:")
    assert lines[1].startswith("max rel error vs unroll backprop:")
    assert lines[3] == "OK"


def test_grad_check_fails_on_nan_gradients(capsys, monkeypatch):
    real = gradcheck.ifr_backward

    def nan_backward(rec, upstream, solver_cfg):
        back = real(rec, upstream, solver_cfg)
        for _, arr in back.d_params.leaf_items():
            arr[...] = np.nan
        return back

    monkeypatch.setattr(gradcheck, "ifr_backward", nan_backward)
    assert main(["grad-check", "--trials", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("max rel error vs finite differences: inf")
    assert lines[1].startswith("max rel error vs unroll backprop:    inf")
    assert lines[-1] == "FAIL"


def test_grad_check_zero_trials_is_config_error():
    assert main(["grad-check", "--trials", "0"]) == 1
