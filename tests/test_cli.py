"""End-to-end CLI behavior: exit codes, CSV contracts, determinism."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ifr import cli, gradcheck
from ifr.blocks import init_head
from ifr.checkpoint import load_checkpoint, save_checkpoint
from ifr.cli import load_experiment_config, main
from ifr.data import load_container, save_container
from ifr.gradcheck import run_grad_check
from ifr.rng import CounterRng


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
    ],
)
def test_compare_bad_cell_is_config_error_before_training(tmp_path, capsys, monkeypatch, flags):
    cfg = write_config(tmp_path / "cfg.json")
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a cell trained"))
    argv = ["compare", "--config", str(cfg), "--strategies", "implicit-broyden", *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


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


def test_diagnose_trained_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dataset_path="d.ifr")
    assert main(["gen-data", "--config", str(cfg), "--out", "d.ifr"]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "checkpoint.ifr",
                 "--steps", "300", "--inputs", "2", "--out", "diag.csv"]) == 0
    _, rows = read_csv(tmp_path / "diag.csv")
    metrics = {r[1] for r in rows}
    assert "norm_diff" in metrics


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


def test_grad_check_ok_and_negative_control(capsys):
    assert main(["grad-check", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert main(["grad-check", "--trials", "1", "--break-vjp"]) == 2


def test_grad_check_reports_adjoint_convergence(capsys):
    assert main(["grad-check", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = run_grad_check(trials=2)
    assert result.adjoint_solves == 2
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
