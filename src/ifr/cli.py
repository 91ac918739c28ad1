"""Command-line experiment harness.

Subcommands: gen-data, train, compare, param-count, diagnose, grad-check.
Configs are strict UTF-8 JSON (unknown keys rejected). All CSV outputs
start with a "# ifr-csv v1" comment line followed by a fixed header row;
columns never reorder without a version bump in that comment.

Exit codes: 0 success, 1 config/validation error, 2 runtime/numeric
failure, 3 I/O error. Relative paths (dataset, outputs, checkpoints)
resolve against the output directory; the config path itself is
cwd-relative.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from .blocks import (
    IMPLICIT,
    STRATEGIES,
    HeadConfig,
    count_parameters,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    ContainerError,
    DatasetSpec,
    generate,
    load_container,
    samples_to_tensors,
    save_container,
    tensors_to_samples,
)
from .diagnostics import (
    estimate_spectral_radius,
    implicit_gap,
    spectral_radius,
    unroll_convergence,
)
from .gradcheck import FD_TOLERANCE, SOLVE_REL_TOL, UNROLL_TOLERANCE, run_grad_check
from .ops import NonFiniteError
from .rng import CounterRng
from .solver import DivergenceError, SolverConfig, broyden_solve, fixed_point_iterate
from .training import TrainConfig, TrainingAbortedError, solver_config_for, train

CSV_VERSION = "# ifr-csv v1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


# ---------------------------------------------------------------------------
# config loading


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build(cls, obj, section: str):
    """cls from a JSON object section.

    An int field takes only an integer (not a bool), a tuple[int, ...] field
    only a list of them.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")
    obj = dict(obj)
    for name, value in obj.items():
        if hints[name] is int and not _is_int(value):
            raise ConfigError(f"{section}.{name} must be an integer, got {value!r}")
        if hints[name] == tuple[int, ...]:
            if not (isinstance(value, list) and all(_is_int(v) for v in value)):
                raise ConfigError(f"{section}.{name} must be a list of integers, got {value!r}")
            obj[name] = tuple(value)
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section!r} section: {exc}") from exc


@dataclasses.dataclass
class ExperimentConfig:
    head: HeadConfig
    solver: SolverConfig
    train: TrainConfig
    data: DatasetSpec
    output_dir: str = "."
    dataset_path: Optional[str] = None


def load_experiment_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be an object")
    fields = dataclasses.fields(ExperimentConfig)
    unknown = set(obj) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in obj:
            raise ConfigError(f"config missing required section {f.name!r}")
    return ExperimentConfig(
        head=_build(HeadConfig, obj["head"], "head"),
        solver=_build(SolverConfig, obj["solver"], "solver"),
        train=_build(TrainConfig, obj["train"], "train"),
        data=_build(DatasetSpec, obj["data"], "data"),
        output_dir=str(obj.get("output_dir", ".")),
        dataset_path=obj.get("dataset_path"),
    )


def _resolve(path, output_dir) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(output_dir) / p


# ---------------------------------------------------------------------------
# CSV writer


def write_csv(path, columns: list[str], rows: list[list]) -> None:
    def fmt(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [CSV_VERSION, ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    cfg = load_experiment_config(args.config)
    out_dir = args.output_dir or cfg.output_dir
    samples = generate(cfg.data)
    out_path = _resolve(args.out, out_dir)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_container(out_path, samples_to_tensors(samples))
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    print(f"wrote {len(samples)} samples to {out_path}")
    print(f"sha256 {digest}")
    return EXIT_OK


def _load_dataset(cfg: ExperimentConfig, out_dir) -> list:
    if cfg.dataset_path is None:
        raise ConfigError("config has no dataset_path")
    path = _resolve(cfg.dataset_path, out_dir)
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    return tensors_to_samples(load_container(path))


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    out_dir = args.output_dir or cfg.output_dir
    dataset = _load_dataset(cfg, out_dir)
    state, metrics = train(cfg.head, cfg.train, dataset, solver_cfg=cfg.solver)
    columns = ["iter", "lr", "loss", "held_out_iou", "solver_converged_frac"]
    rows = [[m[c] for c in columns] for m in metrics]
    metrics_path = _resolve(args.metrics_out, out_dir)
    write_csv(metrics_path, columns, rows)
    ckpt_path = _resolve(args.checkpoint_out, out_dir)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt_path, cfg.head, state.params)
    if metrics:
        last = metrics[-1]
        print(
            f"finished iter {last['iter']}: loss {last['loss']:.4f} "
            f"held-out IoU {last['held_out_iou']:.4f}"
        )
    else:
        print("finished without training iterations")
    print(f"metrics {metrics_path}")
    print(f"checkpoint {ckpt_path}")
    return EXIT_OK


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc


def _head_config(build, *args, **kwargs) -> HeadConfig:
    """build(*args, **kwargs), a HeadConfig; its ValueError becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_strategy_token(token: str, default_depth: int) -> tuple[str, Optional[int], bool]:
    """'<strategy>[:depth][@nores]' -> (strategy, depth or None, double_residual)."""
    token = token.strip()
    double_residual = True
    if token.endswith("@nores"):
        double_residual = False
        token = token[: -len("@nores")]
    depth: Optional[int] = None
    if ":" in token:
        token, _, depth_text = token.partition(":")
        depth = _parse_int(depth_text, f"depth in strategy token {token!r}:")
    if token not in STRATEGIES:
        raise ConfigError(f"unknown strategy {token!r}; expected one of {STRATEGIES}")
    if depth is None and token != IMPLICIT:
        depth = default_depth
    return token, depth, double_residual


def _expand_cells(args, cfg: ExperimentConfig) -> list[HeadConfig]:
    """The config's head with each cell's strategy, depth or budget, and residual switch."""
    budgets = [_parse_int(b, "budget") for b in args.budgets.split(",")] if args.budgets else []
    cells: list[HeadConfig] = []
    for token in args.strategies.split(","):
        strategy, depth, double_res = parse_strategy_token(token, cfg.head.depth_or_budget)
        if strategy == IMPLICIT and depth is None:
            depths = budgets or [cfg.head.depth_or_budget]
        else:
            depths = [depth]
        cells.extend(
            _head_config(dataclasses.replace, cfg.head, strategy=strategy,
                         depth_or_budget=d, double_residual=double_res)
            for d in depths
        )
    if not cells:
        raise ConfigError("no strategy cells requested")
    return cells


def _run_cell(head: HeadConfig, cfg: ExperimentConfig, dataset) -> list:
    params = count_parameters(head)
    state, metrics = train(head, cfg.train, dataset, solver_cfg=cfg.solver)
    last = metrics[-1] if metrics else {"held_out_iou": float("nan"), "loss": float("nan"),
                                        "solver_converged_frac": float("nan")}
    return [params, last["held_out_iou"], last["loss"], last["solver_converged_frac"], "ok"]


def cmd_compare(args) -> int:
    cfg = load_experiment_config(args.config)
    out_dir = args.output_dir or cfg.output_dir
    cells = _expand_cells(args, cfg)
    if cfg.dataset_path is not None:
        dataset = _load_dataset(cfg, out_dir)
    else:
        dataset = generate(cfg.data)

    def safe_run(index: int, head: HeadConfig) -> list:
        try:
            result = _run_cell(head, cfg, dataset)
        except Exception as exc:  # per-cell failures recorded, command continues
            result = ["", "", "", "", f"error: {exc}"]
        return [index, head.strategy, head.depth_or_budget, int(head.double_residual), *result]

    rows = [safe_run(i, head) for i, head in enumerate(cells)]
    columns = [
        "cell", "strategy", "depth_or_budget", "double_residual",
        "param_count", "final_iou", "final_loss", "solver_converged_frac", "status",
    ]
    out_path = _resolve(args.out, out_dir)
    write_csv(out_path, columns, rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    print(f"comparison {out_path}")
    return EXIT_OK


_PROFILES = {
    "coco-maskhead": dict(channels=256, predictor_classes=80, shortcut_mode="identity",
                          weight_norm=False),
    "toy": dict(channels=8, predictor_classes=1, shortcut_mode="conv1x1", weight_norm=True),
}


def cmd_param_count(args) -> int:
    if args.profile not in _PROFILES:
        raise ConfigError(f"unknown profile {args.profile!r}; expected {sorted(_PROFILES)}")
    strategy, depth, double_res = parse_strategy_token(args.strategy, default_depth=4)
    multiplier = eval_multiplier(args.multiplier)
    head = _head_config(
        HeadConfig,
        strategy=strategy,
        depth_or_budget=depth if depth is not None else 15,
        channel_multiplier=multiplier,
        double_residual=double_res,
        **_PROFILES[args.profile],
    )
    exact = count_parameters(head)
    rounded = round(exact / 1e6, 1)
    print(f"strategy {strategy} depth_or_budget {head.depth_or_budget} "
          f"multiplier {multiplier}")
    print(f"exact {exact}")
    print(f"rounded {rounded} M")
    return EXIT_OK


def eval_multiplier(text: str) -> float:
    """Accepts '1', '2', '0.5', or fraction syntax '1/8'; a finite value or ConfigError."""
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad multiplier {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"bad multiplier {text!r}")
    return value


def _diagnose_linear(args, out_dir) -> int:
    # built-in test profile: F(h) = 0.5 h + 1 in one dimension
    steps = args.steps
    h, trace = fixed_point_iterate(lambda v: 0.5 * v + 1.0, np.zeros(1), steps)
    rows = [["linear-1d", "norm_diff", i, diff] for i, diff in enumerate(trace)]
    solve = broyden_solve(lambda v: 0.5 * v + 1.0 - v, np.zeros(1), SolverConfig())
    rows.append(["linear-1d", "implicit_gap", steps, float(abs(solve.root[0] - h[0]))])
    rho = estimate_spectral_radius(lambda v: 0.5 * v, (1,))
    rows.append(["linear-1d", "spectral_radius", steps, rho])
    out_path = _resolve(args.out, out_dir)
    write_csv(out_path, ["input", "metric", "step", "value"], rows)
    print(f"diagnostics {out_path}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.steps < 1 or args.inputs < 1:
        raise ConfigError("--steps and --inputs must be >= 1")
    out_dir = args.output_dir or "."
    if args.profile == "linear-1d":
        return _diagnose_linear(args, out_dir)
    if not args.checkpoint:
        raise ConfigError("diagnose needs --checkpoint or --profile linear-1d")
    cfg, params = load_checkpoint(_resolve(args.checkpoint, out_dir))
    if not params.stages:
        raise ConfigError(f"checkpoint {args.checkpoint} has no refinement block to diagnose")
    block = params.stages[0]
    solver_cfg = solver_config_for(cfg, SolverConfig(rel_tol=1e-10))
    rng = CounterRng(args.seed)
    probe_steps = sorted({0, 1, min(10, args.steps - 1), args.steps - 1})
    rows = []
    for i in range(args.inputs):
        x = rng.split(i).normal((cfg.channels, 14, 14))
        report = unroll_convergence(block, x, args.steps, probe_steps=probe_steps)
        for step, diff in enumerate(report.norm_diff_trace):
            rows.append([i, "norm_diff", step, diff])
        for j, est in enumerate(report.spectral_radius_estimates):
            rows.append([i, "spectral_radius", probe_steps[j], est])
        if report.diverged:
            rows.append([i, "diverged_at", len(report.norm_diff_trace), 1.0])
            print(f"input {i}: divergence flagged ({report.note})")
            continue
        final = report.norm_diff_trace[-1] if report.norm_diff_trace else float("nan")
        rho_end = spectral_radius(block, x, report.endpoint)
        rows.append([i, "spectral_radius_at_end", args.steps, rho_end])
        gap = implicit_gap(block, x, solver_cfg, args.steps)
        rows.append([i, "implicit_gap", args.steps, gap])
        print(f"input {i}: final norm diff {final:.3e}, end radius {rho_end:.4f}, gap {gap:.3e}")
    out_path = _resolve(args.out, out_dir)
    write_csv(out_path, ["input", "metric", "step", "value"], rows)
    print(f"diagnostics {out_path}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    channels, budget = 8, 15
    if args.config:
        cfg = load_experiment_config(args.config)
        channels = cfg.head.channels
        if cfg.head.strategy == IMPLICIT:
            budget = cfg.head.depth_or_budget
    result = run_grad_check(
        trials=args.trials, channels=channels, budget=budget,
        seed=args.seed, break_vjp=args.break_vjp,
    )
    print(f"max rel error vs finite differences: {result.fd_rel_error:.3e} "
          f"(tolerance {FD_TOLERANCE:.0e})")
    print(f"max rel error vs unroll backprop:    {result.unroll_rel_error:.3e} "
          f"(tolerance {UNROLL_TOLERANCE:.0e})")
    print(f"adjoint solves converged: {result.adjoint_converged}/{result.adjoint_solves} "
          f"(rel_tol {SOLVE_REL_TOL:g}, budget {budget})")
    if result.fd_rel_error > FD_TOLERANCE or result.unroll_rel_error > UNROLL_TOLERANCE:
        print("FAIL")
        return EXIT_RUNTIME
    print("OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifr", description="implicit feature refinement experiment harness"
    )
    parser.add_argument("--output-dir", default=None, help="base for relative paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset container")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one head configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--metrics-out", default="metrics.csv")
    p.add_argument("--checkpoint-out", default="checkpoint.ifr")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="train a grid of strategy cells")
    p.add_argument("--config", required=True)
    p.add_argument("--strategies", required=True,
                   help="comma list of '<strategy>[:depth][@nores]' tokens")
    p.add_argument("--budgets", default="",
                   help="comma list of Broyden budgets for implicit cells")
    p.add_argument("--out", default="compare.csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("param-count", help="exact head parameter arithmetic")
    p.add_argument("--profile", required=True, choices=sorted(_PROFILES))
    p.add_argument("--strategy", required=True)
    p.add_argument("--multiplier", default="1")
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("diagnose", help="convergence diagnostics for a checkpoint")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--profile", default=None, choices=["linear-1d"])
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--inputs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="diagnostics.csv")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("grad-check", help="validate implicit gradients")
    p.add_argument("--config", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--break-vjp", action="store_true",
                   help="negative-control hook: corrupt gradients before comparison")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContainerError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TrainingAbortedError, DivergenceError, NonFiniteError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
