"""Shared fixtures: deterministic tensors, contractive block corpus, and the
lazily-trained strategy grid reused across training and acceptance tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ifr import data, solver, training
from ifr.blocks import EXPLICIT, IMPLICIT, UNROLLED, HeadConfig, init_mask_predictor
from ifr.gradcheck import contractive_block
from ifr.rng import CounterRng


def rand(seed: int, shape):
    return CounterRng(seed).normal(shape)


def init_predictor(seed: int, channels: int, classes: int):
    """The predictor tail of a head with `channels` channels and `classes` classes."""
    cfg = HeadConfig(EXPLICIT, 0, channels=channels, predictor_classes=classes)
    return init_mask_predictor(CounterRng(seed), cfg)


def max_rel(a, b) -> float:
    """Largest |a - b| relative to the largest |b|."""
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


# --- desk-scale experiment preset (shared by training tests, CLI, acceptance)

GRID_CHANNELS = 8
GRID_DATA = data.DatasetSpec(seed=1, count=320, channels=GRID_CHANNELS)
GRID_SOLVER = solver.SolverConfig(max_iters=15, rel_tol=1e-6)


def grid_head(strategy: str, depth_or_budget: int, double_residual: bool = True) -> HeadConfig:
    return HeadConfig(
        strategy=strategy,
        depth_or_budget=depth_or_budget,
        channels=GRID_CHANNELS,
        predictor_classes=1,
        shortcut_mode="conv1x1",
        weight_norm=True,
        double_residual=double_residual,
        gn2_scale_init=0.1,
        shortcut_gain_init=0.2,
    )


def grid_train_cfg(**overrides) -> training.TrainConfig:
    base = dict(
        base_lr=0.01,
        momentum=0.9,
        total_iters=600,
        decay_points=(400, 520),
        warmup_iters=50,
        batch_size=8,
        seed=0,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


@pytest.fixture(scope="session")
def grid_dataset():
    return data.generate(GRID_DATA)


@dataclasses.dataclass
class TrainedCell:
    state: training.TrainState
    metrics: list[dict]

    @property
    def final_iou(self) -> float:
        return self.metrics[-1]["held_out_iou"]


class CellGrid:
    """Trains each (strategy, depth, residual) cell at most once per session."""

    def __init__(self, dataset):
        self.dataset = dataset
        self._cells: dict[tuple, TrainedCell] = {}

    def cell(self, strategy: str, depth: int, double_residual: bool = True) -> TrainedCell:
        key = (strategy, depth, double_residual)
        if key not in self._cells:
            head = grid_head(strategy, depth, double_residual)
            state, metrics = training.train(
                head, grid_train_cfg(), self.dataset, solver_cfg=GRID_SOLVER
            )
            self._cells[key] = TrainedCell(state, metrics)
        return self._cells[key]


@pytest.fixture(scope="session")
def cell_grid(grid_dataset):
    return CellGrid(grid_dataset)


@pytest.fixture(scope="session")
def trained_implicit(cell_grid):
    """The reference trained implicit head (budget 15)."""
    return cell_grid.cell(IMPLICIT, 15)


@pytest.fixture
def corpus_block():
    return contractive_block(seed=7)
