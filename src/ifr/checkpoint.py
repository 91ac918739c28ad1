"""Head checkpoints on top of the tensor container format.

A checkpoint stores every parameter leaf under "param/<name>" plus the
head configuration as scalar tensors under "config/<field>" (a field that
is None is left out), so a trained head can be rebuilt without any sidecar
file.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from .blocks import (
    SHORTCUT_CONV,
    SHORTCUT_IDENTITY,
    STRATEGIES,
    HeadConfig,
    HeadParams,
    init_head,
)
from .data import EntryMismatchError, load_container, save_container
from .rng import CounterRng

# string fields are stored as their index into the tuple of allowed values
_CODES = {"strategy": STRATEGIES, "shortcut_mode": (SHORTCUT_IDENTITY, SHORTCUT_CONV)}
_HINTS = typing.get_type_hints(HeadConfig)


def _config_tensors(cfg: HeadConfig) -> dict[str, np.ndarray]:
    """One scalar tensor per HeadConfig field; a None field is left out."""
    tensors = {}
    for f in dataclasses.fields(HeadConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name in _CODES:
            value = _CODES[f.name].index(value)
        tensors[f"config/{f.name}"] = np.array([float(value)])
    return tensors


def _read_config(tensors: dict[str, np.ndarray]) -> HeadConfig:
    """HeadConfig from its scalar tensors; an absent field defaulting to None is None."""
    values = {}
    for f in dataclasses.fields(HeadConfig):
        key = f"config/{f.name}"
        if key not in tensors:
            if f.default is None:
                continue
            raise EntryMismatchError(f"checkpoint missing {key!r}")
        value = float(tensors[key].reshape(-1)[0])
        if f.name in _CODES:
            value = _CODES[f.name][int(value)]
        elif _HINTS[f.name] in (int, bool):
            value = _HINTS[f.name](value)
        values[f.name] = value
    return HeadConfig(**values)


def save_checkpoint(path, cfg: HeadConfig, params: HeadParams) -> None:
    tensors = _config_tensors(cfg)
    for name, arr in params.leaf_items():
        tensors[f"param/{name}"] = arr
    save_container(path, tensors)


def load_checkpoint(path) -> tuple[HeadConfig, HeadParams]:
    tensors = load_container(path)
    cfg = _read_config(tensors)
    params = init_head(CounterRng(0), cfg)
    for name, arr in params.leaf_items():
        key = f"param/{name}"
        if key not in tensors:
            raise EntryMismatchError(f"checkpoint missing parameter leaf {key!r}")
        stored = tensors[key]
        if stored.shape != arr.shape:
            raise EntryMismatchError(
                f"checkpoint leaf {key!r} has shape {stored.shape}, expected {arr.shape}"
            )
        arr[...] = stored
    return cfg, params
