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

from .blocks import SHORTCUT_MODES, STRATEGIES, HeadConfig, HeadParams, count_parameters, init_head
from .data import EntryMismatchError, load_container, save_container
from .rng import CounterRng

_HINTS = typing.get_type_hints(HeadConfig)
# string and bool fields are stored as their index into the tuple of allowed
# values; an int field as itself, so it must read back as an exact integer
_CODES = {name: (False, True) for name, hint in _HINTS.items() if hint is bool}
_CODES.update(strategy=STRATEGIES, shortcut_mode=SHORTCUT_MODES)


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
        entry = tensors[key].reshape(-1)
        if entry.size != 1:
            raise EntryMismatchError(f"checkpoint entry {key!r} holds {entry.size} values, not 1")
        value, codes = float(entry[0]), _CODES.get(f.name)
        if codes or _HINTS[f.name] is int:
            if not (value.is_integer() and 0 <= value < (len(codes) if codes else np.inf)):
                raise EntryMismatchError(f"checkpoint entry {key!r} holds {value!r}")
            value = codes[int(value)] if codes else int(value)
        values[f.name] = value
    try:
        return HeadConfig(**values)
    except ValueError as exc:
        raise EntryMismatchError(f"checkpoint head config: {exc}") from exc


def save_checkpoint(path, cfg: HeadConfig, params: HeadParams) -> None:
    tensors = _config_tensors(cfg)
    for name, arr in params.leaf_items():
        tensors[f"param/{name}"] = arr
    save_container(path, tensors)


def load_checkpoint(path) -> tuple[HeadConfig, HeadParams]:
    """The head a checkpoint describes; an entry that is neither a HeadConfig
    field nor a leaf of that head is an EntryMismatchError, and so is a config
    whose head needs more values than the file stores, before it is built."""
    tensors = load_container(path)
    cfg = _read_config(tensors)
    needed = count_parameters(cfg)
    stored = sum(arr.size for key, arr in tensors.items() if key.startswith("param/"))
    if needed > stored:
        raise EntryMismatchError(
            f"checkpoint head config needs {needed} parameter values, the file stores {stored}"
        )
    params = init_head(CounterRng(0), cfg)
    known = {f"config/{f.name}" for f in dataclasses.fields(HeadConfig)}
    known.update(f"param/{name}" for name, _ in params.leaf_items())
    unknown = sorted(set(tensors) - known)
    if unknown:
        raise EntryMismatchError(f"checkpoint entries {unknown} do not belong to its head")
    for name, arr in params.leaf_items():
        key = f"param/{name}"
        if key not in tensors:
            raise EntryMismatchError(f"checkpoint missing parameter leaf {key!r}")
        stored = tensors[key]
        if stored.shape != arr.shape:
            raise EntryMismatchError(
                f"checkpoint leaf {key!r} has shape {stored.shape}, expected {arr.shape}"
            )
        if not np.all(np.isfinite(stored)):
            raise EntryMismatchError(f"checkpoint leaf {key!r} holds a non-finite value")
        arr[...] = stored
    return cfg, params
