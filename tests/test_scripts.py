"""The root calibration scripts run only as programs: importing one runs nothing."""

import importlib
import sys
from pathlib import Path

import pytest

from ifr import data, training

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["calib_caps", "calib_grid", "calib_grid2", "calib_grid3"])
def test_importing_a_calibration_script_generates_and_trains_nothing(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"import {name} ran a calibration")

    monkeypatch.setattr(data, "generate", refuse)
    monkeypatch.setattr(training, "train", refuse)
    monkeypatch.setattr(sys, "argv", ["pytest"])
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.delitem(sys.modules, name, raising=False)
    module = importlib.import_module(name)
    monkeypatch.delitem(sys.modules, name)
    assert callable(getattr(module, "main", None) or module.run)
