"""Tests for repro.sim.probe: the one pointer, the slots and adoption."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import check, sanitize
from repro.obs.flight import obs_enabled
from repro.perf.counters import perf_enabled
from repro.perf.profiler import profile_enabled
from repro.sim import probe
from repro.sim.engine import Simulator

SRC = Path(__file__).resolve().parent.parent / "src"


def _sanitize_on_at_import() -> bool:
    """``REPRO_SANITIZE`` is read once, when the sanitizer is imported."""
    code = "from repro.analysis import sanitize; print(sanitize.enabled())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


READERS = {
    sanitize.ENV_VAR: _sanitize_on_at_import,
    check.ENV_VAR: check.check_enabled,
    "REPRO_PERF": perf_enabled,
    "REPRO_OBS": obs_enabled,
    "REPRO_PROFILE": profile_enabled,
}


class TestEnvFlag:
    @pytest.mark.parametrize("name", sorted(READERS))
    @pytest.mark.parametrize(
        "value,on", [("", False), ("0", False), (" 0 ", False), ("false", False), ("1", True)]
    )
    def test_every_tool_flag_parses_alike(self, monkeypatch, name, value, on):
        monkeypatch.setenv(name, value)
        assert READERS[name]() is on

    @pytest.mark.parametrize("value", ["NO", "False", " no "])
    def test_case_and_space_insensitive(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PERF", value)
        assert not probe.env_flag("REPRO_PERF")


class _Window:
    def __init__(self):
        self.adopted = []

    def adopt(self, kind, obj):
        self.adopted.append((kind, obj))


class TestSlots:
    def test_pointer_follows_per_event_slots_only(self):
        before = probe.PROBE
        with probe.window("perf", _Window()), probe.window("flight", _Window()):
            assert (probe.PROBE is None) is (before is None)
        marker = object()
        with probe.window("log", marker):
            assert probe.PROBE is not None
            assert probe.PROBE.log is marker
        assert (probe.PROBE is None) is (before is None)

    def test_window_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with probe.window("log", object()):
                raise RuntimeError("boom")
        assert probe.installed("log") is None

    def test_unknown_slot_rejected(self):
        with pytest.raises(KeyError):
            probe.install("shadow", object())

    def test_adopt_fans_out_to_every_open_window(self):
        perf, flight = _Window(), _Window()
        with probe.window("perf", perf), probe.window("flight", flight):
            sim = Simulator()
        assert perf.adopted == [("sim", sim)]
        assert flight.adopted == [("sim", sim)]
        Simulator()  # built after both windows closed
        assert len(perf.adopted) == 1
