"""Graceful degradation when numpy is unavailable or kernels are off.

The kernels are an optional accelerator that runs exactly when numpy
imports: without numpy every caller must stay on the scalar path (the
plan records ``kernels=off``), tests pin that path with
:func:`forced_kernel_mode`, and a process where numpy cannot even be
imported must still import ``repro.kernels`` and run discovery end to
end.
"""

from __future__ import annotations

import importlib
import sys
import warnings

import pytest

from repro.datagen import build_dataset
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.engine.plan import PlanWarning, plan_run
from repro.kernels import runtime
from repro.kernels.runtime import (
    default_kernel_mode,
    forced_kernel_mode,
    kernels_enabled,
)
from repro.perf import clear_caches
from repro.sharding import ShardedDetector, ShardedTable


class TestModeResolution:
    def test_off_is_always_off(self):
        with forced_kernel_mode("off"):
            assert kernels_enabled() is False
        assert default_kernel_mode() == "auto"

    def test_on_and_auto_track_numpy(self):
        assert kernels_enabled() is runtime.HAVE_NUMPY
        for mode in ("on", "auto"):
            with forced_kernel_mode(mode):
                assert kernels_enabled() is runtime.HAVE_NUMPY

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            with forced_kernel_mode("fast"):
                pass  # pragma: no cover


class TestNumpyAbsent:
    """Simulate a numpy-less process by flipping the runtime flag (every
    kernel call site resolves through :func:`kernels_enabled` at call
    time, so this is exactly the switch a real absence would flip)."""

    def test_on_degrades_to_scalar(self, monkeypatch):
        monkeypatch.setattr(runtime, "HAVE_NUMPY", False)
        assert kernels_enabled() is False
        with forced_kernel_mode("on"):
            assert kernels_enabled() is False

    def test_discovery_still_runs_identically(self, monkeypatch):
        table = build_dataset("zip_city_state", n_rows=60, seed=4).table
        config = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)
        clear_caches()
        with forced_kernel_mode("off"):
            expected = [
                p.describe()
                for p in PfdDiscoverer(config).discover_with_report(table).pfds
            ]
        monkeypatch.setattr(runtime, "HAVE_NUMPY", False)
        clear_caches()
        degraded = PfdDiscoverer(config).discover_with_report(table)
        assert [p.describe() for p in degraded.pfds] == expected

    def test_plan_auto_resolution_is_recorded(self):
        plan = plan_run("discovery", 100, DiscoveryConfig())
        resolved = "on" if runtime.HAVE_NUMPY else "off"
        assert plan.use_kernels == resolved
        assert f"kernels={resolved}" in plan.describe()
        with forced_kernel_mode("off"):
            plan = plan_run("discovery", 100, DiscoveryConfig())
        assert plan.use_kernels == "off"
        assert "kernels=off" in plan.describe()


class TestImportTimeFallback:
    def test_runtime_imports_without_numpy(self, monkeypatch):
        """Reload the runtime with numpy blocked: the import must
        degrade, not fail, and report kernels unavailable."""
        monkeypatch.delitem(sys.modules, "numpy", raising=False)
        monkeypatch.setitem(sys.modules, "numpy", None)
        try:
            importlib.reload(runtime)
            assert runtime.HAVE_NUMPY is False
            assert runtime.np is None
            assert runtime.kernels_enabled() is False
        finally:
            monkeypatch.undo()
            importlib.reload(runtime)
        assert runtime.HAVE_NUMPY is (sys.modules.get("numpy") is not None)


class TestShardedDetectorKnob:
    def test_detector_modes_agree(self):
        dataset = build_dataset("zip_city_state", n_rows=60, seed=9)
        config = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)
        pfds = PfdDiscoverer(config).discover(dataset.table)
        assert pfds, "fixture dataset should yield rules"
        reports = {}
        for mode in ("off", "on", "auto"):
            clear_caches()
            sharded = ShardedTable.from_table(dataset.table, 7)
            with forced_kernel_mode(mode):
                detector = ShardedDetector(sharded)
                reports[mode] = detector.detect_all(pfds).canonical_violations()
        assert reports["on"] == reports["off"]
        assert reports["auto"] == reports["off"]


def test_no_warning_when_auto_without_numpy(monkeypatch):
    """Missing numpy is a platform fact, not an overridden request: the
    plan records ``kernels=off`` without a warning."""
    monkeypatch.setattr(runtime, "HAVE_NUMPY", False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PlanWarning)
        plan = plan_run("discovery", 100, DiscoveryConfig())
    assert plan.use_kernels == "off"
