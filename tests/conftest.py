"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocks.oscillator import HardwareClock
from repro.core.backend import ModeledCryptoBackend
from repro.core.config import SstspConfig
from repro.crypto.mutesla import IntervalSchedule
from repro.sim.rng import RngRegistry


@pytest.fixture(autouse=True)
def isolated_results(tmp_path_factory, monkeypatch) -> None:
    """Send every test's CSVs, run logs and sweep cache to a fresh
    temporary directory, so no test reads or writes the repo's own
    ``results/`` (a warm cache there would turn a CLI test into a cache
    hit that never runs the job code)."""
    root = tmp_path_factory.mktemp("results")
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(root))
    monkeypatch.setenv("SSTSP_SWEEP_CACHE", str(root / "sweep-cache"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def sstsp_config() -> SstspConfig:
    return SstspConfig()


@pytest.fixture
def schedule(sstsp_config) -> IntervalSchedule:
    return IntervalSchedule(
        t0_us=sstsp_config.t0_us,
        interval_us=sstsp_config.beacon_period_us,
        length=512,
    )


@pytest.fixture
def modeled_backend(schedule) -> ModeledCryptoBackend:
    return ModeledCryptoBackend(schedule)


def make_clock(ppm: float = 0.0, offset_us: float = 0.0) -> HardwareClock:
    """A hardware clock with the given skew in ppm."""
    return HardwareClock(rate=1.0 + ppm * 1e-6, initial_offset=offset_us)
