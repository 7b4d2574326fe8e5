"""Telemetry test fixtures: never leak a live registry across tests."""

from __future__ import annotations

import pytest

from repro.obs.metrics import NULL_REGISTRY, disable_telemetry, get_registry


@pytest.fixture(autouse=True)
def _reset_telemetry():
    """Guarantee each test starts and ends with telemetry disabled."""
    disable_telemetry()
    yield
    disable_telemetry()
    assert get_registry() is NULL_REGISTRY
