import pytest

from nmrteleport import circuits


@pytest.fixture
def fresh_delay_noise():
    """An empty delay-noise cache at the start of the test, and again at its end."""
    circuits._spin_relaxation.cache_clear()
    yield
    circuits._spin_relaxation.cache_clear()


@pytest.fixture
def uncached_delay_noise(monkeypatch):
    """Delay noise built afresh by every circuit of the test, for tests that patch
    ``relaxation_channels``: no sweep can reuse channels built before a patch,
    and none of the patched ones are left in the cache for a later test."""
    monkeypatch.setattr(circuits, "_spin_relaxation", circuits._spin_relaxation.__wrapped__)
