"""Exception types shared across the package."""

from __future__ import annotations


class NumericalInvariantError(Exception):
    """A computed quantity violated a physicality or consistency bound.

    Where it is known, a violation says where it happened: ``index`` is the
    position of the failing matrix in a checked stack's leading axes, and
    ``step`` and ``event`` are the circuit step that produced it.
    """

    index: tuple[int, ...] = ()
    step: int | None = None
    event = None


class UnsupportedGateError(ValueError):
    """The gate cannot be realized as an rf-pulse / J-coupling schedule."""


class RfAngleError(UnsupportedGateError):
    """An rf miscalibration scales a pulse angle beyond the finite floats."""


class FitConvergenceError(NumericalInvariantError):
    """Decay curve fit did not converge; carries the best parameters found."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(ValueError):
    """User-supplied configuration is malformed or inconsistent."""
