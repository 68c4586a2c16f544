"""Exception types shared across the package."""

from __future__ import annotations


class CollbreakError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CollbreakError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    ``param`` names the offending parameter, when there is one.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class DivergentMomentError(DomainError):
    """A requested integral or constant diverges for the given exponents.

    Raised instead of returning infinity so that callers must branch on the
    non-integrable regime explicitly.
    """


class ConfigError(CollbreakError, ValueError):
    """Invalid configuration file or parameter set."""

    def __init__(self, message, key=None, line=None):
        detail = message
        if key is not None:
            detail = f"{key}: {detail}"
        if line is not None:
            detail = f"line {line}: {detail}"
        super().__init__(detail)
        self.key = key
        self.line = line


class StiffnessError(CollbreakError):
    """Adaptive time step collapsed below its floor.

    Signals blow-up-like behaviour of the right-hand side; expected when a
    run is driven into the shattering regime.
    """

    def __init__(self, time, dt):
        super().__init__(f"time step underflow at t={time:.6g} (dt={dt:.3e})")
        self.time = time
        self.dt = dt


class ContractionError(CollbreakError):
    """Fixed-point iteration failed to converge within the iteration budget."""

    def __init__(self, residual, iterations):
        super().__init__(
            f"no contraction after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class InputError(CollbreakError, ValueError):
    """Inconsistent inputs handed to a diagnostic (mesh/grid/regime mismatch)."""
