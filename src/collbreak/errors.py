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
        self.reason = message
        self.key = key
        self.line = line


class StiffnessError(CollbreakError):
    """Adaptive time step collapsed at ``time``: ``reason`` says why ``dt`` failed.

    One of three reasons: the rates are not finite ("non-finite error
    estimate"), halving ``dt`` no longer moves the time, or the run used up
    ``integrate.MAX_STEPS`` accepted steps before its last time.  Signals
    blow-up-like behaviour of the right-hand side; expected when a run is
    driven past what explicit steps in double precision can resolve.
    """

    def __init__(self, time, dt, reason):
        super().__init__(f"time step collapse at t={time:.6g} (dt={dt:.3e}): {reason}")
        self.time = time
        self.dt = dt
        self.reason = reason


class ContractionError(CollbreakError):
    """Fixed-point iteration failed to converge within the iteration budget."""

    def __init__(self, residual, iterations):
        super().__init__(f"no contraction after {iterations} iterations (residual {residual:.3e})")
        self.residual = residual
        self.iterations = iterations


class InputError(CollbreakError, ValueError):
    """Inconsistent inputs handed to a diagnostic (mesh/grid/regime mismatch)."""
