"""Homogeneous two-exponent collision kernel and its truncated variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["KernelSpec", "kernel_factors"]

_EXPONENT_RANGE = (-2.0, 2.0)


@dataclass(frozen=True)
class KernelSpec:
    """Collision kernel x^l1 y^l2 + x^l2 y^l1, optionally cut outside (1/n, n)^2.

    Exponents are stored in canonical order lambda1 <= lambda2; a reversed
    pair is swapped on construction.  Both exponents must lie in [-2, 2].
    """

    lambda1: float
    lambda2: float
    truncation: int | None = None

    def __post_init__(self):
        l1 = float(self.lambda1)
        l2 = float(self.lambda2)
        lo, hi = _EXPONENT_RANGE
        # checked under the names they were given, before canonical ordering
        for name, val in (("lambda1", l1), ("lambda2", l2)):
            if not lo <= val <= hi:
                raise DomainError(f"{name}={val} outside [{lo}, {hi}]", param=name)
        if self.truncation is not None:
            n = int(self.truncation)
            if n < 1:
                raise DomainError(f"truncation index must be >= 1, got {n}", param="truncation")
            object.__setattr__(self, "truncation", n)
        object.__setattr__(self, "lambda1", min(l1, l2))
        object.__setattr__(self, "lambda2", max(l1, l2))

    @property
    def homogeneity(self) -> float:
        return self.lambda1 + self.lambda2


def kernel_factors(spec: KernelSpec, sizes):
    """Rank-2 factors (a1, a2) with Phi(x, y) = a1(x) a2(y) + a2(x) a1(y).

    a_k = x**lambda_k, numpy's power, times the indicator of (1/n, n) when
    the kernel is truncated, so a truncated kernel keeps the same rank.
    When lambda1 = lambda2 both factors are one array, truncated or not, so
    ``a1 is a2`` marks a rank-1 kernel.  Non-positive sizes are rejected.
    """
    x = np.asarray(sizes, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("kernel arguments must be positive sizes")
    factors = [x**spec.lambda1] + ([] if spec.lambda2 == spec.lambda1 else [x**spec.lambda2])
    if spec.truncation is not None:
        inside = (x > 1.0 / spec.truncation) & (x < spec.truncation)
        factors = [a * inside for a in factors]
    return factors[0], factors[-1]
