"""Power-law fragment daughter distribution with closed-form partial moments.

The per-parent density is (nu+2) s^nu x^(-nu-1) on 0 < s < x, with
nu in (-2, 0].  For nu <= -1 the fragment count per event diverges while
mass and k0-weighted moments stay finite; every operation here raises
``DivergentMomentError`` when asked for a genuinely divergent quantity.

The moment-order algebra is written here once: the order test
k + nu + 1 > 0 (``check_moment_order``), the power-sum coefficient
(1-k)/(k+nu+1) (``power_sum_change``) and the sub-x leak ratio
(nu+2)/(k+nu+1) x^(k-1) (``leak_ratio``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentMomentError, DomainError

__all__ = [
    "DaughterLaw",
    "beta_star",
    "partial_moment",
    "cell_mass_deposit",
    "e_constant",
    "check_moment_order",
    "power_sum_change",
    "leak_ratio",
    "upsilon_power",
]


@dataclass(frozen=True)
class DaughterLaw:
    """Exponent nu of the daughter density plus the moment index k0.

    k0 must satisfy max(0, |nu|-1) < k0 < 1 so that the k0-th fragment
    moment is finite.
    """

    nu: float
    k0: float

    def __post_init__(self):
        nu = float(self.nu)
        k0 = float(self.k0)
        if not -2.0 < nu <= 0.0:
            raise DomainError(f"nu={nu} outside the admissible range (-2, 0]", param="nu")
        lo = max(0.0, abs(nu) - 1.0)
        if not lo < k0 < 1.0:
            raise DomainError(
                f"k0={k0} outside ({lo}, 1); need k0 > |nu|-1 = {abs(nu) - 1.0} "
                "for a finite k0-th fragment moment",
                param="k0",
            )
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "k0", k0)

    @property
    def p_max(self) -> float:
        """Supremum of exponents p with a finite k0-weighted p-th power integral."""
        if self.nu == 0.0:
            return math.inf
        return (self.k0 + 1.0) / abs(self.nu)

    @property
    def e_k0(self) -> float:
        """e_constant(law, 1) + 1; bounds the power test-function functional."""
        return e_constant(self, 1.0) + 1.0


def beta_star(law: DaughterLaw, s: float, x: float):
    """Daughter density at fragment size s for a parent of size x."""
    if x <= 0.0:
        raise DomainError("parent size must be positive")
    if not 0.0 < s < x:
        return 0.0
    return (law.nu + 2.0) * s**law.nu * x ** (-law.nu - 1.0)


def _check_interval(x, a, b):
    if x <= 0.0:
        raise DomainError("parent size must be positive")
    if not 0.0 <= a <= b:
        raise DomainError(f"need 0 <= a <= b, got a={a}, b={b}")
    if b > x * (1.0 + 1e-12):
        raise DomainError(f"upper bound b={b} exceeds parent size x={x}")


def partial_moment(law: DaughterLaw, k: float, x: float, a: float, b: float) -> float:
    """Integral of s^k times the daughter density over (a, b), 0 <= a <= b <= x.

    Closed form (nu+2) x^(-nu-1) (b^(k+nu+1) - a^(k+nu+1)) / (k+nu+1).
    With a = 0 this requires k + nu + 1 > 0; otherwise the integral
    diverges at the origin and a ``DivergentMomentError`` is raised.
    """
    _check_interval(x, a, b)
    nu = law.nu
    q = k + nu + 1.0
    if a == 0.0 and q <= 0.0:
        raise DivergentMomentError(
            f"moment of order k={k} diverges at the origin for nu={nu} "
            f"(need k > |nu|-1)"
        )
    prefactor = (nu + 2.0) * x ** (-nu - 1.0)
    if q == 0.0:
        return prefactor * math.log(b / a)
    return prefactor * (b**q - a**q) / q


def cell_mass_deposit(law: DaughterLaw, x: float, a: float, b: float) -> float:
    """Fragment mass a parent of size x deposits into (a, b).

    Equals x^(-nu-1) (b^(nu+2) - a^(nu+2)); finite for every admissible nu,
    including a = 0, and sums to exactly x over a partition of (0, x).
    """
    _check_interval(x, a, b)
    nu = law.nu
    return x ** (-nu - 1.0) * (b ** (nu + 2.0) - a ** (nu + 2.0))


def e_constant(law: DaughterLaw, p: float) -> float:
    """Sharp constant E in  integral s^k0 beta*^p ds = E x^(k0+1-p).

    Equals (nu+2)^p / (k0 + p nu + 1) and is finite exactly for
    p < (k0+1)/|nu|, with k0 + (p nu + 1) grouped as in ``check_moment_order``.
    """
    if p < 1.0:
        raise DomainError(f"p={p} below 1")
    denom = law.k0 + (p * law.nu + 1.0)
    if denom <= 0.0:
        raise DivergentMomentError(
            f"E constant diverges for p={p} >= (k0+1)/|nu| = {law.p_max}"
        )
    return (law.nu + 2.0) ** p / denom


def check_moment_order(law: DaughterLaw, k: float) -> float:
    """k + nu + 1, refused unless positive: the k-th fragment moment diverges otherwise.

    Grouped as k + (nu + 1), exactly k - (|nu| - 1), so every k0 ``DaughterLaw`` admits passes.
    """
    q = k + (law.nu + 1.0)
    if q <= 0.0:
        raise DivergentMomentError(
            f"moment order k={k} diverges: need k > |nu|-1 = {abs(law.nu) - 1.0}", param="k"
        )
    return q


def power_sum_change(law: DaughterLaw, k: float) -> float:
    """(1-k)/(k+nu+1): fragments' k-th powers, (nu+2)/(k+nu+1) x^k, less the parent's x^k."""
    return (1.0 - k) / check_moment_order(law, k)


def leak_ratio(law: DaughterLaw, k: float, x: float) -> float:
    """(nu+2)/(k+nu+1) x^(k-1): k-th moment per unit of fragment mass below x, for any parent."""
    return (law.nu + 2.0) / check_moment_order(law, k) * x ** (k - 1.0)


def upsilon_power(law: DaughterLaw, k: float, x: float, y: float) -> float:
    """Net change of the k-th power sum per collision of sizes x and y.

    Returns (1-k)/(k+nu+1) (x^k + y^k): the fragment k-th moments of both
    parents minus the parents' own contributions.  Positive for k < 1,
    zero at k = 1 (mass conservation), negative for k > 1.
    """
    if x <= 0.0 or y <= 0.0:
        raise DomainError("collision partner sizes must be positive")
    return power_sum_change(law, k) * (x**k + y**k)
