"""Power-law fragment daughter law and the closed forms of its moments.

The per-parent density is (nu+2) s^nu x^(-nu-1) on 0 < s < x, with
nu in (-2, 0].  For nu <= -1 the fragment count per event diverges while
mass and k0-weighted moments stay finite; every closed form here raises
``DivergentMomentError`` when asked for a genuinely divergent moment.

The module holds ``DaughterLaw`` and the moment-order algebra, written
once: the order test k + nu + 1 > 0 (``check_moment_order``), the sharp
constant E = (nu+2)/(k0+nu+1) (``e_constant``), the power-sum coefficient
(1-k)/(k+nu+1) (``power_sum_change``) and the sub-x leak ratio
(nu+2)/(k+nu+1) x^(k-1) (``leak_ratio``).  The scheme's deposits are
factored from the same density in ``scheme.precompute``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivergentMomentError, DomainError

__all__ = [
    "DaughterLaw",
    "e_constant",
    "check_moment_order",
    "power_sum_change",
    "leak_ratio",
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


def e_constant(law: DaughterLaw) -> float:
    """Sharp constant E in  integral s^k0 beta*(s, x) ds = E x^k0:  (nu+2)/(k0+nu+1)."""
    return (law.nu + 2.0) / check_moment_order(law, law.k0)


def power_sum_change(law: DaughterLaw, k: float) -> float:
    """(1-k)/(k+nu+1): fragments' k-th powers, (nu+2)/(k+nu+1) x^k, less the parent's x^k."""
    return (1.0 - k) / check_moment_order(law, k)


def leak_ratio(law: DaughterLaw, k: float, x: float) -> float:
    """(nu+2)/(k+nu+1) x^(k-1): k-th moment per unit of fragment mass below x, for any parent."""
    return (law.nu + 2.0) / check_moment_order(law, k) * x ** (k - 1.0)
