"""Explicit constants, time horizons, and regime classification.

Evaluates every computable constant of the moment estimates behind the
existence, uniqueness, and non-existence results: the c1/c2/c3 chain with
its blow-up horizon for sublinearly growing kernels, the Gronwall envelope
of the weighted distance between two solutions, and the per-order
non-existence time bounds whose infimum vanishes.

The k0-th moment obeys  dM/dt <= E1 [M_{k0+l1} M_{l2} + M_{k0+l2} M_{l1}]
with E1 = (nu+2)/(k0+nu+1), the sharp fragment-moment constant; the exact
power-law production rate is (E1 - 1) times the same bracket, so any
envelope must keep the E1 factor.  Interpolating the bracket against mass
and the (k0+1)-th moment gives  dM/dt <= 2 E1 c3 M^(1+q) with
q = (1-lambda)/(1-k0) when lambda < 1 (finite horizon T_k0), and a linear
inequality with a growing exponential envelope when lambda >= 1.

``initial_bounds`` is the single entry point from a problem to its report:
it takes the initial moments of a state on its grid and returns the regime,
the hypothesis checklist and the applicable existence or non-existence
constants.  ``collbreak bounds``, the run manifest and ``collbreak verify``
all go through it, and ``BoundsReport.entry`` is the report's one JSON form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .daughter import DaughterLaw, check_moment_order, e_constant
from .errors import DomainError, InputError
from .grid import SizeGrid, State, moment
from .kernel import KernelSpec

__all__ = [
    "Regime",
    "BoundsReport",
    "regime_report",
    "hypothesis_checklist",
    "initial_bounds",
    "existence_bounds",
    "nonexistence_bound",
    "gronwall_envelope",
]

_T1_GRID_SIZE = 64


class Regime(enum.Enum):
    GLOBAL_EXISTENCE = "GlobalExistence"
    LOCAL_EXISTENCE = "LocalExistence"
    NON_EXISTENCE = "NonExistence"
    UNCOVERED = "Uncovered"


def hypothesis_checklist(kernel: KernelSpec, law: DaughterLaw) -> list[dict]:
    """Each theorem hypothesis as (inequality, truth value, actual numbers)."""
    l1, l2 = kernel.lambda1, kernel.lambda2
    lam = kernel.homogeneity
    nu, k0 = law.nu, law.k0
    checks = [
        ("k0 <= lambda1", k0 <= l1, f"k0={k0}, lambda1={l1}"),
        ("lambda2 <= 1", l2 <= 1.0, f"lambda2={l2}"),
        ("lambda >= 2*k0", lam >= 2.0 * k0, f"lambda={lam}, 2*k0={2.0 * k0}"),
        ("lambda >= 1", lam >= 1.0, f"lambda={lam}"),
        ("lambda < 1", lam < 1.0, f"lambda={lam}"),
        ("lambda <= 2", lam <= 2.0, f"lambda={lam}"),
        ("nu in (-2, -1]", -2.0 < nu <= -1.0, f"nu={nu}"),
        (
            "lambda1 < |nu| - 1",
            l1 < abs(nu) - 1.0,
            f"lambda1={l1}, |nu|-1={abs(nu) - 1.0}",
        ),
    ]
    return [
        {"hypothesis": name, "holds": bool(ok), "values": values}
        for name, ok, values in checks
    ]


# The checklist hypotheses each theorem needs.  The three sets are pairwise
# disjoint: the existence classes split at homogeneity 1, and non-existence
# needs lambda1 < |nu|-1 < k0 (DaughterLaw keeps k0 > |nu|-1), incompatible
# with the existence hypothesis k0 <= lambda1.
_REQUIRED = {
    Regime.GLOBAL_EXISTENCE: ("k0 <= lambda1", "lambda2 <= 1", "lambda >= 1", "lambda <= 2"),
    Regime.LOCAL_EXISTENCE: ("k0 <= lambda1", "lambda2 <= 1", "lambda >= 2*k0", "lambda < 1"),
    Regime.NON_EXISTENCE: ("nu in (-2, -1]", "lambda1 < |nu| - 1", "lambda2 <= 1", "lambda < 1"),
}


def _exp(log_value: float) -> float:
    """exp(log_value), or inf where it overflows a double.

    Every constant is a product of powers of rho and the initial moments,
    evaluated as exp of one sum of their logarithms, so a factor that would
    overflow never meets one that would underflow (inf * 0 = nan).
    """
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _json_number(value):
    """A finite value as itself, any other as the string "inf", "-inf" or "nan".

    JSON has no non-finite numbers; a bound beyond double precision says
    only that it is larger than every double.
    """
    return value if math.isfinite(value) else str(float(value))


@dataclass
class BoundsReport:
    """Constants and horizons derived from one kernel/daughter/initial-data triple."""

    regime: Regime
    checklist: list = field(default_factory=list)
    e1: float | None = None  # fragment k0-moment constant E_{k0,1}
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    t_k0: float | None = None  # blow-up horizon of the sublinear envelope
    c1_of: object = None  # callable T -> C1(T)
    t1_of: object = None  # callable k -> per-order non-existence bound
    t1_table: np.ndarray | None = None  # columns: k, ell1, ell2, T1
    t1_bound: float | None = None
    t1_argmin: float | None = None

    def _constants(self) -> dict:
        out = {}
        for name in ("e1", "c1", "c2", "c3", "t_k0", "t1_bound", "t1_argmin"):
            value = getattr(self, name)
            if value is not None:
                out[name] = _json_number(value)
        if self.t1_table is not None:
            out["t1_table"] = [
                {"k": row[0], "ell1": row[1], "ell2": _json_number(row[2]), "T1": _json_number(row[3])}
                for row in self.t1_table
            ]
        return out

    def entry(self) -> dict:
        """Regime and checklist, with the constants under the theorem they bound.

        The constants go under "existence" or "nonexistence"; an Uncovered
        report carries neither.
        """
        out = {"regime": self.regime.value, "checklist": self.checklist}
        if self.c1 is not None:
            out["existence"] = self._constants()
        if self.t1_bound is not None:
            out["nonexistence"] = self._constants()
        return out


def regime_report(kernel: KernelSpec, law: DaughterLaw) -> BoundsReport:
    """A report holding only the checklist and the regime read from it.

    Its ``entry()`` is exactly {"regime", "checklist"}: physics alone,
    without initial data.
    """
    checklist = hypothesis_checklist(kernel, law)
    holding = {check["hypothesis"] for check in checklist if check["holds"]}
    regime = next((r for r, needs in _REQUIRED.items() if holding.issuperset(needs)), Regime.UNCOVERED)
    return BoundsReport(regime=regime, checklist=checklist)


def initial_bounds(kernel: KernelSpec, law: DaughterLaw, grid: SizeGrid, state: State) -> BoundsReport:
    """The bounds report of the problem started from ``state`` on ``grid``.

    Non-existence regimes get ``nonexistence_bound``; every other regime
    gets ``existence_bounds``, which leaves an Uncovered report bare.  The
    initial data must carry positive mass and moments.
    """
    moment_fn = lambda k: moment(grid, state, k)
    rho = moment_fn(1.0)
    if regime_report(kernel, law).regime is Regime.NON_EXISTENCE:
        return nonexistence_bound(kernel, law, rho, moment_fn)
    return existence_bounds(kernel, law, rho, moment_fn(law.k0), moment_fn(1.0 + law.k0))


def existence_bounds(
    kernel: KernelSpec, law: DaughterLaw, rho: float, m_k0_in: float, m_k0p1_in: float
) -> BoundsReport:
    """Constant chain of the small-size moment estimate.

    Given the initial mass rho and the initial k0 and (k0+1) moments,
    returns c1, c2, c3, the horizon T_k0 (infinite for homogeneity >= 1),
    and the envelope C1 as the callable ``c1_of``, a closed form in those
    constants and E1.
    Parameters outside the theorem's hypotheses yield an Uncovered report
    with no constants.
    """
    if min(rho, m_k0_in, m_k0p1_in) <= 0.0:
        raise DomainError("rho and initial moments must be positive")
    report = regime_report(kernel, law)
    if report.regime not in (Regime.GLOBAL_EXISTENCE, Regime.LOCAL_EXISTENCE):
        return report

    l1, l2 = kernel.lambda1, kernel.lambda2
    lam = kernel.homogeneity
    k0 = law.k0
    e1 = e_constant(law)
    log_rho, log_ratio = math.log(rho), math.log(m_k0p1_in / rho)

    def log_c(l: float) -> float:  # log c1 at l = lambda1, log c2 at l = lambda2
        # rho^((1-l)/k0) M^((k0+l-1)/k0) as rho (M/rho)^((k0+l-1)/k0): no large powers
        return max(l / (1.0 - k0) * log_rho, log_rho + (k0 + l - 1.0) / k0 * log_ratio)

    log_c1, log_c2 = log_c(l1), log_c(l2)
    log_c3 = max(
        log_c1 + (l2 - k0) / (1.0 - k0) * log_rho,
        log_c2 + (l1 - k0) / (1.0 - k0) * log_rho,
    )
    report.e1, report.c1, report.c2, report.c3 = e1, _exp(log_c1), _exp(log_c2), _exp(log_c3)

    if lam < 1.0:
        # with a = (1-lambda)/(1-k0):  C1(T)^(-a) = M_k0(0)^(-a) (1 - T/T_k0)
        a = (1.0 - lam) / (1.0 - k0)
        t_k0 = _exp(math.log((1.0 - k0) / (2.0 * (1.0 - lam) * e1)) - log_c3 - a * math.log(m_k0_in))

        def c1_of(t: float) -> float:
            if t >= t_k0:
                raise DomainError(f"T={t} at or beyond the horizon T_k0={t_k0}")
            return _exp(math.log(m_k0_in) - math.log1p(-t / t_k0) / a)

    else:
        t_k0 = math.inf
        rate = _exp(math.log(2.0 * e1 / (1.0 - k0)) + log_c3)

        def c1_of(t: float) -> float:
            # (1 + M_k0(0)) exp(rate T); at T = 0 even where the rate reads inf
            return _exp(math.log1p(m_k0_in) + (rate * t if t else 0.0))

    report.t_k0 = t_k0
    report.c1_of = c1_of
    return report


def nonexistence_bound(kernel: KernelSpec, law: DaughterLaw, rho: float, moment_fn) -> BoundsReport:
    """Per-order upper bounds on the lifetime of a mass-conserving solution.

    ``moment_fn(k)`` must return the k-th moment of the initial data.  For
    each k in a grid of orders the bound is

        T1(k) = (k+nu+1) M_k(0)^(ell1/(1-k)) / (|ell1(k)| ell2(k)),

    and T1 vanishes as k decreases to |nu|-1, which is the non-existence
    conclusion.  The grid has 64 points log-concentrated at that endpoint
    so the vanishing is visible in the emitted table.
    """
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    report = regime_report(kernel, law)
    if report.regime is not Regime.NON_EXISTENCE:
        return report

    l1, l2 = kernel.lambda1, kernel.lambda2
    nu, k0 = law.nu, law.k0
    lo = abs(nu) - 1.0
    log_rho, log_ratio = math.log(rho), math.log(moment_fn(1.0 + k0) / rho)

    def ell1(k: float) -> float:  # l1 - k + max(k + l2 - 1, 0), without its cancellation
        return max(kernel.homogeneity - 1.0, l1 - k)

    def log_min(k: float) -> float:  # log of ell2's smaller factor, written as in log_c
        return min(l2 / (1.0 - k) * log_rho, log_rho + (k + l2 - 1.0) / k0 * log_ratio)

    def ell2(k: float) -> float:
        return _exp((l1 - k) / (1.0 - k) * log_rho + log_min(k))

    def t1_of(k: float) -> float:
        if not lo < k < 1.0:
            raise DomainError(f"k={k} outside the admissible interval ({lo}, 1)")
        e1v = ell1(k)
        # M_k^(ell1/(1-k)) / rho^((l1-k)/(1-k)) with M_k = rho (M_k/rho), so the
        # power (l1-k)/(1-k) of rho, however large, cancels before rounding
        log_moment = (e1v - (l1 - k)) / (1.0 - k) * log_rho
        log_moment += e1v / (1.0 - k) * math.log(moment_fn(k) / rho)
        return _exp(math.log(check_moment_order(law, k) / abs(e1v)) - log_min(k) + log_moment)

    k_grid = lo + (1.0 - lo) * np.geomspace(1e-3, 0.999, _T1_GRID_SIZE)
    table = np.empty((k_grid.size, 4))
    for row, k in enumerate(k_grid):
        table[row] = (k, ell1(k), ell2(k), t1_of(k))
    idx = int(np.argmin(table[:, 3]))
    report.t1_of = t1_of
    report.t1_table = table
    report.t1_bound = float(table[idx, 3])
    report.t1_argmin = float(table[idx, 0])
    return report


def running_trapezoid(y, x):
    """Trapezoid integral of ``y`` over the mesh ``x`` from x[0] to each x[i].

    The same expression, in the same order, as
    ``scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)``, so the two
    agree bit for bit; a series of one point integrates to [0.0].
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def gronwall_envelope(law: DaughterLaw, times, m_k0_sum, m_high_sum, d0: float):
    """Upper envelope of the weighted distance between two solutions.

    ``m_k0_sum`` and ``m_high_sum`` are the k0-th and (1+k0+lambda2)-th
    moments of the *sum* of the two solutions, sampled on ``times``.
    Returns d0 * exp(12 E1 integral of their sum), by trapezoid quadrature,
    as ``_exp`` of log d0 plus the exponent: inf where it overflows, with no
    floating-point warning, and 0 throughout when d0 = 0.
    """
    times = np.asarray(times, dtype=float)
    a = np.asarray(m_k0_sum, dtype=float)
    b = np.asarray(m_high_sum, dtype=float)
    if not times.shape == a.shape == b.shape:
        raise InputError("moment series must share the time mesh")
    if times.ndim != 1 or times.size == 0:
        raise InputError(f"moment series must be non-empty and 1-D, got shape {times.shape}")
    if d0 == 0.0:
        return np.zeros_like(times)
    exponent = 12.0 * e_constant(law) * running_trapezoid(a + b, times)
    return np.array([_exp(math.log(d0) + value) for value in exponent])
