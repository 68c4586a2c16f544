"""Theorem-level runtime checks on simulation output, and the studies that make their runs.

The checks work from a run's snapshot/moment series only (time derivatives
by central differences on the snapshot mesh), so they test the output
contract rather than integrator internals.  ``shattering_study`` and
``crossval`` take a configuration instead and run it: one RK run per
x_min cut, and Picard windows against one RK run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .config import _cited, build_problem, run as run_config, with_x_min
from .daughter import leak_ratio, power_sum_change
from .errors import ConfigError, InputError
from .grid import SizeGrid, State, weight_vector
from .integrate import MASS_BUDGET, RunOutput, Tolerances, _require_truncation, picard_solve, row_blocks, simulate

__all__ = [
    "weighted_distance",
    "c1_bound_check",
    "nonexistence_growth_check",
    "ShatterStudy",
    "shattering_study",
    "mass_budget_check",
    "budget_excess",
    "tail_monotonicity_check",
    "run_verification",
    "crossval",
]

# dust fraction must drop at least this factor per decade of x_min for a
# run to be called conservative; power-law leakage gives ~10^(nu+2) per
# decade, far above, while the shattering limit gives ~1.
_DECADE_FACTOR = 2.0

# Tails never grow in the continuum, nor in a run beyond round-off: this
# allowance, 1e-8 rho x^(k-1) per edge, is fixed and not tied to time.rel_tol.
_TAIL_TOL = 1e-8
# Trapezoid quadrature on the snapshot mesh is the growth check's only error.
_GROWTH_TOL = 0.01


def weighted_distance(state_a: State, state_b: State, grid: SizeGrid, k0: float):
    """Distance sum max(reps^k0, reps^(1+k0)) |a_i - b_i| between two states.

    Given two states, one float64; given two runs on one snapshot mesh, one
    distance per snapshot, an array.  The rows of the ``contents`` go through
    ``row_blocks``: difference, magnitude and weight in the block's scratch,
    then one row-by-row reduction, so the pass holds O(n_cells + block)
    beyond its inputs and each distance is bitwise that of its row alone.
    """
    a, b = state_a.contents, state_b.contents
    if a.shape[-1:] != (grid.n_cells,) or b.shape != a.shape:
        raise InputError("states do not live on the given grid")
    weights = weight_vector(grid, k0)
    a, b = a.reshape(-1, grid.n_cells), b.reshape(-1, grid.n_cells)
    distances = np.empty(a.shape[0])
    for rows, block in row_blocks(*a.shape):
        np.subtract(a[rows], b[rows], out=block)
        np.abs(block, out=block)
        np.multiply(weights, block, out=block)
        np.add.reduce(block, axis=1, out=distances[rows])
    return distances.reshape(state_a.contents.shape[:-1])[()]


def _leak_rate(run: RunOutput, k: float) -> np.ndarray:
    """k-th moment flux below the grid: the dust series' rate times ``leak_ratio``."""
    if run.times.size < 2:
        raise InputError("need at least two snapshots for time differencing")
    return np.gradient(run.dust, run.times) * leak_ratio(run.law, k, run.grid.x_min)


def c1_bound_check(run: RunOutput, report, t_horizon: float):
    """Whether max M_k0(t) over t <= t_horizon stays below C1(t_horizon).

    Returns (passed, margin) with margin = C1 - max M_k0.  The horizon must
    precede the blow-up time of the envelope when that time is finite.
    """
    if report.c1_of is None:
        raise InputError(f"regime {report.regime.value} has no small-size envelope")
    if report.t_k0 is not None and math.isfinite(report.t_k0) and t_horizon >= report.t_k0:
        raise InputError(
            f"horizon T={t_horizon} at or beyond the envelope blow-up T_k0={report.t_k0}"
        )
    mask = run.times <= t_horizon * (1.0 + 1e-12)
    if not np.any(mask):
        raise InputError("no snapshots at or before the requested horizon")
    peak = float(np.max(run.moments(run.law.k0)[mask]))
    limit = report.c1_of(t_horizon)
    return peak <= limit, limit - peak


def nonexistence_growth_check(run: RunOutput, k: float) -> bool:
    """Integral growth inequality of the non-existence argument, on the run.

    Verifies   M_k(t) >= M_k(0) + (1-k)/(k+nu+1) int M_{k+l2} M_{l1} dtau
    with the grid's sub-x_min moment flux added back on the left, up to 1%
    of the running scale.  Orders k <= |nu| - 1 raise
    ``DivergentMomentError``.
    """
    regime = bounds_mod.regime_report(run.kernel, run.law).regime
    if regime is not bounds_mod.Regime.NON_EXISTENCE:
        raise InputError(f"regime {regime.value} is outside the non-existence theorem")
    # k = 1 is allowed as the degenerate boundary case with zero production
    if k > 1.0:
        raise InputError(f"k={k} above 1, outside the non-existence theorem")
    coeff = power_sum_change(run.law, k)
    l1, l2 = run.kernel.lambda1, run.kernel.lambda2
    times = run.times
    m_k = run.moments(k)
    lhs = m_k + bounds_mod.running_trapezoid(_leak_rate(run, k), times)
    production = bounds_mod.running_trapezoid(run.moments(k + l2) * run.moments(l1), times)
    rhs = m_k[0] + coeff * production
    tolerance = _GROWTH_TOL * (abs(m_k[0]) + np.abs(coeff) * production + 1e-300)
    return bool(np.all(lhs >= rhs - tolerance))


@dataclass
class ShatterStudy:
    """Dust fraction versus grid cutoff, with the fitted trend and verdict."""

    t_obs: float
    rows: list  # (x_min, dust_fraction, mass_drift from mass_budget_check)
    slope: float  # d ln(fraction) / d ln(x_min)
    per_decade_factor: float
    verdict: str  # "shattering" or "conservative"
    over_budget: str | None  # the first cut beyond the mass budget, as its x_min and budget_excess line

    def to_dict(self) -> dict:
        return {
            "t_obs": self.t_obs,
            "rows": [{"x_min": x, "dust_fraction": f, "mass_drift": d} for x, f, d in self.rows],
            "slope": self.slope,
            "per_decade_factor": self.per_decade_factor,
            "verdict": self.verdict,
        }


def shattering_study(config, x_mins) -> ShatterStudy:
    """Refinement sweep of the grid cutoff at otherwise fixed physics.

    Runs the configuration once per distinct ``x_min`` (cells per decade held
    constant), records dust(t_end)/rho, and fits the power-law trend.  A
    dust fraction falling at least 2x per decade of x_min is the signature
    of an integrable cascade ("conservative"); failure to do so is the
    shattering signature.  Every cut's config is made, and so checked by
    ``with_x_min``, before the first run: a cut it refuses raises
    ``ConfigError`` under the key ``x_mins``.  A run that ends with no dust,
    which has no trend to fit, is refused with ``InputError``.
    """
    try:
        cuts = {x_min: with_x_min(config, x_min) for x_min in map(float, x_mins)}
    except ConfigError as exc:
        raise ConfigError(exc.reason, key="x_mins") from None
    x_mins = sorted(cuts, reverse=True)
    if len(x_mins) < 3:
        raise InputError("need at least 3 distinct x_min values for a refinement trend")
    rows, over_budget = [], None
    for x_min in x_mins:
        out = run_config(cuts[x_min])
        frac = float(out.dust[-1] / out.rho)
        if not frac > 0.0:
            raise InputError(f"dust fraction {frac:g} at x_min={x_min:g} leaves no trend to fit")
        ok, drift = mass_budget_check(out)
        if not ok and over_budget is None:
            over_budget = f"x_min={x_min:g}: {budget_excess(drift, out.rho)}"
        rows.append((x_min, frac, drift))
    xs = np.log([r[0] for r in rows])
    fs = np.log([r[1] for r in rows])
    slope = float(np.polyfit(xs, fs, 1)[0])
    per_decade = 10.0**slope
    verdict = "conservative" if per_decade >= _DECADE_FACTOR else "shattering"
    return ShatterStudy(float(config.t_end), rows, slope, per_decade, verdict, over_budget)


def mass_budget_check(run: RunOutput):
    """Max drift of M_1(grid) + dust from the initial mass, against ``MASS_BUDGET`` rho."""
    total = run.moments(1.0) + run.dust
    drift = float(np.max(np.abs(total - run.rho)))
    return drift <= MASS_BUDGET * run.rho, drift


def budget_excess(drift: float, rho: float) -> str:
    """The one line that reports a ``mass_budget_check`` drift beyond the budget of mass ``rho``."""
    budget = f"{MASS_BUDGET:g} rho = {MASS_BUDGET * rho:.3e}"
    return f"max |M_1 + dust - rho| = {drift:.3e}, beyond the mass budget {budget}"


def tail_monotonicity_check(run: RunOutput, k: float):
    """Tails sum_{reps >= x} reps^k contents nonincreasing in t at every edge.

    Tolerance scales as 1e-8 rho x^(k-1) per edge, capped at 1e-8 rho at
    x_min, where the tail is M_k itself, so M_k may grow by no more than
    1e-8 rho on any grid.  Returns
    (passed, worst_violation) with the violation measured in units of the
    local tolerance.  Each ``row_blocks`` block of snapshots gets its tails
    by one reversed cumsum per row in the block's scratch, less a saved copy
    of snapshot 0's tails, so the check holds O(n_cells + block) beyond the
    record; the verdict is bitwise that of the whole tail table.
    """
    grid = run.grid
    reps_k = grid.reps**k
    allowance = _TAIL_TOL * run.rho * grid.edges ** (k - 1.0)
    allowance[0] = min(allowance[0], _TAIL_TOL * run.rho)
    worst = -math.inf
    for rows, tails in row_blocks(run.times.size, grid.n_cells + 1):
        tails[:, -1] = 0.0  # the tail above x_max
        np.multiply(run.contents[rows], reps_k, out=tails[:, :-1])
        np.cumsum(tails[:, -2::-1], axis=1, out=tails[:, -2::-1])
        if rows.start == 0:
            first = tails[0].copy()
        tails -= first
        tails /= allowance
        # np.maximum keeps a NaN, as the maximum of the whole table does
        worst = np.maximum(worst, np.max(tails))
    worst = float(worst)
    return worst <= 1.0, worst


def run_verification(run: RunOutput) -> list[dict]:
    """Battery of applicable checks for a finished run; one verdict each.

    Each check tests its own fact: the mass budget, tails that never grow
    at k = 1 and 1 + k0 (M_(1+k0) is the k = 1 + k0 tail at x_min), the
    small-size envelope (passed as "not reached" when no snapshot after
    t = 0 lies in its horizon) and, on two or more snapshots, the
    non-existence growth inequality.  No check on dM_1/dt is needed: clips
    only add mass and every RHS keeps M_1 + dust to round-off, so M_1 +
    dust - rho lies in [0, drift] up to round-off; ``np.gradient`` of a
    series in [0, d] stays below d / min_dt on any snapshot mesh; and a
    drift within the 1e-6 rho budget keeps that below 1e-6 rho
    max(1, 1/min_dt).
    """
    k0 = run.law.k0
    results = []

    def verdict(check: str, passed, detail: str) -> None:
        results.append({"check": check, "passed": bool(passed), "detail": detail})

    ok, drift = mass_budget_check(run)
    verdict("mass-budget", ok, f"max |M_1 + dust - rho| = {drift:.3e} (rho = {run.rho:.6g})")

    for k in (1.0, 1.0 + k0):
        ok, worst = tail_monotonicity_check(run, k)
        verdict(f"tail-monotone-k={k:g}", ok, f"worst tail excess {worst:.3e} tolerance units")

    report = bounds_mod.initial_bounds(run.kernel, run.law, run.grid, run.state(0))
    if report.c1 is not None:
        horizon = float(run.times[-1])
        if math.isfinite(report.t_k0):
            horizon = min(horizon, 0.9 * report.t_k0)
        ok, margin = c1_bound_check(run, report, horizon)
        detail = f"M_k0 margin {margin:.4g} below C1(T) at T={horizon:.4g}"
        if not np.any(run.times[1:] <= horizon * (1.0 + 1e-12)):  # t = 0 alone lies within it
            ok, detail = True, f"not reached: no snapshot in (0, T={horizon:.4g}]"
        verdict("small-size-envelope", ok, detail)
    if report.regime is bounds_mod.Regime.NON_EXISTENCE and run.times.size >= 2:
        ok = nonexistence_growth_check(run, k0)
        verdict("nonexistence-growth", ok, f"integral growth inequality at k = k0 = {k0:g}")
    return results


def crossval(config) -> list[dict]:
    """Chained Picard windows against one RK run, over the config's snapshot mesh.

    A ``picard_solve`` window per snapshot interval, at ``picard_max_iter``
    and ``picard_tol``, then a ``simulate`` at ``rel_tol`` and ``abs_tol``;
    a row per window: its end ``t``, ``iterations`` and ``weighted_distance``
    at k0 to RK.  An untruncated kernel is refused first, under its key
    ``kernel.truncation_n``, whatever the horizon, zero included.
    """
    with _cited():
        _require_truncation(config.kernel)
    workspace, state0 = build_problem(config)
    times, windows = config.snapshot_times, []
    for start, end in zip(times, times[1:]):
        state = windows[-1].state if windows else state0
        windows.append(picard_solve(workspace, state, end - start, config.picard_max_iter, config.picard_tol))
    reference = simulate(workspace, state0, times, Tolerances(config.rel_tol, config.abs_tol))
    grid, k0 = workspace.grid, config.law.k0
    return [
        {"t": t, "distance": float(weighted_distance(w.state, ref, grid, k0)), "iterations": w.iterations}
        for t, w, ref in zip(times[1:], windows, reference.states[1:])
    ]
