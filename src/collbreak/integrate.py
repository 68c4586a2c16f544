"""Time integration: adaptive embedded RK(2,3) and a Picard fixed-point mode."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractionError, DomainError, StiffnessError
from .grid import State, moment
from .scheme import RhsWorkspace, rhs_arrays

__all__ = [
    "Tolerances",
    "RunOutput",
    "PicardResult",
    "step",
    "simulate",
    "run",
    "check_picard",
    "picard_solve",
]

# Negative contents beyond this fraction of the state scale force a step
# rejection; anything shallower is round-off and gets clipped to zero.
_NEG_FLOOR_FRACTION = 1e-14

_PICARD_PANELS = 64


@dataclass(frozen=True)
class Tolerances:
    """Step-control parameters of the embedded RK(2,3) integrator.

    The error estimate is measured in the weighted norm
    sum max(reps^k0, reps^(1+k0)) |e_i|, the same topology in which
    solutions of the continuous problem are separated.  Every field must be
    finite and non-negative, and the two tolerances must not both be zero.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    dt_floor: float = 0.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "dt_floor"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise DomainError(f"{name}={value} must be finite and non-negative", param=name)
        if self.rel_tol + self.abs_tol == 0.0:
            raise DomainError("rel_tol and abs_tol must not both be zero", param="rel_tol")


def step(
    workspace: RhsWorkspace,
    state: State,
    dt_target: float,
    tol: Tolerances,
    rates=None,
):
    """One accepted Bogacki-Shampine RK(2,3) step, first same as last (FSAL).

    ``rates`` is the right-hand side ``(d_contents, d_dust)`` at ``state``
    when the caller has it, normally the ``next_rates`` of the previous
    step; when None it is evaluated here, once, outside the rejection loop.
    Halves the step until the embedded error estimate passes and no content
    would land below -1e-14 times the state scale; accepted round-off
    negatives are clipped to zero with the created mass tracked in
    ``clip_mass``.  A rejection whose error estimate is NaN, or whose halved
    step no longer moves the time, raises ``StiffnessError``.

    Returns (new_state, dt_used, dt_next, next_rates).  ``next_rates`` is the
    last stage k4 = f(y3), which is the right-hand side at the new state, or
    None when clipping changed y3.  Handed back in, it makes an accepted
    step cost three right-hand sides and each rejected attempt three more.
    """
    if dt_target <= 0.0:
        raise DomainError(f"dt_target must be positive, got {dt_target}")
    weights = workspace.error_weights
    c = state.contents
    weighted = np.abs(c)
    neg_floor = _NEG_FLOOR_FRACTION * float(weighted.max(initial=0.0))
    weighted *= weights
    tol_value = tol.abs_tol + tol.rel_tol * float(weighted.sum())

    k1, d1 = rhs_arrays(workspace, c) if rates is None else rates
    dt = float(dt_target)
    while True:
        if tol.dt_floor > 0.0 and dt < tol.dt_floor:
            raise StiffnessError(state.time, dt)
        k2, d2 = rhs_arrays(workspace, c + (dt / 2.0) * k1)
        k3, d3 = rhs_arrays(workspace, c + (3.0 * dt / 4.0) * k2)
        y3 = c + dt * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
        k4, d4 = rhs_arrays(workspace, y3)
        # weights * |y3 - y2| for the embedded second-order solution y2,
        # y2 = c + dt*((7/24) k1 + (1/4) k2 + (1/3) k3 + (1/8) k4).
        err = (7.0 / 24.0) * k1
        err += (1.0 / 4.0) * k2
        err += (1.0 / 3.0) * k3
        err += (1.0 / 8.0) * k4
        err *= dt
        err += c
        err -= y3
        np.abs(err, out=err)
        err *= weights
        est = float(err.sum())
        low = float(y3.min(initial=0.0))
        if est <= tol_value and low >= -neg_floor:
            break
        dt /= 2.0
        if math.isnan(est) or state.time + dt == state.time:
            raise StiffnessError(state.time, dt)

    if est > 0.0:
        factor = min(5.0, max(0.2, 0.9 * (tol_value / est) ** (1.0 / 3.0)))
    else:
        factor = 5.0
    dt_next = dt * factor

    clipped = 0.0
    next_rates = (k4, d4)
    if low < 0.0:
        negative = y3 < 0.0
        clipped = float((workspace.grid.reps[negative] * -y3[negative]).sum())
        y3[negative] = 0.0
        next_rates = None
    new_state = State(
        contents=y3,
        dust_mass=state.dust_mass + dt * ((2.0 / 9.0) * d1 + (1.0 / 3.0) * d2 + (4.0 / 9.0) * d3),
        time=state.time + dt,
        clip_mass=state.clip_mass + clipped,
    )
    return new_state, dt, dt_next, next_rates


@dataclass
class RunOutput:
    """Snapshots of one integration plus everything needed to audit it."""

    grid: object
    kernel: object
    law: object
    times: np.ndarray
    states: list
    config: object = None

    @property
    def dust(self) -> np.ndarray:
        return np.array([s.dust_mass for s in self.states])

    @property
    def clip(self) -> np.ndarray:
        return np.array([s.clip_mass for s in self.states])

    @property
    def rho(self) -> float:
        return moment(self.grid, self.states[0], 1.0) + self.states[0].dust_mass

    def moments(self, k: float) -> np.ndarray:
        reps_k = self.grid.reps**k
        return np.array([float(np.sum(reps_k * s.contents)) for s in self.states])


def simulate(
    workspace: RhsWorkspace,
    state0: State,
    snapshot_times,
    tolerances: Tolerances | None = None,
) -> RunOutput:
    """Integrate from the first snapshot time to the last, recording snapshots.

    Snapshot times must be sorted and start at the initial state's time.
    Deterministic: the step sequence depends only on the inputs.  Each step
    hands its ``next_rates`` to the next, so a run costs one right-hand side
    to start, three per accepted step, three per rejected attempt and one
    after each step that clipped.
    """
    times = np.asarray(snapshot_times, dtype=float)
    if times.size < 1 or np.any(np.diff(times) <= 0.0):
        raise ConfigError("snapshot times must be strictly increasing")
    if abs(times[0] - state0.time) > 0.0:
        raise ConfigError(
            f"first snapshot time {times[0]} differs from state time {state0.time}"
        )
    tol = tolerances or Tolerances()
    t_end = float(times[-1])
    horizon = t_end - float(times[0])
    if tol.dt_floor == 0.0 and horizon > 0.0:
        tol = Tolerances(tol.rel_tol, tol.abs_tol, 1e-12 * horizon)

    state = state0.copy()
    snapshots = [state.copy()]
    dt_next = 1e-4 * horizon if horizon > 0.0 else 0.0
    rates = None
    for target in times[1:]:
        while state.time < target:
            remaining = float(target) - state.time
            clamp = remaining <= dt_next
            dt_target = remaining if clamp else dt_next
            state, dt_used, dt_next, rates = step(workspace, state, dt_target, tol, rates)
            if clamp and dt_used == dt_target:
                state.time = float(target)
        snapshots.append(state.copy())
    return RunOutput(
        grid=workspace.grid,
        kernel=workspace.kernel,
        law=workspace.law,
        times=times.copy(),
        states=snapshots,
    )


def run(config) -> RunOutput:
    """Build every component from a ``SimConfig`` and integrate it."""
    from . import config as config_mod

    workspace, state0 = config_mod.build_problem(config)
    tol = Tolerances(rel_tol=config.rel_tol, abs_tol=config.abs_tol)
    out = simulate(workspace, state0, config.snapshot_times, tol)
    out.config = config
    return out


@dataclass
class PicardResult:
    """Fixed point returned by ``picard_solve`` plus its convergence history."""

    state: State
    diffs: list
    iterations: int


def check_picard(max_iter: int, tol: float) -> None:
    """Refuse Picard settings ``picard_solve`` cannot use."""
    if max_iter < 1:
        raise DomainError(f"need max_iter >= 1, got {max_iter}", param="max_iter")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol={tol} must be finite and positive", param="tol")


def picard_solve(
    workspace: RhsWorkspace,
    state0: State,
    t_end: float,
    max_iter: int = 40,
    tol: float = 1e-10,
) -> PicardResult:
    """Fixed-point iteration u <- u0 + integral of the truncated dynamics.

    The time integral is a composite trapezoid rule on a fixed uniform mesh
    of 64 panels per call; iteration stops when successive trajectories
    differ by at most ``tol`` in the norm ||.||_k0 + ||.||_1.  The horizon
    must be short enough for contraction; callers split longer intervals
    into chained calls.
    """
    if workspace.kernel.truncation is None:
        raise ConfigError("picard mode requires a kernel with a truncation index")
    if t_end < 0.0:
        raise DomainError(f"t_end must be non-negative, got {t_end}")
    check_picard(max_iter, tol)
    if t_end == 0.0:
        return PicardResult(state0.copy(), [], 0)

    grid = workspace.grid
    norm_weights = grid.reps**workspace.law.k0 + grid.reps
    mesh = np.linspace(0.0, t_end, _PICARD_PANELS + 1)
    h = mesh[1] - mesh[0]
    m = mesh.size
    c0 = state0.contents

    traj = np.tile(c0, (m, 1))
    diffs = []
    for iteration in range(1, max_iter + 1):
        derivs = np.empty_like(traj)
        for node in range(m):
            derivs[node], _ = rhs_arrays(workspace, traj[node])
        new_traj = np.empty_like(traj)
        new_traj[0] = c0
        new_traj[1:] = c0 + np.cumsum((h / 2.0) * (derivs[:-1] + derivs[1:]), axis=0)
        diff = float(np.max(np.sum(norm_weights * np.abs(new_traj - traj), axis=1)))
        diffs.append(diff)
        traj = new_traj
        if not np.isfinite(diff):
            raise ContractionError(diff, iteration)
        if diff <= tol:
            dust_rates = np.empty(m)
            for node in range(m):
                _, dust_rates[node] = rhs_arrays(workspace, traj[node])
            dust = state0.dust_mass + float(
                np.sum((h / 2.0) * (dust_rates[:-1] + dust_rates[1:]))
            )
            final = State(
                contents=traj[-1].copy(),
                dust_mass=dust,
                time=state0.time + t_end,
                clip_mass=state0.clip_mass,
            )
            return PicardResult(final, diffs, iteration)
    raise ContractionError(diffs[-1], max_iter)
