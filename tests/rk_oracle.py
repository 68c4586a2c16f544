"""Slow reference for the FSAL integrator: the four-stage step it replaced.

Every attempt evaluates all four Bogacki-Shampine stages on the augmented
vector [contents, dust], rebuilds the error weights and recomputes k1 after
each rejection, the way the integrator was first written.  Its arithmetic on
every value that reaches a state or the error estimate is the same as
``integrate.step``'s, so the two must agree bit for bit.  RHS calls go to
``scheme.rhs_arrays`` directly, so a counter on ``integrate.rhs_arrays``
does not see them.
"""

import numpy as np

from collbreak import DomainError, State, StiffnessError, Tolerances
from collbreak.grid import weight_vector
from collbreak.scheme import rhs_arrays

NEG_FLOOR_FRACTION = 1e-14


def _augment(state):
    return np.concatenate([state.contents, [state.dust_mass]])


def _f(workspace, y):
    d_contents, d_dust = rhs_arrays(workspace, y[:-1])
    return np.concatenate([d_contents, [d_dust]])


def oracle_step(workspace, state, dt_target, tol):
    """One accepted four-stage step; returns (new_state, dt_used, dt_next)."""
    if dt_target <= 0.0:
        raise DomainError(f"dt_target must be positive, got {dt_target}")
    grid = workspace.grid
    weights = weight_vector(grid, workspace.law.k0)
    y = _augment(state)
    scale = float(np.max(np.abs(y[:-1]), initial=0.0))
    neg_floor = NEG_FLOOR_FRACTION * scale
    tol_value = tol.abs_tol + tol.rel_tol * float(np.sum(weights * np.abs(y[:-1])))

    dt = float(dt_target)
    while True:
        if tol.dt_floor > 0.0 and dt < tol.dt_floor:
            raise StiffnessError(state.time, dt)
        k1 = _f(workspace, y)
        k2 = _f(workspace, y + (dt / 2.0) * k1)
        k3 = _f(workspace, y + (3.0 * dt / 4.0) * k2)
        y3 = y + dt * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
        k4 = _f(workspace, y3)
        y2 = y + dt * (
            (7.0 / 24.0) * k1 + (1.0 / 4.0) * k2 + (1.0 / 3.0) * k3 + (1.0 / 8.0) * k4
        )
        est = float(np.sum(weights * np.abs(y3[:-1] - y2[:-1])))
        if est <= tol_value and float(np.min(y3[:-1], initial=0.0)) >= -neg_floor:
            break
        dt /= 2.0

    if est > 0.0:
        factor = min(5.0, max(0.2, 0.9 * (tol_value / est) ** (1.0 / 3.0)))
    else:
        factor = 5.0
    dt_next = dt * factor

    contents = y3[:-1]
    clipped = 0.0
    negative = contents < 0.0
    if np.any(negative):
        clipped = float(np.sum(grid.reps[negative] * -contents[negative]))
        contents = contents.copy()
        contents[negative] = 0.0
    new_state = State(
        contents=contents,
        dust_mass=float(y3[-1]),
        time=state.time + dt,
        clip_mass=state.clip_mass + clipped,
    )
    return new_state, dt, dt_next


def oracle_simulate(workspace, state0, snapshot_times, tolerances=None):
    """Snapshot states of ``integrate.simulate``'s loop driven by ``oracle_step``."""
    times = np.asarray(snapshot_times, dtype=float)
    tol = tolerances or Tolerances()
    horizon = float(times[-1]) - float(times[0])
    if tol.dt_floor == 0.0 and horizon > 0.0:
        tol = Tolerances(tol.rel_tol, tol.abs_tol, 1e-12 * horizon)
    state = state0.copy()
    snapshots = [state.copy()]
    dt_next = 1e-4 * horizon if horizon > 0.0 else 0.0
    for target in times[1:]:
        while state.time < target:
            remaining = float(target) - state.time
            clamp = remaining <= dt_next
            dt_target = remaining if clamp else dt_next
            state, dt_used, dt_next = oracle_step(workspace, state, dt_target, tol)
            if clamp and dt_used == dt_target:
                state.time = float(target)
        snapshots.append(state.copy())
    return snapshots
