"""Slow reference for the FSAL integrator: the plain seven-stage Dormand-Prince step.

Every attempt evaluates all seven Dormand-Prince 5(4) stages on the augmented
vector [contents, dust], rebuilds the error weights and recomputes k1 after
each rejection, with no stage carried over from the previous step.  The
tableau is written out here again as Python divisions, which round each
rational once, as ``integrate``'s exact fractions do.  Its arithmetic on
every value that reaches a state or the error estimate is the same as
``integrate.step``'s: each combination sum_j (dt a_j) k_j is summed in stage
order over the non-zero a_j before the base vector is added.  So the two
must agree bit for bit.  RHS calls go to ``scheme.rhs_arrays`` directly, so
a counter on ``integrate.rhs_arrays`` does not see them.
"""

import numpy as np

from collbreak import DomainError, State, Tolerances
from collbreak.grid import weight_vector
from collbreak.scheme import rhs_arrays

NEG_FLOOR_FRACTION = 1e-14

# (stage index, a_j) of stages 2 to 6, of y_new (the b weights) and of the
# error weights b - b_hat, zeros left out
STAGES = (
    ((0, 1 / 5),),
    ((0, 3 / 40), (1, 9 / 40)),
    ((0, 44 / 45), (1, -56 / 15), (2, 32 / 9)),
    ((0, 19372 / 6561), (1, -25360 / 2187), (2, 64448 / 6561), (3, -212 / 729)),
    ((0, 9017 / 3168), (1, -355 / 33), (2, 46732 / 5247), (3, 49 / 176), (4, -5103 / 18656)),
)
B = ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784), (5, 11 / 84))
E = (
    (0, 71 / 57600),
    (2, -71 / 16695),
    (3, 71 / 1920),
    (4, -17253 / 339200),
    (5, 22 / 525),
    (6, -1 / 40),
)


def _augment(state):
    return np.concatenate([state.contents, [state.dust_mass]])


def _f(workspace, y):
    d_contents, d_dust = rhs_arrays(workspace, y[:-1])
    return np.concatenate([d_contents, [d_dust]])


def _combine(row, ks, dt):
    (j, a), *rest = row
    total = (dt * a) * ks[j]
    for j, a in rest:
        total = total + (dt * a) * ks[j]
    return total


def oracle_step(workspace, state, dt_target, tol):
    """One accepted seven-stage step; returns (new_state, dt_used, dt_next)."""
    if dt_target <= 0.0:
        raise DomainError(f"dt_target must be positive, got {dt_target}")
    grid = workspace.grid
    weights = weight_vector(grid, workspace.law.k0)
    y = _augment(state)
    scale = float(np.max(np.abs(y[:-1]), initial=0.0))
    neg_floor = NEG_FLOOR_FRACTION * scale
    tol_value = tol.abs_tol + tol.rel_tol * float(np.sum(weights * np.abs(y[:-1])))

    dt = float(dt_target)
    growth = 5.0  # 1 once the negative-content guard alone has refused an attempt
    while True:
        ks = [_f(workspace, y)]
        for row in STAGES:
            ks.append(_f(workspace, _combine(row, ks, dt) + y))
        y_new = _combine(B, ks, dt) + y
        ks.append(_f(workspace, y_new))
        est = float(np.sum(weights * np.abs(_combine(E, ks, dt)[:-1])))
        if est <= tol_value and float(np.min(y_new[:-1], initial=0.0)) >= -neg_floor:
            break
        if est <= tol_value:
            growth = 1.0
        dt /= 2.0

    if est > 0.0:
        factor = min(growth, max(0.2, 0.9 * (tol_value / est) ** (1.0 / 5.0)))
    else:
        factor = growth
    dt_next = dt * factor

    contents = y_new[:-1]
    clipped = 0.0
    negative = contents < 0.0
    if np.any(negative):
        clipped = float(np.sum(grid.reps[negative] * -contents[negative]))
        contents = contents.copy()
        contents[negative] = 0.0
    new_state = State(
        contents=contents,
        dust_mass=float(y_new[-1]),
        time=state.time + dt,
        clip_mass=state.clip_mass + clipped,
    )
    return new_state, dt, dt_next


def oracle_simulate(workspace, state0, snapshot_times, tolerances=None):
    """Snapshot states of a loop that ends an ``oracle_step`` at every snapshot.

    ``integrate.simulate`` clamps only at the last time, so on a mesh
    {t0, t_end} the two take the same steps and agree bit for bit; on a
    finer mesh this gives clamped snapshots to compare its interpolated ones
    against.
    """
    times = np.asarray(snapshot_times, dtype=float)
    tol = tolerances or Tolerances()
    horizon = float(times[-1]) - float(times[0])
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
