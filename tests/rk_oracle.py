"""Slow reference for the FSAL integrator: the plain seven-stage Dormand-Prince step.

Every attempt evaluates all seven Dormand-Prince 5(4) stages on the augmented
vector [contents, dust], rebuilds the error weights and recomputes k1 after
each rejection, with no stage carried over from the previous step.  The
tableau is written out here again as Python divisions, which round each
rational once, as ``integrate``'s exact fractions do.  Its arithmetic on
every value that reaches a state or the error estimate is the same as
``integrate.step``'s: each combination sum_j (dt a_j) k_j is summed in stage
order, each product rounded on its own, before the base vector is added.
Here the sum runs over the non-zero a_j, in ``step`` over a tableau row's
coefficients, zeros included, into a zeroed output.  A zero coefficient
adds +-0, which changes no non-zero partial sum, and the base vector, never
-0.0 (builders and clips write +0.0), turns a +-0 sum into the same +0.0;
0 times an overflowed stage gives NaN only in an attempt whose estimate is
already non-finite, which both reject.  So the two must agree bit for bit.
The run's first dt is Hairer, Norsett & Wanner's starting step, written
out here again from its formulas, and each next dt is the smaller of the
error-based factor and Gustafsson's predictive factor from the previous
accepted step's dt and error ratio.  RHS calls go to
``scheme.rhs_arrays`` directly, so a counter on ``integrate.rhs_arrays`` does
not see them.
"""

import numpy as np

from collbreak import DomainError, State, Tolerances
from collbreak.grid import weight_vector
from collbreak.integrate import MASS_BUDGET, MAX_STEPS
from collbreak.scheme import rhs_arrays

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


def _clipped(grid, contents):
    """sum reps max(-c, 0), the mass that zeroing the negative contents creates."""
    negative = contents < 0.0
    return float(np.sum(grid.reps[negative] * -contents[negative]))


def oracle_step(workspace, state, dt_target, tol, history=None):
    """One accepted seven-stage step; returns (new_state, dt_used, dt_next, (dt_used, r)).

    ``history`` is the (dt, r) of the previous accepted step, None on a run's first.
    """
    if dt_target <= 0.0:
        raise DomainError(f"dt_target must be positive, got {dt_target}")
    grid = workspace.grid
    weights = weight_vector(grid, workspace.law.k0)
    y = _augment(state)
    # a step may clip at most MASS_BUDGET / MAX_STEPS of the mass M_1 + dust at its start
    clip_allowance = MASS_BUDGET / MAX_STEPS * (float(np.sum(grid.reps * y[:-1])) + float(y[-1]))
    tol_value = tol.abs_tol + tol.rel_tol * float(np.sum(weights * np.abs(y[:-1])))

    dt = float(dt_target)
    growth = 5.0  # 1 on a clip
    while True:
        ks = [_f(workspace, y)]
        for row in STAGES:
            ks.append(_f(workspace, _combine(row, ks, dt) + y))
        y_new = _combine(B, ks, dt) + y
        ks.append(_f(workspace, y_new))
        est = float(np.sum(weights * np.abs(_combine(E, ks, dt)[:-1])))
        if est <= tol_value and _clipped(grid, y_new[:-1]) <= clip_allowance:
            break
        dt /= 2.0

    if float(np.min(y_new[:-1], initial=0.0)) < 0.0:
        growth = 1.0  # the step clips below: it stands at the positivity limit
    if est > 0.0:
        factor = min(growth, max(0.2, 0.9 * (tol_value / est) ** (1.0 / 5.0)))
        r = max(est / tol_value, 1e-2)
    else:
        factor = growth
        r = 1e-2
    if history is not None:
        # Gustafsson's predictive factor (ACM TOMS 20(4), 1994)
        dt_prev, r_prev = history
        predicted = 0.9 * (dt / dt_prev) * r ** (-1.0 / 5.0) * (r_prev / r) ** (1.0 / 5.0)
        factor = min(factor, max(0.2, predicted))
    dt_next = dt * factor

    contents = y_new[:-1].copy()
    contents[contents < 0.0] = 0.0
    new_state = State(
        contents=contents,
        dust_mass=float(y_new[-1]),
        time=state.time + dt,
        clip_mass=state.clip_mass + _clipped(grid, y_new[:-1]),
    )
    return new_state, dt, dt_next, (dt, r)


def oracle_first_dt(workspace, state, horizon, tol):
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4).

    The norm is the error norm over the tolerance at ``state``:
    ||x|| = sum w |x| / (abs_tol + rel_tol sum w |c0|), contents only.
    """
    weights = weight_vector(workspace.grid, workspace.law.k0)
    y = _augment(state)
    f0 = _f(workspace, y)
    scale = tol.abs_tol + tol.rel_tol * float(np.sum(weights * np.abs(y[:-1])))

    def norm(x):
        return float(np.sum(weights * np.abs(x[:-1]))) / scale

    d0, d1 = norm(y), norm(f0)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    d2 = norm(_f(workspace, y + h0 * f0) - f0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, horizon)


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
    dt_next = oracle_first_dt(workspace, state, horizon, tol) if horizon > 0.0 else 0.0
    history = None
    for target in times[1:]:
        while state.time < target:
            remaining = float(target) - state.time
            clamp = remaining <= dt_next
            dt_target = remaining if clamp else dt_next
            state, dt_used, dt_next, history = oracle_step(workspace, state, dt_target, tol, history)
            if clamp and dt_used == dt_target:
                state.time = float(target)
        snapshots.append(state.copy())
    return snapshots
