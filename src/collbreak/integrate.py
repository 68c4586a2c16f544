"""Time integration: adaptive embedded RK 5(4) and a Picard fixed-point mode."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as F

import numpy as np

from .errors import ConfigError, ContractionError, DomainError, StiffnessError
from .grid import State
from .scheme import RhsWorkspace, rhs_arrays

__all__ = [
    "Tolerances",
    "RunOutput",
    "PicardResult",
    "step",
    "interpolate",
    "simulate",
    "check_picard",
    "picard_solve",
]

# Negative contents beyond this fraction of the state scale force a step
# rejection; anything shallower is round-off and gets clipped to zero.
_NEG_FLOOR_FRACTION = 1e-14

# Accepted steps after which ``simulate`` gives up on reaching t_end.  The
# largest run on record needs about 1e5, so this bounds the work of any input
# with 10x headroom and fails it the same way on every machine.
MAX_STEPS = 10**6

_PICARD_PANELS = 64

# Dormand & Prince's 5(4) pair (J. Comput. Appl. Math. 6(1), 1980) in exact
# rationals: the stage rows a_ij, the nodes c_i, the fifth-order weights b
# and the embedded fourth-order weights b_hat.  b is the seventh row of a,
# so the last stage is f(y_new) and starts the next step (first same as last).
DP_A = (
    (),
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
DP_C = (F(0), F(1, 5), F(3, 10), F(4, 5), F(8, 9), F(1), F(1))
DP_B = DP_A[6] + (F(0),)
DP_B_HAT = (
    F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200), F(187, 2100), F(1, 40)
)
# The pair's free fourth-order continuous extension (Shampine, Math. Comp. 46, 1986;
# Hairer, Norsett & Wanner, Solving ODEs I, II.6): y(t0 + theta dt) = y0 + dt sum_i
# b_i(theta) k_i with b_i(theta) = sum_m DP_P[i][m] theta^(m+1), so b_i(1) = DP_B[i].
DP_P = (
    (F(1), F(-8048581381, 2820520608), F(8663915743, 2820520608), F(-12715105075, 11282082432)),
    (F(0), F(0), F(0), F(0)),
    (F(0), F(131558114200, 32700410799), F(-68118460800, 10900136933), F(87487479700, 32700410799)),
    (F(0), F(-1754552775, 470086768), F(14199869525, 1410260304), F(-10690763975, 1880347072)),
    (F(0), F(127303824393, 49829197408), F(-318862633887, 49829197408), F(701980252875, 199316789632)),
    (F(0), F(-282668133, 205662961), F(2019193451, 616988883), F(-1453857185, 822651844)),
    (F(0), F(40617522, 29380423), F(-110615467, 29380423), F(69997945, 29380423)),
)


def _pairs(coefficients):
    """(stage index, coefficient as a double) for the non-zero coefficients."""
    return tuple((j, float(a)) for j, a in enumerate(coefficients) if a)


_STAGES = tuple(_pairs(row) for row in DP_A[1:6])  # inputs of stages 2 to 6
_WEIGHTS = _pairs(DP_B)  # y_new, the input of stage 7
_ERROR = _pairs(b - b_hat for b, b_hat in zip(DP_B, DP_B_HAT))
_DENSE = tuple((i, tuple(float(p) for p in row)) for i, row in enumerate(DP_P) if any(row))


@dataclass(frozen=True)
class Tolerances:
    """Step-control parameters of the embedded Dormand-Prince 5(4) integrator.

    The error estimate is measured in the weighted norm
    sum max(reps^k0, reps^(1+k0)) |e_i|, the same topology in which
    solutions of the continuous problem are separated.  Both tolerances must
    be finite and non-negative, and not both zero.  No tolerance bounds dt
    from below: a run ends only as ``step`` and ``simulate`` say.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
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
    """One accepted Dormand-Prince 5(4) step, first same as last (FSAL).

    ``rates`` is the right-hand side ``(d_contents, d_dust)`` at ``state``
    when the caller has it, normally the ``next_rates`` of the previous
    step; when None it is evaluated here, once, outside the rejection loop.
    The contents and the dust advance with the fifth-order weights b; the
    error estimate is dt sum (b_i - b_hat_i) k_i against the embedded
    fourth-order weights b_hat, and sets the next step through the exponent
    1/5.  Halves the step until that estimate passes and no content would
    land below -1e-14 times the state scale; accepted round-off negatives
    are clipped to zero with the created mass tracked in ``clip_mass``.
    After an attempt that the negative-content guard alone refused, the
    next step grows no further than this one.  An attempt whose error
    estimate is NaN or infinite, as when a trial stage overflows, is
    rejected like any other, and no floating-point warning escapes.
    ``StiffnessError`` is raised only when the rates at ``state`` are not
    finite ("non-finite error estimate", after the first attempt) or when
    half the rejected dt would no longer move the time.  No floor bounds dt.

    Returns (new_state, dt_used, dt_next, next_rates, stages).  ``next_rates``
    is the seventh stage k7 = f(y_new), the right-hand side at the new state,
    or None when clipping changed y_new; handed back in, it makes an accepted
    step cost six right-hand sides and each rejected attempt six more.
    ``stages`` is the accepted attempt's seven contents and dust rates.
    """
    if not 0.0 < dt_target < math.inf:
        raise DomainError(f"dt_target={dt_target} must be finite and positive", param="dt_target")
    weights = workspace.error_weights
    c = state.contents
    weighted = np.abs(c)
    neg_floor = _NEG_FLOOR_FRACTION * float(weighted.max(initial=0.0))
    weighted *= weights
    tol_value = tol.abs_tol + tol.rel_tol * float(weighted.sum())

    k1, d1 = rhs_arrays(workspace, c) if rates is None else rates
    ks, ds = [k1], [d1]
    trial, term = weighted, np.empty_like(c)  # weighted's last use was above
    dt = float(dt_target)
    growth = 5.0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            for row in _STAGES:
                _increment(row, ks, dt, trial, term)
                trial += c
                k, d = rhs_arrays(workspace, trial)
                ks.append(k)
                ds.append(d)
            y_new = _increment(_WEIGHTS, ks, dt, np.empty_like(c), term)
            y_new += c
            k7, d7 = rhs_arrays(workspace, y_new)
            ks.append(k7)
            ds.append(d7)
            # weights * |dt sum e_i k_i|, the gap to the fourth-order solution
            err = _increment(_ERROR, ks, dt, trial, term)
            np.abs(err, out=err)
            err *= weights
            est = float(err.sum())
            low = float(y_new.min(initial=0.0))
            if est <= tol_value and low >= -neg_floor:
                break
            del ks[1:], ds[1:]
            # the guard alone refused: growing dt again would only see it halved again
            growth = 1.0 if est <= tol_value else growth
            # an overflowing stage is a rejected attempt; non-finite start rates are not
            if not math.isfinite(est) and not (math.isfinite(d1) and np.isfinite(k1).all()):
                raise StiffnessError(state.time, dt, "non-finite error estimate")
            if state.time + dt / 2.0 == state.time:
                raise StiffnessError(state.time, dt, "halving dt no longer moves the time")
            dt /= 2.0

    factor = min(growth, max(0.2, 0.9 * (tol_value / est) ** (1.0 / 5.0))) if est > 0.0 else growth
    dt_next = dt * factor

    clipped = _clip(workspace.grid, y_new) if low < 0.0 else 0.0
    new_state = State(
        contents=y_new,
        dust_mass=state.dust_mass + sum((dt * b) * ds[j] for j, b in _WEIGHTS),
        time=state.time + dt,
        clip_mass=state.clip_mass + clipped,
    )
    return new_state, dt, dt_next, None if low < 0.0 else (k7, d7), (ks, ds)


def interpolate(workspace: RhsWorkspace, state: State, stages, dt: float, time: float, out) -> State:
    """The state at ``time`` inside the step of length ``dt`` that ``step`` took from ``state``.

    Contents and dust take the same weights dt b_i(theta), theta = (time -
    state.time) / dt, over the step's seven ``stages``, so M_1 + dust holds
    as per right-hand side.  The contents are written into ``out``.
    Negative contents are clipped as in ``step``, into this state's
    ``clip_mass`` only.  Costs no right-hand side.
    """
    ks, ds = stages
    theta = (time - state.time) / dt
    # a list: tuples built by tuple(generator) stay on the interpreter free list
    row = [(i, theta * (a + theta * (b + theta * (c + theta * d)))) for i, (a, b, c, d) in _DENSE]
    contents = _increment(row, ks, dt, out, np.empty_like(out))
    contents += state.contents
    return State(
        contents=contents,
        dust_mass=state.dust_mass + sum((dt * b) * ds[j] for j, b in row),
        time=time,
        clip_mass=state.clip_mass + _clip(workspace.grid, contents),
    )


def _clip(grid, contents) -> float:
    """Zero the negative ``contents`` in place; returns the mass sum reps |c| so created."""
    negative = contents < 0.0
    clipped = float((grid.reps[negative] * -contents[negative]).sum())
    contents[negative] = 0.0
    return clipped


def _increment(row, ks, dt, out, term):
    """out = sum (dt a_j) k_j over the (j, a_j) pairs of ``row``, summed in order."""
    (j, a), *rest = row
    np.multiply(ks[j], dt * a, out=out)
    for j, a in rest:
        np.multiply(ks[j], dt * a, out=term)
        out += term
    return out


@dataclass
class RunOutput:
    """Snapshots of one integration plus everything needed to audit it.

    ``contents[i]`` is snapshot i, at ``times[i]`` with ``dust[i]`` and
    ``clip[i]``: a row of one C-order (snapshots, n_cells) matrix, which
    ``simulate`` and ``load_run`` return read-only.  ``states`` are the
    snapshots as ``State``s over row views of it.
    """

    grid: object
    kernel: object
    law: object
    times: np.ndarray
    contents: np.ndarray
    dust: np.ndarray
    clip: np.ndarray
    config: object = None
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def states(self) -> list:
        return list(map(State, self.contents, self.dust, self.times, self.clip))

    @property
    def rho(self) -> float:
        return float(self.moments(1.0)[0] + self.dust[0])

    def moments(self, k: float) -> np.ndarray:
        """M_k per snapshot: one row-by-row reduction per order, kept read-only."""
        if k not in self._moments:
            # reps**k on the contiguous reps: numpy's power can round a strided view differently
            self._moments[k] = np.multiply(self.contents, self.grid.reps**k).sum(axis=1)
            self._moments[k].flags.writeable = False
        return self._moments[k]


def simulate(
    workspace: RhsWorkspace,
    state0: State,
    snapshot_times,
    tolerances: Tolerances | None = None,
) -> RunOutput:
    """Integrate from the first snapshot time to the last, recording snapshots.

    Snapshot times must be finite, strictly increasing and start at the
    initial state's time; non-finite times are refused with ``DomainError``
    before any right-hand side is evaluated.  Snapshot i is row i of the
    run's ``contents``, written in place by ``interpolate`` or copied from
    the step that ends there.
    Deterministic: the step sequence depends only on the initial state, the
    first and last times and the tolerances, as only the last time clamps a
    step; each interior snapshot is ``interpolate`` inside the step that
    crosses it, at no right-hand side.  Each step hands its ``next_rates``
    to the next, so a run costs one right-hand side to start, six per
    accepted step, six per rejected attempt and one after each step but the
    last that clipped, whatever the snapshot mesh.
    A run that ``step`` cannot advance, or that is still short of the last
    time after ``MAX_STEPS`` accepted steps, raises ``StiffnessError``.
    """
    times = np.asarray(snapshot_times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise DomainError(f"snapshot times must be finite, got {times}", param="snapshot_times")
    if times.size < 1 or np.any(np.diff(times) <= 0.0):
        raise ConfigError("snapshot times must be strictly increasing")
    if times[0] != state0.time:
        raise ConfigError(
            f"first snapshot time {times[0]} differs from state time {state0.time}"
        )
    tol = tolerances or Tolerances()
    t_end = float(times[-1])
    horizon = t_end - float(times[0])

    contents = np.empty((times.size, state0.contents.size))
    dust, clip = np.empty(times.size), np.empty(times.size)
    contents[0], dust[0], clip[0] = state0.contents, state0.dust_mass, state0.clip_mass
    filled, state = 1, state0
    dt_next = 1e-4 * horizon if horizon > 0.0 else 0.0
    rates, steps = None, 0
    while state.time < t_end:
        if steps == MAX_STEPS:
            raise StiffnessError(state.time, dt_next, f"used up the step budget MAX_STEPS={MAX_STEPS}")
        steps += 1
        remaining = t_end - state.time
        clamp = remaining <= dt_next
        dt_target = remaining if clamp else dt_next
        start = state
        state, dt_used, dt_next, rates, stages = step(workspace, start, dt_target, tol, rates)
        if clamp and dt_used == dt_target:
            state.time = t_end
        while filled < times.size and times[filled] <= state.time:
            t = float(times[filled])
            if t < state.time:
                snap = interpolate(workspace, start, stages, dt_used, t, contents[filled])
            else:
                snap, contents[filled] = state, state.contents
            dust[filled], clip[filled] = snap.dust_mass, snap.clip_mass
            filled += 1
        del stages  # seven stages of two arrays: free them before the next step
    contents.flags.writeable = False
    return RunOutput(workspace.grid, workspace.kernel, workspace.law, times.copy(), contents, dust, clip)


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

    Each iteration evaluates the whole 65-node trajectory in one batched
    ``rhs_arrays`` call, so a solve costs ``iterations`` calls.  The rows
    are bitwise those of per-node calls.  The dust integrates the last
    call's dust rates with the trapezoid weights that build the contents
    from its contents rates, so M_1 + dust holds as per right-hand side.
    A ``t_end`` that is negative or not finite is refused with
    ``DomainError`` before any call.
    """
    if workspace.kernel.truncation is None:
        raise ConfigError("picard mode requires a kernel with a truncation index")
    if not 0.0 <= t_end < math.inf:
        raise DomainError(f"t_end={t_end} must be finite and non-negative", param="t_end")
    check_picard(max_iter, tol)
    if t_end == 0.0:
        return PicardResult(state0.copy(), [], 0)

    grid = workspace.grid
    norm_weights = grid.reps**workspace.law.k0 + grid.reps
    mesh = np.linspace(0.0, t_end, _PICARD_PANELS + 1)
    h = mesh[1] - mesh[0]
    c0 = state0.contents

    traj = np.tile(c0, (mesh.size, 1))
    diffs = []
    for iteration in range(1, max_iter + 1):
        rates, dust_rates = rhs_arrays(workspace, traj)
        # new[k] = c0 + the trapezoid panels (h/2) (f_{i-1} + f_i) summed over i <= k,
        # built in place so that no more than three trajectories are alive
        new = np.empty_like(traj)
        new[0] = c0
        panels = new[1:]
        np.add(rates[:-1], rates[1:], panels)
        panels *= h / 2.0
        np.cumsum(panels, axis=0, out=panels)
        panels += c0
        # the rates' buffer now holds weights * |new - traj|
        gap = np.subtract(new, traj, rates)
        np.abs(gap, gap)
        gap *= norm_weights
        diff = float(np.max(np.sum(gap, axis=1)))
        del rates, gap  # free the buffer before the next batched call
        traj = new
        diffs.append(diff)
        if not np.isfinite(diff):
            raise ContractionError(diff, iteration)
        if diff <= tol:
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
