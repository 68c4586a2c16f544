"""Time integration: adaptive embedded RK 5(4) and a Picard fixed-point mode."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction as F

import numpy as np

from .errors import ContractionError, DomainError, StiffnessError
from .grid import State
from .scheme import RhsWorkspace, rhs_arrays

__all__ = [
    "Tolerances",
    "RunOutput",
    "row_blocks",
    "PicardResult",
    "step",
    "simulate",
    "check_picard",
    "picard_solve",
]

# Accepted steps after which ``simulate`` gives up on reaching t_end.  The
# largest run on record needs about 1e5, so this bounds the work of any input
# with 10x headroom and fails it the same way on every machine.
MAX_STEPS = 10**6

# The drift of M_1 + dust that ``diagnostics`` allows a run, as a fraction of rho.  No step may
# clip more than MASS_BUDGET / MAX_STEPS of its mass, so no run within MAX_STEPS breaks it by clipping.
MASS_BUDGET = 1e-6

# Doubles of scratch in one row block of a pass over a run's contents matrix (32 KiB; numpy 2.4
# adds an iteration buffer as large), so a pass holds its record plus O(n_cells + block), not a copy.
BLOCK_DOUBLES = 4096

# Dormand & Prince's 5(4) pair (J. Comput. Appl. Math. 6(1), 1980) in exact
# rationals: the stage rows a_ij, the fifth-order weights b and the embedded
# fourth-order weights b_hat.  b is the seventh row of a, so the last stage
# is f(y_new) and starts the next step (first same as last).
DP_A = (
    (),
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
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

# The pair as doubles, each rational rounded once: rows 0-5 of _TABLEAU are the inputs of stages
# 2-7 (row 5 is b, for y_new) and row 6 is b - b_hat, column j weighing stage j + 1, zero past the
# stages a row reads.  The dense output's weights, in floats, are b_i(theta) = sum_m _DENSE[i][m] theta^(m+1).
_TABLEAU = np.array(
    [[float(a) for a in row] + [0.0] * (7 - len(row)) for row in DP_A[1:]]
    + [[float(b - b_hat) for b, b_hat in zip(DP_B, DP_B_HAT)]]
)
_DENSE = [[float(p) for p in row] for row in DP_P]


@dataclass(frozen=True)
class Tolerances:
    """Step-control parameters of the embedded Dormand-Prince 5(4) integrator.

    The error estimate is measured in the weighted norm
    sum max(reps^k0, reps^(1+k0)) |e_i|, the same topology in which
    solutions of the continuous problem are separated.  Both tolerances must
    be finite and non-negative, and not both zero.  No tolerance bounds dt
    from below: a run ends only as ``step`` and ``simulate`` say.

    The default ``rel_tol = 1e-6`` balances the time error against the
    grid's: on the A1 acceptance problem the time error of M_0.5(T) stays
    below 1% of the space error from 128 to 1024 cells, and 1e-8 costs
    twice the right-hand sides for a time error the grid cannot show.  The
    config keys ``time.rel_tol`` and ``time.abs_tol`` default to these
    fields.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise DomainError(f"{name}={value} must be finite and non-negative", param=name)
        if self.rel_tol + self.abs_tol == 0.0:
            raise DomainError("rel_tol and abs_tol must not both be zero", param="rel_tol")


class _Stages:
    """The record of a run's last step.  ``start``: the state it began at; ``history``: its (dt, r);
    ``buffers``: the (7, N) stack of its stage rates k_1 .. k_7, their dust rates, the scratch, dt
    ``_TABLEAU``, the stack's rows and prefixes and dt ``_TABLEAU``'s rows; ``fsal``: row 6 holds
    the rates at the state it ended at."""

    def __init__(self, n: int):
        stack, scaled = np.empty((7, n)), np.empty((7, 7))
        prefixes, coeffs = [stack[: i + 1] for i in range(6)], [scaled[i, : i + 1] for i in range(7)]
        self.buffers = (stack, np.empty(7), np.empty(n), scaled, list(stack), prefixes, coeffs)
        self.start, self.fsal, self.history = None, False, None


@np.errstate(over="ignore", invalid="ignore")
def step(workspace: RhsWorkspace, state: State, dt_target: float, tol: Tolerances, stages: _Stages):
    """One accepted Dormand-Prince 5(4) step, first same as last (FSAL).

    ``stages`` is the run's ``_Stages``, the record of its last step.  With
    its ``fsal`` set, k1 is its row 6 copied into row 0 in place; otherwise
    k1 is evaluated here, once, outside the rejection loop.
    The contents and the dust advance with the fifth-order weights b; the
    error estimate is dt sum (b_i - b_hat_i) k_i against the embedded
    fourth-order weights b_hat, and sets the next step through the exponent
    1/5.  Stage 2's input is one product; each later one, y_new and the
    estimate are one unoptimized ``np.einsum("j,jn->n")`` of a row of dt
    ``_TABLEAU`` with the (7, N) stack of stage rates, as ``picard_solve``'s
    node sum: in stage order, each product rounded on its own, the base added
    last.  Stage inputs 2-6 and the estimate share one scratch vector, and
    each stage's rates go straight into their row of the stack as
    ``rhs_arrays``' ``out``.
    Halves the step until that estimate passes and zeroing the negative
    contents of y_new would create at most ``MASS_BUDGET / MAX_STEPS`` (1e-12)
    of M_1 + dust at ``state``, a mass ``_finish`` adds to ``clip_mass``.
    After an accepted step that clipped, the next step grows no further
    than this one, which stands at the positivity limit.  With the
    (dt_prev, r_prev) of the previous accepted step in ``stages.history``,
    the next step is also at most Gustafsson's predictive
    dt max(0.2, 0.9 (dt / dt_prev) r^(-1/5) (r_prev / r)^(1/5)), with
    r = max(est / tol, 1e-2) (ACM TOMS 20(4), 1994; Hairer & Wanner,
    Solving ODEs II, IV.8), which meets a step size that shrinks step
    after step before the error test refuses it.  A rejected attempt still
    halves dt.  An attempt whose error estimate is NaN or infinite, as when
    a trial stage overflows, is rejected like any other, and no
    floating-point warning escapes.
    ``StiffnessError`` is raised only when the rates at ``state`` are not
    finite ("non-finite error estimate", after the first attempt) or when
    half the rejected dt would no longer move the time.  No floor bounds dt.

    Returns (new_state, dt_used, dt_next) and makes ``stages`` this step's
    record: ``start`` is ``state``, ``history`` (dt_used, r), the buffers
    hold the accepted attempt's seven stage rates, and row 6, k7 =
    f(y_new), starts the next step (``fsal``) unless clipping changed
    y_new: an accepted step costs six right-hand sides and each rejected
    attempt six more.
    ``step`` stays public and module-level because the bench probes span
    it by name, reading ``dt_target`` as its third positional argument
    and ``dt_used`` as ``result[1]``.
    """
    if not 0.0 < dt_target < math.inf:
        raise DomainError(f"dt_target={dt_target} must be finite and positive", param="dt_target")
    weights, reps, c = workspace.error_weights, workspace.grid.reps, state.contents
    tol_value = tol.abs_tol + tol.rel_tol * float(np.add.reduce(weights * np.abs(c)))

    stack, ds, scratch, scaled, rows, prefixes, coeffs = stages.buffers
    # k1 is the last step's k7, copied in place, when that step ended at ``state`` unclipped
    stack[0], ds[0] = (rows[6], ds[6]) if stages.fsal else rhs_arrays(workspace, c, rows[0])
    dt = float(dt_target)
    while True:
        np.multiply(dt, _TABLEAU, out=scaled)
        for i in range(6):
            # the last input is y_new, in a fresh buffer that the new state keeps
            y_new = np.empty_like(c) if i == 5 else scratch
            if i == 0:  # one product: einsum's 0 + x, plus c, is x + c unless c is -0.0
                np.multiply(scaled[0, 0], rows[0], out=y_new)
            else:
                np.einsum("j,jn->n", coeffs[i], prefixes[i], out=y_new)
            y_new += c
            ds[i + 1] = rhs_arrays(workspace, y_new, rows[i + 1])[1]
        # weights * |dt sum e_i k_i|, the gap to the fourth-order solution
        err = np.einsum("j,jn->n", coeffs[6], stack, out=scratch)
        np.abs(err, out=err)
        err *= weights
        est = float(np.add.reduce(err))
        low = float(np.minimum.reduce(y_new, initial=0.0))
        allowed = MASS_BUDGET / MAX_STEPS * (np.add.reduce(reps * c) + state.dust_mass) if low < 0.0 else 0.0
        if est <= tol_value and (low >= 0.0 or _clipped_mass(reps, y_new) <= allowed):
            break
        # an overflowing stage is a rejected attempt; non-finite start rates are not
        if not math.isfinite(est) and not (math.isfinite(ds[0]) and np.isfinite(stack[0]).all()):
            raise StiffnessError(state.time, dt, "non-finite error estimate")
        if state.time + dt / 2.0 == state.time:
            raise StiffnessError(state.time, dt, "halving dt no longer moves the time")
        dt /= 2.0

    # a step that had to clip stands at the positivity limit: growing dt would see it refused
    growth = 1.0 if low < 0.0 else 5.0
    factor = min(growth, max(0.2, 0.9 * (tol_value / est) ** (1.0 / 5.0))) if est > 0.0 else growth
    ratio = max(est / tol_value, 1e-2) if est > 0.0 else 1e-2  # est > 0 passed, so tol_value > 0
    if stages.history is not None:
        dt_prev, ratio_prev = stages.history
        trend = 0.9 * (dt / dt_prev) * ratio ** (-1.0 / 5.0) * (ratio_prev / ratio) ** (1.0 / 5.0)
        factor = min(factor, max(0.2, trend))
    dt_next = dt * factor

    new_state = _finish(workspace.grid, state, y_new, low, coeffs[5].tolist(), ds, state.time + dt)
    stages.start, stages.fsal, stages.history = state, low >= 0.0, (dt, ratio)
    return new_state, dt, dt_next


def _first_dt(workspace: RhsWorkspace, state: State, horizon: float, tol: Tolerances, stages) -> float:
    """The first step of a run (Hairer, Norsett & Wanner, Solving ODEs I, II.4).

    Returns dt; the rates f0 = f(c0) at ``state`` start the first step
    from row 6 of ``stages``, whose ``fsal`` is set.  Norms are ``step``'s
    error norm over its tolerance at ``state``, ||x|| = sum w |x| /
    (abs_tol + rel_tol sum w |c0|).  With d0 = ||c0|| and d1 = ||f0||, an
    explicit Euler probe of length h0 = 0.01 d0 / d1 (1e-6 when d0 or d1
    is below 1e-5) estimates the second derivative d2 = ||f(c0 + h0 f0) -
    f0|| / h0.  The step is min(100 h0, h1, horizon), with h1 = (0.01 /
    max(d1, d2))^(1/5), or max(1e-6, 1e-3 h0) when max(d1, d2) <= 1e-15.
    Costs two right-hand sides, and no floating-point warning escapes.
    Rates f0 that are not finite raise ``StiffnessError`` ("non-finite
    error estimate", with dt NaN: no step was chosen).  Where the
    arithmetic gives no positive step, as from a probe whose rates
    overflow, the run starts from the horizon and ``step`` halves from
    there.
    """
    weights, c0 = workspace.error_weights, state.contents

    def weighted(x):  # a numpy scalar: a zero scale divides to inf or NaN, and raises nothing
        return (weights * np.abs(x)).sum()

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stack, ds = stages.buffers[:2]
        k0, ds[6] = rhs_arrays(workspace, c0, stack[6])
        if not (math.isfinite(ds[6]) and np.isfinite(k0).all()):
            raise StiffnessError(state.time, math.nan, "non-finite error estimate")
        n0 = weighted(c0)
        scale = tol.abs_tol + tol.rel_tol * n0
        d0, d1 = n0 / scale, weighted(k0) / scale
        h0 = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
        d2 = weighted(rhs_arrays(workspace, c0 + h0 * k0)[0] - k0) / scale / h0
        d_max = max(d1, d2)
        h1 = (0.01 / d_max) ** (1.0 / 5.0) if d_max > 1e-15 else max(1e-6, 1e-3 * h0)
        dt = float(min(100.0 * h0, h1, horizon))
    stages.fsal = True
    return dt if dt > 0.0 else horizon


def _interpolate(workspace: RhsWorkspace, stages: _Stages, time: float, out) -> State:
    """The state at ``time`` inside the last step of ``stages``, of length dt from ``stages.start``.

    Contents and dust take the same coefficients dt b(theta), theta =
    (time - start.time) / dt, in Python floats, over the step's seven stage
    rates in ``stages.buffers``, contracted as ``step`` contracts its rows, so
    M_1 + dust holds as per right-hand side.  The contents are written into
    ``out`` and finished by ``_finish``, as ``step``'s are: a clip goes into
    this state's ``clip_mass`` only, uncapped.  Costs no right-hand side.
    """
    start, dt, (stack, ds) = stages.start, stages.history[0], stages.buffers[:2]
    theta = float(time - start.time) / dt
    coeffs = [dt * (theta * (p0 + theta * (p1 + theta * (p2 + theta * p3)))) for p0, p1, p2, p3 in _DENSE]
    np.einsum("j,jn->n", coeffs, stack, out=out)
    out += start.contents
    return _finish(workspace.grid, start, out, float(np.minimum.reduce(out, initial=0.0)), coeffs, ds, time)


def _finish(grid, start: State, contents, low, coeffs, ds, time) -> State:
    """The ``State`` at ``time`` after ``start``: ``contents``, whose least entry or 0 is ``low``,
    with any negatives zeroed in place and their mass sum reps |c| added to ``clip_mass``, and the dust
    plus sum_j coeffs_j ds_j, in floats and stage order, for the list ``coeffs`` that built ``contents``."""
    clipped = 0.0
    if low < 0.0:
        clipped = _clipped_mass(grid.reps, contents)
        contents[contents < 0.0] = 0.0
    return State(
        contents=contents,
        dust_mass=start.dust_mass + sum(map(operator.mul, coeffs, ds.tolist())),
        time=time,
        clip_mass=start.clip_mass + clipped,
    )


def _clipped_mass(reps, contents) -> float:
    """sum reps max(-contents, 0): the mass that zeroing the negative ``contents`` creates."""
    return float(np.add.reduce((reps * -contents)[contents < 0.0]))


def row_blocks(rows: int, cols: int):
    """Cover the rows of a (rows, cols) matrix in order, one block at a time.

    Yields (row slice, scratch) pairs: each block has at most
    ``BLOCK_DOUBLES`` doubles, or one row when a row is wider, and
    ``scratch`` is an uninitialised (block rows, cols) C-order view of one
    buffer that every block reuses.
    """
    step = max(1, BLOCK_DOUBLES // cols)
    buffer = np.empty((min(step, rows), cols))
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        yield slice(start, stop), buffer[: stop - start]


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

    def state(self, i: int) -> State:
        """Snapshot i alone, as ``states[i]`` without building the others."""
        return State(self.contents[i], self.dust[i], self.times[i], self.clip[i])

    @property
    def rho(self) -> float:
        return float(self.moments(1.0)[0] + self.dust[0])

    def moments(self, k: float) -> np.ndarray:
        """M_k per snapshot, computed once per order and kept read-only.

        Each ``row_blocks`` block of ``contents`` is multiplied by reps^k
        into the scratch and reduced row by row into the series, so the
        pass holds O(n_cells + block) beyond the record.  numpy reduces each
        contiguous row as it reduces that row alone, so M_k[i] is bitwise
        ``grid.moment`` of snapshot i.
        """
        if k not in self._moments:
            # reps**k on the contiguous reps: numpy's power can round a strided view differently
            reps_k = self.grid.reps**k
            series = np.empty(self.times.size)
            for rows, block in row_blocks(*self.contents.shape):
                np.multiply(self.contents[rows], reps_k, out=block)
                np.add.reduce(block, axis=1, out=series[rows])
            series.flags.writeable = False
            self._moments[k] = series
        return self._moments[k]


def simulate(
    workspace: RhsWorkspace,
    state0: State,
    snapshot_times,
    tolerances: Tolerances | None = None,
) -> RunOutput:
    """Integrate from the first snapshot time to the last, recording snapshots.

    Snapshot times must be finite, strictly increasing and start at the
    initial state's time; other times are refused with ``DomainError``
    (param ``snapshot_times``) before any right-hand side is evaluated.  Snapshot i is row i of the
    run's ``contents``, written in place by ``_interpolate`` or copied from
    the step that ends there.
    Deterministic: the step sequence depends only on the initial state, the
    first and last times and the tolerances, as only the last time clamps a
    step; each interior snapshot is ``_interpolate`` inside the step that
    crosses it, at no right-hand side.  The first dt comes from the initial
    rates and one explicit Euler probe (``_first_dt``, Hairer, Norsett &
    Wanner's starting step), and those rates start the first step.  One
    ``_Stages``, the record of the last step, carries the stage buffers,
    made once per run, from step to step, with the step's start, the FSAL
    rates and the (dt, r) history of Gustafsson's predictive step size.
    A run costs two right-hand sides to start, six per accepted step, six
    per rejected attempt and one after each step but the last that clipped,
    whatever the snapshot mesh; a one-snapshot run costs none.
    ``tolerances`` defaults to ``Tolerances()``, rel_tol 1e-6 and abs_tol 1e-12.
    A run that ``step`` cannot advance, or that is still short of the last
    time after ``MAX_STEPS`` accepted steps, raises ``StiffnessError``.
    """
    times = np.asarray(snapshot_times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise DomainError(f"snapshot times must be finite, got {times}", param="snapshot_times")
    if times.size < 1 or np.any(np.diff(times) <= 0.0):
        raise DomainError("snapshot times must be strictly increasing", param="snapshot_times")
    if times[0] != state0.time:
        raise DomainError(
            f"first snapshot time {times[0]} differs from state time {state0.time}",
            param="snapshot_times",
        )
    tol = tolerances or Tolerances()
    t_end = float(times[-1])
    horizon = t_end - float(times[0])

    contents = np.empty((times.size, state0.contents.size))
    dust, clip = np.empty(times.size), np.empty(times.size)
    contents[0], dust[0], clip[0] = state0.contents, state0.dust_mass, state0.clip_mass
    filled, state = 1, state0
    steps, stages = 0, _Stages(state0.contents.size)
    dt_next = _first_dt(workspace, state0, horizon, tol, stages) if horizon > 0.0 else 0.0
    while state.time < t_end:
        if steps == MAX_STEPS:
            raise StiffnessError(state.time, dt_next, f"used up the step budget MAX_STEPS={MAX_STEPS}")
        steps += 1
        remaining = t_end - state.time
        # only a step clamped to the last time can use all that remains
        state, dt_used, dt_next = step(workspace, state, min(remaining, dt_next), tol, stages)
        if dt_used == remaining:
            state.time = t_end
        while filled < times.size and times[filled] <= state.time:
            t = float(times[filled])
            if t < state.time:
                snap = _interpolate(workspace, stages, t, contents[filled])
            else:
                snap, contents[filled] = state, state.contents
            dust[filled], clip[filled] = snap.dust_mass, snap.clip_mass
            filled += 1
    contents.flags.writeable = False
    return RunOutput(workspace.grid, workspace.kernel, workspace.law, times.copy(), contents, dust, clip)


def _chebyshev_integration(n: int) -> np.ndarray:
    """The (n+1, n+1) cumulative integration matrix on Chebyshev-Lobatto nodes.

    The nodes are theta_i = (1 - cos(pi i / n)) / 2 on [0, 1], and
    W[i, j] = integral from 0 to theta_i of the Lagrange polynomial l_j of
    the nodes, so sum_j W[i, j] p(theta_j) = integral from 0 to theta_i of p
    for every polynomial p of degree <= n; the last row holds the
    Clenshaw-Curtis weights.  Built from closed forms: in x = 2 theta - 1
    the nodes are x_i = cos(pi (n - i) / n), l_j = sum_m 2 T_m(x_j) T_m /
    (n c_j c_m) with c = 2 at the ends and 1 inside (discrete
    orthogonality), d theta = dx / 2, and T_m integrates by the recurrence
    int T_m = T_(m+1) / (2 (m+1)) - T_(m-1) / (2 (m-1)).  Each W[i, j] is
    summed over m in order; no linear algebra.
    """
    # cos(pi k / n) over k mod 2n from sines of reflected angles, so that
    # cos(pi (n - k) / n) is exactly -cos(pi k / n) and cos(pi / 2) exactly 0
    cosines = np.array([math.sin(math.pi * (n - 2 * min(k, 2 * n - k)) / (2 * n)) for k in range(2 * n)])
    i = np.arange(n + 1)
    # chebyshev[m, i] = T_m(x_i) = cos(pi m (n - i) / n), for m = 0 .. n + 1
    chebyshev = cosines[np.outer(np.arange(n + 2), n - i) % (2 * n)]
    # antiderivative[m, i] = integral from -1 to x_i of T_m, with T_m(-1) = (-1)^m
    antiderivative = np.empty((n + 1, n + 1))
    antiderivative[0] = chebyshev[1] + 1.0
    antiderivative[1] = (chebyshev[2] - 1.0) / 4.0
    for m in range(2, n + 1):
        sign = -1.0 if m % 2 else 1.0
        antiderivative[m] = ((chebyshev[m + 1] + sign) / (m + 1) - (chebyshev[m - 1] + sign) / (m - 1)) / 2.0
    ends = np.ones(n + 1)
    ends[[0, n]] = 2.0
    # lagrange[m, j] = T_m(x_j) / (n c_j c_m), half l_j's coefficient for d theta = dx / 2
    lagrange = chebyshev[: n + 1] / (n * np.outer(ends, ends))
    matrix = np.multiply.outer(antiderivative[0], lagrange[0])
    for m in range(1, n + 1):
        matrix += np.multiply.outer(antiderivative[m], lagrange[m])
    return matrix


# Picard's quadrature: degree 8, the smallest that reaches round-off on the
# A8 acceptance windows (T = 0.3: 3e-10 at degree 6, 4e-13 at 8, 5e-14 at 12)
_PICARD_W = _chebyshev_integration(8)


@dataclass
class PicardResult:
    """Fixed point returned by ``picard_solve`` plus its convergence history."""

    state: State
    diffs: list
    iterations: int


def check_picard(max_iter: int, tol: float) -> None:
    """Refuse Picard settings ``picard_solve`` cannot use.

    ``max_iter`` must be an integer >= 1 (2.5, NaN, inf and the bools are
    refused) and ``tol`` finite and positive.
    """
    if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise DomainError(f"max_iter={max_iter} must be an integer >= 1", param="max_iter")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol={tol} must be finite and positive", param="tol")


def _require_truncation(kernel) -> None:
    """Refuse a kernel with no truncation index: Picard integrates the truncated dynamics."""
    if kernel.truncation is None:
        raise DomainError("picard mode requires a kernel with a truncation index", param="truncation")


@np.errstate(over="ignore", invalid="ignore")
def picard_solve(
    workspace: RhsWorkspace,
    state0: State,
    t_end: float,
    max_iter: int,
    tol: float,
) -> PicardResult:
    """Fixed-point iteration u <- u0 + integral of the truncated dynamics.

    The trajectory is held at the nine Chebyshev-Lobatto nodes
    t_i = t_end (1 - cos(pi i / 8)) / 2, and the integral to each node is
    the spectral collocation rule t_end sum_j W[i, j] f_j, W = ``_PICARD_W``
    (Clenshaw & Norton, Comput. J. 6, 1963), exact on polynomials of degree
    8; its last row holds the Clenshaw-Curtis weights.  The horizon must be
    short enough for contraction; ``diagnostics.crossval`` chains one call
    per snapshot interval.  On the A8 acceptance problem a 0.1-wide window
    lands within 1e-12 of a tight RK run, in the weighted distance.

    Iteration k measures diff_k, the largest distance between successive
    trajectories at a node in the weighted norm of ``weighted_distance``,
    whose weights ``workspace.error_weights`` the RK error estimate reads
    too, and stops once the distance left to the fixed point is at most
    ``tol``: when diff_k <= tol, or when the ratio q = diff_k / diff_(k-1)
    is below 1 and diff_k q / (1 - q) <= tol, the geometric bound on the
    remaining corrections (Hairer & Wanner, *Solving ODEs II*, IV.8, eqs.
    8.10-8.11), which holds in any norm the iteration contracts in.
    Picard's successive ratios fall, its error going like (LT)^k / k!, so
    the bound over-counts what is left.  At k = 1, and while q >= 1, only
    diff_k <= tol stops; a run that does not contract within ``max_iter``
    raises ``ContractionError``.

    Each iteration evaluates the nine nodes in one batched ``rhs_arrays``
    call, so a solve costs ``iterations`` calls; the first iterate, the
    initial state at every node, is evaluated once and its rates tiled into
    a contiguous (9, N) batch, bitwise a call on nine copies.  Each new node is
    the contraction ``np.einsum("ij,jn->in", weights, rates)`` plus the
    initial state: unoptimized, so never BLAS, it adds the nodes' rates in
    node order with each product rounded on its own, on a contiguous
    operand (a stride-0 one makes einsum reorder the sum).  The dust
    integrates the last call's dust rates with the row t_end W[-1] that
    builds the final contents, so M_1 + dust holds as per right-hand side.
    Memory peaks at the (9, N) iterate plus the three batch arrays of the
    ``rhs_arrays`` call.  Elsewhere at most two batch arrays are alive
    beside the iterate: the rates are freed before the distance's scratch
    is made, and the scratch before the next call.
    An untruncated kernel, or a ``t_end`` that is negative or not finite,
    is refused with ``DomainError`` before any call.  No floating-point
    warning escapes: an iterate that overflows raises ``ContractionError``.
    """
    _require_truncation(workspace.kernel)
    if not 0.0 <= t_end < math.inf:
        raise DomainError(f"t_end={t_end} must be finite and non-negative", param="t_end")
    check_picard(max_iter, tol)
    if t_end == 0.0:
        return PicardResult(state0.copy(), [], 0)

    weights = t_end * _PICARD_W
    c0 = state0.contents
    traj = c0  # the first iterate: c0 at every node
    diffs = []
    for iteration in range(1, max_iter + 1):
        rates, dust_rates = rhs_arrays(workspace, traj)
        if iteration == 1:  # c0's one row of rates, tiled C-order: no stride-0 operand
            rates, dust_rates = np.tile(rates, (len(weights), 1)), np.full(len(weights), dust_rates)
        new = np.einsum("ij,jn->in", weights, rates)
        new += c0
        del rates  # free the batch before the next call
        gap = np.subtract(new, traj)
        np.abs(gap, out=gap)
        gap *= workspace.error_weights
        diff = float(gap.sum(axis=1).max())
        del gap  # free the scratch before the next call
        traj = new
        diffs.append(diff)
        if not math.isfinite(diff):
            raise ContractionError(diff, iteration)
        ratio = diff / diffs[-2] if iteration > 1 else math.inf
        if diff <= tol or (ratio < 1.0 and diff * ratio / (1.0 - ratio) <= tol):
            dust = state0.dust_mass + sum(float(w) * float(d) for w, d in zip(weights[-1], dust_rates))
            final = State(traj[-1].copy(), dust, state0.time + t_end, state0.clip_mass)
            return PicardResult(final, diffs, iteration)
    raise ContractionError(diffs[-1], max_iter)
