import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

import collbreak as cb
from collbreak import (
    ConfigError,
    ContractionError,
    DaughterLaw,
    KernelSpec,
    State,
    StiffnessError,
    Tolerances,
    integrate,
)
from picard_oracle import oracle_picard
from rk_oracle import oracle_simulate, oracle_step
from test_acceptance import A1_CONFIG, A5_CONFIG, A5_CONTROL_CONFIG, A8_CONFIG


@pytest.fixture(scope="module")
def truncated_problem():
    grid = cb.build_grid(0.25, 4.0, 32)
    kernel = KernelSpec(0.6, 0.6, truncation=4)
    law = DaughterLaw(-1.2, 0.5)
    ws = cb.precompute(grid, kernel, law)
    state0 = cb.exponential_state(grid, 1.0, 1.0)
    return ws, state0


def test_step_zero_state_accepts_target(small_problem):
    ws, _ = small_problem
    zero = State(np.zeros(ws.grid.n_cells))
    out, dt_used, dt_next, _, _ = cb.step(ws, zero, 0.05, Tolerances())
    assert np.all(out.contents == 0.0)
    assert out.dust_mass == 0.0
    assert dt_used == 0.05
    assert dt_next > dt_used


def test_step_conserves_budget_and_advances_time(small_problem):
    ws, s0 = small_problem
    before = float(np.sum(ws.grid.reps * s0.contents)) + s0.dust_mass
    out, dt_used, _, _, _ = cb.step(ws, s0, 1e-3, Tolerances())
    after = float(np.sum(ws.grid.reps * out.contents)) + out.dust_mass
    assert after == pytest.approx(before, abs=1e-13)
    assert out.time == pytest.approx(s0.time + dt_used)
    assert np.all(out.contents >= 0.0)


def test_step_rejects_bad_dt(small_problem):
    ws, s0 = small_problem
    with pytest.raises(cb.DomainError):
        cb.step(ws, s0, 0.0, Tolerances())


@pytest.mark.parametrize(
    "fields, param",
    [
        ({"rel_tol": math.nan}, "rel_tol"),
        ({"abs_tol": -1e-12}, "abs_tol"),
        ({"rel_tol": math.inf}, "rel_tol"),
        ({"abs_tol": math.inf}, "abs_tol"),
        ({"rel_tol": -1e-8}, "rel_tol"),
        ({"rel_tol": 0.0, "abs_tol": 0.0}, "rel_tol"),
    ],
)
def test_tolerances_refuse_bad_values(fields, param):
    with pytest.raises(cb.DomainError) as info:
        Tolerances(**fields)
    assert info.value.param == param


def test_step_nan_state_raises_promptly(small_problem, monkeypatch):
    ws, s0 = small_problem
    bad = s0.copy()
    bad.contents[3] = np.nan
    calls = []
    real = integrate.rhs_arrays

    def counted(workspace, contents):
        calls.append(1)
        # a step that keeps halving dt would otherwise never return
        assert len(calls) <= 40, "step keeps retrying a NaN state"
        return real(workspace, contents)

    monkeypatch.setattr(integrate, "rhs_arrays", counted)
    with pytest.raises(StiffnessError) as info:
        cb.step(ws, bad, 0.1, Tolerances())
    assert len(calls) == 7
    assert (info.value.dt, info.value.reason) == (0.1, "non-finite error estimate")


def test_step_halves_past_an_overflowing_stage_without_warning(small_problem, monkeypatch):
    # rates near 1e300 are finite, but a trial stage at dt = 1e-140 lands
    # near 1e160 and its rates overflow; each such attempt is rejected and
    # dt halves, until the 40th attempt stays finite and is accepted
    ws, s0 = small_problem
    big = State(1e150 * s0.contents)
    assert np.all(np.isfinite(cb.rhs_arrays(ws, big.contents)[0]))
    calls = []
    real = integrate.rhs_arrays

    def counted(workspace, contents):
        calls.append(1)
        return real(workspace, contents)

    monkeypatch.setattr(integrate, "rhs_arrays", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, dt_used, _, _, _ = cb.step(ws, big, 1e-140, Tolerances())
    assert len(calls) == 1 + 6 * 40 == 241
    assert dt_used == 1e-140 / 2**39
    assert np.all(np.isfinite(out.contents)) and math.isfinite(out.dust_mass)


@pytest.mark.parametrize("x_min", [1e-13, 1e-16, 1e-20, 1e-30])
def test_a5_and_its_control_reach_t_end_at_tiny_x_min(x_min):
    # A5's dust takes all the mass; the control's stays at round-off
    a5, control = (
        cb.run(cb.with_x_min(cb.parse_config_text(text), x_min)) for text in (A5_CONFIG, A5_CONTROL_CONFIG)
    )
    assert a5.times[-1] == control.times[-1] == 0.5
    assert a5.dust[-1] / a5.rho >= 0.999
    assert control.dust[-1] / control.rho <= 1e-15


def test_a5_past_the_explicit_limit_reports_why_the_step_collapsed():
    # at x_min = 1e-50 A5's dt falls below the spacing of doubles near t,
    # a limit of explicit steps in double-precision time
    config = cb.with_x_min(cb.parse_config_text(A5_CONFIG), 1e-50)
    with pytest.raises(StiffnessError) as info:
        cb.run(config)
    assert 0.0 < info.value.time < config.t_end
    assert info.value.time + info.value.dt / 2.0 == info.value.time
    assert info.value.reason == "halving dt no longer moves the time"


def test_step_budget_ends_a_run_that_would_take_hours(monkeypatch):
    # lambda1 = -1 < k0: at x_min = 1e-6 dt falls to about 1e-10 and stays
    # there, so the run would take hours; the step budget ends it
    config = cb.parse_config_text(
        "kernel.lambda1 = -1\nkernel.lambda2 = 1\n"
        "daughter.nu = -0.5\ndaughter.k0 = 0.5\n"
        "grid.x_min = 1e-6\ngrid.x_max = 10\ngrid.n_cells = 80\n"
        "init.kind = monodisperse\ninit.size = 1\ninit.mass = 1\n"
        "time.t_end = 1\ntime.snapshots = 2\n"
    )
    monkeypatch.setattr(integrate, "MAX_STEPS", 2000)
    with pytest.raises(StiffnessError) as info:
        cb.run(config)
    assert 0.0 < info.value.time < config.t_end
    assert info.value.reason == "used up the step budget MAX_STEPS=2000"


def test_step_reports_the_dt_that_no_longer_moves_the_time(small_problem):
    ws, s0 = small_problem
    # at t = 1e20 no step below 8192 moves the time; the rejected attempt
    # is reported, not its half
    late = State(s0.contents, time=1e20)
    with pytest.raises(StiffnessError) as info:
        cb.step(ws, late, 1e-3, Tolerances(rel_tol=1e-30, abs_tol=0.0))
    assert (info.value.dt, info.value.reason) == (1e-3, "halving dt no longer moves the time")


@functools.cache
def _trees(order):
    """Rooted trees with ``order`` vertices, each the sorted tuple of its subtrees."""
    return sorted(_forests(order - 1))


def _forests(total):
    """Sorted tuples of rooted trees whose orders add up to ``total``."""
    if total == 0:
        return {()}
    return {
        tuple(sorted((tree,) + rest))
        for first in range(1, total + 1)
        for tree in _trees(first)
        for rest in _forests(total - first)
    }


def _order_and_density(tree):
    order, density = 1, 1
    for child in tree:
        child_order, child_density = _order_and_density(child)
        order += child_order
        density *= child_density
    return order, order * density


def _stage_weights(a, tree):
    """Elementary weights per stage: the product over subtrees of a times theirs."""
    weights = [Fraction(1)] * len(a)
    for child in tree:
        below = _stage_weights(a, child)
        for i, row in enumerate(a):
            weights[i] *= sum((a_ij * below[j] for j, a_ij in enumerate(row)), Fraction(0))
    return weights


def test_dormand_prince_tableau_order_conditions():
    a, c = integrate.DP_A, integrate.DP_C
    assert all(isinstance(x, Fraction) for row in a for x in row)
    assert [sum(row, Fraction(0)) for row in a] == list(c)
    # first same as last: the seventh stage is evaluated at y_new
    assert list(integrate.DP_B) == list(a[6]) + [0]
    assert [len(_trees(q)) for q in range(1, 6)] == [1, 1, 2, 4, 9]
    for weights, order in ((integrate.DP_B, 5), (integrate.DP_B_HAT, 4)):
        for q in range(1, order + 1):
            for tree in _trees(q):
                phi = sum((b * g for b, g in zip(weights, _stage_weights(a, tree))), Fraction(0))
                assert phi == Fraction(1, _order_and_density(tree)[1]), (order, tree)
    # the embedded pair is of order exactly 4: it misses some fifth-order condition
    assert any(
        sum((b * g for b, g in zip(integrate.DP_B_HAT, _stage_weights(a, tree))), Fraction(0))
        != Fraction(1, _order_and_density(tree)[1])
        for tree in _trees(5)
    )


@pytest.mark.parametrize(
    "text, x_min, bound",
    [(A5_CONFIG, 1e-3, 1e-6), (A1_CONFIG, None, 1e-8)],
    ids=["A5-xmin1e-3", "A1-n128"],
)
def test_default_tolerance_error_against_dop853(text, x_min, bound):
    # an independent reference: scipy's 8th-order Dormand-Prince at rtol 1e-13;
    # the measure is the worst weighted snapshot error over the weighted
    # norm of the final state
    config = cb.parse_config_text(text)
    if x_min is not None:
        config = cb.with_x_min(config, x_min)
    ws, s0 = cb.build_problem(config)
    times = config.snapshot_times
    out = cb.run(config)

    def f(t, y):
        d_contents, d_dust = cb.rhs_arrays(ws, y[:-1])
        return np.append(d_contents, d_dust)

    y0 = np.append(s0.contents, s0.dust_mass)
    ref = solve_ivp(f, (times[0], times[-1]), y0, method="DOP853", rtol=1e-13, atol=1e-20, t_eval=times)
    assert ref.success
    weights = ws.error_weights
    scale = float(np.sum(weights * np.abs(ref.y[:-1, -1])))
    worst = max(
        float(np.sum(weights * np.abs(state.contents - ref.y[:-1, i])))
        for i, state in enumerate(out.states)
    )
    assert worst <= bound * scale


@pytest.fixture(scope="module")
def clip_problem():
    """A full small cell and a nearly empty top cell that decays much faster.

    With lambda = (1, 1) the top cell's relative loss rate is 1e3 times the
    full cell's, so a step the error control accepts overshoots it below
    zero by round-off scale and the step clips.  Run to t = 10 at
    rel_tol = 1e-4, the run both clips and rejects steps.
    """
    grid = cb.build_grid(1e-2, 1e2, 24)
    ws = cb.precompute(grid, KernelSpec(1.0, 1.0), DaughterLaw(-0.5, 0.6))
    state0 = cb.monodisperse_state(grid, 0.1, 1.0)
    state0.contents[-1] = 1e-30
    return ws, state0


def _same_states(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x.contents, y.contents)
        and x.dust_mass == y.dust_mass
        and x.clip_mass == y.clip_mass
        and x.time == y.time
        for x, y in zip(a, b)
    )


ORACLE_CONFIGS = pytest.mark.parametrize(
    "text, x_min",
    [(A1_CONFIG, None), (A5_CONFIG, 1e-4), (A8_CONFIG, None)],
    ids=["A1-n128", "A5-xmin1e-4", "A8"],
)


def _problem(text, x_min=None):
    config = cb.parse_config_text(text)
    if x_min is not None:
        config = cb.with_x_min(config, x_min)
    ws, s0 = cb.build_problem(config)
    return ws, s0, np.asarray(config.snapshot_times), Tolerances(rel_tol=config.rel_tol, abs_tol=config.abs_tol)


@ORACLE_CONFIGS
def test_fsal_simulate_bitwise_equals_seven_stage_oracle(text, x_min):
    # only t_end clamps a step, so on the mesh {t0, t_end} the oracle's
    # loop, which ends a step at every snapshot, takes the same steps
    ws, s0, times, tol = _problem(text, x_min)
    ends = times[[0, -1]]
    assert _same_states(cb.simulate(ws, s0, ends, tol).states, oracle_simulate(ws, s0, ends, tol))


@ORACLE_CONFIGS
def test_interpolated_snapshots_match_clamped_oracle(text, x_min):
    # The oracle ends a step at every snapshot; simulate interpolates them.
    # Both are within the tolerance-level local error of the exact flow, so
    # they agree to 2e-8, twice the default rel_tol, in the weighted norm
    # relative to the state and in dust relative to rho (measured: 7.5e-9
    # and 9.6e-10 at worst, on A5).
    ws, s0, times, tol = _problem(text, x_min)
    out, ref = cb.simulate(ws, s0, times, tol), oracle_simulate(ws, s0, times, tol)
    weights = ws.error_weights
    assert [s.time for s in out.states] == [s.time for s in ref] == list(times)
    for got, want in zip(out.states, ref):
        gap = float(np.sum(weights * np.abs(got.contents - want.contents)))
        assert gap <= 2e-8 * float(np.sum(weights * np.abs(want.contents)))
        assert abs(got.dust_mass - want.dust_mass) <= 2e-8 * out.rho


def test_clip_step_drops_rates_and_matches_oracle(clip_problem):
    ws, s0 = clip_problem
    out, dt_used, dt_next, next_rates, _ = cb.step(ws, s0, 0.1, Tolerances())
    ref, ref_dt, ref_next = oracle_step(ws, s0, 0.1, Tolerances())
    assert out.clip_mass > 0.0
    assert next_rates is None
    assert _same_states([out], [ref])
    assert (dt_used, dt_next) == (ref_dt, ref_next)
    times, loose = np.array([0.0, 10.0]), Tolerances(rel_tol=1e-4)
    run = cb.simulate(ws, s0, times, loose)
    assert _same_states(run.states, oracle_simulate(ws, s0, times, loose))


def test_guard_only_rejections_cap_step_growth(clip_problem, monkeypatch):
    # On the clip problem almost every rejected attempt passes the error
    # test and fails only the negative-content guard.  Growing dt 5x after
    # such a step only to halve it again threw away most RHS calls (6888 in
    # 335 accepted steps); capping dt_next at dt_used makes 4145 in 333.
    ws, s0 = clip_problem
    times, loose = np.array([0.0, 10.0]), Tolerances(rel_tol=1e-4)
    steps, real_step = [], integrate.step

    def recorded(workspace, state, dt_target, tol, rates=None):
        result = real_step(workspace, state, dt_target, tol, rates)
        steps.append((dt_target, result[1], result[2]))
        return result

    monkeypatch.setattr(integrate, "step", recorded)
    run, calls = _counted_simulate(monkeypatch, ws, s0, times, loose)
    assert calls <= 4200
    assert any(used < target and following == used for target, used, following in steps)
    assert _same_states(run.states, oracle_simulate(ws, s0, times, loose))


def test_step_returns_rates_at_new_state(small_problem):
    ws, s0 = small_problem
    out, _, _, (d_contents, d_dust), _ = cb.step(ws, s0, 1e-3, Tolerances())
    expect = cb.rhs_arrays(ws, out.contents)
    assert np.array_equal(d_contents, expect[0])
    assert d_dust == expect[1]


@pytest.mark.parametrize("problem", ["a1", "clip"])
def test_simulate_rhs_call_count(problem, clip_problem, monkeypatch):
    if problem == "a1":
        config = cb.parse_config_text(A1_CONFIG)
        (ws, s0), times, tol = cb.build_problem(config), config.snapshot_times, None
    else:
        (ws, s0), times, tol = clip_problem, np.linspace(0.0, 10.0, 3), Tolerances(rel_tol=1e-4)
    tally = {"rhs": 0, "accepted": 0, "rejected": 0, "clips": 0, "last_clipped": False}
    real_rhs, real_step = integrate.rhs_arrays, integrate.step

    def counted_rhs(workspace, contents):
        tally["rhs"] += 1
        return real_rhs(workspace, contents)

    def counted_step(workspace, state, dt_target, tol, rates=None):
        result = real_step(workspace, state, dt_target, tol, rates)
        tally["accepted"] += 1
        tally["rejected"] += round(math.log2(dt_target / result[1]))
        tally["clips"] += result[3] is None
        tally["last_clipped"] = result[3] is None
        return result

    monkeypatch.setattr(integrate, "rhs_arrays", counted_rhs)
    monkeypatch.setattr(integrate, "step", counted_step)
    cb.simulate(ws, s0, times, tol)
    # one k1 to start, k2 to k7 per attempt, and a fresh k1 after a clip,
    # unless the clip was on the last step, which no step follows
    fresh = tally["clips"] - tally["last_clipped"]
    expect = 6 * tally["accepted"] + 1 + fresh + 6 * tally["rejected"]
    assert tally["rhs"] == expect
    if problem == "clip":
        assert tally["clips"] > 0 and tally["rejected"] > 0


def test_dense_output_coefficients():
    p = integrate.DP_P
    assert all(isinstance(x, Fraction) for row in p for x in row)
    assert [len(row) for row in p] == [4] * 7
    # b_i(theta) = sum_m P[i][m] theta^(m+1): b_i(1) = b_i, and
    # sum_i b_i(theta) = theta, so constants are interpolated exactly
    assert [sum(row, Fraction(0)) for row in p] == list(integrate.DP_B)
    assert [sum(column, Fraction(0)) for column in zip(*p)] == [1, 0, 0, 0]
    # scipy's RK45 continuous extension, written there as Python divisions
    assert np.array_equal(np.array(p, dtype=float), RK45.P)


def _counted_simulate(monkeypatch, ws, s0, times, tol):
    calls = [0]
    real_rhs = integrate.rhs_arrays

    def counted_rhs(workspace, contents):
        calls[0] += 1
        return real_rhs(workspace, contents)

    monkeypatch.setattr(integrate, "rhs_arrays", counted_rhs)
    out = cb.simulate(ws, s0, times, tol)
    monkeypatch.setattr(integrate, "rhs_arrays", real_rhs)
    return out, calls[0]


@pytest.mark.parametrize(
    "text, x_min",
    [(A1_CONFIG, None), (A5_CONFIG, 1e-2), (A5_CONFIG, 1e-4), (A8_CONFIG, None)],
    ids=["A1-n128", "A5-xmin1e-2", "A5-xmin1e-4", "A8"],
)
def test_fine_snapshot_mesh_adds_no_rhs_calls(text, x_min, monkeypatch):
    ws, s0, times, tol = _problem(text, x_min)
    ends = times[[0, -1]]
    fine = np.linspace(ends[0], ends[1], 5001)
    coarse, coarse_calls = _counted_simulate(monkeypatch, ws, s0, ends, tol)
    out, calls = _counted_simulate(monkeypatch, ws, s0, fine, tol)
    assert calls == coarse_calls
    assert [s.time for s in out.states] == list(fine)
    assert _same_states(out.states[-1:], coarse.states[-1:])
    # M_1 + dust - clip_mass, a linear invariant of every stage, holds at
    # the interpolated snapshots to round-off
    reps, rho = ws.grid.reps, coarse.rho
    drift = [abs(float(np.sum(reps * s.contents)) + s.dust_mass - s.clip_mass - rho) for s in out.states]
    assert max(drift) <= 1e-13 * rho


def test_interpolated_negatives_are_clipped_into_the_snapshot(clip_problem):
    # Where the fast top cell empties, the interpolant overshoots below zero
    # inside steps that ended non-negative.  Each such snapshot is clipped
    # as step clips: contents set to zero, and the mass so created added to
    # that snapshot's clip_mass only, so M_1 + dust - clip_mass is kept.
    ws, s0 = clip_problem
    tol = Tolerances(rel_tol=1e-4)
    state, dt, rates, clipped = s0, 0.1, None, 0
    reps, rho = ws.grid.reps, float(np.sum(ws.grid.reps * s0.contents))
    for _ in range(40):
        new, dt_used, dt, rates, stages = cb.step(ws, state, dt, tol, rates)
        for theta in np.linspace(0.05, 0.95, 19):
            time = state.time + theta * dt_used
            snap = integrate.interpolate(ws, state, stages, dt_used, time, np.empty_like(state.contents))
            weights = [float(sum(c * Fraction(theta) ** (m + 1) for m, c in enumerate(row))) for row in integrate.DP_P]
            raw = state.contents + sum((dt_used * w) * k for w, k in zip(weights, stages[0]))
            created = float(np.sum(reps * np.maximum(-raw, 0.0)))
            assert snap.time == time and np.all(snap.contents >= 0.0)
            assert snap.clip_mass - state.clip_mass == pytest.approx(created, rel=1e-6, abs=1e-300)
            drift = float(np.sum(reps * snap.contents)) + snap.dust_mass - snap.clip_mass - rho
            assert abs(drift) <= 1e-13 * rho
            clipped += created > 0.0
        state = new
    assert clipped > 0


def test_simulate_deterministic(small_problem):
    ws, s0 = small_problem
    times = np.linspace(0.0, 0.2, 5)
    a = cb.simulate(ws, s0, times)
    b = cb.simulate(ws, s0, times)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.contents, sb.contents)
        assert sa.dust_mass == sb.dust_mass
    assert np.array_equal(a.times, b.times)


def test_simulate_hits_snapshot_times_exactly(small_problem):
    ws, s0 = small_problem
    times = np.array([0.0, 0.07, 0.13, 0.3])
    out = cb.simulate(ws, s0, times)
    assert [s.time for s in out.states] == list(times)


def test_clip_mass_stays_roundoff_scale(small_run):
    rho = small_run.rho
    assert np.all(small_run.clip <= 1e-8 * rho)


def test_quadratic_rescaling_symmetry(small_problem):
    # scaling the initial data by s and the horizon by 1/s gives the same
    # trajectory: v(t) = s u(s t) solves the same quadratic autonomous system
    ws, s0 = small_problem
    s = 2.0
    tight = Tolerances(rel_tol=1e-11, abs_tol=1e-14)
    base = cb.simulate(ws, s0, np.array([0.0, 0.4]), tight)
    scaled0 = State(s * s0.contents)
    scaled = cb.simulate(ws, scaled0, np.array([0.0, 0.4 / s]), tight)
    expect = s * base.states[-1].contents
    got = scaled.states[-1].contents
    weights = cb.weight_vector(ws.grid, ws.law.k0)
    err = float(np.sum(weights * np.abs(expect - got)))
    scale = float(np.sum(weights * np.abs(expect)))
    assert err <= 1e-7 * scale
    assert scaled.states[-1].dust_mass == pytest.approx(
        s * base.states[-1].dust_mass, rel=1e-7
    )


def test_run_with_zero_horizon():
    config = cb.parse_config_text("time.t_end = 0\n")
    out = cb.run(config)
    assert len(out.states) == 1
    assert out.times[0] == 0.0
    assert out.states[0].time == 0.0


def test_picard_requires_truncation(small_problem):
    ws, s0 = small_problem
    with pytest.raises(ConfigError):
        cb.picard_solve(ws, s0, 0.01)


@pytest.mark.parametrize(
    "kwargs, param",
    [
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-10}, "tol"),
        ({"max_iter": 0}, "max_iter"),
    ],
)
def test_picard_refuses_bad_settings_before_any_rhs(truncated_problem, monkeypatch, kwargs, param):
    ws, s0 = truncated_problem
    calls = []
    monkeypatch.setattr(integrate, "rhs_arrays", lambda *a: calls.append(a))
    with pytest.raises(cb.DomainError) as info:
        cb.picard_solve(ws, s0, 0.01, **kwargs)
    assert info.value.param == param
    assert calls == []


@pytest.mark.parametrize(
    "solver, value, param",
    [
        ("simulate", math.nan, "snapshot_times"),
        ("simulate", math.inf, "snapshot_times"),
        ("picard", math.nan, "t_end"),
        ("picard", math.inf, "t_end"),
        ("step", math.nan, "dt_target"),
        ("step", math.inf, "dt_target"),
    ],
)
def test_non_finite_times_refused_before_any_rhs(truncated_problem, monkeypatch, solver, value, param):
    ws, s0 = truncated_problem
    calls = []
    monkeypatch.setattr(integrate, "rhs_arrays", lambda *a: calls.append(a))
    run = {
        "simulate": lambda: cb.simulate(ws, s0, [0.0, value]),
        "picard": lambda: cb.picard_solve(ws, s0, value),
        "step": lambda: cb.step(ws, s0, value, Tolerances()),
    }[solver]
    with pytest.raises(cb.DomainError) as info:
        run()
    assert info.value.param == param
    assert calls == []


def test_picard_batches_one_rhs_call_per_iteration(truncated_problem, monkeypatch):
    ws, s0 = truncated_problem
    shapes = []
    real = integrate.rhs_arrays

    def counted(workspace, contents):
        shapes.append(contents.shape)
        return real(workspace, contents)

    monkeypatch.setattr(integrate, "rhs_arrays", counted)
    result = cb.picard_solve(ws, s0, 0.05, max_iter=40, tol=1e-12)
    # one call per iteration, over all 65 nodes; the dust comes from the same calls
    assert len(shapes) == result.iterations
    assert set(shapes) == {(65, ws.grid.n_cells)}


def test_picard_chain_bitwise_equals_per_node_oracle():
    config = cb.parse_config_text(A8_CONFIG)
    ws, state = cb.build_problem(config)
    expect = state.copy()
    for _ in range(10):
        result = cb.picard_solve(ws, state, 0.1, max_iter=40, tol=1e-12)
        ref, ref_diffs, ref_iterations = oracle_picard(ws, expect, 0.1, max_iter=40, tol=1e-12)
        assert result.state.contents.tobytes() == ref.contents.tobytes()
        assert result.state.dust_mass.hex() == ref.dust_mass.hex()
        assert (result.state.time, result.state.clip_mass) == (ref.time, ref.clip_mass)
        assert [d.hex() for d in result.diffs] == [d.hex() for d in ref_diffs]
        assert result.iterations == ref_iterations
        state, expect = result.state, ref


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_picard_keeps_mass_plus_dust_at_any_tolerance(tol):
    # contents and dust integrate the same calls' rates, so M_1 + dust is
    # kept to round-off however early the iteration stops
    ws, state0 = cb.build_problem(cb.parse_config_text(A8_CONFIG))
    rho = cb.moment(ws.grid, state0, 1.0)
    state = cb.picard_solve(ws, state0, 0.1, max_iter=40, tol=tol).state
    assert abs(cb.moment(ws.grid, state, 1.0) + state.dust_mass - rho) <= 1e-14 * rho


def test_picard_zero_state_is_fixed_point(truncated_problem):
    ws, _ = truncated_problem
    zero = State(np.zeros(ws.grid.n_cells))
    result = cb.picard_solve(ws, zero, 0.05)
    assert np.all(result.state.contents == 0.0)
    assert result.state.dust_mass == 0.0


def test_picard_matches_rk_integrator(truncated_problem):
    ws, s0 = truncated_problem
    ref = cb.simulate(
        ws, s0, np.array([0.0, 0.05]), Tolerances(rel_tol=1e-11, abs_tol=1e-14)
    ).states[-1]
    result = cb.picard_solve(ws, s0, 0.05, max_iter=40, tol=1e-12)
    dist = cb.weighted_distance(result.state, ref, ws.grid, ws.law.k0)
    assert dist <= 1e-6
    assert result.state.dust_mass == pytest.approx(ref.dust_mass, rel=1e-5)


def test_picard_contraction_monotone_after_first_iteration(truncated_problem):
    ws, s0 = truncated_problem
    result = cb.picard_solve(ws, s0, 0.05, max_iter=40, tol=1e-12)
    diffs = result.diffs
    assert len(diffs) >= 3
    assert all(b <= a for a, b in zip(diffs[1:-1], diffs[2:]))


def test_picard_contraction_failure_on_long_horizon(truncated_problem):
    ws, s0 = truncated_problem
    with pytest.raises(ContractionError) as info:
        cb.picard_solve(ws, s0, 0.5 * 10.0, max_iter=10, tol=1e-12)
    assert info.value.residual > 0.0
