import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
from test_acceptance import A1_CONFIG, A5_CONFIG, A8_CONFIG


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
    out, dt_used, dt_next, _ = cb.step(ws, zero, 0.05, Tolerances())
    assert np.all(out.contents == 0.0)
    assert out.dust_mass == 0.0
    assert dt_used == 0.05
    assert dt_next > dt_used


def test_step_conserves_budget_and_advances_time(small_problem):
    ws, s0 = small_problem
    before = float(np.sum(ws.grid.reps * s0.contents)) + s0.dust_mass
    out, dt_used, _, _ = cb.step(ws, s0, 1e-3, Tolerances())
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
        ({"dt_floor": math.nan}, "dt_floor"),
        ({"dt_floor": -1.0}, "dt_floor"),
        ({"rel_tol": 0.0, "abs_tol": 0.0}, "rel_tol"),
    ],
)
def test_tolerances_refuse_bad_values(fields, param):
    with pytest.raises(cb.DomainError) as info:
        Tolerances(**fields)
    assert info.value.param == param


def test_stiffness_error_on_dt_floor(small_problem):
    ws, s0 = small_problem
    tol = Tolerances(rel_tol=1e-30, abs_tol=0.0, dt_floor=1e-3)
    with pytest.raises(StiffnessError) as info:
        cb.step(ws, s0, 0.01, tol)
    # 0.01, 0.005, 0.0025 and 0.00125 are rejected; 0.000625 is below the floor
    assert info.value.dt == 0.000625
    assert info.value.reason == "dt below dt_floor=1.000e-03"


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


def test_step_overflowing_stage_raises_without_warning(small_problem, monkeypatch):
    # rates near 1e300 are finite, but a trial stage at dt = 1e-140 lands
    # near 1e160 and its rates overflow; the attempt is rejected and its
    # non-finite estimate ends the step
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
        with pytest.raises(StiffnessError) as info:
            cb.step(ws, big, 1e-140, Tolerances())
    assert len(calls) == 7
    assert (info.value.dt, info.value.reason) == (1e-140, "non-finite error estimate")


def test_a5_past_the_explicit_limit_reports_why_the_step_collapsed():
    # at x_min = 1e-30 the first attempt, at the start-up dt of 1e-4 times
    # the horizon, already has a non-finite error estimate; the error names
    # that reason and the dt that was tried, not the halved one
    config = cb.with_x_min(cb.parse_config_text(A5_CONFIG), 1e-30)
    with pytest.raises(StiffnessError) as info:
        cb.run(config)
    assert (info.value.time, info.value.dt) == (0.0, 1e-4 * config.t_end)
    assert info.value.reason == "non-finite error estimate"
    assert str(info.value) == "time step collapse at t=0 (dt=5.000e-05): non-finite error estimate"


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


@pytest.mark.parametrize(
    "text, x_min", [(A1_CONFIG, None), (A5_CONFIG, 1e-4)], ids=["A1-n128", "A5-xmin1e-4"]
)
def test_fsal_simulate_bitwise_equals_seven_stage_oracle(text, x_min):
    config = cb.parse_config_text(text)
    if x_min is not None:
        config = cb.with_x_min(config, x_min)
    ws, s0 = cb.build_problem(config)
    tol = Tolerances(rel_tol=config.rel_tol, abs_tol=config.abs_tol)
    out = cb.simulate(ws, s0, config.snapshot_times, tol)
    ref = oracle_simulate(ws, s0, config.snapshot_times, tol)
    assert _same_states(out.states, ref)


def test_clip_step_drops_rates_and_matches_oracle(clip_problem):
    ws, s0 = clip_problem
    out, dt_used, dt_next, next_rates = cb.step(ws, s0, 0.1, Tolerances())
    ref, ref_dt, ref_next = oracle_step(ws, s0, 0.1, Tolerances())
    assert out.clip_mass > 0.0
    assert next_rates is None
    assert _same_states([out], [ref])
    assert (dt_used, dt_next) == (ref_dt, ref_next)
    times, loose = np.linspace(0.0, 10.0, 3), Tolerances(rel_tol=1e-4)
    run = cb.simulate(ws, s0, times, loose)
    assert _same_states(run.states, oracle_simulate(ws, s0, times, loose))


def test_step_returns_rates_at_new_state(small_problem):
    ws, s0 = small_problem
    out, _, _, (d_contents, d_dust) = cb.step(ws, s0, 1e-3, Tolerances())
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
    tally = {"rhs": 0, "accepted": 0, "rejected": 0, "clips": 0}
    real_rhs, real_step = integrate.rhs_arrays, integrate.step

    def counted_rhs(workspace, contents):
        tally["rhs"] += 1
        return real_rhs(workspace, contents)

    def counted_step(workspace, state, dt_target, tol, rates=None):
        result = real_step(workspace, state, dt_target, tol, rates)
        tally["accepted"] += 1
        tally["rejected"] += round(math.log2(dt_target / result[1]))
        tally["clips"] += result[3] is None
        return result

    monkeypatch.setattr(integrate, "rhs_arrays", counted_rhs)
    monkeypatch.setattr(integrate, "step", counted_step)
    cb.simulate(ws, s0, times, tol)
    # one k1 to start, k2 to k7 per attempt, and a fresh k1 after a clip
    expect = 6 * tally["accepted"] + 1 + tally["clips"] + 6 * tally["rejected"]
    assert tally["rhs"] == expect
    if problem == "clip":
        assert tally["clips"] > 0 and tally["rejected"] > 0


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
    # one call per iteration plus one for the dust rates, each over all 65 nodes
    assert len(shapes) == result.iterations + 1
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
