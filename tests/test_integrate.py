import dataclasses
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp

import collbreak as cb
from collbreak import (
    ContractionError,
    DaughterLaw,
    KernelSpec,
    State,
    StiffnessError,
    Tolerances,
    integrate,
)
from picard_oracle import oracle_picard
from rk_oracle import _combine, oracle_simulate, oracle_step
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
    out, dt_used, dt_next, _, _, _ = cb.step(ws, zero, 0.05, Tolerances())
    assert np.all(out.contents == 0.0)
    assert out.dust_mass == 0.0
    assert dt_used == 0.05
    assert dt_next > dt_used


def test_step_conserves_budget_and_advances_time(small_problem):
    ws, s0 = small_problem
    before = float(np.sum(ws.grid.reps * s0.contents)) + s0.dust_mass
    out, dt_used, _, _, _, _ = cb.step(ws, s0, 1e-3, Tolerances())
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

    def counted(workspace, contents, out=None):
        calls.append(1)
        # a step that keeps halving dt would otherwise never return
        assert len(calls) <= 40, "step keeps retrying a NaN state"
        return real(workspace, contents, out)

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

    def counted(workspace, contents, out=None):
        calls.append(1)
        return real(workspace, contents, out)

    monkeypatch.setattr(integrate, "rhs_arrays", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, dt_used, _, _, _, _ = cb.step(ws, big, 1e-140, Tolerances(rel_tol=1e-8))
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
    a = integrate.DP_A
    c = (Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5), Fraction(8, 9), Fraction(1), Fraction(1))
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


def _dop853_error(text, x_min, tol):
    """Worst weighted snapshot error of ``simulate`` at ``tol`` against an
    independent reference, scipy's 8th-order Dormand-Prince at rtol 1e-13,
    over the weighted norm of the reference's final state."""
    config = cb.parse_config_text(text)
    if x_min is not None:
        config = cb.with_x_min(config, x_min)
    ws, s0 = cb.build_problem(config)
    times = config.snapshot_times
    out = cb.simulate(ws, s0, times, tol)

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
    return worst / scale


@pytest.mark.parametrize(
    "text, x_min, bound",
    [(A5_CONFIG, 1e-3, 1e-6), (A1_CONFIG, None, 1e-8)],
    ids=["A5-xmin1e-3", "A1-n128"],
)
def test_rel_tol_1e8_error_against_dop853(text, x_min, bound):
    assert _dop853_error(text, x_min, Tolerances(rel_tol=1e-8)) <= bound


def test_default_rel_tol_error_against_dop853():
    # measured 2.0e-7 at the default rel_tol = 1e-6 (1.7e-9 at 1e-8)
    assert _dop853_error(A1_CONFIG, None, Tolerances()) <= 1e-6


def _a1_final_moment(n_cells, tol):
    """M_0.5(T) of A1 on ``n_cells`` cells with two snapshots, at ``tol``."""
    text = A1_CONFIG.replace("grid.n_cells = 128", f"grid.n_cells = {n_cells}")
    config = cb.parse_config_text(text.replace("time.snapshots = 21", "time.snapshots = 2"))
    ws, s0 = cb.build_problem(config)
    return float(cb.simulate(ws, s0, config.snapshot_times, tol).moments(0.5)[-1])


def test_default_time_error_is_far_below_the_space_error():
    # The grid, not the step control, sets a run's accuracy.  Against 8192
    # cells at rel_tol = 1e-12, the default's time error of M_0.5(T) (its
    # gap to the same grid at 1e-12) is at most 1% of the space error
    # (measured 0.009%, 0.14% and 0.57% at 128, 512 and 1024 cells).
    exact = Tolerances(rel_tol=1e-12)
    reference = _a1_final_moment(8192, exact)
    for n_cells in (128, 512, 1024):
        converged = _a1_final_moment(n_cells, exact)
        space = abs(converged - reference)
        time_error = abs(_a1_final_moment(n_cells, Tolerances()) - converged)
        assert time_error <= 0.01 * space, n_cells


def test_shatter_study_verdicts_and_dust_hold_at_the_default_rel_tol():
    # A5 and its control keep their verdicts, and their dust fractions agree
    # with rel_tol = 1e-8 to 1e-6 relative (measured 7.7e-8 at worst)
    x_mins = [1e-2, 1e-3, 1e-4, 1e-5]
    for text, verdict in ((A5_CONFIG, "shattering"), (A5_CONTROL_CONFIG, "conservative")):
        config = cb.parse_config_text(text)
        study = cb.shattering_study(config, x_mins)
        tight = cb.shattering_study(dataclasses.replace(config, rel_tol=1e-8), x_mins)
        assert study.verdict == tight.verdict == verdict
        for (x_min, frac, _), (tight_x_min, tight_frac, _) in zip(study.rows, tight.rows):
            assert x_min == tight_x_min
            assert abs(frac - tight_frac) <= 1e-6 * tight_frac


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


@st.composite
def _oracle_problems(draw):
    """Drawn physics, grid, start and tolerance of a small problem on the mesh {0, t_end}."""
    nu = draw(st.floats(-1.9, -0.2))
    lo = max(0.0, abs(nu) - 1.0)
    law = DaughterLaw(nu, lo + (1.0 - lo) * draw(st.floats(0.05, 0.95)))
    grid = cb.build_grid(10.0 ** draw(st.floats(-4.0, -1.0)), 2.0, draw(st.integers(8, 24)))
    ws = cb.precompute(grid, KernelSpec(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))), law)
    if draw(st.booleans()):
        s0 = cb.monodisperse_state(grid, draw(st.floats(grid.x_min, grid.x_max)), 1.0)
    else:
        s0 = cb.exponential_state(grid, 1.0, draw(st.floats(0.05, 1.0)))
    if draw(st.booleans()):
        s0.contents[-1] = 1e-30  # a nearly empty top cell, as in the clip problem
    times = np.array([0.0, draw(st.floats(0.05, 0.3))])
    return ws, s0, times, Tolerances(rel_tol=10.0 ** draw(st.floats(-6.0, -3.0)))


@settings(max_examples=100, deadline=None)
@given(_oracle_problems())
def test_fsal_simulate_bitwise_equals_seven_stage_oracle_on_drawn_problems(problem):
    # every step-size and positivity rule of step against the oracle's
    # restatement, on problems that no acceptance config names
    ws, s0, times, tol = problem
    try:
        run = cb.simulate(ws, s0, times, tol)
    except StiffnessError:
        assume(False)  # the oracle has no rule for a collapsed step
    assert _same_states(run.states, oracle_simulate(ws, s0, times, tol))


@ORACLE_CONFIGS
def test_interpolated_snapshots_match_clamped_oracle(text, x_min):
    # The oracle ends a step at every snapshot; simulate interpolates them.
    # Both are within the tolerance-level local error of the exact flow, so
    # at rel_tol = 1e-8 they agree to 2e-8, twice rel_tol, in the weighted
    # norm relative to the state and in dust relative to rho (measured:
    # 7.5e-9 and 9.6e-10 at worst, on A5).
    ws, s0, times, _ = _problem(text, x_min)
    tol = Tolerances(rel_tol=1e-8)
    out, ref = cb.simulate(ws, s0, times, tol), oracle_simulate(ws, s0, times, tol)
    weights = ws.error_weights
    assert [s.time for s in out.states] == [s.time for s in ref] == list(times)
    for got, want in zip(out.states, ref):
        gap = float(np.sum(weights * np.abs(got.contents - want.contents)))
        assert gap <= 2e-8 * float(np.sum(weights * np.abs(want.contents)))
        assert abs(got.dust_mass - want.dust_mass) <= 2e-8 * out.rho


def test_clip_step_drops_rates_and_matches_oracle(clip_problem):
    ws, s0 = clip_problem
    out, dt_used, dt_next, next_rates, _, _ = cb.step(ws, s0, 0.1, Tolerances())
    ref, ref_dt, ref_next, _ = oracle_step(ws, s0, 0.1, Tolerances())
    assert out.clip_mass > 0.0
    assert next_rates is None
    assert _same_states([out], [ref])
    assert (dt_used, dt_next) == (ref_dt, ref_next)
    times, loose = np.array([0.0, 10.0]), Tolerances(rel_tol=1e-4)
    run = cb.simulate(ws, s0, times, loose)
    assert _same_states(run.states, oracle_simulate(ws, s0, times, loose))


def test_the_clip_cap_keeps_steps_after_positivity_refusals_cheap(clip_problem, monkeypatch):
    # On the clip problem almost every rejected attempt passes the error
    # test and fails only the positivity test.  Growing dt 5x after such a
    # step only to halve it again threw away most RHS calls (6888 in 335
    # accepted steps, under the earlier floor of -1e-14 max|c|).  Capping
    # dt_next at dt_used after a refusal that only positivity made took 4145
    # in 333, and with no growth after a clipped step either, 2935 in 416
    # (3230 in 459 with Gustafsson's predictive step size).  The clip cap and
    # the predictor do that cap's work alone: 3239 calls in 461 steps under
    # the per-step mass cap, and some step after a rejection still keeps
    # dt_next at dt_used.
    ws, s0 = clip_problem
    times, loose = np.array([0.0, 10.0]), Tolerances(rel_tol=1e-4)
    steps, real_step = [], integrate.step

    def recorded(workspace, state, dt_target, tol, rates=None, history=None, stages=None):
        result = real_step(workspace, state, dt_target, tol, rates, history, stages)
        steps.append((dt_target, result[1], result[2]))
        return result

    monkeypatch.setattr(integrate, "step", recorded)
    run, calls = _counted_simulate(monkeypatch, ws, s0, times, loose)
    assert calls <= 4200
    assert any(used < target and following == used for target, used, following in steps)
    assert _same_states(run.states, oracle_simulate(ws, s0, times, loose))


def test_growth_stops_after_a_clip_and_resumes_after_a_step_that_did_not_clip(clip_problem, monkeypatch):
    # a step that had to clip stands at the positivity limit: the next one
    # grows no larger; after a step that did not clip, dt grows again
    ws, s0 = clip_problem
    _, _, steps = _recorded_simulate(monkeypatch, ws, s0, np.array([0.0, 10.0]), Tolerances(rel_tol=1e-4))
    clipped = [step for step in steps if step[3]]
    assert clipped and all(following <= used for _, used, following, _ in clipped)
    assert any(
        before[3] and not after[3] and after[2] > after[1] for before, after in zip(steps, steps[1:])
    )


def test_predictive_step_follows_a5s_shrinking_steps(monkeypatch):
    # A5's cascade shrinks the steps by about 12% per step, which the
    # error-based factor alone meets only after a rejection: 1,322 RHS calls
    # at x_min = 1e-8 without Gustafsson's predictor, 1,106 with it
    ws, s0, times, tol = _problem(A5_CONFIG, 1e-8)
    _, calls = _counted_simulate(monkeypatch, ws, s0, times, tol)
    assert calls <= 1150
    # at 1e-5, 15 attempts after the first step were rejected without it, 1 with it
    ws, s0, times, tol = _problem(A5_CONFIG, 1e-5)
    _, _, steps = _recorded_simulate(monkeypatch, ws, s0, times, tol)
    assert sum(round(math.log2(target / used)) for target, used, *_ in steps[1:]) <= 2


@pytest.mark.parametrize("text, expect", [(A5_CONTROL_CONFIG, 38), (A1_CONFIG, 98)], ids=["A5-control", "A1"])
def test_predictive_step_keeps_the_call_count_of_runs_that_do_not_shrink(text, expect, monkeypatch):
    ws, s0, times, tol = _problem(text)
    _, calls = _counted_simulate(monkeypatch, ws, s0, times, tol)
    assert calls == expect


@pytest.mark.parametrize("problem", ["a5", "clip"])
def test_predictive_step_only_shortens_the_error_based_step(problem, clip_problem, monkeypatch):
    # each step taken again from the same inputs with no history proposes
    # the error-based f_I dt alone, growth caps included
    if problem == "a5":
        ws, s0, times, tol = _problem(A5_CONFIG, 1e-5)
    else:
        (ws, s0), times, tol = clip_problem, np.array([0.0, 10.0]), Tolerances(rel_tol=1e-4)
    taken, real_step = [], integrate.step

    def recorded(workspace, state, dt_target, tol, rates=None, history=None, stages=None):
        result = real_step(workspace, state, dt_target, tol, rates, history, stages)
        taken.append((state, dt_target, rates, history, result))
        return result

    monkeypatch.setattr(integrate, "step", recorded)
    cb.simulate(ws, s0, times, tol)
    monkeypatch.setattr(integrate, "step", real_step)
    assert taken[0][3] is None and all(history is not None for *_, history, _ in taken[1:])
    shorter = 0
    for state, dt_target, rates, history, (_, dt_used, dt_next, *_) in taken:
        _, alone_used, alone_next, *_ = real_step(ws, state, dt_target, tol, rates)
        assert alone_used == dt_used and dt_next <= alone_next
        shorter += dt_next < alone_next
    assert shorter > 0


# F2 of the ROADMAP: partial shattering, where dust takes most of the mass
# but not all of it and the small cells stay populated
F2_CONFIG = (
    A5_CONFIG.replace("kernel.lambda1 = 0", "kernel.lambda1 = 0.4")
    .replace("kernel.lambda2 = 0", "kernel.lambda2 = 0.4")
    .replace("daughter.k0 = 0.6", "daughter.k0 = 0.9")
)

# F8's first row of the ROADMAP: LocalExistence physics at x_min = 1e-10, run
# up to 10 T_k0.  The emptying top cells hold the explicit step at the
# positivity limit: it clips 8.1e-12 rho of mass into existence in 45,828 RHS
# calls (2.097e-5 rho, 21 times the mass budget, in 22,062 while a step was
# refused only below -1e-14 max|c|)
F8_CONFIG = """
kernel.lambda1 = 0.3
kernel.lambda2 = 0.3
daughter.nu = -1.2
daughter.k0 = 0.25
grid.x_min = 1e-10
grid.x_max = 10
grid.n_cells = 220
init.kind = exponential
init.mass = 1
init.mean = 1
time.t_end = 0.6175
time.snapshots = 2
"""


def test_partial_shattering_at_the_positivity_limit_passes_verification(monkeypatch):
    # Under the earlier floor of -1e-14 max|c|, growing dt after each clipped
    # step only to halve it again took 16,811 RHS calls here and clipped
    # 4.1e-6 rho of mass into existence, beyond the mass budget; with no
    # growth after a clip it took 8,749 and 6.1e-8, and 6,013 and 3.2e-8 with
    # Gustafsson's predictive step size (19,329 and 1.0e-5 with the predictor
    # but with no cap after a clip).  The per-step mass cap takes 6,489 and
    # 9.6e-13.
    ws, s0, times, tol = _problem(F2_CONFIG, 1e-8)
    run, calls = _counted_simulate(monkeypatch, ws, s0, times, tol)
    assert calls <= 10_000
    assert float(np.max(run.clip)) <= 1e-6 * run.rho
    failed = [v for v in cb.run_verification(run) if not v["passed"]]
    assert failed == []


def test_no_accepted_step_clips_more_than_its_share_of_the_mass_budget(monkeypatch):
    # F2 at x_min = 1e-10 clips on most of its 4,693 steps.  Each may create
    # at most MASS_BUDGET / MAX_STEPS of M_1 + dust at its start, so no run
    # that ends within MAX_STEPS breaks the budget through clipping; the
    # allowance beside it is the rounding of the running clip_mass sum.
    ws, s0, times, tol = _problem(F2_CONFIG, 1e-10)
    share = integrate.MASS_BUDGET / integrate.MAX_STEPS
    steps, real_step = [], integrate.step

    def recorded(workspace, state, dt_target, tol, rates=None, history=None, stages=None):
        result = real_step(workspace, state, dt_target, tol, rates, history, stages)
        mass = float((ws.grid.reps * state.contents).sum()) + state.dust_mass
        clip = result[0].clip_mass
        steps.append((clip - state.clip_mass, share * mass + 2.0 * np.spacing(clip)))
        return result

    monkeypatch.setattr(integrate, "step", recorded)
    cb.simulate(ws, s0, times, tol)
    assert any(added > 0.0 for added, _ in steps)
    assert all(added <= cap for added, cap in steps)


def test_step_returns_rates_at_new_state(small_problem):
    ws, s0 = small_problem
    out, _, _, (d_contents, d_dust), _, _ = cb.step(ws, s0, 1e-3, Tolerances())
    expect = cb.rhs_arrays(ws, out.contents)
    assert np.array_equal(d_contents, expect[0])
    assert d_dust == expect[1]


@pytest.mark.parametrize(
    "case, dt_target", [("accepted", 1e-3), ("halved", 1e3), ("clip", 0.1)], ids=["accepted", "halved", "clip"]
)
def test_step_on_an_earlier_steps_buffers_is_bitwise_a_fresh_step(small_problem, clip_problem, case, dt_target):
    ws, s0 = clip_problem if case == "clip" else small_problem
    tol = Tolerances()
    fresh = cb.step(ws, s0, dt_target, tol)
    earlier = cb.step(ws, s0, 1e-4, tol)[4]  # another dt's stages; poisoned, so nothing is read unwritten
    for buffer in earlier[:4]:
        buffer.fill(np.nan)
    reused = cb.step(ws, s0, dt_target, tol, None, None, earlier)
    assert reused[4] is earlier
    if case == "halved":
        assert fresh[1] < dt_target / 2.0
    assert (fresh[0].clip_mass > 0.0) == (case == "clip") == (fresh[3] is None)
    assert _same_states([reused[0]], [fresh[0]])
    assert reused[1:3] == fresh[1:3] and reused[5] == fresh[5]
    if fresh[3] is not None:
        assert reused[3][0].tobytes() == fresh[3][0].tobytes() and reused[3][1] == fresh[3][1]
    for got, want in zip(reused[4][:2], fresh[4][:2]):  # the (7, N) stack and the seven dust rates
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("problem", ["a1", "clip"])
def test_simulate_rhs_call_count(problem, clip_problem, monkeypatch):
    if problem == "a1":
        config = cb.parse_config_text(A1_CONFIG)
        (ws, s0), times, tol = cb.build_problem(config), config.snapshot_times, None
    else:
        (ws, s0), times, tol = clip_problem, np.linspace(0.0, 10.0, 3), Tolerances(rel_tol=1e-4)
    tally = {"rhs": 0, "accepted": 0, "rejected": 0, "clips": 0, "last_clipped": False}
    real_rhs, real_step = integrate.rhs_arrays, integrate.step

    def counted_rhs(workspace, contents, out=None):
        tally["rhs"] += 1
        return real_rhs(workspace, contents, out)

    def counted_step(workspace, state, dt_target, tol, rates=None, history=None, stages=None):
        result = real_step(workspace, state, dt_target, tol, rates, history, stages)
        tally["accepted"] += 1
        tally["rejected"] += round(math.log2(dt_target / result[1]))
        tally["clips"] += result[3] is None
        tally["last_clipped"] = result[3] is None
        return result

    monkeypatch.setattr(integrate, "rhs_arrays", counted_rhs)
    monkeypatch.setattr(integrate, "step", counted_step)
    cb.simulate(ws, s0, times, tol)
    # one k1 to start and one Euler probe that picks the first dt (the probe
    # is the +1 of Hairer, Norsett & Wanner's starting step), k2 to k7 per
    # attempt, and a fresh k1 after a clip, unless the clip was on the last
    # step, which no step follows
    fresh = tally["clips"] - tally["last_clipped"]
    expect = 6 * tally["accepted"] + 1 + 1 + fresh + 6 * tally["rejected"]
    assert tally["rhs"] == expect
    if problem == "clip":
        assert tally["clips"] > 0 and tally["rejected"] > 0


def _recorded_simulate(monkeypatch, ws, s0, times, tol):
    """simulate's output, its RHS calls and (dt_target, dt_used, dt_next, clipped) per step."""
    steps, real_step = [], integrate.step

    def recorded(workspace, state, dt_target, tol, rates=None, history=None, stages=None):
        result = real_step(workspace, state, dt_target, tol, rates, history, stages)
        steps.append((dt_target, result[1], result[2], result[3] is None))
        return result

    monkeypatch.setattr(integrate, "step", recorded)
    out, calls = _counted_simulate(monkeypatch, ws, s0, times, tol)
    monkeypatch.setattr(integrate, "step", real_step)
    return out, calls, steps


def _hnw_first_dt(ws, c0, horizon, tol):
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4), with
    exactly rounded sums, in the error norm over the tolerance at c0."""
    weights = ws.error_weights
    scale = tol.abs_tol + tol.rel_tol * math.fsum(weights * np.abs(c0))

    def norm(x):
        return math.fsum(weights * np.abs(x)) / scale

    f0 = cb.rhs_arrays(ws, c0)[0]
    d0, d1 = norm(c0), norm(f0)
    h0 = 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6
    d2 = norm(cb.rhs_arrays(ws, c0 + h0 * f0)[0] - f0) / h0
    h1 = (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 1e-15 else max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, h1, horizon)


def test_first_dt_is_the_hnw_starting_step_on_a1(monkeypatch):
    ws, s0, times, tol = _problem(A1_CONFIG)
    _, calls, steps = _recorded_simulate(monkeypatch, ws, s0, times, tol)
    expect = _hnw_first_dt(ws, s0.contents, times[-1] - times[0], tol)
    assert steps[0][0] == pytest.approx(expect, rel=1e-12)
    # far above 1e-4 of the horizon, a fixed start that needs steps of 5x growth to get here
    assert steps[0][0] > 100 * 1e-4 * (times[-1] - times[0])
    assert calls == 2 + 6 * len(steps)  # no step rejected, none clipped


def test_first_dt_of_a_zero_state_takes_the_fallback(small_problem, monkeypatch):
    # d0 = d1 = d2 = 0: h0 = 1e-6 and h1 = max(1e-6, 1e-3 h0) = 1e-6
    ws, _ = small_problem
    zero = State(np.zeros(ws.grid.n_cells))
    out, calls, steps = _recorded_simulate(monkeypatch, ws, zero, np.array([0.0, 0.5]), Tolerances())
    assert steps[0][0] == 1e-6
    assert np.all(out.contents == 0.0) and out.dust[-1] == 0.0
    assert calls == 2 + 6 * len(steps)


def test_first_dt_stays_within_a_tiny_horizon(small_problem, monkeypatch):
    ws, s0 = small_problem
    horizon = 1e-9
    assert _hnw_first_dt(ws, s0.contents, math.inf, Tolerances()) > horizon
    out, calls, steps = _recorded_simulate(monkeypatch, ws, s0, np.array([0.0, horizon]), Tolerances())
    assert [target for target, *_ in steps] == [horizon]
    assert calls == 2 + 6
    assert out.times[-1] == out.state(1).time == horizon


def test_first_dt_falls_back_to_the_horizon_where_the_rule_gives_no_step(small_problem):
    # rel_tol = 0 and abs_tol = 1e-300: the norms of a large state overflow,
    # so h0 is NaN; the run starts from the horizon, not from dt NaN
    ws, s0 = small_problem
    tol = Tolerances(rel_tol=0.0, abs_tol=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dt, _ = integrate._first_dt(ws, State(1e100 * s0.contents), 0.5, tol)
    assert dt == 0.5


def test_one_snapshot_run_costs_no_rhs(small_problem, monkeypatch):
    ws, s0 = small_problem
    out, calls = _counted_simulate(monkeypatch, ws, s0, np.array([0.0]), Tolerances())
    assert calls == 0
    assert np.array_equal(out.contents[0], s0.contents)


@pytest.mark.parametrize("kind", ["nan", "overflow"])
def test_non_finite_initial_rates_raise_before_the_probe(small_problem, monkeypatch, kind):
    # a NaN content, or contents near 1e200 whose quadratic rates overflow:
    # no first dt can be chosen, so the run stops after the one call at c0
    ws, s0 = small_problem
    bad = State(1e200 * s0.contents)
    if kind == "nan":
        bad = s0.copy()
        bad.contents[3] = np.nan
    calls = []
    real = integrate.rhs_arrays

    def counted(workspace, contents, out=None):
        calls.append(1)
        return real(workspace, contents, out)

    monkeypatch.setattr(integrate, "rhs_arrays", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError) as info:
            cb.simulate(ws, bad, np.array([0.0, 0.5]))
    assert info.value.reason == "non-finite error estimate"
    assert info.value.time == 0.0
    assert len(calls) == 1


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

    def counted_rhs(workspace, contents, out=None):
        calls[0] += 1
        return real_rhs(workspace, contents, out)

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
    state, dt, rates, history, clipped = s0, 0.1, None, None, 0
    reps, rho = ws.grid.reps, float(np.sum(ws.grid.reps * s0.contents))
    for _ in range(40):
        new, dt_used, dt, rates, stages, history = cb.step(ws, state, dt, tol, rates, history)
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
    with pytest.raises(cb.DomainError) as info:
        cb.picard_solve(ws, s0, 0.01, max_iter=40, tol=1e-10)
    assert info.value.param == "truncation"


@pytest.mark.parametrize(
    "kwargs, param",
    [
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-10}, "tol"),
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": math.nan}, "max_iter"),
        ({"max_iter": math.inf}, "max_iter"),
        ({"max_iter": True}, "max_iter"),
        ({"max_iter": False}, "max_iter"),
    ],
)
def test_picard_refuses_bad_settings_before_any_rhs(truncated_problem, monkeypatch, kwargs, param):
    ws, s0 = truncated_problem
    calls = []
    monkeypatch.setattr(integrate, "rhs_arrays", lambda *a: calls.append(a))
    with pytest.raises(cb.DomainError) as info:
        cb.picard_solve(ws, s0, 0.01, **({"max_iter": 40, "tol": 1e-10} | kwargs))
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
        "picard": lambda: cb.picard_solve(ws, s0, value, max_iter=40, tol=1e-10),
        "step": lambda: cb.step(ws, s0, value, Tolerances()),
    }[solver]
    with pytest.raises(cb.DomainError) as info:
        run()
    assert info.value.param == param
    assert calls == []


@pytest.mark.parametrize(
    "times",
    [[], [0.0, 0.0], [0.0, 0.5, 0.25], [0.5, 1.0]],
    ids=["empty", "repeated", "decreasing", "first-time-not-state-time"],
)
def test_simulate_refuses_bad_snapshot_meshes_before_any_rhs(truncated_problem, monkeypatch, times):
    ws, s0 = truncated_problem
    calls = []
    monkeypatch.setattr(integrate, "rhs_arrays", lambda *a: calls.append(a))
    with pytest.raises(cb.DomainError) as info:
        cb.simulate(ws, s0, times)
    assert info.value.param == "snapshot_times"
    assert calls == []


def test_picard_integration_matrix():
    w = integrate._PICARD_W
    assert np.all(w[0] == 0.0)
    # exact on polynomials of degree <= 8 at every node theta_i = (1 - cos(pi i / 8)) / 2,
    # taken as sin^2(pi i / 16) to avoid the cancellation near 0
    theta = np.sin(np.pi * np.arange(9) / 16.0) ** 2
    for m in range(9):
        assert np.max(np.abs(w @ theta**m - theta ** (m + 1) / (m + 1))) <= 1e-15, m
    # the last row is the Clenshaw-Curtis rule, with end weights 1 / (2 (8^2 - 1)) on [0, 1]
    last = w[-1]
    assert np.all(last > 0.0)
    assert np.array_equal(last, last[::-1])
    assert abs(last.sum() - 1.0) <= 1e-15
    assert last[0] == pytest.approx(1.0 / 126.0, rel=1e-15)


def _fma_chain(weights, rates):
    """The node sum with each multiply and add fused into one rounding."""
    out = np.empty((weights.shape[0], rates.shape[1]))
    for i in range(out.shape[0]):
        for n in range(out.shape[1]):
            total = 0.0
            for j in range(rates.shape[0]):
                total = float(Fraction(weights[i, j]) * Fraction(rates[j, n]) + Fraction(total))
            out[i, n] = total
    return out


@pytest.mark.parametrize("layout", ["rows", "one row, tiled"])
def test_picard_node_sum_is_the_in_order_chain(layout):
    # picard_solve's node sum np.einsum("ij,jn->in", W, R) must add the nodes in
    # order j = 0 .. 8, each product rounded on its own, into a zeroed output:
    # the arithmetic of the per-node oracle.  The products alternate in sign and
    # nearly cancel, so a fused multiply-add or another summation order changes
    # most entries.
    rng = np.random.default_rng(3)
    weights = rng.uniform(0.5, 1.5, (9, 9))
    weights[:, 1::2] *= -1.0
    row = rng.uniform(1.0, 2.0, 32)
    if layout == "rows":
        rates = row * (1.0 + 1e-3 * rng.standard_normal((9, 32)))
    else:
        # the first Picard iterate: one state's rates stand for every node.  As a
        # stride-0 np.broadcast_to view they make einsum reorder the sum (276 of
        # these 288 entries differ on numpy 2.4.6, x86-64), so picard_solve tiles them
        rates = np.tile(row, (9, 1))

    def node_sum(order):
        total = np.zeros((9, 32))
        for j in order:
            total += weights[:, j : j + 1] * rates[j]
        return total

    chain = node_sum(range(9))
    # the inputs can tell these apart
    assert np.count_nonzero(_fma_chain(weights, rates) != chain) > chain.size // 4
    assert np.count_nonzero(node_sum(reversed(range(9))) != chain) > chain.size // 4
    got = np.einsum("ij,jn->in", weights, rates)
    assert got.tobytes() == chain.tobytes(), (
        "np.einsum no longer sums the nodes in order with separately rounded products; "
        "likely a numpy build whose einsum fuses multiply and add (as on aarch64 NEON), "
        "so picard_solve's bits differ from the per-node oracle"
    )



def test_rk_stage_sum_is_the_oracle_chain():
    # step's and interpolate's np.einsum("j,jn->n", dt * coeffs, stack) plus the
    # base vector must be the seven-stage oracle's _combine: the non-zero a_j in
    # stage order, each product rounded on its own, then the base.  The zero
    # coefficient (as b_2, e_2 and the dense output's stage-2 weight) adds +-0;
    # columns of -0.0 and of subnormal rates must come out as the oracle's.
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(0.5, 1.5, 7)
    coeffs[1::2] *= -1.0
    coeffs[1] = 0.0
    stack = rng.uniform(1.0, 2.0, 48) * (1.0 + 1e-3 * rng.standard_normal((7, 48)))
    stack[:, :4] = -0.0
    stack[2, 4:8] = -0.0
    stack[:, 8:12] = 5e-324 * rng.integers(1, 1000, (7, 4))
    base = rng.uniform(0.0, 1e-3, 48)
    base[:2] = 0.0  # contents are never -0.0: builders and clips write +0.0
    dt = 0.3
    scaled = dt * coeffs

    def stage_sum(order):
        total = np.zeros(48)
        for j in order:
            total += scaled[j] * stack[j]
        return total

    # the inputs can tell the in-order chain from a fused or reordered one
    chain = stage_sum(range(7))
    assert np.count_nonzero(_fma_chain(scaled[None], stack)[0] != chain) > chain.size // 4
    assert np.count_nonzero(stage_sum(reversed(range(7))) != chain) > chain.size // 4
    oracle = _combine([(j, a) for j, a in enumerate(coeffs) if a], stack, dt) + base
    got = np.einsum("j,jn->n", scaled, stack)
    got += base
    assert got.tobytes() == oracle.tobytes(), (
        "np.einsum no longer sums the stages in order with separately rounded products; "
        "likely a numpy build whose einsum fuses multiply and add (as on aarch64 NEON), "
        "so integrate.step's bits differ from the seven-stage RK oracle, and "
        "picard_solve's from the per-node Picard oracle"
    )

def test_picard_batches_one_rhs_call_per_iteration(truncated_problem, monkeypatch):
    ws, s0 = truncated_problem
    shapes = []
    real = integrate.rhs_arrays

    def counted(workspace, contents, out=None):
        shapes.append(contents.shape)
        return real(workspace, contents, out)

    monkeypatch.setattr(integrate, "rhs_arrays", counted)
    result = cb.picard_solve(ws, s0, 0.05, max_iter=40, tol=1e-12)
    # one call per iteration: the first iterate is the initial state at every
    # node, evaluated once, and every later one all nine nodes in one batch; the
    # dust comes from the same calls
    n = ws.grid.n_cells
    assert shapes == [(n,)] + [(9, n)] * (result.iterations - 1)


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


@pytest.fixture(scope="module")
def a8_tight_windows():
    """Ten chained A8 windows: (workspace, [(start state, result at tol 1e-15)])."""
    ws, state = cb.build_problem(cb.parse_config_text(A8_CONFIG))
    windows = []
    for _ in range(10):
        tight = cb.picard_solve(ws, state, 0.1, max_iter=40, tol=1e-15)
        windows.append((state, tight))
        state = tight.state
    return ws, windows


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
def test_picard_stops_within_tol_of_the_fixed_point(a8_tight_windows, tol):
    # the stop on diff q / (1 - q) lands within tol of the fixed point, in the
    # weighted norm, never later than the stop on diff <= tol, and earlier somewhere
    ws, windows = a8_tight_windows
    saved = 0
    for start, tight in windows:
        result = cb.picard_solve(ws, start, 0.1, max_iter=40, tol=tol)
        distance = cb.weighted_distance(result.state, tight.state, ws.grid, ws.law.k0)
        assert distance <= tol
        # the iterates do not depend on tol, so the tight run's diffs hold the old rule's stop
        assert [d.hex() for d in result.diffs] == [d.hex() for d in tight.diffs[: result.iterations]]
        old_rule = next(k for k, diff in enumerate(tight.diffs, 1) if diff <= tol)
        assert result.iterations <= old_rule
        saved += old_rule - result.iterations
    assert saved > 0


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_picard_keeps_mass_plus_dust_at_any_tolerance(tol):
    # contents and dust integrate the same calls' rates, so M_1 + dust is
    # kept to round-off however early the iteration stops
    ws, state0 = cb.build_problem(cb.parse_config_text(A8_CONFIG))
    rho = cb.moment(ws.grid, state0, 1.0)
    state = cb.picard_solve(ws, state0, 0.1, max_iter=40, tol=tol).state
    assert abs(cb.moment(ws.grid, state, 1.0) + state.dust_mass - rho) <= 1e-14 * rho


def test_picard_window_peaks_at_the_iterate_plus_three_batch_arrays():
    # one 0.1 window of A8's physics at 20,000 cells: the (9, N) iterate plus the
    # right-hand side's three batch arrays, 4.11 batches measured; a distance
    # scratch kept into the next call adds one more (5.11). numpy's iteration
    # buffers, at most 8192 doubles, are under 1% of a batch here
    n = 20_000
    config = cb.parse_config_text(A8_CONFIG.replace("grid.n_cells = 64", f"grid.n_cells = {n}"))
    ws, state0 = cb.build_problem(config)
    tracemalloc.start()
    try:
        result = cb.picard_solve(ws, state0, 0.1, config.picard_max_iter, config.picard_tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations > 1
    assert peak <= 4.5 * (9 * n * 8)


def test_picard_zero_horizon_returns_a_copy_of_the_start_with_no_rhs(truncated_problem, monkeypatch):
    ws, s0 = truncated_problem
    calls = []
    monkeypatch.setattr(integrate, "rhs_arrays", lambda *a: calls.append(a))
    result = cb.picard_solve(ws, s0, 0.0, max_iter=40, tol=1e-10)
    assert _same_states([result.state], [s0]) and result.state.contents is not s0.contents
    assert (result.diffs, result.iterations, calls) == ([], 0, [])


def test_picard_zero_state_is_fixed_point(truncated_problem):
    ws, _ = truncated_problem
    zero = State(np.zeros(ws.grid.n_cells))
    result = cb.picard_solve(ws, zero, 0.05, max_iter=40, tol=1e-10)
    assert np.all(result.state.contents == 0.0)
    assert result.state.dust_mass == 0.0


def test_picard_matches_rk_integrator(truncated_problem):
    ws, s0 = truncated_problem
    ref = cb.simulate(
        ws, s0, np.array([0.0, 0.05]), Tolerances(rel_tol=1e-11, abs_tol=1e-14)
    ).states[-1]
    result = cb.picard_solve(ws, s0, 0.05, max_iter=40, tol=1e-12)
    dist = cb.weighted_distance(result.state, ref, ws.grid, ws.law.k0)
    assert dist <= 1e-10
    assert result.state.dust_mass == pytest.approx(ref.dust_mass, rel=1e-10)


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


# A truncated kernel on a mass so large that the first iterate's rates overflow
PICARD_OVERFLOW_CONFIG = """\
kernel.truncation_n = 4
grid.x_min = 0.25
grid.x_max = 4
grid.n_cells = 16
init.mass = 1e150
time.t_end = 0.1
time.snapshots = 2
"""


def test_picard_overflow_raises_contraction_error_and_no_warning():
    config = cb.parse_config_text(PICARD_OVERFLOW_CONFIG)
    ws, s0 = cb.build_problem(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractionError) as info:
            cb.picard_solve(ws, s0, config.t_end, config.picard_max_iter, config.picard_tol)
    assert math.isnan(info.value.residual)
