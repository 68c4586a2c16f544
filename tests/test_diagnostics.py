import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collbreak as cb
from collbreak import DaughterLaw, InputError, KernelSpec, Regime, RunOutput, State, diagnostics
from test_acceptance import A1_CONFIG, A5_CONFIG, A8_CONFIG, moment_identity_residual
from test_integrate import F2_CONFIG, F8_CONFIG


def test_weighted_distance_basics(small_problem):
    ws, s0 = small_problem
    grid = ws.grid
    assert cb.weighted_distance(s0, s0, grid, 0.5) == 0.0
    doubled = State(2.0 * s0.contents)
    w = cb.weight_vector(grid, 0.5)
    assert cb.weighted_distance(s0, doubled, grid, 0.5) == pytest.approx(
        float(np.sum(w * s0.contents)), rel=1e-14
    )


def test_weighted_distance_is_a_metric(small_problem):
    ws, _ = small_problem
    grid = ws.grid
    rng = np.random.default_rng(41)
    for _ in range(50):
        a, b, c = (State(rng.uniform(size=grid.n_cells)) for _ in range(3))
        dab = cb.weighted_distance(a, b, grid, 0.5)
        dba = cb.weighted_distance(b, a, grid, 0.5)
        dac = cb.weighted_distance(a, c, grid, 0.5)
        dcb = cb.weighted_distance(c, b, grid, 0.5)
        assert dab == dba
        assert dab <= dac + dcb + 1e-15


def test_weighted_distance_grid_mismatch(small_problem):
    ws, s0 = small_problem
    other = cb.build_grid(0.1, 1.0, 7)
    with pytest.raises(InputError):
        cb.weighted_distance(s0, s0, other, 0.5)


def test_moment_identity_residual_k1_vanishes(small_run):
    residual = moment_identity_residual(small_run, 1.0)
    assert np.max(np.abs(residual)) <= 1e-8


def test_moment_identity_residual_divergent_order(small_run):
    with pytest.raises(cb.DivergentMomentError):
        moment_identity_residual(small_run, 0.1)


def test_sublinear_moment_grows_early(small_run):
    # fragmentation pushes sublinear moments up from the start
    m = small_run.moments(0.5)
    assert m[1] > m[0]


def test_integrable_control_grows_sublinear_moment():
    # uniform daughter law, monodisperse start: dM_0.5/dt > 0 early on
    grid = cb.build_grid(1e-2, 2.0, 32)
    ws = cb.precompute(grid, KernelSpec(0.6, 0.6), DaughterLaw(0.0, 0.5))
    s0 = cb.monodisperse_state(grid, 1.0, 1.0)
    out = cb.simulate(ws, s0, np.linspace(0.0, 0.1, 5))
    dmdt = np.gradient(out.moments(0.5), out.times)
    assert dmdt[0] > 0.0 and dmdt[1] > 0.0


def test_growth_check_degenerate_at_k_equal_one(nonexistence_run):
    assert cb.nonexistence_growth_check(nonexistence_run, 1.0)


def test_c1_bound_check_pass_and_input_errors(small_run):
    report = cb.existence_bounds(
        small_run.kernel,
        small_run.law,
        small_run.rho,
        small_run.moments(0.5)[0],
        small_run.moments(1.5)[0],
    )
    ok, margin = cb.c1_bound_check(small_run, report, float(small_run.times[-1]))
    assert ok and margin > 0.0
    fake = cb.BoundsReport(regime=Regime.NON_EXISTENCE)
    with pytest.raises(InputError):
        cb.c1_bound_check(small_run, fake, 0.1)


def test_c1_bound_check_rejects_horizon_past_blowup():
    kernel = KernelSpec(0.3, 0.3)
    law = DaughterLaw(-1.1, 0.2)
    grid = cb.build_grid(1e-3, 10.0, 32)
    ws = cb.precompute(grid, kernel, law)
    s0 = cb.monodisperse_state(grid, 1.0, 1.0)
    out = cb.simulate(ws, s0, np.linspace(0.0, 0.01, 3))
    report = cb.existence_bounds(
        kernel, law, out.rho, out.moments(0.2)[0], out.moments(1.2)[0]
    )
    with pytest.raises(InputError):
        cb.c1_bound_check(out, report, 2.0 * report.t_k0)


@pytest.fixture(scope="module")
def nonexistence_run():
    kernel = KernelSpec(0.0, 0.0)
    law = DaughterLaw(-1.5, 0.6)
    grid = cb.build_grid(1e-2, 2.0, 55)
    ws = cb.precompute(grid, kernel, law)
    s0 = cb.monodisperse_state(grid, 1.0, 1.0)
    return cb.simulate(ws, s0, np.linspace(0.0, 0.3, 16))


def test_nonexistence_growth_check(nonexistence_run):
    assert cb.nonexistence_growth_check(nonexistence_run, 0.6)
    assert cb.nonexistence_growth_check(nonexistence_run, 0.99)


def test_nonexistence_growth_check_refuses_a_single_snapshot(nonexistence_run):
    run = nonexistence_run
    single = dataclasses.replace(
        run, times=run.times[:1], contents=run.contents[:1], dust=run.dust[:1], clip=run.clip[:1]
    )
    with pytest.raises(InputError, match=r"^need at least two snapshots for time differencing$"):
        cb.nonexistence_growth_check(single, 0.6)


def test_nonexistence_growth_check_refuses_an_order_above_one(nonexistence_run):
    with pytest.raises(InputError, match=r"^k=1\.5 above 1, outside the non-existence theorem$"):
        cb.nonexistence_growth_check(nonexistence_run, 1.5)


def test_c1_bound_check_refuses_a_horizon_before_the_first_snapshot(small_run):
    report = cb.existence_bounds(
        small_run.kernel, small_run.law, small_run.rho, small_run.moments(0.5)[0], small_run.moments(1.5)[0]
    )
    later = dataclasses.replace(small_run, times=small_run.times + 1.0)
    with pytest.raises(InputError, match=r"^no snapshots at or before the requested horizon$"):
        cb.c1_bound_check(later, report, 0.5)


def test_nonexistence_growth_check_regime_mismatch(small_run):
    with pytest.raises(InputError):
        cb.nonexistence_growth_check(small_run, 0.6)


def test_tail_monotonicity_and_mass_budget(nonexistence_run):
    ok, drift = cb.mass_budget_check(nonexistence_run)
    assert ok and drift <= 1e-6
    for k in (1.0, 1.6):
        ok, worst = cb.tail_monotonicity_check(nonexistence_run, k)
        assert ok, f"tail excess {worst} at k={k}"


def test_run_verification_battery(nonexistence_run, small_run):
    for run in (nonexistence_run, small_run):
        verdicts = cb.run_verification(run)
        assert all(v["passed"] for v in verdicts), verdicts
    names = [v["check"] for v in cb.run_verification(nonexistence_run)]
    assert "nonexistence-growth" in names
    assert "small-size-envelope" in [
        v["check"] for v in cb.run_verification(small_run)
    ]


def test_run_verification_handles_single_snapshot():
    config = cb.parse_config_text("time.t_end = 0\ngrid.n_cells = 8\n")
    verdicts = cb.run_verification(cb.run(config))
    assert all(v["passed"] for v in verdicts)


# The two checks run_verification made before each was found implied by a
# kept one, written out as they were made: the oracles of the guard tests.
# Each returns (value, bound); the check passed when value <= bound.
def parent_superlinear(run):
    """Max growth of M_(1+k0) against 1e-8 rho."""
    m_high = run.moments(1.0 + run.law.k0)
    return float(np.max(m_high - m_high[0])), 1e-8 * run.rho


def parent_identity_k1(run):
    """Max |d(M_1 + dust)/dt| against 1e-6 rho max(1, 1/min_dt)."""
    residual = moment_identity_residual(run, 1.0)
    min_dt = float(np.min(np.diff(run.times)))
    return float(np.max(np.abs(residual))), 1e-6 * run.rho * max(1.0, 1.0 / min_dt)


def _stationary_run(grid, state0, snapshots=5):
    """A record that repeats ``state0``: tails and moments hold still, mass is kept."""
    contents = np.tile(state0.contents, (snapshots, 1))
    zeros = np.zeros(snapshots)
    law = DaughterLaw(-1.2, 0.5)
    return RunOutput(grid, KernelSpec(0.6, 0.6), law, np.linspace(0.0, 0.4, snapshots), contents, zeros, zeros)


def _superlinear_growth(run, rho_fraction):
    """``run`` with M_(1+k0) of its last snapshot grown by rho_fraction rho in the top cell."""
    contents = run.contents.copy()
    contents[-1, -1] += rho_fraction * run.rho / run.grid.reps[-1] ** (1.0 + run.law.k0)
    return dataclasses.replace(run, contents=contents)


# The mass, in rho, that F8 at x_min = 1e-10 and F2 at 1e-10 clipped into
# existence while ``step`` refused an attempt only below -1e-14 max|c|, and the
# first snapshot that held it.  Added to the dust of the real runs, which now
# keep the budget, it rebuilds the records that broke it.
F8_FLOOR_EXCESS = (2.097e-5, 1)
F2_FLOOR_EXCESS = (3.770e-6, 3)


def with_dust_excess(run, excess, first):
    """``run`` with ``excess`` rho added to the dust of snapshot ``first`` and every later one."""
    dust = run.dust.copy()
    dust[first:] += excess * run.rho
    return dataclasses.replace(run, dust=dust)


@pytest.fixture(scope="module")
def floor_runs():
    """The real F8 and F2 runs at x_min = 1e-10, each run once for the module."""
    return {
        "F8": cb.run(cb.parse_config_text(F8_CONFIG)),
        "F2-xmin1e-10": cb.run(cb.with_x_min(cb.parse_config_text(F2_CONFIG), 1e-10)),
    }


def test_f8_and_f2_at_x_min_1e_10_keep_the_budget_and_pass_every_check(floor_runs):
    for run in floor_runs.values():
        assert [v["check"] for v in cb.run_verification(run) if not v["passed"]] == []



def test_small_size_envelope_says_when_no_snapshot_reaches_it(floor_runs):
    # F8 snapshots t = 0 and 10 T_k0 alone, so its horizon 0.9 T_k0 holds the
    # initial data and nothing of the run: the check passes, as not reached
    envelope = {v["check"]: v for v in cb.run_verification(floor_runs["F8"])}["small-size-envelope"]
    assert envelope == {
        "check": "small-size-envelope",
        "passed": True,
        "detail": "not reached: no snapshot in (0, T=0.05558]",
    }
    # a run with snapshots inside the horizon keeps its margin, to the byte
    a1 = {v["check"]: v for v in cb.run_verification(cb.run(cb.parse_config_text(A1_CONFIG)))}
    assert a1["small-size-envelope"]["detail"] == "M_k0 margin 1.511e+05 below C1(T) at T=1"

def _guard_run(name, small_run, floor_runs):
    if name == "F8":
        return with_dust_excess(floor_runs[name], *F8_FLOOR_EXCESS)
    if name == "F2-xmin1e-10":
        return with_dust_excess(floor_runs[name], *F2_FLOOR_EXCESS)
    if name == "mass-added-at-last-snapshot":
        dust = small_run.dust.copy()
        dust[-1] += 2e-6 * small_run.rho
        return dataclasses.replace(small_run, dust=dust)
    x_min, x_max, size = (1e-3, 10.0, 1.0) if name == "superlinear-growth" else (9.0, 100.0, 30.0)
    grid = cb.build_grid(x_min, x_max, 16)
    return _superlinear_growth(_stationary_run(grid, cb.monodisperse_state(grid, size, 1.0)), 2e-8)


@pytest.mark.parametrize(
    "name, dropped, failed",
    [
        ("F8", "identity", ["mass-budget"]),
        ("F2-xmin1e-10", "identity", ["mass-budget"]),
        ("mass-added-at-last-snapshot", "identity", ["mass-budget"]),
        ("superlinear-growth", "superlinear", ["tail-monotone-k=1.5"]),
        ("superlinear-growth-x_min-above-1", "superlinear", ["tail-monotone-k=1.5"]),
    ],
)
def test_every_run_a_dropped_check_failed_still_fails_through_a_kept_one(
    small_run, floor_runs, name, dropped, failed
):
    run = _guard_run(name, small_run, floor_runs)
    value, bound = (parent_identity_k1 if dropped == "identity" else parent_superlinear)(run)
    assert value > bound
    assert [v["check"] for v in cb.run_verification(run) if not v["passed"]] == failed


def test_the_cap_holds_M_1_plus_k0_to_1e_8_rho_on_a_grid_above_1():
    # x_min^k0 = 3: without the cap the first edge would allow 3e-8 rho of growth
    grid = cb.build_grid(9.0, 100.0, 16)
    run = _stationary_run(grid, cb.monodisperse_state(grid, 30.0, 1.0))
    assert cb.tail_monotonicity_check(_superlinear_growth(run, 0.9e-8), 1.5)[0]
    ok, worst = cb.tail_monotonicity_check(_superlinear_growth(run, 2e-8), 1.5)
    assert not ok and worst == pytest.approx(2.0, rel=1e-6)


@st.composite
def _drifting_runs(draw):
    """Synthetic records: fragmentation that only lowers tails, one-signed drift within the budget and top-cell growth.

    x_min lies on either side of 1; the snapshot mesh is random and non-uniform.
    """
    x_min = 10.0 ** draw(st.floats(-8.0, 1.0))
    grid = cb.build_grid(x_min, x_min * 10.0 ** draw(st.floats(0.5, 2.5)), draw(st.integers(2, 40)))
    nu = draw(st.floats(-1.9, 0.0))
    law = DaughterLaw(nu, draw(st.floats(max(0.0, -nu - 1.0) + 0.01, 0.99)))
    kernel = KernelSpec(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    snapshots = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=snapshots - 1, max_size=snapshots - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    base = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=grid.n_cells, max_size=grid.n_cells))) + 1e-3

    def series(top):
        return np.array([0.0] + draw(st.lists(st.floats(0.0, top), min_size=snapshots - 1, max_size=snapshots - 1)))

    lost, drift, growth = np.sort(series(0.9)), series(1.0), series(1.0)
    contents = base * (1.0 - lost[:, None])
    rho = float(np.sum(grid.reps * base))
    budget = draw(st.floats(0.0, 1.0)) * 1e-6 * rho
    # what fragmentation takes from the grid goes to the dust, plus the drift
    dust = np.array([rho - np.sum(grid.reps * row) for row in contents]) + drift * budget
    contents[:, -1] += growth * 3e-8 * rho / grid.reps[-1] ** (1.0 + law.k0)
    return RunOutput(grid, kernel, law, times, contents, dust, np.zeros(snapshots))


@settings(max_examples=300, deadline=None, database=None)
@given(run=_drifting_runs())
def test_the_kept_checks_imply_the_dropped_ones(run):
    # Each implication holds in exact arithmetic.  A kept check and the
    # dropped one it implies sum the same terms in other orders, so their
    # verdicts may part only within that round-off: 8 n eps of the summed series.
    roundoff = 8 * run.grid.n_cells * np.finfo(float).eps
    if cb.mass_budget_check(run)[0]:
        peak, tol = parent_identity_k1(run)
        assert peak <= tol + roundoff * float(np.max(run.moments(1.0) + run.dust) / np.min(np.diff(run.times)))
    if cb.tail_monotonicity_check(run, 1.0 + run.law.k0)[0]:
        growth, bound = parent_superlinear(run)
        assert growth <= bound + roundoff * float(np.max(run.moments(1.0 + run.law.k0)))


def test_shattering_study_requires_three_points():
    config = cb.parse_config_text("time.t_end = 0.1\n")
    with pytest.raises(InputError):
        cb.shattering_study(config, [1e-2, 1e-3])


class FakeRun:
    """One snapshot: dust fraction ``frac`` of rho = 1, and M_1 + dust = 1 + ``drift``."""

    def __init__(self, frac, drift=0.0):
        self.dust = np.array([frac])
        self.rho = 1.0
        self.drift = drift

    def moments(self, k):
        assert k == 1.0
        return 1.0 + self.drift - self.dust


def test_shattering_study_verdicts_from_stub_runner(monkeypatch):
    config = cb.parse_config_text("init.kind = monodisperse\ninit.size = 1\n")

    # integrable-style leakage: two decades per decade of x_min
    monkeypatch.setattr(cb.diagnostics, "run_config", lambda cfg: FakeRun(cfg.x_min**2))
    conservative = cb.shattering_study(config, [1e-2, 1e-3, 1e-4])
    assert conservative.verdict == "conservative"
    assert conservative.per_decade_factor == pytest.approx(100.0, rel=1e-6)
    # shattering-style: dust fraction refuses to decrease
    monkeypatch.setattr(cb.diagnostics, "run_config", lambda cfg: FakeRun(0.5))
    shattering = cb.shattering_study(config, [1e-2, 1e-3, 1e-4])
    assert shattering.verdict == "shattering"
    assert shattering.per_decade_factor == pytest.approx(1.0, rel=1e-6)
    # table is ordered coarse to fine
    assert [r[0] for r in shattering.rows] == [1e-2, 1e-3, 1e-4]


def test_shattering_study_runs_each_distinct_x_min_once(monkeypatch):
    config = cb.parse_config_text("init.kind = monodisperse\ninit.size = 1\n")
    runs = []

    def runner(cfg):
        runs.append(cfg.x_min)
        return FakeRun(0.5)

    monkeypatch.setattr(cb.diagnostics, "run_config", runner)
    # one grid repeated three times is a single point, not a trend
    with pytest.raises(InputError):
        cb.shattering_study(config, [1e-2, 1e-2, 1e-2])
    assert runs == []
    study = cb.shattering_study(config, [1e-2, 1e-2, 1e-3, 1e-4])
    assert runs == [1e-2, 1e-3, 1e-4]
    assert [r[0] for r in study.rows] == runs


def test_shattering_study_refuses_a_too_fine_cut_before_any_run(monkeypatch):
    # 5e4 cells per decade: the 1e-20 cut widens the grid past MAX_CELLS
    config = cb.parse_config_text("grid.x_min = 1e-3\ngrid.x_max = 10\ngrid.n_cells = 200000\n")
    runs = []

    def runner(cfg):
        runs.append(cfg.x_min)
        return FakeRun(0.5)

    monkeypatch.setattr(cb.diagnostics, "run_config", runner)
    with pytest.raises(cb.ConfigError) as info:
        cb.shattering_study(config, [1e-3, 1e-8, 1e-20])
    assert str(info.value) == f"x_mins: need n_cells <= {cb.grid.MAX_CELLS}, got 1050000"
    assert runs == []


@pytest.mark.parametrize(
    "cut, reason",
    [
        (math.nan, "need 0 < x_min < x_max, got (nan, 2.0)"),
        (math.inf, "need 0 < x_min < x_max, got (inf, 2.0)"),
        (0.0, "need 0 < x_min < x_max, got (0.0, 2.0)"),
        (-1.0, "need 0 < x_min < x_max, got (-1.0, 2.0)"),
        (5.0, "need 0 < x_min < x_max, got (5.0, 2.0)"),
        (1e-300, "need x_min >= 1e-150, got 1e-300"),
    ],
    ids=["nan", "inf", "0", "-1", "5", "1e-300"],
)
def test_shattering_study_refuses_a_bad_cut_under_its_own_argument(monkeypatch, cut, reason):
    # A5's grid.x_min is valid: the cut is the list's fault, refused before any run
    runs = []
    monkeypatch.setattr(cb.diagnostics, "run_config", lambda cfg: runs.append(cfg) or FakeRun(0.5))
    with pytest.raises(cb.ConfigError) as info:
        cb.shattering_study(cb.parse_config_text(A5_CONFIG), [1e-2, 1e-3, cut])
    assert (info.value.key, info.value.reason) == ("x_mins", reason)
    assert str(info.value) == f"x_mins: {reason}"
    assert runs == []


def test_shattering_study_names_the_first_cut_beyond_the_mass_budget(monkeypatch):
    config = cb.parse_config_text("init.kind = monodisperse\ninit.size = 1\n")
    # powers of two, so 1 + drift - dust + dust - 1 is the drift exactly
    drifts = {1e-2: 0.0, 1e-3: 2.0**-19, 1e-4: 2.0**-18}
    monkeypatch.setattr(cb.diagnostics, "run_config", lambda cfg: FakeRun(0.5, drifts[cfg.x_min]))
    study = cb.shattering_study(config, list(drifts))
    assert [r[2] for r in study.rows] == list(drifts.values())
    assert study.to_dict()["rows"][1] == {"x_min": 1e-3, "dust_fraction": 0.5, "mass_drift": 2.0**-19}
    assert study.over_budget == (
        "x_min=0.001: max |M_1 + dust - rho| = 1.907e-06, beyond the mass budget 1e-06 rho = 1.000e-06"
    )
    monkeypatch.setattr(cb.diagnostics, "run_config", lambda cfg: FakeRun(0.5, 2.0**-20))
    within = cb.shattering_study(config, list(drifts))
    assert within.over_budget is None


# A8's physics over ten 0.1-wide windows, RK tight enough to show Picard's error
A8_CROSSVAL = A8_CONFIG.replace(
    "time.t_end = 0.1", "time.t_end = 1\ntime.rel_tol = 1e-11\ntime.abs_tol = 1e-14\npicard.tol = 1e-12"
)


def test_crossval_is_bitwise_the_hand_written_window_chain():
    config = cb.parse_config_text(A8_CROSSVAL)
    rows = diagnostics.crossval(config)
    # the oracle: chained picard_solve windows over the snapshot mesh, each
    # end against one tight RK run in the weighted distance at k0
    ws, state0 = cb.build_problem(config)
    times = config.snapshot_times
    reference = cb.simulate(ws, state0, times, cb.Tolerances(rel_tol=1e-11, abs_tol=1e-14))
    expected, state = [], state0
    for i in range(1, len(times)):
        result = cb.picard_solve(ws, state, times[i] - times[i - 1], max_iter=40, tol=1e-12)
        state = result.state
        distance = cb.weighted_distance(state, reference.state(i), ws.grid, 0.5)
        expected.append((times[i].hex(), float(distance).hex(), result.iterations))
    assert [(r["t"].hex(), r["distance"].hex(), r["iterations"]) for r in rows] == expected
    # the A8 gate: every window within 1e-10 of RK, fewer than 100 iterations in all
    assert max(r["distance"] for r in rows) <= 1e-10
    assert sum(r["iterations"] for r in rows) == 92


def test_crossval_reads_the_picard_tolerance():
    loose = cb.parse_config_text(A8_CROSSVAL.replace("picard.tol = 1e-12", "picard.tol = 1e-6"))
    assert sum(r["iterations"] for r in diagnostics.crossval(loose)) == 48
