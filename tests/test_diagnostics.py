import numpy as np
import pytest

import collbreak as cb
from collbreak import DaughterLaw, InputError, KernelSpec, Regime, State


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
    residual = cb.moment_identity_residual(small_run, 1.0)
    assert np.max(np.abs(residual)) <= 1e-8


def test_moment_identity_residual_divergent_order(small_run):
    with pytest.raises(cb.DivergentMomentError):
        cb.moment_identity_residual(small_run, 0.1)


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


def test_shattering_study_requires_three_points():
    config = cb.parse_config_text("time.t_end = 0.1\n")
    with pytest.raises(InputError):
        cb.shattering_study(config, [1e-2, 1e-3])


class FakeRun:
    def __init__(self, frac):
        self.dust = np.array([frac])
        self.rho = 1.0


def test_shattering_study_verdicts_from_stub_runner():
    config = cb.parse_config_text("init.kind = monodisperse\ninit.size = 1\n")

    # integrable-style leakage: two decades per decade of x_min
    conservative = cb.shattering_study(
        config, [1e-2, 1e-3, 1e-4], runner=lambda cfg: FakeRun(cfg.x_min**2)
    )
    assert conservative.verdict == "conservative"
    assert conservative.per_decade_factor == pytest.approx(100.0, rel=1e-6)
    # shattering-style: dust fraction refuses to decrease
    shattering = cb.shattering_study(
        config, [1e-2, 1e-3, 1e-4], runner=lambda cfg: FakeRun(0.5)
    )
    assert shattering.verdict == "shattering"
    assert shattering.per_decade_factor == pytest.approx(1.0, rel=1e-6)
    # table is ordered coarse to fine
    assert [r[0] for r in shattering.rows] == [1e-2, 1e-3, 1e-4]


def test_shattering_study_runs_each_distinct_x_min_once():
    config = cb.parse_config_text("init.kind = monodisperse\ninit.size = 1\n")
    runs = []

    def runner(cfg):
        runs.append(cfg.x_min)
        return FakeRun(0.5)

    # one grid repeated three times is a single point, not a trend
    with pytest.raises(InputError):
        cb.shattering_study(config, [1e-2, 1e-2, 1e-2], runner=runner)
    assert runs == []
    study = cb.shattering_study(config, [1e-2, 1e-2, 1e-3, 1e-4], runner=runner)
    assert runs == [1e-2, 1e-3, 1e-4]
    assert [r[0] for r in study.rows] == runs


def test_shattering_study_refuses_a_too_fine_cut_before_any_run():
    # 5e4 cells per decade: the 1e-20 cut widens the grid past MAX_CELLS
    config = cb.parse_config_text("grid.x_min = 1e-3\ngrid.x_max = 10\ngrid.n_cells = 200000\n")
    runs = []

    def runner(cfg):
        runs.append(cfg.x_min)
        return FakeRun(0.5)

    with pytest.raises(cb.ConfigError) as info:
        cb.shattering_study(config, [1e-3, 1e-8, 1e-20], runner=runner)
    assert str(info.value) == f"grid.n_cells: need n_cells <= {cb.grid.MAX_CELLS}, got 1050000"
    assert runs == []
