"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import mpmath as mp
import numpy as np
import pytest

import collbreak as cb
from collbreak import DaughterLaw, KernelSpec, State
from conftest import RHS_DIGEST, quad_oracle, run_in_fresh_process
from dense_oracle import DenseRhs

A1_CONFIG = """
kernel.lambda1 = 0.6
kernel.lambda2 = 0.6
daughter.nu = -1.2
daughter.k0 = 0.5
grid.x_min = 1e-4
grid.x_max = 10
grid.n_cells = 128
init.kind = exponential
init.mass = 1.0
init.mean = 1.0
time.t_end = 1.0
time.snapshots = 21
"""

A5_CONFIG = """
kernel.lambda1 = 0
kernel.lambda2 = 0
daughter.nu = -1.5
daughter.k0 = 0.6
grid.x_min = 1e-2
grid.x_max = 2
grid.n_cells = 56
init.kind = monodisperse
init.size = 1
init.mass = 1
time.t_end = 0.5
time.snapshots = 11
"""

A5_CONTROL_CONFIG = A5_CONFIG.replace("kernel.lambda1 = 0", "kernel.lambda1 = 1").replace(
    "kernel.lambda2 = 0", "kernel.lambda2 = 1"
).replace("daughter.nu = -1.5", "daughter.nu = -0.5")

A8_CONFIG = """
kernel.lambda1 = 0.6
kernel.lambda2 = 0.6
kernel.truncation_n = 4
daughter.nu = -1.2
daughter.k0 = 0.5
grid.x_min = 0.25
grid.x_max = 4
grid.n_cells = 64
init.kind = exponential
init.mass = 1.0
init.mean = 1.0
time.t_end = 0.1
"""


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def a1_run():
    return cb.run(cb.parse_config_text(A1_CONFIG))


@pytest.fixture(scope="module")
def a3_runs():
    runs = {}
    for n in (64, 128, 256):
        text = A1_CONFIG.replace("grid.n_cells = 128", f"grid.n_cells = {n}").replace(
            "time.snapshots = 21", "time.snapshots = 101"
        )
        runs[n] = cb.run(cb.parse_config_text(text))
    return runs


def test_a1_mass_budget(a1_run):
    run = a1_run
    drift = float(np.max(np.abs(run.moments(1.0) + run.dust - 1.0)))
    workspace = cb.precompute(run.grid, run.kernel, run.law)
    worst_identity = 0.0
    for state in run.states:
        dc, dd = cb.rhs_arrays(workspace, state.contents)
        scale = float(np.sum(run.grid.reps * np.abs(dc)))
        if scale > 0.0:
            gap = abs(float(np.sum(run.grid.reps * dc)) + dd) / scale
            worst_identity = max(worst_identity, gap)
    ok = drift <= 1e-6 and worst_identity <= 1e-12
    _verdict(
        "A1",
        ok,
        f"mass drift {drift:.2e} (<=1e-6), rhs identity {worst_identity:.2e} (<=1e-12)",
    )


def test_a2_tail_monotonicity(a1_run):
    run = a1_run
    worst = -np.inf
    for k in (1.0, 1.5):
        reps_k = run.grid.reps**k
        tails0 = np.cumsum((reps_k * run.states[0].contents)[::-1])[::-1]
        for state in run.states[1:]:
            tails = np.cumsum((reps_k * state.contents)[::-1])[::-1]
            worst = max(worst, float(np.max(tails - tails0)))
    m_high = run.moments(1.5)
    growth = float(np.max(m_high - m_high[0]))
    ok = worst <= 1e-8 and growth <= 1e-8
    _verdict(
        "A2",
        ok,
        f"worst tail increase {worst:.2e}, M_1.5 growth {growth:.2e} (<=1e-8)",
    )


def moment_identity_residual(run, k):
    """Residual of the exact power-law moment identity on the snapshot mesh.

    Compares dM_k/dt against the closed production rate
    (1-k)/(k+nu+1) [M_{k+l1} M_{l2} + M_{k+l2} M_{l1}], adding back the
    moment flux lost below the grid, the dust's rate times ``leak_ratio``.
    The identity is exact in the continuum, so the residual measures
    discretisation error; at k = 1 it is d(M_1 + dust)/dt, which vanishes
    up to clipping.
    """
    coeff = cb.power_sum_change(run.law, k)
    l1, l2 = run.kernel.lambda1, run.kernel.lambda2
    dmdt = np.gradient(run.moments(k), run.times)
    production = coeff * (
        run.moments(k + l1) * run.moments(l2) + run.moments(k + l2) * run.moments(l1)
    )
    leak = np.gradient(run.dust, run.times) * cb.leak_ratio(run.law, k, run.grid.x_min)
    return dmdt - production + leak


def test_a3_moment_identity_refinement(a3_runs):
    limits = {64: 0.05, 128: None, 256: 0.01}
    details = []
    ok = True
    for k in (0.5, 0.8, 1.5):
        rels = []
        for n, run in sorted(a3_runs.items()):
            residual = moment_identity_residual(run, k)
            scale = np.gradient(run.moments(k), run.times)
            rel = float(
                np.linalg.norm(residual[1:-1]) / np.linalg.norm(scale[1:-1])
            )
            rels.append(rel)
            if limits[n] is not None and rel > limits[n]:
                ok = False
        order = -np.polyfit(np.log([64, 128, 256]), np.log(rels), 1)[0]
        if order < 0.9:
            ok = False
        details.append(f"k={k}: rel64={rels[0]:.1e} rel256={rels[2]:.1e} order={order:.2f}")
    _verdict("A3", ok, "; ".join(details) + " (need <=5%@64, <=1%@256, order>=0.9)")


def test_a4_local_existence_bound():
    kernel = KernelSpec(0.3, 0.3)
    law = DaughterLaw(-1.1, 0.2)
    grid = cb.build_grid(1e-4, 10.0, 128)
    workspace = cb.precompute(grid, kernel, law)
    state0 = cb.monodisperse_state(grid, 1.0, 1.0)
    rho = cb.moment(grid, state0, 1.0)
    report = cb.existence_bounds(
        kernel, law, rho, cb.moment(grid, state0, 0.2), cb.moment(grid, state0, 1.2)
    )
    # for exactly unit moments the constant chain gives E1 * T_k0 = 1.0
    chain = report.e1 * report.t_k0
    horizon = 0.5 * report.t_k0
    run = cb.simulate(workspace, state0, np.linspace(0.0, horizon, 21))
    run.config = None
    passed, margin = cb.c1_bound_check(run, report, horizon)
    peak = float(np.max(run.moments(0.2)))
    ok = passed and abs(chain - 1.0) < 0.05
    _verdict(
        "A4",
        ok,
        f"T_k0={report.t_k0:.4f} (E1*T_k0={chain:.4f}), max M_k0={peak:.3f} "
        f"<= C1(T)={report.c1_of(horizon):.3f}, margin {margin:.3f}",
    )


def test_a5_nonexistence_signature():
    config = cb.parse_config_text(A5_CONFIG)
    x_mins = [1e-2, 1e-3, 1e-4]
    study = cb.shattering_study(config, x_mins)
    fracs = [frac for _, frac, _ in study.rows]
    ok = study.verdict == "shattering" and min(fracs) >= 0.05

    control = cb.shattering_study(cb.parse_config_text(A5_CONTROL_CONFIG), x_mins)
    ok = ok and control.verdict == "conservative"

    finest = cb.run(cb.with_x_min(config, 1e-4))
    growth_ok = cb.nonexistence_growth_check(finest, 0.6)
    ok = ok and growth_ok

    first = finest.states[0]
    moment_fn = lambda k: float(np.sum(finest.grid.reps**k * first.contents))
    report = cb.nonexistence_bound(config.kernel, config.law, finest.rho, moment_fn)
    ratio = report.t1_of(0.501) / report.t1_of(0.55)
    ok = ok and ratio <= 0.05
    _verdict(
        "A5",
        ok,
        f"dust fractions {[f'{f:.3f}' for f in fracs]} (all >=0.05), "
        f"verdict={study.verdict}, control={control.verdict} "
        f"({control.per_decade_factor:.1f}x/decade), growth check={growth_ok}, "
        f"T1(0.501)/T1(0.55)={ratio:.4f} (<=0.05)",
    )


def test_e1_product_kernel_against_its_closed_form():
    # A5's control, Phi = 2xy, is linear fragmentation at rate 2 rho x while
    # the dust stays negligible, so from cells c_i at sizes x_i
    #   M_k(T) = sum_i c_i x_i^k 1F1(k-1; k+nu+1; -2 rho x_i T)
    # (DLMF 13.2.2; Ziff & McGrady, J. Phys. A 18, 3027, 1985). At x_min = 1e-8
    # the cut is far below the error, so the cell width sets it: second order,
    # from A5's monodisperse start and from an exponential one of mean 1
    k = 0.6
    deep = A5_CONTROL_CONFIG.replace("grid.x_min = 1e-2", "grid.x_min = 1e-8")
    starts = {
        "monodisperse": deep,
        "exponential": deep.replace("init.kind = monodisperse", "init.kind = exponential\ninit.mean = 1"),
    }
    for name, text in starts.items():
        errors, dusts = [], []
        for n in (224, 448, 896):
            run = cb.run(cb.parse_config_text(text.replace("grid.n_cells = 56", f"grid.n_cells = {n}")))
            start, reps = run.states[0], run.grid.reps
            rate = 2.0 * cb.moment(run.grid, start, 1.0) * float(run.times[-1])
            b = k + run.law.nu + 1.0
            with mp.workdps(30):
                exact = float(
                    mp.fsum(
                        start.contents[i] * mp.mpf(reps[i]) ** k * mp.hyp1f1(k - 1.0, b, -rate * reps[i])
                        for i in np.flatnonzero(start.contents)
                    )
                )
            errors.append(float(run.moments(k)[-1]) / exact - 1.0)
            dusts.append(float(run.dust[-1]))
        orders = [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]
        ok = min(orders) >= 1.9 and abs(errors[-1]) < 5e-6 and max(dusts) < 1e-10
        _verdict(
            "E1",
            ok,
            f"{name} start: M_0.6(T) relative errors {', '.join(f'{e:.2e}' for e in errors)} "
            f"at 224, 448, 896 cells, orders {', '.join(f'{o:.2f}' for o in orders)} "
            f"(>=1.9, A3 gates 0.9), |error| at 896 < 5e-6, dust {max(dusts):.1e} (<1e-10)",
        )


E2_CONFIG = """
kernel.lambda1 = 0
kernel.lambda2 = 0
daughter.nu = -0.5
daughter.k0 = 0.5
grid.x_min = 1e-24
grid.x_max = 2
grid.n_cells = 680
init.kind = monodisperse
init.size = 1
init.mass = 1
time.t_end = 1
"""


def _e2_problem(text):
    """Workspace, start and blow-up time T* = (nu+1) / (2 M_0(0)) of an E2 config."""
    config = cb.parse_config_text(text)
    workspace, state0 = cb.build_problem(config)
    t_star = (config.law.nu + 1.0) / (2.0 * cb.moment(workspace.grid, state0, 0.0))
    return workspace, state0, t_star


def test_e2_constant_kernel_against_its_closed_form():
    # Phi = 2 closes the moment hierarchy: dM_k/dt = 2 (1-k)/(k+nu+1) M_k M_0, so
    # M_0 blows up at T* = (nu+1) / (2 M_0(0)) and
    #   M_k(t) = M_k(0) (1 - t/T*)^(-(1-k)(nu+1)/(k+nu+1))
    # At x_min = 1e-24 the cut is far below the error before T*, so the cell
    # width sets it: second order at 28, 56 and 112 cells per decade
    for fraction in (0.5, 0.9):
        errors = {0.5: [], 1.5: []}
        dusts = []
        for n in (680, 1361, 2722):
            text = E2_CONFIG.replace("grid.n_cells = 680", f"grid.n_cells = {n}")
            workspace, state0, t_star = _e2_problem(text)
            run = cb.simulate(workspace, state0, np.array([0.0, fraction * t_star]))
            nu = run.law.nu
            for k, errs in errors.items():
                growth = (1.0 - fraction) ** (-(1.0 - k) * (nu + 1.0) / (k + nu + 1.0))
                exact = cb.moment(run.grid, state0, k) * growth
                errs.append(float(run.moments(k)[-1]) / exact - 1.0)
            dusts.append(float(run.dust[-1] / run.rho))
        orders = {k: [float(np.log2(a / b)) for a, b in zip(e, e[1:])] for k, e in errors.items()}
        ok = (
            min(min(o) for o in orders.values()) >= 1.9
            and max(abs(e[-1]) for e in errors.values()) < 2e-5
            and max(dusts) < 1e-20
        )
        _verdict(
            "E2",
            ok,
            f"t = {fraction} T*: "
            + "; ".join(
                f"M_{k}(t) relative errors {', '.join(f'{e:.2e}' for e in errs)}, "
                f"orders {', '.join(f'{o:.2f}' for o in orders[k])}"
                for k, errs in errors.items()
            )
            + f" at 680, 1361, 2722 cells (>=1.9, |error| at 2722 < 2e-5), dust/rho {max(dusts):.1e} (<1e-20)",
        )


@pytest.mark.parametrize("x_min, n", [(1e-8, 232), (1e-16, 456)])
def test_e2_dust_takes_the_mass_at_t_star(x_min, n):
    # past T* no solution conserves mass: at 28 cells per decade the dust
    # jumps from a trace before T* to all the mass after it. Deeper cuts
    # collapse the explicit step before 1.02 T*
    text = E2_CONFIG.replace("grid.x_min = 1e-24", f"grid.x_min = {x_min}").replace(
        "grid.n_cells = 680", f"grid.n_cells = {n}"
    )
    workspace, state0, t_star = _e2_problem(text)
    run = cb.simulate(workspace, state0, np.array([0.0, 0.98 * t_star, 1.02 * t_star]))
    before, after = (float(d / run.rho) for d in run.dust[1:])
    ok = before < 1e-6 and after > 0.99
    _verdict(
        "E2",
        ok,
        f"x_min = {x_min:g}: dust/rho {before:.2e} at 0.98 T* (<1e-6), {after:.5f} at 1.02 T* (>0.99)",
    )


F8_CONFIG = """
kernel.lambda1 = {l1}
kernel.lambda2 = {l2}
daughter.nu = {nu}
daughter.k0 = {k0}
grid.x_min = 1e-4
grid.x_max = 10
grid.n_cells = 100
init.kind = exponential
init.mass = 1
init.mean = 1
time.t_end = {t_end!r}
"""


@pytest.mark.parametrize(
    "l1, l2, nu, k0",
    [(0.3, 0.3, -1.2, 0.25), (0.3, 0.6, -1.2, 0.3), (0.45, 0.45, -1.4, 0.42)],
    ids=["row1", "row2", "row3"],
)
def test_f8_local_existence_conserves_mass_before_t_k0(l1, l2, nu, k0):
    # the local-existence theorem (2 k0 <= lambda < 1, k0 <= lambda1): a
    # mass-conserving solution up to T_k0, so at 0.9 T_k0 the dust is the
    # grid's cut and falls at least 2x per decade of x_min
    physics = dict(l1=l1, l2=l2, nu=nu, k0=k0)
    config = cb.parse_config_text(F8_CONFIG.format(**physics, t_end=1.0))
    workspace, state0 = cb.build_problem(config)
    report = cb.initial_bounds(config.kernel, config.law, workspace.grid, state0)
    assert report.regime is cb.Regime.LOCAL_EXISTENCE
    config = cb.parse_config_text(F8_CONFIG.format(**physics, t_end=0.9 * report.t_k0))
    study = cb.shattering_study(config, [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    drift = max(d for _, _, d in study.rows)
    ok = study.verdict == "conservative" and study.per_decade_factor >= 2.0 and study.over_budget is None
    _verdict(
        "F8",
        ok,
        f"(l1, l2, nu, k0) = ({l1}, {l2}, {nu}, {k0}), T_k0={report.t_k0:.4f}: at 0.9 T_k0 over "
        f"x_min 1e-4 ... 1e-12 {study.verdict}, dust falls {study.per_decade_factor:.2f}x per decade (>=2), "
        f"max drift {drift:.1e} within the mass budget: {study.over_budget is None}",
    )


def _truncated_runs(text, x_min, ns):
    """Runs of ``text`` cut at ``x_min``, cells per decade kept, with the kernel truncated to (1/n, n)."""
    texts = (text + ("" if n is None else f"kernel.truncation_n = {n}\n") for n in ns)
    return [cb.run(cb.with_x_min(cb.parse_config_text(t), x_min)) for t in texts]


def test_f13_truncated_global_existence_runs_approach_the_untruncated_one():
    # GlobalExistence (A1) at x_min = 1e-12, 333 cells: as the truncation n grows the
    # truncated solutions approach the untruncated one. Measured M_0.5(T) 3.6778, 5.5590
    # and 7.3820 at n = 10, 100 and 10^4 against 7.8254, and weighted distances at T
    # 4.993, 2.734 and 0.5385: a factor 0.55 over the first decade of n, 0.20 over the
    # next two
    *truncated, full = _truncated_runs(A1_CONFIG, 1e-12, (10, 100, 10_000, None))
    k0 = full.law.k0
    m_half = [run.moments(0.5)[-1] for run in (*truncated, full)]
    distances = [cb.weighted_distance(run.state(-1), full.state(-1), full.grid, k0) for run in truncated]
    ratios = [b / a for a, b in zip(distances, distances[1:])]
    ok = all(np.diff(m_half) > 0.0) and all(r <= 0.6 for r in ratios) and distances[-1] <= 0.6
    _verdict(
        "F13-GE",
        ok,
        f"n = 10, 100, 1e4: M_0.5(T) {', '.join(f'{m:.4f}' for m in m_half[:-1])} rising to "
        f"{m_half[-1]:.4f}; distance to the untruncated run {', '.join(f'{d:.4g}' for d in distances)}, "
        f"each step down to <= 0.6 of the last ({', '.join(f'{r:.3f}' for r in ratios)}), the last <= 0.6",
    )


def test_f13_truncated_nonexistence_runs_keep_their_mass_but_leave_every_fixed_size():
    # NonExistence (A5) at x_min = 1e-16, 397 cells: every truncated kernel is bounded,
    # so its run keeps the mass on the grid (dust/rho 1.35e-8, 8.7e-8 and 1.01e-6 at
    # n = 10, 100 and 10^4; the untruncated run loses all of it). The mass above a
    # fixed size still falls as n grows: 0.9565, 0.7199 and 1.2e-4 above 1e-3, and
    # 0.9986, 0.9911 and 0.8966 above 1e-6. Each run takes under 400 RHS calls
    runs = _truncated_runs(A5_CONFIG, 1e-16, (10, 100, 10_000))
    dust = [run.dust[-1] / run.rho for run in runs]
    above = {
        size: [float(np.sum((run.grid.reps * run.contents[-1])[run.grid.reps > size])) / run.rho for run in runs]
        for size in (1e-3, 1e-6)
    }
    falling = all(all(np.diff(masses) < 0.0) for masses in above.values())
    ok = max(dust) <= 2e-6 and falling and above[1e-3][-1] <= 1e-3 and above[1e-6][-1] <= 0.95
    _verdict(
        "F13-NE",
        ok,
        f"n = 10, 100, 1e4: dust/rho {', '.join(f'{d:.2e}' for d in dust)} (<= 2e-6); mass/rho above "
        + "; ".join(f"{size:g}: {', '.join(f'{m:.4g}' for m in masses)}" for size, masses in above.items())
        + " falls with n, to <= 1e-3 above 1e-3 and <= 0.95 above 1e-6",
    )



# F11: A1's kernel is homogeneous of degree lambda = 1.2 and its daughter law is
# scale-free, so a long run nears a self-similar state whose typical size decays
# like t^(-1/(lambda - 1)) = t^-5. A1's cells per decade, to t = 20 at x_min = 1e-20
LONG_A1_CONFIG = A1_CONFIG.replace("time.t_end = 1.0", "time.t_end = 20").replace(
    "time.snapshots = 21", "time.snapshots = 41"
)


@pytest.fixture(scope="module")
def long_a1_runs():
    """The exponential start (mean 1) and a monodisperse start at size 1, to t = 20."""
    monodisperse = LONG_A1_CONFIG.replace("init.kind = exponential", "init.kind = monodisperse\ninit.size = 1")
    return [cb.run(cb.with_x_min(cb.parse_config_text(t), 1e-20)) for t in (LONG_A1_CONFIG, monodisperse)]


def test_f11_long_runs_from_two_starts_reach_one_scaling_profile(long_a1_runs):
    # R = M_0.5 M_1.5 / M_1^2 does not depend on the scale: measured R(20) = 2.406057
    # and 2.406059 (2.341407 and 2.402201 from the exponential start at 1e-12 and 1e-16)
    ratios = [run.moments(0.5)[-1] * run.moments(1.5)[-1] / run.moments(1.0)[-1] ** 2 for run in long_a1_runs]
    ok = all(run.times[-1] == 20.0 for run in long_a1_runs) and abs(ratios[0] - ratios[1]) <= 1e-4
    _verdict("F11-R", ok, f"R(20) {ratios[0]:.6f} (exponential) and {ratios[1]:.6f} (monodisperse), within 1e-4")


def test_f11_long_runs_decay_like_their_scaling_law(long_a1_runs):
    # the local decay exponent of M_2/M_1 over [10, 20]: measured 4.756 and 4.746
    exponents = []
    for run in long_a1_runs:
        size = run.moments(2.0) / run.moments(1.0)
        i10, i20 = np.searchsorted(run.times, [10.0, 20.0])
        assert (run.times[i10], run.times[i20]) == (10.0, 20.0)
        exponents.append(float(np.log(size[i10] / size[i20]) / np.log(2.0)))
    ok = all(abs(p - 5.0) <= 0.5 for p in exponents)
    _verdict(
        "F11-decay",
        ok,
        f"M_2/M_1 decays like t^-p over [10, 20], p = {', '.join(f'{p:.3f}' for p in exponents)}, within 10% of 5",
    )


def test_f10_the_amplification_of_a_nearby_start_converges_as_x_min_falls(long_a1_runs):
    # Uniqueness seen through the cut: the weighted distance between the starts
    # of mean 1 and 1.01 grows to T = 20 by a factor that converges as x_min -> 0.
    # Measured: 15.5, 41.8, 43.7501 and 43.8165 at x_min = 1e-8, 1e-12, 1e-16 and
    # 1e-20; the first of long_a1_runs is the mean-1 run at 1e-20.
    shifted = LONG_A1_CONFIG.replace("init.mean = 1.0", "init.mean = 1.01")
    pairs = [
        [cb.run(cb.with_x_min(cb.parse_config_text(text), 1e-16)) for text in (LONG_A1_CONFIG, shifted)],
        [long_a1_runs[0], cb.run(cb.with_x_min(cb.parse_config_text(shifted), 1e-20))],
    ]
    amplification = []
    for base, other in pairs:
        distance = cb.weighted_distance(base, other, base.grid, 0.5)
        assert base.times[-1] == other.times[-1] == 20.0
        amplification.append(float(distance[-1] / distance[0]))
    ok = abs(amplification[0] - amplification[1]) <= 0.01 * amplification[1]
    _verdict(
        "F10-converges",
        ok,
        f"amplification to T = 20 is {amplification[0]:.4f} at x_min = 1e-16 and "
        f"{amplification[1]:.4f} at 1e-20, within 1%",
    )


def test_a6_uniqueness_gronwall(a1_run):
    base = a1_run
    config = cb.parse_config_text(A1_CONFIG)
    workspace, state0 = cb.build_problem(config)
    scaled0 = State(1.01 * state0.contents)
    scaled = cb.simulate(workspace, scaled0, np.asarray(config.snapshot_times))
    k0 = 0.5
    distances = np.array(
        [
            cb.weighted_distance(a, b, base.grid, k0)
            for a, b in zip(base.states, scaled.states)
        ]
    )
    k_high = 1.0 + k0 + config.kernel.lambda2
    m_k0 = base.moments(k0) + scaled.moments(k0)
    m_high = base.moments(k_high) + scaled.moments(k_high)
    envelope = cb.gronwall_envelope(config.law, base.times, m_k0, m_high, distances[0])
    within = bool(np.all(distances <= envelope * (1.0 + 1e-12)))
    margins = envelope[1:] / distances[1:]
    ok = within and float(np.min(margins)) >= 1.0
    _verdict(
        "A6",
        ok,
        f"distance {distances[0]:.3e} -> {distances[-1]:.3e}, envelope holds at "
        f"every snapshot, min margin factor {float(np.min(margins)):.2e}",
    )


def test_a7_closed_forms_match_quadrature():
    worst = 0.0
    cases = 0
    for nu in (-1.9, -1.5, -1.0, -0.5, 0.0):
        lo = max(0.0, abs(nu) - 1.0)
        for k0 in np.linspace(lo + 0.02, 0.98, 5):
            law = DaughterLaw(nu, k0)
            prefactor = nu + 2.0
            for x in (0.1, 0.5, 1.0, 2.0, 10.0):
                amp = x ** (-nu - 1.0)

                frag = quad_oracle(lambda s: s**k0 * prefactor * s**nu * amp, 0.0, x)
                got = cb.e_constant(law)
                worst = max(worst, abs(got * x**k0 - frag) / abs(frag))

                # Upsilon_k0(x, x) = 2 power_sum_change x^k0
                got = 2.0 * cb.power_sum_change(law, k0) * x**k0
                ref = 2.0 * frag - 2.0 * x**k0
                worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))

                # fragments below b: k0-th moment per unit of their mass
                b = 0.37 * x
                mass = quad_oracle(lambda s: s * prefactor * s**nu * amp, 0.0, b)
                ref = quad_oracle(lambda s: s**k0 * prefactor * s**nu * amp, 0.0, b)
                got = cb.leak_ratio(law, k0, b) * mass
                worst = max(worst, abs(got - ref) / abs(ref))
                cases += 1
    ok = worst <= 1e-10
    _verdict("A7", ok, f"{cases} parameter triples, worst relative gap {worst:.2e} (<=1e-10)")


def test_a8_picard_cross_validation():
    config = cb.parse_config_text(A8_CONFIG)
    workspace, state0 = cb.build_problem(config)
    reference = cb.simulate(
        workspace,
        state0,
        np.array([0.0, 0.1]),
        cb.Tolerances(rel_tol=1e-11, abs_tol=1e-14),
    ).states[-1]
    result = cb.picard_solve(workspace, state0, 0.1, max_iter=40, tol=1e-12)
    gap = cb.weighted_distance(result.state, reference, workspace.grid, 0.5)
    diffs = result.diffs
    monotone = all(b <= a for a, b in zip(diffs[1:-1], diffs[2:]))
    ok = gap <= 1e-10 and monotone
    _verdict(
        "A8",
        ok,
        f"picard({result.iterations} iters) vs RK gap {gap:.2e} (<=1e-10), "
        f"diffs monotone after iter 1: {monotone}",
    )


def test_a8_picard_long_window():
    # one 0.3-wide window, three times A8's, against a tighter RK run: the
    # nine-node collocation stays at round-off where a 64-panel trapezoid
    # rule is 5e-6 away
    config = cb.parse_config_text(A8_CONFIG)
    workspace, state0 = cb.build_problem(config)
    reference = cb.simulate(
        workspace,
        state0,
        np.array([0.0, 0.3]),
        cb.Tolerances(rel_tol=1e-13, abs_tol=1e-14),
    ).states[-1]
    result = cb.picard_solve(workspace, state0, 0.3, max_iter=40, tol=1e-12)
    gap = cb.weighted_distance(result.state, reference, workspace.grid, 0.5)
    _verdict("A8", gap <= 1e-10, f"T = 0.3: picard({result.iterations} iters) vs RK gap {gap:.2e} (<=1e-10)")


def test_a9_determinism(tmp_path, capsys):
    text = A1_CONFIG.replace("time.t_end = 1.0", "time.t_end = 0.2")
    config = cb.parse_config_text(text)
    hashes = [cb.emit_outputs(cb.run(config), tmp_path / tag)["content_hash"] for tag in "ab"]

    grid = cb.build_grid(1e-3, 10.0, 200)
    workspace = cb.precompute(grid, KernelSpec(0.6, 0.6), DaughterLaw(-1.2, 0.5))
    state = cb.exponential_state(grid, 1.0, 1.0)
    dc1, dd1 = cb.rhs_arrays(workspace, state.contents)
    dc2, dd2 = cb.rhs_arrays(workspace, state.contents)
    repeated = bool(np.array_equal(dc1, dc2) and dd1 == dd2)

    exec(RHS_DIGEST, {})
    here = capsys.readouterr().out
    child = run_in_fresh_process(
        RHS_DIGEST
        + f"config = cb.parse_config_text({text!r})\n"
        + f"print(cb.emit_outputs(cb.run(config), {str(tmp_path / 'c')!r})['content_hash'])\n"
    ).splitlines()
    same_rhs = child[:-1] == here.splitlines()
    hashes.append(child[-1])
    ok = len(set(hashes)) == 1 and repeated and same_rhs
    _verdict(
        "A9",
        ok,
        f"run hashes equal (twice here, once in a fresh process): {len(set(hashes)) == 1}, "
        f"repeated RHS bitwise identical: {repeated}, fresh-process RHS identical: {same_rhs}",
    )


@pytest.mark.parametrize("n", [128, 512])
def test_a1_factored_rhs_matches_dense_oracle(n, monkeypatch):
    config = cb.parse_config_text(A1_CONFIG.replace("grid.n_cells = 128", f"grid.n_cells = {n}"))
    factored = cb.run(config)
    dense = DenseRhs(factored.grid, config.kernel, config.law)
    monkeypatch.setattr(cb.integrate, "rhs_arrays", lambda workspace, contents, out=None: dense(contents, out))
    oracle = cb.run(config)
    weights = cb.weight_vector(factored.grid, config.law.k0)
    worst = max(
        float(np.sum(weights * np.abs(a.contents - b.contents)) / np.sum(weights * np.abs(b.contents)))
        for a, b in zip(factored.states, oracle.states)
    )
    ok = len(factored.states) == len(oracle.states) and worst <= 1e-12
    _verdict("A1-oracle", ok, f"n={n}: factored vs dense RHS run, worst weighted gap {worst:.2e} (<=1e-12)")
