import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

import collbreak as cb
from collbreak import DaughterLaw, DomainError, InputError, KernelSpec, Regime
from collbreak.bounds import running_trapezoid
from collbreak.cli import main


def test_classify_regime_examples():
    assert cb.regime_report(KernelSpec(1.0, 1.0), DaughterLaw(-1.2, 0.5)).regime is (
        Regime.GLOBAL_EXISTENCE
    )
    assert cb.regime_report(KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6)).regime is (
        Regime.NON_EXISTENCE
    )
    assert cb.regime_report(KernelSpec(0.3, 0.3), DaughterLaw(-1.1, 0.2)).regime is (
        Regime.LOCAL_EXISTENCE
    )
    # lambda1 in [|nu|-1, k0): neither existence nor non-existence applies
    assert cb.regime_report(KernelSpec(0.55, 0.55), DaughterLaw(-1.5, 0.6)).regime is (
        Regime.UNCOVERED
    )
    # homogeneity below 2*k0
    assert cb.regime_report(KernelSpec(0.35, 0.35), DaughterLaw(-1.0, 0.4)).regime is (
        Regime.UNCOVERED
    )


def test_positive_classes_disjoint_over_random_parameters():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        nu = rng.uniform(-1.99, 0.0)
        k0 = rng.uniform(max(0.0, abs(nu) - 1.0) + 1e-6, 0.999)
        l1, l2 = np.sort(rng.uniform(-2.0, 1.0, size=2))
        kernel = KernelSpec(l1, l2)
        law = DaughterLaw(nu, k0)
        lam = kernel.homogeneity
        in_global = k0 <= l1 and l2 <= 1.0 and 1.0 <= lam <= 2.0
        in_local = k0 <= l1 and l2 <= 1.0 and 2.0 * k0 <= lam < 1.0
        in_none = -2.0 < nu <= -1.0 and l1 < abs(nu) - 1.0 and l2 <= 1.0 and lam < 1.0
        assert in_global + in_local + in_none <= 1
        got = cb.regime_report(kernel, law).regime
        expected = (
            Regime.GLOBAL_EXISTENCE
            if in_global
            else Regime.LOCAL_EXISTENCE
            if in_local
            else Regime.NON_EXISTENCE
            if in_none
            else Regime.UNCOVERED
        )
        assert got is expected


def test_checklist_reports_each_hypothesis():
    checks = cb.hypothesis_checklist(KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6))
    by_name = {c["hypothesis"]: c["holds"] for c in checks}
    assert by_name["lambda1 < |nu| - 1"] is True
    assert by_name["nu in (-2, -1]"] is True
    assert by_name["k0 <= lambda1"] is False


@pytest.mark.parametrize(
    "kernel, law, own",
    [
        (KernelSpec(0.6, 0.6), DaughterLaw(-1.2, 0.5), "existence"),  # local existence
        (KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6), "nonexistence"),
        (KernelSpec(2.0, 2.0), DaughterLaw(-1.2, 0.5), "existence"),  # uncovered: a bare report
    ],
)
def test_initial_bounds_is_the_report_of_its_regimes_function(kernel, law, own):
    grid = cb.build_grid(1e-2, 2.0, 16)
    state = cb.exponential_state(grid, 1.0, 1.0)
    moment_fn = lambda k: cb.moment(grid, state, k)
    rho = moment_fn(1.0)
    if own == "existence":
        expect = cb.existence_bounds(kernel, law, rho, moment_fn(law.k0), moment_fn(1.0 + law.k0))
    else:
        expect = cb.nonexistence_bound(kernel, law, rho, moment_fn)
    report = cb.initial_bounds(kernel, law, grid, state)
    assert json.dumps(report.entry()) == json.dumps(expect.entry())


def test_existence_bounds_unit_moments_local_case():
    # with unit initial mass and moments every c constant collapses to 1 and
    # E1 * T_k0 = (1-k0) / (2 (1-lambda))
    kernel = KernelSpec(0.3, 0.3)
    law = DaughterLaw(-1.1, 0.2)
    report = cb.existence_bounds(kernel, law, 1.0, 1.0, 1.0)
    assert report.regime is Regime.LOCAL_EXISTENCE
    assert report.c1 == pytest.approx(1.0, rel=1e-12)
    assert report.c2 == pytest.approx(1.0, rel=1e-12)
    assert report.c3 == pytest.approx(1.0, rel=1e-12)
    assert report.e1 == pytest.approx(9.0, rel=1e-12)
    assert report.e1 * report.t_k0 == pytest.approx(0.8 / (2.0 * 0.4), rel=1e-12)
    # C1 blows up approaching the horizon and is finite before it
    assert report.c1_of(0.5 * report.t_k0) == pytest.approx(4.0, rel=1e-10)
    with pytest.raises(DomainError):
        report.c1_of(report.t_k0)


def test_existence_bounds_unit_moments_global_case():
    kernel = KernelSpec(0.5, 0.5)
    law = DaughterLaw(-1.2, 0.5)
    report = cb.existence_bounds(kernel, law, 1.0, 1.0, 1.0)
    assert report.regime is Regime.GLOBAL_EXISTENCE
    assert math.isinf(report.t_k0)
    assert report.c3 == pytest.approx(1.0, rel=1e-12)
    e1 = cb.e_constant(law)
    for t in (0.1, 1.0, 3.0):
        assert report.c1_of(t) == pytest.approx(
            2.0 * math.exp(2.0 * e1 * t / 0.5), rel=1e-12
        )


def test_existence_bounds_uncovered_outside_hypotheses():
    report = cb.existence_bounds(
        KernelSpec(0.15, 0.3), DaughterLaw(-1.1, 0.2), 1.0, 1.0, 1.0
    )
    assert report.regime is Regime.UNCOVERED
    assert report.c1 is None and report.t_k0 is None


def test_existence_bounds_scale_coherence():
    kernel = KernelSpec(0.3, 0.3)
    law = DaughterLaw(-1.1, 0.2)
    base = cb.existence_bounds(kernel, law, 1.0, 1.0, 1.0)
    for s in (0.5, 2.0):
        scaled = cb.existence_bounds(kernel, law, s, s, s)
        # c1 = max(s^(l1/(1-k0)), s^((1-l1)/k0 + (k0+l1-1)/k0)) = max(s^0.375, s)
        assert scaled.c1 == pytest.approx(max(s**0.375, s), rel=1e-12)
        expected_c3 = scaled.c1 * s**0.125
        assert scaled.c3 == pytest.approx(expected_c3, rel=1e-12)
        expected_t = base.t_k0 * (base.c3 / expected_c3) * s**-0.5
        assert scaled.t_k0 == pytest.approx(expected_t, rel=1e-12)


def test_nonexistence_bound_symbolic_chain():
    kernel = KernelSpec(0.0, 0.0)
    law = DaughterLaw(-1.5, 0.6)
    report = cb.nonexistence_bound(kernel, law, 1.0, lambda k: 1.0)
    assert report.regime is Regime.NON_EXISTENCE
    # ell1(k) = -k and ell2(k) = 1 at every tabulated order
    k, ell1, ell2, _ = report.t1_table.T
    assert k.size == 64
    np.testing.assert_allclose(ell1, -k, rtol=1e-12)
    np.testing.assert_allclose(ell2, 1.0, rtol=1e-12)
    assert report.t1_of(0.55) == pytest.approx(0.05 / 0.55, rel=1e-12)
    assert report.t1_of(0.51) == pytest.approx(0.01 / 0.51, rel=1e-12)
    assert report.t1_of(0.51) < report.t1_of(0.55)


@pytest.mark.parametrize("moments", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)], ids=["rho", "M_k0", "M_1+k0"])
def test_existence_bounds_refuse_a_non_positive_moment(moments):
    with pytest.raises(DomainError, match=r"^rho and initial moments must be positive$"):
        cb.existence_bounds(KernelSpec(0.3, 0.3), DaughterLaw(-1.1, 0.2), *moments)


@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_nonexistence_bound_refuses_a_non_positive_rho(rho):
    with pytest.raises(DomainError, match=r"^rho must be positive$"):
        cb.nonexistence_bound(KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6), rho, lambda k: 1.0)


@pytest.mark.parametrize("k", [0.2, 0.5, 1.0, 1.5])
def test_t1_of_refuses_an_order_outside_the_admissible_interval(k):
    report = cb.nonexistence_bound(KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6), 1.0, lambda k: 1.0)
    with pytest.raises(DomainError) as info:
        report.t1_of(k)
    assert str(info.value) == f"k={k} outside the admissible interval (0.5, 1)"


def test_nonexistence_bound_vanishes_toward_threshold():
    kernel = KernelSpec(0.0, 0.0)
    law = DaughterLaw(-1.5, 0.6)
    report = cb.nonexistence_bound(kernel, law, 1.0, lambda k: 1.0)
    near = report.t1_of(0.5 + 1e-3)
    mid = report.t1_of(0.75)
    assert near < 1e-2 * mid
    # table infimum sits at the lowest grid point
    assert report.t1_argmin == pytest.approx(
        0.5 + 0.5 * 1e-3, rel=1e-9
    )
    assert report.t1_bound == pytest.approx(report.t1_of(report.t1_argmin), rel=1e-12)
    assert np.all(report.t1_table[:, 3] > 0.0)
    assert np.all(report.t1_table[:, 1] < 0.0)


def test_nonexistence_bound_declines_outside_hypotheses():
    # lambda1 >= |nu|-1: the non-existence theorem does not apply
    report = cb.nonexistence_bound(
        KernelSpec(0.6, 0.6), DaughterLaw(-1.5, 0.6), 1.0, lambda k: 1.0
    )
    assert report.regime is not Regime.NON_EXISTENCE
    assert report.t1_bound is None
    report = cb.nonexistence_bound(
        KernelSpec(0.55, 0.58), DaughterLaw(-1.5, 0.6), 1.0, lambda k: 1.0
    )
    assert report.regime is Regime.UNCOVERED
    assert report.t1_bound is None


def test_gronwall_envelope_closed_forms():
    law = DaughterLaw(-1.5, 0.6)  # E1 = 5
    times = np.linspace(0.0, 0.1, 21)
    ones = np.ones_like(times)
    env = cb.gronwall_envelope(law, times, ones, ones, 0.0)
    assert np.all(env == 0.0)
    d0 = 0.37
    env = cb.gronwall_envelope(law, times, ones, ones, d0)
    assert env[0] == pytest.approx(d0)
    assert env[-1] == pytest.approx(d0 * math.exp(12.0), rel=1e-10)


def test_gronwall_envelope_mesh_mismatch():
    law = DaughterLaw(-1.5, 0.6)
    with pytest.raises(InputError):
        cb.gronwall_envelope(law, [0.0, 0.1], [1.0, 1.0, 1.0], [1.0, 1.0], 1.0)


@pytest.mark.parametrize("size", [1, 2, 41, 1000])
def test_running_trapezoid_bitwise_equals_scipy(size):
    # scipy's cumulative_trapezoid is the oracle: the same expression in the
    # same order, so every partial sum agrees bit for bit
    rng = np.random.default_rng(size)
    x = np.cumsum(rng.exponential(size=size)) - 0.5  # non-uniform, of both signs
    y = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)
    got = running_trapezoid(y, x)
    want = cumulative_trapezoid(y, x, initial=0.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("times", [[], [[0.0, 0.1]]])
def test_gronwall_envelope_refuses_empty_or_non_series(times):
    law = DaughterLaw(-1.5, 0.6)
    with pytest.raises(InputError):
        cb.gronwall_envelope(law, times, times, times, 1.0)


def test_bounds_report_serialises():
    report = cb.existence_bounds(KernelSpec(0.3, 0.3), DaughterLaw(-1.1, 0.2), 1.0, 1.0, 1.0)
    payload = report.entry()
    assert payload["regime"] == "LocalExistence"
    # C1(T) is the closed form c1_of, not a table: finite at T = 0.01 and
    # refused at T = 1, past the horizon T_k0 = 1/9
    assert sorted(payload["existence"]) == ["c1", "c2", "c3", "e1", "t_k0"]
    assert math.isfinite(report.c1_of(0.01))
    with pytest.raises(DomainError):
        report.c1_of(1.0)
    nonex = cb.nonexistence_bound(
        KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6), 1.0, lambda k: 1.0
    )
    payload = nonex.entry()["nonexistence"]
    assert len(payload["t1_table"]) == 64


def test_bounds_beyond_double_range_read_inf():
    # rho = 67 makes the lambda >= 1 envelope exp(2 E1 c3 T / (1 - k0))
    # overflow by T = 1; powers of a huge rho overflow in the constants
    kernel, law = KernelSpec(0.5, 0.5), DaughterLaw(-1.2, 0.5)
    report = cb.existence_bounds(kernel, law, 67.0, 67.0, 67.0)
    assert math.isfinite(report.c1_of(0.01)) and report.c1_of(1.0) == math.inf
    huge = cb.existence_bounds(KernelSpec(1.0, 1.0), DaughterLaw(-1.2, 0.5), 1e200, 1e200, 1e200)
    assert huge.c1 == math.inf
    json.dumps(huge.entry(), allow_nan=False)
    json.dumps(report.entry(), allow_nan=False)


def _exact(kernel, law, moment_fn, times=(), ks=()):
    """The report's constants from the same closed forms, in 50-digit arithmetic.

    ``moment_fn`` gives the double moments the report was built from; keys
    follow a section of ``entry()``, with ("C1", i), ("ell2", i) and ("T1", i) for the
    table rows.  Existence regimes are evaluated when ``ks`` is empty.
    """
    with mp.workdps(50):
        l1, l2, nu, k0 = (mp.mpf(v) for v in (kernel.lambda1, kernel.lambda2, law.nu, law.k0))
        lam = mp.mpf(kernel.homogeneity)  # the double sum decides the branch, as in the code
        rho, m = mp.mpf(moment_fn(1.0)), mp.mpf(moment_fn(1.0 + law.k0))
        out = {}
        if not ks:
            e1 = (nu + 2) / (k0 + nu + 1)
            c1, c2 = (
                max(rho ** (l / (1 - k0)), rho ** ((1 - l) / k0) * m ** ((k0 + l - 1) / k0))
                for l in (l1, l2)
            )
            c3 = max(c1 * rho ** ((l2 - k0) / (1 - k0)), c2 * rho ** ((l1 - k0) / (1 - k0)))
            m_k0 = mp.mpf(moment_fn(law.k0))
            if lam < 1:
                a = (1 - lam) / (1 - k0)
                t_k0 = (1 - k0) / (2 * (1 - lam) * e1 * c3) * m_k0 ** (-a)
                c1_of = lambda t: (m_k0 ** (-a) - 2 * (1 - lam) * e1 * c3 * t / (1 - k0)) ** (-1 / a)
            else:
                t_k0 = mp.inf
                c1_of = lambda t: (1 + m_k0) * mp.exp(2 * e1 * c3 * t / (1 - k0))
            out.update(e1=e1, c1=c1, c2=c2, c3=c3, t_k0=t_k0)
            out.update({("C1", i): c1_of(mp.mpf(t)) for i, t in enumerate(times)})
        for i, k in enumerate(mp.mpf(k) for k in ks):
            ell1 = max(lam - 1, l1 - k)  # = l1 - k + max(k + l2 - 1, 0)
            ell2 = rho ** ((l1 - k) / (1 - k)) * min(
                rho ** (l2 / (1 - k)), rho ** ((1 + k0 - k - l2) / k0) * m ** ((k + l2 - 1) / k0)
            )
            out[("ell2", i)] = ell2
            out[("T1", i)] = (k + nu + 1) / (abs(ell1) * ell2) * mp.mpf(moment_fn(float(k))) ** (
                ell1 / (1 - k)
            )
        if ks:
            out["t1_bound"] = min(out[("T1", i)] for i in range(len(ks)))
        return out


def _assert_matches_exact(payload, exact, c1_values=()):
    """Every constant in ``payload`` (a section of ``entry()``), and each of
    ``c1_values`` (C1 at ``_exact``'s times), is the exact value rounded to 1e-9.

    An existence section must come with at least one C1 value.  A value
    beyond the double range must read "inf" (or a subnormal/zero below it);
    no value may be NaN.
    """
    got = {name: payload[name] for name in ("e1", "c1", "c2", "c3", "t_k0", "t1_bound") if name in payload}
    assert "c1" not in payload or c1_values, "no C1 value compared"
    got.update({("C1", i): value for i, value in enumerate(c1_values)})
    for i, row in enumerate(payload.get("t1_table", [])):
        got[("ell2", i)], got[("T1", i)] = row["ell2"], row["T1"]
    assert got.keys() == exact.keys()
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    for key, value in got.items():
        value, x = float(value), exact[key]
        assert not math.isnan(value), key
        if tiny <= x <= huge:
            assert value == pytest.approx(float(x), rel=1e-9), key
        elif x > huge:
            assert value >= huge * (1.0 - 1e-9), key
        else:
            assert 0.0 <= value <= tiny * (1.0 + 1e-9), key


# Configs whose non-existence T1 rows, or existence constants, multiplied an
# overflowing power by an underflowing one (inf * 0 = nan) before the
# constants were evaluated in log space.
REGRESSION_CONFIGS = {
    "nonexistence-k0-0.75": (
        "kernel.lambda1 = 0\nkernel.lambda2 = 0\ndaughter.nu = -1.5\ndaughter.k0 = 0.75\n"
        "grid.x_min = 1\ngrid.x_max = 2\ngrid.n_cells = 16\ninit.mass = 2\n"
    ),
    "a5-mass-2": (
        "kernel.lambda1 = 0\nkernel.lambda2 = 0\ndaughter.nu = -1.5\ndaughter.k0 = 0.6\n"
        "grid.x_min = 1e-2\ngrid.x_max = 2\ngrid.n_cells = 56\n"
        "init.kind = monodisperse\ninit.size = 1\ninit.mass = 2\n"
        "time.t_end = 0.5\ntime.snapshots = 11\n"
    ),
    "existence-k0-0.02-mass-1e14": (
        "kernel.lambda1 = 0.5\nkernel.lambda2 = 0.5\ndaughter.nu = -0.5\ndaughter.k0 = 0.02\n"
        "grid.x_min = 1e-3\ngrid.x_max = 10\ngrid.n_cells = 32\n"
        "init.kind = monodisperse\ninit.size = 1\ninit.mass = 1e14\n"
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSION_CONFIGS))
def test_cli_bounds_regressions_match_mpmath(tmp_path, capsys, name):
    text = REGRESSION_CONFIGS[name]
    path = tmp_path / "case.cfg"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bounds", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    config = cb.parse_config_text(text)
    workspace, state0 = cb.build_problem(config)
    moment_fn = lambda k: cb.moment(workspace.grid, state0, k)
    if name.startswith("existence"):
        section = payload["existence"]
        # C1 at the snapshot times before the horizon, from the report the CLI printed
        report = cb.initial_bounds(config.kernel, config.law, workspace.grid, state0)
        assert report.entry()["existence"] == section
        times = [t for t in config.snapshot_times if t < report.t_k0]
        c1_values = [report.c1_of(t) for t in times]
        exact = _exact(config.kernel, config.law, moment_fn, times=times)
        _assert_matches_exact(section, exact, c1_values)
    else:
        section = payload["nonexistence"]
        ks = [row["k"] for row in section["t1_table"]]
        _assert_matches_exact(section, _exact(config.kernel, config.law, moment_fn, ks=ks))
        # T1 vanishes toward |nu| - 1, so the infimum sits at the lowest grid order
        assert section["t1_argmin"] == min(ks)


@st.composite
def _problems(draw):
    """A kernel and daughter law inside one regime, with the moments of a two-point measure.

    The domain keeps every exponent (1/k0, 1/(1-k0), 1/(1-k) on the T1 grid)
    below about 1e5 and |log rho| below 33: a logarithm carries an absolute
    error of about 1e-16 |log|, so a constant whose exponent times log
    reaches 1e7 cannot be held to 1e-9 in double precision.
    """
    regime = draw(st.sampled_from(list(Regime)))
    unit, below_one = st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_max=True)
    nu_lo, nu_hi = {Regime.NON_EXISTENCE: (-1.99, -1.0), Regime.LOCAL_EXISTENCE: (-1.49, 0.0)}.get(
        regime, (-1.99, 0.0)
    )
    nu = draw(st.floats(nu_lo, nu_hi))
    lo = max(0.0, abs(nu) - 1.0)
    # local existence needs 2 k0 <= lambda < 1
    hi = 0.5 if regime is Regime.LOCAL_EXISTENCE else 1.0
    k0 = lo + (hi - lo) * draw(st.floats(1e-3, 1.0 - 1e-3))
    if regime is Regime.GLOBAL_EXISTENCE:
        l1 = k0 + (1.0 - k0) * draw(unit)
        l2 = max(l1, 1.0 - l1) + (1.0 - max(l1, 1.0 - l1)) * draw(unit)
    elif regime is Regime.LOCAL_EXISTENCE:
        l1 = k0 + (0.5 - k0) * draw(below_one)
        l2_lo = max(l1, 2.0 * k0 - l1)
        l2 = l2_lo + (1.0 - l1 - l2_lo) * draw(below_one)
    elif regime is Regime.NON_EXISTENCE:
        # lambda1 <= lambda2 < 1 - lambda1 needs lambda1 < 1/2
        l1 = -2.0 + (min(abs(nu) - 1.0, 0.5) + 2.0) * draw(below_one)
        l2 = l1 + (min(1.0, 1.0 - l1) - l1) * draw(below_one)
    else:
        l1, l2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    rho = 10.0 ** draw(st.floats(-6.0, 14.0))
    sizes = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2)]
    weight = draw(unit)
    moment_fn = lambda k: rho * (weight * sizes[0] ** (k - 1.0) + (1.0 - weight) * sizes[1] ** (k - 1.0))
    kernel, law = KernelSpec(l1, l2), DaughterLaw(nu, k0)
    # a draw rounded onto a regime boundary
    assume(regime is Regime.UNCOVERED or cb.regime_report(kernel, law).regime is regime)
    return kernel, law, moment_fn


@settings(max_examples=150, deadline=None, database=None)
@given(problem=_problems())
def test_bounds_match_mpmath_in_every_regime(problem):
    _check_against_mpmath(*problem)


# k0 + nu + 1 = 1e-5: grouped as (k0 + nu) + 1, E_{k0,1} and T_k0 were
# 5.6e-12 off and C1 at 0.9 T_k0 1.3e-9 off, so the property above failed
# on the rare draws that land here
CANCELLATION_CONFIGS = {
    "existence-k0-plus-nu-near-minus-1": (KernelSpec(0.49001, 0.49001), DaughterLaw(-1.49, 0.49001)),
    "nonexistence-nu-1.49": (KernelSpec(0.0, 0.0), DaughterLaw(-1.49, 0.75)),
}


@pytest.mark.parametrize("name", sorted(CANCELLATION_CONFIGS))
def test_bounds_without_cancellation_match_mpmath(name):
    kernel, law = CANCELLATION_CONFIGS[name]
    _check_against_mpmath(kernel, law, lambda k: 1.0)


def _check_against_mpmath(kernel, law, moment_fn):
    rho = moment_fn(1.0)
    args = (kernel, law, rho, moment_fn(law.k0), moment_fn(1.0 + law.k0))
    report = cb.existence_bounds(*args)
    existence = report.entry()
    nonexistence = cb.nonexistence_bound(kernel, law, rho, moment_fn).entry()
    json.dumps([existence, nonexistence], allow_nan=False)
    if "existence" in existence:
        # C1 at fractions of the horizon, where C1 is well conditioned
        t_k0 = report.t_k0
        times = [0.0, 1.0, 10.0] if math.isinf(t_k0) else [0.0, 0.5 * t_k0, 0.9 * t_k0]
        times = [t for t in times if t < t_k0]
        c1_values = [report.c1_of(t) for t in times]
        _assert_matches_exact(existence["existence"], _exact(kernel, law, moment_fn, times=times), c1_values)
    if "nonexistence" in nonexistence:
        payload = nonexistence["nonexistence"]
        ks = [row["k"] for row in payload["t1_table"]]
        _assert_matches_exact(payload, _exact(kernel, law, moment_fn, ks=ks))
