import json
import math

import numpy as np
import pytest

import collbreak as cb
from collbreak import DaughterLaw, DomainError, InputError, KernelSpec, Regime


def test_classify_regime_examples():
    assert cb.classify_regime(KernelSpec(1.0, 1.0), DaughterLaw(-1.2, 0.5)) is (
        Regime.GLOBAL_EXISTENCE
    )
    assert cb.classify_regime(KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6)) is (
        Regime.NON_EXISTENCE
    )
    assert cb.classify_regime(KernelSpec(0.3, 0.3), DaughterLaw(-1.1, 0.2)) is (
        Regime.LOCAL_EXISTENCE
    )
    # lambda1 in [|nu|-1, k0): neither existence nor non-existence applies
    assert cb.classify_regime(KernelSpec(0.55, 0.55), DaughterLaw(-1.5, 0.6)) is (
        Regime.UNCOVERED
    )
    # homogeneity below 2*k0
    assert cb.classify_regime(KernelSpec(0.35, 0.35), DaughterLaw(-1.0, 0.4)) is (
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
        got = cb.classify_regime(kernel, law)
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
    e1 = cb.e_constant(law, 1.0)
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
    assert report.ell1(0.55) == pytest.approx(-0.55, rel=1e-12)
    assert report.ell2(0.55) == pytest.approx(1.0, rel=1e-12)
    assert report.t1_of(0.55) == pytest.approx(0.05 / 0.55, rel=1e-12)
    assert report.t1_of(0.51) == pytest.approx(0.01 / 0.51, rel=1e-12)
    assert report.t1_of(0.51) < report.t1_of(0.55)


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


def test_bounds_report_serialises():
    report = cb.existence_bounds(
        KernelSpec(0.3, 0.3), DaughterLaw(-1.1, 0.2), 1.0, 1.0, 1.0, t_values=[0.01, 1.0]
    )
    payload = report.to_dict()
    assert payload["regime"] == "LocalExistence"
    # T = 1 lies past the horizon T_k0 = 1/9 and is left out of the table
    assert [row["T"] for row in payload["c1_table"]] == [0.01]
    nonex = cb.nonexistence_bound(
        KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6), 1.0, lambda k: 1.0
    )
    payload = nonex.to_dict()
    assert len(payload["t1_table"]) == 64


def test_bounds_beyond_double_range_read_inf():
    # rho = 67 makes the lambda >= 1 envelope exp(2 E1 c3 T / (1 - k0))
    # overflow by T = 1; powers of a huge rho overflow in the constants
    kernel, law = KernelSpec(0.5, 0.5), DaughterLaw(-1.2, 0.5)
    report = cb.existence_bounds(kernel, law, 67.0, 67.0, 67.0, t_values=[0.01, 1.0])
    assert math.isfinite(report.c1_of(0.01)) and report.c1_of(1.0) == math.inf
    assert [row["C1"] for row in report.to_dict()["c1_table"]][1] == "inf"
    huge = cb.existence_bounds(KernelSpec(1.0, 1.0), DaughterLaw(-1.2, 0.5), 1e200, 1e200, 1e200)
    assert huge.c1 == math.inf
    json.dumps(huge.to_dict(), allow_nan=False)
    json.dumps(report.to_dict(), allow_nan=False)
