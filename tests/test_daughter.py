import math

import numpy as np
import pytest

from collbreak import (
    DaughterLaw,
    DivergentMomentError,
    DomainError,
    beta_star,
    cell_mass_deposit,
    e_constant,
    partial_moment,
    upsilon_power,
)
from conftest import quad_oracle


def test_law_admissibility():
    with pytest.raises(DomainError):
        DaughterLaw(-2.5, 0.5)
    with pytest.raises(DomainError):
        DaughterLaw(0.5, 0.5)
    with pytest.raises(DomainError):
        DaughterLaw(-1.5, 0.4)  # k0 must exceed |nu|-1
    with pytest.raises(DomainError):
        DaughterLaw(-0.5, 1.0)
    law = DaughterLaw(-1.5, 0.6)
    assert law.p_max == pytest.approx(1.6 / 1.5)
    assert DaughterLaw(0.0, 0.5).p_max == math.inf


def test_first_moment_equals_parent_mass():
    law = DaughterLaw(-1.5, 0.6)
    assert partial_moment(law, 1.0, 2.0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_uniform_law_number_of_fragments():
    law = DaughterLaw(0.0, 0.5)
    assert partial_moment(law, 0.0, 3.0, 0.0, 3.0) == pytest.approx(2.0, rel=1e-12)


def test_partial_moment_against_quadrature():
    law = DaughterLaw(-1.5, 0.6)
    oracle = quad_oracle(lambda s: 0.5 * s ** (0.6 - 1.5), 0.0, 1.0)
    assert partial_moment(law, 0.6, 1.0, 0.0, 1.0) == pytest.approx(oracle, rel=1e-10)
    assert partial_moment(law, 0.6, 1.0, 0.0, 1.0) == pytest.approx(5.0, rel=1e-12)


def test_cell_mass_deposit_examples():
    law = DaughterLaw(-1.5, 0.6)
    assert cell_mass_deposit(law, 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert cell_mass_deposit(law, 1.0, 0.0, 0.25) == pytest.approx(0.5, rel=1e-12)
    uniform = DaughterLaw(0.0, 0.5)
    assert cell_mass_deposit(uniform, 2.0, 1.0, 2.0) == pytest.approx(1.5, rel=1e-12)


def test_cell_mass_deposit_against_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(25):
        law = DaughterLaw(rng.uniform(-1.9, 0.0), 0.95)
        x = 10.0 ** rng.uniform(-2, 2)
        a, b = np.sort(rng.uniform(0.0, x, size=2))
        oracle = quad_oracle(
            lambda s: s * (law.nu + 2.0) * s**law.nu * x ** (-law.nu - 1.0), a, b
        )
        assert cell_mass_deposit(law, x, a, b) == pytest.approx(oracle, rel=1e-9, abs=1e-15)


def test_domain_errors():
    law = DaughterLaw(-1.5, 0.6)
    with pytest.raises(DomainError):
        cell_mass_deposit(law, 1.0, 0.0, 2.0)  # b > x
    with pytest.raises(DomainError):
        partial_moment(law, 1.0, 1.0, 0.5, 0.25)  # a > b
    with pytest.raises(DomainError):
        upsilon_power(law, 0.6, 4.0, 0.0)


def test_e_constant_examples_and_divergence():
    law = DaughterLaw(-1.5, 0.6)
    assert e_constant(law, 1.0) == pytest.approx(5.0, rel=1e-12)
    assert law.e_k0 == pytest.approx(6.0, rel=1e-12)
    uniform = DaughterLaw(0.0, 0.5)
    assert e_constant(uniform, 1.0) == pytest.approx(2.0 / 1.5, rel=1e-12)
    with pytest.raises(DivergentMomentError):
        e_constant(law, 16.0 / 15.0)
    with pytest.raises(DivergentMomentError):
        e_constant(law, 1.2)


def test_e_constant_against_quadrature():
    law = DaughterLaw(-1.5, 0.6)
    p = 1.05
    oracle = quad_oracle(lambda s: s**0.6 * (0.5 * s**-1.5) ** p, 0.0, 1.0)
    assert e_constant(law, p) == pytest.approx(oracle, rel=1e-10)


def test_upsilon_examples():
    for nu in (-1.5, -0.7, 0.0):
        law = DaughterLaw(nu, 0.6)
        assert upsilon_power(law, 1.0, 3.0, 5.0) == 0.0
    law = DaughterLaw(-1.5, 0.6)
    assert upsilon_power(law, 0.6, 1.0, 1.0) == pytest.approx(8.0, rel=1e-12)
    uniform = DaughterLaw(0.0, 0.5)
    assert upsilon_power(uniform, 0.5, 4.0, 4.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_upsilon_against_quadrature():
    law = DaughterLaw(-1.2, 0.5)
    k, x, y = 0.7, 2.0, 0.3
    frag = quad_oracle(
        lambda s: s**k * 0.8 * s**-1.2 * x**0.2, 0.0, x
    ) + quad_oracle(lambda s: s**k * 0.8 * s**-1.2 * y**0.2, 0.0, y)
    assert upsilon_power(law, k, x, y) == pytest.approx(frag - x**k - y**k, rel=1e-10)


def test_upsilon_sign():
    law = DaughterLaw(-1.2, 0.5)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = 10.0 ** rng.uniform(-2, 2, size=2)
        assert upsilon_power(law, rng.uniform(0.21, 0.999), x, y) > 0.0
        assert upsilon_power(law, rng.uniform(1.001, 3.0), x, y) < 0.0


def test_upsilon_bound_by_e_k0():
    rng = np.random.default_rng(19)
    for _ in range(10_000):
        nu = rng.uniform(-1.95, 0.0)
        k0 = rng.uniform(max(0.0, abs(nu) - 1.0) + 1e-3, 0.999)
        law = DaughterLaw(nu, k0)
        x, y = 10.0 ** rng.uniform(-3, 3, size=2)
        assert abs(upsilon_power(law, k0, x, y)) <= law.e_k0 * (x**k0 + y**k0) * (
            1.0 + 1e-12
        )


def test_mass_closure_over_partitions():
    rng = np.random.default_rng(23)
    for _ in range(300):
        law = DaughterLaw(rng.uniform(-1.99, 0.0), 0.999 - 1e-6)
        x = 10.0 ** rng.uniform(-2, 2)
        cuts = np.sort(rng.uniform(0.0, x, size=rng.integers(1, 8)))
        edges = np.concatenate(([0.0], cuts, [x]))
        total = sum(
            cell_mass_deposit(law, x, a, b) for a, b in zip(edges[:-1], edges[1:])
        )
        assert total == pytest.approx(x, rel=1e-12)


def test_partial_moment_k1_matches_mass_deposit():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        nu = rng.uniform(-1.9, 0.0)
        law = DaughterLaw(nu, max(0.0, abs(nu) - 1.0) * 0.5 + 0.5)
        x = 10.0 ** rng.uniform(-2, 2)
        a, b = np.sort(rng.uniform(0.0, x, size=2))
        assert partial_moment(law, 1.0, x, a, b) == pytest.approx(
            cell_mass_deposit(law, x, a, b), rel=1e-12, abs=1e-300
        )


def test_nonintegrable_number_diverges():
    for nu in (-1.0, -1.3, -1.8):
        law = DaughterLaw(nu, abs(nu) - 1.0 + 0.05 if abs(nu) > 1 else 0.5)
        with pytest.raises(DivergentMomentError):
            partial_moment(law, 0.0, 1.0, 0.0, 1.0)


def test_log_case_away_from_origin():
    # k + nu + 1 == 0 exactly: integrand is 1/s, finite on (a, b) with a > 0
    law = DaughterLaw(-1.5, 0.6)
    value = partial_moment(law, 0.5, 2.0, 0.5, 1.5)
    oracle = quad_oracle(lambda s: s**0.5 * 0.5 * s**-1.5 * 2.0**0.5, 0.5, 1.5)
    assert value == pytest.approx(oracle, rel=1e-10)


def test_beta_star_vanishes_outside():
    law = DaughterLaw(-1.2, 0.5)
    assert beta_star(law, 3.0, 2.0) == 0.0
