import numpy as np
import pytest

import collbreak as cb
from collbreak import (
    DaughterLaw,
    DivergentMomentError,
    DomainError,
    e_constant,
    leak_ratio,
    power_sum_change,
)
from conftest import quad_oracle
from dense_oracle import expanded_counts


def test_law_admissibility():
    with pytest.raises(DomainError):
        DaughterLaw(-2.5, 0.5)
    with pytest.raises(DomainError):
        DaughterLaw(0.5, 0.5)
    with pytest.raises(DomainError):
        DaughterLaw(-1.5, 0.4)  # k0 must exceed |nu|-1
    with pytest.raises(DomainError):
        DaughterLaw(-0.5, 1.0)


def deposits(grid, law):
    """(into, dust): the mass a parent in cell j deposits into cell i, and below the grid.

    Read off the factored vectors of ``scheme.precompute``.
    """
    ws = cb.precompute(grid, cb.KernelSpec(0.0, 0.0), law)
    return grid.reps[:, None] * expanded_counts(ws), ws.parent_factor * ws.edge_dust


def test_first_moment_equals_parent_mass():
    law = DaughterLaw(-1.5, 0.6)
    assert power_sum_change(law, 1.0) == 0.0
    assert leak_ratio(law, 1.0, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_uniform_law_number_of_fragments():
    # two fragments per parent: the 0-th power sum grows by one per breakup
    law = DaughterLaw(0.0, 0.5)
    assert power_sum_change(law, 0.0) + 1.0 == pytest.approx(2.0, rel=1e-12)
    assert leak_ratio(law, 0.0, 3.0) * 3.0 == pytest.approx(2.0, rel=1e-12)


def test_partial_moment_against_quadrature():
    # below any b the fragments carry leak_ratio(k, b) of k-th moment per unit mass
    law = DaughterLaw(-1.5, 0.6)
    oracle = quad_oracle(lambda s: 0.5 * s ** (0.6 - 1.5), 0.0, 1.0)
    assert leak_ratio(law, 0.6, 1.0) == pytest.approx(oracle, rel=1e-10)
    assert leak_ratio(law, 0.6, 1.0) == pytest.approx(5.0, rel=1e-12)
    x, b = 2.0, 0.3
    moment = quad_oracle(lambda s: s**0.6 * 0.5 * s**-1.5 * x**0.5, 0.0, b)
    mass = quad_oracle(lambda s: s * 0.5 * s**-1.5 * x**0.5, 0.0, b)
    assert leak_ratio(law, 0.6, b) * mass == pytest.approx(moment, rel=1e-10)


def test_cell_mass_deposit_examples():
    # reps 0.5 and 2: a parent of size 2 keeps 2 - sqrt(2) in its own cell
    into, dust = deposits(cb.build_grid(0.25, 4.0, 2), DaughterLaw(-1.5, 0.6))
    assert dust[1] == pytest.approx(2.0**-0.5, rel=1e-12)
    assert into[0, 1] == pytest.approx(2.0**-0.5, rel=1e-12)
    assert into[1, 1] == pytest.approx(2.0 - 2.0**0.5, rel=1e-12)
    # reps 1 and 4 under the uniform law
    into, dust = deposits(cb.build_grid(0.5, 8.0, 2), DaughterLaw(0.0, 0.5))
    assert dust[1] == pytest.approx(0.0625, rel=1e-12)
    assert into[0, 1] == pytest.approx(0.9375, rel=1e-12)
    assert into[1, 1] == pytest.approx(3.0, rel=1e-12)


def test_cell_mass_deposit_against_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(25):
        law = DaughterLaw(rng.uniform(-1.9, 0.0), 0.95)
        grid = cb.build_grid(10.0 ** rng.uniform(-3, -1), 10.0 ** rng.uniform(0, 2), 6)
        into, dust = deposits(grid, law)
        j = int(rng.integers(1, 6))
        i = int(rng.integers(0, j))
        x = grid.reps[j]

        def deposit(a, b):
            return quad_oracle(
                lambda s: s * (law.nu + 2.0) * s**law.nu * x ** (-law.nu - 1.0), a, b
            )

        assert into[i, j] == pytest.approx(deposit(*grid.edges[i : i + 2]), rel=1e-9)
        assert into[j, j] == pytest.approx(deposit(grid.edges[j], x), rel=1e-9)
        assert dust[j] == pytest.approx(deposit(0.0, grid.x_min), rel=1e-9)


def test_e_constant_examples_and_divergence():
    law = DaughterLaw(-1.5, 0.6)
    assert e_constant(law) == pytest.approx(5.0, rel=1e-12)
    uniform = DaughterLaw(0.0, 0.5)
    assert e_constant(uniform) == pytest.approx(2.0 / 1.5, rel=1e-12)
    # E's denominator k0 + nu + 1 comes from check_moment_order, which
    # refuses every order at or below |nu| - 1
    with pytest.raises(DivergentMomentError):
        cb.check_moment_order(law, 0.5)
    with pytest.raises(DivergentMomentError):
        cb.check_moment_order(law, 0.4)


def test_e_constant_against_quadrature():
    law = DaughterLaw(-1.2, 0.5)
    oracle = quad_oracle(lambda s: s**0.5 * 0.8 * s**-1.2, 0.0, 1.0)
    assert e_constant(law) == pytest.approx(oracle, rel=1e-10)


def upsilon(law, k, x, y):
    """Net change of the k-th power sum per collision of sizes x and y."""
    return power_sum_change(law, k) * (x**k + y**k)


def test_upsilon_examples():
    for nu in (-1.5, -0.7, 0.0):
        law = DaughterLaw(nu, 0.6)
        assert upsilon(law, 1.0, 3.0, 5.0) == 0.0
    law = DaughterLaw(-1.5, 0.6)
    assert upsilon(law, 0.6, 1.0, 1.0) == pytest.approx(8.0, rel=1e-12)
    uniform = DaughterLaw(0.0, 0.5)
    assert upsilon(uniform, 0.5, 4.0, 4.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_upsilon_against_quadrature():
    law = DaughterLaw(-1.2, 0.5)
    k, x, y = 0.7, 2.0, 0.3
    frag = quad_oracle(
        lambda s: s**k * 0.8 * s**-1.2 * x**0.2, 0.0, x
    ) + quad_oracle(lambda s: s**k * 0.8 * s**-1.2 * y**0.2, 0.0, y)
    assert upsilon(law, k, x, y) == pytest.approx(frag - x**k - y**k, rel=1e-10)


def test_upsilon_sign():
    law = DaughterLaw(-1.2, 0.5)
    rng = np.random.default_rng(2)
    for _ in range(100):
        assert power_sum_change(law, rng.uniform(0.21, 0.999)) > 0.0
        assert power_sum_change(law, rng.uniform(1.001, 3.0)) < 0.0


def test_upsilon_bound_by_e_k0():
    rng = np.random.default_rng(19)
    for _ in range(10_000):
        nu = rng.uniform(-1.95, 0.0)
        k0 = rng.uniform(max(0.0, abs(nu) - 1.0) + 1e-3, 0.999)
        law = DaughterLaw(nu, k0)
        assert abs(power_sum_change(law, k0)) <= (e_constant(law) + 1.0) * (1.0 + 1e-12)


def test_mass_closure_over_partitions():
    rng = np.random.default_rng(23)
    for _ in range(300):
        law = DaughterLaw(rng.uniform(-1.99, 0.0), 0.999 - 1e-6)
        n = int(rng.integers(2, 9))
        grid = cb.build_grid(10.0 ** rng.uniform(-6, -1), 10.0 ** rng.uniform(0, 2), n)
        into, dust = deposits(grid, law)
        np.testing.assert_allclose(into.sum(axis=0) + dust, grid.reps, rtol=1e-12)


def test_nonintegrable_number_diverges():
    for nu in (-1.0, -1.3, -1.8):
        law = DaughterLaw(nu, abs(nu) - 1.0 + 0.05 if abs(nu) > 1 else 0.5)
        with pytest.raises(DivergentMomentError):
            power_sum_change(law, 0.0)
        with pytest.raises(DivergentMomentError):
            leak_ratio(law, 0.0, 1.0)
