import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import collbreak as cb
from collbreak import DomainError


def test_geometric_spacing_example():
    grid = cb.build_grid(1e-4, 10.0, 4)
    ratio = 10.0**1.25
    expected = 1e-4 * ratio ** np.arange(5)
    assert grid.edges == pytest.approx(expected, rel=1e-12)


def test_two_cell_example():
    grid = cb.build_grid(1.0, 2.0, 2)
    assert grid.edges == pytest.approx([1.0, np.sqrt(2.0), 2.0], rel=1e-14)
    assert grid.reps == pytest.approx([2.0**0.25, 2.0**0.75], rel=1e-14)


def test_bad_bounds_rejected():
    cases = (((2.0, 1.0, 8), "x_min"), ((0.0, 1.0, 8), "x_min"), ((1.0, 2.0, 1), "n_cells"))
    for args, param in cases:
        with pytest.raises(cb.DomainError) as info:
            cb.build_grid(*args)
        assert info.value.param == param


def test_edges_ratio_constant_and_reps_interior():
    grid = cb.build_grid(3e-5, 42.0, 173)
    ratios = grid.edges[1:] / grid.edges[:-1]
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-12
    assert np.all(grid.reps > grid.edges[:-1])
    assert np.all(grid.reps < grid.edges[1:])


def test_moment_basics():
    grid = cb.build_grid(0.1, 10.0, 16)
    zero = cb.State(np.zeros(16))
    assert cb.moment(grid, zero, 1.0) == 0.0
    one = cb.State(np.zeros(16))
    one.contents[5] = 1.0
    assert cb.moment(grid, one, 2.0) == pytest.approx(grid.reps[5] ** 2, rel=1e-14)


def test_moment_linear_in_contents():
    grid = cb.build_grid(0.1, 10.0, 16)
    rng = np.random.default_rng(1)
    a = cb.State(rng.uniform(size=16))
    b = cb.State(rng.uniform(size=16))
    combo = cb.State(2.0 * a.contents + 3.0 * b.contents)
    for k in (-0.5, 0.3, 1.7):
        assert cb.moment(grid, combo, k) == pytest.approx(
            2.0 * cb.moment(grid, a, k) + 3.0 * cb.moment(grid, b, k), rel=1e-12
        )


def test_monodisperse_mass_exact():
    grid = cb.build_grid(1e-2, 2.0, 55)
    state = cb.monodisperse_state(grid, 1.0, 1.0)
    assert cb.moment(grid, state, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(state.contents) == 1


@pytest.mark.parametrize("mass, mean", [(1.0, 1.0), (2.5, 0.05), (0.3, 40.0)])
def test_exponential_state_matches_per_cell_quadrature(mass, mean):
    # fine cells near x_min, where a difference of exponentials would lose digits
    grid = cb.build_grid(1e-7, 10.0, 300)
    state = cb.exponential_state(grid, mass, mean)
    density = lambda x: np.exp(-x / mean)
    ref = np.array(
        [quad(density, lo, hi, epsrel=1e-13, epsabs=0.0)[0] for lo, hi in zip(grid.edges[:-1], grid.edges[1:])]
    )
    ref *= mass / np.sum(grid.reps * ref)
    np.testing.assert_allclose(state.contents, ref, rtol=1e-10, atol=0.0)


def test_exponential_state_normalised():
    grid = cb.build_grid(1e-4, 10.0, 128)
    state = cb.exponential_state(grid, 1.0, 1.0)
    assert cb.moment(grid, state, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mean", [1.0, 0.5])
def test_exponential_state_refuses_an_overflowing_mass_without_warning(mean):
    # at mean 1 the M_1 sum overflows; at mean 0.5 already mass / mean^2
    grid = cb.build_grid(1e-4, 10.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            cb.exponential_state(grid, 1.7976931348623157e308, mean)
    assert info.value.param == "mass"


def test_table_state_round_trips_grid_contents():
    grid = cb.build_grid(1e-3, 10.0, 64)
    original = cb.exponential_state(grid, 1.0, 1.0)
    densities = original.contents / grid.widths()
    rebuilt = cb.table_state(grid, grid.reps, densities)
    assert rebuilt.contents == pytest.approx(original.contents, rel=1e-12, abs=1e-300)
    for k in (0.5, 1.0, 1.5):
        assert cb.moment(grid, rebuilt, k) == pytest.approx(
            cb.moment(grid, original, k), rel=1e-10
        )


def _table_contents_loop(grid, sizes, densities):
    """Reference for ``table_state``: the O(cells x rows) loop it replaced.

    Integrates the step density cell by cell, overlapping every bin with
    every cell.  Its per-overlap terms are the merged build's, but it sums
    them in another order, so the two agree to round-off, not bitwise.
    """
    if sizes.size == 1:
        lo, hi = np.array([sizes[0] * 0.5]), np.array([sizes[0] * 2.0])
    else:
        mids = np.sqrt(sizes[:-1] * sizes[1:])
        lo = np.concatenate(([sizes[0] ** 2 / mids[0]], mids))
        hi = np.concatenate((mids, [sizes[-1] ** 2 / mids[-1]]))
    contents = np.zeros(grid.n_cells)
    for i in range(grid.n_cells):
        a, b = grid.edges[i], grid.edges[i + 1]
        overlap = np.maximum(np.minimum(hi, b) - np.maximum(lo, a), 0.0)
        contents[i] = float(np.sum(densities * overlap))
    return contents


@pytest.mark.parametrize("seed", range(12))
def test_table_state_matches_per_cell_loop(seed):
    # tables that do not align with the grid: random sizes overhanging either
    # end or lying inside it, one row to many rows per cell, some empty bins
    rng = np.random.default_rng(seed)
    grid = cb.build_grid(10 ** rng.uniform(-4, -1), 10 ** rng.uniform(0, 2), int(rng.integers(2, 200)))
    rows = [1, 2, 3, 50, 400][seed % 5]
    sizes = np.unique(10 ** rng.uniform(-5, 2.5, rows))
    if seed % 4 == 3:  # all rows inside the grid
        sizes = np.unique(np.geomspace(grid.x_min, grid.x_max, rows + 2)[1:-1] * rng.uniform(0.9, 1.1))
    densities = rng.uniform(0.0, 1.0, sizes.size) * (rng.uniform(size=sizes.size) > 0.2)
    densities[rng.integers(sizes.size)] = 1.0
    want = _table_contents_loop(grid, sizes, densities)
    if float(np.sum(grid.reps * want)) <= 0.0:
        with pytest.raises(DomainError) as info:
            cb.table_state(grid, sizes, densities)
        assert info.value.param == "path"
        return
    got = cb.table_state(grid, sizes, densities).contents
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_table_state_rejects_bad_input():
    grid = cb.build_grid(0.1, 10.0, 8)
    with pytest.raises(DomainError) as info:
        cb.table_state(grid, [1.0, 0.5], [1.0, 1.0])  # not increasing
    assert info.value.param == "path"
    with pytest.raises(DomainError) as info:
        cb.table_state(grid, [1.0, 2.0], [1.0, -1.0])  # negative density
    assert info.value.param == "path"
    for sizes in ([0.0, 1.0], [1.0, 1e151], [1e-151, 1.0]):  # outside SIZE_RANGE
        with pytest.raises(DomainError) as info:
            cb.table_state(grid, sizes, [1.0, 1.0])
        assert info.value.param == "path"
    for mass in (None, 1.0):
        with pytest.raises(DomainError) as info:
            cb.table_state(grid, [20.0, 40.0], [1.0, 1.0], mass=mass)  # all above x_max
        assert info.value.param == "path"


def test_state_builders_refuse_non_positive_mass():
    # one mass rule for every builder: a table's explicit mass included, and
    # a monodisperse mass of 0 or one that underflows to 0 in its cell
    grid = cb.build_grid(0.1, 10.0, 8)
    builds = (
        lambda: cb.table_state(grid, [0.5, 1.0, 2.0], [1.0, 1.0, 1.0], mass=-1.0),
        lambda: cb.monodisperse_state(grid, 1.0, 0.0),
        lambda: cb.monodisperse_state(grid, 5.0, 5e-324),
        lambda: cb.exponential_state(grid, 0.0, 1.0),
    )
    for build in builds:
        with pytest.raises(DomainError) as info:
            build()
        assert info.value.param == "mass"


def test_weight_vector_crossover():
    grid = cb.build_grid(0.01, 100.0, 32)
    w = cb.weight_vector(grid, 0.5)
    below = grid.reps < 1.0
    assert w[below] == pytest.approx(grid.reps[below] ** 0.5, rel=1e-14)
    assert w[~below] == pytest.approx(grid.reps[~below] ** 1.5, rel=1e-14)
