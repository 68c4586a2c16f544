import math

import numpy as np
import pytest

import collbreak as cb
from collbreak import DaughterLaw, KernelSpec, State
from collbreak.grid import MAX_CELLS
from collbreak.kernel import kernel_factors
from conftest import RHS_DIGEST, quad_oracle, run_in_fresh_process
from dense_oracle import DenseRhs, deposit_counts, expanded_counts, kernel_matrix


def weak_form_gap(ws, contents, k):
    """The scheme's k-th moment production less the paper's power test-function rate.

    The rate is (1/2) sum_{j,l} Upsilon_k(r_j, r_l) R_jl with R = c_j Phi_jl c_l,
    which by symmetry is power_sum_change(k) sum_j r_j^k w_j, w = c * (Phi c);
    Phi is the dense kernel matrix.
    """
    reps_k = ws.grid.reps**k
    d_contents, _ = cb.rhs_arrays(ws, contents)
    w = contents * (kernel_matrix(ws.kernel, ws.grid.reps) @ contents)
    return float(np.sum(reps_k * d_contents)) - cb.power_sum_change(ws.law, k) * float(
        np.sum(reps_k * w)
    )


def test_deposit_columns_telescope_to_parent_mass():
    grid = cb.build_grid(1e-4, 10.0, 96)
    ws = cb.precompute(grid, KernelSpec(0.6, 0.6), DaughterLaw(-1.2, 0.5))
    counts = expanded_counts(ws)
    for j in range(grid.n_cells):
        total = float(np.sum(grid.reps * counts[:, j])) + ws.parent_factor[j] * ws.edge_dust
        assert total == pytest.approx(grid.reps[j], rel=1e-12)
    assert np.all(counts >= 0.0)
    assert np.all(ws.parent_factor * ws.edge_dust >= 0.0)


# name -> (kernel, law): truncation, nu = 0, nu = -1.5, l = (0, 0), l = (1, 1), mixed
REGIMES = {
    "truncated": (KernelSpec(0.6, 0.6, truncation=4), DaughterLaw(-1.2, 0.5)),
    "nu=0": (KernelSpec(0.5, 0.5), DaughterLaw(0.0, 0.5)),
    "nu=-1.5": (KernelSpec(0.3, 0.8), DaughterLaw(-1.5, 0.6)),
    "l=(0,0)": (KernelSpec(0.0, 0.0), DaughterLaw(-1.2, 0.5)),
    "l=(1,1)": (KernelSpec(1.0, 1.0), DaughterLaw(-0.5, 0.3)),
    "l=(0.2,0.7)": (KernelSpec(0.2, 0.7), DaughterLaw(-1.1, 0.4)),
}


@pytest.mark.parametrize("n", [2, 37, 512])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_factored_rhs_matches_dense_oracle(regime, n):
    kernel, law = REGIMES[regime]
    grid = cb.build_grid(1e-4, 10.0, n)
    ws = cb.precompute(grid, kernel, law)
    dense = DenseRhs(grid, kernel, law)
    counts = expanded_counts(ws)
    assert np.max(np.abs(counts - dense.counts)) <= 1e-13 * np.max(dense.counts)
    assert np.max(np.abs(ws.parent_factor * ws.edge_dust - dense.dust)) <= 1e-13 * np.max(dense.dust)

    rng = np.random.default_rng(n)
    for _ in range(5):
        contents = rng.uniform(0.0, 2.0, size=n) * (rng.uniform(size=n) > 0.2)
        dc, dd = cb.rhs_arrays(ws, contents)
        ref_dc, ref_dd = dense(contents)
        assert np.max(np.abs(dc - ref_dc)) <= 1e-12 * np.max(np.abs(ref_dc))
        assert abs(dd - ref_dd) <= 1e-12 * abs(ref_dd)
        budget = float(np.sum(grid.reps * dc)) + dd
        assert abs(budget) <= 1e-14 * float(np.sum(grid.reps * np.abs(dc)))


@pytest.mark.parametrize("n", [2, 37, 256])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_batched_rhs_rows_equal_single_calls(regime, n):
    kernel, law = REGIMES[regime]
    grid = cb.build_grid(1e-4, 10.0, n)
    ws = cb.precompute(grid, kernel, law)
    dense = DenseRhs(grid, kernel, law)
    rng = np.random.default_rng(n + 1)
    batch = rng.uniform(0.0, 2.0, size=(65, n))
    batch[:, 1:] *= rng.uniform(size=(65, n - 1)) > 0.2  # empty cells, distinct rows
    batch[7] = 0.0
    assert len({row.tobytes() for row in batch}) == 65

    dc, dd = cb.rhs_arrays(ws, batch)
    assert dc.shape == (65, n) and dd.shape == (65,)
    for contents, rates, dust in zip(batch, dc, dd):
        single_dc, single_dd = cb.rhs_arrays(ws, contents)
        assert type(single_dd) is float
        assert rates.tobytes() == single_dc.tobytes()
        assert float(dust).hex() == single_dd.hex()
        ref_dc, ref_dd = dense(contents)
        assert np.max(np.abs(rates - ref_dc)) <= 1e-12 * np.max(np.abs(ref_dc))
        assert abs(dust - ref_dd) <= 1e-12 * abs(ref_dd)
        budget = float(np.sum(grid.reps * rates)) + dust
        assert abs(budget) <= 1e-14 * float(np.sum(grid.reps * np.abs(rates)))

    # any number of leading axes: the rows of a (5, 13, n) batch are the same rows
    dc3, dd3 = cb.rhs_arrays(ws, batch.reshape(5, 13, n))
    assert dc3.tobytes() == dc.tobytes() and dd3.tobytes() == dd.tobytes()


def rank_two_rhs(ws, contents):
    """``rhs_arrays`` with both rank-2 reductions, from separate copies of the factors.

    w = c (a1 (a2.c) + a2 (a1.c)) per row, then the deposits of
    ``rhs_arrays`` in its order: the rates any kernel gets from the two-term sum.
    """
    a1, a2 = (f.copy() for f in kernel_factors(ws.kernel, ws.grid.reps))
    w = a1 * np.add.reduce(a2 * contents, -1)[..., None]
    w += a2 * np.add.reduce(a1 * contents, -1)[..., None]
    w *= contents
    deposits = ws.parent_factor * w
    tail = np.add.accumulate(deposits[..., :0:-1], -1)
    d_dust = ws.edge_dust * (tail[..., -1] + deposits[..., 0])
    d_contents = w * ws.own_change
    d_contents[..., :-1] += ws.lower_counts[:-1] * tail[..., ::-1]
    return d_contents, d_dust


# name -> (kernel with lambda1 = lambda2, grid bounds); on the last grid a s is
# subnormal in the bottom cells, where (2a) s rounds differently from a s + a s
RANK_ONE = {
    "l=(0,0)": (KernelSpec(0.0, 0.0), (1e-4, 10.0)),
    "l=(0.6,0.6)": (KernelSpec(0.6, 0.6), (1e-4, 10.0)),
    "l=(1,1)": (KernelSpec(1.0, 1.0), (1e-4, 10.0)),
    "truncated": (KernelSpec(0.6, 0.6, truncation=4), (1e-4, 10.0)),
    "l=(2,2),subnormal": (KernelSpec(2.0, 2.0), (1e-78, 1e-73)),
}


@pytest.mark.parametrize("n", [2, 37, 256])
@pytest.mark.parametrize("case", sorted(RANK_ONE))
def test_rank_one_rhs_is_bitwise_the_rank_two_sum(case, n):
    kernel, (x_min, x_max) = RANK_ONE[case]
    ws = cb.precompute(cb.build_grid(x_min, x_max, n), kernel, DaughterLaw(-1.2, 0.5))
    rng = np.random.default_rng(n + 2)
    batch = rng.uniform(0.0, 2.0, size=(9, n)) * (rng.uniform(size=(9, n)) > 0.2)
    # rows with only the bottom cells occupied: no larger parent's deposits swamp them
    batch[5:, max(1, n // 8) :] = 0.0
    assert batch.flags.c_contiguous
    dc, dd = cb.rhs_arrays(ws, batch)
    ref_dc, ref_dd = rank_two_rhs(ws, batch)
    assert dc.tobytes() == ref_dc.tobytes() and dd.tobytes() == ref_dd.tobytes()
    # an empty top cell's rate is 0 times its negative own change, -0.0, and the
    # -0.0 that rhs_arrays adds above the top cell keeps the sign bit
    assert np.all(dc[5:, -1] == 0.0) and np.all(np.signbit(dc[5:, -1]))
    for row, contents in enumerate(batch):
        single_dc, single_dd = cb.rhs_arrays(ws, contents)
        ref_dc, ref_dd = rank_two_rhs(ws, contents)
        assert single_dc.tobytes() == ref_dc.tobytes()
        assert single_dd.hex() == float(ref_dd).hex()
        if row >= 5:
            assert single_dc[-1] == 0.0 and np.signbit(single_dc[-1])



@pytest.mark.parametrize("n", [2, 37, 256])
@pytest.mark.parametrize("case", [*sorted(RANK_ONE), "rank-2"])
def test_rhs_written_into_out_is_out_with_the_same_bytes(case, n):
    # rank 2 is REGIMES' mixed kernel; a vector's out is a row of a stage stack, as in step
    kernel, (x_min, x_max) = RANK_ONE.get(case, (KernelSpec(0.2, 0.7), (1e-4, 10.0)))
    ws = cb.precompute(cb.build_grid(x_min, x_max, n), kernel, DaughterLaw(-1.2, 0.5))
    rng = np.random.default_rng(n + 3)
    batch = rng.uniform(0.0, 2.0, size=(9, n)) * (rng.uniform(size=(9, n)) > 0.2)
    batch[5:, -1] = 0.0  # empty top cells
    out = np.full_like(batch, np.nan)
    dc, dd = cb.rhs_arrays(ws, batch, out)
    ref_dc, ref_dd = cb.rhs_arrays(ws, batch)
    assert dc is out and out.tobytes() == ref_dc.tobytes() and dd.tobytes() == ref_dd.tobytes()
    assert np.all(out[5:, -1] == 0.0) and np.all(np.signbit(out[5:, -1]))
    stack = np.full((7, n), np.nan)
    for row, contents in enumerate(batch):
        view = stack[3]
        dc, dd = cb.rhs_arrays(ws, contents, view)
        ref_dc, ref_dd = cb.rhs_arrays(ws, contents)
        assert dc is view and stack[3].tobytes() == ref_dc.tobytes()
        assert type(dd) is float and dd.hex() == ref_dd.hex()
        if row >= 5:
            assert dc[-1] == 0.0 and np.signbit(dc[-1])


def test_precompute_is_linear_in_cells():
    n = 100_000
    grid = cb.build_grid(1e-8, 10.0, n)
    ws = cb.precompute(grid, KernelSpec(0.6, 0.6), DaughterLaw(-1.2, 0.5))
    arrays = [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
    assert all(v.shape == (n,) for v in arrays)
    assert sum(v.nbytes for v in arrays) < 10e6
    dc, dd = cb.rhs_arrays(ws, np.random.default_rng(5).uniform(size=n))
    assert np.all(np.isfinite(dc)) and np.isfinite(dd) and dd > 0.0
    budget = float(np.sum(grid.reps * dc)) + dd
    assert abs(budget) <= 1e-14 * float(np.sum(grid.reps * np.abs(dc)))


@pytest.mark.parametrize("n", [37, 4096, MAX_CELLS])
def test_suffix_sum_dust_rate_is_accurate_at_every_size(n):
    """d_dust, the bottom of the in-order deposit sum, against a correctly rounded sum.

    A1's physics and data on x in [1e-20, 10], up to the largest grid: the
    sum of N non-negative terms in order errs by at most about N eps, and
    the per-RHS mass identity holds to the bench's 1e-12.
    """
    grid = cb.build_grid(1e-20, 10.0, n)
    ws = cb.precompute(grid, KernelSpec(0.6, 0.6), DaughterLaw(-1.2, 0.5))
    contents = cb.exponential_state(grid, 1.0, 1.0).contents
    dc, dd = cb.rhs_arrays(ws, contents)
    a = kernel_factors(ws.kernel, grid.reps)[0]
    w = contents * (2.0 * a * math.fsum(a * contents))
    exact = math.fsum(ws.edge_dust * ws.parent_factor * w)
    assert exact > 0.0
    assert abs(dd - exact) <= 4 * n * np.finfo(float).eps * exact
    scale = math.fsum(grid.reps * np.abs(dc))
    assert abs(math.fsum(grid.reps * dc) + dd) <= 1e-12 * scale


def test_dust_per_breakup_closed_form_and_quadrature():
    law = DaughterLaw(-1.5, 0.6)
    grid = cb.build_grid(0.25, 4.0, 8)
    ws = cb.precompute(grid, KernelSpec(0.0, 0.0), law)
    for j in (0, 3, 7):
        parent = grid.reps[j]
        expected = parent**0.5 * 0.25**0.5
        assert ws.parent_factor[j] * ws.edge_dust == pytest.approx(expected, rel=1e-12)
        oracle = quad_oracle(
            lambda s: s * 0.5 * s**-1.5 * parent**0.5, 0.0, 0.25
        )
        assert ws.parent_factor[j] * ws.edge_dust == pytest.approx(oracle, rel=1e-9)


def test_uniform_law_top_cell_dust_fraction():
    # 2-cell grid on (1, 4): dust per breakup of the top parent is 1/rep
    law = DaughterLaw(0.0, 0.5)
    grid = cb.build_grid(1.0, 4.0, 2)
    ws = cb.precompute(grid, KernelSpec(0.0, 0.0), law)
    assert ws.parent_factor[1] * ws.edge_dust == pytest.approx(1.0 / grid.reps[1], rel=1e-12)


def test_rhs_zero_state():
    grid = cb.build_grid(0.1, 10.0, 12)
    ws = cb.precompute(grid, KernelSpec(0.5, 0.5), DaughterLaw(-1.0, 0.5))
    dc, dd = cb.rhs_arrays(ws, np.zeros(12))
    assert np.all(dc == 0.0)
    assert dd == 0.0


def test_single_occupied_cell_hand_assembly():
    law = DaughterLaw(-1.2, 0.5)
    kernel = KernelSpec(0.6, 0.6)
    grid = cb.build_grid(0.5, 8.0, 2)
    ws = cb.precompute(grid, kernel, law)
    c1 = 0.7
    state = State(np.array([0.0, c1]))
    dc, dd = cb.rhs_arrays(ws, state.contents)

    rate = 2.0 * grid.reps[1] ** 1.2 * c1 * c1  # R_{11} = Phi(r_1, r_1) c_1^2
    counts, dust = deposit_counts(grid, law)
    assert dc[0] == pytest.approx(rate * counts[0, 1], rel=1e-13)
    assert dc[1] == pytest.approx(rate * counts[1, 1] - rate, rel=1e-13)
    assert dd == pytest.approx(rate * dust[1], rel=1e-13)
    budget = float(np.sum(grid.reps * dc)) + dd
    assert abs(budget) <= 1e-12 * float(np.sum(grid.reps * np.abs(dc)))


def test_mass_budget_identity_random_states():
    grid = cb.build_grid(1e-3, 10.0, 80)
    ws = cb.precompute(grid, KernelSpec(0.4, 0.9), DaughterLaw(-1.4, 0.6))
    rng = np.random.default_rng(17)
    for _ in range(30):
        state = State(rng.uniform(0.0, 2.0, size=80))
        dc, dd = cb.rhs_arrays(ws, state.contents)
        budget = float(np.sum(grid.reps * dc)) + dd
        assert abs(budget) <= 1e-12 * float(np.sum(grid.reps * np.abs(dc)))
        assert dd >= 0.0


def test_gain_only_at_vacuum():
    grid = cb.build_grid(1e-2, 10.0, 40)
    ws = cb.precompute(grid, KernelSpec(0.2, 0.7), DaughterLaw(-1.1, 0.4))
    rng = np.random.default_rng(29)
    for _ in range(20):
        contents = rng.uniform(0.0, 1.0, size=40)
        contents[rng.integers(0, 40)] = 0.0
        state = State(contents)
        dc, _ = cb.rhs_arrays(ws, state.contents)
        assert np.all(dc[contents == 0.0] >= 0.0)


def test_second_process_bitwise_identical(capsys):
    exec(RHS_DIGEST, {})
    assert run_in_fresh_process(RHS_DIGEST) == capsys.readouterr().out


def test_repeated_calls_bitwise_identical():
    grid = cb.build_grid(1e-3, 10.0, 64)
    ws = cb.precompute(grid, KernelSpec(0.3, 0.8), DaughterLaw(-1.3, 0.7))
    state = State(np.random.default_rng(8).uniform(size=64))
    dc1, dd1 = cb.rhs_arrays(ws, state.contents)
    dc2, dd2 = cb.rhs_arrays(ws, state.contents)
    assert np.array_equal(dc1, dc2) and dd1 == dd2


def test_weak_form_residual_k1_is_minus_dust_production():
    grid = cb.build_grid(1e-3, 10.0, 64)
    ws = cb.precompute(grid, KernelSpec(0.6, 0.6), DaughterLaw(-1.2, 0.5))
    state = cb.exponential_state(grid, 1.0, 1.0)
    _, dd = cb.rhs_arrays(ws, state.contents)
    assert weak_form_gap(ws, state.contents, 1.0) == pytest.approx(-dd, rel=1e-12)


def test_weak_form_residual_single_cell_two_term_expression():
    law = DaughterLaw(-1.2, 0.5)
    kernel = KernelSpec(0.6, 0.6)
    grid = cb.build_grid(0.5, 8.0, 2)
    ws = cb.precompute(grid, kernel, law)
    c1 = 1.3
    state = State(np.array([0.0, c1]))
    k = 0.5
    x = grid.reps[1]
    rate = 2.0 * x**1.2 * c1 * c1  # R_{11} = Phi(x, x) c_1^2
    counts, _ = deposit_counts(grid, law)
    produced = rate * (grid.reps[0] ** k * counts[0, 1] + x**k * counts[1, 1] - x**k)
    # Upsilon_k(x, x): the fragments' k-th moments, 2 (nu+2)/(k+nu+1) x^k, less 2 x^k
    upsilon = 2.0 * (law.nu + 2.0) / (k + law.nu + 1.0) * x**k - 2.0 * x**k
    assert weak_form_gap(ws, state.contents, k) == pytest.approx(
        produced - 0.5 * rate * upsilon, rel=1e-12
    )


def test_weak_form_residual_refines_at_first_order():
    kernel = KernelSpec(0.6, 0.6)
    law = DaughterLaw(-1.2, 0.5)
    values = []
    for n in (64, 128, 256):
        grid = cb.build_grid(1e-4, 10.0, n)
        ws = cb.precompute(grid, kernel, law)
        state = cb.exponential_state(grid, 1.0, 1.0)
        # add back the 0.5-th moment flux below x_min, which does not refine away
        _, dd = cb.rhs_arrays(ws, state.contents)
        gap = weak_form_gap(ws, state.contents, 0.5) + cb.leak_ratio(law, 0.5, grid.x_min) * dd
        values.append(abs(gap))
    order = -np.polyfit(np.log([64, 128, 256]), np.log(values), 1)[0]
    assert order >= 0.9


@pytest.mark.parametrize("regime", ["nu=-1.5", "nu=0", "truncated"])
def test_subgrid_moment_flux_matches_per_parent_sum(regime):
    kernel, law = REGIMES[regime]
    grid = cb.build_grid(1e-3, 10.0, 40)
    ws = cb.precompute(grid, kernel, law)
    contents = np.random.default_rng(3).uniform(size=40)
    w = contents * (DenseRhs(grid, kernel, law).kernel_mat @ contents)
    k, nu, x_min = law.k0, law.nu, grid.x_min
    # a parent x sends (nu+2) x^(-nu-1) x_min^(k+nu+1) / (k+nu+1) of k-th moment below x_min
    expected = sum(
        (nu + 2.0) * parent ** (-nu - 1.0) * x_min ** (k + nu + 1.0) / (k + nu + 1.0) * w_j
        for parent, w_j in zip(grid.reps, w)
    )
    _, dd = cb.rhs_arrays(ws, contents)
    assert cb.leak_ratio(law, k, x_min) * dd == pytest.approx(expected, rel=1e-13)


def test_weak_form_residual_divergent_order_rejected():
    grid = cb.build_grid(1e-3, 10.0, 16)
    ws = cb.precompute(grid, KernelSpec(0.0, 0.0), DaughterLaw(-1.5, 0.6))
    state = State(np.ones(16))
    with pytest.raises(cb.DivergentMomentError):
        weak_form_gap(ws, state.contents, 0.4)


def test_dust_scaling_with_x_min():
    # per-event sub-grid mass scales as x_min^(nu+2); exponent recovered to 5%.
    # Grids share the cell ratio so they differ only in where they are cut.
    law = DaughterLaw(-1.5, 0.6)
    kernel = KernelSpec(0.0, 0.0)
    ratio = 10.0 ** (1.0 / 16.0)
    rates = []
    x_mins = []
    for n in (53, 69):
        x_min = 2.0 * ratio**-n
        grid = cb.build_grid(x_min, 2.0, n)
        ws = cb.precompute(grid, kernel, law)
        state = cb.monodisperse_state(grid, 1.0, 1.0)
        _, dd = cb.rhs_arrays(ws, state.contents)
        rates.append(dd)
        x_mins.append(x_min)
    observed = np.log(rates[0] / rates[1]) / np.log(x_mins[0] / x_mins[1])
    assert observed == pytest.approx(law.nu + 2.0, rel=0.05)
