import numpy as np
import pytest

from collbreak import DomainError, KernelSpec
from collbreak.kernel import kernel_factors
from dense_oracle import kernel_matrix


def phi(spec: KernelSpec, x: float, y: float) -> float:
    """Phi(x, y) = a1(x) a2(y) + a2(x) a1(y) from the scheme's rank-2 factors."""
    (x1, x2), (y1, y2) = kernel_factors(spec, x), kernel_factors(spec, y)
    return float(x1 * y2 + x2 * y1)


def kernel_bound_check(spec: KernelSpec, k0: float, x: float, y: float) -> bool:
    """Whether Phi(x, y) <= 2 (x^k0 + x)(y^k0 + y).

    Valid on the admissible range k0 <= lambda1 <= lambda2 <= 1.
    """
    lhs = phi(KernelSpec(spec.lambda1, spec.lambda2), x, y)
    rhs = 2.0 * (x**k0 + x) * (y**k0 + y)
    return bool(lhs <= rhs)


def test_constant_kernel_is_two_everywhere():
    spec = KernelSpec(0.0, 0.0)
    assert phi(spec, 7.3, 0.2) == 2.0


def test_mixed_exponents_example():
    spec = KernelSpec(0.5, 1.0)
    assert phi(spec, 4.0, 1.0) == pytest.approx(6.0, rel=1e-12)


def test_truncation_kills_large_partner():
    spec = KernelSpec(0.5, 1.0, truncation=2)
    assert phi(spec, 3.0, 1.0) == 0.0


def test_truncation_open_interval_boundaries():
    spec = KernelSpec(0.5, 1.0, truncation=2)
    assert phi(spec, 2.0, 1.0) == 0.0
    assert phi(spec, 0.5, 1.0) == 0.0
    assert phi(spec, 1.9, 1.0) > 0.0


def test_exponents_swapped_to_canonical_order():
    spec = KernelSpec(1.0, 0.25)
    assert (spec.lambda1, spec.lambda2) == (0.25, 1.0)
    assert spec.homogeneity == 1.25


def test_exponent_range_enforced():
    with pytest.raises(DomainError):
        KernelSpec(-2.5, 0.0)
    with pytest.raises(DomainError):
        KernelSpec(0.0, 2.5)
    with pytest.raises(DomainError):
        KernelSpec(0.5, 1.0, truncation=0)


def test_nonpositive_sizes_rejected():
    spec = KernelSpec(0.5, 1.0)
    with pytest.raises(DomainError):
        kernel_factors(spec, [1.0, 0.0])
    with pytest.raises(DomainError):
        kernel_factors(spec, -2.0)


def test_symmetry_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(200):
        l1, l2 = rng.uniform(-2, 2, size=2)
        x, y = rng.uniform(1e-3, 1e3, size=2)
        spec = KernelSpec(l1, l2)
        assert phi(spec, x, y) == phi(spec, y, x)


@pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
def test_homogeneity_scaling(s):
    rng = np.random.default_rng(11)
    for _ in range(50):
        l1, l2 = np.sort(rng.uniform(-1, 1, size=2))
        x, y = rng.uniform(0.01, 10.0, size=2)
        spec = KernelSpec(l1, l2)
        lam = spec.homogeneity
        scaled = phi(spec, s * x, s * y)
        assert scaled == pytest.approx(s**lam * phi(spec, x, y), rel=1e-12)


def test_truncation_sandwich():
    rng = np.random.default_rng(3)
    full = KernelSpec(0.3, 0.9)
    cut = KernelSpec(0.3, 0.9, truncation=5)
    for _ in range(500):
        x, y = rng.uniform(1e-2, 1e2, size=2)
        rate = phi(full, x, y)
        rate_n = phi(cut, x, y)
        assert 0.0 <= rate_n <= rate
        if 0.2 < x < 5.0 and 0.2 < y < 5.0:
            assert rate_n == rate


def test_young_bound_spec_instances():
    assert kernel_bound_check(KernelSpec(1.0, 1.0), 0.5, 1.0, 1.0)  # 2 <= 8
    assert kernel_bound_check(KernelSpec(0.5, 0.5), 0.5, 4.0, 0.25)
    assert kernel_bound_check(KernelSpec(0.5, 1.0), 0.5, 10.0, 10.0)


def test_young_bound_over_admissible_range():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        k0 = rng.uniform(0.01, 0.99)
        l1 = rng.uniform(k0, 1.0)
        l2 = rng.uniform(l1, 1.0)
        x, y = 10.0 ** rng.uniform(-3, 3, size=2)
        assert kernel_bound_check(KernelSpec(l1, l2), k0, x, y)


def test_kernel_matrix_matches_pointwise_and_is_symmetric():
    sizes = np.geomspace(0.01, 50.0, 20)
    spec = KernelSpec(0.4, 0.8, truncation=10)
    mat = kernel_matrix(spec, sizes)
    assert np.array_equal(mat, mat.T)
    for i in (0, 7, 19):
        for j in (2, 7, 13):
            assert mat[i, j] == pytest.approx(
                phi(spec, sizes[i], sizes[j]), rel=1e-14, abs=0.0
            )
