import tracemalloc

import numpy as np
import pytest

from twoweight.circle import (CircleGrid, FourierSeries, MatrixSampleField,
                              TWO_PI, circle_mean, evaluate_series,
                              fourier_coefficients, poisson_kernel)

# the long-double references need a format finer than double (x87 extended
# or IEEE quad); where long double is double they prove nothing
needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                       reason="long double is no wider than double")


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        CircleGrid(100)
    with pytest.raises(ValueError):
        CircleGrid(8)


def test_grid_nodes_and_points():
    grid = CircleGrid(16)
    assert grid.nodes.shape == (16,)
    assert np.allclose(grid.nodes, TWO_PI * np.arange(16) / 16)
    assert np.allclose(grid.points, np.exp(1j * grid.nodes))


def test_field_requires_finite_square_samples():
    grid = CircleGrid(16)
    bad = np.ones((16, 2, 2))
    bad[3, 0, 0] = np.inf
    with pytest.raises(ValueError):
        MatrixSampleField(grid, bad)
    with pytest.raises(ValueError):
        MatrixSampleField(grid, np.ones((8, 2, 2)))
    with pytest.raises(ValueError, match="eigenvalues"):
        MatrixSampleField(grid, np.ones((16, 2, 2)), eigenvalues=np.ones((16, 3)))


def test_fft_roundtrip_random_field():
    rng = np.random.default_rng(42)
    grid = CircleGrid(64)
    values = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    field = MatrixSampleField(grid, values)
    back = fourier_coefficients(field).synthesize(grid).values
    assert np.abs(back - values).max() < 1e-13


def test_fourier_coefficients_match_direct_sum():
    grid = CircleGrid(16)
    values = (np.cos(grid.nodes) + 2.0)[:, None, None] * np.eye(1)
    series = fourier_coefficients(MatrixSampleField(grid, values))
    # cos has coefficients 1/2 at orders +-1, constant 2 at order 0
    assert list(series.orders) == list(range(-8, 8))
    assert series.coeffs.shape == (16, 1, 1)
    expected = np.zeros(16)
    expected[series.orders == 0] = 2.0
    expected[np.abs(series.orders) == 1] = 0.5
    assert np.abs(series.coeffs[:, 0, 0] - expected).max() < 1e-14


def test_synthesize_rejects_size_mismatch():
    grid = CircleGrid(16)
    series = fourier_coefficients(
        MatrixSampleField(grid, np.ones((16, 1, 1))))
    with pytest.raises(ValueError):
        series.synthesize(CircleGrid(32))


def test_poisson_kernel_mean_and_positivity():
    grid = CircleGrid(256)
    for r in (0.3, 0.7, 0.95):
        kernel = poisson_kernel(r, grid.nodes - 1.1)
        assert np.all(kernel > 0.0)
        assert abs(kernel.mean() - 1.0) < 3.0 * r ** 256 + 1e-13


def test_circle_mean():
    grid = CircleGrid(32)
    values = np.tile(np.diag([1.0, 3.0])[None, :, :], (32, 1, 1)).astype(complex)
    values[:, 0, 0] += np.cos(grid.nodes)  # mean-free perturbation
    mean = circle_mean(MatrixSampleField(grid, values))
    assert np.abs(mean - np.diag([1.0, 3.0])).max() < 1e-14


@needs_long_double
@pytest.mark.parametrize("degree", [64, 512, 2048])
@pytest.mark.parametrize("dim", [1, 2])
def test_evaluate_series_matches_long_double(degree, dim):
    # Horner at 200 random points on the circle and inside it, against the
    # power table summed in long double
    rng = np.random.default_rng(degree + dim)
    coeffs = rng.standard_normal((degree + 1, dim, dim)) \
        + 1j * rng.standard_normal((degree + 1, dim, dim))
    z = rng.choice([1.0, 0.99, 0.5], 200) * np.exp(1j * rng.uniform(0.0, TWO_PI, 200))
    powers = np.cumprod(np.tile(z.astype(np.clongdouble)[:, None], (1, degree)), axis=1)
    exact = coeffs[0] + (powers @ coeffs[1:].reshape(degree, -1).astype(np.clongdouble)
                         ).reshape(200, dim, dim)
    scale = np.linalg.norm(coeffs, 2, axis=(1, 2)).sum()
    assert np.abs(evaluate_series(coeffs, z) - exact).max() <= 1e-15 * scale


def test_evaluate_series_forms_no_power_table():
    # a (points, degree) table of z^n alone would hold 134 MB here
    coeffs = np.full((2049, 1, 1), 1e-3 + 0j)
    z = np.exp(1j * np.linspace(0.0, TWO_PI, 4096, endpoint=False))
    tracemalloc.start()
    try:
        evaluate_series(coeffs, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
