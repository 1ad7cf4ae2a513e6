import numpy as np
import pytest

from twoweight.circle import (CircleGrid, FourierSeries, MatrixSampleField,
                              TWO_PI, circle_mean, fourier_coefficients,
                              poisson_kernel)


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
    assert abs(series.coefficient(0)[0, 0] - 2.0) < 1e-14
    assert abs(series.coefficient(1)[0, 0] - 0.5) < 1e-14
    assert abs(series.coefficient(-1)[0, 0] - 0.5) < 1e-14
    assert series.coefficient(100).shape == (1, 1)
    assert np.all(series.coefficient(100) == 0.0)


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
