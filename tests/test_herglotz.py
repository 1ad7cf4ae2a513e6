import numpy as np
import pytest

from twoweight.circle import CircleGrid
from twoweight.herglotz import (HerglotzEvaluator, neville_extrapolate,
                                pair_kernel_quadrature, psi_quadrature,
                                radial_limit)
from twoweight.weights import MatrixWeight, fixture, random_polynomial_weight

RNG = np.random.default_rng(7)


def test_neville_extrapolates_polynomial_in_h():
    # f(h) = 3 + 2h + 5h^2 sampled at h = 2^-j
    h = 2.0 ** -np.arange(4, 12)
    vals = 3.0 + 2.0 * h + 5.0 * h * h
    assert abs(neville_extrapolate(vals) - 3.0) < 1e-12


def test_radial_limit_evaluates_the_ladder_in_one_call():
    calls = []

    def fn(r):
        calls.append(r)
        return np.stack([1.0 + (1.0 - r) * 0.3, 2.0 - (r - 1.0) ** 2], axis=1)

    for side, sign in (("inner", -1.0), ("outer", 1.0)):
        calls.clear()
        limit = radial_limit(fn, side, j_lo=6, j_hi=14)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 1.0 + sign * 2.0 ** -np.arange(6, 15))
        assert np.abs(limit - [1.0, 2.0]).max() < 1e-12
    with pytest.raises(ValueError, match="side"):
        radial_limit(fn, "across")


def test_psi_at_origin_is_i_times_mean():
    for name in ("W_CONST", "W_COS", "W_DIAG"):
        w = fixture(name)
        ev = HerglotzEvaluator(w.coefficients)
        mean = w.samples_on(w.natural_grid()).mean(axis=0)
        assert np.abs(ev.psi(0.0) - 1j * mean).max() < 1e-12


def test_psi_rejects_points_near_circle():
    ev = HerglotzEvaluator(fixture("W_COS").coefficients)
    with pytest.raises(ValueError, match="boundary"):
        ev.psi(1.0 + 1e-10)
    with pytest.raises(ValueError, match="boundary"):
        ev.psi(np.array([0.3, 1.0 + 1e-10, 2.0]))


def test_psi_on_an_array_matches_pointwise():
    ev = HerglotzEvaluator(fixture("W_DIAG").coefficients)
    points = np.array([[0.0, 0.4 * np.exp(0.9j)], [-1.5j, 2.5 + 0.1j]])
    values = ev.psi(points)
    assert values.shape == (2, 2, 2, 2)
    for idx in np.ndindex(points.shape):
        assert np.abs(values[idx] - ev.psi(points[idx])).max() < 1e-14


def test_psi_positive_imaginary_part_inside():
    w = random_polynomial_weight(RNG, 2)
    ev = HerglotzEvaluator(w.coefficients)
    for _ in range(10):
        z = RNG.uniform(0.1, 0.8) * np.exp(1j * RNG.uniform(0, 2 * np.pi))
        p = ev.psi(z)
        imag = (p - p.conj().T) / 2j
        assert np.linalg.eigvalsh(imag).min() > -1e-12


def test_psi_symmetry_between_inside_and_outside():
    """psi(1/conj(z))* = psi(z) for the reflected point."""
    for name in ("W_DIAG", "W_COS"):
        ev = HerglotzEvaluator(fixture(name).coefficients)
        z = 0.4 * np.exp(0.9j)
        reflected = 1.0 / np.conj(z)
        assert np.abs(ev.psi(reflected).conj().T - ev.psi(z)).max() < 1e-13


def test_series_vs_quadrature_on_random_weight():
    w = random_polynomial_weight(RNG, 2)
    ev = HerglotzEvaluator(w.coefficients)
    field = w.field_on(CircleGrid(256))
    for z in (0.3, -0.45j, 1.9 + 0.2j):
        direct = ev.psi(z)
        quad = psi_quadrature(z, field)
        assert np.abs(direct - quad).max() < 1e-9


def test_pair_kernel_quadrature_matches_separable_case():
    # rank-one constant density: kernel integral has a closed geometric form
    w = fixture("W_CONST")
    field = w.field_on(CircleGrid(256))
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.4j
    quad = pair_kernel_quadrature(z1, z2, field)
    exact = 1.0 / (1.0 - z1 * np.conj(z2))
    assert abs(quad[0, 0] - exact) < 1e-12


def test_boundary_exact_matches_ladder():
    ev = HerglotzEvaluator(fixture("W_COS").coefficients)
    for theta in (0.3, 2.0, 4.5):
        point = np.exp(1j * theta)
        for side in ("inner", "outer"):
            exact = ev.boundary_profile(np.asarray(theta), side)
            ladder = radial_limit(lambda r: ev.psi(r * point), side=side)
            assert np.abs(exact - ladder).max() < 1e-9


def test_boundary_profile_vectorizes_boundary():
    ev = HerglotzEvaluator(random_polynomial_weight(RNG, 2).coefficients)
    grid = CircleGrid(64)
    prof = ev.boundary_profile(grid.nodes, "inner")
    assert np.abs(prof - ev.ring_values(grid)).max() < 1e-13


def test_jump_recovers_weight():
    # a sampled weight with a Nyquist-order part, realised on a finer grid
    # than its own: both sides keep the orders |n| < 16 only
    coarse = CircleGrid(32)
    band = random_polynomial_weight(np.random.default_rng(5), 2)
    nyquist = 0.2 * (1.0 + np.cos(16 * coarse.nodes))[:, None, None] * np.eye(2)
    sampled = MatrixWeight.from_samples(band.samples_on(coarse) + nyquist, coarse)
    weights = [fixture(name) for name in ("W_COS", "W_DIAG", "W_RANK1")] + [sampled]
    for w in weights:
        grid = CircleGrid(128)
        ev = HerglotzEvaluator(w.coefficients)
        jump = (ev.boundary_profile(grid.nodes, "inner")
                - ev.boundary_profile(grid.nodes, "outer")) / 2j
        assert np.abs(jump - w.samples_on(grid)).max() < 1e-12


def test_ring_values_reject_coarse_grid():
    w = random_polynomial_weight(RNG, 1, half_degree=16)  # degree 16
    ev = HerglotzEvaluator(w.coefficients)
    with pytest.raises(ValueError, match="coarse"):
        ev.ring_values(CircleGrid(16))
