import tracemalloc

import numpy as np
import pytest

from twoweight import hardy
from twoweight.circle import CircleGrid
from twoweight.debranges import build_system
from twoweight.hardy import (HardyOperators, RationalTestFunction,
                             gram_norm_estimate, random_test_functions,
                             weighted_inner)
from twoweight.weights import fixture, random_polynomial_weight

RNG = np.random.default_rng(99)


def _ops(name, size=256):
    return HardyOperators.build(build_system(fixture(name)), size)


OPS_CONST = _ops("W_CONST", 1024)


def test_test_function_validation():
    with pytest.raises(ValueError, match="pole too close"):
        RationalTestFunction(np.array([1.0 + 1e-5j]), np.array([[1.0]]))
    f = RationalTestFunction(np.array([2.0 + 0j]), np.array([[1.0 + 0j]]))
    assert f.dim == 1
    assert abs(f.standoff - 1.0) < 1e-12


def test_test_function_algebra():
    fs = random_test_functions(RNG, 3, 2)
    combo = fs[0] + 2.0 * fs[1]
    pts = CircleGrid(64).points
    assert np.abs(combo(pts) - fs[0](pts) - 2.0 * fs[1](pts)).max() < 1e-13


def test_weighted_inner_closed_forms():
    w = fixture("W_CONST")
    chi = np.array([[1.0 + 0j]])
    inside = RationalTestFunction(np.array([0.0j]), chi)  # f = 1/mu, norm 1
    outside = RationalTestFunction(np.array([2.0 + 0j]), chi)
    grid = CircleGrid(64)
    assert abs(weighted_inner(inside, inside, w, grid) - 1.0) < 1e-12
    # 1/|mu-2|^2 integrates to 1/3 on the unit circle
    assert abs(weighted_inner(outside, outside, w, grid) - 1.0 / 3.0) < 1e-12
    # analytic/anti-analytic parts are orthogonal
    assert abs(weighted_inner(inside, outside, w, grid)) < 1e-12


def test_weighted_inner_rejects_coarse_grid():
    f = random_test_functions(RNG, 1, 1, standoff_range=(0.01, 0.02))[0]
    with pytest.raises(ValueError, match="grid"):
        weighted_inner(f, f, fixture("W_CONST"), CircleGrid(64))


def test_projections_on_const_weight():
    """For the constant weight the projections act by pole side."""
    chi = np.array([[1.0 + 0j]])
    outside = RationalTestFunction(np.array([2.0 + 0j]), chi)
    inside = RationalTestFunction(np.array([0.4 + 0j]), chi)
    pts = OPS_CONST.grid.points
    assert np.abs(OPS_CONST.project(outside, "+") - outside(pts)).max() < 1e-12
    assert np.abs(OPS_CONST.project(outside, "-")).max() < 1e-12
    assert np.abs(OPS_CONST.project(inside, "-") - inside(pts)).max() < 1e-12
    assert np.abs(OPS_CONST.project(inside, "+")).max() < 1e-12


def test_projections_sum_to_multiplication():
    for name in ("W_COS", "W_DIAG", "W_RANK1"):
        ops = _ops(name)
        for f in random_test_functions(RNG, 3, ops.system.dim):
            assert ops.multiplication_residual(f) < 1e-10, name


def test_apply_x_preserves_weighted_grams():
    # keep poles clear of the circle: trapezoid aliasing decays like
    # (1 - standoff)^M and must sit below the tolerance
    for name in ("W_CONST", "W_DIAG"):
        ops = _ops(name, 1024)
        basis = random_test_functions(RNG, 6, ops.system.dim,
                                      standoff_range=(0.05, 0.9))
        diff = ops.x_gram_residual(basis)
        assert np.abs(diff).max() < 1e-9, name


def test_x_gram_residual_psd_for_singular_weight():
    ops = _ops("W_COS", 1024)
    basis = random_test_functions(RNG, 6, 1, standoff_range=(0.05, 0.9))
    diff = ops.x_gram_residual(basis)
    assert np.linalg.eigvalsh(diff).min() > -1e-10


def test_y_multipliers_are_isometries():
    for name in ("W_CONST", "W_DIAG"):
        ops = _ops(name, 1024)
        basis = random_test_functions(RNG, 10, ops.system.dim)
        for op in ("Y+", "Y-"):
            assert abs(ops.norm_estimate(op, basis) - 1.0) < 1e-6, (name, op)


def test_norm_estimate_unknown_operator():
    basis = random_test_functions(RNG, 2, 1)
    with pytest.raises(ValueError, match="unknown operator"):
        OPS_CONST.norm_estimate("Z", basis)


def test_gram_norm_estimate_rejects_zero_gram():
    with pytest.raises(ValueError, match="zero"):
        gram_norm_estimate(np.eye(2), np.zeros((2, 2)))


def test_contraction_on_fixtures():
    for name in ("W_COS", "W_RANK1"):
        # standoffs reach 1e-2: the guard admits M >= ln(1e6)/1e-2 = 1382
        ops = _ops(name, 2048)
        funcs = random_test_functions(RNG, 25, ops.system.dim)
        ratios = ops.contraction_ratios(funcs)
        assert ratios.shape == (2, 25)
        assert ratios.max() <= 1.0 + 1e-6, name


def _reference_ratios(ops, functions, side):
    """Per-function ratios from project() and full-grid norms."""
    keep = ops.unflagged[:, None, None]
    sources = np.stack([f.evaluate_on(ops.grid) for f in functions], axis=1)
    images = np.stack([ops.project(f, side) for f in functions], axis=1)
    images = np.where(keep, images, 0.0)
    num = np.einsum("mbk,mkl,mbl->b", np.conj(images), ops.w1_samples, images).real
    den = np.einsum("mbk,mkl,mbl->b", np.conj(sources), ops.w0_samples, sources).real
    return num / den


def test_contraction_ratios_match_per_function_reference():
    rng = np.random.default_rng(2024)
    weights = [fixture(name) for name in ("W_CONST", "W_COS", "W_DIAG", "W_RANK1")]
    weights.append(random_polynomial_weight(np.random.default_rng(7), 3))
    for w in weights:
        ops = HardyOperators.build(build_system(w), 4096)
        dim = ops.system.dim
        funcs = (random_test_functions(rng, 4, dim, max_terms=1)
                 + random_test_functions(rng, 12, dim, max_terms=5))
        # one-term and five-term functions side by side exercise the padding
        assert {1, 5} <= {f.poles.size for f in funcs}
        for side, ratios in zip(("+", "-"), ops.contraction_ratios(funcs)):
            reference = _reference_ratios(ops, funcs, side)
            assert np.abs(ratios - reference).max() <= 1e-12 * reference.max(), (dim, side)


def test_contraction_ratios_require_grid_clearance():
    system = build_system(fixture("W_COS"))
    f = RationalTestFunction(np.array([1.01 * np.exp(2j), 1.5]), np.array([[1.0], [1.0]]))
    # standoff 0.01: M >= ln(1e6)/0.01, so 1382 nodes and up
    for size in (64, 1024):
        with pytest.raises(ValueError, match="grid"):
            HardyOperators.build(system, size).contraction_ratios([f])
    # unguarded, M = 64 read 0.3405 for P+ here (off by 0.031 from the resolved
    # value) and M = 1024 read 0.3094575 (off by 4.5e-6)
    fine = HardyOperators.build(system, 4096).contraction_ratios([f])
    finer = HardyOperators.build(system, 8192).contraction_ratios([f])
    assert np.abs(fine - finer).max() < 1e-5


def test_cond_guard_covers_apply_x_and_contraction(monkeypatch):
    ops = _ops("W_DIAG")
    funcs = random_test_functions(np.random.default_rng(11), 3, 2,
                                  standoff_range=(0.05, 0.9))
    monkeypatch.setattr(hardy, "COND_CUTOFF", 0.0)
    with pytest.raises(ValueError, match="numerically singular at pole") as info:
        ops.apply_x(funcs[0])
    assert str(funcs[0].poles[0]) in str(info.value)
    with pytest.raises(ValueError, match="numerically singular at pole"):
        ops.contraction_ratios(funcs)


def test_contraction_ratios_stay_blockwise():
    """No array of grid size per test function: the corpus pass walks the
    grid in node blocks (holding every function's grid values would peak
    near 50 MB here)."""
    ops = _ops("W_DIAG", 4096)
    funcs = random_test_functions(np.random.default_rng(5), 100, 2)
    tracemalloc.start()
    try:
        ops.contraction_ratios(funcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_projection_vs_quadrature_probe():
    f = RationalTestFunction(np.array([2.0 + 0j]), np.array([[1.0 + 0j]]))
    direct = OPS_CONST.project(f, "+")
    quad = OPS_CONST.project_quadrature(f, "+")
    assert np.abs(direct - quad).max() < 200.0 / 1024 ** 2


def test_hilbert_closed_forms_const():
    """H f = -i f - (i/2) chi for f = (mu-2)^-1 chi; H g = +i g for inside pole."""
    chi = np.array([[1.0 + 0j]])
    pts = OPS_CONST.grid.points
    f = RationalTestFunction(np.array([2.0 + 0j]), chi)
    g = RationalTestFunction(np.array([0.5 + 0j]), chi)
    hf = OPS_CONST.hilbert(f)
    expected = -1j * f(pts) - 0.5j * np.ones_like(f(pts))
    assert np.abs(hf - expected).max() < 1e-12
    hg = OPS_CONST.hilbert(g)
    assert np.abs(hg - 1j * g(pts)).max() < 1e-12


def test_hilbert_vs_quadrature():
    f = random_test_functions(RNG, 1, 1, max_terms=2,
                              standoff_range=(0.6, 0.9))[0]
    direct = OPS_CONST.hilbert(f)
    quad = OPS_CONST.hilbert_quadrature(f)
    assert np.abs(direct - quad).max() < 200.0 / 1024 ** 2


def test_gram_identity_residual():
    for name in ("W_CONST", "W_DIAG", "W_RANK1"):
        ops = _ops(name)
        for z1, z2 in ((0.3 + 0j, 0.3 + 0j), (0.4j, -0.3 + 0.2j), (0.0j, 0.5)):
            assert ops.gram_identity_residual(z1, z2) < 1e-9, name


def test_gram_identity_rejects_reflection_locus():
    ops = _ops("W_CONST")
    with pytest.raises(ValueError, match="reflection"):
        ops.gram_identity_residual(0.5, 2.0)  # z1 * conj(z2) = 1


def test_apply_x_rotates_coefficients_only():
    """X keeps the pole set and multiplies each coefficient by D0(pole)."""
    system = build_system(fixture("W_DIAG"))
    ops = HardyOperators.build(system, 256)
    f = random_test_functions(RNG, 1, 2, max_terms=2)[0]
    image = ops.apply_x(f)
    assert np.allclose(image.poles, f.poles)
    for t, pole in enumerate(f.poles):
        expected = system.d0(complex(pole)) @ f.coefficients[t]
        assert np.abs(image.coefficients[t] - expected).max() < 1e-12
