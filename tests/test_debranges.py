import dataclasses
import warnings

import numpy as np
import pytest

from twoweight import debranges
from twoweight.circle import TWO_PI, CircleGrid
from twoweight.debranges import COND_CUTOFF, RESOLVE, DeBrangesSystem, build_system
from twoweight.weights import (PSD_CLAMP, MatrixWeight, fixture, hermitian_part, normalize,
                               random_polynomial_weight)

RNG = np.random.default_rng(55)


def _cos_weight(eps=0.0, phi=0.0):
    """1 + eps + cos(theta - phi), normalized."""
    return normalize(MatrixWeight.from_fourier([1.0 + eps, 0.5 * np.exp(-1j * phi)]))


def _systems():
    for name in ("W_CONST", "W_COS", "W_DIAG", "W_RANK1"):
        yield name, build_system(fixture(name))


def test_alpha_squared_plus_gg_squared_is_identity():
    for name, system in _systems():
        eye = np.eye(system.dim)
        res = system.alpha @ system.alpha + system.gg_star @ system.gg_star - eye
        assert np.abs(res).max() < 1e-12, name


def test_scalar_weights_have_vanishing_alpha():
    # mean of a normalized scalar weight is exactly 1, so alpha = 0
    for name in ("W_CONST", "W_COS"):
        system = build_system(fixture(name))
        assert np.abs(system.alpha).max() == 0.0


def test_d0_times_d1_is_minus_identity():
    system = build_system(fixture("W_DIAG"))
    z = 0.35 * np.exp(1.2j)
    d0 = system.d0(z)
    d1 = -(np.linalg.inv(d0))
    psi1 = system.psi1(z)
    assert np.abs(system.alpha - psi1 - np.linalg.inv(d0)).max() < 1e-13
    assert np.abs(d0 @ d1 + np.eye(2)).max() < 1e-13


def test_psi1_is_herglotz_inside():
    for name, system in _systems():
        for _ in range(5):
            z = RNG.uniform(0.2, 0.6) * np.exp(1j * RNG.uniform(0, 2 * np.pi))
            p1 = system.psi1(z)
            imag = (p1 - p1.conj().T) / 2j
            assert np.linalg.eigvalsh(imag).min() > -1e-10, name


def test_companion_const():
    result = build_system(fixture("W_CONST")).companion_weight(CircleGrid(256))
    assert not result.singular_flags.any()
    assert np.abs(result.w1.values - 1.0).max() < 1e-10
    assert abs(result.deficit) < 1e-10


def test_companion_diag():
    result = build_system(fixture("W_DIAG")).companion_weight(CircleGrid(256))
    assert not result.singular_flags.any()
    assert np.abs(result.w1.values - np.diag([0.6, 0.8])).max() < 1e-10
    assert abs(result.deficit) < 1e-10


def test_companion_cos_flags_only_the_atom():
    # the atom at theta = pi sits on node 128; shifted by half a step it
    # falls between two nodes, where the boundary formula is exact
    cases = [(fixture("W_COS"), [128], 1e-8), (_cos_weight(phi=np.pi / 256), [], 1e-10)]
    for weight, expected, tol in cases:
        result = build_system(weight).companion_weight(CircleGrid(256))
        assert list(np.flatnonzero(result.singular_flags)) == expected
        assert np.abs(result.w1.values[result.unflagged] - 0.5).max() < tol
        assert abs(result.deficit - 0.5) < 5.0 / 256
        assert np.all(result.w1.values[result.singular_flags] == 0.0)


def test_unresolved_spike_is_flagged():
    # no atom: det D0 vanishes at distance eps outside the circle, and the
    # spike of width eps at theta = pi is far narrower than the grid step
    for eps in (1e-3, 1e-6):
        result = build_system(_cos_weight(eps)).companion_weight(CircleGrid(256))
        assert list(np.flatnonzero(result.singular_flags)) == [128], eps
        assert result.deficit >= 0.0, eps


def test_resolve_clause_flags_the_unresolved_nodes_alone():
    # w0 = (1 + eps + cos)/(1 + eps): alpha = 0 and D0+ = iF with
    # F = 1 + e^{i theta}/(1 + eps), so cond(D0+) = max(1, |F|)/|F| peaks at
    # (1 + eps)/eps on theta = pi, and w1 = Im(i/F) = Re F/|F|^2 everywhere
    eps, grid = 1e-4, CircleGrid(1024)
    system = build_system(_cos_weight(eps))
    result = system.companion_weight(grid)
    f = 1.0 + grid.points / (1.0 + eps)
    cond = np.maximum(1.0, np.abs(f)) / np.abs(f)
    unresolved = cond * (TWO_PI / grid.size) > RESOLVE
    assert unresolved.any() and cond.max() < COND_CUTOFF
    assert np.array_equal(result.singular_flags, unresolved)
    assert np.all(result.w1.values[unresolved] == 0.0)
    closed = f.real / np.abs(f) ** 2
    assert np.abs(result.w1.values[~unresolved, 0, 0] - closed[~unresolved]).max() < 1e-8
    # the flagged spike would move the deficit by more than one
    assert closed[unresolved].sum() / grid.size > 1.0
    kept = closed[~unresolved].sum() / grid.size
    assert abs(result.deficit - (1.0 - kept)) < 1e-10


def test_psd_clause_flags_the_nodes_where_w1_dips_below_zero():
    # two copies of W_COS (alpha = 0 at p = inf) with alpha shifted off
    # Hermitian by -0.01i: D0+ = i(F - 0.01), F = 1 + e^{i theta}, so
    # Im psi1+ = -0.01 + Re 1/(F - 0.01) on each copy, negative around
    # theta = pi, where cond(D0+) <= 100 leaves the cond clause quiet
    weight = normalize(MatrixWeight.from_fourier([np.eye(2), 0.5 * np.eye(2)],
                                                 schatten_p=np.inf))
    system = build_system(weight)
    system = dataclasses.replace(system, alpha=system.alpha - 0.01j * np.eye(2))
    grid = CircleGrid(256)
    result = system.companion_weight(grid)
    closed = -0.01 + (1.0 / (grid.points + 0.99)).real
    negative = closed < -PSD_CLAMP
    assert negative.any()
    assert not np.any(result.cond_profile * (TWO_PI / grid.size) > RESOLVE)
    assert np.array_equal(result.singular_flags, negative)
    assert np.all(result.w1.values[negative] == 0.0)
    assert np.all(result.w1.eigenvalues[negative] == 0.0)
    kept = result.w1.values[~negative]
    assert np.abs(kept - closed[~negative, None, None] * np.eye(2)).max() < 1e-10


def test_companion_rank1_decouples_blocks():
    result = build_system(fixture("W_RANK1")).companion_weight(CircleGrid(256))
    w1 = result.w1.values[result.unflagged]
    # active corner behaves like the scalar cos weight, idle corner stays 0
    assert np.abs(w1[:, 0, 0] - 0.5).max() < 1e-8
    assert np.abs(w1[:, 1, 1]).max() < 1e-10
    assert np.abs(w1[:, 0, 1]).max() < 1e-10


def test_cond_profile_finite_off_flags():
    result = build_system(fixture("W_COS")).companion_weight(CircleGrid(256))
    assert np.all(np.isfinite(result.cond_profile[result.unflagged]))


def test_psi1_raises_beyond_cond_cutoff(monkeypatch):
    # alpha keeps D0 invertible on the fixtures, so force a tiny cutoff;
    # for W_COS, D0(-0.5) = i(1 - 0.5) has condition number 2
    monkeypatch.setattr(debranges, "COND_CUTOFF", 1.0 + 1e-9)
    system = build_system(fixture("W_COS"))
    with pytest.raises(ValueError, match="singular"):
        system.psi1(-0.5)
    # one point past the cutoff fails the whole batch, and names that point
    with pytest.raises(ValueError, match=r"singular at z = \(-0\.5\+0j\)"):
        system.psi1(np.array([0.0, 0.5, -0.5 + 0j]))


def _reconstructed_w1(system, theta):
    """(D0+)^-* w0 (D0+)^-1 at one angle: the independent route to w1."""
    value = system.alpha + system.psi0.boundary_profile(np.asarray(theta, float))
    inv = np.linalg.inv(value)
    return inv.conj().T @ system.weight.value_at(theta) @ inv


def test_reconstruction_matches_companion():
    system = build_system(fixture("W_DIAG"))
    result = system.companion_weight(CircleGrid(128))
    for idx in (3, 40, 100):
        theta = float(result.grid.nodes[idx])
        recon = _reconstructed_w1(system, theta)
        assert np.abs(recon - result.w1.values[idx]).max() < 1e-10


def test_reconstruction_identity_on_random_weight():
    """w0 = (D0+)* w1 (D0+) at well-conditioned nodes."""
    w0 = random_polynomial_weight(RNG, 2)
    system = build_system(w0)
    grid = CircleGrid(128)
    result = system.companion_weight(grid)
    d0, cond, norm = system.boundary_profile(grid)
    assert np.allclose(norm, np.linalg.norm(d0, 2, axis=(1, 2)), rtol=1e-14, atol=0)
    assert np.array_equal(norm, result.d0_norm)
    usable = result.unflagged & (cond <= 1e6)
    assert usable.sum() > 100
    w0_samples = w0.samples_on(grid)
    recon = np.einsum("mji,mjk,mkl->mil", d0.conj(), result.w1.values, d0)
    assert np.abs((recon - w0_samples)[usable]).max() < 1e-6


def test_build_system_rejects_unnormalized():
    w = fixture("W_CONST").scaled(3.0)
    with pytest.raises(ValueError, match="normalization"):
        build_system(w)


def test_companion_carries_the_spectrum_of_w1():
    weights = [fixture(name) for name in ("W_COS", "W_RANK1")]
    weights += [random_polynomial_weight(np.random.default_rng(60 + k), k) for k in (1, 2, 3, 4)]
    for w in weights:
        w1 = build_system(w).companion_weight(CircleGrid(512)).w1
        assert np.array_equal(w1.eigenvalues, np.linalg.eigvalsh(w1.values))


def test_unflagged_w1_is_the_hermitian_part_of_im_psi1():
    """w1 is Im psi1+ itself at every unflagged node, bit for bit: no
    eigendecomposition round trip rebuilds it."""
    weights = [fixture(name) for name in ("W_COS", "W_DIAG", "W_RANK1")]
    weights += [random_polynomial_weight(np.random.default_rng(70 + k), k) for k in (2, 3, 4)]
    for w in weights:
        system = build_system(w)
        result = system.companion_weight(CircleGrid(512))
        keep = result.unflagged
        psi1 = system.alpha - np.linalg.inv(result.d0_plus[keep])
        imag = (psi1 - np.conj(np.swapaxes(psi1, -1, -2))) / 2j
        assert np.array_equal(result.w1.values[keep], hermitian_part(imag))
        assert not result.w1.values[~keep].any()


def _svd_reference(x):
    return np.linalg.svd(x[:, None, None], compute_uv=False)


def test_singular_values_of_1x1_stacks_match_the_svd():
    """The closed form for 1x1 stacks gives np.linalg.svd's bytes, also where
    LAPACK rescales (huge, tiny and subnormal entries)."""
    rng = np.random.default_rng(90)
    size = 20_000
    scale = 10.0 ** rng.uniform(-300.0, 300.0, (2, size))
    parts = rng.standard_normal((2, size)) * scale
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1.0, -3.5,
                         2.0 ** -459, 2.0 ** 458, 2.0 ** 459, 1e300, -1e-300])
    x = np.concatenate([
        parts[0] + 1j * parts[1],
        parts[0] + 0j,
        1j * parts[1],
        specials + 0j,
        1j * specials,
        specials + 1j * specials[::-1],
        rng.standard_normal(size) + 1j * rng.standard_normal(size),
    ])
    got = debranges._singular_values(x[:, None, None])
    want = _svd_reference(x)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the norms built on them follow, and a sigma whose inverse overflows
    # reads cond = inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cond, norm = debranges._cond_and_norm(x[:, None, None])
    assert norm.tobytes() == want[:, 0].tobytes()
    overflows = (want[:, 0] > 0.0) & (want[:, 0] < 1.0 / np.finfo(float).max)
    assert overflows.any() and np.isinf(cond[overflows]).all()
