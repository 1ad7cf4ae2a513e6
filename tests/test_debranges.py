import numpy as np
import pytest

from twoweight import debranges
from twoweight.circle import CircleGrid
from twoweight.debranges import DeBrangesSystem, build_system
from twoweight.weights import MatrixWeight, fixture, normalize, random_polynomial_weight

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
