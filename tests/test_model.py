import numpy as np
import pytest

from twoweight.circle import CircleGrid
from twoweight.debranges import build_system
from twoweight.model import (build_model, cross_validate, intertwine_residual,
                             model_identity_residual, psi_direct, spectral_nu1)
from twoweight.weights import fixture, random_polynomial_weight

RNG = np.random.default_rng(321)


def test_build_model_validation():
    w = fixture("W_CONST")
    with pytest.raises(ValueError, match="power of two"):
        build_model(w, 100)
    with pytest.raises(ValueError, match="cap"):
        build_model(w, 16384)
    with pytest.raises(ValueError, match="cap"):
        build_model(fixture("W_DIAG"), 8192)  # M*k = 16384


def test_model_unitarity():
    for name in ("W_CONST", "W_COS", "W_DIAG"):
        model = build_model(fixture(name), 64)
        assert np.abs(np.abs(model.phases) - 1.0).max() < 1e-12, name
        u = model.u1
        res = u @ u.conj().T - np.eye(u.shape[0])
        assert np.abs(res).max() < 1e-12, name


def test_gg_star_matches_weight_mean():
    w = fixture("W_DIAG")
    model = build_model(w, 64)
    assert np.abs(model.gg_star - np.diag([0.6, 0.8])).max() < 1e-12


def test_g_blocks_are_node_square_roots():
    # column block m of G is w0(theta_m)^{1/2} / sqrt(M), node by node
    w = random_polynomial_weight(RNG, 2)
    model = build_model(w, 64)
    samples = w.samples_on(CircleGrid(64))
    for m in range(64):
        block = model.g[:, 2 * m:2 * m + 2]
        assert np.abs(block - block.conj().T).max() < 1e-15
        assert np.abs(64 * block @ block - samples[m]).max() < 1e-12


def test_psi_direct_rejects_truncation_band():
    model = build_model(fixture("W_CONST"), 64)
    with pytest.raises(ValueError, match="truncation"):
        psi_direct(model, 0, 0.97)
    with pytest.raises(ValueError):
        psi_direct(model, 2, 0.3)


def test_psi_direct_matches_series_for_psi0():
    w = random_polynomial_weight(RNG, 2)
    system = build_system(w)
    model = build_model(w, 256)
    for z in (0.3, -0.2 + 0.35j, 2.0):
        direct = psi_direct(model, 0, z)
        exact = system.psi0.psi(z)
        assert np.abs(direct - exact).max() < 1e-8


def test_model_identities_and_intertwine():
    for name in ("W_CONST", "W_COS", "W_DIAG", "W_RANK1"):
        model = build_model(fixture(name), 128)
        assert intertwine_residual(model) < 1e-10, name
        for z in (0.3, 0.5j):
            assert model_identity_residual(model, z) < 1e-9, name


def test_cross_validation_errors_shrink_or_floor():
    system = build_system(fixture("W_DIAG"))
    models = [build_model(system.weight, m) for m in (64, 128, 256)]
    table = cross_validate(system, [0.3, -0.4j], models)
    assert list(table.sizes) == [64, 128, 256]
    assert table.errors.shape == (2, 3)
    for row in table.errors:
        for a, b in zip(row[:-1], row[1:]):
            assert b <= max(a / 1.5, 1e-12)
    assert len(list(table.rows())) == 6


def test_spectral_measure_total_mass_and_psd():
    for name in ("W_COS", "W_DIAG"):
        model = build_model(fixture(name), 128)
        measure = spectral_nu1(model)
        assert np.abs(measure.total_mass() - model.gg_star).max() < 1e-10
        lam = np.linalg.eigvalsh(measure.masses)
        assert lam.min() > -1e-12
        traces = measure.trace_masses()
        assert np.all(traces > -1e-14)


def test_spectral_cap():
    # stub with an oversized u1; the cap guard fires before any decomposition
    from twoweight.model import TruncatedModel
    n = 4097
    stub = TruncatedModel(size=n, dim=1, nodes=np.zeros(n),
                          phases=np.ones(n, dtype=complex),
                          g=np.zeros((1, n), dtype=complex),
                          v=np.zeros((n, 1), dtype=complex), half=np.zeros(1),
                          u1=np.zeros((n, n), dtype=complex))
    with pytest.raises(ValueError, match="cap"):
        spectral_nu1(stub)


def test_spectral_cluster_at_pi_ordered_by_mass():
    # the atom and the decoupled node sit at pi within roundoff; the row
    # order inside such a cluster must not depend on that roundoff
    for size in (256, 512):
        measure = spectral_nu1(build_model(fixture("W_COS"), size))
        near = np.abs(measure.angles - np.pi) < 1e-9
        assert near.sum() >= 2, size
        assert np.all(np.diff(measure.trace_masses()[near]) >= 0.0), size


def test_cos_atom_mass_near_pi():
    measure = spectral_nu1(build_model(fixture("W_COS"), 256))
    window = 10.0 * (2.0 * np.pi / 256)
    mass = measure.mass_near(np.pi, window)
    assert abs(mass - 0.5) < 0.05


def test_cumulative_trace_monotone():
    measure = spectral_nu1(build_model(fixture("W_DIAG"), 128))
    _, cum = measure.cumulative_trace()
    assert np.all(np.diff(cum) > -1e-14)
    assert abs(cum[-1] - 1.4) < 1e-10  # trace of diag(0.6, 0.8)
