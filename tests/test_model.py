import dataclasses
import tracemalloc

import numpy as np
import pytest

from twoweight.circle import CircleGrid
from twoweight.debranges import build_system
from twoweight.model import (CLUSTER, _branch_2x2, _branch_pairs, _Secular, build_model,
                             cross_validate, intertwine_residual, model_identity_residual,
                             psi_direct, spectral_nu1, unitarity_residual)
from twoweight.verify import CHECKS
from twoweight.weights import MatrixWeight, fixture, normalize, random_polynomial_weight

RNG = np.random.default_rng(321)


def test_build_model_validation():
    w = fixture("W_CONST")
    with pytest.raises(ValueError, match="power of two"):
        build_model(w, 100)
    with pytest.raises(ValueError, match="cap"):
        build_model(w, 131072)
    with pytest.raises(ValueError, match="cap"):
        build_model(fixture("W_DIAG"), 65536)  # M*k = 131072


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
    # stub with an oversized M*k; the cap guard fires before any work
    from twoweight.model import BUILD_CAP, TruncatedModel
    n = BUILD_CAP + 1
    stub = TruncatedModel(size=n, dim=1, nodes=np.zeros(n),
                          phases=np.ones(n, dtype=complex),
                          g=np.zeros((1, n), dtype=complex),
                          v=np.zeros((n, 1), dtype=complex), half=np.zeros(1))
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


def _partial_rank_weight(size):
    # k = 2 samples of rank 2, 1 and 0, with a heavy node just left of a
    # rank-1 node, so H restricted to that node's null space is negative
    rng = np.random.default_rng(11)
    values = np.zeros((size, 2, 2), dtype=complex)
    for m in range(size):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a[int(rng.integers(0, 3)):] = 0.0
        values[m] = a.conj().T @ a
    values[9] = np.diag([size, 0.01])
    values[10] = np.diag([0.0, 0.3])
    return normalize(MatrixWeight.from_samples(values))


def _oracle_weights():
    rng = np.random.default_rng(77)
    named = [(name, fixture(name)) for name in ("W_CONST", "W_COS", "W_DIAG", "W_RANK1")]
    named += [("k2", random_polynomial_weight(rng, 2)),
              ("k3", random_polynomial_weight(rng, 3)),
              ("partial", _partial_rank_weight(64))]
    return named


def _unwrapped(angles):
    # an eigenvalue on the 0/2pi seam may read either end
    return np.where(angles > 2.0 * np.pi - CLUSTER, angles - 2.0 * np.pi, angles)


def _dense_unitarity(model):
    u = model.u1
    # U1* U1 - I is Hermitian: its 2-norm is its largest |eigenvalue|
    return float(np.abs(np.linalg.eigvalsh(u.conj().T @ u - np.eye(u.shape[0]))).max())


def test_unitarity_residual_matches_dense():
    for label, w in _oracle_weights():
        model = build_model(w, 64)
        bound, dense = unitarity_residual(model), _dense_unitarity(model)
        assert bound < 1e-14 and abs(bound - dense) < 1e-14, (label, bound, dense)


def test_unitarity_residual_bounds_mutated_models():
    # one column of v, or one phase, off by a relative 1e-6: the bound stays
    # above the dense value and fails the model.unitarity row
    tolerance = {name: tol for name, tol, _, _ in CHECKS}["model.unitarity"]
    model = build_model(random_polynomial_weight(np.random.default_rng(9), 2), 64)
    v = model.v.copy()
    v[:, 0] *= 1.0 + 1e-6
    phases = model.phases.copy()
    phases[7] *= 1.0 + 1e-6
    for mutated in (dataclasses.replace(model, v=v), dataclasses.replace(model, phases=phases)):
        bound, dense = unitarity_residual(mutated), _dense_unitarity(mutated)
        assert bound >= dense > tolerance, (bound, dense)
        assert bound <= 2.0 * dense, (bound, dense)


def test_spectral_matches_dense_eig():
    # the secular route against numpy's eig of the dense u1: same rows,
    # same angles and the same cumulative mass at every 1e-9 cluster end
    for label, w in _oracle_weights():
        top = 1 << ((512 // w.dim).bit_length() - 1)
        for size in (64,) if label == "partial" else (64, top):
            model = build_model(w, size)
            measure = spectral_nu1(model)
            n = size * w.dim
            assert measure.angles.size == n, (label, size)
            lam, vec = np.linalg.eig(model.u1)
            ref = _unwrapped(np.mod(np.angle(lam), 2.0 * np.pi))
            order = np.argsort(ref, kind="stable")
            ref, vec = ref[order], vec[:, order]
            got = _unwrapped(measure.angles)
            mine = np.argsort(got, kind="stable")
            assert np.abs(got[mine] - ref).max() < 1e-12, (label, size)
            ends = np.flatnonzero(np.diff(np.append(ref, np.inf)) > CLUSTER)
            cum = np.cumsum(measure.masses[mine], axis=0)
            total = np.zeros((w.dim, w.dim), dtype=complex)
            start = 0
            for end in ends:
                basis, _ = np.linalg.qr(vec[:, start:end + 1])
                amp = model.g @ basis
                total += amp @ amp.conj().T
                assert np.abs(cum[end] - total).max() < 1e-12, (label, size, end)
                start = end + 1


# pi to the precision of np.longdouble (80-bit on x86; plain double elsewhere)
PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def _direct_secular(sec, origin, t):
    """The secular sums node by node in extended precision: H, the far slope
    sum_{m != origin} Q_m csc^2 and sum_m tr Q_m |cot|, at theta_origin + t,
    from the exact integer node offsets to the origin."""
    size = sec.size
    steps = ((np.arange(size)[None, :] - origin[:, None] + size // 2) % size) - size // 2
    cot = 1.0 / np.tan((PI_LONG / size) * steps - t.astype(np.longdouble)[:, None] / 2)
    q = sec.q.astype(np.clongdouble)
    h = np.einsum("nm,mij->nij", cot, q) + np.diag(sec.diag)
    csc2 = cot * cot + 1.0
    csc2[np.arange(origin.size), origin] = 0.0
    far = np.einsum("nm,mij->nij", csc2, q)
    return h, far, np.abs(cot) @ np.einsum("mii->m", sec.q).real


def _secular_points(sec, rng, count):
    # origins at coupled nodes, offsets from 1e-13 of the way to the middle
    # of the arc on either side up to the middle itself
    cols, size = sec.cols, sec.size
    right = (np.roll(cols, -1) - cols) % size
    right[right == 0] = size
    left = np.roll(right, 1)
    pick = rng.integers(0, cols.size, count)
    side = rng.choice([-1.0, 1.0], count)
    reach = np.where(side > 0, right[pick], left[pick]) * (np.pi / size)
    t = side * reach * 10.0 ** rng.uniform(-13.0, 0.0, count)
    t[:4] = side[:4] * reach[:4] * 1e-13
    return cols[pick], t


def test_secular_fft_matches_direct_sum():
    # H to 64 eps of sum_m |Q_m cot|, and the far slope, a derivative in
    # omega, to 64 eps of M times that, against the node-by-node sum; at
    # W_COS's zero node (pi, which couples nothing) and at its neighbours too
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    cases = [("W_COS", fixture("W_COS"), (64, 1024)),
             ("k2", random_polynomial_weight(rng, 2), (64, 256)),
             ("k3", random_polynomial_weight(rng, 3), (64, 256)),
             ("partial", _partial_rank_weight(64), (64,))]
    for label, w, sizes in cases:
        for size in sizes:
            sec = _Secular(build_model(w, size))
            origin, t = _secular_points(sec, rng, 300)
            if label == "W_COS":
                # from the node left of pi to within 1e-13 of pi, and just past
                # it, where the atom's root sits within roundoff of pi
                zero = np.array([1e-13, 0.5, 1.0 - 1e-13, 1.0 - 1e-7, 1.0, 1.0 + 1e-9])
                origin = np.append(origin, np.full(zero.size, size // 2 - 1))
                t = np.append(t, zero * (2.0 * np.pi / size))
            h, far, scale = sec.parameters(origin, t)
            h, far = sec.matrices(h), sec.matrices(far)
            h_ref, far_ref, scale_ref = _direct_secular(sec, origin, t)
            bound = 64.0 * eps * scale_ref
            assert np.all(np.abs(h - h_ref).max(axis=(1, 2)) <= bound), (label, size)
            assert np.all(np.abs(far - far_ref).max(axis=(1, 2)) <= size * bound), (label, size)
            # the rounding scale is an estimate (the far nodes as seen from
            # the nearest node), good to a few per cent
            ratio = scale / (scale_ref + sec.diag.sum())
            assert np.all((ratio > 0.9) & (ratio < 1.1)), (label, size)


def test_scalar_branch_is_lapacks_eigenpair_bit_for_bit():
    # r = 1: the eigenvalue is H itself and the eigenvector 1, as LAPACK
    # returns them for the complex 1 x 1 stack, and the weighted forms are
    # the complex quadratic forms of that eigenvector
    rng = np.random.default_rng(11)
    for size in (64, 1024):
        sec = _Secular(build_model(fixture("W_COS"), size))
        origin, t = _secular_points(sec, rng, 300)
        h, far, _ = sec.parameters(origin, t)
        lam, x, weights = _branch_pairs(sec, h, np.zeros(t.size, dtype=int))
        ref_lam, ref_x = np.linalg.eigh(sec.matrices(h))
        assert np.array_equal(lam, ref_lam[:, 0]), size
        assert np.array_equal(x, ref_x[:, :, 0]), size
        for mats in (far, sec.flat[origin]):
            ref = np.einsum("li,lij,lj->l", x.conj(), sec.matrices(mats), x).real
            assert np.array_equal(np.einsum("lp,lp->l", weights, mats), ref), size


def _hermitian_2x2(a, b, d):
    h = np.empty((np.size(a), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1] = a, b, np.conj(b), d
    return h


def test_closed_form_2x2_matches_lapack():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(22)
    count = 400
    scale = 10.0 ** rng.uniform(-150.0, 150.0, count)
    a, d = rng.standard_normal((2, count)) * scale
    b = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * scale
    # diagonal, exactly degenerate (b = 0, a = d), rank 1 (v v*) and zero
    v = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
    a = np.concatenate([a, [2.0, -3.0, 0.0, 1e-150], [5.0, -5.0, 0.0, 1e150],
                        np.abs(v[0]) ** 2, [0.0]])
    d = np.concatenate([d, [-7.0, 1e-300, 4.0, 1e150], [5.0, -5.0, 0.0, 1e150],
                        np.abs(v[1]) ** 2, [0.0]])
    b = np.concatenate([b, np.zeros(8), v[0] * v[1].conj(), [0.0]])
    h = _hermitian_2x2(a, b, d)
    ref = np.linalg.eigvalsh(h)
    size = np.abs(ref).max(axis=1)
    params = np.stack([a, b.real, d, b.imag], axis=1)
    for branch in (0, 1):
        lam, x, weights = _branch_2x2(params, np.full(a.size, branch))
        assert np.all(np.abs(lam - ref[:, branch]) <= 4.0 * eps * size), branch
        residual = np.abs(np.einsum("lij,lj->li", h, x) - lam[:, None] * x).max(axis=1)
        assert np.all(residual <= 8.0 * eps * size), branch
        assert np.all(np.abs(np.linalg.norm(x, axis=1) - 1.0) <= 4.0 * eps), branch
        # the weights give the quadratic form x* M x of any Hermitian M
        m = rng.standard_normal((4, a.size))
        form = np.einsum("li,lij,lj->l", x.conj(), _hermitian_2x2(m[0], m[1] + 1j * m[3], m[2]),
                         x).real
        assert np.allclose(np.einsum("lp,pl->l", weights, m), form, rtol=0.0, atol=1e-14)


def test_spectral_k4_at_m8192_in_bounded_memory():
    # the Newton passes evaluate their roots in chunks and the table is built
    # a column at a time; with one chunk per pass the peak is about 150 MB
    model = build_model(random_polynomial_weight(np.random.default_rng(4), 4), 8192)
    tracemalloc.start()
    try:
        measure = spectral_nu1(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
    assert measure.angles.size == 8192 * 4
    assert np.abs(measure.total_mass() - model.gg_star).max() < 1e-12


def test_chunked_newton_passes_keep_the_bytes(monkeypatch):
    import twoweight.model as model_module
    model = build_model(random_polynomial_weight(np.random.default_rng(3), 3), 256)
    whole = spectral_nu1(model)
    # 4000 bytes hold the Taylor rows of two roots at r = 3
    monkeypatch.setattr(model_module, "GATHER_BYTES", 4000)
    chunked = spectral_nu1(model)
    assert np.array_equal(whole.angles, chunked.angles)
    assert np.array_equal(whole.masses, chunked.masses)


def test_spectral_at_m16384_in_small_memory():
    # above the old cap of M*k = 4096: total mass, the atom at pi, and no
    # array that grows like M^2
    model = build_model(fixture("W_COS"), 16384)
    tracemalloc.start()
    try:
        measure = spectral_nu1(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert measure.angles.size == 16384
    assert np.abs(measure.total_mass() - model.gg_star).max() < 1e-10
    window = 10.0 * (2.0 * np.pi / 16384)
    assert abs(measure.mass_near(np.pi, window) - 0.5) < 0.05


def test_deflated_rows_carry_no_mass():
    # W_COS has a zero column at pi; W_RANK1 has a zero column at pi and its
    # second direction never couples: M*k minus the coupled ranks rows stay
    # on their nodes with mass exactly 0
    size = 128
    nodes = CircleGrid(size).nodes
    for name, deflated in (("W_COS", 1), ("W_RANK1", size + 1)):
        measure = spectral_nu1(build_model(fixture(name), size))
        zero = np.all(measure.masses == 0.0, axis=(1, 2))
        assert zero.sum() == deflated, name
        assert np.all(np.isin(measure.angles[zero], nodes)), name
    measure = spectral_nu1(build_model(_partial_rank_weight(64), 64))
    zero = np.all(measure.masses == 0.0, axis=(1, 2))
    assert zero.sum() > 0
    assert np.all(np.isin(measure.angles[zero], CircleGrid(64).nodes))


def test_secular_count_guard(monkeypatch):
    # an inertia that does not fall along an arc cannot be turned into roots
    import twoweight.model as model_module
    model = build_model(fixture("W_DIAG"), 64)

    def skewed(sec):
        below = np.zeros(sec.cols.size, dtype=int)
        below[5] = 3
        return below

    monkeypatch.setattr(model_module._Secular, "inertia_at_nodes", skewed)
    with pytest.raises(ValueError, match="secular root count"):
        spectral_nu1(model)


def test_woodbury_psi1_matches_dense_solve():
    for label, w in _oracle_weights():
        model = build_model(w, 64)
        u = model.u1
        for z in (0.3, -0.2 + 0.5j, 0.6j, 1.8 - 0.4j):
            x = np.linalg.solve(u - z * np.eye(u.shape[0]), model.g.conj().T)
            dense = 1j * (model.g @ (u @ x) + z * (model.g @ x))
            assert np.abs(psi_direct(model, 1, z) - dense).max() < 1e-13, (label, z)


def test_model_path_has_no_dense_arrays():
    # a dense u1 at M = 8192 alone is 1 GiB; the factored route never forms it
    tracemalloc.start()
    try:
        big = build_model(fixture("W_COS"), 8192)
        psi_direct(big, 1, 0.3)
        assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
        model = build_model(fixture("W_COS"), 4096)
        tracemalloc.reset_peak()
        spectral_nu1(model)
        assert tracemalloc.get_traced_memory()[1] < 64 * 2**20
    finally:
        tracemalloc.stop()
    assert "u1" not in vars(big) and "u1" not in vars(model)
