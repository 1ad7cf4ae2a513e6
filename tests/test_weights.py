import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from twoweight import weights
from twoweight.circle import CircleGrid, next_power_of_two
from twoweight.koosis import koosis_transform, muckenhoupt_sup
from twoweight.weights import (FIXTURE_NAMES, MAX_ORDER, MatrixWeight, _mean_norm,
                               fixture, load_weight_spec, normalize,
                               random_polynomial_weight, save_weight_spec,
                               weight_spec_document)

RNG = np.random.default_rng(2024)

# the long-double reference needs a format finer than double (x87 extended
# or IEEE quad); where long double is double it proves nothing
needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                       reason="long double is no wider than double")


def _dominant_fourier_weight(rng, degree, dim):
    """Random orders 1..degree and W(0) = (2 sum ||W(n)|| + 1) I: PSD at every
    point, so the realized samples are never clamped."""
    coeffs = rng.standard_normal((degree + 1, dim, dim)) \
        + 1j * rng.standard_normal((degree + 1, dim, dim))
    coeffs[0] = (2.0 * np.linalg.norm(coeffs[1:], 2, axis=(1, 2)).sum() + 1.0) * np.eye(dim)
    return MatrixWeight.from_fourier(coeffs)


def _long_double_samples(coeffs, size, nodes):
    """W(0) + sum_{n>=1} (W(n) e^{in theta} + h.c.) at theta_m = 2 pi m/size for
    m in nodes, in long double with the phase m n reduced mod size exactly."""
    n = np.arange(1, coeffs.shape[0])
    angle = ((nodes[:, None] * n) % size).astype(np.longdouble) \
        * (8 * np.arctan(np.longdouble(1)) / size)
    tail = (np.cos(angle) + 1j * np.sin(angle)) \
        @ coeffs[1:].reshape(len(n), -1).astype(np.clongdouble)
    tail = tail.reshape((len(nodes),) + coeffs.shape[1:])
    return coeffs[0] + tail + np.conj(np.swapaxes(tail, -1, -2))


def _schatten_norm(a, p):
    """(sum of singular values^p)^(1/p), one matrix at a time: the reference
    for the batched mean norm that normalize uses."""
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    return float((s ** p).sum() ** (1.0 / p))


def test_fixture_names_and_normalization():
    assert FIXTURE_NAMES == ("W_CONST", "W_COS", "W_DIAG", "W_RANK1")
    for name in FIXTURE_NAMES:
        w = fixture(name)
        grid = w.natural_grid()
        samples = w.samples_on(grid)
        norms = np.array([_schatten_norm(s, w.schatten_p) for s in samples])
        assert abs(norms.mean() - 1.0) < 1e-12, name


def test_fixture_values():
    grid = CircleGrid(64)
    cos = fixture("W_COS").samples_on(grid)[:, 0, 0].real
    assert np.abs(cos - (1.0 + np.cos(grid.nodes))).max() < 1e-12
    diag = fixture("W_DIAG").samples_on(grid)
    assert np.abs(diag - np.diag([0.6, 0.8])).max() < 1e-12
    rank1 = fixture("W_RANK1").samples_on(grid)
    lam = np.linalg.eigvalsh(rank1)
    assert np.all(lam[:, 0] < 1e-12)  # rank one at every node


def test_unknown_fixture():
    with pytest.raises(ValueError):
        fixture("W_NOPE")


def test_from_samples_rejects_non_hermitian_and_non_psd():
    skew = np.tile(np.array([[0.0, 1.0], [-1.0, 0.0]])[None], (16, 1, 1))
    with pytest.raises(ValueError, match="Hermitian"):
        MatrixWeight.from_samples(skew + np.eye(2))
    indef = np.tile(np.diag([1.0, -1.0])[None], (16, 1, 1))
    with pytest.raises(ValueError, match="positive semidefinite"):
        MatrixWeight.from_samples(indef)


def test_normalize_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        normalize(MatrixWeight.from_samples(np.zeros((16, 1, 1))))


def test_value_at_matches_samples():
    # Horner at the nodes and the inverse FFT on the grid cross-check each other
    w = fixture("W_COS")
    grid = CircleGrid(64)
    direct = w.value_at(grid.nodes)
    assert np.abs(direct - w.samples_on(grid)).max() < 1e-12
    w = _dominant_fourier_weight(np.random.default_rng(512), 512, 2)
    grid = w.natural_grid()
    scale = np.linalg.norm(w.coefficients, 2, axis=(1, 2)).sum()
    # the points e^{i theta} are rounded, and order n feels that as about n
    # ulp of phase, so the two routes agree to about d ulp
    assert np.abs(w.value_at(grid.nodes) - w.samples_on(grid)).max() < 5e-14 * scale


@needs_long_double
@pytest.mark.parametrize("degree", [64, 512, 2048])
@pytest.mark.parametrize("dim", [1, 2])
def test_grid_realization_matches_long_double(degree, dim):
    # every realization on a grid is one inverse FFT of the series; read on
    # a strided subset of about 256 nodes (full long-double tables would take
    # gigabytes at degree 2048)
    w = _dominant_fourier_weight(np.random.default_rng(degree + dim), degree, dim)
    grid = w.natural_grid()
    nodes = np.arange(1, grid.size, grid.size // 256)
    exact = _long_double_samples(w.coefficients, grid.size, nodes)
    scale = np.linalg.norm(w.coefficients, 2, axis=(1, 2)).sum()
    assert np.abs(w.samples_on(grid)[nodes] - exact).max() <= 4e-15 * scale


def test_sampled_weight_resampling():
    grid = CircleGrid(64)
    values = 1.0 + 0.3 * np.cos(32 * grid.nodes)
    w = MatrixWeight.from_samples(values)
    # coarser dyadic grid: the shared nodes
    coarse = w.samples_on(CircleGrid(16))
    assert np.array_equal(coarse[:, 0, 0].real, values[::4])
    # finer grid: band-limited interpolant, |n| < 32, so the Nyquist-order
    # cos(32 theta) is dropped and the field stays Hermitian PSD
    fine = w.samples_on(CircleGrid(128))
    assert np.abs(fine - np.conj(np.swapaxes(fine, -1, -2))).max() == 0.0
    assert np.linalg.eigvalsh(fine).min() >= 0.0
    assert np.abs(fine - 1.0).max() < 1e-14
    assert np.abs(w.value_at(CircleGrid(128).nodes) - fine).max() < 1e-14


def test_spec_roundtrip(tmp_path):
    for name in FIXTURE_NAMES:
        w = fixture(name)
        path = tmp_path / f"{name}.json"
        save_weight_spec(w, path)
        back = load_weight_spec(path)
        grid = w.natural_grid()
        assert np.abs(back.samples_on(grid) - w.samples_on(grid)).max() < 1e-15
        assert back.schatten_p == w.schatten_p


def test_spec_document_is_json_ready():
    doc = weight_spec_document(fixture("W_DIAG"))
    text = json.dumps(doc, sort_keys=True)
    assert '"dim": 2' in text


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "kind": "nonsense", "data": []}))
    with pytest.raises(ValueError):
        load_weight_spec(path)
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_weight_spec(path)


def test_koosis_roundtrip_and_infinity():
    grid = CircleGrid(64)
    v0 = 1.5 + np.cos(grid.nodes)
    w, c = koosis_transform(v0, grid)
    assert abs(np.array([_schatten_norm(s, 1) for s in w.values]).mean() - 1.0) < 1e-12
    back = c / w.values[:, 0, 0].real
    assert np.abs(back - v0).max() < 1e-12 * np.abs(v0).max()

    v0_inf = v0.copy()
    v0_inf[3] = np.inf  # legal: maps to a zero of the inverse weight
    w_inf, _ = koosis_transform(v0_inf, grid)
    assert w_inf.values[3, 0, 0] == 0.0


def test_koosis_rejects_vanishing_samples():
    grid = CircleGrid(64)
    v0 = np.ones(grid.size)
    v0[5] = 0.0
    with pytest.raises(ValueError, match="vanishes"):
        koosis_transform(v0, grid)


@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (-np.inf, "-inf")])
def test_scalar_routes_refuse_nan_and_minus_infinity_naming_the_sample(value, text):
    # +inf is a zero of the inverse weight, a NaN or -inf sample is no weight
    grid = CircleGrid(64)
    v0 = 1.5 + np.cos(grid.nodes)
    v0[[9, 20]] = [value, np.inf]
    for route in (koosis_transform, muckenhoupt_sup):
        with pytest.raises(ValueError, match=rf"^sample 9 must be finite or \+inf, got {text}$"):
            route(v0, grid)


def test_muckenhoupt_sup():
    grid = CircleGrid(256)
    assert abs(muckenhoupt_sup(np.ones(grid.size), grid) - 1.0) < 1e-12
    bumpy = muckenhoupt_sup(1.2 + np.cos(grid.nodes), grid)
    assert bumpy > 1.0
    with np.errstate(divide="ignore"):
        singular = 1.0 / (1.0 + np.cos(grid.nodes))
    # blocks containing the infinite sample are excluded, the sup stays finite
    assert np.isfinite(muckenhoupt_sup(singular, grid))


def test_random_polynomial_weight_is_psd_and_normalized():
    for dim in (1, 2, 3):
        w = random_polynomial_weight(RNG, dim)
        grid = w.natural_grid()
        samples = w.samples_on(grid)
        lam = np.linalg.eigvalsh(samples)
        assert lam.min() > -1e-10
        norms = np.array([_schatten_norm(s, w.schatten_p) for s in samples])
        assert abs(norms.mean() - 1.0) < 1e-12
        assert w.degree <= 4


def test_random_polynomial_weight_degree():
    for half_degree in (1, 2, 3, 5):
        w = random_polynomial_weight(np.random.default_rng(half_degree), 2, half_degree)
        assert w.degree == half_degree
        assert np.abs(w.fourier[-1]).max() > 0.0
    # the suite's half_degree = 2 weights keep their 64-node natural grid
    assert random_polynomial_weight(RNG, 3).natural_grid().size == 64


def test_natural_grid_keeps_the_old_rule_at_every_order():
    # four times the degree grid is the old max(64, 8(d + 1)), rounded up to a
    # power of two, for every order a spec may carry
    for degree in range(MAX_ORDER + 1):
        grid = MatrixWeight.natural_grid(SimpleNamespace(kind="fourier", degree=degree))
        assert grid.size == next_power_of_two(max(64, 8 * (degree + 1))), degree


# W(0) = diag(3, 0.5), W(1) = diag(0.5, 0.1): the largest singular value at
# theta is 3 + cos(theta), so the Schatten-infinity mean norm is 3
_TWO_SCALE = [[[3.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.1]]]


def test_mean_norm_at_huge_and_infinite_schatten_index():
    for p in (1e6, np.inf):
        w = MatrixWeight.from_fourier(np.array(_TWO_SCALE, dtype=complex), schatten_p=p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(_mean_norm(w) - 3.0) < 1e-12, p


def test_mean_norm_keeps_its_bits_at_p_one_and_two():
    # the direct sum of s^p, bit for bit: normalize (and every construct
    # table) at p = 1 and 2 does not move
    rng = np.random.default_rng(8)
    for p in (1.0, 2.0):
        for dim in (2, 4):
            w = random_polynomial_weight(rng, dim, schatten_p=p).scaled(rng.uniform(0.5, 2.0))
            s = np.linalg.svd(w.samples_on(w.natural_grid()), compute_uv=False)
            assert _mean_norm(w) == float(((s ** p).sum(axis=1) ** (1.0 / p)).mean())


def test_carried_spectra_are_the_eigenvalues_of_the_samples():
    rng = np.random.default_rng(77)
    for dim in (1, 2, 3, 4):
        fourier = random_polynomial_weight(rng, dim, half_degree=3)
        for size in (64, 512):
            field = fourier.field_on(CircleGrid(size))
            assert np.array_equal(field.eigenvalues, np.linalg.eigvalsh(field.values))
        sampled = MatrixWeight.from_samples(fourier.samples_on(CircleGrid(128)))
        assert np.array_equal(sampled.eigenvalues, np.linalg.eigvalsh(sampled.values))
        # own grid, a coarser one (shared nodes) and a finer one (interpolant)
        for size in (128, 64, 512):
            field = sampled.field_on(CircleGrid(size))
            assert np.array_equal(field.eigenvalues, np.linalg.eigvalsh(field.values))
            assert np.array_equal(field.values, sampled.samples_on(CircleGrid(size)))


def _with_spectrum(lam):
    """16 samples V diag(lam) V* with one fixed random unitary V."""
    rng = np.random.default_rng(3)
    vec, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    sample = (vec * np.asarray(lam)) @ vec.conj().T
    return np.tile(0.5 * (sample + sample.conj().T), (16, 1, 1))


def test_clamp_rebuilds_roundoff_negative_samples():
    w = MatrixWeight.from_samples(_with_spectrum([-1e-12, 0.5, 1.0]))
    lam = np.linalg.eigvalsh(w.values)
    assert np.array_equal(w.eigenvalues, lam)
    assert lam.min() > -1e-15  # the -1e-12 eigenvalue was clamped to zero
    assert np.abs(lam[:, 1:] - [0.5, 1.0]).max() < 1e-14
    with pytest.raises(ValueError, match="not positive semidefinite"):
        MatrixWeight.from_samples(_with_spectrum([-1e-9, 0.5, 1.0]))


def test_clean_samples_reuse_a_given_spectrum():
    """A spectrum passed in is not solved again: a clean stack keeps its
    bytes and spectrum, a roundoff-negative one is rebuilt exactly as without
    it, and one below -1e-10 still raises."""
    solved = MatrixWeight.from_samples(_with_spectrum([0.25, 0.5, 1.0]))
    given = MatrixWeight.from_samples(solved.values, eigenvalues=solved.eigenvalues)
    assert given.values.tobytes() == solved.values.tobytes()
    assert given.eigenvalues is solved.eigenvalues
    samples = _with_spectrum([-1e-12, 0.5, 1.0])
    lam = np.linalg.eigvalsh(samples)
    assert -1e-10 <= lam.min() < 0.0
    given = MatrixWeight.from_samples(samples, eigenvalues=lam)
    solved = MatrixWeight.from_samples(samples)
    assert given.values.tobytes() == solved.values.tobytes()
    assert given.eigenvalues.tobytes() == solved.eigenvalues.tobytes()
    samples = _with_spectrum([-1e-9, 0.5, 1.0])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        MatrixWeight.from_samples(samples, eigenvalues=np.linalg.eigvalsh(samples))
    with pytest.raises(ValueError, match="eigenvalues must have shape"):
        MatrixWeight.from_samples(samples, eigenvalues=lam[:, :2])


def test_scaled_samples_carry_the_scaled_spectrum(monkeypatch):
    """c * lam is the spectrum of c * W: scaled, and so normalize, solve no
    eigenproblem over a sampled weight's stack (one eigvalsh until the
    scaled spectrum was passed on)."""
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        grid = CircleGrid(256)
        w = MatrixWeight.from_samples(
            3.7 * random_polynomial_weight(rng, dim).samples_on(grid), grid)
        for factor in (0.3, 1.0 / 3.7, 2.5):
            scaled = w.scaled(factor)
            exact = np.linalg.eigvalsh(scaled.values)
            assert np.abs(scaled.eigenvalues - exact).max() <= 1e-14 * np.abs(exact).max()
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        normalize(w)
        monkeypatch.undo()
        assert calls == []


def test_samples_spec_stack_matches_entry_by_entry_read(tmp_path):
    """The samples loader converts all entries at once; the stack is the one
    the entry-by-entry read builds, and entries without 'imag' still load."""
    rng = np.random.default_rng(12)
    grid = CircleGrid(64)
    w = MatrixWeight.from_samples(random_polynomial_weight(rng, 3).samples_on(grid), grid)
    path = tmp_path / "samples.json"
    save_weight_spec(w, path)
    doc = json.loads(path.read_text())
    reference = np.stack([np.asarray(e["real"]) + 1j * np.asarray(e["imag"])
                          for e in doc["data"]])
    assert load_weight_spec(path).values.tobytes() \
        == MatrixWeight.from_samples(reference).values.tobytes()
    real_only = {"dim": 1, "kind": "samples",
                 "data": [{"real": [[1.0 + 0.5 * np.cos(t)]]} for t in grid.nodes]}
    path.write_text(json.dumps(real_only))
    assert np.array_equal(load_weight_spec(path).values[:, 0, 0],
                          1.0 + 0.5 * np.cos(grid.nodes))
    # any malformed entry falls back to the entry-by-entry read, which names it
    for bad in ({"real": [[1.0, 0.0]]}, {"real": {"a": 1}}, {"imag": [[0.0]]},
                {"real": [["x"]]}):
        doc = dict(real_only, data=list(real_only["data"]))
        doc["data"][5] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^sample 5 must be a 1x1 real/imag matrix pair$"):
            load_weight_spec(path)


def test_fourier_spec_stack_matches_entry_by_entry_read(tmp_path, monkeypatch):
    """A Fourier spec of orders 0..4096 loads by one conversion of all its
    entries to the coefficients that an entry-by-entry read builds."""
    c = np.random.default_rng(4096).standard_normal(4097) \
        + 1j * np.random.default_rng(4097).standard_normal(4097)
    c *= 0.4 / np.abs(c[1:]).sum()
    c[0] = 1.0
    path = tmp_path / "fourier.json"
    save_weight_spec(MatrixWeight.from_fourier(c), path)
    doc = json.loads(path.read_text())
    reference = np.stack([np.asarray(e["real"]) + 1j * np.asarray(e["imag"])
                          for e in doc["data"]])
    conversions = []
    parts = weights._matrix_parts

    def counted(entries, dim):
        conversions.append(len(entries))
        return parts(entries, dim)

    monkeypatch.setattr(weights, "_matrix_parts", counted)
    loaded = load_weight_spec(path)
    assert conversions == [4097]
    assert loaded.degree == 4096
    assert loaded.fourier.tobytes() == MatrixWeight.from_fourier(reference).fourier.tobytes()
