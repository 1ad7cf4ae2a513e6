import tracemalloc

import numpy as np
import pytest

from twoweight import debranges, hardy
from twoweight.circle import TWO_PI, CircleGrid
from twoweight.debranges import DeBrangesSystem, build_system
from twoweight.hardy import (OPERATORS, HardyOperators, RationalTestFunction,
                             gram_norm_estimate, random_test_functions)
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


def test_gram_data_inner_closed_forms():
    """The source Gram in L2(w0) for w0 = 1: f = 1/mu has norm 1,
    1/|mu-2|^2 integrates to 1/3 on the unit circle, and the analytic and
    anti-analytic parts are orthogonal."""
    chi = np.array([[1.0 + 0j]])
    inside = RationalTestFunction(np.array([0.0j]), chi)
    outside = RationalTestFunction(np.array([2.0 + 0j]), chi)
    gram = _ops("W_CONST", 64).gram_data("mult", [inside, outside]).gram0
    assert np.abs(gram - np.diag([1.0, 1.0 / 3.0])).max() < 1e-12


def test_gram_data_rejects_coarse_grid():
    f = random_test_functions(RNG, 1, 1, standoff_range=(0.01, 0.02))[0]
    with pytest.raises(ValueError, match="grid"):
        _ops("W_CONST", 64).gram_data("mult", [f])


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


# -- per-function references for the corpus routes ---------------------------

def _reference_fields(ops, f, grid=None):
    """f and Xf on a grid, one function at a time: the kernel 1/(mu - z)
    node-major, and D0 evaluated pole by pole."""
    kernel = 1.0 / ((grid or ops.grid).points[:, None] - f.poles)
    rotated = np.array([ops.system.d0(complex(z)) @ chi
                        for z, chi in zip(f.poles, f.coefficients)])
    return kernel @ f.coefficients, kernel @ rotated.reshape(f.coefficients.shape)


def _reference_image(ops, op, f):
    values, xf = _reference_fields(ops, f)
    if op == "X":
        return xf
    if op == "mult":
        return np.einsum("mkl,ml->mk", ops.w0_samples, values)
    mult = ops.d0_inner if op[1] == "+" else np.conj(np.swapaxes(ops.d0_inner, -1, -2))
    yf = np.einsum("mkl,ml->mk", mult, values)
    return yf if op[0] == "Y" else (0.5j if op[1] == "+" else -0.5j) * (xf - yf)


def _reference_ratios(ops, functions, side):
    keep = ops.unflagged
    ratios = []
    for f in functions:
        source = _reference_fields(ops, f)[0]
        image = _reference_image(ops, "P" + side, f)[keep]
        num = np.einsum("mk,mkl,ml->", np.conj(image), ops.w1_samples[keep], image).real
        den = np.einsum("mk,mkl,ml->", np.conj(source), ops.w0_samples, source).real
        ratios.append(num / den)
    return np.array(ratios)


def _reference_gram(ops, op, basis):
    keep = ops.unflagged
    sources = np.stack([_reference_fields(ops, f)[0][keep] for f in basis])
    images = np.stack([_reference_image(ops, op, f)[keep] for f in basis])
    grams = []
    for fields, w in ((sources, ops.w0_samples), (images, ops.w1_samples)):
        gram = np.einsum("imk,mkl,jml->ij", np.conj(fields), w[keep], fields) / ops.grid.size
        grams.append(0.5 * (gram + gram.conj().T))
    return grams


def _weights_under_test():
    weights = [fixture(name) for name in ("W_CONST", "W_COS", "W_DIAG", "W_RANK1")]
    return weights + [random_polynomial_weight(np.random.default_rng(7), 3)]


def test_contraction_ratios_match_per_function_reference():
    rng = np.random.default_rng(2024)
    for w in _weights_under_test():
        ops = HardyOperators.build(build_system(w), 4096)
        dim = ops.system.dim
        five = RationalTestFunction(np.array([1.5, 0.5j, -0.7, 1.2j, 0.9 - 0.9j]),
                                    np.ones((5, dim)))
        # one-term and five-term functions side by side exercise the grouping
        funcs = (random_test_functions(rng, 4, dim, max_terms=1)
                 + random_test_functions(rng, 12, dim, max_terms=5) + [five])
        for side, ratios in zip(("+", "-"), ops.contraction_ratios(funcs)):
            reference = _reference_ratios(ops, funcs, side)
            assert np.abs(ratios - reference).max() <= 1e-13 * reference.max(), (dim, side)


def test_gram_data_matches_per_function_reference():
    rng = np.random.default_rng(2025)
    for w in _weights_under_test():
        ops = HardyOperators.build(build_system(w), 1024)
        for count in (8, 40):
            basis = random_test_functions(rng, count, ops.system.dim)
            for op in OPERATORS:
                data = ops.gram_data(op, basis)
                for got, want in zip((data.gram0, data.gram1), _reference_gram(ops, op, basis)):
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (op, count)


def test_x_sup_matches_per_function_reference():
    rng = np.random.default_rng(2026)
    fine = CircleGrid(16384)
    for w in _weights_under_test():
        ops = HardyOperators.build(build_system(w), 4096)
        basis = random_test_functions(rng, 8, ops.system.dim)
        reference = np.array([(np.abs(_reference_fields(ops, f, fine)[1]) ** 2).sum(axis=1).max()
                              for f in basis])
        assert np.abs(ops.x_sup(basis, fine) - reference).max() <= 1e-13 * reference.max()


def test_pointwise_operators_match_per_function_reference():
    rng = np.random.default_rng(2027)
    for w in _weights_under_test():
        ops = HardyOperators.build(build_system(w), 1024)
        keep = ops.unflagged[:, None]
        for f in random_test_functions(rng, 3, ops.system.dim):
            # relative to the terms that cancel: P+- f vanishes when every pole
            # of f is on one side and w0 is constant
            scale = max(np.abs(v).max() for v in _reference_fields(ops, f))
            w0f = _reference_image(ops, "mult", f)
            plus, minus = (_reference_image(ops, "P" + side, f) for side in "+-")
            pairs = [(ops.project(f, side), _reference_image(ops, "P" + side, f))
                     for side in "+-"]
            pairs += [(ops.apply_y(f, side), _reference_image(ops, "Y" + side, f))
                      for side in "+-"]
            pairs.append((ops.hilbert(f), -1j * (plus - minus) + 1j * w0f.mean(axis=0)))
            for got, want in pairs:
                want = np.where(keep, want, 0.0)
                assert np.abs(got - want).max() <= 1e-13 * scale
            residual = np.linalg.norm(plus + minus - w0f, axis=1)[ops.unflagged].max()
            assert abs(ops.multiplication_residual(f) - residual) <= 1e-13 * scale


def test_corpus_routes_evaluate_d0_once(monkeypatch):
    """Each corpus route evaluates D0 once, at every pole of the corpus, when
    it needs X, and not at all otherwise; so do the one-function routes."""
    ops = _ops("W_DIAG", 2048)
    funcs = random_test_functions(np.random.default_rng(3), 40, 2)
    poles = sum(f.poles.size for f in funcs)
    f = funcs[0]
    calls = []
    d0 = DeBrangesSystem.d0

    def counting_d0(self, z):
        calls.append(np.size(z))
        return d0(self, z)

    monkeypatch.setattr(DeBrangesSystem, "d0", counting_d0)
    routes = {op: (lambda op=op: ops.gram_data(op, funcs)) for op in OPERATORS}
    routes["contraction"] = lambda: ops.contraction_ratios(funcs)
    routes["x_sup"] = lambda: ops.x_sup(funcs, CircleGrid(4096))
    for name, route in routes.items():
        calls.clear()
        route()
        assert calls == ([] if name in ("Y+", "Y-", "mult") else [poles]), name
    once = {"project+": lambda: ops.project(f, "+"), "project-": lambda: ops.project(f, "-"),
            "hilbert": lambda: ops.hilbert(f),
            "multiplication": lambda: ops.multiplication_residual(f)}
    never = {"apply_y+": lambda: ops.apply_y(f, "+"), "apply_y-": lambda: ops.apply_y(f, "-"),
             "project_quadrature": lambda: ops.project_quadrature(f, "+"),
             "hilbert_quadrature": lambda: ops.hilbert_quadrature(f)}
    for name, route in {**once, **never}.items():
        calls.clear()
        route()
        assert calls == ([f.poles.size] if name in once else []), name


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
    """The guard of DeBrangesSystem.d0 names the first offending pole: f's
    first for one function, and for a corpus the first pole of the first
    function with the fewest terms (the corpus is sorted by term count)."""
    ops = _ops("W_DIAG")
    funcs = random_test_functions(np.random.default_rng(11), 3, 2,
                                  standoff_range=(0.05, 0.9))
    first = min(funcs, key=lambda f: f.poles.size).poles[0]
    monkeypatch.setattr(debranges, "COND_CUTOFF", 0.0)
    for route, pole in ((lambda: ops.apply_x(funcs[0]), funcs[0].poles[0]),
                        (lambda: ops.project(funcs[0], "-"), funcs[0].poles[0]),
                        (lambda: ops.contraction_ratios(funcs), first)):
        with pytest.raises(ValueError, match="numerically singular") as info:
            route()
        assert str(pole) in str(info.value)


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


def test_gram_identity_evaluates_d0_once(monkeypatch):
    # psi1 = alpha - D0^-1 comes from the same D0 values as the right side
    ops = _ops("W_DIAG")
    calls = []
    d0 = DeBrangesSystem.d0

    def counting_d0(self, z):
        calls.append(np.size(z))
        return d0(self, z)

    monkeypatch.setattr(DeBrangesSystem, "d0", counting_d0)
    ops.gram_identity_residual(0.4j, -0.3 + 0.2j)
    assert calls == [2]
    calls.clear()
    ops.gram_identity_residual(np.array([0.3, 0.4j, 0.0]), np.array([0.3, -0.3 + 0.2j, 0.5]))
    assert calls == [6]


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


def _per_function_corpus(rng, count, dim, max_terms=5, standoff_range=(1e-2, 0.9),
                         sides=(-1.0, 1.0)):
    """The corpus drawn and assembled one function at a time."""
    lo, hi = standoff_range
    out = []
    for _ in range(count):
        terms = int(rng.integers(1, max_terms + 1))
        gap = np.exp(rng.uniform(np.log(lo), np.log(hi), size=terms))
        side = rng.choice(np.asarray(sides), size=terms)
        angle = rng.uniform(0.0, TWO_PI, size=terms)
        poles = (1.0 + side * gap) * np.exp(1j * angle)
        coeffs = rng.standard_normal((terms, dim)) + 1j * rng.standard_normal((terms, dim))
        out.append(RationalTestFunction(poles=poles, coefficients=coeffs))
    return out


def test_random_test_functions_match_per_function_reference():
    """The corpus arithmetic runs once over all functions; every pole and
    coefficient is the per-function one, bit for bit, and the generator
    ends in the same state."""
    cases = [dict(), dict(max_terms=1), dict(max_terms=3, standoff_range=(0.05, 0.9)),
             dict(sides=(1.0,), standoff_range=(0.1, 0.9)), dict(sides=(-1.0,))]
    for seed in (0, 1, 2024):
        for dim in (1, 2, 4):
            for count in (1, 7, 100):
                for kwargs in cases:
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = random_test_functions(rng, count, dim, **kwargs)
                    want = _per_function_corpus(ref_rng, count, dim, **kwargs)
                    assert len(got) == count
                    for f, g in zip(got, want):
                        assert f.poles.tobytes() == g.poles.tobytes()
                        assert f.coefficients.tobytes() == g.coefficients.tobytes()
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert random_test_functions(np.random.default_rng(0), 0, 2) == []


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_apply_matches_the_column_loop(dim):
    """The batched product (k >= 2) agrees with the column-by-column sum to
    roundoff, and the broadcast product at k = 1 exactly."""
    rng = np.random.default_rng(dim)
    shape = (128, dim)
    field = rng.standard_normal(shape + (dim,)) + 1j * rng.standard_normal(shape + (dim,))
    values = rng.standard_normal(shape + (100,)) + 1j * rng.standard_normal(shape + (100,))
    loop = field[:, :, :1] * values[:, :1]
    for c in range(1, dim):
        loop = loop + field[:, :, c:c + 1] * values[:, c:c + 1]
    out = hardy._apply(field, values)
    if dim == 1:
        assert np.array_equal(out, loop)
    bound = 4 * np.finfo(float).eps * (np.linalg.norm(field, axis=(1, 2))
                                      * np.linalg.norm(values, axis=(1, 2)))
    assert np.all(np.abs(out - loop).max(axis=(1, 2)) <= bound)
