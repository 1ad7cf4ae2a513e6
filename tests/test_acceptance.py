"""Acceptance gate: one test per shipped guarantee.

Each test prints a single visible pass/fail line (bypassing capture) and
then asserts, so the gate table is readable straight off the pytest log.
Expensive constructions are cached at module scope and shared across gates.
"""

import zlib

import numpy as np

from twoweight.circle import CircleGrid
from twoweight.debranges import build_system
from twoweight.hardy import (HardyOperators, RationalTestFunction,
                             random_test_functions)
from twoweight.model import (build_model, cross_validate, intertwine_residual,
                             model_identity_residual, spectral_nu1)
from twoweight.verify import koosis_pipeline
from twoweight.weights import (FIXTURE_NAMES, fixture, normalize,
                               random_polynomial_weight)

TWO_PI = 2.0 * np.pi

_SYSTEMS = {}
_OPS = {}
_MODELS = {}
_RANDOM = []


def _system(name):
    if name not in _SYSTEMS:
        _SYSTEMS[name] = build_system(fixture(name))
    return _SYSTEMS[name]


def _ops(name, size):
    key = (name, size)
    if key not in _OPS:
        _OPS[key] = HardyOperators(_system(name), CircleGrid(size))
    return _OPS[key]


def _model(name, size):
    key = (name, size)
    if key not in _MODELS:
        _MODELS[key] = build_model(fixture(name), size)
    return _MODELS[key]


def _random_systems():
    """Ten seeded random trig-polynomial weights, dims cycling 1..4."""
    if not _RANDOM:
        rng = np.random.default_rng(1729)
        for i in range(10):
            weight = random_polynomial_weight(rng, 1 + i % 4)
            system = build_system(normalize(weight))
            companion = system.companion_weight(CircleGrid(2048))
            _RANDOM.append((system, companion))
    return _RANDOM


def _sqrt_psd(values):
    lam, vec = np.linalg.eigh(values)
    lam = np.clip(lam, 0.0, None)
    vec_h = np.conj(np.swapaxes(vec, -1, -2))
    return (vec * np.sqrt(lam)[..., None, :]) @ vec_h


def _psd_ranks(values, threshold):
    return (np.linalg.eigvalsh(values) > threshold).sum(axis=-1)


def _sandwich_sup(w0, w1, keep):
    root = _sqrt_psd(w0[keep])
    inner = root @ w1[keep] @ root
    lam = np.linalg.eigvalsh(0.5 * (inner + np.conj(np.swapaxes(inner, -1, -2))))
    return float(lam.max())


def _draw_z(rng, lo=0.1, hi=0.8):
    r = float(rng.uniform(lo, hi))
    t = float(rng.uniform(0.0, TWO_PI))
    return r * np.exp(1j * t)


def _report(capsys, num, label, problems):
    status = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] gate {num:02d} {label}: {status}")
    assert not problems, "; ".join(problems)


def test_gate_01_cos_companion_closed_form(capsys):
    size = 1024
    ops = _ops("W_COS", size)
    comp = ops.companion
    problems = []
    flagged = np.flatnonzero(comp.singular_flags)
    if list(flagged) != [size // 2]:
        problems.append(f"flags at {list(flagged)}, expected [{size // 2}]")
    dev = float(np.abs(comp.w1.values[~comp.singular_flags] - 0.5).max())
    if dev > 1e-8:
        problems.append(f"w1 deviates from 1/2 by {dev:.3e}")
    if abs(comp.deficit - 0.5) > 5.0 / size:
        problems.append(f"deficit {comp.deficit:.6f} outside 0.5 +- {5.0 / size:.4f}")
    system = _system("W_COS")
    for z in (0.3 + 0.0j, -0.2 + 0.35j, 0.45j):
        oracle = 1j / (1.0 + z)
        err = abs(complex(system.psi1(z)[0, 0]) - oracle)
        if err > 1e-9:
            problems.append(f"psi1({z}) off closed form by {err:.3e}")
    _report(capsys, 1, "W_COS companion is 1/2 a.e. plus a point mass", problems)


def test_gate_02_constant_companions(capsys):
    problems = []
    const = _ops("W_CONST", 256).companion
    dev = float(np.abs(const.w1.values - 1.0).max())
    if dev > 1e-10:
        problems.append(f"W_CONST w1 deviates by {dev:.3e}")
    if const.deficit > 1e-10:
        problems.append(f"W_CONST deficit {const.deficit:.3e}")
    diag = _ops("W_DIAG", 256).companion
    dev = float(np.abs(diag.w1.values - np.diag([0.6, 0.8])).max())
    if dev > 1e-10:
        problems.append(f"W_DIAG w1 deviates by {dev:.3e}")
    _report(capsys, 2, "constant companions reproduce the weight", problems)


def test_gate_03_model_route_identities(capsys):
    problems = []
    for fx in FIXTURE_NAMES:
        mdl = _model(fx, 256)
        rng = np.random.default_rng([1729, 3, zlib.crc32(fx.encode())])
        worst = max(model_identity_residual(mdl, _draw_z(rng)) for _ in range(20))
        if worst > 1e-9:
            problems.append(f"{fx} identity residual {worst:.3e}")
        drift = intertwine_residual(mdl)
        if drift > 1e-9:
            problems.append(f"{fx} intertwine residual {drift:.3e}")
        table = cross_validate(_system(fx), [0.3],
                               [_model(fx, m) for m in (128, 256, 512)])
        errs = table.errors[0]
        for a, b in zip(errs, errs[1:]):
            # machine-floor fallback: constant fixtures converge instantly
            if b > max(a / 1.5, 1e-12):
                problems.append(f"{fx} errors {list(errs)} not decreasing")
                break
    _report(capsys, 3, "truncated model reproduces the algebra", problems)


def test_gate_04_gram_identity(capsys):
    problems = []
    targets = [(fx, _ops(fx, 256)) for fx in FIXTURE_NAMES]
    targets += [(f"random-{i}", HardyOperators(system, CircleGrid(256)))
                for i, (system, _) in enumerate(_random_systems())]
    rng = np.random.default_rng([1729, 4])
    pairs = [(_draw_z(rng), _draw_z(rng)) for _ in range(50)]
    for label, ops in targets:
        worst = max(ops.gram_identity_residual(z1, z2) for z1, z2 in pairs)
        if worst > 1e-9:
            problems.append(f"{label} residual {worst:.3e}")
    _report(capsys, 4, "reproducing-kernel gram identity", problems)


def test_gate_05_two_weight_contraction(capsys):
    problems = []
    for fx in FIXTURE_NAMES:
        ops = _ops(fx, 4096)
        rng = np.random.default_rng([1729, 5, zlib.crc32(fx.encode())])
        funcs = random_test_functions(rng, 100, ops.system.dim)
        for side, ratios in zip(("+", "-"), ops.contraction_ratios(funcs)):
            excess = float(ratios.max()) - 1.0
            if excess > 1e-6:
                problems.append(f"{fx} P{side} ratio excess {excess:.3e}")
    _report(capsys, 5, "weighted projections are contractions", problems)


def test_gate_06_projection_quadrature_rate(capsys):
    problems = []
    probe = RationalTestFunction(np.array([2.0 + 0.0j]), np.ones((1, 1)))
    errors = {}
    for size in (1024, 2048):
        ops = _ops("W_COS", size)
        direct = ops.project(probe, "+")
        quad = np.where(ops.unflagged[:, None],
                        ops.project_quadrature(probe, "+"), 0.0)
        errors[size] = float(np.abs(direct - quad).max())
        if errors[size] > 200.0 / size ** 2:
            problems.append(f"M={size} error {errors[size]:.3e} > {200.0 / size ** 2:.3e}")
    ratio = errors[1024] / max(errors[2048], 1e-300)
    if ratio < 3.0:
        problems.append(f"refinement ratio {ratio:.2f} < 3")
    _report(capsys, 6, "independent quadrature route agrees at O(1/M^2)", problems)


def test_gate_07_sandwich_bound(capsys):
    problems = []
    for fx in FIXTURE_NAMES:
        ops = _ops(fx, 1024)
        sup = _sandwich_sup(ops.w0_samples, ops.w1_samples, ops.unflagged)
        if sup > 1.0 + 1e-8:
            problems.append(f"{fx} sandwich sup {sup - 1.0:.3e} above 1")
        if fx == "W_COS" and sup < 1.0 - 50.0 / 1024:
            problems.append(f"W_COS sandwich sup {sup:.6f} not saturating")
    for i, (system, comp) in enumerate(_random_systems()):
        w0 = system.weight.samples_on(comp.grid)
        sup = _sandwich_sup(w0, comp.w1.values, ~comp.singular_flags)
        if sup > 1.0 + 1e-8:
            problems.append(f"random-{i} sandwich sup {sup - 1.0:.3e} above 1")
    _report(capsys, 7, "w0^(1/2) w1 w0^(1/2) stays below the identity", problems)


def test_gate_08_reconstruction_and_ranks(capsys):
    problems = []
    for fx in FIXTURE_NAMES:
        ops = _ops(fx, 1024)
        keep = ops.unflagged & (ops.companion.cond_profile <= 1e6)
        if not keep.any():
            problems.append(f"{fx} has no usable nodes")
            continue
        d0 = ops.d0_inner[keep]
        rebuilt = np.conj(np.swapaxes(d0, -1, -2)) @ ops.w1_samples[keep] @ d0
        err = float(np.abs(rebuilt - ops.w0_samples[keep]).max())
        if err > 1e-6:
            problems.append(f"{fx} reconstruction error {err:.3e}")
        r0 = _psd_ranks(ops.w0_samples[keep], 1e-8)
        r1 = _psd_ranks(ops.w1_samples[keep], 1e-8)
        mismatches = int((r0 != r1).sum())
        if mismatches:
            problems.append(f"{fx} rank mismatches at {mismatches} nodes")
    _report(capsys, 8, "weight reconstructs through D0 with equal ranks", problems)


def test_gate_09_trace_budget_and_spectral_mass(capsys):
    problems = []
    for fx in FIXTURE_NAMES:
        ops = _ops(fx, 4096)
        traces = np.einsum("mii->m", ops.w1_samples).real
        total = float(traces[ops.unflagged].sum()) / ops.grid.size
        budget = float(np.trace(_system(fx).gg_star).real)
        if total > budget + 1e-8:
            problems.append(f"{fx} trace excess {total - budget:.3e}")
        measure = spectral_nu1(_model(fx, 128))
        drift = float(np.linalg.norm(measure.total_mass() - _model(fx, 128).gg_star, 2))
        if drift > 1e-10:
            problems.append(f"{fx} spectral mass drift {drift:.3e}")
    for i, (system, comp) in enumerate(_random_systems()):
        traces = np.einsum("mii->m", comp.w1.values).real
        total = float(traces[~comp.singular_flags].sum()) / comp.grid.size
        budget = float(np.trace(system.gg_star).real)
        if total > budget + 1e-8:
            problems.append(f"random-{i} trace excess {total - budget:.3e}")
    atom = spectral_nu1(_model("W_COS", 256))
    mass = atom.mass_near(np.pi, 10.0 * TWO_PI / 256)
    if abs(mass - 0.5) > 0.05:
        problems.append(f"W_COS atom mass {mass:.4f} outside 0.5 +- 0.05")
    _report(capsys, 9, "companion trace budget and spectral mass", problems)


def test_gate_10_scalar_pipeline(capsys):
    problems = []
    grid = CircleGrid(4096)
    with np.errstate(divide="ignore"):
        v0 = 1.0 / (1.0 + np.cos(grid.nodes))
    result = koosis_pipeline(v0, grid, seed=1729)
    dev = float(np.abs(result.v1[result.unflagged] - 0.5).max())
    if dev > 1e-8:
        problems.append(f"v1 deviates from 1/2 by {dev:.3e}")
    log_err = abs(result.diagnostics["log_integral"] - np.log(2.0))
    if log_err > 1e-8:
        problems.append(f"log integral off by {log_err:.3e}")
    excess = result.diagnostics["galerkin_estimate"] - 1.0
    if excess > 1e-6:
        problems.append(f"galerkin estimate excess {excess:.3e}")
    _report(capsys, 10, "scalar inverse-weight pipeline", problems)


def test_gate_11_isometries(capsys):
    problems = []
    for fx in ("W_CONST", "W_DIAG"):
        ops = _ops(fx, 1024)
        rng = np.random.default_rng([1729, 11, zlib.crc32(fx.encode())])
        basis = random_test_functions(rng, 10, ops.system.dim)
        for side in ("Y+", "Y-"):
            drift = abs(ops.norm_estimate(side, basis) - 1.0)
            if drift > 1e-6:
                problems.append(f"{fx} {side} norm drift {drift:.3e}")
        gram_ops = _ops(fx, 4096)
        small = random_test_functions(rng, 8, ops.system.dim)
        diff = gram_ops.x_gram_residual(small)
        scale = 1.0 + float(np.abs(gram_ops.gram_data("X", small).gram0).max())
        rel = float(np.abs(diff).max()) / scale
        if rel > 1e-9:
            problems.append(f"{fx} X gram drift {rel:.3e}")
    _report(capsys, 11, "boundary multipliers are isometries", problems)
