"""Orchestrated property suites over fixtures and random weights, and
structured reports.

Check failures are report entries, never exceptions: diagnostics on
near-singular weights are the interesting output.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from . import DEFAULT_SEED
from .circle import CircleGrid, TWO_PI, check_grid_size, circle_mean, degree_grid
from .debranges import (DeBrangesSystem, NondegeneracyReport, build_system,
                        nondegeneracy_report)
from .hardy import HardyOperators, RationalTestFunction, random_test_functions
from .herglotz import pair_kernel_quadrature, psi_quadrature, radial_limit
from .koosis import KoosisResult, _check_seed, _rng_for, koosis_pipeline
from .model import (build_model, cross_validate, intertwine_residual,
                    model_identity_residual, spectral_nu1, unitarity_residual)
from .weights import (FIXTURE_NAMES, MatrixWeight, _mean_norm, adjoint, fixture,
                      hermitian_part, imag_part, koosis_transform, load_weight_spec,
                      muckenhoupt_sup, normalize, psd_sqrt, random_polynomial_weight,
                      save_weight_spec)

RANDOM_DIM = 3
CONTRACTION_GRID = 4096
ISOMETRY_GRID = 1024
QUADRATURE_GRID = 1024


# -- report types ----------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    value: float
    tolerance: float
    runtime: float
    message: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Report:
    entries: tuple

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=lambda e: e.name))
        names = [e.name for e in ordered]
        if len(set(names)) != len(names):
            raise ValueError("every enabled check appears exactly once")
        object.__setattr__(self, "entries", ordered)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def status(self) -> str:
        if not self.entries:
            return "vacuous-pass"
        return "pass" if self.passed else "fail"

    def failures(self) -> list:
        return [e for e in self.entries if not e.passed]

    def names(self) -> tuple:
        return tuple(e.name for e in self.entries)

    def to_text(self) -> str:
        """Canonical machine-readable form; runtimes are excluded so equal
        seeds give bit-identical text."""
        lines = [f"status={self.status}", f"checks={len(self.entries)}"]
        for e in self.entries:
            lines.append(
                f"check={e.name} status={e.status} "
                f"value={e.value:.17e} tolerance={e.tolerance:.17e}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        """Human-readable table including runtimes."""
        if not self.entries:
            return "no checks enabled (vacuous-pass)\n"
        width = max(len(e.name) for e in self.entries)
        lines = [f"{'check':<{width}}  status  {'value':>13}  {'tolerance':>13}  {'ms':>8}"]
        for e in self.entries:
            line = (f"{e.name:<{width}}  {e.status:<6}  {e.value:>13.6e}  "
                    f"{e.tolerance:>13.6e}  {e.runtime * 1e3:>8.1f}")
            lines.append(f"{line}  {e.message}" if e.message else line)
        failed = len(self.failures())
        lines.append(f"{len(self.entries)} checks, {failed} failed -> {self.status}")
        return "\n".join(lines) + "\n"


def parse_report(text: str) -> Report:
    """Rebuild a Report from its canonical text (runtimes come back as 0)."""
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("check="):
            continue
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        try:
            entries.append(CheckResult(
                name=fields["check"],
                status=fields["status"],
                value=float(fields["value"]),
                tolerance=float(fields["tolerance"]),
                runtime=0.0,
            ))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed report line: {raw!r}") from exc
    return Report(tuple(entries))


# -- suite configuration ---------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    seed: int = DEFAULT_SEED
    fixtures: tuple = FIXTURE_NAMES
    random_weights: int = 3
    grid_size: int = 256
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        fx = tuple(self.fixtures)
        for name in fx:
            if name not in FIXTURE_NAMES:
                raise ValueError(f"unknown fixture {name!r}")
        if len(set(fx)) != len(fx):
            raise ValueError("fixtures must be distinct")
        object.__setattr__(self, "fixtures", fx)
        if self.random_weights < 0:
            raise ValueError("random_weights must be >= 0")
        check_grid_size(self.grid_size)
        # 0 is allowed as an explicit probe of the floating-point floor
        for key, tol in self.tolerances.items():
            if key != "*" and key.split("[", 1)[0] not in _CHECK_NAMES:
                raise ValueError(f"tolerance override {key!r} names no check")
            if not np.isfinite(tol) or tol < 0:
                raise ValueError(f"tolerance override {key!r} must be finite and >= 0")

    def tolerance_for(self, name: str, default: float) -> float:
        base = name.split("[", 1)[0]
        for key in (name, base, "*"):
            if key in self.tolerances:
                return float(self.tolerances[key])
        return default


# -- shared per-run state ---------------------------------------------------

_CLOSED_FORM_W1 = {
    "W_CONST": np.array([[1.0]], dtype=complex),
    "W_COS": np.array([[0.5]], dtype=complex),
    "W_DIAG": np.diag([0.6, 0.8]).astype(complex),
    "W_RANK1": np.diag([0.5, 0.0]).astype(complex),
}
_DEFICITS = {"W_CONST": 0.0, "W_COS": 0.5, "W_DIAG": 0.0, "W_RANK1": 0.5}


class _SuiteContext:
    """Caches weights, systems, operators, models, their spectra and reports
    across the rows of one subject; the suite drops it after the subject's
    last row."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self._memo: Dict[tuple, object] = {}

    def _once(self, key: tuple, build):
        """build() on the first call with key, its value after.  Every entry
        is a pure function of its key and the config, so which row builds it
        first moves no byte."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def register(self, label: str, weight: MatrixWeight) -> None:
        self._memo[("weight", label)] = weight

    def weight(self, fx: str) -> MatrixWeight:
        return self._once(("weight", fx), lambda: fixture(fx))

    def system(self, fx: str) -> DeBrangesSystem:
        return self._once(("system", fx), lambda: build_system(self.weight(fx)))

    def grid(self, fx: str, floor: int) -> CircleGrid:
        """The degree grid of weight fx raised to floor (circle.degree_grid)."""
        return CircleGrid(degree_grid(self.weight(fx).degree, floor))

    def ops(self, fx: str, floor: int) -> HardyOperators:
        """The operators of weight fx on self.grid(fx, floor)."""
        grid = self.grid(fx, floor)
        return self._once(("ops", fx, grid.size), lambda: HardyOperators(self.system(fx), grid))

    def model(self, fx: str, size: int):
        return self._once(("model", fx, size), lambda: build_model(self.weight(fx), size))

    def spectrum(self, fx: str, size: int):
        """spectral_nu1 of model(fx, size), solved once per model."""
        return self._once(("spectrum", fx, size), lambda: spectral_nu1(self.model(fx, size)))

    def model_sizes(self, fx: str) -> Tuple[int, int]:
        """The model rows' two truncation sizes N and 2N: N is the weight's
        degree grid raised to 64; build_model refuses 2N k > BUILD_CAP."""
        base = degree_grid(self.weight(fx).degree, 64)
        return base, 2 * base

    def nondegeneracy(self, label: str) -> NondegeneracyReport:
        ops = self.ops(label, self.config.grid_size)
        return self._once(("nondegeneracy", label),
                          lambda: nondegeneracy_report(ops.system, ops.companion))

    def koosis_inverse_cos(self) -> KoosisResult:
        """The scalar pipeline on v0 = 1/(1 + cos theta), run once per suite."""
        def build():
            grid = CircleGrid(CONTRACTION_GRID)
            with np.errstate(divide="ignore"):
                v0 = 1.0 / (1.0 + np.cos(grid.nodes))
            return koosis_pipeline(v0, grid, seed=self.config.seed)
        return self._once(("koosis",), build)

    def random_labels(self) -> list:
        """Labels of the random weights, fixed by the suite seed alone and
        registered on first use, so the random rows share their systems and
        operators."""
        def build():
            rng = _rng_for(self.config.seed, "random-weights")
            labels = [f"RAND{i}" for i in range(self.config.random_weights)]
            for label in labels:
                dim = int(rng.integers(1, RANDOM_DIM + 1))
                self.register(label, random_polynomial_weight(rng, dim))
            return labels
        return self._once(("random-labels",), build)


# -- draw helpers -----------------------------------------------------------

def _draw_z(rng: np.random.Generator, lo: float = 0.2, hi: float = 0.7,
            inside_only: bool = False) -> complex:
    gap = np.exp(rng.uniform(np.log(lo), np.log(hi)))
    side = -1.0 if inside_only else (1.0 if rng.integers(2) else -1.0)
    return (1.0 + side * gap) * np.exp(1j * rng.uniform(0.0, TWO_PI))


def _draw_pairs(rng: np.random.Generator, count: int, include_origin: bool = True):
    pairs = []
    if include_origin:
        pairs.append((_draw_z(rng, inside_only=True), 0.0 + 0.0j))
    while len(pairs) < count:
        z1 = _draw_z(rng)
        z2 = _draw_z(rng)
        if abs(1.0 - z1 * np.conj(z2)) < 0.1:
            continue
        pairs.append((z1, z2))
    return pairs


# -- individual checks (value <= tolerance means pass) ----------------------

def _check_normalized(fx, ctx, rng):
    return abs(_mean_norm(ctx.weight(fx)) - 1.0)


def _check_moment_contraction(fx, ctx, rng):
    w = ctx.weight(fx)
    mean = circle_mean(w.field_on(w.natural_grid()))
    lam = np.linalg.eigvalsh(hermitian_part(mean))
    return max(0.0, float(lam.max()) - 1.0) + max(0.0, -float(lam.min()))


def _check_koosis_roundtrip(ctx, rng):
    grid = CircleGrid(ctx.config.grid_size)
    v0 = 1.2 + np.cos(grid.nodes)
    w, c = koosis_transform(v0, grid)
    back = c / w.values[:, 0, 0].real
    return float(np.abs(back - v0).max() / np.abs(v0).max())


def _check_muckenhoupt_lower(ctx, rng):
    grid = CircleGrid(ctx.config.grid_size)
    flat = muckenhoupt_sup(np.ones(grid.size), grid)
    bumpy = muckenhoupt_sup(1.2 + np.cos(grid.nodes), grid)
    return abs(flat - 1.0) + max(0.0, 1.0 - bumpy)


def _check_spec_roundtrip(fx, ctx, rng):
    w = ctx.weight(fx)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weight.json")
        save_weight_spec(w, path)
        back = load_weight_spec(path)
    grid = w.natural_grid()
    return float(np.abs(back.samples_on(grid) - w.samples_on(grid)).max())


def _check_herglotz_positivity(fx, ctx, rng):
    ev = ctx.system(fx).psi0
    worst = 0.0
    for _ in range(6):
        z = _draw_z(rng, inside_only=True)
        lam = np.linalg.eigvalsh(imag_part(ev.psi(z)))
        worst = max(worst, max(0.0, -float(lam.min())))
    return worst


def _check_herglotz_jump(fx, ctx, rng):
    w = ctx.weight(fx)
    grid = CircleGrid(max(ctx.config.grid_size, w.natural_grid().size))
    inner = ctx.system(fx).psi0.ring_values(grid)
    return float(np.abs(imag_part(inner) - w.samples_on(grid)).max())


def _check_series_vs_quadrature(fx, ctx, rng):
    system = ctx.system(fx)
    fld = system.weight.field_on(ctx.grid(fx, 2048))
    worst = 0.0
    for _ in range(3):
        z = _draw_z(rng)
        diff = system.psi0.psi(z) - psi_quadrature(z, fld)
        worst = max(worst, float(np.linalg.norm(diff, 2)))
    return worst


def _check_pair_kernel(fx, ctx, rng):
    system = ctx.system(fx)
    ev = system.psi0
    fld = system.weight.field_on(ctx.grid(fx, 2048))
    worst = 0.0
    for z1, z2 in _draw_pairs(rng, 5):
        quad = pair_kernel_quadrature(z1, z2, fld)
        closed = (ev.psi(z1) - adjoint(ev.psi(z2))) / (2j * (1.0 - z1 * np.conj(z2)))
        worst = max(worst, float(np.linalg.norm(quad - closed, 2)))
    return worst


def _check_ladder(fx, ctx, rng):
    # the rungs r = 1 -+ 2^-j run from j = log2 N to log2 N + 8, N the degree
    # grid raised to 64: the series varies on the scale 1/d, so the ladder
    # starts where r^d is already near 1 (j = 6..14 for d <= 31)
    ev = ctx.system(fx).psi0
    j_lo = ctx.grid(fx, 64).size.bit_length() - 1
    worst = 0.0
    for _ in range(3):
        theta = float(rng.uniform(0.5, 2.6))
        point = np.exp(1j * theta)
        for side in ("inner", "outer"):
            exact = ev.boundary_profile(np.asarray(theta), side)
            ladder = radial_limit(lambda r: ev.psi(r * point), side=side,
                                  j_lo=j_lo, j_hi=j_lo + 8)
            worst = max(worst, float(np.abs(exact - ladder).max()))
    return worst


def _check_alpha_identity(fx, ctx, rng):
    system = ctx.system(fx)
    eye = np.eye(system.dim)
    resid = system.alpha @ system.alpha + system.gg_star @ system.gg_star - eye
    return float(np.linalg.norm(resid, 2))


def _check_psi1_positivity(fx, ctx, rng):
    system = ctx.system(fx)
    worst = 0.0
    for _ in range(6):
        z = _draw_z(rng, inside_only=True)
        lam = np.linalg.eigvalsh(imag_part(system.psi1(z)))
        worst = max(worst, max(0.0, -float(lam.min())))
    return worst


def _check_companion_closed_form(fx, ctx, rng):
    comp = ctx.ops(fx, ctx.config.grid_size).companion
    target = _CLOSED_FORM_W1[fx]
    diff = np.abs(comp.w1.values[comp.unflagged] - target)
    return float(diff.max())


def _check_companion_ladder(fx, ctx, rng):
    # the radial route to w1: extrapolate Im psi1(r e^{i theta}) over
    # r = 1 - 2^-j, j = 13..20, from inside the disc, never touching D0+
    system = ctx.system(fx)
    comp = ctx.ops(fx, ctx.config.grid_size).companion
    nodes = rng.choice(np.flatnonzero(comp.unflagged), size=8, replace=False)
    worst = 0.0
    for m in nodes:
        point = comp.grid.points[m]
        limit = radial_limit(lambda r: imag_part(system.psi1(r * point)),
                             j_lo=13, j_hi=20)
        worst = max(worst, float(np.abs(limit - comp.w1.values[m]).max()))
    return worst


def _check_deficit(fx, ctx, rng):
    comp = ctx.ops(fx, ctx.config.grid_size).companion
    return abs(comp.deficit - _DEFICITS[fx])


def _sandwich_value(ops: HardyOperators) -> float:
    root = psd_sqrt(ops.w0_samples[ops.unflagged])
    inner = root @ ops.w1_samples[ops.unflagged] @ root
    lam = np.linalg.eigvalsh(hermitian_part(inner))
    return max(0.0, float(lam.max()) - 1.0)


def _check_sandwich(fx, ctx, rng):
    return _sandwich_value(ctx.ops(fx, ctx.config.grid_size))


def _check_sandwich_random(ctx, rng):
    worst = 0.0
    for label in ctx.random_labels():
        worst = max(worst, _sandwich_value(ctx.ops(label, ctx.config.grid_size)))
    return worst


def _check_reconstruction(fx, ctx, rng):
    ops = ctx.ops(fx, ctx.config.grid_size)
    keep = ctx.nondegeneracy(fx).usable
    d0 = ops.d0_inner[keep]
    rebuilt = adjoint(d0) @ ops.w1_samples[keep] @ d0
    return float(np.abs(rebuilt - ops.w0_samples[keep]).max())


def _check_rank_equality(fx, ctx, rng):
    return float(ctx.nondegeneracy(fx).rank_mismatches)


def _check_norm_bound(fx, ctx, rng):
    return max(0.0, float(ctx.nondegeneracy(fx).bound_gaps.max()))


def _check_trace_budget(fx, ctx, rng):
    # the grid mean of Tr w1 aliases like rho^M when det D0 has zeros near
    # the circle; the contraction grid is already cached and fine enough
    ops = ctx.ops(fx, CONTRACTION_GRID)
    traces = np.einsum("mii->m", ops.w1_samples).real
    total = float(traces[ops.unflagged].sum()) / ops.grid.size
    budget = float(np.trace(ctx.system(fx).gg_star).real)
    return max(0.0, total - budget)


def _row_model(fx, ctx):
    """The finer of the two truncated models the model rows compare."""
    return ctx.model(fx, ctx.model_sizes(fx)[1])


def _check_model_unitarity(fx, ctx, rng):
    return unitarity_residual(_row_model(fx, ctx))


def _check_model_intertwine(fx, ctx, rng):
    return intertwine_residual(_row_model(fx, ctx))


def _check_model_identities(fx, ctx, rng):
    mdl = _row_model(fx, ctx)
    worst = 0.0
    for _ in range(5):
        z = _draw_z(rng, lo=0.1, hi=0.8)
        worst = max(worst, model_identity_residual(mdl, z))
    return worst


def _check_cross_validation(fx, ctx, rng):
    models = [ctx.model(fx, size) for size in ctx.model_sizes(fx)]
    table = cross_validate(ctx.system(fx), [0.3], models)
    e1, e2 = float(table.errors[0, 0]), float(table.errors[0, 1])
    return max(0.0, e2 - max(e1 / 1.5, 1e-12))


def _check_spectral_total(fx, ctx, rng):
    size = ctx.model_sizes(fx)[1]
    measure = ctx.spectrum(fx, size)
    return float(np.linalg.norm(measure.total_mass() - ctx.model(fx, size).gg_star, 2))


def _check_spectral_atom(ctx, rng):
    measure = ctx.spectrum("W_COS", 256)
    window = 10.0 * TWO_PI / 256
    return abs(measure.mass_near(np.pi, window) - 0.5)


def _check_spectral_ramp(ctx, rng):
    measure = ctx.spectrum("W_DIAG", 128)
    angles, cumulative = measure.cumulative_trace()
    ramp = 1.4 * angles / TWO_PI
    return float(np.abs(cumulative - ramp).max())


def _check_contraction(fx, ctx, rng):
    ops = ctx.ops(fx, CONTRACTION_GRID)
    funcs = random_test_functions(rng, 100, ops.system.dim)
    return max(0.0, float(ops.contraction_ratios(funcs).max()) - 1.0)


def _unit_vector(dim: int) -> np.ndarray:
    chi = np.zeros(dim)
    chi[0] = 1.0
    return chi


def _check_projection_vs_quadrature(fx, ctx, rng):
    ops = ctx.ops(fx, QUADRATURE_GRID)
    dim = ops.system.dim
    probes = [RationalTestFunction(np.array([2.0 + 0.0j]), _unit_vector(dim)[None, :])]
    # the damped-ring quadrature takes radii out to 1 -+ 8 eps (eps = 10/M) and
    # its Richardson combination leaves an error of order (eps/standoff)^4, so
    # keep the random poles well away from the circle
    probes.extend(random_test_functions(rng, 1, dim, max_terms=3, standoff_range=(0.6, 0.9)))
    worst = 0.0
    for f in probes:
        for side in ("+", "-"):
            direct = ops.project(f, side)
            quad = ops.project_quadrature(f, side)
            worst = max(worst, float(np.abs(direct - quad).max()))
    return worst


def _check_projection_quadrature_rate(ctx, rng):
    f = RationalTestFunction(np.array([2.0 + 0.0j]), np.ones((1, 1)))
    errors = []
    for size in (1024, 2048, 4096):
        ops = ctx.ops("W_COS", size)
        direct = ops.project(f, "+")
        quad = ops.project_quadrature(f, "+")
        errors.append(float(np.abs(direct - quad).max()))
    ratios = [errors[i] / max(errors[i + 1], 1e-15) for i in range(2)]
    return max(0.0, 3.0 - min(ratios))


def _check_multiplication(fx, ctx, rng):
    ops = ctx.ops(fx, QUADRATURE_GRID)
    worst = 0.0
    for f in random_test_functions(rng, 3, ops.system.dim):
        worst = max(worst, ops.multiplication_residual(f))
    return worst


def _check_hilbert_closed_forms(ctx, rng):
    ops = ctx.ops("W_CONST", ctx.config.grid_size)
    pts = ops.grid.points
    chi = np.ones((1, 1))
    f_out = RationalTestFunction(np.array([2.0 + 0.0j]), chi)
    f_in = RationalTestFunction(np.array([0.5 + 0.0j]), chi)
    f_zero = RationalTestFunction(np.array([2.0 + 0.0j]), np.zeros((1, 1)))
    expect_out = -1j * f_out(pts) - 0.5j
    expect_in = 1j * f_in(pts)
    worst = float(np.abs(ops.hilbert(f_out) - expect_out).max())
    worst = max(worst, float(np.abs(ops.hilbert(f_in) - expect_in).max()))
    worst = max(worst, float(np.abs(ops.hilbert(f_zero)).max()))
    return worst


def _check_projection_closed_forms(ctx, rng):
    ops = ctx.ops("W_CONST", ctx.config.grid_size)
    pts = ops.grid.points
    chi = np.ones((1, 1))
    f_out = RationalTestFunction(np.array([2.0 + 0.0j]), chi)
    f_in = RationalTestFunction(np.array([0.5 + 0.0j]), chi)
    worst = float(np.abs(ops.project(f_out, "+") - f_out(pts)).max())
    worst = max(worst, float(np.abs(ops.project(f_in, "+")).max()))
    worst = max(worst, float(np.abs(ops.project(f_in, "-") - f_in(pts)).max()))
    worst = max(worst, float(np.abs(ops.project(f_out, "-")).max()))
    return worst


def _check_inner_closed_forms(ctx, rng):
    ops = ctx.ops("W_CONST", ctx.config.grid_size)
    chi = np.ones((1, 1))
    f0 = RationalTestFunction(np.array([0.0 + 0.0j]), chi)
    f2 = RationalTestFunction(np.array([2.0 + 0.0j]), chi)
    fz = RationalTestFunction(np.array([2.0 + 0.0j]), np.zeros((1, 1)))
    # the source Gram of an operator that does not rotate: (w0 f_i, f_j)
    gram = ops.gram_data("mult", [f0, f2, fz]).gram0
    return float(np.abs(gram.diagonal() - np.array([1.0, 1.0 / 3.0, 0.0])).max())


def _check_hilbert_vs_quadrature(fx, ctx, rng):
    ops = ctx.ops(fx, QUADRATURE_GRID)
    worst = 0.0
    for f in random_test_functions(rng, 2, ops.system.dim, max_terms=3,
                                   standoff_range=(0.6, 0.9)):
        direct = ops.hilbert(f)
        quad = ops.hilbert_quadrature(f)
        worst = max(worst, float(np.abs(direct - quad).max()))
    return worst


def _check_gram_identity(fx, ctx, rng):
    ops = ctx.ops(fx, ctx.config.grid_size)
    z1, z2 = np.array(_draw_pairs(rng, 10)).T
    return float(ops.gram_identity_residual(z1, z2).max())


def _check_gram_identity_random(ctx, rng):
    worst = 0.0
    for label in ctx.random_labels():
        ops = ctx.ops(label, ctx.config.grid_size)
        z1, z2 = np.array(_draw_pairs(rng, 5)).T
        worst = max(worst, float(ops.gram_identity_residual(z1, z2).max()))
    return worst


def _check_y_isometry(fx, ctx, rng):
    ops = ctx.ops(fx, ISOMETRY_GRID)
    basis = random_test_functions(rng, 10, ops.system.dim)
    plus = ops.norm_estimate("Y+", basis)
    minus = ops.norm_estimate("Y-", basis)
    return max(abs(plus - 1.0), abs(minus - 1.0))


def _check_x_gram(label, ctx, rng):
    # X preserves the Gram matrix when nu1 is purely a.c. and shrinks it by
    # at most deficit * sup |Xf|^2 otherwise; the singular part is read from
    # the measured deficit
    ops = ctx.ops(label, CONTRACTION_GRID)
    basis = random_test_functions(rng, 8, ops.system.dim)
    data = ops.gram_data("X", basis)
    diff = data.gram0 - data.gram1
    if ops.companion.deficit <= 1e-8:
        return float(np.abs(diff).max()) / (1.0 + float(np.abs(data.gram0).max()))
    lam_min = float(np.linalg.eigvalsh(diff).min())
    sup = ops.x_sup(basis, CircleGrid(4 * ops.grid.size))
    worst_diag = float((diff.diagonal().real - ops.companion.deficit * sup).max())
    return max(max(0.0, -lam_min), max(0.0, worst_diag))


def _check_linearity(fx, ctx, rng):
    ops = ctx.ops(fx, 512)
    dim = ops.system.dim
    f, g = random_test_functions(rng, 2, dim, max_terms=3, standoff_range=(0.05, 0.9))
    a = complex(rng.standard_normal(), rng.standard_normal())
    b = complex(rng.standard_normal(), rng.standard_normal())
    combo = a * f + b * g
    worst = 0.0
    pts = ops.grid.points
    lhs = ops.apply_x(combo)(pts)
    rhs = a * ops.apply_x(f)(pts) + b * ops.apply_x(g)(pts)
    worst = max(worst, float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max())))
    for side in ("+", "-"):
        lhs = ops.project(combo, side)
        rhs = a * ops.project(f, side) + b * ops.project(g, side)
        worst = max(worst, float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max())))
        lhs = ops.apply_y(combo, side)
        rhs = a * ops.apply_y(f, side) + b * ops.apply_y(g, side)
        worst = max(worst, float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max())))
    lhs = ops.hilbert(combo)
    rhs = a * ops.hilbert(f) + b * ops.hilbert(g)
    worst = max(worst, float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max())))
    return worst


def _check_pnorm_projection_const(ctx, rng):
    ops = ctx.ops("W_CONST", ISOMETRY_GRID)
    basis = random_test_functions(rng, 10, 1, standoff_range=(0.1, 0.9), sides=(1.0,))
    return abs(ops.norm_estimate("P+", basis) - 1.0)


def _check_mult_norm(fx, ctx, rng):
    ops = ctx.ops(fx, ISOMETRY_GRID)
    basis = random_test_functions(rng, 8, ops.system.dim, standoff_range=(0.05, 0.9))
    return max(0.0, ops.norm_estimate("mult", basis) - 1.0)


def _check_koosis_inverse_cos(ctx, rng):
    result = ctx.koosis_inverse_cos()
    dev = float(np.abs(result.v1[result.unflagged] - 0.5).max())
    log_dev = abs(result.diagnostics["log_integral"] - np.log(2.0))
    return max(dev, log_dev)


def _check_koosis_galerkin(ctx, rng):
    galerkin = ctx.koosis_inverse_cos().diagnostics["galerkin_estimate"]
    return max(0.0, galerkin - 1.0)


def _check_koosis_const(ctx, rng):
    grid = CircleGrid(ISOMETRY_GRID)
    result = koosis_pipeline(np.ones(grid.size), grid, seed=ctx.config.seed)
    dev = float(np.abs(result.v1 - 1.0).max())
    return max(dev, abs(result.diagnostics["log_integral"]),
               max(0.0, result.diagnostics["galerkin_estimate"] - 1.0))


# -- the check table -----------------------------------------------------------

# Where a row runs.  Per-weight rows run once on each weight in their scope,
# named base[label], and take (label, ctx, rng):
EVERY = "every"      # every weight, fixtures and --weight-spec weights alike
FIXTURE = "fixture"  # fixtures only: their closed forms and deficits are known
# The other rows run once per suite under their bare name and take (ctx, rng):
SUITE = "suite"      # whenever a fixture is enabled
RANDOM = "random"    # when the suite draws random weights
# ... and a fixture name as scope: when that fixture is enabled, beside that
# fixture's per-weight rows, so they share its cached operators.


def _deficit_tolerance(config: SuiteConfig) -> float:
    return 5.0 / config.grid_size + 1e-10


# (name, default tolerance, scope, check); a callable tolerance is a function
# of the SuiteConfig
CHECKS = (
    ("weights.normalized", 1e-12, EVERY, _check_normalized),
    ("weights.moment_contraction", 1e-10, EVERY, _check_moment_contraction),
    ("weights.spec_roundtrip", 1e-14, EVERY, _check_spec_roundtrip),
    ("herglotz.positivity", 1e-10, EVERY, _check_herglotz_positivity),
    ("herglotz.jump_recovers_weight", 1e-10, EVERY, _check_herglotz_jump),
    ("herglotz.series_vs_quadrature", 1e-9, EVERY, _check_series_vs_quadrature),
    ("herglotz.pair_kernel", 1e-9, EVERY, _check_pair_kernel),
    ("herglotz.ladder_vs_exact", 1e-9, EVERY, _check_ladder),
    ("debranges.alpha_identity", 1e-12, EVERY, _check_alpha_identity),
    ("debranges.psi1_positivity", 1e-10, EVERY, _check_psi1_positivity),
    ("debranges.companion_ladder", 1e-9, EVERY, _check_companion_ladder),
    ("debranges.sandwich", 1e-8, EVERY, _check_sandwich),
    ("debranges.reconstruction", 1e-6, EVERY, _check_reconstruction),
    ("debranges.rank_equality", 0.5, EVERY, _check_rank_equality),
    ("debranges.norm_bound", 1e-8, EVERY, _check_norm_bound),
    ("debranges.trace_budget", 1e-8, EVERY, _check_trace_budget),
    ("model.unitarity", 1e-10, EVERY, _check_model_unitarity),
    ("model.intertwine", 1e-10, EVERY, _check_model_intertwine),
    ("model.identities", 1e-9, EVERY, _check_model_identities),
    ("model.cross_validation", 1e-12, EVERY, _check_cross_validation),
    ("model.spectral_total_mass", 1e-10, EVERY, _check_spectral_total),
    ("hardy.contraction", 1e-6, EVERY, _check_contraction),
    ("hardy.projection_vs_quadrature", 200.0 / QUADRATURE_GRID ** 2, EVERY,
     _check_projection_vs_quadrature),
    ("hardy.multiplication_identity", 1e-10, EVERY, _check_multiplication),
    ("hardy.hilbert_vs_quadrature", 200.0 / QUADRATURE_GRID ** 2, EVERY,
     _check_hilbert_vs_quadrature),
    ("hardy.gram_identity", 1e-9, EVERY, _check_gram_identity),
    ("hardy.y_isometry", 1e-6, EVERY, _check_y_isometry),
    ("hardy.linearity", 1e-12, EVERY, _check_linearity),
    ("hardy.mult_norm_estimate", 1e-8, EVERY, _check_mult_norm),
    ("hardy.x_gram", 1e-9, EVERY, _check_x_gram),
    ("debranges.companion_closed_form", 1e-8, FIXTURE, _check_companion_closed_form),
    ("debranges.deficit", _deficit_tolerance, FIXTURE, _check_deficit),
    ("weights.koosis_roundtrip", 1e-12, SUITE, _check_koosis_roundtrip),
    ("weights.muckenhoupt_lower", 1e-10, SUITE, _check_muckenhoupt_lower),
    ("debranges.sandwich_random", 1e-8, RANDOM, _check_sandwich_random),
    ("hardy.gram_identity_random", 1e-9, RANDOM, _check_gram_identity_random),
    ("model.spectral_atom_window", 5e-2, "W_COS", _check_spectral_atom),
    ("hardy.projection_quadrature_rate", 1e-9, "W_COS", _check_projection_quadrature_rate),
    ("verify.koosis_inverse_cos", 1e-8, "W_COS", _check_koosis_inverse_cos),
    ("verify.koosis_galerkin", 1e-6, "W_COS", _check_koosis_galerkin),
    ("model.spectral_ramp", 2.0 / 128, "W_DIAG", _check_spectral_ramp),
    ("hardy.inner_closed_forms", 1e-10, "W_CONST", _check_inner_closed_forms),
    ("hardy.projection_closed_forms", 1e-10, "W_CONST", _check_projection_closed_forms),
    ("hardy.hilbert_closed_forms", 1e-10, "W_CONST", _check_hilbert_closed_forms),
    ("hardy.pnorm_projection_const", 1e-8, "W_CONST", _check_pnorm_projection_const),
    ("verify.koosis_const", 1e-10, "W_CONST", _check_koosis_const),
)
_CHECK_NAMES = frozenset(name for name, _, _, _ in CHECKS)


def _tolerance(tol, config: SuiteConfig) -> float:
    return tol(config) if callable(tol) else tol


def _weight_checks(label: str, config: SuiteConfig) -> list:
    """(name, default tolerance, callable) for the per-weight rows on label."""
    return [(f"{base}[{label}]", _tolerance(tol, config), partial(fn, label))
            for base, tol, scope, fn in CHECKS
            if scope == EVERY or (scope == FIXTURE and label in _DEFICITS)]


# the rows that read the operators on the CONTRACTION_GRID floor, the
# costliest build of a subject; they form a group of their own (see _split)
_CONTRACTION_ROWS = frozenset({
    "debranges.trace_budget", "hardy.contraction", "hardy.x_gram",
    "hardy.projection_quadrature_rate",
})


def _split(rows: list) -> list:
    """A subject's rows as two groups, the non-empty ones of: the rows that
    read the operators on the CONTRACTION_GRID floor, and the rest.  No row of the
    second group builds those operators, so the groups can run apart at the
    cost of one more build_system (and on W_COS one more 1024-node operator
    build, which projection_quadrature_rate shares with the rest)."""
    first = [row for row in rows if row[0].split("[", 1)[0] in _CONTRACTION_ROWS]
    rest = [row for row in rows if row[0].split("[", 1)[0] not in _CONTRACTION_ROWS]
    return [group for group in (first, rest) if group]


def enumerate_checks(config: SuiteConfig) -> list:
    """Every enabled check as (name, default tolerance, callable), in groups
    that share no cache: two per fixture (see _split), holding its rows and
    the suite rows scoped to it, then the random weights' rows, then the
    rows that take no weight."""
    if not config.fixtures:
        return []

    def suite_rows(scope):
        return [(name, _tolerance(tol, config), fn)
                for name, tol, row_scope, fn in CHECKS if row_scope == scope]

    groups = [group for fx in config.fixtures
              for group in _split(_weight_checks(fx, config) + suite_rows(fx))]
    if config.random_weights > 0:
        groups.append(suite_rows(RANDOM))
    groups.append(suite_rows(SUITE))
    return groups


def _run_entries(checks, config: SuiteConfig, ctx: "_SuiteContext") -> list:
    entries = []
    for name, default_tol, fn in checks:
        rng = _rng_for(config.seed, name)
        tol = config.tolerance_for(name, default_tol)
        start = time.perf_counter()
        # numpy's LinAlgError is a ValueError too
        try:
            value = float(fn(ctx, rng))
        except ValueError as exc:
            value, status, message = float("nan"), "error", str(exc)
        else:
            status, message = ("pass" if value <= tol else "fail"), ""
        runtime = time.perf_counter() - start
        entries.append(CheckResult(name, status, value, tol, runtime, message))
    return entries


def _groups(config: SuiteConfig, subject) -> list:
    """enumerate_checks(config) when subject is None, else the split rows of
    the one weight subject = (label, weight)."""
    if subject is None:
        return enumerate_checks(config)
    return _split(_weight_checks(subject[0], config))


def _run_group(index: int, config: SuiteConfig, subject=None) -> list:
    """The entries of group `index` of _groups(config, subject), run on a
    fresh cache.  A pool task carries only the index, the config and the
    subject: the rows are looked up again in the worker, never pickled."""
    ctx = _SuiteContext(config)
    if subject is not None:
        ctx.register(*subject)
    return _run_entries(_groups(config, subject)[index], config, ctx)


def _available_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the host cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_groups(config: SuiteConfig, subject=None) -> Report:
    """Run the groups of _groups(config, subject), each on its own cache.

    The groups are independent, so on Linux they run side by side in forked
    workers, one per CPU of the affinity mask and at most one per group; a
    row's runtime is measured inside its worker.  With one CPU, or off
    Linux, they run one after another in this process.  Every row draws
    from its own (seed, name) stream and the report is sorted by name, so
    neither the grouping nor the number of workers moves a byte.  An error
    that is not a row's own ValueError entry reaches the caller."""
    indices = range(len(_groups(config, subject)))
    workers = min(len(indices), _available_cpus())
    run = partial(_run_group, config=config, subject=subject)
    if workers < 2:
        groups = list(map(run, indices))
    else:
        # imported here, so that starting the CLI does not pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            groups = list(pool.map(run, indices))
    return Report(tuple(entry for entries in groups for entry in entries))


def run_suite(config: SuiteConfig) -> Report:
    """Run every enabled check; failures are entries, not exceptions.

    Each fixture's rows form two groups (see _split), and the random
    weights and the rows that take no weight one each; each group's cache
    is dropped after its last row, so a worker holds one subject's
    operators at a time.  The groups run as _run_groups says."""
    return _run_groups(config)


def run_weight_checks(weight: MatrixWeight, seed: int = DEFAULT_SEED,
                      tolerances: Optional[Dict[str, float]] = None,
                      label: str = "WEIGHT") -> Report:
    """Run the table's every-weight rows against a user-supplied weight.

    The weight is normalized first; the fixture rows (closed form, deficit)
    are skipped because there is nothing to compare against.  Each row
    runs on its own floor grid (the suite default of 256 nodes, or 512, 1024,
    2048 or 4096) raised to the weight's degree grid, the smallest power of
    two >= 2(d + 1) (circle.degree_grid), with no cap.  The rows form two
    groups (see _split) that run as _run_groups says, the normalized weight
    travelling with each group.
    """
    if label in FIXTURE_NAMES:
        raise ValueError("label collides with a fixture name")
    config = SuiteConfig(seed=seed, random_weights=0, tolerances=dict(tolerances or {}))
    return _run_groups(config, (label, normalize(weight)))
