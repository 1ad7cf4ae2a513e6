"""The scalar companion-weight pipeline: from an inverse weight v0, the
companion v1 that makes the plain analytic projection a contraction from
L2(v0) to L2(v1), with its diagnostics (Koosis' theorem read through de
Branges' construction), the scalar weight transform v -> normalize(1/v) it
starts from, and the dyadic Muckenhoupt diagnostic."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_SEED
from .circle import CircleGrid
from .debranges import CompanionWeightResult, build_system
from .hardy import RationalTestFunction, gram_norm_estimate, random_test_functions
from .weights import VANISH_TOL, MatrixWeight, _unit_scale, hermitian_part


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def _rng_for(seed: int, name: str) -> np.random.Generator:
    """The seeded stream of one named consumer of the seed."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode("utf-8"))])


def _as_scalar_samples(v, grid: CircleGrid) -> np.ndarray:
    """A checked copy of the scalar samples v of a weight on the grid: one
    value per node, each positive or +inf (a zero of the inverse weight)."""
    samples = np.array(v, dtype=float)
    if samples.ndim != 1:
        raise ValueError("scalar weight samples must be one-dimensional")
    if grid.size != samples.shape[0]:
        raise ValueError("sample count must match the grid size")
    bad = np.flatnonzero(np.isnan(samples) | (samples == -np.inf))
    if bad.size:
        raise ValueError(f"sample {bad[0]} must be finite or +inf, got {samples[bad[0]]}")
    if np.any(samples <= VANISH_TOL):
        raise ValueError("weight vanishes on a grid point")
    return samples


def koosis_transform(v, grid: CircleGrid):
    """The scalar weight transform v -> (normalize(1/v), c), c the
    normalization constant, so that v = c / w.  Samples of +inf are legal in
    v (they map to zeros of 1/v)."""
    return _normalized_inverse(_as_scalar_samples(v, grid), grid)


def _normalized_inverse(samples: np.ndarray, grid: CircleGrid):
    """koosis_transform of checked samples, each positive (1/+inf reads 0)."""
    inverse = MatrixWeight.from_samples(1.0 / samples, grid)
    c = _unit_scale(inverse)
    return inverse.scaled(c), c


def muckenhoupt_sup(v, grid: CircleGrid) -> float:
    """Dyadic two-sided average product sup over aligned blocks of 4..M nodes,
    of trapezoid averages on closed blocks; a block holding a +inf sample
    (the weight may be +inf at isolated nodes) is left out of the sup."""
    return _dyadic_sup(_as_scalar_samples(v, grid), grid)


def _dyadic_sup(samples: np.ndarray, grid: CircleGrid) -> float:
    """muckenhoupt_sup of samples that _as_scalar_samples has checked."""
    m = grid.size
    ext = np.concatenate([samples, samples[:1]])
    bad = ~np.isfinite(ext)
    vz = np.where(bad, 0.0, ext)
    inv = 1.0 / ext
    cs_v = np.concatenate([[0.0], np.cumsum(vz)])
    cs_i = np.concatenate([[0.0], np.cumsum(inv)])
    cs_bad = np.concatenate([[0], np.cumsum(bad)])
    best = -np.inf
    j = 2
    while (1 << j) <= m:
        width = 1 << j
        a = np.arange(0, m, width)
        b = a + width
        blocked = (cs_bad[b + 1] - cs_bad[a]) > 0
        avg_v = (cs_v[b + 1] - cs_v[a] - 0.5 * (vz[a] + vz[b])) / width
        avg_i = (cs_i[b + 1] - cs_i[a] - 0.5 * (inv[a] + inv[b])) / width
        prod = avg_v * avg_i
        prod[blocked] = np.nan
        finite = prod[np.isfinite(prod)]
        if finite.size:
            best = max(best, float(finite.max()))
        j += 1
    if not np.isfinite(best):
        raise ValueError("no dyadic block with finite averages")
    return best


@dataclass(frozen=True)
class KoosisResult:
    """Scalar companion pipeline output: v1 with c folded back so that the
    plain projection is a contraction L2(v0) -> L2(v1)."""

    grid: CircleGrid
    v0: np.ndarray
    v1: np.ndarray
    flags: np.ndarray
    constant: float
    companion: CompanionWeightResult
    diagnostics: dict

    @property
    def unflagged(self) -> np.ndarray:
        return ~self.flags


def _outside_pole_mask(f: RationalTestFunction) -> np.ndarray:
    """Plain analytic projection on the rational class keeps outside poles."""
    return np.abs(f.poles) > 1.0


def koosis_pipeline(v0, grid: CircleGrid, seed: int = DEFAULT_SEED,
                    basis_size: int = 12) -> KoosisResult:
    """w0 = normalize(1/v0), run the construction, fold the constant back.

    With u = c/v0 normalized and u1 its companion, v1 = c*u1 makes the plain
    analytic projection a contraction from L2(v0) to L2(v1): both sides of
    the contraction inequality scale by the same c under the substitution
    g = u f.  Samples of +inf in v0 are legal (zeros of the inverse weight).
    """
    _check_seed(seed)
    if basis_size < 1:
        raise ValueError("basis_size must be >= 1")
    samples = _as_scalar_samples(v0, grid)
    w0, constant = _normalized_inverse(samples, grid)
    system = build_system(w0)
    companion = system.companion_weight(grid)
    v1 = constant * companion.w1.values[:, 0, 0].real
    flags = companion.singular_flags
    usable = ~flags & np.isfinite(samples)
    if not np.any(usable):
        raise ValueError("no usable nodes for the pipeline diagnostics")

    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(v1[usable]))
    log_integral = float(np.abs(logs).mean())

    rng = _rng_for(seed, "koosis-basis")
    basis = random_test_functions(rng, basis_size, 1, standoff_range=(0.05, 0.9))
    fields = np.stack([f(grid.points)[:, 0] for f in basis], axis=1)
    images = np.zeros_like(fields)
    for i, f in enumerate(basis):
        keep = _outside_pole_mask(f)
        if np.any(keep):
            part = RationalTestFunction(f.poles[keep], f.coefficients[keep])
            images[:, i] = part(grid.points)[:, 0]
    weight0 = np.where(usable, samples, 0.0)
    weight1 = np.where(usable, v1, 0.0)
    gram0 = (fields.conj().T * weight0) @ fields / grid.size
    gram1 = (images.conj().T * weight1) @ images / grid.size
    galerkin = gram_norm_estimate(hermitian_part(gram1), hermitian_part(gram0))

    try:
        muck = _dyadic_sup(samples, grid)
    except ValueError:
        muck = float("inf")

    diagnostics = {
        "galerkin_estimate": float(galerkin),
        "log_integral": log_integral,
        "muckenhoupt_sup": float(muck),
        "deficit": float(companion.deficit),
        "constant": float(constant),
        "flagged_count": int(flags.sum()),
    }
    return KoosisResult(grid=grid, v0=samples, v1=v1, flags=flags,
                        constant=float(constant), companion=companion,
                        diagnostics=diagnostics)
