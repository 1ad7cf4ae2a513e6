"""The scalar companion-weight pipeline: from an inverse weight v0, the
companion v1 that makes the plain analytic projection a contraction from
L2(v0) to L2(v1), with its diagnostics (Koosis' theorem read through de
Branges' construction)."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_SEED
from .circle import CircleGrid
from .debranges import CompanionWeightResult, build_system
from .hardy import RationalTestFunction, gram_norm_estimate, random_test_functions
from .weights import _as_scalar_samples, koosis_transform, muckenhoupt_sup


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


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
    w0, constant = koosis_transform(samples, grid)
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

    rng = np.random.default_rng([int(seed), zlib.crc32(b"koosis-basis")])
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
    galerkin = gram_norm_estimate(0.5 * (gram1 + gram1.conj().T),
                                  0.5 * (gram0 + gram0.conj().T))

    try:
        muck = muckenhoupt_sup(samples, grid)
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
