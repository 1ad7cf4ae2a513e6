"""Scattering data built from a normalized weight: the auxiliary operator
alpha, the functions D0/D1/psi1, their boundary values, the companion weight
as the boundary density of psi1, and the singular-mass deficit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, CircleGrid
from .herglotz import HerglotzEvaluator
from .weights import MatrixWeight, hermitian_part, moment_zero, psd_rebuild

COND_CUTOFF = 1e8
SNAP_ONE = 1e-12
PSD_CLAMP = 1e-10
# cond(D0+) ~ 1/delta next to a zero of det D0 at distance delta from the
# circle, and the a.c. spike there has width ~delta: the grid resolves it
# only while cond(D0+) * 2pi/M stays O(1).  Next to an exact atom it reads ~1.
RESOLVE = 4.0


def _cond_and_norm(values: np.ndarray):
    """cond and ||A|| per matrix from one SVD.  cond is ||A^-1|| *
    max(1, ||A||): it collapses to 1/sigma_min for small matrices, so it
    still flags scalar values shrinking to zero."""
    s = np.linalg.svd(values, compute_uv=False)
    smin = s.min(axis=-1)
    norm = s.max(axis=-1)
    smax = np.maximum(1.0, norm)
    with np.errstate(divide="ignore"):
        cond = np.where(smin > 0.0, smax / np.where(smin > 0.0, smin, 1.0), np.inf)
    return cond, norm


@dataclass(frozen=True)
class CompanionWeightResult:
    """Companion weight on a grid with per-node diagnostics.

    w1 = Im psi1+ with psi1+ = alpha - (D0+)^-1, from the D0+ samples kept in
    d0_plus (their operator norms in d0_norm).  A node is flagged when
    cond(D0+) * 2pi/M > RESOLVE (a zero of det D0 too close to the circle for
    the grid) or when Im psi1+ has an eigenvalue below -PSD_CLAMP.  Flagged
    nodes hold w1 = 0 and are excluded from every norm and from the deficit
    sum.
    """

    w1: MatrixWeight
    singular_flags: np.ndarray
    deficit: float
    cond_profile: np.ndarray
    d0_plus: np.ndarray
    d0_norm: np.ndarray

    @property
    def grid(self) -> CircleGrid:
        return self.w1.grid

    @property
    def unflagged(self) -> np.ndarray:
        return ~self.singular_flags


@dataclass(frozen=True)
class DeBrangesSystem:
    """gg_star = circle mean of the weight, alpha = sqrt(I - gg_star^2), and
    the Herglotz evaluator of the weight; everything else is derived."""

    gg_star: np.ndarray
    alpha: np.ndarray
    psi0: HerglotzEvaluator
    weight: MatrixWeight

    @property
    def dim(self) -> int:
        return self.gg_star.shape[0]

    def d0(self, z) -> np.ndarray:
        """alpha + psi0 at a point, or at each point of an array of points,
        behind one condition guard."""
        d = self.alpha + self.psi0.psi(z)
        singular = np.flatnonzero(_cond_and_norm(d)[0] > COND_CUTOFF)
        if singular.size:
            raise ValueError(f"D0 numerically singular at z = {np.ravel(z)[singular[0]]}")
        return d

    def psi1(self, z) -> np.ndarray:
        """alpha - D0^-1 at a point, or at each point of an array of points."""
        return self.alpha - np.linalg.inv(self.d0(z))

    def boundary_profile(self, grid: CircleGrid):
        """D0+ values, their condition numbers and their operator norms on
        all grid nodes."""
        values = self.alpha + self.psi0.ring_values(grid)
        return (values, *_cond_and_norm(values))

    def companion_weight(self, grid: CircleGrid) -> CompanionWeightResult:
        """w1 = (1/2i)(psi1+ - psi1+*) at each node from one batched inverse
        of D0+; the flag rule is in CompanionWeightResult."""
        d0, conds, d0_norm = self.boundary_profile(grid)
        flags = conds * (TWO_PI / grid.size) > RESOLVE
        # flagged blocks may be exactly singular; I keeps the batch invertible
        safe = np.where(flags[:, None, None], np.eye(self.dim), d0)
        psi1 = self.alpha - np.linalg.inv(safe)
        imag = (psi1 - np.conj(np.swapaxes(psi1, -1, -2))) / 2j
        lam, vec = np.linalg.eigh(hermitian_part(imag))
        flags = flags | (lam.min(axis=-1) < -PSD_CLAMP)
        value = psd_rebuild(vec, np.maximum(lam, 0.0))
        value[flags] = 0.0

        w1 = MatrixWeight.from_samples(value, grid, schatten_p=self.weight.schatten_p)
        traces = np.einsum("mii->m", value).real
        deficit = float(np.trace(self.gg_star).real - traces.sum() / grid.size)
        return CompanionWeightResult(
            w1=w1,
            singular_flags=flags,
            deficit=deficit,
            cond_profile=conds,
            d0_plus=d0,
            d0_norm=d0_norm,
        )


def build_system(w0: MatrixWeight) -> DeBrangesSystem:
    """Assemble the scattering data for a normalized weight.

    Eigenvalues of gg_star within 1e-12 of 1 are snapped to 1 exactly so
    alpha vanishes cleanly in the saturated directions (scalar weights always
    saturate); eigenvalues of I - gg_star^2 are clamped to [0, 1].
    """
    gg = moment_zero(w0)
    lam, vec = np.linalg.eigh(gg)
    lam = np.where(np.abs(lam - 1.0) <= SNAP_ONE, 1.0, lam)
    gg = psd_rebuild(vec, lam)
    alpha = psd_rebuild(vec, np.sqrt(np.clip(1.0 - lam ** 2, 0.0, 1.0)))
    return DeBrangesSystem(
        gg_star=gg,
        alpha=alpha,
        psi0=HerglotzEvaluator.from_weight(w0),
        weight=w0,
    )
