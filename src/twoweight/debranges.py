"""Scattering data built from a normalized weight: the auxiliary operator
alpha, the functions D0/D1/psi1, their boundary values, the companion weight
as the boundary density of psi1, the singular-mass deficit, and the
per-node non-degeneracy report that compares w1 with w0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, CircleGrid
from .herglotz import HerglotzEvaluator
from .weights import (PSD_CLAMP, MatrixWeight, hermitian_part, imag_part, moment_zero,
                      psd_rebuild)

COND_CUTOFF = 1e8
SNAP_ONE = 1e-12
# cond(D0+) ~ 1/delta next to a zero of det D0 at distance delta from the
# circle, and the a.c. spike there has width ~delta: the grid resolves it
# only while cond(D0+) * 2pi/M stays O(1).  Next to an exact atom it reads ~1.
RESOLVE = 4.0
# the non-degeneracy report's rank cut-off
RANK_THRESHOLD = 1e-8


# LAPACK's gesdd rescales a matrix whose largest entry lies outside
# [2^-459, 2^459] (sqrt(safmin)/eps and its inverse) before it factors it
_UNSCALED_LOW, _UNSCALED_HIGH = 2.0 ** -459, 2.0 ** 458


def _singular_values(values: np.ndarray) -> np.ndarray:
    """np.linalg.svd(values, compute_uv=False), bit for bit.  A 1x1 matrix x
    that gesdd would not rescale has the singular value w sqrt(1 + (z/w)^2),
    w = max(|Re x|, |Im x|), z = min (LAPACK's dlapy2, as its Householder
    step forms it); only the other 1x1 matrices reach the SVD."""
    if values.shape[-1] != 1:
        return np.linalg.svd(values, compute_uv=False)
    x = values[..., 0]
    re, im = np.abs(x.real), np.abs(x.imag)
    w, z = np.maximum(re, im), np.minimum(re, im)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(w > 0.0, w * np.sqrt(1.0 + (z / w) ** 2), 0.0)
    rest = ~((w == 0.0) | ((w >= _UNSCALED_LOW) & (w <= _UNSCALED_HIGH)))
    if rest.any():
        s[rest] = np.linalg.svd(x[rest][:, None, None], compute_uv=False)[:, 0]
    return s


def _cond_and_norm(values: np.ndarray):
    """cond and ||A|| per matrix from its singular values.  cond is ||A^-1|| *
    max(1, ||A||): it collapses to 1/sigma_min for small matrices, so it
    still flags scalar values shrinking to zero."""
    s = _singular_values(values)
    smin = s.min(axis=-1)
    norm = s.max(axis=-1)
    smax = np.maximum(1.0, norm)
    with np.errstate(divide="ignore", over="ignore"):  # subnormal smin: cond = inf
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
        # w1 is read beside w0 on this grid, so a grid too coarse for w0 is
        # refused first, naming the grid that holds both
        self.weight.check_grid(grid)
        d0, conds, d0_norm = self.boundary_profile(grid)
        flags = conds * (TWO_PI / grid.size) > RESOLVE
        # flagged blocks may be exactly singular; I keeps the batch invertible
        safe = np.where(flags[:, None, None], np.eye(self.dim), d0)
        psi1 = self.alpha - np.linalg.inv(safe)
        # w1 is Im psi1+ itself; its spectrum flags the nodes and validates w1
        value = hermitian_part(imag_part(psi1))
        lam = np.linalg.eigvalsh(value)
        flags = flags | (lam.min(axis=-1) < -PSD_CLAMP)
        value[flags] = 0.0
        lam[flags] = 0.0

        w1 = MatrixWeight.from_samples(value, grid, schatten_p=self.weight.schatten_p,
                                       eigenvalues=lam)
        traces = np.einsum("mii->m", w1.values).real
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
        psi0=HerglotzEvaluator(w0.coefficients),
        weight=w0,
    )


# -- non-degeneracy report ----------------------------------------------------

def _psd_rank_and_norm(lam: np.ndarray):
    """Rank (eigenvalues above RANK_THRESHOLD) and operator norm of each
    Hermitian matrix, from its ascending eigenvalues lam (..., k)."""
    norm = np.maximum(lam[..., -1], -lam[..., 0])
    return (lam > RANK_THRESHOLD).sum(axis=-1), norm


@dataclass(frozen=True)
class NondegeneracyReport:
    """Per-node ranks of w0 and w1 and the norm lower bound
    ||w1|| >= ||w0||/||D0+||^2, compared on the usable nodes: the unflagged
    ones, where cond(D0+) <= RESOLVE M/2pi (41722 at M = MAX_GRID)."""

    usable: np.ndarray
    rank_w0: np.ndarray
    rank_w1: np.ndarray
    norm_w1: np.ndarray
    norm_bound: np.ndarray

    @property
    def rank_mismatches(self) -> int:
        keep = self.usable
        return int((self.rank_w0[keep] != self.rank_w1[keep]).sum())

    @property
    def bound_gaps(self) -> np.ndarray:
        """Excess of the bound over ||w1|| at each usable node."""
        return self.norm_bound[self.usable] - self.norm_w1[self.usable]

    @property
    def bound_violations(self) -> int:
        return int((self.bound_gaps > 1e-8).sum())


def nondegeneracy_report(system: DeBrangesSystem,
                         result: CompanionWeightResult) -> NondegeneracyReport:
    # both spectra were found when the samples were validated
    rank_w0, w0_norm = _psd_rank_and_norm(system.weight.field_on(result.grid).eigenvalues)
    rank_w1, w1_norm = _psd_rank_and_norm(result.w1.eigenvalues)
    d0_norm = result.d0_norm
    # flagged atoms can have D0 -> 0 there; the bound is vacuous at such nodes
    bound = np.divide(w0_norm, d0_norm ** 2,
                      out=np.full_like(w0_norm, np.inf), where=d0_norm > 0)
    return NondegeneracyReport(
        usable=result.unflagged,
        rank_w0=rank_w0,
        rank_w1=rank_w1,
        norm_w1=w1_norm,
        norm_bound=bound,
    )
