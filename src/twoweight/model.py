"""Finite quadrature model of the scattering construction.

Everything here is an independent oracle: the model is the exact scattering
data of the discrete measure (1/M) sum w0(theta_m) delta_m, so its psi1
cross-validates the algebraic route without sharing any code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .circle import CircleGrid, TWO_PI
from .debranges import DeBrangesSystem
from .weights import MatrixWeight, psd_rebuild

BUILD_CAP = 8192
SPECTRAL_CAP = 4096
SNAP_ONE = 1e-12
TRUNCATION_BAND = 0.05
CLUSTER = 1e-9


@dataclass(frozen=True)
class TruncatedModel:
    """Discrete realization (H, U0, G, Theta, U1) on M quadrature nodes.

    U0 (multiplication by e^{i theta_m} on each node's k-dim fibre) is kept as
    its diagonal `phases`, and the rank-k Theta = V diag(2 half) V* as its
    factors: `v` (right singular vectors of G) and `half` (arcsin of the
    squared singular values).  u1 = e^{i Theta/2} U0 e^{i Theta/2} is dense.

    The quadrature inner product (1/M) sum ||f_m||^2 is folded into G by the
    symmetric 1/sqrt(M) scaling, so adjoints are plain conjugate transposes
    and GG* reproduces the continuum zeroth moment exactly.
    """

    size: int
    dim: int
    nodes: np.ndarray
    phases: np.ndarray
    g: np.ndarray
    v: np.ndarray
    half: np.ndarray
    u1: np.ndarray

    @property
    def gg_star(self) -> np.ndarray:
        return self.g @ self.g.conj().T


def build_model(w0: MatrixWeight, size: int) -> TruncatedModel:
    """Assemble the model on `size` nodes (a CircleGrid size), M*k <= 8192."""
    grid = CircleGrid(size)
    k = w0.dim
    if size * k > BUILD_CAP:
        raise ValueError(f"model size cap exceeded: M*k = {size * k} > {BUILD_CAP}")
    lam, vec = np.linalg.eigh(w0.samples_on(grid))
    roots = psd_rebuild(vec, np.sqrt(np.maximum(lam, 0.0)))
    # column block m of G is the node's square root w0(theta_m)^{1/2} / sqrt(M)
    g = np.swapaxes(roots, 0, 1).reshape(k, size * k) / np.sqrt(size)
    phases = np.repeat(grid.points, k)

    _, s, vh = np.linalg.svd(g, full_matrices=False)
    v = vh.conj().T
    s2 = np.clip(s ** 2, 0.0, 1.0)
    s2 = np.where(np.abs(s2 - 1.0) <= SNAP_ONE, 1.0, s2)
    half = np.arcsin(s2)
    # e^{i Theta/2} = I + V (e^{i half} - 1) V*, and E U0 = E * phases
    exp_half = np.eye(size * k, dtype=complex) + (v * (np.exp(1j * half) - 1.0)) @ v.conj().T
    u1 = (exp_half * phases) @ exp_half
    return TruncatedModel(size=size, dim=k, nodes=grid.nodes, phases=phases, g=g,
                          v=v, half=half, u1=u1)


def psi_direct(model: TruncatedModel, j: int, z: complex) -> np.ndarray:
    """i G (U_j + z)(U_j - z)^-1 G*: diagonal for U0, a direct solve for U1."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    z = complex(z)
    if abs(1.0 - abs(z)) < TRUNCATION_BAND:
        raise ValueError("z inside the truncation-inaccuracy band around the circle")
    if j == 0:
        cayley = (model.phases + z) / (model.phases - z)
        return 1j * ((model.g * cayley) @ model.g.conj().T)
    u = model.u1
    rhs = model.g.conj().T
    x = np.linalg.solve(u - z * np.eye(u.shape[0]), rhs)
    return 1j * (model.g @ (u @ x) + z * (model.g @ x))


def _model_alpha(gg: np.ndarray) -> np.ndarray:
    # snap eigenvalues that rounded to just below 1, as in the weight-side
    # construction; sqrt(1 - lam^2) amplifies that rounding to ~1e-8 otherwise
    lam, vec = np.linalg.eigh(gg)
    lam = np.where(lam > 1.0 - 1e-12, 1.0, lam)
    return psd_rebuild(vec, np.sqrt(np.clip(1.0 - lam * lam, 0.0, None)))


def model_identity_residual(model: TruncatedModel, z: complex) -> float:
    """max residual of (alpha + psi0)(alpha - psi1) = I and its transpose
    order, with every ingredient taken from the discrete model itself."""
    alpha = _model_alpha(model.gg_star)
    p0 = psi_direct(model, 0, z)
    p1 = psi_direct(model, 1, z)
    eye = np.eye(model.dim)
    left = (alpha + p0) @ (alpha - p1) - eye
    right = (alpha - p1) @ (alpha + p0) - eye
    return max(float(np.linalg.norm(left, 2)), float(np.linalg.norm(right, 2)))


def intertwine_residual(model: TruncatedModel) -> float:
    """||alpha G - G beta||_2 with beta = cos(Theta/2) = sqrt(I - (G*G)^2)
    = I + V (cos half - 1) V*, applied through its factors."""
    alpha = _model_alpha(model.gg_star)
    gv = model.g @ model.v
    g_beta = model.g + (gv * (np.cos(model.half) - 1.0)) @ model.v.conj().T
    return float(np.linalg.norm(alpha @ model.g - g_beta, 2))


@dataclass(frozen=True)
class CrossValidation:
    """Errors ||psi1_model(z; M) - psi1_algebraic(z)|| over points and sizes."""

    zs: np.ndarray
    sizes: np.ndarray
    errors: np.ndarray

    def rows(self):
        for i, z in enumerate(self.zs):
            for j, m in enumerate(self.sizes):
                yield complex(z), int(m), float(self.errors[i, j])


def cross_validate(system: DeBrangesSystem, zs: Sequence[complex],
                   models: Sequence[TruncatedModel]) -> CrossValidation:
    zs = np.asarray(list(zs), dtype=complex)
    sizes = np.array([model.size for model in models], dtype=int)
    errors = np.zeros((zs.size, sizes.size))
    for j, model in enumerate(models):
        for i, z in enumerate(zs):
            diff = psi_direct(model, 1, z) - system.psi1(z)
            errors[i, j] = np.linalg.norm(diff, 2)
    return CrossValidation(zs=zs, sizes=sizes, errors=errors)


@dataclass(frozen=True)
class SpectralMeasure:
    """Point spectrum of U1 with the PSD masses G Pi_l G*."""

    angles: np.ndarray
    masses: np.ndarray

    def total_mass(self) -> np.ndarray:
        return self.masses.sum(axis=0)

    def trace_masses(self) -> np.ndarray:
        return np.einsum("lii->l", self.masses).real

    def mass_near(self, center: float, halfwidth: float) -> float:
        """Total trace mass within circular distance halfwidth of center."""
        delta = np.angle(np.exp(1j * (self.angles - center)))
        keep = np.abs(delta) <= halfwidth
        return float(self.trace_masses()[keep].sum())

    def cumulative_trace(self):
        """(angles, cumulative trace mass) sorted by angle."""
        traces = self.trace_masses()
        return self.angles, np.cumsum(traces)

    def rows(self):
        traces = self.trace_masses()
        for omega, tr in zip(self.angles, traces):
            yield float(omega), float(tr)


def spectral_nu1(model: TruncatedModel) -> SpectralMeasure:
    """Eigendecompose U1 and push the eigenprojections through G."""
    n = model.u1.shape[0]
    if n > SPECTRAL_CAP:
        raise ValueError(f"spectral cap exceeded: M*k = {n} > {SPECTRAL_CAP}")
    t, q = scipy.linalg.schur(model.u1, output="complex")
    eigs = np.diag(t)
    amplitudes = model.g @ q
    masses = np.einsum("kl,jl->lkj", amplitudes, np.conj(amplitudes))
    angles = np.mod(np.angle(eigs), TWO_PI)
    order = np.argsort(angles, kind="stable")
    # angles chained within CLUSTER (at pi: the atom and the nodes where w0
    # has a zero column) are ordered by roundoff alone; order them by mass
    traces = np.einsum("lii->l", masses[order]).real
    cluster = np.concatenate([[0], np.cumsum(np.diff(angles[order]) > CLUSTER)])
    order = order[np.lexsort((traces, cluster))]
    return SpectralMeasure(angles=angles[order], masses=masses[order])
