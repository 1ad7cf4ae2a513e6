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

from .circle import CircleGrid, TWO_PI, next_power_of_two
from .debranges import DeBrangesSystem
from .weights import MatrixWeight, _clean_psd_samples, psd_rebuild

BUILD_CAP = 8192
SPECTRAL_CAP = 4096
SNAP_ONE = 1e-12
TRUNCATION_BAND = 0.05


@dataclass(frozen=True)
class TruncatedModel:
    """Discrete realization (H, U0, G, Theta, U1) on M quadrature nodes.

    The quadrature inner product (1/M) sum ||f_m||^2 is folded into G by the
    symmetric 1/sqrt(M) scaling, so adjoints are plain conjugate transposes
    and GG* reproduces the continuum zeroth moment exactly.
    """

    size: int
    dim: int
    nodes: np.ndarray
    u0: np.ndarray
    g: np.ndarray
    theta: np.ndarray
    u1: np.ndarray

    @property
    def gg_star(self) -> np.ndarray:
        return self.g @ self.g.conj().T


def build_model(w0: MatrixWeight, size: int) -> TruncatedModel:
    """Assemble the model on `size` nodes; size a power of two, M*k <= 8192."""
    if size < 4 or size != next_power_of_two(size):
        raise ValueError("model size must be a power of two, at least 4")
    k = w0.dim
    if size * k > BUILD_CAP:
        raise ValueError(f"model size cap exceeded: M*k = {size * k} > {BUILD_CAP}")
    nodes = TWO_PI * np.arange(size) / size
    if size >= 16:
        samples = w0.samples_on(CircleGrid(size))
    else:
        samples = _clean_psd_samples(w0.value_at(nodes))
    lam, vec = np.linalg.eigh(samples)
    roots = psd_rebuild(vec, np.sqrt(np.maximum(lam, 0.0)))

    g = np.zeros((k, size * k), dtype=complex)
    for m in range(size):
        g[:, m * k:(m + 1) * k] = roots[m] / np.sqrt(size)
    u0 = np.kron(np.diag(np.exp(1j * nodes)), np.eye(k))

    _, s, vh = np.linalg.svd(g, full_matrices=False)
    v = vh.conj().T
    s2 = np.clip(s ** 2, 0.0, 1.0)
    s2 = np.where(np.abs(s2 - 1.0) <= SNAP_ONE, 1.0, s2)
    half = np.arcsin(s2)
    theta = (v * (2.0 * half)) @ v.conj().T
    exp_half = np.eye(size * k, dtype=complex) + (v * (np.exp(1j * half) - 1.0)) @ v.conj().T
    u1 = exp_half @ u0 @ exp_half
    return TruncatedModel(size=size, dim=k, nodes=nodes, u0=u0, g=g, theta=theta, u1=u1)


def psi_direct(model: TruncatedModel, j: int, z: complex) -> np.ndarray:
    """i G (U_j + z)(U_j - z)^-1 G* by direct linear solve."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    z = complex(z)
    if abs(1.0 - abs(z)) < TRUNCATION_BAND:
        raise ValueError("z inside the truncation-inaccuracy band around the circle")
    u = model.u0 if j == 0 else model.u1
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
    """||alpha G - G beta||_2 with beta = cos(Theta/2) = sqrt(I - (G*G)^2)."""
    alpha = _model_alpha(model.gg_star)
    lam_b, vec_b = np.linalg.eigh(0.5 * model.theta)
    beta = psd_rebuild(vec_b, np.cos(lam_b))
    return float(np.linalg.norm(alpha @ model.g - model.g @ beta, 2))


@dataclass(frozen=True)
class CrossValidation:
    """Errors ||psi1_model(z; M) - psi1_algebraic(z)|| over points and sizes."""

    zs: np.ndarray
    sizes: np.ndarray
    errors: np.ndarray

    def orders(self) -> np.ndarray:
        """log2(err(M)/err(2M)) per point; nan where the floor is reached."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log2(self.errors[:, :-1] / self.errors[:, 1:])

    def rows(self):
        for i, z in enumerate(self.zs):
            for j, m in enumerate(self.sizes):
                yield complex(z), int(m), float(self.errors[i, j])


def cross_validate(system: DeBrangesSystem, zs: Sequence[complex],
                   sizes: Sequence[int]) -> CrossValidation:
    zs = np.asarray(list(zs), dtype=complex)
    sizes = np.asarray(list(sizes), dtype=int)
    errors = np.zeros((zs.size, sizes.size))
    for j, m in enumerate(sizes):
        model = build_model(system.weight, int(m))
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
    return SpectralMeasure(angles=angles[order], masses=masses[order])
