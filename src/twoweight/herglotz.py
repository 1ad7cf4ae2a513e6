"""Herglotz (Cauchy) transforms of matrix weights: interior values, radial
boundary limits by extrapolation, and exact boundary profiles."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .circle import CircleGrid, MatrixSampleField, evaluate_series, synthesize_series
from .weights import MatrixWeight

DELTA_MIN = 1e-8


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def neville_extrapolate(vals: np.ndarray) -> np.ndarray:
    """Iterated Richardson elimination for samples at step sizes h0 * 2^-j.

    vals has the ladder along axis 0; trailing axes are carried through.
    """
    table = np.asarray(vals, dtype=complex)
    for level in range(1, table.shape[0]):
        factor = 2.0 ** level
        table = table[1:] + (table[1:] - table[:-1]) / (factor - 1.0)
    return table[0]


def radial_limit(fn: Callable[[np.ndarray], np.ndarray], side: str = "inner",
                 j_lo: int = 6, j_hi: int = 14) -> np.ndarray:
    """Radial limit of fn(r) as r -> 1 from inside (r = 1 - 2^-j) or outside.

    fn takes the array of radii of the ladder j = j_lo..j_hi and returns
    its values stacked along axis 0; Richardson extrapolation on that
    geometric ladder gives the limit.
    """
    if side not in ("inner", "outer"):
        raise ValueError("side must be 'inner' or 'outer'")
    sign = -1.0 if side == "inner" else 1.0
    radii = 1.0 + sign * 2.0 ** -np.arange(j_lo, j_hi + 1.0)
    return neville_extrapolate(fn(radii))


@dataclass(frozen=True)
class HerglotzEvaluator:
    """psi(z) = i * integral (e^it + z)/(e^it - z) w(e^it) dt/2pi from the
    Fourier data of w.  coeffs holds orders 0..N; negative orders are implied
    by Hermitian symmetry.  Inside the disc psi = iF with the series
    F(z) = W(0) + 2 sum W(n) z^n; outside psi(z) = psi(1/conj z)*."""

    coeffs: np.ndarray
    series: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise ValueError("coefficients must have shape (N+1, k, k)")
        zero = coeffs[0]
        if np.abs(zero - zero.conj().T).max() > 1e-10:
            raise ValueError("zeroth coefficient must be Hermitian")
        series = coeffs.copy()
        series[1:] *= 2.0
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "series", series)

    @classmethod
    def from_weight(cls, w: MatrixWeight) -> "HerglotzEvaluator":
        return cls(coeffs=w.coefficients)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def psi(self, z) -> np.ndarray:
        """psi at a point off the circle, or at each point of an array of them
        (output shape z.shape + (k, k))."""
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(1.0 - np.abs(z)) < DELTA_MIN):
            raise ValueError("z too close to the circle; use boundary operations")
        outer = np.abs(z) > 1.0
        inner = z.copy()
        inner[outer] = 1.0 / np.conj(z[outer])
        values = 1j * evaluate_series(self.series, inner)
        return np.where(outer[..., None, None], _adjoint(values), values)

    def boundary_profile(self, theta: np.ndarray, side: str = "inner") -> np.ndarray:
        """Radial boundary values of psi at e^{i theta}, vectorized over angles.

        The evaluator holds a finite coefficient list, so the inner limit is
        the exact finite sum iF(e^{i theta}) and the outer limit its adjoint.
        """
        inner = 1j * evaluate_series(self.series, np.exp(1j * np.asarray(theta, dtype=float)))
        return inner if side == "inner" else _adjoint(inner)

    def ring_values(self, r: float, grid: CircleGrid) -> np.ndarray:
        """psi(r e^{i theta_m}) on all grid nodes at once via an inverse FFT.

        r <= 1 synthesizes iF on the ring (r = 1 gives the exact inner
        boundary profile); r > 1 reflects the ring at radius 1/r.  Equivalent
        to the pointwise series but O(M log M) in the grid size.
        """
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if r > 1.0:
            return _adjoint(self.ring_values(1.0 / r, grid))
        return 1j * synthesize_series(self.series, grid, r)


def psi_quadrature(z: complex, field: MatrixSampleField) -> np.ndarray:
    """Trapezoid quadrature of the Herglotz integral; the slow cross-check."""
    z = complex(z)
    mu = field.grid.points
    kernel = (mu + z) / (mu - z)
    return 1j * np.einsum("m,mab->ab", kernel, field.values) / field.grid.size


def pair_kernel_quadrature(z1, z2, field: MatrixSampleField) -> np.ndarray:
    """Quadrature of integral dnu / ((e^{-it} - conj(z2)) (e^{it} - z1)), at a
    pair or at each pair of two equal-shape arrays (output z1.shape + (k, k))."""
    mu = field.grid.points
    z1 = np.asarray(z1)[..., None]
    z2 = np.asarray(z2)[..., None]
    kernel = 1.0 / ((np.conj(mu) - np.conj(z2)) * (mu - z1))
    return np.einsum("...m,mab->...ab", kernel, field.values) / field.grid.size
