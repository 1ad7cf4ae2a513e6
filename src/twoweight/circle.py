"""Uniform circle grids and matrix-valued Fourier analysis."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

TWO_PI = 2.0 * np.pi
# the largest grid the command line and the suite accept
MAX_GRID = 65536


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (1 for n <= 1)."""
    return 1 << max(0, int(n - 1)).bit_length()


def degree_grid(degree: int, floor: int) -> int:
    """The grid that holds a weight of degree d: the smallest power of two
    >= 2(d + 1), raised to `floor`."""
    return max(floor, next_power_of_two(2 * (degree + 1)))


def check_grid_size(size: int) -> int:
    """The command-line and suite grid range: a power of two in [64, MAX_GRID]."""
    if size < 64 or size > MAX_GRID or size != next_power_of_two(size):
        raise ValueError(f"grid size must be a power of two in [64, {MAX_GRID}], got {size}")
    return size


@dataclass(frozen=True)
class CircleGrid:
    """Uniform angular grid theta_m = 2*pi*m/M.

    M must be a power of two and at least 16; this keeps the FFT exact-size
    and the trapezoid rule spectrally accurate for band-limited fields.
    """

    size: int

    def __post_init__(self) -> None:
        size = int(self.size)
        if size != self.size:
            raise ValueError("grid size must be an integer")
        if size < 16 or size != next_power_of_two(size):
            raise ValueError("grid size must be a power of two, at least 16")
        object.__setattr__(self, "size", size)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Angles theta_m in [0, 2*pi), strictly increasing."""
        return TWO_PI * np.arange(self.size) / self.size

    @cached_property
    def points(self) -> np.ndarray:
        """Unit-circle samples e^{i theta_m}."""
        return np.exp(1j * self.nodes)


@dataclass(frozen=True)
class MatrixSampleField:
    """Per-node k x k complex matrices over a grid; a Hermitian field may
    carry its eigenvalues, shape (M, k), ascending per node."""

    grid: CircleGrid
    values: np.ndarray
    eigenvalues: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(self.values, dtype=complex))
        if values.ndim == 1:
            values = values[:, None, None]
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError("values must have shape (M, k, k)")
        if values.shape[0] != self.grid.size:
            raise ValueError("sample count must match the grid size")
        if values.shape[1] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("all samples must be finite")
        if self.eigenvalues is not None and self.eigenvalues.shape != values.shape[:2]:
            raise ValueError("eigenvalues must have shape (M, k)")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def synthesize_series(coeffs: np.ndarray, grid: CircleGrid) -> np.ndarray:
    """sum_{n=0}^{d} c_n e^{i n theta_m} on every node by one inverse FFT.

    coeffs has orders 0..d along axis 0; d < M keeps every order distinct.
    """
    m = grid.size
    d = coeffs.shape[0] - 1
    if d >= m:
        raise ValueError(f"grid of {m} nodes is too coarse for degree {d}: "
                         f"needs {next_power_of_two(d + 1)}")
    return np.fft.ifft(coeffs, n=m, axis=0, norm="forward")


def evaluate_series(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_{n=0}^{d} c_n z^n at each point of z by Horner's rule, with no
    (points, d) table of powers; output shape z.shape + (k, k)."""
    z = np.asarray(z, dtype=complex)[..., None, None]
    acc = np.zeros(z.shape[:-2] + coeffs.shape[1:], dtype=complex)
    for c in coeffs[::-1]:
        acc *= z
        acc += c
    return acc


def circle_mean(field: MatrixSampleField) -> np.ndarray:
    """(1/M) sum_m field(theta_m): the trapezoid rule for the circle mean."""
    return field.values.mean(axis=0)
