"""Rational test class, weighted Hardy projections, the multipliers X and
Y+/Y-, the weighted Hilbert transform, and Galerkin operator-norm bounds."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .circle import CircleGrid, MatrixSampleField, TWO_PI
from .debranges import COND_CUTOFF, DeBrangesSystem, _cond_batch
from .herglotz import pair_kernel_quadrature
from .weights import MatrixWeight

DELTA_POLE = 1e-3
# the quadrature routes sample w0 f on an OVERSAMPLE-times finer grid and
# combine the radii 1 -+ eps, 2 eps, 4 eps (eps = QUADRATURE_OFFSET / M)
OVERSAMPLE = 8
QUADRATURE_OFFSET = 10.0
RICHARDSON_WEIGHTS = (8.0 / 3.0, -2.0, 1.0 / 3.0)
# grid nodes per block of the corpus-wide contraction pass: the block's
# kernel (functions x nodes x terms) stays around a megabyte
NODE_BLOCK = 128


@dataclass(frozen=True)
class RationalTestFunction:
    """f(mu) = sum (mu - z_i)^-1 chi_i with poles off the unit circle."""

    poles: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        poles = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None] if poles.size == coeffs.size else coeffs[None, :]
        if coeffs.ndim != 2 or coeffs.shape[0] != poles.size:
            raise ValueError("coefficients must have shape (terms, k)")
        gap = np.abs(1.0 - np.abs(poles))
        if poles.size and gap.min() < DELTA_POLE:
            raise ValueError("pole too close to the unit circle")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[1]

    @property
    def standoff(self) -> float:
        if self.poles.size == 0:
            return 1.0
        return float(np.abs(1.0 - np.abs(self.poles)).min())

    def __call__(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=complex)
        kernel = 1.0 / (mu[..., None] - self.poles)
        return np.einsum("...t,tk->...k", kernel, self.coefficients)

    def evaluate_on(self, grid: CircleGrid) -> np.ndarray:
        return self(grid.points)

    def __add__(self, other: "RationalTestFunction") -> "RationalTestFunction":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RationalTestFunction(
            poles=np.concatenate([self.poles, other.poles]),
            coefficients=np.vstack([self.coefficients, other.coefficients]),
        )

    def __rmul__(self, scalar: complex) -> "RationalTestFunction":
        return RationalTestFunction(self.poles, scalar * self.coefficients)


def random_test_functions(rng: np.random.Generator, count: int, dim: int,
                          max_terms: int = 5,
                          standoff_range=(1e-2, 0.9),
                          sides=(-1.0, 1.0)) -> list:
    """Seeded corpus: pole standoff log-uniform in the given range on both
    sides of the circle, angles uniform, coefficients complex Gaussian."""
    lo, hi = standoff_range
    out = []
    for _ in range(count):
        terms = int(rng.integers(1, max_terms + 1))
        gap = np.exp(rng.uniform(np.log(lo), np.log(hi), size=terms))
        side = rng.choice(np.asarray(sides), size=terms)
        radius = 1.0 + side * gap
        angle = rng.uniform(0.0, TWO_PI, size=terms)
        poles = radius * np.exp(1j * angle)
        coeffs = rng.standard_normal((terms, dim)) + 1j * rng.standard_normal((terms, dim))
        out.append(RationalTestFunction(poles=poles, coefficients=coeffs))
    return out


def _check_clearance(standoff: float, grid: CircleGrid) -> None:
    if grid.size < int(np.ceil(8.0 / standoff)):
        raise ValueError("pole too close to the circle for this grid")


def weighted_inner(f: RationalTestFunction, g: RationalTestFunction,
                   w: MatrixWeight, grid: CircleGrid) -> complex:
    """(1/M) sum_m (w(theta_m) f(e^{i theta_m}), g(e^{i theta_m})).

    The grid must resolve the poles: M >= 8/standoff.
    """
    _check_clearance(min(f.standoff, g.standoff), grid)
    samples = w.samples_on(grid)
    fv = f.evaluate_on(grid)
    gv = g.evaluate_on(grid)
    return complex(np.einsum("mk,mkl,ml->", np.conj(gv), samples, fv) / grid.size)


def _field_gram(fields: np.ndarray, w_samples: np.ndarray, mask: np.ndarray,
                size: int) -> np.ndarray:
    """(1/M) sum over the nodes in mask of (w f_j, f_i), for fields of shape
    (functions, nodes, k): w f at every node by one batched product, then one
    product over the (node, component) pairs."""
    count = fields.shape[0]
    left = np.where(mask[:, None], fields, 0.0)
    wf = (w_samples @ left[..., None]).reshape(count, -1)
    np.conj(left, out=left)
    gram = left.reshape(count, -1) @ wf.T / size
    return 0.5 * (gram + gram.conj().T)


def _block_norm2(fields: Sequence[np.ndarray], w_samples: np.ndarray) -> np.ndarray:
    """sum over a node block of (w f, f) per function, from the k components
    f[a] of shape (functions, nodes) and the block's (nodes, k, k) weight."""
    dim = len(fields)
    total = 0.0
    for a in range(dim):
        wf = sum(w_samples[:, a, b] * fields[b] for b in range(dim))
        total = total + (np.conj(fields[a]) * wf).real.sum(axis=1)
    return total


@dataclass(frozen=True)
class GramData:
    basis: tuple
    gram0: np.ndarray
    gram1: np.ndarray


def gram_norm_estimate(gram1: np.ndarray, gram0: np.ndarray) -> float:
    """Largest generalized eigenvalue of (gram1, gram0) on the numerical
    range of gram0 (rank cut at 1e-10 of the top eigenvalue)."""
    lam, vec = np.linalg.eigh(gram0)
    lmax = float(lam.max(initial=0.0))
    if not np.isfinite(lmax) or lmax <= 0.0:
        raise ValueError("Gram matrix numerically zero")
    keep = lam > 1e-10 * lmax
    if not np.any(keep):
        raise ValueError("Gram matrix numerically zero")
    basis_w = vec[:, keep] / np.sqrt(lam[keep])
    compressed = basis_w.conj().T @ gram1 @ basis_w
    compressed = 0.5 * (compressed + compressed.conj().T)
    return float(np.linalg.eigvalsh(compressed).max())


class HardyOperators:
    """Grid realization of X, Y+/-, the projections, and the Hilbert transform
    for one system; boundary data and the companion weight are precomputed."""

    def __init__(self, system: DeBrangesSystem, grid: CircleGrid):
        self.system = system
        self.grid = grid
        self.companion = system.companion_weight(grid)
        self.w0_samples = system.weight.samples_on(grid)
        self.w1_samples = self.companion.w1.values
        self.d0_inner = self.companion.d0_plus
        self.d0_outer = np.conj(np.swapaxes(self.d0_inner, -1, -2))
        self.unflagged = self.companion.unflagged

    @classmethod
    def build(cls, system: DeBrangesSystem, size: int) -> "HardyOperators":
        return cls(system, CircleGrid(size))

    # -- pointwise operators --------------------------------------------

    def _rotate(self, poles: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """D0(z_t) chi_t for every pole z_t, from one evaluation of D0 at all
        poles behind one condition guard."""
        d = self.system.d0(poles)
        singular = np.flatnonzero(_cond_batch(d) > COND_CUTOFF)
        if singular.size:
            raise ValueError(f"D0 numerically singular at pole z = {poles[singular[0]]}")
        return (d @ coefficients[:, :, None])[:, :, 0]

    def apply_x(self, f: RationalTestFunction) -> RationalTestFunction:
        """Same poles, coefficients rotated by D0 at each pole."""
        return RationalTestFunction(f.poles.copy(), self._rotate(f.poles, f.coefficients))

    def apply_y(self, f: RationalTestFunction, side: str = "+") -> np.ndarray:
        """D0^{+-}(theta) f(e^{i theta}) at grid nodes; flagged rows zeroed."""
        mult = self.d0_inner if side == "+" else self.d0_outer
        field = np.einsum("mkl,ml->mk", mult, f.evaluate_on(self.grid))
        return np.where(self.unflagged[:, None], field, 0.0)

    def project(self, f: RationalTestFunction, side: str = "+") -> np.ndarray:
        """+-(i/2)((Xf)(theta) - (Y_+- f)(theta)); flagged rows zeroed."""
        sign = 1.0 if side == "+" else -1.0
        xf = self.apply_x(f).evaluate_on(self.grid)
        out = sign * 0.5j * (xf - self.apply_y(f, side))
        return np.where(self.unflagged[:, None], out, 0.0)

    def hilbert(self, f: RationalTestFunction) -> np.ndarray:
        """-i(P+ - P-)f + i * mean(w0 f); flagged rows zeroed."""
        plus = self.project(f, "+")
        minus = self.project(f, "-")
        w0f = np.einsum("mkl,ml->mk", self.w0_samples, f.evaluate_on(self.grid))
        mean = w0f.mean(axis=0)
        out = -1j * (plus - minus) + 1j * mean
        return np.where(self.unflagged[:, None], out, 0.0)

    def multiplication_residual(self, f: RationalTestFunction) -> float:
        """max over unflagged nodes of ||(P+ f + P- f)(theta) - w0(theta) f||."""
        total = self.project(f, "+") + self.project(f, "-")
        w0f = np.einsum("mkl,ml->mk", self.w0_samples, f.evaluate_on(self.grid))
        diff = np.linalg.norm(total - w0f, axis=1)
        return float(diff[self.unflagged].max())

    # -- quadrature cross-check routes -----------------------------------

    @cached_property
    def _w0_fine(self) -> MatrixSampleField:
        """w0 on the oversampled grid of the quadrature routes, built once."""
        return self.system.weight.field_on(CircleGrid(OVERSAMPLE * self.grid.size))

    def _fine_product(self, f: RationalTestFunction):
        """(fine grid, w0 f on it, radius offsets eps) for the quadrature routes."""
        fine = self._w0_fine.grid
        gv = np.einsum("mkl,ml->mk", self._w0_fine.values, f.evaluate_on(fine))
        eps0 = QUADRATURE_OFFSET / self.grid.size
        return fine, gv, (eps0, 2 * eps0, 4 * eps0)

    def project_quadrature(self, f: RationalTestFunction, side: str = "+") -> np.ndarray:
        """Direct quadrature of the defining limit, anchored at r = 1 -+ 10/M.

        The integral at fixed radius is evaluated spectrally on an oversampled
        grid; three radii (eps, 2 eps, 4 eps) are combined by Richardson
        extrapolation to reach the limit at second order or better.
        """
        fine, gv, radii = self._fine_product(f)
        ghat = np.fft.fft(gv, axis=0) / fine.size
        modes = np.fft.fftfreq(fine.size, 1.0 / fine.size).astype(int)
        acc = np.zeros((fine.size, f.dim), dtype=complex)
        for eps, cw in zip(radii, RICHARDSON_WEIGHTS):
            if side == "+":
                damp = np.where(modes >= 0, (1.0 - eps) ** np.maximum(modes, 0), 0.0)
            else:
                damp = np.where(modes < 0, (1.0 + eps) ** np.minimum(modes, 0), 0.0)
            acc += cw * np.fft.ifft(ghat * damp[:, None], axis=0) * fine.size
        return acc[::OVERSAMPLE]

    def hilbert_quadrature(self, f: RationalTestFunction) -> np.ndarray:
        """Convolution against the kernel 2 sin(theta-t)/(1+r^2-2r cos(theta-t))
        at r = 1 - 10/M, Richardson-extrapolated over r.

        The trapezoid sum over the oversampled grid is one circular
        convolution there, done by FFT and read off at the coarse nodes.
        """
        fine, gv, radii = self._fine_product(f)
        sin_lag = np.sin(fine.nodes)
        cos_lag = np.cos(fine.nodes)
        kernel = np.zeros(fine.size)
        for eps, cw in zip(radii, RICHARDSON_WEIGHTS):
            r = 1.0 - eps
            kernel += cw * 2.0 * sin_lag / (1.0 + r * r - 2.0 * r * cos_lag)
        spectrum = np.fft.fft(kernel)[:, None] * np.fft.fft(gv, axis=0)
        return np.fft.ifft(spectrum, axis=0)[::OVERSAMPLE] / fine.size

    # -- bilinear identities ---------------------------------------------

    @cached_property
    def _pair_field(self):
        """w0 on the quadrature grid of the Gram identity, built once."""
        return self.system.weight.field_on(CircleGrid(max(1024, self.grid.size)))

    def gram_identity_residual(self, z1: complex, z2: complex) -> float:
        """Residual of the two-point Gram identity: the w0-side quadrature of
        1/((e^{-it} - conj(z2))(e^{it} - z1)) against the psi1-side expression
        D0(z2)* (psi1(z1) - psi1(z2)*) / (2i (1 - z1 conj(z2))) D0(z1)."""
        z1 = complex(z1)
        z2 = complex(z2)
        denom = 1.0 - z1 * np.conj(z2)
        if abs(denom) < 1e-12:
            raise ValueError("pair lies on the reflection locus z1 conj(z2) = 1")
        lhs = pair_kernel_quadrature(z1, z2, self._pair_field)
        p1 = self.system.psi1(z1)
        p2 = self.system.psi1(z2)
        core = (p1 - p2.conj().T) / (2j * denom)
        rhs = self.system.d0(z2).conj().T @ core @ self.system.d0(z1)
        return float(np.linalg.norm(lhs - rhs, 2))

    def x_gram_residual(self, basis: Sequence[RationalTestFunction]) -> np.ndarray:
        """gram0 - gram1 for the operator X; zero when nu1 is purely a.c."""
        data = self.gram_data("X", basis)
        return data.gram0 - data.gram1

    # -- Galerkin norm estimation -----------------------------------------

    def _image_fields(self, op: str, basis: Sequence[RationalTestFunction]) -> np.ndarray:
        images = []
        for f in basis:
            if op == "X":
                images.append(self.apply_x(f).evaluate_on(self.grid))
            elif op in ("Y+", "Y-"):
                images.append(self.apply_y(f, op[1]))
            elif op in ("P+", "P-"):
                images.append(self.project(f, op[1]))
            elif op == "mult":
                images.append(np.einsum("mkl,ml->mk",
                                        self.w0_samples, f.evaluate_on(self.grid)))
            else:
                raise ValueError(f"unknown operator {op!r}")
        return np.stack(images)

    def gram_data(self, op: str, basis: Sequence[RationalTestFunction]) -> GramData:
        """Source Gram in L2(w0) and image Gram in L2(w1), both restricted to
        unflagged nodes so the isometries close exactly on the grid."""
        for f in basis:
            _check_clearance(f.standoff, self.grid)
        sources = np.stack([f.evaluate_on(self.grid) for f in basis])
        m = self.grid.size
        gram0 = _field_gram(sources, self.w0_samples, self.unflagged, m)
        images = self._image_fields(op, basis)
        gram1 = _field_gram(images, self.w1_samples, self.unflagged, m)
        return GramData(basis=tuple(basis), gram0=gram0, gram1=gram1)

    def norm_estimate(self, op: str, basis: Sequence[RationalTestFunction]) -> float:
        """Lower bound for the squared operator norm on span(basis)."""
        data = self.gram_data(op, basis)
        return gram_norm_estimate(data.gram1, data.gram0)

    def contraction_ratios(self, functions: Sequence[RationalTestFunction]) -> np.ndarray:
        """||P f||^2_{L2(w1), unflagged} / ||f||^2_{L2(w0)} per test function,
        row 0 for P+ and row 1 for P-.

        The grid must resolve the poles: M >= 8/standoff for the smallest
        standoff in the corpus, else ValueError.  The corpus is stacked once
        (poles padded with zero coefficients, X applied to all poles at once)
        and the grid is walked once in blocks of NODE_BLOCK nodes, where one
        product of the kernel 1/(mu - z) with [chi | D0(z) chi] gives f and
        Xf for both sides; no grid-sized array per function is formed.
        """
        _check_clearance(min(f.standoff for f in functions), self.grid)
        dim = self.system.dim
        counts = np.array([f.poles.size for f in functions])
        present = np.arange(counts.max()) < counts[:, None]
        poles = np.zeros(present.shape, dtype=complex)
        poles[present] = np.concatenate([f.poles for f in functions])
        coeffs = np.zeros(present.shape + (2 * dim,), dtype=complex)
        coeffs[present, :dim] = np.concatenate([f.coefficients for f in functions])
        coeffs[present, dim:] = self._rotate(poles[present], coeffs[present, :dim])

        sides = ((self.d0_inner, 0.5j), (self.d0_outer, -0.5j))
        num = np.zeros((len(sides), len(functions)))
        den = np.zeros(len(functions))
        for lo in range(0, self.grid.size, NODE_BLOCK):
            block = slice(lo, lo + NODE_BLOCK)
            kernel = np.reciprocal(self.grid.points[block, None] - poles[:, None, :])
            values = kernel @ coeffs
            source = [values[:, :, a] for a in range(dim)]
            keep = self.unflagged[block]
            for row, (mult, sign) in enumerate(sides):
                y = mult[block]
                image = []
                for a in range(dim):
                    yf = sum(y[:, a, b] * source[b] for b in range(dim))
                    image.append(np.where(keep, sign * (values[:, :, dim + a] - yf), 0.0))
                num[row] += _block_norm2(image, self.w1_samples[block])
            den += _block_norm2(source, self.w0_samples[block])
        return num / den
