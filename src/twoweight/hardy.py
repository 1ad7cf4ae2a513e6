"""Rational test class, weighted Hardy projections, the multipliers X and
Y+/Y-, the weighted Hilbert transform, and Galerkin operator-norm bounds."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Sequence

import numpy as np

from .circle import CircleGrid, MatrixSampleField, TWO_PI
from .debranges import DeBrangesSystem
from .herglotz import pair_kernel_quadrature

DELTA_POLE = 1e-3
# the quadrature routes sample w0 f on an OVERSAMPLE-times finer grid and
# combine the radii 1 -+ eps, 2 eps, 4 eps, 8 eps (eps = QUADRATURE_OFFSET / M),
# weighted to cancel the eps, eps^2 and eps^3 terms, into one damping vector
OVERSAMPLE = 8
QUADRATURE_OFFSET = 10.0
RICHARDSON_WEIGHTS = (64.0 / 21.0, -56.0 / 21.0, 14.0 / 21.0, -1.0 / 21.0)
# a corpus pass walks the grid in blocks of BLOCK_VALUES / functions nodes (a
# power of two; 128 for 100 functions): the pole-major kernel and the values
# stay near a megabyte
BLOCK_VALUES = 1 << 14
# a pole at distance s from the circle aliases like e^{-M s} on M nodes: the
# Gram routes ask for M >= 8/s, the contraction ratios for M >= ln(1e6)/s,
# which keeps that aliasing term below 1e-6 (and bounds nothing else)
CLEARANCE = 8.0
CONTRACTION_CLEARANCE = float(np.log(1e6))
OPERATORS = ("X", "Y+", "Y-", "P+", "P-", "mult")


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
        kernel = 1.0 / (mu.reshape(-1) - self.poles[:, None])  # pole-major
        return np.einsum("tn,tk->nk", kernel, self.coefficients).reshape(mu.shape + (self.dim,))

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
    sides of the circle, angles uniform, coefficients complex Gaussian.  The
    draws are taken function by function; the arithmetic runs once on the
    whole corpus."""
    if count == 0:
        return []
    log_lo, log_hi = np.log(standoff_range[0]), np.log(standoff_range[1])
    sides = np.asarray(sides)
    sizes, logs, signs, angles, real, imag = [], [], [], [], [], []
    for _ in range(count):
        terms = int(rng.integers(1, max_terms + 1))
        sizes.append(terms)
        logs.append(rng.uniform(log_lo, log_hi, size=terms))
        signs.append(rng.choice(sides, size=terms))
        angles.append(rng.uniform(0.0, TWO_PI, size=terms))
        real.append(rng.standard_normal((terms, dim)))
        imag.append(rng.standard_normal((terms, dim)))
    radius = 1.0 + np.concatenate(signs) * np.exp(np.concatenate(logs))
    poles = radius * np.exp(1j * np.concatenate(angles))
    coeffs = np.concatenate(real) + 1j * np.concatenate(imag)
    bounds = np.cumsum(sizes)[:-1]
    return [RationalTestFunction(poles=p, coefficients=c)
            for p, c in zip(np.split(poles, bounds), np.split(coeffs, bounds))]


def _check_clearance(standoff: float, grid: CircleGrid,
                     clearance: float = CLEARANCE) -> None:
    if grid.size < int(np.ceil(clearance / standoff)):
        raise ValueError("pole too close to the circle for this grid")


@dataclass(frozen=True)
class _Corpus:
    """Rational functions stacked once, sorted by term count: each group of
    equal count is one (functions, columns, terms) stack of [chi | D0(z) chi]
    (chi alone unless rotated), so no pole is padded."""

    inverse: np.ndarray  # stacked position of each function
    poles: np.ndarray
    groups: list
    dim: int

    def blocks(self, grid: CircleGrid):
        """Yield (node block, f, Xf or None), each (nodes, k, functions), from
        one kernel over all poles and one matmul per group; reused buffers."""
        count = self.inverse.size
        width = min(grid.size, 1 << max(0, (BLOCK_VALUES // count).bit_length() - 1))
        kernel = np.empty((self.poles.size, width), dtype=complex)
        values = np.empty((count, self.groups[0].shape[1], width), dtype=complex)
        f = np.empty((width, self.dim, count), dtype=complex)
        xf = np.empty_like(f) if values.shape[1] > self.dim else None
        for lo in range(0, grid.size, width):
            np.subtract(grid.points[lo:lo + width], self.poles[:, None], out=kernel)
            np.divide(1.0, kernel, out=kernel)
            row = start = 0
            for coeffs in self.groups:
                n, _, terms = coeffs.shape
                np.matmul(coeffs, kernel[start:start + n * terms].reshape(n, terms, width),
                          out=values[row:row + n])
                row, start = row + n, start + n * terms
            f[...] = values[:, :self.dim].transpose(2, 1, 0)
            if xf is not None:
                xf[...] = values[:, self.dim:].transpose(2, 1, 0)
            yield slice(lo, lo + width), f, xf


def _apply(field: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A (nodes, k, k) field applied node by node to (nodes, k, functions):
    one batched product for k >= 2 (on a 128-node block of 100 functions,
    about 5x faster than a loop over the field's columns at k = 2 and 9x at
    k = 4), and the broadcast product at k = 1, where the batched product is
    the slower of the two (63 against 26 us)."""
    if field.shape[-1] == 1:
        return field * values
    return field @ values


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum conj(a) b per function, over nodes and components."""
    return np.einsum("mkf,mkf->f", a.view(float), b.view(float)).reshape(-1, 2).sum(axis=1)


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
        self._dampings = {}

    @classmethod
    def build(cls, system: DeBrangesSystem, size: int) -> "HardyOperators":
        return cls(system, CircleGrid(size))

    # -- pointwise operators --------------------------------------------

    def _rotate(self, poles: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """D0(z_t) chi_t for every pole z_t, from one guarded evaluation of D0
        at all poles."""
        return (self.system.d0(poles) @ coefficients[:, :, None])[:, :, 0]

    def _stack(self, functions: Sequence[RationalTestFunction], rotate: bool) -> _Corpus:
        order = sorted(range(len(functions)), key=lambda i: functions[i].poles.size)
        poles = np.concatenate([functions[i].poles for i in order])
        coeffs = np.concatenate([functions[i].coefficients for i in order])
        if rotate:
            coeffs = np.hstack([coeffs, self._rotate(poles, coeffs)])
        groups, start = [], 0
        for terms, run in groupby(functions[i].poles.size for i in order):
            count = len(list(run))
            groups.append(np.ascontiguousarray(coeffs[start:start + count * terms].reshape(
                count, terms, coeffs.shape[1]).transpose(0, 2, 1)))
            start += count * terms
        return _Corpus(np.argsort(order), poles, groups, self.system.dim)

    def apply_x(self, f: RationalTestFunction) -> RationalTestFunction:
        """Same poles, coefficients rotated by D0 at each pole."""
        return RationalTestFunction(f.poles.copy(), self._rotate(f.poles, f.coefficients))

    def _fields(self, f: RationalTestFunction, grid: CircleGrid, rotate: bool = True):
        """f and Xf (None unless rotate) on every node of grid, (nodes, k, 1)
        each, from one pass over the one-function corpus [f]."""
        fv = np.empty((grid.size, f.dim, 1), dtype=complex)
        xv = np.empty_like(fv) if rotate else None
        for block, f_block, xf_block in self._stack([f], rotate).blocks(grid):
            fv[block] = f_block
            if rotate:
                xv[block] = xf_block
        return fv, xv

    def _project(self, side: str, f: np.ndarray, xf: np.ndarray,
                 block=slice(None)) -> np.ndarray:
        """+-(i/2)(Xf - Y_+- f) on a node block, from f and Xf there."""
        sign, mult = (1.0, self.d0_inner) if side == "+" else (-1.0, self.d0_outer)
        return sign * 0.5j * (xf - _apply(mult[block], f))

    def apply_y(self, f: RationalTestFunction, side: str = "+") -> np.ndarray:
        """D0^{+-}(theta) f(e^{i theta}) at grid nodes; flagged rows zeroed."""
        mult = self.d0_inner if side == "+" else self.d0_outer
        field = _apply(mult, self._fields(f, self.grid, rotate=False)[0])
        return np.where(self.unflagged[:, None], field[..., 0], 0.0)

    def project(self, f: RationalTestFunction, side: str = "+") -> np.ndarray:
        """+-(i/2)((Xf)(theta) - (Y_+- f)(theta)); flagged rows zeroed."""
        out = self._project(side, *self._fields(f, self.grid))
        return np.where(self.unflagged[:, None], out[..., 0], 0.0)

    def hilbert(self, f: RationalTestFunction) -> np.ndarray:
        """-i(P+ - P-)f + i * mean(w0 f); flagged rows zeroed."""
        fv, xv = self._fields(f, self.grid)
        mean = _apply(self.w0_samples, fv).mean(axis=0)
        out = -1j * (self._project("+", fv, xv) - self._project("-", fv, xv)) + 1j * mean
        return np.where(self.unflagged[:, None], out[..., 0], 0.0)

    def multiplication_residual(self, f: RationalTestFunction) -> float:
        """max over unflagged nodes of ||(P+ f + P- f)(theta) - w0(theta) f||."""
        fv, xv = self._fields(f, self.grid)
        total = self._project("+", fv, xv) + self._project("-", fv, xv)
        diff = np.linalg.norm((total - _apply(self.w0_samples, fv))[..., 0], axis=1)
        return float(diff[self.unflagged].max())

    # -- quadrature cross-check routes -----------------------------------

    @cached_property
    def _w0_fine(self) -> MatrixSampleField:
        """w0 on the oversampled grid of the quadrature routes, built once."""
        return self.system.weight.field_on(CircleGrid(OVERSAMPLE * self.grid.size))

    def _quadrature(self, f: RationalTestFunction, route: str) -> np.ndarray:
        """The damped fine spectrum of w0 f, folded onto the M coarse modes
        and inverted there (one FFT of length M).  The damping, built once per
        route, is (1 -+ eps)^{+-n} on the P+ or P- modes, or the spectrum of
        the Hilbert kernel ("H"), combined over the Richardson radii."""
        fine = self._w0_fine
        if route not in self._dampings:
            eps = QUADRATURE_OFFSET / self.grid.size * 2.0 ** np.arange(len(RICHARDSON_WEIGHTS))
            if route == "H":
                r, t = (1.0 - eps)[:, None], fine.grid.nodes
                kernel = 2.0 * np.sin(t) / (1.0 + r * r - 2.0 * r * np.cos(t))
                self._dampings[route] = np.fft.fft(RICHARDSON_WEIGHTS @ kernel, norm="forward")
            else:
                sign = 1.0 if route == "+" else -1.0
                modes = np.fft.fftfreq(fine.grid.size, 1.0 / fine.grid.size)
                powers = (1.0 - sign * eps)[:, None] ** (sign * np.abs(modes))
                self._dampings[route] = np.where((modes >= 0) == (sign > 0),
                                                 RICHARDSON_WEIGHTS @ powers, 0.0)
        gv = _apply(fine.values, self._fields(f, fine.grid, rotate=False)[0])[..., 0]
        spectrum = np.fft.fft(gv, axis=0, norm="forward") * self._dampings[route][:, None]
        folded = spectrum.reshape(OVERSAMPLE, self.grid.size, -1).sum(axis=0)
        return np.fft.ifft(folded, axis=0, norm="forward")

    def project_quadrature(self, f: RationalTestFunction, side: str = "+") -> np.ndarray:
        """Direct quadrature of the defining limit at r = 1 -+ eps, spectral on
        the oversampled grid, Richardson-combined over eps, 2 eps, 4 eps, 8 eps."""
        return self._quadrature(f, side)

    def hilbert_quadrature(self, f: RationalTestFunction) -> np.ndarray:
        """Convolution against the kernel 2 sin(theta-t)/(1+r^2-2r cos(theta-t))
        at r = 1 - eps on the oversampled grid, Richardson-combined like P+."""
        return self._quadrature(f, "H")

    # -- bilinear identities ---------------------------------------------

    @cached_property
    def _pair_field(self):
        """w0 on the quadrature grid of the Gram identity, built once."""
        return self.system.weight.field_on(CircleGrid(max(1024, self.grid.size)))

    def gram_identity_residual(self, z1, z2):
        """Residual of the two-point Gram identity: the w0-side quadrature of
        1/((e^{-it} - conj(z2))(e^{it} - z1)) against the psi1-side expression
        D0(z2)* (psi1(z1) - psi1(z2)*) / (2i (1 - z1 conj(z2))) D0(z1).  For
        arrays of pairs, one residual per pair from one quadrature and one
        evaluation of D0 over all points, psi1 = alpha - D0^-1 taken from it."""
        z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
        denom = 1.0 - z1 * np.conj(z2)
        if np.any(np.abs(denom) < 1e-12):
            raise ValueError("pair lies on the reflection locus z1 conj(z2) = 1")
        points = np.stack([z1, z2])
        d = self.system.d0(points)
        (d1, d2), (p1, p2) = d, self.system.alpha - np.linalg.inv(d)
        core = (p1 - np.conj(np.swapaxes(p2, -1, -2))) / (2j * denom[..., None, None])
        rhs = np.conj(np.swapaxes(d2, -1, -2)) @ core @ d1
        residual = np.linalg.norm(pair_kernel_quadrature(z1, z2, self._pair_field) - rhs, 2,
                                  axis=(-2, -1))
        return float(residual) if residual.ndim == 0 else residual

    def x_gram_residual(self, basis: Sequence[RationalTestFunction]) -> np.ndarray:
        """gram0 - gram1 for the operator X; zero when nu1 is purely a.c."""
        data = self.gram_data("X", basis)
        return data.gram0 - data.gram1

    def x_sup(self, basis: Sequence[RationalTestFunction], grid: CircleGrid) -> np.ndarray:
        """max over the nodes of grid of |Xf|^2, per function of basis."""
        corpus = self._stack(basis, rotate=True)
        sup = np.zeros(len(basis))
        for _, _, xf in corpus.blocks(grid):
            sup = np.maximum(sup, (xf.real ** 2 + xf.imag ** 2).sum(axis=1).max(axis=0))
        return sup[corpus.inverse]

    # -- Galerkin norm estimation -----------------------------------------

    def gram_data(self, op: str, basis: Sequence[RationalTestFunction]) -> GramData:
        """Source Gram in L2(w0) and image Gram in L2(w1), both restricted to
        unflagged nodes (w0 zeroed there, as w1 is) so the isometries close
        exactly on the grid; one node-block pass over the stacked basis."""
        if op not in OPERATORS:
            raise ValueError(f"unknown operator {op!r}")
        _check_clearance(min(f.standoff for f in basis), self.grid)
        corpus = self._stack(basis, rotate=op in ("X", "P+", "P-"))
        w0 = np.where(self.unflagged[:, None, None], self.w0_samples, 0.0)
        grams = [0.0, 0.0]
        for block, f, xf in corpus.blocks(self.grid):
            image = xf
            if op == "mult":
                image = _apply(self.w0_samples[block], f)
            elif op[0] == "P":
                image = self._project(op[1], f, xf, block)
            elif op != "X":
                image = _apply((self.d0_inner if op[1] == "+" else self.d0_outer)[block], f)
            for i, (v, w) in enumerate(((f, w0), (image, self.w1_samples))):
                grams[i] = grams[i] + np.tensordot(v.conj(), _apply(w[block], v), ([0, 1], [0, 1]))
        pick = np.ix_(corpus.inverse, corpus.inverse)
        gram0, gram1 = (0.5 * (g[pick] + g[pick].conj().T) / self.grid.size for g in grams)
        return GramData(tuple(basis), gram0, gram1)

    def norm_estimate(self, op: str, basis: Sequence[RationalTestFunction]) -> float:
        """Lower bound for the squared operator norm on span(basis)."""
        data = self.gram_data(op, basis)
        return gram_norm_estimate(data.gram1, data.gram0)

    def contraction_ratios(self, functions: Sequence[RationalTestFunction]) -> np.ndarray:
        """||P f||^2_{L2(w1), unflagged} / ||f||^2_{L2(w0)} per test function,
        row 0 for P+ and row 1 for P-.

        The grid must hold pole aliasing below 1e-6: M >= ln(1e6)/standoff
        for the smallest standoff in the corpus, else ValueError.  That is
        the only error the guard bounds: the numerators also drop the
        flagged nodes, an O(1/M) error of its own (about 9e-7 in W_COS's P+
        ratio at M = 4096).  One node-block pass over the stacked corpus; no
        grid-sized array per function is formed."""
        _check_clearance(min(f.standoff for f in functions), self.grid, CONTRACTION_CLEARANCE)
        corpus = self._stack(functions, rotate=True)
        num, den = np.zeros((2, len(functions))), np.zeros(len(functions))
        for block, f, xf in corpus.blocks(self.grid):
            for row, mult in enumerate((self.d0_inner, self.d0_outer)):
                image = _apply(mult[block], f)
                np.subtract(xf, image, out=image)  # P+- f over +-i/2, exactly
                num[row] += _real_dot(image, _apply(self.w1_samples[block], image))
            den += _real_dot(f, _apply(self.w0_samples[block], f))
        return (0.25 * num / den)[:, corpus.inverse]
