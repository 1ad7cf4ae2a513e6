"""Matrix-valued weights on the circle.

Covers the weight data model (Fourier or sampled form), Schatten norms,
mean-norm normalization, the zeroth moment, and the weight spec format with
the one rule by which every JSON number it holds is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .circle import (MAX_GRID, CircleGrid, MatrixSampleField, circle_mean, degree_grid,
                     evaluate_series, synthesize_series)

HERMITIAN_TOL = 1e-10
PSD_CLAMP = 1e-10
VANISH_TOL = 1e-14
TRIM_TOL = 1e-14
# a series of degree d needs a grid of 2(d + 1) nodes (circle.degree_grid)
MAX_ORDER = MAX_GRID // 2 - 1


def adjoint(a: np.ndarray) -> np.ndarray:
    """A* over the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 over the last two axes."""
    return 0.5 * (a + adjoint(a))


def imag_part(a: np.ndarray) -> np.ndarray:
    """(A - A*)/2i over the last two axes."""
    return (a - adjoint(a)) / 2j


def psd_rebuild(vec: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """V diag(lam) V* from an eigendecomposition (batched over leading axes),
    made exactly Hermitian: the one way a matrix function is rebuilt."""
    return hermitian_part((vec * lam[..., None, :]) @ adjoint(vec))


def psd_sqrt(values: np.ndarray) -> np.ndarray:
    """The PSD square root of Hermitian matrices, eigenvalues below 0 read as 0."""
    lam, vec = np.linalg.eigh(values)
    return psd_rebuild(vec, np.sqrt(np.maximum(lam, 0.0)))


def _clean_psd_samples(values: np.ndarray, lam: Optional[np.ndarray] = None):
    """Validate Hermitian PSD samples, clamping roundoff-negative eigenvalues.

    Returns (samples, eigenvalues), the eigenvalues being those of the
    returned samples.  A caller that already holds the spectrum of the
    samples' Hermitian part passes it as lam and it is not solved again.
    Eigenvalues in [-1e-10, 0) are set to 0 (the whole stack is rebuilt from
    one eigh, then its spectrum is taken again); anything more negative is a
    hard error, as is a Hermiticity defect above 1e-10.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None, None]
    if values.ndim != 3 or values.shape[1] != values.shape[2]:
        raise ValueError("samples must have shape (M, k, k)")
    star = adjoint(values)
    defect = np.abs(values - star).max() if values.size else 0.0
    if defect > HERMITIAN_TOL:
        raise ValueError(f"samples must be Hermitian (defect {defect:.3e})")
    values = 0.5 * (values + star)
    if values.shape[1] == 1:
        diag = values[:, 0, 0].real
        if diag.min(initial=0.0) < -PSD_CLAMP:
            raise ValueError("weight sample is not positive semidefinite")
        values[:, 0, 0] = np.maximum(diag, 0.0)
        # the eigenvalue of a 1x1 Hermitian matrix is its real part, exactly;
        # a view, so the spectrum costs no memory of its own
        return values, values[:, :, 0].real
    if lam is None:
        lam = np.linalg.eigvalsh(values)
    elif np.shape(lam) != values.shape[:2]:
        raise ValueError("eigenvalues must have shape (M, k)")
    low = lam.min(initial=0.0)
    if low < -PSD_CLAMP:
        raise ValueError(
            f"weight sample is not positive semidefinite (min eigenvalue {low:.3e})"
        )
    if low < 0.0:
        lam, vec = np.linalg.eigh(values)
        values = psd_rebuild(vec, np.maximum(lam, 0.0))
        lam = np.linalg.eigvalsh(values)
    return values, lam


def _trimmed_coefficients(values: np.ndarray) -> np.ndarray:
    """Orders 0..M/2-1 of the trigonometric interpolant of M samples, with
    trailing negligible orders trimmed so band-limited data stays compact."""
    m = values.shape[0]
    coeffs = (np.fft.fft(values, axis=0) / m)[: m // 2]
    mags = np.abs(coeffs).max(axis=(1, 2))
    keep = m // 2
    while keep > 1 and mags[keep - 1] <= TRIM_TOL * mags.max():
        keep -= 1
    return coeffs[:keep]


@dataclass(frozen=True)
class MatrixWeight:
    """Hermitian PSD matrix weight, held as Fourier coefficients or samples.

    Fourier form stores orders n = 0..d only; negative orders are implied by
    the Hermitian symmetry W_hat(-n) = W_hat(n)*.  Both forms compute these
    analytic coefficients once (`coefficients`); a realization sums that one
    series, by one inverse FFT on a grid and by Horner at other points.
    schatten_p is carried with the weight because normalization depends on
    it.  A sampled weight keeps the eigenvalues of its stored values (ascending
    per node), found when validated (or as the caller passed them to from_samples).
    """

    kind: str
    dim: int
    schatten_p: float = 1.0
    fourier: Optional[np.ndarray] = None
    grid: Optional[CircleGrid] = None
    values: Optional[np.ndarray] = None
    eigenvalues: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.schatten_p >= 1:  # NaN fails too
            raise ValueError(f"Schatten index schatten_p must be >= 1, got {self.schatten_p}")
        if self.dim < 1:
            raise ValueError("weight dimension must be at least 1")
        if self.kind == "fourier":
            if self.fourier is None:
                raise ValueError("Fourier-form weight needs coefficients")
            if self.eigenvalues is not None:
                raise ValueError("only a sampled weight carries eigenvalues")
            coeffs = np.asarray(self.fourier, dtype=complex)
            if coeffs.ndim != 3 or coeffs.shape[1:] != (self.dim, self.dim):
                raise ValueError("Fourier data must have shape (d+1, k, k)")
            zero = coeffs[0]
            if np.abs(zero - adjoint(zero)).max() > HERMITIAN_TOL:
                raise ValueError("zeroth Fourier coefficient must be Hermitian")
            coeffs = coeffs.copy()
            coeffs[0] = hermitian_part(zero)
            object.__setattr__(self, "fourier", coeffs)
            # synthesizing on the natural grid validates positivity up front
            self.samples_on(self.natural_grid())
        elif self.kind == "samples":
            if self.grid is None or self.values is None:
                raise ValueError("sampled weight needs a grid and values")
            cleaned, lam = _clean_psd_samples(self.values, self.eigenvalues)
            if cleaned.shape[0] != self.grid.size:
                raise ValueError("sample count must match the grid size")
            if cleaned.shape[1] != self.dim:
                raise ValueError("sample dimension must match the declared dim")
            object.__setattr__(self, "values", cleaned)
            object.__setattr__(self, "eigenvalues", lam)
        else:
            raise ValueError("weight kind must be 'fourier' or 'samples'")

    @classmethod
    def from_fourier(cls, coeffs, schatten_p: float = 1.0) -> "MatrixWeight":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None, None]
        return cls(kind="fourier", dim=coeffs.shape[1], schatten_p=schatten_p, fourier=coeffs)

    @classmethod
    def from_samples(cls, values, grid: Optional[CircleGrid] = None,
                     schatten_p: float = 1.0,
                     eigenvalues: Optional[np.ndarray] = None) -> "MatrixWeight":
        """A sampled weight; eigenvalues, when given, are those of the
        Hermitian part of each sample (ascending), and are not solved again."""
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None, None]
        if grid is None:
            grid = CircleGrid(values.shape[0])
        return cls(kind="samples", dim=values.shape[1], schatten_p=schatten_p,
                   grid=grid, values=values, eigenvalues=eigenvalues)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Analytic Fourier coefficients W(0..d), computed once; W(-n) = W(n)*.

        Sampled weights take the orders 0..M/2-1 of their trigonometric
        interpolant, trimmed of trailing negligible orders.
        """
        if self.kind == "fourier":
            return self.fourier
        return _trimmed_coefficients(self.values)

    @property
    def degree(self) -> int:
        """Trigonometric degree of the coefficient list."""
        return self.coefficients.shape[0] - 1

    def natural_grid(self) -> CircleGrid:
        """Default realization grid: four times the degree grid, at least 64
        nodes, keeps aliasing below the test tolerances."""
        if self.kind == "samples":
            return self.grid
        return CircleGrid(4 * degree_grid(self.degree, 16))

    def samples_on(self, grid: CircleGrid) -> np.ndarray:
        """Realize the weight as (M, k, k) PSD samples on the given grid.

        Sampled form on its own grid or a coarser (dyadic) one: the stored
        samples at the shared nodes.  Otherwise the series of `coefficients`
        by one inverse FFT (the band-limited interpolant, orders |n| < M0/2,
        for sampled form); the grid must have at least 2(d + 1) nodes.
        """
        return self._psd_samples(grid)[0]

    def field_on(self, grid: CircleGrid) -> MatrixSampleField:
        """samples_on as a field that also carries their eigenvalues."""
        values, lam = self._psd_samples(grid)
        return MatrixSampleField(grid, values, eigenvalues=lam)

    def check_grid(self, grid: CircleGrid) -> None:
        """Refuse a grid that samples_on cannot realize the weight on, naming
        the degree grid (circle.degree_grid) that holds it."""
        if self.kind == "samples" and grid.size <= self.grid.size:
            return
        needed = degree_grid(self.degree, 16)
        if grid.size < needed:
            raise ValueError(f"grid of {grid.size} nodes is too coarse for degree "
                             f"{self.degree}: needs {needed}")

    def _psd_samples(self, grid: CircleGrid):
        """(samples, eigenvalues) on the grid, validated by _clean_psd_samples
        or read from the stored samples."""
        if self.kind == "samples" and grid.size <= self.grid.size:
            step = self.grid.size // grid.size
            return self.values[::step].copy(), self.eigenvalues[::step].copy()
        self.check_grid(grid)
        return _clean_psd_samples(self._realize(synthesize_series, grid))

    def value_at(self, theta) -> np.ndarray:
        """The series at arbitrary angles by Horner, O(len(theta) * d): the exact
        series in Fourier form, the band-limited interpolant in sampled form."""
        return self._realize(evaluate_series, np.exp(1j * np.asarray(theta, dtype=float)))

    def _realize(self, series_fn, where) -> np.ndarray:
        """w = W(0) + T + T* with T = sum_{n>=1} W(n) z^n summed by series_fn
        (evaluate_series by Horner at points, synthesize_series by FFT on a grid)."""
        tail = self.coefficients.copy()
        tail[0] = 0.0
        t = series_fn(tail, where)
        return hermitian_part(self.coefficients[0] + t + adjoint(t))

    def scaled(self, factor: float) -> "MatrixWeight":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        if self.kind == "fourier":
            return MatrixWeight(kind="fourier", dim=self.dim, schatten_p=self.schatten_p,
                                fourier=self.fourier * factor)
        # c * lam is the spectrum of c * W for c >= 0, in the same order
        return MatrixWeight(kind="samples", dim=self.dim, schatten_p=self.schatten_p,
                            grid=self.grid, values=self.values * factor,
                            eigenvalues=self.eigenvalues * factor)


def _mean_norm(w: MatrixWeight) -> float:
    samples = w.samples_on(w.natural_grid())
    if w.dim == 1:
        return float(np.abs(samples[:, 0, 0]).mean())
    # singular values, largest first
    s = np.linalg.svd(samples, compute_uv=False)
    p = w.schatten_p
    if p <= 2:
        # s^p stays finite for every sample below 1e154
        norms = (s ** p).sum(axis=1) ** (1.0 / p)
    else:
        # the largest singular value taken out first, so that s^p neither
        # overflows nor underflows to zero; at p = inf the sum reads 1
        top = s[:, 0]
        ratio = s / np.where(top > 0.0, top, 1.0)[:, None]
        norms = top * (ratio ** p).sum(axis=1) ** (1.0 / p)
    return float(norms.mean())


def _unit_scale(w: MatrixWeight) -> float:
    """The factor that scales the circle mean of the pointwise norm to one."""
    mean_norm = _mean_norm(w)
    if mean_norm <= VANISH_TOL:
        raise ValueError("degenerate weight")
    return 1.0 / mean_norm


def normalize(w: MatrixWeight) -> MatrixWeight:
    """Scale so the circle mean of the pointwise Schatten-p norm equals one."""
    return w.scaled(_unit_scale(w))


def moment_zero(w: MatrixWeight) -> np.ndarray:
    """Circle mean of the weight: a Hermitian PSD contraction for normalized input."""
    mean = hermitian_part(circle_mean(w.field_on(w.natural_grid())))
    lam, vec = np.linalg.eigh(mean)
    if lam.max(initial=0.0) > 1.0 + 1e-6:
        raise ValueError("normalization violated")
    return psd_rebuild(vec, np.clip(lam, 0.0, 1.0))


FIXTURE_NAMES = ("W_CONST", "W_COS", "W_DIAG", "W_RANK1")


def fixture(name: str) -> MatrixWeight:
    """Canonical normalized test weights used across the suite."""
    if name == "W_CONST":
        return MatrixWeight.from_fourier(np.array([1.0])[:, None, None])
    if name == "W_COS":
        return MatrixWeight.from_fourier(np.array([1.0, 0.5])[:, None, None])
    if name == "W_DIAG":
        coeffs = np.zeros((1, 2, 2), dtype=complex)
        coeffs[0] = np.diag([0.6, 0.8])
        return MatrixWeight.from_fourier(coeffs, schatten_p=2.0)
    if name == "W_RANK1":
        coeffs = np.zeros((2, 2, 2), dtype=complex)
        coeffs[0] = np.diag([1.0, 0.0])
        coeffs[1] = np.diag([0.5, 0.0])
        return MatrixWeight.from_fourier(coeffs)
    raise ValueError(f"unknown fixture {name!r}")


def random_polynomial_weight(rng: np.random.Generator, dim: int,
                             half_degree: int = 2, schatten_p: float = 1.0) -> MatrixWeight:
    """Random normalized weight Q(theta)* Q(theta), Q a matrix polynomial of
    degree half_degree, so the weight has degree half_degree.

    PSD by construction; the Fourier coefficients of Q*Q (orders
    0..half_degree) are assembled directly so the weight stays in exact
    Fourier form.
    """
    q = rng.standard_normal((half_degree + 1, dim, dim)) \
        + 1j * rng.standard_normal((half_degree + 1, dim, dim))
    coeffs = np.zeros((half_degree + 1, dim, dim), dtype=complex)
    for m in range(half_degree + 1):
        for n in range(0, half_degree + 1 - m):
            coeffs[m] += q[n].conj().T @ q[n + m]
    w = MatrixWeight.from_fourier(coeffs, schatten_p=schatten_p)
    return normalize(w)


def weight_spec_document(w: MatrixWeight) -> dict:
    """The JSON-serializable weight spec document."""
    doc: dict = {"dim": w.dim, "schatten_p": w.schatten_p, "kind": w.kind}
    if w.kind == "fourier":
        doc["data"] = [
            {"n": n, "real": w.fourier[n].real.tolist(), "imag": w.fourier[n].imag.tolist()}
            for n in range(w.fourier.shape[0])
        ]
    else:
        doc["data"] = [
            {"real": sample.real.tolist(), "imag": sample.imag.tolist()}
            for sample in w.values
        ]
    return doc


def save_weight_spec(w: MatrixWeight, path) -> None:
    """Write the structured-text weight spec (JSON)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(weight_spec_document(w), fh, indent=1)
        fh.write("\n")


# the types json gives a JSON number (true and false load as bool, not a number)
_NUMBER_TYPES = {int, float}


def _number(value, convert, what: str):
    """convert(value) of a JSON number, or a ValueError naming the spec field
    (a JSON string or true/false is not a number; int() of an infinite one
    overflows)."""
    if type(value) in _NUMBER_TYPES:
        try:
            return convert(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"weight spec {what} must be a number, got {json.dumps(value)}")


def _integer(value, what: str) -> int:
    """_number(value, int, what), refusing a fraction that int() would cut."""
    number = _number(value, int, what)
    if isinstance(value, float) and number != value:
        raise ValueError(f"weight spec {what} must be an integer, got {json.dumps(value)}")
    return number


def _number_array(value) -> Optional[np.ndarray]:
    """value, a regular nesting of lists of JSON numbers, as one float array
    by one conversion, then one pass over the element types (float() also
    reads a string, a bool or null); None when it is ragged, holds anything
    but numbers or an integer beyond double range."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    elements = [value]
    for _ in range(array.ndim):
        elements = chain.from_iterable(elements)
    return array if set(map(type, elements)) <= _NUMBER_TYPES else None


def _matrix_parts(entries: list, dim: int):
    """(real, imag, fault) of the entries' matrices, each part one
    _number_array conversion; an absent or null imag is 0.  fault is "" when
    both parts are finite (len(entries), dim, dim) stacks, else what fails."""
    shape = (len(entries), dim, dim)
    imags = [entry["imag"] for entry in entries if entry.get("imag") is not None]
    real = _number_array([entry.get("real") for entry in entries])
    imag = _number_array(imags) if imags else np.zeros(shape)
    if real is None or imag is None or not real.shape == imag.shape == shape:
        return None, None, f"must be a {dim}x{dim} real/imag matrix pair"
    if not (np.isfinite(real).all() and np.isfinite(imag).all()):
        return None, None, "must be finite"
    return real, imag, ""


def _matrix_stack(data: list, dim: int, names) -> np.ndarray:
    """The (len(data), dim, dim) stack of the entries' real (and optional
    imag) matrices by one _matrix_parts conversion.  When that fails, the
    same conversion runs entry by entry, in order: it names the first faulty
    entry, or stacks entries that only mix imag-less and imag-carrying ones.
    names is read in step with that loop alone, so a name may check its
    entry first."""
    real, imag, fault = _matrix_parts(data, dim)
    if fault:
        parts = []
        for entry, name in zip(data, names):
            *part, fault = _matrix_parts([entry], dim)
            if fault:
                raise ValueError(f"{name} {fault}")
            parts.append(part)
        real, imag = map(np.concatenate, zip(*parts))
    return real + 1j * imag


def _fourier_order(entry: dict) -> int:
    """The entry's order n, an integer in 0..MAX_ORDER."""
    if "n" not in entry:
        raise ValueError("Fourier entries need an order field 'n'")
    order = _integer(entry["n"], "order n")
    if order < 0:
        raise ValueError("Fourier entries carry n >= 0 only")
    if order > MAX_ORDER:
        raise ValueError(f"Fourier order n={order} is above {MAX_ORDER}, "
                         f"the largest order a {MAX_GRID}-node grid resolves")
    return order


def load_weight_spec(path) -> MatrixWeight:
    """Read and validate a weight spec; raises ValueError on malformed input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"weight spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("weight spec must be a JSON object")
    try:
        dim = _integer(doc["dim"], "dim")
        kind = doc["kind"]
        data = doc["data"]
    except KeyError as exc:
        raise ValueError(f"weight spec missing field {exc}") from exc
    if dim < 1:
        raise ValueError("weight spec dim must be >= 1")
    schatten_p = _number(doc.get("schatten_p", 1.0), float, "schatten_p")
    if not isinstance(data, list) or not data:
        raise ValueError("weight spec data must be a non-empty list")
    if not all(isinstance(entry, dict) for entry in data):
        raise ValueError("weight spec data entries must be JSON objects")
    if kind == "fourier":
        # every entry is checked before the coefficient stack exists, its n first
        names = (f"coefficient n={_fourier_order(entry)}" for entry in data)
        blocks = _matrix_stack(data, dim, names)
        orders = [_fourier_order(entry) for entry in data]
        coeffs = np.zeros((max(orders) + 1, dim, dim), dtype=complex)
        for order, block in zip(orders, blocks):  # a repeated order: the last wins
            coeffs[order] = block
        return MatrixWeight.from_fourier(coeffs, schatten_p=schatten_p)
    if kind == "samples":
        names = (f"sample {i}" for i in range(len(data)))
        return MatrixWeight.from_samples(_matrix_stack(data, dim, names), schatten_p=schatten_p)
    raise ValueError("weight spec kind must be 'fourier' or 'samples'")
