"""Oracle checks on the program's output files, run outside the timed window.

The checks never import the library.  They rebuild what they need from the
weight's own Fourier data:

- W_COS and W_RANK1 have closed-form companions (1/2 and diag(1/2, 0)) off
  the flagged nodes, and a deficit of 0.5 within 5/M;
- every other `construct` (and `scalar`) output must satisfy the
  reconstruction identity w0 = D0+* w1 D0+ at unflagged nodes where
  cond(D0+) <= 1e6, with D0+ = alpha + i(W0 + 2 sum_n Wn e^{in theta});
- `model-check` tables are judged by their largest cross-validation error
  and by the spectral mass, which must equal Tr GG* = 1;
- `verify` reports are judged by their status; on the fixture suite the
  closed-form companion entries give the accuracy.

An Outcome's `error` is the worst error against the oracle, or None where
the output carries no such number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

CLOSED_FORM_TOL = 1e-8    # gate 01/02
RECONSTRUCTION_TOL = 1e-6  # gate 08
COND_LIMIT = 1e6
XVAL_TOL = 1e-8
MASS_TOL = 1e-10          # gate 09
SNAP_ONE = 1e-12


@dataclass
class Outcome:
    ok: bool
    error: Optional[float]
    detail: str


def _read_csv(path: str):
    """(header dict, column names, data rows as lists of strings)."""
    header = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        else:
            body.append(line)
    return header, body[0].split(","), [row.split(",") for row in body[1:]]


def _companion_table(path: str, size: int):
    """Header, flags and w1 of shape (M, k, k) from a construct table."""
    header, cols, rows = _read_csv(path)
    k = int(header["dim"])
    if int(header["grid-size"]) != size or len(rows) != size:
        raise ValueError(f"expected {size} rows, found {len(rows)}")
    data = np.array(rows, dtype=float)
    # cond(D0+) is legitimately infinite at an atom; everything else is finite
    if data.shape[1] != 3 + 2 * k * k or not np.all(np.isfinite(np.delete(data, 2, axis=1))):
        raise ValueError("malformed or non-finite companion table")
    flags = data[:, cols.index("flag")] != 0
    w1 = (data[:, 3::2] + 1j * data[:, 4::2]).reshape(size, k, k)
    return header, flags, w1


def _boundary_data(coeffs: np.ndarray, size: int):
    """w0 and D0+ on `size` nodes from orders 0..d of a weight, after the
    p = 1 normalization (mean trace one) that the program applies."""
    coeffs = coeffs / np.trace(coeffs[0]).real
    k = coeffs.shape[1]
    spec = np.zeros((size, k, k), dtype=complex)
    spec[1:coeffs.shape[0]] = coeffs[1:]
    tail = np.fft.ifft(spec, axis=0) * size
    w0 = coeffs[0] + tail + np.conj(np.swapaxes(tail, -1, -2))
    lam, vec = np.linalg.eigh(0.5 * (coeffs[0] + coeffs[0].conj().T))
    lam = np.where(np.abs(lam - 1.0) <= SNAP_ONE, 1.0, lam)
    alpha = (vec * np.sqrt(np.clip(1.0 - lam ** 2, 0.0, 1.0))) @ vec.conj().T
    return w0, alpha + 1j * (coeffs[0] + 2.0 * tail)


def _reconstruction_error(w0, d0, w1, flags) -> float:
    s = np.linalg.svd(d0, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = np.maximum(1.0, s[:, 0]) / s[:, -1]
    usable = ~flags & (cond <= COND_LIMIT)
    if not usable.any():
        raise ValueError("no usable node for the reconstruction check")
    rebuilt = np.conj(np.swapaxes(d0, -1, -2)) @ w1 @ d0
    diff = np.linalg.norm(w0 - rebuilt, 2, axis=(-2, -1))[usable].max()
    return float(diff / np.linalg.norm(w0, 2, axis=(-2, -1)).max())


def _guard(check):
    def run(*args, **kwargs) -> Outcome:
        try:
            return check(*args, **kwargs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Outcome(False, None, f"unreadable output: {exc}")
    return run


@_guard
def construct_closed_form(path: str, closed: np.ndarray, size: int) -> Outcome:
    header, flags, w1 = _companion_table(path, size)
    error = float(np.abs(w1[~flags] - closed).max())
    deficit = float(header["deficit"])
    deficit_ok = abs(deficit - 0.5) <= 5.0 / size + 1e-10
    ok = error <= CLOSED_FORM_TOL and deficit_ok
    return Outcome(ok, error, f"closed-form error {error:.3e}, deficit {deficit:.6f}")


@_guard
def construct_reconstruction(path: str, coeffs: np.ndarray, size: int) -> Outcome:
    _, flags, w1 = _companion_table(path, size)
    w0, d0 = _boundary_data(coeffs, size)
    error = _reconstruction_error(w0, d0, w1, flags)
    return Outcome(error <= RECONSTRUCTION_TOL, error,
                   f"reconstruction residual {error:.3e}")


@_guard
def construct_sane(path: str, size: int) -> Outcome:
    """A weight with no closed form: a finite table, and a negative deficit
    only where some node is flagged."""
    header, flags, _ = _companion_table(path, size)
    deficit = float(header["deficit"])
    ok = deficit >= -1e-8 or bool(flags.any())
    return Outcome(ok, None, f"deficit {deficit:.3e}, {int(flags.sum())} flagged")


@_guard
def scalar_reconstruction(path: str, v0: np.ndarray) -> Outcome:
    """v1 = c u1 with u = c / v0 normalized: check u = |D0+|^2 u1."""
    _, _, rows = _read_csv(path)
    data = np.array(rows, dtype=float)
    if data.shape != (v0.size, 4) or not np.all(np.isfinite(data)):
        raise ValueError("malformed or non-finite scalar table")
    if np.abs(data[:, 1] - v0).max() > 1e-14 * np.abs(v0).max():
        return Outcome(False, None, "v0 column differs from the input samples")
    c = 1.0 / np.mean(1.0 / v0)
    u = c / v0
    w0, d0 = _boundary_data(np.fft.fft(u)[: u.size // 2, None, None] / u.size, u.size)
    w1 = (data[:, 2] / c)[:, None, None].astype(complex)
    error = _reconstruction_error(w0, d0, w1, data[:, 3] != 0)
    return Outcome(error <= RECONSTRUCTION_TOL, error,
                   f"reconstruction residual {error:.3e}")


@_guard
def model_table(path: str, sizes, dim: int) -> Outcome:
    header, _, rows = _read_csv(path)
    xval = np.array([float(r[4]) for r in rows if r[0] == "xval"])
    if xval.size != 3 * len(sizes) or not np.all(np.isfinite(xval)):
        raise ValueError("missing cross-validation rows")
    worst_mass = 0.0
    for size in sizes:
        masses = [float(r[4]) for r in rows if r[0] == "spectral" and int(r[1]) == size]
        if len(masses) != size * dim:
            raise ValueError(f"expected {size * dim} spectral rows at size {size}")
        reported = float(header[f"spectral-trace[{size}]"])
        worst_mass = max(worst_mass, abs(sum(masses) - 1.0), abs(reported - 1.0))
    error = float(xval.max())
    ok = error <= XVAL_TOL and worst_mass <= MASS_TOL
    return Outcome(ok, error,
                   f"largest xval error {error:.3e}, spectral mass error {worst_mass:.3e}")


@_guard
def verify_report(path: str, closed_form: bool = False) -> Outcome:
    """Report status; with closed_form, the accuracy is the largest
    debranges.companion_closed_form value (w1 against its closed form)."""
    entries = {}
    status = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("status="):
                status = line.strip().split("=", 1)[1]
            elif line.startswith("check="):
                fields = dict(p.split("=", 1) for p in line.split())
                entries[fields["check"]] = (fields["status"], float(fields["value"]))
    failed = [name for name, (st, _) in entries.items() if st != "pass"]
    ok = status == "pass" and entries and not failed
    error = None
    if closed_form:
        values = [v for name, (_, v) in entries.items()
                  if name.startswith("debranges.companion_closed_form[")]
        if not values:
            raise ValueError("no closed-form entries in the fixture report")
        error = max(values)
    return Outcome(bool(ok), error,
                   f"status {status}, {len(entries)} checks, {len(failed)} failed")
