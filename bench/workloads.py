"""Seeded inputs and the operation lists of the four benchmark workloads.

Every weight spec and sample file is generated here, from the workload seed,
into the run's scratch directory; the program under test receives only argv
and those files.  Nothing here imports the library: the weights are built
from their own closed forms, which the oracle checks reuse.

Workloads (all closed loop, one client):

construct  `construct` at M = 8192 on W_COS, W_RANK1 and seeded Fourier
           weights with k = 1, 2, 4, plus k = 4 at M = 4096.
verify     `verify --fixtures` at the suite's default seed, plus a probe: the
           suite at a seed on which one of its checks fails today.
model      `model-check` on W_COS (modes 64..1024) and on a seeded k = 2
           Fourier weight (modes 64..256).
sampled    the same entry points on inputs of kind "samples", plus failure
           probes: valid inputs that the program rejects today.  Probes run
           outside the timed window and never count in wall_s, so the change
           that fixes them is not charged for work that used to abort.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import oracle

# trigonometric degree 8 = Q*Q with Q of degree 4, as in the library's
# random_polynomial_weight
HALF_DEGREE = 4
# Poisson radius of the smooth non-band-limited weights: its Fourier tail at
# order 512 is ~1e-13, so the Herglotz degree of 1024 samples reaches M/2 while
# the Nyquist coefficient stays below the library's Hermitian tolerance
POISSON_R = 0.945
SCALAR_POISSON_R = 0.9
# a suite seed on which hardy.projection_vs_quadrature[W_RANK1] reads 2.05e-4
# against its tolerance of 200/M^2 = 1.91e-4 (its random test function has
# three poles, at radii 1.63, 1.66 and 0.33)
VERIFY_FAILING_SEED = 502245490


@dataclass
class Operation:
    """One CLI call and the oracle that judges its output."""

    name: str
    argv: List[str]
    outputs: List[str]
    check: Callable[[], oracle.Outcome]


@dataclass
class Workload:
    ops: List[Operation]
    probes: List[Operation]


# -- weight generators -----------------------------------------------------------

def fourier_weight(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Coefficients (orders 0..8) of Q(theta)* Q(theta), Q a random matrix
    polynomial of degree 4: PSD by construction."""
    q = rng.standard_normal((HALF_DEGREE + 1, dim, dim)) \
        + 1j * rng.standard_normal((HALF_DEGREE + 1, dim, dim))
    coeffs = np.zeros((2 * HALF_DEGREE + 1, dim, dim), dtype=complex)
    for m in range(2 * HALF_DEGREE + 1):
        for n in range(HALF_DEGREE + 1 - m):
            coeffs[m] += q[n].conj().T @ q[n + m]
    return coeffs / np.trace(coeffs[0]).real


def fourier_samples(coeffs: np.ndarray, size: int) -> np.ndarray:
    nodes = 2.0 * np.pi * np.arange(size) / size
    phases = np.exp(1j * np.outer(nodes, np.arange(1, coeffs.shape[0])))
    tail = np.einsum("mn,nij->mij", phases, coeffs[1:])
    values = coeffs[0] + tail + np.conj(np.swapaxes(tail, -1, -2))
    return 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))


def poisson(r: float, theta: np.ndarray) -> np.ndarray:
    return (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(theta) + r * r)


def smooth_samples(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    """A + sum_j b_j P_r(theta - phi_j) v_j v_j*: smooth, positive definite,
    and not band-limited (Fourier coefficients decay like r^n)."""
    nodes = 2.0 * np.pi * np.arange(size) / size
    base = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    values = np.broadcast_to(0.1 * base @ base.conj().T / dim + 0.2 * np.eye(dim),
                             (size, dim, dim)).astype(complex)
    for _ in range(dim):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        bump = rng.uniform(0.5, 1.5) * poisson(POISSON_R, nodes - rng.uniform(0, 2 * np.pi))
        values = values + bump[:, None, None] * np.outer(v, v.conj())
    return 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))


# -- spec files ------------------------------------------------------------------

def _matrix_entry(a: np.ndarray) -> dict:
    return {"real": a.real.tolist(), "imag": a.imag.tolist()}


def write_fourier_spec(path: str, coeffs: np.ndarray) -> None:
    doc = {"dim": coeffs.shape[1], "schatten_p": 1.0, "kind": "fourier",
           "data": [dict(n=n, **_matrix_entry(c)) for n, c in enumerate(coeffs)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def write_samples_spec(path: str, samples: np.ndarray) -> None:
    doc = {"dim": samples.shape[1], "schatten_p": 1.0, "kind": "samples",
           "data": [_matrix_entry(s) for s in samples]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def sample_coefficients(samples: np.ndarray) -> np.ndarray:
    """Orders 0..M/2-1 of the trigonometric interpolant: the meaning the
    weight-spec format gives to samples."""
    m = samples.shape[0]
    return (np.fft.fft(samples, axis=0) / m)[: m // 2]


# -- workloads -------------------------------------------------------------------

def _construct_op(work: str, name: str, source: List[str], size: int,
                  check) -> Operation:
    out = os.path.join(work, f"{name}.csv")
    return Operation(name, ["construct", *source, "-M", str(size), "-o", out],
                     [out], lambda: check(out))


def _fourier_construct(work, name, path, coeffs, size):
    return _construct_op(work, name, ["--weight-spec", path], size,
                         lambda out: oracle.construct_reconstruction(out, coeffs, size))


def _construct(seed: int, work: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = [
        _construct_op(work, "W_COS.M8192", ["--fixture", "W_COS"], 8192,
                      lambda out: oracle.construct_closed_form(
                          out, np.array([[0.5]]), 8192)),
        _construct_op(work, "W_RANK1.M8192", ["--fixture", "W_RANK1"], 8192,
                      lambda out: oracle.construct_closed_form(
                          out, np.diag([0.5, 0.0]), 8192)),
    ]
    for k in (1, 2, 4):
        coeffs = fourier_weight(rng, k)
        path = os.path.join(work, f"fourier_k{k}.json")
        write_fourier_spec(path, coeffs)
        ops.append(_fourier_construct(work, f"fourier_k{k}.M8192", path, coeffs, 8192))
    ops.append(_fourier_construct(work, "fourier_k4.M4096", path, coeffs, 4096))
    return Workload(ops, [])


def _verify(seed: int, work: str) -> Workload:
    # The suite draws its random test functions from its own seed, and on some
    # seeds a check misses its tolerance: the timed pass runs the suite at the
    # program's default seed, and a seed known to fail stays visible as a probe.
    out = os.path.join(work, "report.txt")
    op = Operation("fixtures", ["verify", "--fixtures", "-o", out],
                   [out], lambda: oracle.verify_report(out, closed_form=True))
    probe_out = os.path.join(work, "probe_report.txt")
    probe = Operation(f"fixtures.seed{VERIFY_FAILING_SEED}",
                      ["verify", "--fixtures", "--seed", str(VERIFY_FAILING_SEED),
                       "-o", probe_out],
                      [probe_out], lambda: oracle.verify_report(probe_out))
    return Workload([op], [probe])


def _model(seed: int, work: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    cos_out = os.path.join(work, "model_cos.csv")
    cos_modes = [64, 128, 256, 512, 1024]
    rand_out = os.path.join(work, "model_k2.csv")
    rand_modes = [64, 128, 256]
    path = os.path.join(work, "fourier_k2.json")
    write_fourier_spec(path, fourier_weight(rng, 2))
    ops = [
        Operation("W_COS.modes64-1024",
                  ["model-check", "--fixture", "W_COS", "--modes",
                   *map(str, cos_modes), "-o", cos_out],
                  [cos_out], lambda: oracle.model_table(cos_out, cos_modes, 1)),
        Operation("fourier_k2.modes64-256",
                  ["model-check", "--weight-spec", path, "--modes",
                   *map(str, rand_modes), "-o", rand_out],
                  [rand_out], lambda: oracle.model_table(rand_out, rand_modes, 2)),
    ]
    return Workload(ops, [])


def _sampled(seed: int, work: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for k in (1, 3):
        samples = smooth_samples(rng, k, 1024)
        path = os.path.join(work, f"smooth_k{k}.json")
        write_samples_spec(path, samples)
        ops.append(_fourier_construct(work, f"smooth_k{k}.M8192", path,
                                      sample_coefficients(samples), 8192))
    band_k4 = os.path.join(work, "band_k4.json")
    samples = fourier_samples(fourier_weight(rng, 4), 1024)
    write_samples_spec(band_k4, samples)
    ops.append(_fourier_construct(work, "band_k4.M4096", band_k4,
                                  sample_coefficients(samples), 4096))

    nodes = 2.0 * np.pi * np.arange(4096) / 4096
    v0 = 1.0 / (rng.uniform(0.3, 1.0)
                + poisson(SCALAR_POISSON_R, nodes - rng.uniform(0, 2 * np.pi)))
    scalar_in = os.path.join(work, "scalar_samples.json")
    with open(scalar_in, "w", encoding="utf-8") as fh:
        json.dump(v0.tolist(), fh)
    scalar_out = os.path.join(work, "scalar.csv")
    ops.append(Operation("scalar.samples4096",
                         ["scalar", "--samples", scalar_in, "-o", scalar_out],
                         [scalar_out], lambda: oracle.scalar_reconstruction(scalar_out, v0)))

    band_k3 = os.path.join(work, "band_k3_64.json")
    write_samples_spec(band_k3, fourier_samples(fourier_weight(rng, 3), 64))
    report = os.path.join(work, "report_k3_64.txt")
    ops.append(Operation("verify.band_k3.samples64",
                         ["verify", "--weight-spec", band_k3, "-o", report],
                         [report], lambda: oracle.verify_report(report)))

    band_k2 = os.path.join(work, "band_k2_256.json")
    write_samples_spec(band_k2, fourier_samples(fourier_weight(rng, 2), 256))
    # step weight, 1 on [0, pi) and 0.1 elsewhere: 256 valid PSD samples whose
    # trigonometric upsampling overshoots below zero
    step = os.path.join(work, "step_256.json")
    theta = 2.0 * np.pi * np.arange(256) / 256
    write_samples_spec(step, np.where(theta < np.pi, 1.0, 0.1)[:, None, None]
                       .astype(complex))
    probes = []
    for name, spec in (("verify.band_k2.samples256", band_k2),
                       ("verify.band_k4.samples1024", band_k4)):
        out = os.path.join(work, f"probe_{name}.txt")
        probes.append(Operation(name, ["verify", "--weight-spec", spec, "-o", out],
                                [out], lambda out=out: oracle.verify_report(out)))
    step_out = os.path.join(work, "probe_step.csv")
    probes.append(Operation("construct.step.M1024",
                            ["construct", "--weight-spec", step, "-M", "1024",
                             "-o", step_out],
                            [step_out], lambda: oracle.construct_sane(step_out, 1024)))
    return Workload(ops, probes)


def build(name: str, seed: int, work: str) -> Workload:
    """Write the workload's inputs under `work` and return its operations."""
    return {"construct": _construct, "verify": _verify,
            "model": _model, "sampled": _sampled}[name](seed, work)
