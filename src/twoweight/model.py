"""Finite quadrature model of the scattering construction.

Everything here is an independent oracle: the model is the exact scattering
data of the discrete measure (1/M) sum w0(theta_m) delta_m, so its psi1
cross-validates the algebraic route without sharing any code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .circle import CircleGrid, TWO_PI
from .debranges import DeBrangesSystem
from .weights import MatrixWeight, psd_rebuild, psd_sqrt

BUILD_CAP = 1 << 16
SNAP_ONE = 1e-12
TRUNCATION_BAND = 0.05
CLUSTER = 1e-9
# sin(half), or an eigenvalue of a node's weight Q_m, at or below DEFLATE
# couples nothing; it moves an eigenvalue or a mass by about that much
DEFLATE = 1e-15
SECULAR_STEPS = 200
# a Newton pass evaluates its roots in chunks whose Taylor rows
# (TAYLOR_TERMS + 1 rows of r^2 parameters per root) take at most this many
# bytes; every step is per root, so the chunks do not move a bit
GATHER_BYTES = 1 << 22
# the secular sums are tabulated on a grid OVERSAMPLE times finer than the
# nodes; from there a Taylor series in (n - M/2) x/M with |x| <= pi/2 needs
# TAYLOR_TERMS terms for (pi/4)^p/p! to fall below 1e-17
OVERSAMPLE = 2
TAYLOR_TERMS = 18
# (sin y - y cos y)/y^3 = sum_{k>=1} (-1)^(k+1) 2k y^(2k-2) / (2k+1)! in
# powers of y^2, highest first; at |y| <= pi/4 the first term left out is
# below 1e-23
SIN_MINUS_Y_COS = np.array([(-1.0) ** (k + 1) * 2 * k / math.factorial(2 * k + 1)
                            for k in range(10, 0, -1)])


@dataclass(frozen=True)
class TruncatedModel:
    """Discrete realization (H, U0, G, Theta, U1) on M quadrature nodes.

    U0 (multiplication by e^{i theta_m} on each node's k-dim fibre) is kept as
    its diagonal `phases`, and the rank-k Theta = V diag(2 half) V* as its
    factors: `v` (right singular vectors of G) and `half` (arcsin of the
    squared singular values).  Nothing of size Mk x Mk is stored.  The dense
    u1 = e^{i Theta/2} U0 e^{i Theta/2} is formed only when read; it is the
    tests' reference, and no route of the package reads it.

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

    @property
    def gg_star(self) -> np.ndarray:
        return self.g @ self.g.conj().T

    @cached_property
    def u1(self) -> np.ndarray:
        # e^{i Theta/2} = I + V (e^{i half} - 1) V*, and E U0 = E * phases
        n = self.size * self.dim
        exp_half = np.eye(n, dtype=complex) \
            + (self.v * (np.exp(1j * self.half) - 1.0)) @ self.v.conj().T
        return (exp_half * self.phases) @ exp_half


def build_model(w0: MatrixWeight, size: int) -> TruncatedModel:
    """Assemble the model on `size` nodes (a CircleGrid size), M*k <= 65536."""
    grid = CircleGrid(size)
    k = w0.dim
    if size * k > BUILD_CAP:
        raise ValueError(f"model size cap exceeded: M*k = {size * k} > {BUILD_CAP}")
    roots = psd_sqrt(w0.samples_on(grid))
    # column block m of G is the node's square root w0(theta_m)^{1/2} / sqrt(M)
    g = np.swapaxes(roots, 0, 1).reshape(k, size * k) / np.sqrt(size)
    phases = np.repeat(grid.points, k)

    _, s, vh = np.linalg.svd(g, full_matrices=False)
    v = vh.conj().T
    s2 = np.clip(s ** 2, 0.0, 1.0)
    s2 = np.where(np.abs(s2 - 1.0) <= SNAP_ONE, 1.0, s2)
    return TruncatedModel(size=size, dim=k, nodes=grid.nodes, phases=phases, g=g,
                          v=v, half=np.arcsin(s2))


def psi_direct(model: TruncatedModel, j: int, z: complex) -> np.ndarray:
    """i G (U_j + z)(U_j - z)^-1 G*: diagonal for U0, a k x k Woodbury solve
    for U1 through the factors of Theta."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    z = complex(z)
    if abs(1.0 - abs(z)) < TRUNCATION_BAND:
        raise ValueError("z inside the truncation-inaccuracy band around the circle")
    if j == 0:
        cayley = (model.phases + z) / (model.phases - z)
        return 1j * ((model.g * cayley) @ model.g.conj().T)
    # U1 - z = E (U0 - z E^-2) E with E^-2 = I + V C V*, C = e^{-2i half} - 1,
    # and G E^-1 = U s e^{-i half} V*; with R = V*(U0 - z)^-1 V,
    # G (U1 - z)^-1 G* = U s e^{-i half} (I - z R C)^-1 R e^{-i half} s U*
    v, k = model.v, model.dim
    us = model.g @ v
    rot = np.exp(-1j * model.half)
    r = v.conj().T @ (v / (model.phases - z)[:, None])
    c = np.exp(-2j * model.half) - 1.0
    x = np.linalg.solve(np.eye(k) - z * r * c, r)
    inner = (us * rot) @ x @ (rot[:, None] * us.conj().T)
    return 1j * (model.gg_star + 2.0 * z * inner)


def _model_alpha(gg: np.ndarray) -> np.ndarray:
    # snap eigenvalues that rounded to just below 1, as in the weight-side
    # construction; sqrt(1 - lam^2) amplifies that rounding to ~1e-8 otherwise
    lam, vec = np.linalg.eigh(gg)
    lam = np.where(lam > 1.0 - SNAP_ONE, 1.0, lam)
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


def unitarity_residual(model: TruncatedModel) -> float:
    """An upper bound on ||U1* U1 - I||_2 from the factors of U1 = E U0 E,
    E = I + V D V* with D = diag(e^{i half} - 1): with G = V* V and S = G^{1/2},
    a = ||E* E - I|| = ||S (D* G D + D + D*) S|| and b = ||U0* U0 - I||, and
    U1* U1 - I = (E* E - I) + E* (U0* U0 - I + U0* (E* E - I) U0) E."""
    d = np.exp(1j * model.half) - 1.0
    gram = model.v.conj().T @ model.v
    root = psd_sqrt(gram)
    inner = d.conj()[:, None] * gram * d + np.diag(2.0 * d.real)
    a = float(np.linalg.norm(root @ inner @ root, 2))
    b = float(np.abs(np.abs(model.phases) ** 2 - 1.0).max())
    return a + (1.0 + a) * b + (1.0 + a) * (1.0 + b) * a


@dataclass(frozen=True)
class CrossValidation:
    """Errors ||psi1_model(z; M) - psi1_algebraic(z)|| over points and sizes."""

    zs: np.ndarray
    sizes: np.ndarray
    errors: np.ndarray


def cross_validate(system: DeBrangesSystem, zs: Sequence[complex],
                   models: Sequence[TruncatedModel]) -> CrossValidation:
    zs = np.asarray(list(zs), dtype=complex)
    sizes = np.array([model.size for model in models], dtype=int)
    errors = np.zeros((zs.size, sizes.size))
    exact = system.psi1(zs)
    for j, model in enumerate(models):
        for i, z in enumerate(zs):
            diff = psi_direct(model, 1, z) - exact[i]
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


class _Secular:
    """The secular function of U0 e^{i Theta}, which is similar to U1.

    Scaled by sqrt(sin half) on both sides, its r x r matrix is
    H(omega) = diag(cos half) + sum_m Q_m cot((theta_m - omega)/2) over the r
    directions with half > 0, where Q_m = B_m* B_m and B_m is node m's k x r
    block of V sqrt(sin half).  H increases on every arc between coupled
    nodes (Q_m != 0), so each eigenvalue branch of H has at most one zero
    there, and e^{i omega} is an eigenvalue of U1 exactly where H is singular.

    A Hermitian r x r matrix is carried as its r^2 real parameters (`flat`):
    the real parts of its upper triangle, then the imaginary parts above the
    diagonal.  The nodes are equispaced, so for each parameter sequence c
        sum_m c_m cot((theta_m - omega)/2) = -Re P(omega) / sin(M omega/2),
        P(omega) = sum_{n<M} c^_n e^{i(n - M/2) omega},  c^ = FFT(c),
    and P is summed at omega as a Taylor series from the nearest point of a
    grid OVERSAMPLE times finer than the nodes (`_taylor_table`).  Where that
    point is a node, the series is centred on the node with the node's own
    term taken out exactly, and that term is added back from the root's
    offset to the node.
    """

    def __init__(self, model: TruncatedModel):
        size, k = model.size, model.dim
        coupled = np.sin(model.half) > DEFLATE
        root = np.sqrt(np.sin(model.half[coupled]))
        vr = model.v[:, coupled]
        r = vr.shape[1]
        # mass amplitudes: G E y = (G V_r / root) c for the null vector c of H
        self.amplitudes = (model.g @ vr) / root
        b = (vr * root).reshape(size, k, r)
        q = np.conj(np.swapaxes(b, 1, 2)) @ b
        # LAPACK's 1 x 1 eigenpair is (Re q, 1) exactly
        lam, vec = (q[:, 0].real, np.ones_like(q)) if r == 1 else np.linalg.eigh(q)
        strong = lam > DEFLATE
        self.ranks = strong.sum(axis=1)
        # a node of rank < r keeps the rest of its fibre exactly at theta_m
        self.partial = np.flatnonzero((self.ranks > 0) & (self.ranks < r))
        q[self.partial] = psd_rebuild(vec[self.partial],
                                      np.where(strong[self.partial], lam[self.partial], 0.0))
        q[self.ranks == 0] = 0.0
        self.null = [vec[m][:, ~strong[m]] for m in self.partial]
        self.size, self.r = size, r
        self.cols = np.flatnonzero(self.ranks > 0)
        self.q = q
        self.diag = np.cos(model.half[coupled])
        self._upper = np.triu_indices(r)
        self._off = self._upper[0] < self._upper[1]
        upper = q[:, self._upper[0], self._upper[1]]
        self.flat = np.concatenate([upper.real, upper[:, self._off].imag], axis=1)
        self._diag_flat = np.zeros(r * r)
        self._diag_flat[np.flatnonzero(~self._off)] = self.diag
        self.table = _taylor_table(self.flat)
        self._divisors = np.arange(1, TAYLOR_TERMS)[:, None]
        self._steps = np.arange(-1, 2)
        # rounding scale sum_m tr Q_m |cot|: the nearest node and its two
        # neighbours exactly, the other nodes as seen from the nearest node
        self.traces = np.einsum("mii->m", q).real
        kernel = np.abs(1.0 / np.tan((np.pi / size) * np.arange(2, size - 1)))
        kernel = np.concatenate([[0.0, 0.0], kernel, [0.0]])
        self.far_scale = np.fft.irfft(np.fft.rfft(self.traces) * np.fft.rfft(kernel), size) \
            + self.diag.sum()

    def matrices(self, flat: np.ndarray) -> np.ndarray:
        """The Hermitian r x r matrices with the real parameters `flat`."""
        rows, cols = self._upper
        z = flat[:, :rows.size].astype(complex)
        z[:, self._off] += 1j * flat[:, rows.size:]
        out = np.empty((flat.shape[0], self.r, self.r), dtype=complex)
        out[:, rows, cols] = z
        out[:, cols, rows] = z.conj()
        return out

    def form_weights(self, x: np.ndarray) -> np.ndarray:
        """w with x* M x = sum_p w_p flat_p for every Hermitian M, per row of x."""
        rows, cols = self._upper
        xx = x[:, rows].conj() * x[:, cols]
        return np.concatenate([np.where(self._off, 2.0, 1.0) * xx.real,
                               -2.0 * xx[:, self._off].imag], axis=1)

    def parameters(self, origin: np.ndarray, t: np.ndarray):
        """H and the far slope sum_{m != origin} Q_m csc^2((theta_m - omega)/2)
        as real parameters, and the rounding scale sum_m |Q_m cot| of H, at
        omega = theta_origin + t (t != 0), from t alone: the root keeps its
        full relative precision next to its origin."""
        size, over = self.size, OVERSAMPLE
        fine = TWO_PI / (over * size)
        shift = np.rint(t / fine).astype(int)
        g = (over * origin + shift) % (over * size)
        x = size * (t - shift * fine)
        node = g % over == 0
        # x^p/p! as the running products of x/p, a row of roots at a time
        powers = np.empty((TAYLOR_TERMS, x.size))
        powers[0] = 1.0
        np.divide(x, self._divisors, out=powers[1:])
        for p in range(2, TAYLOR_TERMS):
            powers[p] *= powers[p - 1]
        coef = np.zeros((x.size, 2, TAYLOR_TERMS + 1))
        coef[:, 0, :-1] = powers.T
        coef[:, 1, 1:] = powers.T
        sums = coef @ self.table[g]
        # F = a S and dF/domega = M (a S' + a' S) with S the row's series at x
        # and a = -1/sin(M omega/2) at a fine point, -x/sin(x/2) at a node;
        # e = M a', with y = x/2
        angle = (np.pi / over) * (g % (2 * over)) + 0.5 * x
        y = 0.5 * x[node]
        sinc = np.sinc(y / np.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = -1.0 / np.sin(angle)
            e = 0.5 * size * np.cos(angle) * a * a
        a[node] = -2.0 / sinc
        e[node] = -size * y * np.polyval(SIN_MINUS_Y_COS, y * y) / sinc ** 2
        h = a[:, None] * sums[:, 0]
        h += self._diag_flat
        far = (size * a)[:, None] * sums[:, 1]
        far += e[:, None] * sums[:, 0]
        far *= 2.0
        # the centre node's own term, from the offset to it (t at the origin)
        j = g // over
        at_origin = node & (j == origin)
        own = np.flatnonzero(node & (self.ranks[j] > 0))
        tau = np.where(at_origin, t, x / size)[own]
        q_own = self.flat[j[own]]
        h[own] -= q_own * (1.0 / np.tan(0.5 * tau))[:, None]
        far[own] += np.where(at_origin[own], 0.0, 1.0 / np.sin(0.5 * tau) ** 2)[:, None] \
            * q_own
        origin_term = self.flat[origin]
        origin_term *= np.where(at_origin, 0.0, 1.0 / np.sin(0.5 * t) ** 2)[:, None]
        far -= origin_term

        nearest = np.rint(t * (size / TWO_PI)).astype(int)
        offset = t - nearest * (TWO_PI / size)
        nearest = (origin + nearest) % size
        steps = self._steps
        near = self.traces[(nearest[:, None] + steps) % size]
        with np.errstate(divide="ignore"):
            cot = np.abs(1.0 / np.tan((np.pi / size) * steps - 0.5 * offset[:, None]))
        cot[near == 0.0] = 0.0
        scale = (near * cot).sum(axis=1) + self.far_scale[nearest]
        return h, far, scale

    def inertia_at_nodes(self) -> np.ndarray:
        """Negative eigenvalues of H just left of each coupled node: those of
        H without the node's own term, compressed to its null space."""
        below = np.zeros(self.size, dtype=int)
        m = self.partial
        if m.size:
            # the node-centred series at offset 0: x / sin(x/2) -> 2
            h = self.matrices(-2.0 * self.table[OVERSAMPLE * m, 0] + self._diag_flat)
            widths = np.array([z.shape[1] for z in self.null])
            for width in np.unique(widths):
                pick = np.flatnonzero(widths == width)
                z = np.stack([self.null[i] for i in pick])
                lam = np.linalg.eigvalsh(np.conj(np.swapaxes(z, 1, 2)) @ h[pick] @ z)
                below[m[pick]] = (lam < 0.0).sum(axis=1)
        return below[self.cols]


def _taylor_table(seq: np.ndarray) -> np.ndarray:
    """Taylor tables of the secular sums of the columns c of seq, shape
    (OVERSAMPLE M, TAYLOR_TERMS + 1, columns), from one real FFT per column
    and one inverse real FFT per column and order, built a column at a time.

    With w_n = (n - M/2)/M, row g holds T_p(g) = Re sum_n (i w_n)^p c^_n
    e^{i(n - M/2) theta_g} at theta_g = 2 pi g / (OVERSAMPLE M), so that
    Re P(theta_g + x/M) = sum_p x^p/p! T_p(g).  The row of node j
    (g = OVERSAMPLE j) holds B_{p+1}/(p+1) instead, with B_p = (-1)^j T_p less
    the node's own share c_j sum_n Re (i w_n)^p (B_0 = 0): its series is
    (-1)^j Re P without node j, divided by x.  Either kind of row gives its
    value and its x-derivative with the same coefficients x^p/p!."""
    size, cols = seq.shape
    fine = OVERSAMPLE * size
    orders = np.arange(TAYLOR_TERMS + 2)
    # c is real, so T_p is the inverse real FFT of the frequencies
    # n - M/2 = 0 .. M/2 - 1 of (i w)^p c^, with half of the unpaired n = 0
    # at frequency M/2
    spectrum = np.fft.rfft(seq, axis=0)[::-1].conj()
    powers = ((1j / size) * np.arange(size // 2 + 1))[:, None] ** orders
    own = ((1j / size) * (np.arange(size) - size // 2))[:, None] ** orders
    own = own.sum(axis=0).real
    parity = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)[:, None]
    table = np.empty((fine, TAYLOR_TERMS + 1, cols))
    half = np.zeros((fine // 2 + 1, orders.size), dtype=complex)
    for c in range(cols):
        half[:size // 2 + 1] = powers * spectrum[:, c, None]
        half[size // 2] *= 0.5
        column = np.fft.irfft(half, fine, axis=0)
        column *= fine
        column[::OVERSAMPLE, :-1] = (parity * column[::OVERSAMPLE, 1:]
                                     - own[1:] * seq[:, c, None]) / orders[1:]
        table[:, :, c] = column[:, :-1]
    return table


def _branch_2x2(h: np.ndarray, branch: np.ndarray):
    """Eigenvalue `branch` (0 the smaller) of each Hermitian [[a, b], [b*, d]]
    with parameters (a, Re b, d, Im b), a unit eigenvector x and the weights
    w with x* M x = sum_p w_p flat_p, in closed form.

    As in LAPACK's dlaev2: the eigenvalue of larger modulus comes from
    hypot(a - d, 2|b|), the other as det/big, and the top eigenvector of
    [[a, |b|], [|b|, d]] from ((a - d)/2, |b|) without cancellation; the
    phase of b carries it over to H."""
    a, br, d, bi = h.T
    beta = np.hypot(br, bi)
    sm, df = a + d, a - d
    rt = np.hypot(df, 2.0 * beta)
    big = 0.5 * (sm + np.where(sm < 0.0, -rt, rt))
    wide = np.abs(a) > np.abs(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = (np.where(wide, a, d) / big) * np.where(wide, d, a) - (beta / big) * beta
    small[big == 0.0] = 0.0
    top = branch == 1
    # big is the top eigenvalue unless a + d < 0
    lam = np.where(top == (sm < 0.0), small, big)
    # the top eigenvector is (|a - d| + rt, 2|b|) for a >= d, swapped for a < d
    lead = np.abs(df) + rt
    lead[lead == 0.0] = 1.0
    length = np.hypot(lead, 2.0 * beta)
    lead, cross = lead / length, (2.0 * beta) / length
    down = df < 0.0
    cos, sin = np.where(down, cross, lead), np.where(down, lead, cross)
    u0, u1 = np.where(top, cos, -sin), np.where(top, sin, cos)
    unit = beta > 0.0
    safe = np.where(unit, beta, 1.0)
    re, im = np.where(unit, br / safe, 1.0), bi / safe
    x = np.stack([u0, u1 * (re - 1j * im)], axis=1)
    uu = 2.0 * u0 * u1
    weights = np.stack([u0 * u0, uu * re, u1 * u1, uu * im], axis=1)
    return lam, x, weights


def _branch_pairs(sec: _Secular, h: np.ndarray, branch: np.ndarray):
    """Eigenvalue `branch` (ascending) of each H with parameters h, a unit
    eigenvector x, and the weights w with x* M x = sum_p w_p flat_p for every
    Hermitian M.  The size r picks the solver: for r = 1, H itself with
    x = 1 and w = 1 (LAPACK's 1 x 1 eigenpair and quadratic forms, exactly),
    a closed form for r = 2 and LAPACK for r >= 3."""
    n = h.shape[0]
    if sec.r == 1:
        return h[:, 0], np.ones((n, 1), dtype=complex), np.ones((n, 1))
    if sec.r == 2:
        return _branch_2x2(h, branch)
    lam, x = np.linalg.eigh(sec.matrices(h))
    pick = np.arange(n)
    lam, x = lam[pick, branch], x[pick, :, branch]
    return lam, x, sec.form_weights(x)


def _model_distance(phi, near, far_slope, s, delta):
    """Zero of the two-pole model c - near cot(s/2) + far cot((delta - s)/2)
    of a branch phi increasing in the distance s from its near pole: `near`
    is that pole's exact weight, `far` matches the rest of the slope at s."""
    far = 2.0 * far_slope * np.sin(0.5 * (delta - s)) ** 2
    c = phi + near / np.tan(0.5 * s) - far_slope * np.sin(delta - s)
    cot_delta = 1.0 / np.tan(0.5 * delta)
    # in y = cot(s/2): near y^2 - lin y + const = 0, larger root
    lin = c + cot_delta * (near + far)
    const = c * cot_delta - far
    disc = np.sqrt(np.maximum(lin * lin - 4.0 * near * const, 0.0))
    y = np.where(lin >= 0.0, (lin + disc) / (2.0 * near), 2.0 * const / (lin - disc))
    return 2.0 * np.arctan2(1.0, y)


def _secular_roots(sec: _Secular, left: np.ndarray, steps: np.ndarray,
                   branch: np.ndarray):
    """Zero of eigenvalue branch `branch` of H on each arc from node `left`
    over `steps` grid steps: safeguarded two-pole Newton, vectorised.

    Each root is held as its offset t from the nearer end of its arc (the
    origin), so a root next to a node keeps its full relative precision.
    Returns the origin, t, the branch's null vector c of H and c* K' c with
    K' = sum_m Q_m csc^2((theta_m - omega)/2)."""
    n = left.size
    eps = np.finfo(float).eps
    delta = (TWO_PI / sec.size) * steps
    vec = np.empty((n, sec.r), dtype=complex)
    norm = np.empty(n)
    chunk = max(1, GATHER_BYTES // sec.table[0].nbytes)

    def solve(idx, pole, t):
        h, far, scale = sec.parameters(pole, t)
        lam, x, weights = _branch_pairs(sec, h, branch[idx])
        near = np.einsum("lp,lp->l", weights, sec.flat[pole])
        return lam, x, near, np.einsum("lp,lp->l", weights, far), scale

    def evaluate(idx, pole, t):
        if idx.size <= chunk:
            return solve(idx, pole, t)
        parts = [solve(idx[lo:lo + chunk], pole[lo:lo + chunk], t[lo:lo + chunk])
                 for lo in range(0, idx.size, chunk)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    every = np.arange(n)
    lam, _, near, far, _ = evaluate(every, left, 0.5 * delta)
    # the branch's sign at mid-arc picks the nearer pole, which becomes the
    # origin; phi = +-lambda increases with the distance s from it
    from_left = lam >= 0.0
    sign = np.where(from_left, 1.0, -1.0)
    origin = np.where(from_left, left, (left + steps) & (sec.size - 1))
    lo, hi = np.zeros(n), 0.5 * delta
    with np.errstate(all="ignore"):
        s = _model_distance(lam, near, 0.5 * far, 0.5 * delta, delta)
    s = np.where(from_left, s, delta - s)
    s = np.where((s > lo) & (s < hi), s, 0.5 * (lo + hi))
    active = np.ones(n, dtype=bool)
    for _ in range(SECULAR_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        si = s[idx]
        lam, x, near, far, scale = evaluate(idx, origin[idx], sign[idx] * si)
        phi = sign[idx] * lam
        lo[idx] = np.where(phi < 0.0, si, lo[idx])
        hi[idx] = np.where(phi > 0.0, si, hi[idx])
        with np.errstate(all="ignore"):
            step = _model_distance(phi, near, 0.5 * far, si, delta[idx])
        step = np.where((step > lo[idx]) & (step < hi[idx]), step, 0.5 * (lo[idx] + hi[idx]))
        done = (np.abs(lam) <= 8.0 * eps * scale) | (np.abs(step - si) <= 4.0 * eps * si) \
            | (hi[idx] - lo[idx] <= 4.0 * eps * si)
        vec[idx], norm[idx] = x, far + near / np.sin(0.5 * si) ** 2
        s[idx] = np.where(done, si, step)
        active[idx] = ~done
    return origin, sign * s, vec, norm


def spectral_nu1(model: TruncatedModel) -> SpectralMeasure:
    """Point spectrum of U1 from the secular equation of U0 e^{i Theta}.

    Each eigenvalue e^{i omega} off the nodes is a zero of the r x r secular
    function H (see `_Secular`); with c its null vector and
    K' = sum_m Q_m csc^2((theta_m - omega)/2), its mass is A c c* A* / c* K' c
    with A = G V_r diag(sin half)^{-1/2}.  A node whose block has rank < k
    keeps the rest of its eigenvalues exactly at theta_m, with mass 0.
    """
    n = model.size * model.dim
    if n > BUILD_CAP:
        raise ValueError(f"model size cap exceeded: M*k = {n} > {BUILD_CAP}")
    sec = _Secular(model)
    size, k, cols = model.size, model.dim, sec.cols
    ranks = sec.ranks[cols]
    # arc i runs from cols[i] to the next coupled node; H's inertia right of
    # its left node and left of its right node gives the branches that vanish.
    # The counts telescope to sum(ranks) = M*k - deflated when none is negative
    below = sec.inertia_at_nodes()
    above = ranks + below
    counts = above - np.roll(below, -1)
    if np.any(counts < 0):
        raise ValueError(f"secular root count negative on {int((counts < 0).sum())} arcs: "
                         "H's inertia at the nodes is not resolved")
    arcs = np.repeat(np.arange(cols.size), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    branch = np.repeat(above, counts) - 1 - (np.arange(arcs.size) - first)
    steps = (np.roll(cols, -1) - cols) % size
    steps[steps == 0] = size
    left, steps = cols[arcs], steps[arcs]

    origin, t, vec, norm = _secular_roots(sec, left, steps, branch)
    amp = vec @ sec.amplitudes.T
    still = np.repeat(np.arange(size), k - sec.ranks)
    del sec  # the masses need no Taylor table
    angles = np.mod(model.nodes[origin] + t, TWO_PI)
    masses = amp[:, :, None] * amp.conj()[:, None, :] / norm[:, None, None]
    angles = np.concatenate([angles, model.nodes[still]])
    masses = np.concatenate([masses, np.zeros((still.size, k, k), dtype=complex)])

    order = np.argsort(angles, kind="stable")
    # angles chained within CLUSTER (at pi: the atom and the nodes where w0
    # has a zero column) are ordered by roundoff alone; order them by mass
    traces = np.einsum("lii->l", masses[order]).real
    cluster = np.concatenate([[0], np.cumsum(np.diff(angles[order]) > CLUSTER)])
    order = order[np.lexsort((traces, cluster))]
    return SpectralMeasure(angles=angles[order], masses=masses[order])
