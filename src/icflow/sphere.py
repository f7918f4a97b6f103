"""Discrete calculus on the round 2-sphere.

Two grid modes share one cell-centered layout in the polar angle:
theta_j = (j + 1/2) pi / N excludes the poles. The axisymmetric mode keeps
a single meridian; the lat-long mode adds a uniform periodic azimuth.

Pole closure uses even reflection: an axisymmetric smooth function
satisfies f(-theta) = f(theta), a general one f(-theta, psi) =
f(theta, psi + pi), so ghost rows are mirrored (and rolled by half a
period in 2D). The mixed Hessian component that divides by sin^2(theta)
is replaced by its limit d^2f/dtheta^2 at the two rows adjacent to the
poles, which is second-order consistent for smooth fields.

Near the poles the lat-long rows crowd together: row j has azimuthal
spacing sin(theta_j) d_psi, far below d_theta. A polar Fourier filter
(as in global grid-point models) zeroes on each row the azimuthal modes
k whose psi-Laplacian eigenvalue 4 sin^2(k d_psi / 2) / (sin(theta_j)
d_psi)^2 exceeds the theta one, 4 / d_theta^2, so an explicit step sized
by d_theta alone stays stable on both grids. Since d_psi <= d_theta,
every row drops at least its Nyquist mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FlowError, ResolutionTooSmall

_MIN_NTHETA = 16


def _frozen(a):
    a.flags.writeable = False
    return a


@dataclass
class SphereGrid:
    """Node layout plus the per-node trigonometry every stencil reads:
    sin theta and cos theta (broadcastable to field_shape), the round
    metric components sigma (field_shape + (2, 2)), a zero field that
    stands for the psi components of axisymmetric tensors and, on lat-long
    grids, the polar filter's keep-mask over (row, azimuthal mode k),
    computed once per grid and read-only."""

    mode: str                      # "axisymmetric1d" | "latlong2d"
    n_theta: int
    n_psi: int                     # 1 in axisymmetric mode
    theta: np.ndarray              # (n_theta,)
    psi: np.ndarray                # (n_psi,) or empty
    d_theta: float
    d_psi: float
    n: int = 2
    sin_theta: np.ndarray = field(init=False, repr=False, compare=False)
    cos_theta: np.ndarray = field(init=False, repr=False, compare=False)
    sigma: np.ndarray = field(init=False, repr=False, compare=False)
    zeros: np.ndarray = field(init=False, repr=False, compare=False)
    keep: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        s, c = np.sin(self.theta), np.cos(self.theta)
        if self.mode != "axisymmetric1d":
            s, c = s[:, None], c[:, None]
        sig = np.zeros(self.field_shape + (2, 2))
        sig[..., 0, 0] = 1.0
        sig[..., 1, 1] = s ** 2
        self.sin_theta, self.cos_theta, self.sigma = _frozen(s), _frozen(c), _frozen(sig)
        self.zeros = _frozen(np.zeros(self.field_shape))
        if self.mode != "axisymmetric1d":
            # a mode on the threshold (k = 2j + 1 when d_psi = d_theta) is
            # kept whatever the rounding, and the rows j and n_theta - 1 - j
            # keep the same modes
            k = np.arange(self.n_psi // 2 + 1)
            keep = (np.sin(0.5 * k * self.d_psi)
                    <= s * (self.d_psi / self.d_theta) * (1.0 + 1e-12))
            self.keep = _frozen(keep | keep[::-1])

    @property
    def field_shape(self):
        if self.mode == "axisymmetric1d":
            return (self.n_theta,)
        return (self.n_theta, self.n_psi)


@dataclass
class ScalarField:
    grid: SphereGrid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.field_shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.field_shape}"
            )
        if not np.isfinite(self.values).all():
            raise FlowError("scalar field contains non-finite values")


def build_grid(mode: str, resolution) -> SphereGrid:
    """Cell-centered grid. resolution is N_theta (axisymmetric) or a pair
    (N_theta, N_psi) with N_psi >= 2 N_theta and even."""
    if mode == "axisymmetric1d":
        n_theta = int(resolution)
        if n_theta < _MIN_NTHETA:
            raise ResolutionTooSmall(f"n_theta must be >= {_MIN_NTHETA}, got {n_theta}")
        h = np.pi / n_theta
        theta = (np.arange(n_theta) + 0.5) * h
        return SphereGrid(mode, n_theta, 1, theta, np.zeros(0), h, 0.0)
    if mode == "latlong2d":
        n_theta, n_psi = int(resolution[0]), int(resolution[1])
        if n_theta < _MIN_NTHETA:
            raise ResolutionTooSmall(f"n_theta must be >= {_MIN_NTHETA}, got {n_theta}")
        if n_psi < 2 * n_theta or n_psi % 2 != 0:
            raise ResolutionTooSmall(
                f"n_psi must be even and >= 2 n_theta, got {n_psi} (n_theta={n_theta})"
            )
        h = np.pi / n_theta
        hp = 2.0 * np.pi / n_psi
        theta = (np.arange(n_theta) + 0.5) * h
        psi = (np.arange(n_psi) + 0.5) * hp
        return SphereGrid(mode, n_theta, n_psi, theta, psi, h, hp)
    raise ValueError(f"unknown grid mode {mode!r}")


def polar_filter(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """values (lat-long field shape) with the azimuthal modes that
    grid.keep drops zeroed on every row."""
    modes = np.fft.rfft(values, axis=1)
    return np.fft.irfft(modes * grid.keep, n=grid.n_psi, axis=1)


# -- stencils --------------------------------------------------------------

def _pad_theta(grid, v):
    if grid.mode == "axisymmetric1d":
        return np.concatenate([v[:1], v, v[-1:]])
    half = grid.n_psi // 2
    top = np.roll(v[:1], half, axis=1)
    bot = np.roll(v[-1:], half, axis=1)
    return np.concatenate([top, v, bot], axis=0)


def _dtheta(grid, p):
    """Centered theta difference from the padded copy p = _pad_theta(grid, v)."""
    return (p[2:] - p[:-2]) / (2.0 * grid.d_theta)


def _d2theta(grid, p, v):
    """Second theta difference of v from its padded copy p."""
    return (p[2:] - 2.0 * v + p[:-2]) / grid.d_theta ** 2


def _psi_diffs(grid, v):
    """Centered first and second psi differences of v (periodic)."""
    fwd, bwd = np.roll(v, -1, axis=1), np.roll(v, 1, axis=1)
    return (fwd - bwd) / (2.0 * grid.d_psi), (fwd - 2.0 * v + bwd) / grid.d_psi ** 2


# -- covariant operators ----------------------------------------------------

def derivatives(f: ScalarField):
    """Covariant gradient and Hessian of f as components of field shape:
    (f_theta, f_psi, f_thetatheta, f_thetapsi, f_psipsi).

    Each theta stencil reads one padded copy of its field. On S^2 the only
    nonzero Christoffel symbols are Gamma^theta_psipsi = -sin cos and
    Gamma^psi_thetapsi = cot. In axisymmetric mode f_psi and f_thetapsi
    vanish identically and are the grid's read-only `zeros`.
    """
    g = f.grid
    v = f.values
    p = _pad_theta(g, v)
    d_th = _dtheta(g, p)
    h_thth = _d2theta(g, p, v)
    h_psps = g.sin_theta * g.cos_theta * d_th
    if g.mode == "axisymmetric1d":
        return d_th, g.zeros, h_thth, g.zeros, h_psps
    d_ps, d2_ps = _psi_diffs(g, v)
    h_thps = _dtheta(g, _pad_theta(g, d_ps)) - g.cos_theta / g.sin_theta * d_ps
    return d_th, d_ps, h_thth, h_thps, h_psps + d2_ps


def symmetric_matrix(c00, c01, c11):
    """The (..., 2, 2) symmetric matrix with components c00, c01 = c10, c11."""
    m = np.empty(np.shape(c00) + (2, 2))
    m[..., 0, 0] = c00
    m[..., 0, 1] = m[..., 1, 0] = c01
    m[..., 1, 1] = c11
    return m


def grad_components(f: ScalarField):
    """Gradient as a (..., 2) array in both modes (psi component zero when
    axisymmetric)."""
    return np.stack(derivatives(f)[:2], axis=-1)


def covector_norm_sq(grid: SphereGrid, d_th, d_ps):
    """|d|^2 with respect to the round metric, for the covector with
    components (d_th, d_ps) such as `derivatives` returns."""
    q = d_th * d_th
    if grid.mode == "axisymmetric1d":
        return q
    return q + (d_ps / grid.sin_theta) ** 2


def grad_norm_sq(f: ScalarField):
    """|Df|^2 with respect to the round metric."""
    return covector_norm_sq(f.grid, *derivatives(f)[:2])


def covariant_hess(f: ScalarField):
    """Covariant Hessian f_ij = d_i d_j f - Gamma^k_ij d_k f, shape (..., 2, 2)."""
    return symmetric_matrix(*derivatives(f)[2:])


def hessian_mixed(f: ScalarField):
    """The (1,1) Hessian H^i_j = sigma^ik f_kj, shape (..., 2, 2).

    For the azimuthal mean of the field the cot(theta) d_theta f part of
    H^psi_psi is replaced by its limit d^2_theta f at the rows adjacent to
    the poles. The azimuthal fluctuation keeps its two singular-looking
    terms together, since only their sum is regular at the poles.
    """
    g = f.grid
    v = f.values
    cot = g.cos_theta / g.sin_theta
    d_th, _, h_thth, h_thps, _ = derivatives(f)
    h = np.zeros(g.field_shape + (2, 2))
    h[..., 0, 0] = h_thth
    if g.mode == "axisymmetric1d":
        axi = cot * d_th
        axi[0] = h_thth[0]
        axi[-1] = h_thth[-1]
        h[..., 1, 1] = axi
        return h
    vbar = np.mean(v, axis=1, keepdims=True)
    vp = v - vbar
    pbar = _pad_theta(g, vbar)
    axi = cot * _dtheta(g, pbar)
    d2bar = _d2theta(g, pbar, vbar)
    axi[0, :] = d2bar[0, :]
    axi[-1, :] = d2bar[-1, :]
    s2 = g.sin_theta ** 2
    fluct = _psi_diffs(g, vp)[1] / s2 + cot * _dtheta(g, _pad_theta(g, vp))
    h[..., 1, 1] = axi + fluct
    h[..., 0, 1] = h_thps
    h[..., 1, 0] = h_thps / s2
    return h


# -- reductions --------------------------------------------------------------

def tensor_sup_norm(t_mixed: np.ndarray, grid: SphereGrid) -> float:
    """Sup over nodes of the frame-invariant Frobenius norm of a (1,1)
    tensor (so c * identity has norm |c| sqrt(2)).

    Components are moved to an orthonormal frame of the round metric
    before squaring: T-hat^a_b = T^a_b sqrt(sigma_aa / sigma_bb).
    """
    s = grid.sin_theta
    a = t_mixed[..., 0, 0]
    b = t_mixed[..., 0, 1] / s
    c = t_mixed[..., 1, 0] * s
    d = t_mixed[..., 1, 1]
    sq = a * a + b * b + c * c + d * d
    return float(np.sqrt(np.max(sq)))
