"""Discrete calculus on the round 2-sphere.

Two grid modes share one cell-centered layout in the polar angle:
theta_j = (j + 1/2) pi / N excludes the poles. The axisymmetric mode keeps
a single meridian; the lat-long mode adds a uniform periodic azimuth.

Pole closure uses even reflection: an axisymmetric smooth function
satisfies f(-theta) = f(theta), a general one f(-theta, psi) =
f(theta, psi + pi), so ghost rows are mirrored (and, in 2D, taken half a
period round, by swapping the two halves of the edge row). The periodic
psi stencils read a copy with one wrapped ghost column on each side.
The field and its two ghost rows are gathered by one `take` over an
index map fixed per grid (`SphereGrid.pad`), and ghost columns are copied
by slicing, which moves the same data as a roll at a fraction of its
cost. A covector is the pair of its
(theta, psi) components, a symmetric 2-tensor the triple of its (00, 01,
11) components. In the orthonormal frame (d_theta, d_psi / sin theta),
where covariant and mixed components agree, `hessian_mixed` returns the
Hessian and `tensor_sup_norm` measures a tensor. The frame's psi-psi
Hessian divides by sin^2(theta); at the two rows adjacent to the poles
the azimuthal mean of its cot(theta) d_theta f part is replaced by its
limit d^2f/dtheta^2, which is second-order consistent for smooth fields.

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

from .errors import ConfigError, FlowError, is_integer

_MIN_NTHETA = 16


def _frozen(a):
    a.flags.writeable = False
    return a


@dataclass
class SphereGrid:
    """Node layout plus the per-node trigonometry every stencil reads:
    sin theta, cos theta, sin^2 theta (the round metric's psi-psi
    component), sin theta cos theta and cot theta, broadcastable to
    field_shape; a zero field that stands for the psi components of
    axisymmetric tensors; the flat node index that each entry of the
    theta-padded layout reads (`pad`, see _pad_theta); and, on lat-long
    grids, the polar filter's keep-mask over (row, azimuthal mode k). All
    are computed once per grid and read-only. Grids compare equal by their
    layout: mode, node counts and spacings."""

    mode: str                      # "axisymmetric1d" | "latlong2d"
    n_theta: int
    n_psi: int                     # 1 in axisymmetric mode
    theta: np.ndarray = field(compare=False)   # (n_theta,)
    psi: np.ndarray = field(compare=False)     # (n_psi,) or empty
    d_theta: float
    d_psi: float
    sin_theta: np.ndarray = field(init=False, repr=False, compare=False)
    cos_theta: np.ndarray = field(init=False, repr=False, compare=False)
    sin2: np.ndarray = field(init=False, repr=False, compare=False)
    sin_cos: np.ndarray = field(init=False, repr=False, compare=False)
    cot: np.ndarray = field(init=False, repr=False, compare=False)
    zeros: np.ndarray = field(init=False, repr=False, compare=False)
    pad: np.ndarray = field(init=False, repr=False, compare=False)
    keep: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        s, c = np.sin(self.theta), np.cos(self.theta)
        if self.mode != "axisymmetric1d":
            s, c = s[:, None], c[:, None]
        self.sin_theta, self.cos_theta, self.sin2 = _frozen(s), _frozen(c), _frozen(s ** 2)
        self.sin_cos, self.cot = _frozen(s * c), _frozen(c / s)
        self.zeros = _frozen(np.zeros(self.field_shape))
        # the node each entry of the theta-padded layout reads: a ghost row
        # past each pole by even reflection, in 2D half a period round
        rows = np.concatenate(([0], np.arange(self.n_theta), [self.n_theta - 1]))
        if self.mode == "axisymmetric1d":
            self.pad = _frozen(rows)
        else:
            cols = np.arange(self.n_psi)
            pad = rows[:, None] * self.n_psi + cols
            pad[[0, -1]] += (cols + self.n_psi // 2) % self.n_psi - cols
            self.pad = _frozen(pad.ravel())
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


@dataclass(eq=False)
class ScalarField:
    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.field_shape:
            raise ConfigError(
                f"field shape {self.values.shape} does not match grid {self.grid.field_shape}"
            )
        if not np.isfinite(self.values).all():
            raise FlowError("scalar field contains non-finite values")

    @classmethod
    def unchecked(cls, grid, values):
        """The field of a float array that the caller has already found
        finite and of grid.field_shape, built without repeating those
        tests."""
        f = cls.__new__(cls)
        f.grid, f.values = grid, values
        return f


def _count(name, value) -> int:
    """value as an int, if it is an integer (bools and floats refused)."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def build_grid(mode: str, resolution) -> SphereGrid:
    """Cell-centered grid. resolution is the integer N_theta (axisymmetric)
    or a pair of integers (N_theta, N_psi) with N_psi >= 2 N_theta and even."""
    if mode == "axisymmetric1d":
        n_theta = _count("n_theta", resolution)
    elif mode == "latlong2d":
        if not (isinstance(resolution, (tuple, list)) and len(resolution) == 2):
            raise ConfigError(
                f"latlong2d resolution must be a pair (n_theta, n_psi), got {resolution!r}")
        n_theta, n_psi = _count("n_theta", resolution[0]), _count("n_psi", resolution[1])
    else:
        raise ConfigError(f"unknown grid mode {mode!r}")
    if n_theta < _MIN_NTHETA:
        raise ConfigError(f"n_theta must be >= {_MIN_NTHETA}, got {n_theta}")
    h = np.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * h
    if mode == "axisymmetric1d":
        return SphereGrid(mode, n_theta, 1, theta, np.zeros(0), h, 0.0)
    if n_psi < 2 * n_theta or n_psi % 2 != 0:
        raise ConfigError(
            f"n_psi must be even and >= 2 n_theta, got {n_psi} (n_theta={n_theta})"
        )
    hp = 2.0 * np.pi / n_psi
    psi = (np.arange(n_psi) + 0.5) * hp
    return SphereGrid(mode, n_theta, n_psi, theta, psi, h, hp)


def polar_filter(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """values with the azimuthal modes that grid.keep drops zeroed on
    every row (psi is the last axis, so a stack of fields is filtered row
    by row); values itself on an axisymmetric grid, which has no azimuth
    to filter."""
    if grid.keep is None:
        return values
    modes = np.fft.rfft(values, axis=-1)
    return np.fft.irfft(modes * grid.keep, n=grid.n_psi, axis=-1)


# -- stencils --------------------------------------------------------------

def _pad_theta(grid, v):
    """A copy of v with a ghost row past each pole (grid.pad). theta is the
    last axis of v on axisymmetric grids, the one before psi on lat-long
    grids."""
    if grid.mode == "axisymmetric1d":
        return v.take(grid.pad, axis=-1)
    lead = v.shape[:-2]
    return (v.reshape(lead + (-1,)).take(grid.pad, axis=-1)
            .reshape(lead + (grid.n_theta + 2, grid.n_psi)))


def _psi_diffs(grid, v):
    """Centered first and second psi differences of v (periodic, along its
    last axis), read from one copy of v with a wrapped ghost column on
    each side."""
    w = np.concatenate([v[..., -1:], v, v[..., :1]], axis=-1)
    fwd, bwd = w[..., 2:], w[..., :-2]
    return (fwd - bwd) / (2.0 * grid.d_psi), (fwd - 2.0 * v + bwd) / grid.d_psi ** 2


# -- covariant operators ----------------------------------------------------

def derivatives(v: np.ndarray, grid: SphereGrid):
    """Covariant gradient and Hessian of v, a float array of
    grid.field_shape, as components of field shape:
    (f_theta, f_psi, f_thetatheta, f_thetapsi, f_psipsi). v may carry
    leading axes, a stack of fields, which every component keeps: theta
    and psi are indexed from the right.

    Every stencil reads one copy p of v with a ghost row past each pole
    (_pad_theta). The psi differences of p are padded too, since a ghost
    row's psi difference is the edge row's half a period round, so their
    centered theta difference gives f_thetapsi. On S^2 the only nonzero
    Christoffel symbols are Gamma^theta_psipsi = -sin cos and
    Gamma^psi_thetapsi = cot. In axisymmetric mode f_psi and f_thetapsi
    vanish identically and are the grid's read-only `zeros`.
    """
    h = grid.d_theta
    p = _pad_theta(grid, v)
    if grid.mode == "axisymmetric1d":
        up, down = p[..., 2:], p[..., :-2]       # the rows past and before each node
        d_th = (up - down) / (2.0 * h)
        return d_th, grid.zeros, (up - 2.0 * v + down) / h ** 2, grid.zeros, grid.sin_cos * d_th
    up, down = p[..., 2:, :], p[..., :-2, :]
    d_th = (up - down) / (2.0 * h)
    h_thth = (up - 2.0 * v + down) / h ** 2
    dp_ps, d2p_ps = _psi_diffs(grid, p)
    d_ps = dp_ps[..., 1:-1, :]
    h_thps = (dp_ps[..., 2:, :] - dp_ps[..., :-2, :]) / (2.0 * h) - grid.cot * d_ps
    return d_th, d_ps, h_thth, h_thps, grid.sin_cos * d_th + d2p_ps[..., 1:-1, :]


def grad_components(f: ScalarField):
    """Gradient components (f_theta, f_psi); f_psi is the grid's zero
    field when axisymmetric."""
    return derivatives(f.values, f.grid)[:2]


def covector_norm_sq(grid: SphereGrid, d_th, d_ps):
    """|d|^2 with respect to the round metric, for the covector with
    components (d_th, d_ps) such as `derivatives` returns."""
    q = d_th * d_th
    if grid.mode == "axisymmetric1d":
        return q
    return q + (d_ps / grid.sin_theta) ** 2


def grad_norm_sq(f: ScalarField):
    """|Df|^2 with respect to the round metric."""
    return covector_norm_sq(f.grid, *derivatives(f.values, f.grid)[:2])


def covariant_hess(f: ScalarField):
    """Covariant Hessian f_ij = d_i d_j f - Gamma^k_ij d_k f as the triple
    (f_thetatheta, f_thetapsi, f_psipsi)."""
    return derivatives(f.values, f.grid)[2:]


def hessian_mixed(grid: SphereGrid, d_th, hess):
    """The Hessian's orthonormal-frame triple
    (f_thetatheta, f_thetapsi / sin theta, f_psipsi / sin^2 theta), from
    f_theta and the covariant triple hess that `derivatives` returns; in
    this frame the mixed H^i_j and the covariant f_ij agree.

    At the rows adjacent to the poles the psi-psi entry also takes the
    azimuthal mean of f_thetatheta - cot(theta) f_theta: this replaces
    the mean's cot(theta) d_theta f by its limit d^2_theta f, while the
    fluctuation keeps its two singular-looking terms together, since only
    their sum is regular at the poles.
    """
    h_thth, h_thps, h_psps = hess
    h11 = h_psps / grid.sin2
    ends = slice(None, None, grid.n_theta - 1)     # rows 0 and n_theta - 1
    c = h_thth[ends] - grid.cot[ends] * d_th[ends]
    # the mean along psi: over no axis on axisymmetric grids
    h11[ends] += np.mean(c, axis=tuple(range(1, c.ndim)), keepdims=True)
    return h_thth, h_thps / grid.sin_theta, h11


# -- reductions --------------------------------------------------------------

def tensor_sup_norm(t00, t01, t11) -> float:
    """Sup over nodes of the Frobenius norm of a symmetric 2-tensor given
    by its orthonormal-frame triple (so c * identity has norm |c| sqrt(2))."""
    return float(np.sqrt(np.max(t00 * t00 + 2.0 * t01 * t01 + t11 * t11)))
