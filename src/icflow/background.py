"""Geometry of the AdS-Schwarzschild background.

The ambient space is the warped product [0, infinity) x S^n with metric
dr^2 + lambda(r)^2 sigma, where sigma is the round metric and the warp
factor solves

    lambda'(r) = sqrt(1 + lambda^2 - m lambda^(1-n)),    lambda(0) = s0.

The horizon radius s0 is the unique positive root of 1 + s^2 - m s^(1-n)
(s0 = 0 in the massless limit, where lambda = sinh r exactly and the space
is hyperbolic). Differentiating the first-order equation once gives the
closed form

    lambda''(r) = lambda + (m (n - 1) / 2) lambda^(-n),

so derivatives of the warp factor are always evaluated from closed forms
in lambda, never by differencing the table.

The additive constant of the radial coordinate is fixed by the
asymptotics rather than by the horizon: r is chosen so that

    lambda(r) = sinh(r) + (m / (2 (n + 1))) sinh(r)^(-n) + O(sinh^(-n-2)),

which makes lambda(r) e^(-r) -> 1/2 exactly. The horizon then sits at a
mass-dependent coordinate r_horizon (zero in the massless limit, and
slightly negative for small positive mass); the table covers
[r_horizon, r_max].

For m > 0 the profile is tabulated by quadrature of the inverse relation
dr = dlambda / lambda'.  Since lambda'^2 vanishes linearly in
(lambda - s0), the integrand has an integrable square-root singularity at
the horizon; the substitution u = sqrt(lambda - s0) removes it exactly:

    dr/du = 2 / sqrt(H(u^2)),    H(w) = (g(s0 + w) - g(s0)) / w,

with g(s) = 1 + s^2 - m s^(1-n).  H is evaluated through a cancellation
free closed form (the power difference is expanded as a finite sum), so
the integrand is smooth all the way to u = 0.

The same pass tabulates the radial gauge, anchored at infinity,

    phi(r) = -psi(r),    psi(r) = integral_r^infinity ds / lambda(s),

whose inverse converts the evolving gauge field back to a radius. psi is
about 2 e^(-r), so a double holds it to relative precision and r resolves
to about eps at any radius. In the massless limit
psi = 2 artanh(e^(-r)) = -log tanh(r/2), which is its own inverse. For
m > 0, psi at and above the node that anchors the origin shift comes from
the same asymptotic form of lambda,

    psi = 2 artanh(e^(-r)) - a 2^(n+2) e^(-(n+2) r) / (n + 2),    a = m / (2 (n + 1)),

and below it from the quadrature increments summed downward.

The gauge table indexes r and lambda together by phi: dr/dphi = lambda,
dlambda/dphi = lambda lambda', and the second derivatives follow in
closed form, so a time step finds both from one interval search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import MassTooSmall, NegativeMass, NonPositiveDimension, TableExtentError

# 10-point Gauss-Legendre nodes and weights on [-1, 1], ascending
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889844, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163116, 0.14887433898163116,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889844,
    0.9739065285171717])
_GL_WEIGHTS = np.array([
    0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
    0.26926671930999674, 0.2955242247147533, 0.2955242247147533,
    0.26926671930999674, 0.21908636251598224, 0.14945134915058053,
    0.06667134430868714])

# A small mass has its horizon at lambda = s0 ~ m, where the r nodes lie
# s0 / 32 apart next to an origin shift that carries a rounding of about
# 1e-14; their spacing keeps the ODE residual below 1e-9 only for s0 above
# about 1e-19. Positive masses below machine epsilon are refused.
M_MIN = float(np.finfo(float).eps)

# horizons below _S0_GRADED get graded u nodes, _GRADE per horizon scale
_S0_GRADED = 2.0 ** -7
_GRADE = 64

# The largest table extent. Every table coefficient is a node value times
# a power of its node spacing, so nothing divides by a small spacing; the
# first overflow is the node value d^2 lambda / d phi^2 ~ lambda^3 of the
# gauge table, near r = 237.
R_TABLE_LIMIT = 140.0


@dataclass(frozen=True)
class BackgroundParams:
    """Mass and dimension of the background."""

    m: float
    n: int = 2

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise NonPositiveDimension(f"sphere dimension must be an integer >= 2, got {self.n}")
        if self.m < 0:
            raise NegativeMass(f"mass parameter must be >= 0, got {self.m}")
        if 0 < self.m < M_MIN:
            raise MassTooSmall(
                f"a positive mass must be at least {M_MIN:.3g}, got {self.m}")


def _g(s, m, n):
    return 1.0 + s * s - m * s ** (1 - n)


def solve_horizon(params: BackgroundParams) -> float:
    """Horizon radius: the unique positive root of 1 + s^2 - m s^(1-n).

    The function is strictly increasing on (0, infinity), tends to -infinity
    at 0+ and to +infinity at infinity, so the root is unique.  A factor-2
    bracket is bisected down to adjacent doubles, and the one with the
    smaller |g| is returned: full relative precision at any horizon, which
    the table's H(w) needs, since it takes g(s0) to be zero.  Returns 0
    for the massless (hyperbolic) limit.
    """
    m, n = params.m, params.n
    if m == 0.0:
        return 0.0
    g = lambda s: _g(s, m, n)
    lo = 1.0
    while g(lo) > 0.0:
        lo /= 2.0
    hi = 2.0 * lo
    while g(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(g(lo)) <= abs(g(hi)) else hi


def _h_of_w(w, s0, m, n):
    """(g(s0 + w) - g(s0)) / w without cancellation; g(s0) = 0 analytically.

    The quadratic part contributes 2 s0 + w exactly.  The power part uses
    x^(1-n) - y^(1-n) = -(x - y) * sum x^i y^(n-2-i) / (x y)^(n-1) with
    x = s0 + w, y = s0, valid for integer n >= 2.
    """
    x = s0 + w
    num = np.zeros_like(np.asarray(w, dtype=float))
    for i in range(n - 1):
        num = num + x ** i * s0 ** (n - 2 - i)
    return 2.0 * s0 + w + m * num / (x ** (n - 1) * s0 ** (n - 1))


def _outside(x, lo, hi):
    """Whether any entry of the array x lies below lo or above hi; NaN
    entries count as neither, as in (x < lo).any(), in one reduction a
    side."""
    return (np.fmin.reduce(x, axis=None, initial=np.inf) < lo
            or np.fmax.reduce(x, axis=None, initial=-np.inf) > hi)


@dataclass
class WarpProfile:
    """Tabulated warp factor lambda(r) with closed-form derivative accessors.

    Immutable after construction; all accessors are pure and accept
    scalars or arrays. Requests outside [0, r_max] (or the matching lambda /
    gauge ranges) raise TableExtentError; the range tests let slivers of
    about 1e-12 through, across which each table extends its end piece.
    For m > 0 three tables hold the profile: (lambda, phi) by r, (r,
    lambda) by the gauge phi, and r by u = sqrt(lambda - s0).
    """

    params: BackgroundParams
    r_max: float
    s0: float
    r_horizon: float
    table_r: np.ndarray
    table_lam: np.ndarray
    _by_r: Optional[_Piecewise] = field(default=None, repr=False)
    _by_phi: Optional[_Piecewise] = field(default=None, repr=False)
    _by_u: Optional[_Piecewise] = field(default=None, repr=False)
    _phi_lo: float = 0.0
    _phi_hi: float = 0.0
    lam_max: float = 0.0

    # -- warp factor and derivatives -------------------------------------

    def _check_r(self, r):
        r = np.asarray(r, dtype=float)
        if _outside(r, self.r_horizon - 1e-12, self.r_max * (1 + 1e-14)):
            raise TableExtentError(
                f"radius outside table range [{self.r_horizon}, {self.r_max}]")
        return r

    def lambda_of_r(self, r):
        r = self._check_r(r)
        if self.params.m == 0.0:
            return np.sinh(r)
        return self._by_r(r)[0]

    def lambda_p_of_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        m, n = self.params.m, self.params.n
        inner = 1.0 + lam * lam - m * lam ** (1 - n) if m != 0.0 else 1.0 + lam * lam
        return np.sqrt(np.maximum(inner, 0.0))

    def lambda_pp_of_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        m, n = self.params.m, self.params.n
        if m == 0.0:
            return lam
        return lam + 0.5 * m * (n - 1) * lam ** (-n)

    def radius_from_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.params.m == 0.0:
            if (lam < 0).any() or (lam > self.lam_max * (1 + 1e-12)).any():
                raise TableExtentError("warp value outside table range")
            return np.arcsinh(lam)
        if (lam < self.s0 * (1 - 1e-12)).any() or (lam > self.lam_max * (1 + 1e-12)).any():
            raise TableExtentError("warp value outside table range")
        u = np.sqrt(np.maximum(lam - self.s0, 0.0))
        return self._by_u(u)[0]

    # -- radial gauge -----------------------------------------------------

    def gauge_from_radius(self, r):
        """phi = -integral_r^infinity ds/lambda(s)."""
        r = self._check_r(r)
        if self.params.m == 0.0:
            if (r <= 0.0).any():
                raise TableExtentError("gauge requires r > 0 in the massless limit")
            return -2.0 * np.arctanh(np.exp(-r))
        return self._by_r(r)[1]

    def radius_from_gauge(self, phi):
        """Inverse of gauge_from_radius."""
        return self.warp_from_gauge(phi)[0]

    def warp_from_gauge(self, phi):
        """(r, lambda) at the gauge phi from one table lookup, with the
        range tests of both radius_from_gauge and lambda_of_r."""
        phi = np.asarray(phi, dtype=float)
        if self.params.m == 0.0:
            if (phi >= 0.0).any():
                raise TableExtentError("gauge value outside range (massless limit)")
            r = self._check_r(-np.log(np.tanh(-0.5 * phi)))
            return r, np.sinh(r)
        # phi_hi is about -2 e^(-r_max): its sliver is relative
        if _outside(phi, self._phi_lo - 1e-12, self._phi_hi * (1 - 1e-12)):
            raise TableExtentError("gauge value outside tabulated range")
        r, lam = self._by_phi(phi)
        self._check_r(r)
        return r, lam

    # -- self checks ------------------------------------------------------

    def ode_residual_max(self) -> float:
        """Largest relative defect of the tabulated solution against the
        first-order warp equation, measured at table nodes and midpoints.

        Relative normalization by 1 + lambda^2: the absolute residual is
        below float resolution once lambda is large.
        """
        m, n = self.params.m, self.params.n
        if self.params.m == 0.0:
            r = self.table_r[1:]
            pts = np.concatenate([r, 0.5 * (r[:-1] + r[1:])])
            lam = np.sinh(pts)
            d = np.cosh(pts)
        else:
            r = self.table_r
            pts = np.concatenate([r[1:], 0.5 * (r[:-1] + r[1:])])
            lam = self._by_r(pts)[0]
            d = self._by_r.derivative()(pts)[0]
        target = 1.0 + lam * lam - m * lam ** (1 - n)
        return float(np.max(np.abs(d * d - target) / (1.0 + lam * lam)))


def _horizon_nodes(s0):
    """u nodes below 1/4 that resolve the horizon scale sqrt(s0) of small
    horizons (s0 < 2^-7): uniform with spacing sqrt(s0) / 64 up to
    sqrt(s0), then geometric with ratio 1 + 1/64 until the spacing reaches
    the uniform grid's 1/256. They depend on s0 only. Larger horizons get
    none: the uniform grid resolves them.
    """
    if s0 >= _S0_GRADED:
        return []
    a = math.sqrt(s0)
    u = list(a / _GRADE * np.arange(_GRADE))
    uu = a
    while uu / _GRADE < 1.0 / 256.0:
        u.append(uu)
        uu *= 1.0 + 1.0 / _GRADE
    return u


def _build_u_grid(s0, m, r_max):
    """u nodes covering the requested extent (in horizon-anchored distance,
    with margin for the asymptotic shift): uniform near the horizon (graded
    there first when the horizon is small, see _horizon_nodes), then
    geometric so the resulting r spacing stays near 0.01.

    Also returns the index of the node that anchors the origin shift: the
    last node of the r_max = 8 grid. Each grid is a prefix of every larger
    one (the geometric part is built by repeated multiplication), so the
    shift, and with it the table on common radii, does not depend on r_max.
    """
    def u_reach(extent):
        reach = extent + max(math.asinh(s0), 1.0) + 1.0
        lam_ub = math.sinh(reach) + m + 2.0
        return math.sqrt(lam_ub - s0)

    u_max = u_reach(max(r_max, 8.0))
    u = list(np.linspace(0.0, 1.0, 257))
    near = _horizon_nodes(s0)
    if near:
        u = near + [x for x in u if x >= near[-1] + 0.5 / 256.0]
    ratio = math.exp(0.005)
    uu = u[-1]
    while uu < u_max:
        uu *= ratio
        u.append(uu)
    u = np.asarray(u)
    return u, int(np.searchsorted(u, u_reach(8.0)))


def _hermite(x, f, *derivs):
    """Piecewise Hermite interpolant of the values f and the derivatives
    derivs = (f',) (cubic) or (f', f'') (quintic) at the nodes x.

    Returns each interval's coefficients of t^0, t^1, ... in its local
    variable t = (x - x_i) / h, as _Piecewise evaluates them. They are
    built from the increment f_(i+1) - f_i and the end derivatives scaled
    by powers of h, so no coefficient is a difference of nearly equal
    values of f, and none divides by a power of h.
    """
    h = np.diff(x)
    df = np.diff(f)
    d0, d1 = h * derivs[0][:-1], h * derivs[0][1:]
    if len(derivs) == 1:
        return [f[:-1], d0, 3.0 * df - 2.0 * d0 - d1, d0 + d1 - 2.0 * df]
    c0, c1 = h * h * derivs[1][:-1], h * h * derivs[1][1:]
    return [f[:-1], d0, 0.5 * c0,
            10.0 * df - 6.0 * d0 - 4.0 * d1 - 1.5 * c0 + 0.5 * c1,
            -15.0 * df + 8.0 * d0 + 7.0 * d1 + 1.5 * c0 - c1,
            6.0 * df - 3.0 * d0 - 3.0 * d1 - 0.5 * c0 + 0.5 * c1]


class _Piecewise:
    """Piecewise polynomials of one degree on shared breakpoints x, one per
    coefficient list in `funcs` (as _hermite returns them).

    Column i of `rows` holds x_i, h_i and then, for each power t^k in
    turn, the coefficients of every function, so one np.take gathers all a
    query needs into contiguous rows. One searchsorted on the interior
    breakpoints picks each query's interval, and a query past either end
    extends the end piece. Horner runs in t = (x - x_i) / h_i.
    """

    def __init__(self, x, *funcs):
        self.x = x
        self._inner = x[1:-1]
        self.cols = len(funcs)
        self.rows = np.array([x[:-1], np.diff(x), *(a for ak in zip(*funcs) for a in ak)])

    def __call__(self, xq):
        """The functions at xq, stacked along a new first axis."""
        xq = np.asarray(xq, dtype=float)
        q = xq.ravel()
        g = self.rows.take(self._inner.searchsorted(q, "right"), axis=1)
        t = np.concatenate([(q - g[0]) / g[1]] * self.cols)
        c = g[2:].reshape(-1, t.size)
        p = c[-1] * t
        for ck in c[-2:0:-1]:
            p += ck
            p *= t
        p += c[0]
        return p.reshape((self.cols,) + xq.shape)

    def derivative(self):
        """d/dx of the functions, as a _Piecewise one degree lower."""
        h = self.rows[1]
        c = self.rows[2:].reshape(-1, self.cols, len(h))
        return _Piecewise(self.x, *([k * c[k, j] / h for k in range(1, len(c))]
                                    for j in range(self.cols)))


def build_warp_profile(params: BackgroundParams, r_max: float) -> WarpProfile:
    """Tabulate lambda(r) and the gauge on [r_horizon, r_max].

    For m = 0 everything is closed form and the stored table is a sampled
    view for inspection only. An extent past R_TABLE_LIMIT (r = 140)
    raises TableExtentError before any node is built.
    """
    if not 0 < r_max <= R_TABLE_LIMIT:
        raise TableExtentError(
            f"r_max must lie in (0, {R_TABLE_LIMIT:g}], where the warp tables stay "
            f"finite; got {r_max}")
    m, n = params.m, params.n
    if m == 0.0:
        table_r = np.linspace(0.0, r_max, 513)
        prof = WarpProfile(
            params=params, r_max=float(r_max), s0=0.0, r_horizon=0.0,
            table_r=table_r, table_lam=np.sinh(table_r),
            lam_max=float(np.sinh(r_max)),
        )
        return prof

    s0 = solve_horizon(params)
    u, anchor = _build_u_grid(s0, m, r_max)

    half = 0.5 * np.diff(u)                      # (N-1,)
    mid = 0.5 * (u[:-1] + u[1:])
    upts = mid[:, None] + half[:, None] * _GL_NODES[None, :]    # (N-1, q)
    G = 2.0 / np.sqrt(_h_of_w(upts * upts, s0, m, n))
    lam_pts = s0 + upts * upts
    dr = np.sum(G * _GL_WEIGHTS[None, :], axis=1) * half
    dphi = np.sum(G / lam_pts * _GL_WEIGHTS[None, :], axis=1) * half

    r_nodes = np.concatenate([[0.0], np.cumsum(dr)])
    lam_nodes = s0 + u * u

    # fix the radial origin by the large-r asymptotics lambda ~ sinh(r) at
    # the anchor node: rho = asinh(lambda_anchor) solves the leading order,
    # and the first correction term is stripped before reading off the shift
    a = m / (2.0 * (n + 1.0))
    rho = math.asinh(lam_nodes[anchor])
    shift = rho - r_nodes[anchor] - a * math.sinh(rho) ** (-n) / math.cosh(rho)
    r_nodes = r_nodes + shift

    # psi from the same asymptotic form at and above the anchor, and by the
    # quadrature increments summed downward from it below
    far = r_nodes[anchor:]
    psi_far = 2.0 * np.arctanh(np.exp(-far)) - a * 2.0 ** (n + 2) * np.exp(-(n + 2) * far) / (n + 2)
    psi_near = np.cumsum(np.concatenate([[psi_far[0]], dphi[anchor - 1::-1]]))[:0:-1]
    phi = -np.concatenate([psi_near, psi_far])

    keep = np.searchsorted(r_nodes, r_max)
    keep = min(keep + 1, len(r_nodes) - 1)
    r_nodes = r_nodes[: keep + 1]
    phi = phi[: keep + 1]
    lam_nodes = lam_nodes[: keep + 1]
    u = u[: keep + 1]

    Gn = 2.0 / np.sqrt(_h_of_w(u * u, s0, m, n))
    lam_p = 2.0 * u / Gn                         # dlambda/du / dr/du
    lam_pp = lam_nodes + 0.5 * m * (n - 1) * lam_nodes ** (-n)

    prof = WarpProfile(
        params=params, r_max=float(r_nodes[-1]), s0=float(s0),
        r_horizon=float(r_nodes[0]),
        table_r=r_nodes, table_lam=lam_nodes,
        _by_r=_Piecewise(r_nodes, _hermite(r_nodes, lam_nodes, lam_p, lam_pp),
                         _hermite(r_nodes, phi, 1.0 / lam_nodes, -lam_p / lam_nodes ** 2)),
        _by_phi=_Piecewise(phi, _hermite(phi, r_nodes, lam_nodes, lam_nodes * lam_p),
                           _hermite(phi, lam_nodes, lam_nodes * lam_p,
                                    lam_nodes * (lam_p * lam_p + lam_nodes * lam_pp))),
        _by_u=_Piecewise(u, _hermite(u, r_nodes, Gn)),
        _phi_lo=float(phi[0]), _phi_hi=float(phi[-1]),
        lam_max=float(lam_nodes[-1]),
    )
    return prof


def warp_derivatives(profile: WarpProfile, r):
    """(lambda, lambda', lambda'') at radius r, derivatives from closed forms."""
    lam = profile.lambda_of_r(r)
    return lam, profile.lambda_p_of_lambda(lam), profile.lambda_pp_of_lambda(lam)


def ambient_sectional(profile: WarpProfile, r):
    """Sectional curvatures (K_tan, K_rad) of the background at radius r.

    K_tan is the curvature of planes tangent to the spherical fibers,
    K_rad of planes containing the radial direction; both approach -1 at
    large radius.
    """
    lam, lam_p, lam_pp = warp_derivatives(profile, r)
    k_tan = (1.0 - lam_p * lam_p) / (lam * lam)
    k_rad = -lam_pp / lam
    return k_tan, k_rad
