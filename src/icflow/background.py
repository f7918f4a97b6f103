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

The flow reads the profile through two tables. The radius table
indexes lambda and phi by r, which places the start state. The gauge
table indexes r and lambda by phi: dr/dphi = lambda, dlambda/dphi =
lambda lambda', and the second derivatives follow in closed form. Each
lookup evaluates one function: a stage reads lambda by phi alone, and r
by phi is looked up only where a radius is read.

Every accessor judges its argument against one range before it looks
anything up, and refuses a value outside it, NaN included. The gauge
range is narrowed at build to the phi whose r lies in the radius range,
so one test on phi refuses every gauge past either end of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, TableExtentError, is_finite_number, is_integer

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

# horizons below _S0_GRADED get graded u nodes, _GRADE per horizon scale;
# at s0 = 2^-4 the graded spacing sqrt(s0) / 64 equals the uniform 1/256
_S0_GRADED = 2.0 ** -4
_GRADE = 64

# The largest table extent. Every table coefficient is a node value times
# a power of its node spacing, so nothing divides by a small spacing; the
# first overflow is the node value d^2 lambda / d phi^2 ~ lambda^3 of the
# gauge table, near r = 237.
R_TABLE_LIMIT = 140.0


def _bisect(below, lo, hi):
    """Adjacent doubles lo < hi with below(lo) true and below(hi) false,
    bisected from such a bracket."""
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


# the lower end of every massless radius range: the smallest double r whose
# gauge -2 artanh(e^(-r)) is finite, that is with e^(-r) < 1 (about 4.5e-17)
_R_MIN_MASSLESS = _bisect(lambda r: np.exp(-r) == 1.0, 2.0 ** -60, 2.0 ** -50)[1]


@dataclass(frozen=True)
class BackgroundParams:
    """Mass and dimension of the background."""

    m: float
    n: int = 2

    def __post_init__(self):
        if not (is_integer(self.n) and self.n >= 2):
            raise ConfigError(f"sphere dimension must be an integer >= 2, got {self.n!r}")
        if not is_finite_number(self.m):
            raise ConfigError(f"mass parameter must be finite and real, got {self.m!r}")
        if self.m < 0:
            raise ConfigError(f"mass parameter must be >= 0, got {self.m}")
        if 0 < self.m < M_MIN:
            raise ConfigError(f"a positive mass must be at least {M_MIN:.3g}, got {self.m}")


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
    lo, hi = _bisect(lambda s: g(s) <= 0.0, lo, hi)
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


def _judge(x, lo, hi, quantity):
    """The float array of x, after one min and one max have found every
    entry inside the finite range [lo, hi]; a NaN fails the comparison, so
    a non-finite entry is refused too (TableExtentError naming the
    quantity)."""
    x = np.asarray(x, dtype=float)
    if x.size and not (lo <= x.min() and x.max() <= hi):
        raise TableExtentError(f"{quantity} outside tabulated range")
    return x


@dataclass
class WarpProfile:
    """The warp factor lambda and the radial gauge phi, with closed-form
    derivative accessors.

    Immutable after construction; all accessors are pure and accept
    scalars or arrays. build_warp_profile fixes four lookups, each of one
    function, and the range of each argument: lambda and phi by r, which
    place the start state, and r and lambda by phi, of which every stage
    reads lambda. For m > 0 they are quintic Hermite tables; for m = 0
    they are the closed forms sinh, -2 artanh(e^(-r)), -log tanh(-phi/2)
    and the sinh of the last. Each accessor is one range test (_judge)
    and one lookup. The ranges let slivers of about 1e-12 through, across
    which a table extends its end piece. The radius range is
    [r_horizon, r_max] for m > 0; for m = 0 it starts at the smallest r
    whose gauge is finite (about 4.5e-17). The gauge range holds exactly
    the phi of that sliver-wide range whose r lies in the radius range.
    """

    params: BackgroundParams
    r_max: float
    s0: float
    r_horizon: float
    table_r: np.ndarray
    table_lam: np.ndarray
    _lam_by_r: Callable = field(repr=False)
    _phi_by_r: Callable = field(repr=False)
    _r_by_phi: Callable = field(repr=False)
    _lam_by_phi: Callable = field(repr=False)
    _r_range: tuple = field(repr=False)
    _phi_range: tuple = field(repr=False)

    # -- warp factor and derivatives -------------------------------------

    def lambda_of_r(self, r):
        return self._lam_by_r(_judge(r, *self._r_range, "radius"))

    def lambda_from_gauge(self, phi):
        """lambda at the gauge phi: the one lookup of every stage."""
        return self._lam_by_phi(_judge(phi, *self._phi_range, "gauge value"))

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

    # -- radial gauge -----------------------------------------------------

    def gauge_from_radius(self, r):
        """phi = -integral_r^infinity ds/lambda(s)."""
        return self._phi_by_r(_judge(r, *self._r_range, "radius"))

    def radius_from_gauge(self, phi):
        """Inverse of gauge_from_radius."""
        return self._r_by_phi(_judge(phi, *self._phi_range, "gauge value"))

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
            lam = self._lam_by_r(pts)
            d = self._lam_by_r.derivative()(pts)
        target = 1.0 + lam * lam - m * lam ** (1 - n)
        return float(np.max(np.abs(d * d - target) / (1.0 + lam * lam)))


def _horizon_nodes(s0):
    """u nodes below 1/4 that resolve the horizon scale sqrt(s0) of small
    horizons (s0 < 2^-4): uniform with spacing sqrt(s0) / 64 up to
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


def _hermite(x, f, fp, fpp):
    """Piecewise quintic Hermite interpolant of the values f and the
    derivatives f', f'' at the nodes x.

    Returns each interval's coefficients of t^0, t^1, ... in its local
    variable t = (x - x_i) / h, as _Piecewise evaluates them. They are
    built from the increment f_(i+1) - f_i and the end derivatives scaled
    by powers of h, so no coefficient is a difference of nearly equal
    values of f, and none divides by a power of h.
    """
    h = np.diff(x)
    df = np.diff(f)
    d0, d1 = h * fp[:-1], h * fp[1:]
    c0, c1 = h * h * fpp[:-1], h * h * fpp[1:]
    return [f[:-1], d0, 0.5 * c0,
            10.0 * df - 6.0 * d0 - 4.0 * d1 - 1.5 * c0 + 0.5 * c1,
            -15.0 * df + 8.0 * d0 + 7.0 * d1 + 1.5 * c0 - c1,
            6.0 * df - 3.0 * d0 - 3.0 * d1 - 0.5 * c0 + 0.5 * c1]


class _Piecewise:
    """A piecewise polynomial on the breakpoints x, from one coefficient
    list (as _hermite returns it).

    Column i of `rows` holds x_i, h_i and then the coefficients of t^0,
    t^1, ..., so one np.take gathers all a query needs into contiguous
    rows. One searchsorted on the interior breakpoints picks each query's
    interval, and a query past either end extends the end piece. Horner
    runs in t = (x - x_i) / h_i.
    """

    def __init__(self, x, coeffs):
        self.x = x
        self._inner = x[1:-1]
        self.rows = np.array([x[:-1], np.diff(x), *coeffs])

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        g = self.rows.take(self._inner.searchsorted(xq, "right"), axis=1)
        t = (xq - g[0]) / g[1]
        p = g[-1] * t
        for ck in g[-2:2:-1]:
            p += ck
            p *= t
        p += g[2]
        return p[()]      # a scalar query gives a scalar

    def derivative(self):
        """d/dx, as a _Piecewise one degree lower."""
        h, c = self.rows[1], self.rows[2:]
        return _Piecewise(self.x, [k * c[k] / h for k in range(1, len(c))])


# the m = 0 lookups: closed forms
def _massless_gauge(r):
    return -2.0 * np.arctanh(np.exp(-r))


def _massless_radius(phi):
    return -np.log(np.tanh(-0.5 * phi))


def _massless_lambda_by_gauge(phi):
    return np.sinh(_massless_radius(phi))


# where _last_inside probes its bracket, as fractions of it
_PROBES = np.linspace(0.0, 1.0, 257)


def _last_inside(radius, r_range, a, b):
    """The last gauge from a toward b whose radius lies in r_range, for
    radius monotone and radius(a) inside. Each round looks radius up at
    257 evenly spaced doubles of the bracket at once and keeps the two
    across which it leaves r_range, so a bracket of 2^k doubles takes
    about k / 8 lookups."""
    while True:
        x = a + (b - a) * _PROBES
        x[-1] = b
        r = radius(x)
        ok = (r_range[0] <= r) & (r <= r_range[1])
        if ok[-1]:
            return float(b)
        i = int(np.argmin(ok))
        a, b = x[i - 1], x[i]
        if np.nextafter(a, b) == b:
            return float(a)


# the lower end of every massless gauge range: below it tanh(-phi/2)
# rounds to 1 and r to 0, under the radius range (as it does below -40)
_PHI_MIN_MASSLESS = _last_inside(_massless_radius, (_R_MIN_MASSLESS, math.inf), -1.0, -40.0)


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
        r_range = (_R_MIN_MASSLESS, r_max * (1 + 1e-14))
        top = float(_massless_gauge(r_max))
        return WarpProfile(
            params=params, r_max=float(r_max), s0=0.0, r_horizon=0.0,
            table_r=table_r, table_lam=np.sinh(table_r),
            _lam_by_r=np.sinh, _phi_by_r=_massless_gauge, _r_by_phi=_massless_radius,
            _lam_by_phi=_massless_lambda_by_gauge,
            _r_range=r_range,
            _phi_range=(_PHI_MIN_MASSLESS, _last_inside(_massless_radius, r_range,
                                                        top, top * (1 - 1e-12))),
        )

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

    r_lo, r_hi = float(r_nodes[0]), float(r_nodes[-1])
    r_range = (r_lo - 1e-12, r_hi * (1 + 1e-14))
    r_by_phi = _Piecewise(phi, _hermite(phi, r_nodes, lam_nodes, lam_nodes * lam_p))
    # a sliver of 1e-12 past each end node, narrowed to the phi whose r lies
    # in r_range; the end nodes map to r_lo and r_hi, and phi[-1] is about
    # -2 e^(-r_max), so its sliver is relative
    phi_range = (_last_inside(r_by_phi, r_range, float(phi[0]), float(phi[0]) - 1e-12),
                 _last_inside(r_by_phi, r_range, float(phi[-1]), float(phi[-1]) * (1 - 1e-12)))
    return WarpProfile(
        params=params, r_max=r_hi, s0=float(s0), r_horizon=r_lo,
        table_r=r_nodes, table_lam=lam_nodes,
        _lam_by_r=_Piecewise(r_nodes, _hermite(r_nodes, lam_nodes, lam_p, lam_pp)),
        _phi_by_r=_Piecewise(r_nodes, _hermite(r_nodes, phi, 1.0 / lam_nodes,
                                               -lam_p / lam_nodes ** 2)),
        _r_by_phi=r_by_phi,
        _lam_by_phi=_Piecewise(phi, _hermite(phi, lam_nodes, lam_nodes * lam_p,
                                             lam_nodes * (lam_p * lam_p + lam_nodes * lam_pp))),
        _r_range=r_range,
        _phi_range=phi_range,
    )


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
