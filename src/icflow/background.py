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
[r_horizon, r_anchor], up to the node near r = 10 that anchors the shift.

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
m > 0, psi at the anchor comes from the same asymptotic form of lambda,

    psi = 2 artanh(e^(-r)) - b e^(-(n+2) r),    a = m / (2 (n + 1)),  b = a 2^(n+2) / (n + 2),

and below it from the quadrature increments summed downward. Above the
anchor this closed far field is the profile: lambda = sinh r + a
sinh(r)^(-n), and r = r0 - sinh(r0) b e^(-(n+2) r0), r0 = -log tanh(psi/2).

The flow reads four lookups of one function each: lambda and phi by r
place the start state, a stage reads lambda by phi (dr/dphi = lambda),
and r by phi is read only at snapshots. Each first judges its argument
against one range, NaN included; the gauge range is narrowed at build to
the phi whose r lies in the radius range, which ends at the cap r_max,
each of its ends bisected to adjacent doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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

# The largest radius a profile accepts, a cap well inside the first
# overflow: no array of a run grows faster than lambda^2, and one
# evaluation, snapshot and rk2 step stay finite under -W error up to a
# largest radius of 354.9, where the quotient's 4 S_2 overflows, and
# lambda^2 at 355.6 (both grid modes, every F, m in {0, 1, 10}).
R_MAX = 177.0


def _bisect(at_lo, lo, hi):
    """Adjacent doubles lo and hi with at_lo(lo) true and at_lo(hi) false,
    bisected from such a bracket; lo may lie above hi."""
    while lo != 0.5 * (lo + hi) != hi:
        mid = 0.5 * (lo + hi)
        if at_lo(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _last_inside(inside, a, b):
    """The last double from a toward b that is inside, for inside(a) true
    and monotone along the bracket: b itself if it is inside, else the end
    bisected to adjacent doubles."""
    return float(b) if inside(b) else float(_bisect(inside, a, b)[0])


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
        # one value each, as equal params share a profile (and checkpoint)
        object.__setattr__(self, "m", float(self.m) + 0.0)
        object.__setattr__(self, "n", int(self.n))


def _g(s, m, n):
    """1 + s^2 - m s^(1-n): lambda'^2 as a function of lambda = s."""
    g = 1.0 + s * s
    return g - m * s ** (1 - n) if m != 0.0 else g


def _lambda_pp(lam, m, n):
    """lambda'' as a function of lambda."""
    return lam + 0.5 * m * (n - 1) * lam ** (-n) if m != 0.0 else lam


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


def _radius_bound(phi) -> float:
    """-log tanh(-phi/2), which bounds the radius of phi at every m >= 0."""
    s = math.tanh(-0.5 * phi) if phi < 0.0 else 0.0
    return -math.log(s) if s > 0.0 else math.inf


class _Joined:
    """One function of the profile: the table `near` up to `anchor` and the
    closed far field `far` above it. A query's min and max pick the piece,
    so only a query that straddles the anchor reads both."""

    def __init__(self, near, far=None, anchor=math.inf):
        self.near, self.far, self.anchor = near, far, anchor

    def __call__(self, x, lo, hi):
        if hi <= self.anchor:
            return self.near(x)
        if lo > self.anchor:
            return self.far(x)
        out, below = np.empty_like(x), x <= self.anchor
        out[below], out[~below] = self.near(x[below]), self.far(x[~below])
        return out


@dataclass(frozen=True, eq=False)
class WarpProfile:
    """The warp factor lambda and the radial gauge phi, with closed-form
    derivative accessors; frozen, and shared by the callers of
    build_warp_profile with one mass and cap.

    Four lookups of one function each take scalars or arrays: lambda and
    phi by r, which place the start state, and r and lambda by phi, of
    which a stage reads lambda. Each accessor is one range test (_judge)
    and one lookup. The radius range is [r_horizon, r_max] with a sliver
    of 1e-12 below the horizon (at m = 0 it starts at the smallest r whose
    gauge is finite, about 4.5e-17); the gauge range holds exactly the phi
    of a sliver-wide range whose r lies in it, its ends bisected to
    adjacent doubles at build.
    """

    params: BackgroundParams
    r_max: float
    s0: float
    r_horizon: float
    table_r: np.ndarray
    table_lam: np.ndarray
    _lam_by_r: _Joined = field(repr=False)
    _phi_by_r: _Joined = field(repr=False)
    _r_by_phi: _Joined = field(repr=False)
    _lam_by_phi: _Joined = field(repr=False)
    _r_range: tuple = field(repr=False)
    _phi_range: tuple = field(repr=False)

    def _judge(self, x, by_radius):
        """The float array of x with its min and max, after they have found
        every entry inside the radius range (by_radius) or the gauge range;
        a NaN fails the comparison. A TableExtentError names the quantity,
        and the radius past the top."""
        x = np.asarray(x, dtype=float)
        bottom, top = self._r_range if by_radius else self._phi_range
        lo, hi = (x.min(), x.max()) if x.size else (bottom, bottom)
        if not (bottom <= lo and hi <= top):
            message = f"{'radius' if by_radius else 'gauge value'} outside tabulated range"
            if hi > top:
                r = hi if by_radius else _radius_bound(hi)
                message += f": radius {r:.6g} past r_max = {self.r_max:g}"
            raise TableExtentError(message)
        return x, lo, hi

    # -- warp factor and derivatives -------------------------------------

    def lambda_of_r(self, r):
        return self._lam_by_r(*self._judge(r, True))

    def lambda_from_gauge(self, phi):
        """lambda at the gauge phi: the one lookup of every stage."""
        return self._lam_by_phi(*self._judge(phi, False))

    def lambda_p_of_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        return np.sqrt(np.maximum(_g(lam, self.params.m, self.params.n), 0.0))

    def lambda_pp_of_lambda(self, lam):
        return _lambda_pp(np.asarray(lam, dtype=float), self.params.m, self.params.n)

    # -- radial gauge -----------------------------------------------------

    def gauge_from_radius(self, r):
        """phi = -integral_r^infinity ds/lambda(s)."""
        return self._phi_by_r(*self._judge(r, True))

    def radius_from_gauge(self, phi):
        """Inverse of gauge_from_radius."""
        return self._r_by_phi(*self._judge(phi, False))

    # -- self checks ------------------------------------------------------

    def ode_residual_max(self) -> float:
        """Largest defect of the table against the first-order warp
        equation at its nodes and midpoints, relative to 1 + lambda^2 (the
        absolute residual is below float resolution once lambda is large).
        """
        m, n = self.params.m, self.params.n
        if m == 0.0:        # closed form
            return 0.0
        r = self.table_r
        pts = np.concatenate([r[1:], 0.5 * (r[:-1] + r[1:])])
        lam = self._lam_by_r.near(pts)
        d = self._lam_by_r.near.derivative()(pts)
        return float(np.max(np.abs(d * d - _g(lam, m, n)) / (1.0 + lam * lam)))


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


def _build_u_grid(s0, m):
    """u nodes from the horizon (graded there when it is small, see
    _horizon_nodes; uniform above) and then geometric, so that the r
    spacing stays near 0.01, up to the anchor: the first node whose lambda
    reaches sinh(8 + max(asinh s0, 1) + 1) + m + 2 (r = 10.003 at m = 1)."""
    reach = 8.0 + max(math.asinh(s0), 1.0) + 1.0
    u_max = math.sqrt(math.sinh(reach) + m + 2.0 - s0)
    u = list(np.linspace(0.0, 1.0, 257))
    near = _horizon_nodes(s0)
    if near:
        u = near + [x for x in u if x >= near[-1] + 0.5 / 256.0]
    ratio = math.exp(0.005)
    uu = u[-1]
    while uu < u_max:
        uu *= ratio
        u.append(uu)
    return np.asarray(u)


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


# the lower end of every massless gauge range: below it tanh(-phi/2)
# rounds to 1 and r to 0, under the radius range (as it does below -40)
_PHI_MIN_MASSLESS = _last_inside(lambda phi: _massless_radius(phi) >= _R_MIN_MASSLESS,
                                 -1.0, -40.0)


@functools.lru_cache(maxsize=8)
def build_warp_profile(params: BackgroundParams, r_max: float = R_MAX) -> WarpProfile:
    """The warp profile of the background params, accepting radii up to
    the cap r_max.

    For m > 0 the quadrature table covers [r_horizon, r_anchor], with
    r_anchor near 10, and the closed far field the radii above it; m = 0
    is closed form throughout, with no table. So the lookups depend on the
    mass alone, and the cap r_max, which must lie in (r_horizon, R_MAX],
    only ends the radius range. One profile is built per (params, r_max)
    and process, and shared.
    """
    m, n = params.m, params.n
    if m == 0.0:
        s0 = r_lo = 0.0
        table_r = table_lam = np.empty(0)
        lam_by_r, phi_by_r = _Joined(np.sinh), _Joined(_massless_gauge)
        r_by_phi = _Joined(_massless_radius)
        lam_by_phi = _Joined(lambda phi: np.sinh(_massless_radius(phi)))
    else:
        s0 = solve_horizon(params)
        u = _build_u_grid(s0, m)

        def dr_du(u):
            return 2.0 / np.sqrt(_h_of_w(u * u, s0, m, n))

        half = 0.5 * np.diff(u)                      # (N-1,)
        mid = 0.5 * (u[:-1] + u[1:])
        upts = mid[:, None] + half[:, None] * _GL_NODES[None, :]    # (N-1, q)
        G = dr_du(upts)
        lam_pts = s0 + upts * upts
        dr = np.sum(G * _GL_WEIGHTS[None, :], axis=1) * half
        dphi = np.sum(G / lam_pts * _GL_WEIGHTS[None, :], axis=1) * half

        table_r = np.concatenate([[0.0], np.cumsum(dr)])
        table_lam = s0 + u * u

        # the radial origin from lambda ~ sinh(r) at the anchor: rho =
        # asinh(lambda_anchor) solves the leading order, less the first
        # correction term
        a = m / (2.0 * (n + 1.0))
        b = a * 2.0 ** (n + 2) / (n + 2)
        rho = math.asinh(table_lam[-1])
        table_r = table_r + (rho - table_r[-1] - a * math.sinh(rho) ** (-n) / math.cosh(rho))
        r_lo = float(table_r[0])

        # the closed far field: psi, its inverse to first order in b, lambda
        def far_psi(r):
            return -_massless_gauge(r) - b * np.exp(-(n + 2) * r)

        def far_radius(phi):
            r0 = _massless_radius(phi)
            return r0 - np.sinh(r0) * b * np.exp(-(n + 2) * r0)

        def far_lambda(r):
            s = np.sinh(r)
            return s + a * s ** (-n)

        # psi from the far field at the anchor, and below it by the
        # quadrature increments summed downward
        phi = -np.cumsum(np.concatenate([far_psi(table_r[-1:]), dphi[::-1]]))[::-1]

        lam_p = 2.0 * u / dr_du(u)                   # dlambda/du / dr/du
        lam_pp = _lambda_pp(table_lam, m, n)
        lam_by_r = _Joined(_Piecewise(table_r, _hermite(table_r, table_lam, lam_p, lam_pp)),
                           far_lambda, table_r[-1])
        phi_by_r = _Joined(_Piecewise(table_r, _hermite(table_r, phi, 1.0 / table_lam,
                                                        -lam_p / table_lam ** 2)),
                           lambda r: -far_psi(r), table_r[-1])
        r_by_phi = _Joined(_Piecewise(phi, _hermite(phi, table_r, table_lam, table_lam * lam_p)),
                           far_radius, phi[-1])
        lam_by_phi = _Joined(
            _Piecewise(phi, _hermite(phi, table_lam, table_lam * lam_p,
                                     table_lam * (lam_p * lam_p + table_lam * lam_pp))),
            lambda x: far_lambda(far_radius(x)), phi[-1])

    if not r_lo < r_max <= R_MAX:
        raise TableExtentError(f"r_max must lie in ({r_lo:g}, R_MAX = {R_MAX:g}], where "
                               f"a snapshot stays finite; got radius {r_max}")
    # a sliver of 1e-12 past each end of phi, narrowed by bisection to the
    # phi whose r lies in r_range; the cap's phi is about -2 e^(-r_max), so
    # its sliver is relative
    r_range = (_R_MIN_MASSLESS if m == 0.0 else r_lo - 1e-12, r_max * (1 + 1e-14))
    inside = lambda x: r_range[0] <= r_by_phi(x, x, x) <= r_range[1]
    top = float(phi_by_r(np.float64(r_max), r_max, r_max))
    bottom = _PHI_MIN_MASSLESS if m == 0.0 else _last_inside(inside, phi[0], phi[0] - 1e-12)
    table_r.flags.writeable = table_lam.flags.writeable = False   # shared by every caller
    return WarpProfile(
        params=params, r_max=float(r_max), s0=float(s0), r_horizon=r_lo,
        table_r=table_r, table_lam=table_lam,
        _lam_by_r=lam_by_r, _phi_by_r=phi_by_r, _r_by_phi=r_by_phi, _lam_by_phi=lam_by_phi,
        _r_range=r_range,
        _phi_range=(bottom, _last_inside(inside, top, top * (1 - 1e-12))),
    )


def ambient_sectional(profile: WarpProfile, r):
    """Sectional curvatures (K_tan, K_rad) of the background at radius r.

    K_tan is the curvature of planes tangent to the spherical fibers,
    K_rad of planes containing the radial direction; both approach -1 at
    large radius.
    """
    lam = profile.lambda_of_r(r)
    lam_p = profile.lambda_p_of_lambda(lam)
    k_tan = (1.0 - lam_p * lam_p) / (lam * lam)
    k_rad = -profile.lambda_pp_of_lambda(lam) / lam
    return k_tan, k_rad
