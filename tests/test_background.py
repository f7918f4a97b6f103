import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import BPoly

from icflow import background as bg
from icflow.errors import MassTooSmall, NegativeMass, NonPositiveDimension, TableExtentError


def bisect_horizon(m, n, tol=1e-12):
    """Independent root oracle for 1 + s^2 - m s^(1-n) = 0."""
    g = lambda s: 1.0 + s * s - m * s ** (1 - n)
    lo, hi = 1e-8, 10.0
    assert g(lo) < 0 < g(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ambient_curvature_components(profile, r):
    """Scalar coefficients (lambda^2 (1 - lambda'^2), -lambda lambda'')
    generating the ambient curvature tensor in the warped coordinate frame."""
    lam, lam_p, lam_pp = bg.warp_derivatives(profile, r)
    return lam * lam * (1.0 - lam_p * lam_p), -lam * lam_pp


class TestHorizon:
    def test_m2_exact(self):
        s0 = bg.solve_horizon(bg.BackgroundParams(m=2.0, n=2))
        assert abs(s0 - 1.0) < 1e-12

    def test_massless(self):
        assert bg.solve_horizon(bg.BackgroundParams(m=0.0, n=2)) == 0.0

    def test_m1_against_bisection_oracle(self):
        s0 = bg.solve_horizon(bg.BackgroundParams(m=1.0, n=2))
        assert abs(s0 - bisect_horizon(1.0, 2)) < 1e-11
        assert abs(s0 - 0.6823278038280193) < 1e-10

    @pytest.mark.parametrize("m,n", [(0.5, 2), (3.0, 3), (1.7, 4)])
    def test_root_property(self, m, n):
        s0 = bg.solve_horizon(bg.BackgroundParams(m=m, n=n))
        assert abs(1.0 + s0 ** 2 - m * s0 ** (1 - n)) < 1e-10

    def test_bad_dimension(self):
        with pytest.raises(NonPositiveDimension):
            bg.BackgroundParams(m=1.0, n=1)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            bg.BackgroundParams(m=-0.5, n=2)

    @pytest.mark.parametrize("m", [5e-324, 1e-300, 1e-17])
    def test_mass_below_minimum(self, m):
        with pytest.raises(MassTooSmall):
            bg.BackgroundParams(m=m, n=2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [bg.M_MIN, 1e-12, 1e-6, 0.0076, 0.01, 1.0, 2.0, 100.0])
    def test_horizon_is_the_nearest_double(self, m, n):
        # no neighbouring double brings 1 + s^2 - m s^(1-n) closer to 0
        s0 = bg.solve_horizon(bg.BackgroundParams(m=m, n=n))
        g = lambda s: abs(1.0 + s * s - m * s ** (1 - n))
        assert g(s0) <= g(np.nextafter(s0, 0.0))
        assert g(s0) <= g(np.nextafter(s0, np.inf))

    def test_gauss_legendre_constants(self):
        from scipy.special import roots_legendre

        nodes, weights = roots_legendre(10)
        assert np.array_equal(bg._GL_NODES, nodes)
        assert np.array_equal(bg._GL_WEIGHTS, weights)

    @pytest.mark.parametrize("m", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_small_horizon_to_full_precision(self, m):
        # s0 (1 + s0^2) = m, the root relation for n = 2
        s0 = bg.solve_horizon(bg.BackgroundParams(m=m, n=2))
        assert abs(s0 * (1.0 + s0 * s0) / m - 1.0) <= 4 * np.finfo(float).eps


@pytest.fixture(scope="module")
def prof_m1():
    return bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=11.0)


@pytest.fixture(scope="module")
def prof_m2():
    return bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), r_max=11.0)


@pytest.fixture(scope="module")
def prof_m0():
    return bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), r_max=11.0)


class TestWarpProfile:
    def test_massless_is_sinh(self, prof_m0):
        r = np.linspace(1e-3, 10.0, 2000)
        assert np.max(np.abs(prof_m0.lambda_of_r(r) - np.sinh(r))) <= 1e-8
        assert abs(prof_m0.lambda_of_r(1.0) - math.sinh(1.0)) < 1e-12

    def test_starts_at_horizon(self, prof_m1, prof_m2):
        assert abs(prof_m1.lambda_of_r(prof_m1.r_horizon) - prof_m1.s0) < 1e-12
        assert abs(prof_m2.lambda_of_r(prof_m2.r_horizon) - 1.0) < 1e-12

    def test_radial_origin_matches_quadrature_oracle(self, prof_m2):
        # oracle: the horizon coordinate equals
        # asinh(s0) - int_s0^inf [g(s)^-1/2 - (1+s^2)^-1/2] ds,
        # with the sqrt singularity at s0 removed by s = s0 + u^2
        from scipy.integrate import quad

        m, n, s0 = 2.0, 2, prof_m2.s0
        f = lambda s: 1.0 / math.sqrt(1 + s * s - m * s ** (1 - n)) - 1.0 / math.sqrt(1 + s * s)
        head, _ = quad(lambda u: 2 * u * f(s0 + u * u), 0.0, 1.0, limit=400)
        tail, _ = quad(f, s0 + 1.0, np.inf, limit=400)
        want = math.asinh(s0) - (head + tail)
        assert abs(prof_m2.r_horizon - want) < 1e-8

    @pytest.mark.parametrize("which", ["m1", "m2"])
    def test_ode_residual(self, which, prof_m1, prof_m2):
        prof = {"m1": prof_m1, "m2": prof_m2}[which]
        assert prof.ode_residual_max() <= 1e-9

    def test_monotone_roundtrip(self, prof_m1):
        r = np.linspace(prof_m1.r_horizon + 0.01, prof_m1.r_max - 0.5, 500)
        lam = prof_m1.lambda_of_r(r)
        assert np.all(np.diff(lam) > 0)
        back = prof_m1.radius_from_lambda(lam)
        assert np.max(np.abs(back - r)) < 1e-9

    def test_asymptotic_expansion_m1(self, prof_m1):
        # remainder after the first correction term scales like sinh^-4,
        # up to the float64 resolution of lambda itself
        eps = np.finfo(float).eps
        for r in np.linspace(5.0, 10.0, 11):
            lam = float(prof_m1.lambda_of_r(r))
            sh = math.sinh(r)
            rem = lam - sh - (1.0 / 6.0) * sh ** -2
            assert abs(rem) <= 5.0 * sh ** -4 + 64.0 * eps * lam

    def test_asymptotic_point_r8(self, prof_m1):
        lam = float(prof_m1.lambda_of_r(8.0))
        sh = math.sinh(8.0)
        assert abs(lam - (sh + sh ** -2 / 6.0)) <= 4.0 * sh ** -4 + 64 * np.finfo(float).eps * lam

    def test_table_extent(self, prof_m1):
        with pytest.raises(TableExtentError):
            prof_m1.lambda_of_r(prof_m1.r_max + 1.0)
        with pytest.raises(TableExtentError):
            prof_m1.lambda_of_r(-0.5)
        with pytest.raises(TableExtentError):
            bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=-2.0)

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_extent_beyond_double_range(self, m):
        # far past the table limit, where lambda^2 (and math.sinh of the
        # m > 0 node grid) would overflow
        with pytest.raises(TableExtentError):
            bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=802.15)
        with pytest.raises(TableExtentError):
            bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=math.nan)


    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_extent_just_past_gauge_limit(self, m):
        # the largest table still builds, finite; one ulp past it is refused
        limit = bg.R_TABLE_LIMIT
        assert limit == 140.0
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), limit)
        if m:
            assert all(np.isfinite(tab.rows).all() for tab in
                       (prof._by_r, prof._by_phi, prof._by_u))
        with pytest.raises(TableExtentError, match="r_max"):
            bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), np.nextafter(limit, 150.0))

    @pytest.mark.parametrize("which", ["m1", "m2"])
    def test_matches_bpoly_reference(self, which, prof_m1, prof_m2):
        # the same Hermite interpolants built by scipy's Bernstein form,
        # from the table's own node values and derivatives
        prof = {"m1": prof_m1, "m2": prof_m2}[which]
        x, lam = prof.table_r, prof.table_lam
        lam_p = prof._by_r.derivative()(x)[0]
        lam_pp = prof.lambda_pp_of_lambda(lam)
        phi = prof.gauge_from_radius(x)
        lam_ref = BPoly.from_derivatives(x, np.stack([lam, lam_p, lam_pp], axis=1))
        phi_ref = BPoly.from_derivatives(
            x, np.stack([phi, 1.0 / lam, -lam_p / lam ** 2], axis=1))
        r = np.linspace(prof.r_horizon, prof.r_max, 20011)
        assert np.max(np.abs(prof.lambda_of_r(r) / lam_ref(r) - 1.0)) <= 4e-15
        assert np.max(np.abs(prof.gauge_from_radius(r) - phi_ref(r))) <= 4e-15

    @pytest.mark.parametrize("m", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_small_mass(self, m):
        # the u nodes are graded on the horizon scale sqrt(s0), so small
        # horizons are resolved: the ODE holds on the table, and lambda(1)
        # matches an ODE solve inward from the asymptotic value at r = 8
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), 9.3)
        assert prof.ode_residual_max() <= 1e-10
        s8 = math.sinh(8.0)
        ref = solve_ivp(lambda r, y: np.sqrt(1.0 + y * y - m / y), (8.0, 1.0),
                        [s8 + m / (6.0 * s8 * s8)], method="DOP853", rtol=1e-13, atol=1e-14)
        assert abs(float(prof.lambda_of_r(1.0)) - ref.y[0, -1]) <= 1e-12

    def test_smallest_mass(self):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=bg.M_MIN, n=2), 9.3)
        assert prof.ode_residual_max() <= 1e-10

    @pytest.mark.parametrize("m", [1.0, 2.0, 1e-6])
    def test_table_independent_of_extent(self, m):
        # the origin shift is anchored at a fixed node, so tables of
        # different extent agree bit for bit on common radii
        params = bg.BackgroundParams(m=m, n=2)
        profs = [bg.build_warp_profile(params, r_max) for r_max in (5.0, 9.3, 11.0)]
        r = np.linspace(profs[0].r_horizon, 5.0, 1001)
        lam = profs[0].lambda_of_r(r)
        phi = profs[0].gauge_from_radius(r)
        for prof in profs[1:]:
            assert np.array_equal(prof.lambda_of_r(r), lam)
            assert np.array_equal(prof.gauge_from_radius(r), phi)


class TestWarpDerivatives:
    def test_horizon_m2(self, prof_m2):
        lam, lam_p, lam_pp = bg.warp_derivatives(prof_m2, prof_m2.r_horizon)
        assert abs(lam - 1.0) < 1e-12
        assert abs(lam_p) < 1e-6          # lambda' vanishes at the horizon
        assert abs(lam_pp - 2.0) < 1e-10

    def test_massless_closed_form(self, prof_m0):
        lam, lam_p, lam_pp = bg.warp_derivatives(prof_m0, 1.0)
        assert abs(lam - math.sinh(1.0)) < 1e-12
        assert abs(lam_p - math.cosh(1.0)) < 1e-12
        assert abs(lam_pp - math.sinh(1.0)) < 1e-12

    def test_m1_at_lambda_2(self, prof_m1):
        lam_p = prof_m1.lambda_p_of_lambda(2.0)
        assert abs(lam_p - math.sqrt(4.5)) < 1e-14
        assert abs(float(lam_p) - 2.121320343559643) < 1e-12


class TestAmbientCurvature:
    def test_massless_sectional(self, prof_m0):
        k_tan, k_rad = bg.ambient_sectional(prof_m0, 1.3)
        assert abs(k_tan + 1.0) < 1e-12
        assert abs(k_rad + 1.0) < 1e-12

    def test_m1_tangential_closed_form(self, prof_m1):
        r = prof_m1.radius_from_lambda(2.0)
        k_tan, _ = bg.ambient_sectional(prof_m1, r)
        assert abs(k_tan - (-0.875)) < 1e-10

    def test_deviation_matches_closed_form(self, prof_m1):
        r = np.linspace(0.5, 10.0, 200)
        lam = prof_m1.lambda_of_r(r)
        k_tan, _ = bg.ambient_sectional(prof_m1, r)
        assert np.max(np.abs(k_tan + 1.0 - lam ** -3)) <= 1e-10

    def test_decay_slope(self, prof_m1):
        r = np.linspace(4.0, 9.0, 60)
        k_tan, _ = bg.ambient_sectional(prof_m1, r)
        slope = np.polyfit(r, np.log(np.abs(k_tan + 1.0)), 1)[0]
        n = prof_m1.params.n
        assert abs(slope - (-(n + 1))) <= 0.02 * (n + 1)

    def test_components_massless(self, prof_m0):
        tang, rad = ambient_curvature_components(prof_m0, 1.0)
        sh = math.sinh(1.0)
        assert abs(tang - (-sh ** 4)) < 1e-10
        assert abs(rad - (-sh ** 2)) < 1e-10

    def test_components_horizon_m2(self, prof_m2):
        tang, rad = ambient_curvature_components(prof_m2, prof_m2.r_horizon)
        assert abs(tang - 1.0) < 1e-8
        assert abs(rad - (-2.0)) < 1e-8

    def test_tangential_normalized_limit(self, prof_m1):
        r = 10.0
        lam = prof_m1.lambda_of_r(r)
        tang, _ = ambient_curvature_components(prof_m1, r)
        assert abs(tang / lam ** 4 + 1.0) < 1e-3


class TestGauge:
    def test_gauge_massless_closed_form(self, prof_m0):
        # oracle: integral_r^inf ds/sinh(s) = -log tanh(r/2)
        r = np.linspace(0.2, 8.0, 50)
        want = np.log(np.tanh(r / 2.0))
        got = prof_m0.gauge_from_radius(r)
        assert np.max(np.abs(got - want)) < 1e-12
        back = prof_m0.radius_from_gauge(got)
        assert np.max(np.abs(back - r)) < 1e-9

    def test_gauge_massless_far_field(self):
        # phi ~ -2 e^(-r) keeps its relative precision where log tanh(r/2)
        # has lost every digit
        prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 60.0)
        r = np.linspace(20.0, 60.0, 41)
        phi = prof.gauge_from_radius(r)
        assert np.max(np.abs(phi / (-2.0 * np.exp(-r)) - 1.0)) <= 1e-15
        assert np.max(np.abs(prof.radius_from_gauge(phi) - r)) <= 1e-13

    def test_gauge_roundtrip_m1(self, prof_m1):
        r = np.linspace(prof_m1.r_horizon + 0.01, prof_m1.r_max - 0.5, 400)
        phi = prof_m1.gauge_from_radius(r)
        back = prof_m1.radius_from_gauge(phi)
        assert np.max(np.abs(back - r)) < 1e-11
        phi2 = prof_m1.gauge_from_radius(back)
        assert np.max(np.abs(phi2 - phi)) < 1e-11

    @pytest.mark.parametrize("m", [0.0, 1.0, 0.01, 2.0, 1e-6])
    def test_gauge_roundtrip_at_limit(self, m):
        # the gauge is anchored at infinity, so the round trip keeps r to
        # 1e-12 relative (absolute below r = 1) up to the largest extent;
        # anchored at a finite base radius it resolved r = 18.3 only to 3e-8
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), bg.R_TABLE_LIMIT)
        r = np.linspace(max(prof.r_horizon, 0.0) + 0.01, bg.R_TABLE_LIMIT, 4001)
        back = prof.radius_from_gauge(prof.gauge_from_radius(r))
        assert np.max(np.abs(back - r) / np.maximum(r, 1.0)) <= 1e-12

    @pytest.mark.parametrize("m", [1.0, 2.0, 0.01])
    def test_gauge_far_field_closed_form(self, m):
        # at and above the origin-shift anchor the table's gauge is the
        # asymptotic closed form; the table reproduces it between its nodes
        n = 2
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=n), 40.0)
        r = np.linspace(12.0, 40.0, 2001)
        a = m / (2.0 * (n + 1))
        psi = 2.0 * np.arctanh(np.exp(-r)) - a * 2.0 ** (n + 2) * np.exp(-(n + 2) * r) / (n + 2)
        assert np.max(np.abs(prof.gauge_from_radius(r) / -psi - 1.0)) <= 1e-13

    @pytest.mark.parametrize("m,tol", [(1.0, 2e-14), (2.0, 2e-14), (100.0, 2e-14), (1e-6, 1e-13)])
    def test_fused_lookup_matches_composition(self, m, tol):
        # lambda(phi) from the gauge table agrees with lambda(r(phi)) over
        # the whole table, up to the rounding of r
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), 40.0)
        phi = np.linspace(prof._phi_lo, prof._phi_hi, 100001)
        r, lam = prof.warp_from_gauge(phi)
        assert np.array_equal(r, prof.radius_from_gauge(phi))
        assert np.max(np.abs(lam / prof.lambda_of_r(r) - 1.0)) <= tol

    def test_fused_lookup_near_a_resolved_horizon(self):
        # m = 0.01 has the largest ODE residual of the ungraded horizons;
        # next to the horizon lambda(phi) holds (from a quadrature oracle
        # in u = sqrt(lambda - s0)) to 5e-12 relative, where lambda(r) is
        # off by 1.3e-11
        from scipy.integrate import quad

        m, n = 0.01, 2
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=n), 11.0)
        s0 = prof.s0
        dr_du = lambda u: 2.0 / math.sqrt(bg._h_of_w(u * u, s0, m, n))
        worst = 0.0
        for u in np.linspace(0.001, 0.3, 40):
            phi = prof._phi_lo + quad(lambda x: dr_du(x) / (s0 + x * x), 0.0, u,
                                      epsabs=0.0, epsrel=1e-13, limit=200)[0]
            _, lam = prof.warp_from_gauge(phi)
            worst = max(worst, abs(lam / (s0 + u * u) - 1.0))
        assert worst <= 5e-12

    def test_gauge_monotone(self, prof_m1):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = np.sort(rng.uniform(prof_m1.r_horizon + 0.05, 9.0, size=2))
            if a == b:
                continue
            pa = prof_m1.gauge_from_radius(a)
            pb = prof_m1.gauge_from_radius(b)
            assert pa < pb

    def test_gauge_extent_error(self, prof_m0, prof_m1):
        # a positive gauge lies past r = infinity; half the table's top
        # value lies about log 2 past r_max
        for prof in (prof_m0, prof_m1):
            with pytest.raises(TableExtentError):
                prof.radius_from_gauge(np.array([50.0]))
            top = float(prof.gauge_from_radius(prof.r_max))
            with pytest.raises(TableExtentError):
                prof.radius_from_gauge(np.array([0.5 * top]))
