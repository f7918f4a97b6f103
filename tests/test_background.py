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
        # far past the gauge limit, where lambda^2 (and math.sinh of the
        # m > 0 node grid) would overflow
        with pytest.raises(TableExtentError):
            bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=802.15)
        with pytest.raises(TableExtentError):
            bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=math.nan)


    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_extent_just_past_gauge_limit(self, m):
        limit = bg.R_GAUGE_LIMIT
        assert 18.3 < limit < 18.4
        with pytest.raises(TableExtentError, match="r_max"):
            bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), np.nextafter(limit, 20.0))

    @pytest.mark.parametrize("which", ["m1", "m2"])
    def test_matches_bpoly_reference(self, which, prof_m1, prof_m2):
        # the same Hermite interpolants built by scipy's Bernstein form
        prof = {"m1": prof_m1, "m2": prof_m2}[which]
        x, lam = prof.table_r, prof.table_lam
        _, lam_p, lam_pp = bg.warp_derivatives(prof, x)
        phihat = prof.gauge_primitive(x)
        lam_ref = BPoly.from_derivatives(x, np.stack([lam, lam_p, lam_pp], axis=1))
        phi_ref = BPoly.from_derivatives(
            x, np.stack([phihat, 1.0 / lam, -lam_p / lam ** 2], axis=1))
        r = np.linspace(prof.r_horizon, prof.r_max, 20011)
        assert np.max(np.abs(prof.lambda_of_r(r) / lam_ref(r) - 1.0)) <= 4e-15
        assert np.max(np.abs(prof.gauge_primitive(r) - phi_ref(r))) <= 4e-15

    @pytest.mark.parametrize("m", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_small_mass(self, m):
        # the u nodes are graded on the horizon scale sqrt(s0), so small
        # horizons are resolved: the ODE holds on the table, and lambda(1)
        # matches an ODE solve inward from the asymptotic value at r = 8
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), 9.3)
        assert prof.ode_residual_max() <= 1e-9
        s8 = math.sinh(8.0)
        ref = solve_ivp(lambda r, y: np.sqrt(1.0 + y * y - m / y), (8.0, 1.0),
                        [s8 + m / (6.0 * s8 * s8)], method="DOP853", rtol=1e-13, atol=1e-14)
        assert abs(float(prof.lambda_of_r(1.0)) - ref.y[0, -1]) <= 1e-12

    def test_smallest_mass(self):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=bg.M_MIN, n=2), 9.3)
        assert prof.ode_residual_max() <= 1e-9

    @pytest.mark.parametrize("m", [1.0, 2.0, 1e-6])
    def test_table_independent_of_extent(self, m):
        # the origin shift is anchored at a fixed node, so tables of
        # different extent agree bit for bit on common radii
        params = bg.BackgroundParams(m=m, n=2)
        profs = [bg.build_warp_profile(params, r_max) for r_max in (5.0, 9.3, 11.0)]
        r = np.linspace(profs[0].r_horizon, 5.0, 1001)
        lam = profs[0].lambda_of_r(r)
        phihat = profs[0].gauge_primitive(r)
        for prof in profs[1:]:
            assert np.array_equal(prof.lambda_of_r(r), lam)
            assert np.array_equal(prof.gauge_primitive(r), phihat)


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
        # oracle: integral of 1/sinh is log tanh(r/2)
        c = 1.0
        r = np.linspace(0.2, 8.0, 50)
        want = np.log(np.tanh(r / 2.0)) - math.log(math.tanh(c / 2.0))
        got = prof_m0.gauge_from_radius(r, c)
        assert np.max(np.abs(got - want)) < 1e-12
        back = prof_m0.radius_from_gauge(got, c)
        assert np.max(np.abs(back - r)) < 1e-9

    def test_gauge_roundtrip_m1(self, prof_m1):
        c = 1.5
        r = np.linspace(prof_m1.r_horizon + 0.01, prof_m1.r_max - 0.5, 400)
        phi = prof_m1.gauge_from_radius(r, c)
        back = prof_m1.radius_from_gauge(phi, c)
        assert np.max(np.abs(back - r)) < 1e-11
        phi2 = prof_m1.gauge_from_radius(back, c)
        assert np.max(np.abs(phi2 - phi)) < 1e-11

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_gauge_roundtrip_at_limit(self, m):
        # at the largest extent one rounding of the gauge, eps * lambda,
        # moves the radius by 1e-8; the round trip stays within a few of those
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), bg.R_GAUGE_LIMIT)
        c = 1.5
        r = np.linspace(max(prof.r_horizon, 0.0) + 0.01, bg.R_GAUGE_LIMIT, 2001)
        back = prof.radius_from_gauge(prof.gauge_from_radius(r, c), c)
        assert np.max(np.abs(back - r)) < 3e-8

    def test_gauge_monotone(self, prof_m1):
        rng = np.random.default_rng(7)
        c = 1.0
        for _ in range(50):
            a, b = np.sort(rng.uniform(prof_m1.r_horizon + 0.05, 9.0, size=2))
            if a == b:
                continue
            pa = prof_m1.gauge_from_radius(a, c)
            pb = prof_m1.gauge_from_radius(b, c)
            assert pa < pb

    def test_gauge_extent_error(self, prof_m1):
        with pytest.raises(TableExtentError):
            prof_m1.radius_from_gauge(np.array([50.0]), 1.0)
