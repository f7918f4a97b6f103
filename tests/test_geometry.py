import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from icflow import background as bg
from icflow import curvature as cf
from icflow import flow
from icflow import geometry as geo
from icflow import sphere as sp
from icflow.errors import FlowError, InadmissibleState, TableExtentError

from oracles import radius_at_lambda, revolution_principal_curvatures


@pytest.fixture(scope="module")
def prof_m0():
    return bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), r_max=8.0)


@pytest.fixture(scope="module")
def prof_m1():
    return bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=8.0)


@pytest.fixture(scope="module")
def prof_m2():
    return bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), r_max=8.0)


def perturbed_state(profile, grid, r0=1.0, amp=0.1, wavenumber=1):
    r = r0 + amp * np.cos(wavenumber * grid.theta)
    if grid.mode == "latlong2d":
        r = np.repeat(r[:, None], grid.n_psi, axis=1)
    return geo.state_from_radius(grid, profile, r)


class TestGauge:
    def test_constant_gauge_is_base(self, prof_m0, prof_m1):
        # a constant gauge is a geodesic sphere; for m = 0 its radius is the
        # closed form r = -log tanh(-phi/2)
        grid = sp.build_grid("axisymmetric1d", 32)
        phi = math.log(math.tanh(1.0))
        state = geo.state_from_gauge(grid, prof_m0, np.full(32, phi))
        assert np.max(np.abs(state.r.values - 2.0)) < 1e-12
        phi = float(prof_m1.gauge_from_radius(2.0))
        state = geo.state_from_gauge(grid, prof_m1, np.full(32, phi))
        assert np.max(np.abs(state.r.values - 2.0)) < 1e-12

    def test_massless_closed_form_roundtrip(self, prof_m0):
        grid = sp.build_grid("axisymmetric1d", 64)
        r = 1.0 + 0.3 * np.cos(grid.theta)
        state = geo.state_from_radius(grid, prof_m0, r)
        # oracle: phi = -integral_r^inf ds/sinh(s) = log tanh(r/2)
        want = np.log(np.tanh(r / 2))
        assert np.max(np.abs(state.phi.values - want)) < 1e-12
        assert np.max(np.abs(state.r.values - r)) < 1e-9

    def test_monotone(self, prof_m1):
        rng = np.random.default_rng(0)
        lo = prof_m1.r_horizon + 0.1
        for _ in range(30):
            a, b = np.sort(rng.uniform(lo, 6.0, size=2))
            pa = prof_m1.gauge_from_radius(a)
            pb = prof_m1.gauge_from_radius(b)
            assert pa < pb

    def test_extent_guard(self, prof_m1):
        grid = sp.build_grid("axisymmetric1d", 32)
        with pytest.raises(TableExtentError):
            geo.state_from_gauge(grid, prof_m1, np.full(32, 40.0))


class TestUmbilic:
    def test_geodesic_sphere_m0(self, prof_m0):
        grid = sp.build_grid("axisymmetric1d", 48)
        state = geo.state_from_radius(grid, prof_m0, np.full(48, 1.0))
        ext = geo.compute_extrinsic(state)
        assert np.max(np.abs(ext.v - 1.0)) < 1e-14
        want = 1.0 / math.tanh(1.0)
        assert np.max(np.abs(ext.kappa - want)) < 1e-12
        assert abs(want - 1.3130352854993312) < 1e-15

    def test_geodesic_sphere_m2(self, prof_m2):
        grid = sp.build_grid("axisymmetric1d", 48)
        r0 = radius_at_lambda(prof_m2, 2.0)
        state = geo.state_from_radius(grid, prof_m2, np.full(48, r0))
        ext = geo.compute_extrinsic(state)
        lam_p = prof_m2.lambda_p_of_lambda(2.0)
        assert np.max(np.abs(ext.kappa - lam_p / 2.0)) < 1e-12
        assert np.max(np.abs(ext.chi - 2.0)) < 1e-10

    def test_discrete_hessian_exactly_symmetric(self, prof_m1):
        # h_ij is built from the covariant Hessian without symmetrizing it,
        # which is exact only because the discrete Hessian is a triple, one
        # array serving as both off-diagonal entries, on a field that
        # varies in both angles; the extrinsic pass keeps that triple
        grid = sp.build_grid("latlong2d", (24, 48))
        th, ps = grid.theta[:, None], grid.psi[None, :]
        r = 2.0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps)
        state = geo.state_from_radius(grid, prof_m1, r)
        hess = sp.covariant_hess(state.phi)
        assert len(hess) == 3
        assert np.max(np.abs(hess[1])) > 1e-3
        ext = geo.compute_extrinsic(state)
        assert all(np.array_equal(a, b) for a, b in zip(ext.hess_phi, hess))


class TestEmbeddingOracle:
    def test_perturbed_m0_convergence(self, prof_m0):
        errs = []
        for n in (64, 128, 256):
            grid = sp.build_grid("axisymmetric1d", n)
            r = 1.0 + 0.1 * np.cos(grid.theta)
            state = geo.state_from_radius(grid, prof_m0, r)
            ext = geo.compute_extrinsic(state)
            km, kp = revolution_principal_curvatures(prof_m0, grid.theta, r)
            want = np.sort(np.stack([km, kp], axis=-1), axis=-1)
            errs.append(np.max(np.abs(ext.kappa - want)))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.9

    def test_perturbed_m1_convergence(self, prof_m1):
        errs = []
        for n in (64, 128, 256):
            grid = sp.build_grid("axisymmetric1d", n)
            r = 2.0 + 0.3 * np.cos(grid.theta)
            state = geo.state_from_radius(grid, prof_m1, r)
            ext = geo.compute_extrinsic(state)
            km, kp = revolution_principal_curvatures(prof_m1, grid.theta, r)
            want = np.sort(np.stack([km, kp], axis=-1), axis=-1)
            errs.append(np.max(np.abs(ext.kappa - want)))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.9


@pytest.fixture(scope="module",
                params=[(m, mode, r0) for m in (0.0, 1.0, 2.0)
                        for mode in ("axisymmetric1d", "latlong2d") for r0 in (2.0, 12.0)],
                ids=lambda p: f"m{p[0]:g}-{p[1]}-r{p[2]:g}")
def identity_state(request):
    """A perturbed state for the exact identities: on lat-long grids it has
    no symmetry, with a tilt and a second azimuthal mode."""
    m, mode, r0 = request.param
    prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=r0 + 3.0)
    if mode == "axisymmetric1d":
        grid = sp.build_grid(mode, 128)
        return geo.state_from_radius(grid, prof, r0 + 0.3 * np.cos(grid.theta))
    grid = sp.build_grid(mode, (24, 48))
    th, ps = grid.theta[:, None], grid.psi[None, :]
    r = r0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps) \
        + 0.05 * np.sin(th) ** 2 * np.cos(2 * ps)
    return geo.state_from_radius(grid, prof, r)


class TestAmbientContractions:
    def test_massless_radial_vanishes(self, prof_m0):
        grid = sp.build_grid("axisymmetric1d", 48)
        state = perturbed_state(prof_m0, grid)
        ext = geo.compute_extrinsic(state)
        _, t_radial = geo.ambient_contractions(state, ext)
        assert max(np.max(np.abs(t)) for t in t_radial) == 0.0

    def test_umbilic_normal_contraction(self, prof_m1):
        grid = sp.build_grid("axisymmetric1d", 48)
        state = geo.state_from_radius(grid, prof_m1, np.full(48, 2.0))
        ext = geo.compute_extrinsic(state)
        t_normal, _ = geo.ambient_contractions(state, ext)
        lam = state.lam
        lam_pp = prof_m1.lambda_pp_of_lambda(lam)
        want = [-(lam * lam_pp) * s for s in (1.0, 0.0, np.sin(grid.theta) ** 2)]
        scale = max(np.max(np.abs(w)) for w in want)
        assert max(np.max(np.abs(t - w)) for t, w in zip(t_normal, want)) < 1e-10 * scale

    def test_contraction_tensor_identity(self, identity_state):
        assert geo.contraction_consistency_residual(identity_state) < 1e-12

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_contraction_identity(self, name, prof_m1):
        # the identity holds on the states each F's flow moves through
        grid = sp.build_grid("axisymmetric1d", 128)
        state = perturbed_state(prof_m1, grid, r0=2.0, amp=0.3)
        F = cf.from_name(name, 2)
        r_start = state.r.values.copy()
        ext = flow.evaluate(state, F)
        for _ in range(50):
            state, ext = flow.step(state, F, 5e-4, ext)
        assert np.max(np.abs(state.r.values - r_start)) > 1e-3
        assert geo.contraction_consistency_residual(state) < 1e-12

    def test_contraction_identity_detects_broken_warp(self, prof_m1):
        # corrupting the second derivative of the warp factor must break
        # the identity well above the rounding floor
        class BrokenProfile:
            def __init__(self, inner):
                self._inner = inner
                self.params = inner.params

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def lambda_pp_of_lambda(self, lam):
                return -self._inner.lambda_pp_of_lambda(lam)

        grid = sp.build_grid("axisymmetric1d", 64)
        state = perturbed_state(prof_m1, grid, r0=2.0, amp=0.3)
        state = replace(state, profile=BrokenProfile(prof_m1))
        assert geo.contraction_consistency_residual(state) > 1e-3


class TestTiltIdentities:
    def test_gradient_identity_refines(self, prof_m1):
        errs = []
        for n in (64, 128, 256):
            grid = sp.build_grid("axisymmetric1d", n)
            state = perturbed_state(prof_m1, grid, r0=2.0, amp=0.3)
            errs.append(geo.tilt_gradient_residual(state))
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 3.5

    def test_shape_identity_holds_to_rounding(self, identity_state):
        assert geo.tilt_gradient_shape_residual(identity_state) < 1e-12

    def test_identities_vanish_on_constants(self, prof_m1):
        grid = sp.build_grid("axisymmetric1d", 64)
        state = geo.state_from_radius(grid, prof_m1, np.full(64, 2.0))
        assert geo.tilt_gradient_residual(state) < 1e-14
        assert geo.tilt_gradient_shape_residual(state) < 1e-14


class TestTwoDim:
    def test_axisymmetric_data_matches_1d(self, prof_m1):
        g1 = sp.build_grid("axisymmetric1d", 32)
        g2 = sp.build_grid("latlong2d", (32, 64))
        s1 = perturbed_state(prof_m1, g1, r0=2.0, amp=0.3)
        s2 = perturbed_state(prof_m1, g2, r0=2.0, amp=0.3)
        e1 = geo.compute_extrinsic(s1)
        e2 = geo.compute_extrinsic(s2)
        assert np.max(np.abs(e2.kappa[:, 0, :] - e1.kappa)) < 1e-12
        assert np.max(np.abs(e2.v[:, 0] - e1.v)) < 1e-13


class TestFarRadius:
    # the (h, g) pencil discriminant's d1 grows like lambda^4: its square
    # overflowed past r ~ 88, and kappa read [-inf, inf]; the products
    # themselves stay finite up to R_MAX. The stage's invariants form no
    # such product
    @pytest.fixture(scope="class")
    def prof_far(self):
        return bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2))

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    @pytest.mark.parametrize("mode, res", [("axisymmetric1d", 32), ("latlong2d", (16, 32))])
    @pytest.mark.parametrize("r0", [100.0, 138.0, bg.R_MAX - 0.3])
    def test_stage_data_finite(self, prof_far, r0, mode, res, name):
        state = perturbed_state(prof_far, sp.build_grid(mode, res), r0=r0, amp=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage = flow.evaluate(state, cf.from_name(name, 2))
            ext = geo.compute_extrinsic(state)
        # far out the surface is umbilic to rounding: kappa = 1 + O(e^-2r)
        assert np.abs(ext.kappa - 1.0).max() < 1e-12
        assert np.abs(stage.f - 2.0).max() < 1e-12
        assert np.isfinite(stage.speed).all()


# a gauge past the cap r_max = 8 of the module's profiles, named by its radius
PAST_THE_CAP = "^gauge value outside tabulated range: radius {} past r_max = 8$"


class TestFailurePaths:
    """state_from_gauge judges phi and r by one min and one max each; when
    that fails, the entrywise tests raise the error they always raised."""

    def gauge(self, prof, mode="axisymmetric1d", res=32):
        grid = sp.build_grid(mode, res)
        return grid, perturbed_state(prof, grid).phi.values.copy()

    @pytest.mark.parametrize("mode, res", [("axisymmetric1d", 32), ("latlong2d", (16, 32))])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_non_finite_gauge(self, prof_m0, prof_m1, m, bad, mode, res):
        prof = prof_m1 if m else prof_m0
        grid, phi = self.gauge(prof, mode, res)
        phi.flat[5] = bad
        with pytest.raises(FlowError, match="^scalar field contains non-finite values$"):
            geo.state_from_gauge(grid, prof, phi)

    def test_non_finite_is_named_before_the_table(self, prof_m1):
        grid, phi = self.gauge(prof_m1)
        phi[2], phi[9] = 50.0, math.nan
        with pytest.raises(FlowError, match="non-finite"):
            geo.state_from_gauge(grid, prof_m1, phi)

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_gauge_past_the_m1_table(self, prof_m1, end):
        # half the cap's gauge lies about log 2 past it, and is named so
        message = ("^gauge value outside tabulated range$" if end == "low"
                   else PAST_THE_CAP.format(r"8\.693\d*"))
        grid, phi = self.gauge(prof_m1)
        lo = float(prof_m1.gauge_from_radius(prof_m1.r_horizon))
        hi = float(prof_m1.gauge_from_radius(prof_m1.r_max))
        phi[4] = lo - 1e-6 if end == "low" else 0.5 * hi
        with pytest.raises(TableExtentError, match=message):
            geo.state_from_gauge(grid, prof_m1, phi)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_nonnegative_gauge_at_m0(self, prof_m0, bad):
        grid, phi = self.gauge(prof_m0)
        phi[-1] = bad
        with pytest.raises(TableExtentError, match=PAST_THE_CAP.format("inf")):
            geo.state_from_gauge(grid, prof_m0, phi)

    def test_radius_past_the_m0_table(self, prof_m0):
        # a gauge just below 0 is a radius near 690, past r_max = 8
        grid, phi = self.gauge(prof_m0)
        phi[0] = -1e-300
        with pytest.raises(TableExtentError, match=PAST_THE_CAP.format(r"691\.\d*")):
            geo.state_from_gauge(grid, prof_m0, phi)

    @pytest.mark.parametrize("bad", [-5e-324, -1e-300])
    def test_m0_gauge_next_to_zero(self, prof_m0, bad):
        # refused by the gauge range before -log tanh(-phi/2) can warn; the
        # smallest gauge's half rounds to 0, past every radius
        radius = "inf" if bad == -5e-324 else r"691\.\d*"
        grid, phi = self.gauge(prof_m0)
        phi[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TableExtentError, match=PAST_THE_CAP.format(radius)):
                geo.state_from_gauge(grid, prof_m0, phi)
            with pytest.raises(TableExtentError, match=PAST_THE_CAP.format(radius)):
                prof_m0.radius_from_gauge(phi)

    def test_in_table_gauge_builds_its_state(self, prof_m0, prof_m1):
        for prof in (prof_m0, prof_m1):
            grid, phi = self.gauge(prof)
            state = geo.state_from_gauge(grid, prof, phi)
            r, lam = prof.radius_from_gauge(phi), prof.lambda_from_gauge(phi)
            assert state.phi.values is phi
            assert np.array_equal(state.r.values, r) and np.array_equal(state.lam, lam)

    @pytest.mark.parametrize("name", ["sigma2root", "quotient2"])
    def test_nan_sigma2_leaves_the_cone(self, name):
        # sigma_1 > 0 everywhere; a NaN sigma_2 at one node must fail the
        # cone test, not pass it
        kappa = np.ones((8, 2))
        e = cf.elementary_symmetric(kappa)
        e[3, 2] = math.nan
        with pytest.raises(InadmissibleState) as info:
            cf.require_cone(cf.from_name(name, 2), e, kappa)
        assert info.value.node == (3,)
