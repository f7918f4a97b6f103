import math

import numpy as np
import pytest

from icflow import background as bg
from icflow import curvature as cf
from icflow import geometry as geo
from icflow import sphere as sp
from icflow.errors import TableExtentError

from oracles import revolution_principal_curvatures


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
        r0 = float(prof_m2.radius_from_lambda(2.0))
        state = geo.state_from_radius(grid, prof_m2, np.full(48, r0))
        ext = geo.compute_extrinsic(state)
        lam_p = prof_m2.lambda_p_of_lambda(2.0)
        assert np.max(np.abs(ext.kappa - lam_p / 2.0)) < 1e-12
        assert np.max(np.abs(ext.chi - 2.0)) < 1e-10

    def test_discrete_hessian_exactly_symmetric(self, prof_m1):
        # h_ij is built from the covariant Hessian without symmetrizing it,
        # which is exact only because the discrete Hessian is symmetric bit
        # for bit on a field that varies in both angles
        grid = sp.build_grid("latlong2d", (24, 48))
        th, ps = grid.theta[:, None], grid.psi[None, :]
        r = 2.0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps)
        state = geo.state_from_radius(grid, prof_m1, r)
        hess = sp.covariant_hess(state.phi)
        assert np.max(np.abs(hess[..., 0, 1])) > 1e-3
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


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


class TestAmbientContractions:
    def test_massless_radial_vanishes(self, prof_m0):
        grid = sp.build_grid("axisymmetric1d", 48)
        state = perturbed_state(prof_m0, grid)
        ext = geo.compute_extrinsic(state)
        _, t_radial = geo.ambient_contractions(state, ext)
        assert np.max(np.abs(t_radial)) == 0.0

    def test_umbilic_normal_contraction(self, prof_m1):
        grid = sp.build_grid("axisymmetric1d", 48)
        state = geo.state_from_radius(grid, prof_m1, np.full(48, 2.0))
        ext = geo.compute_extrinsic(state)
        t_normal, _ = geo.ambient_contractions(state, ext)
        lam = ext.lam
        lam_pp = prof_m1.lambda_pp_of_lambda(lam)
        want = -(lam * lam_pp)[..., None, None] * ext.sigma
        assert np.max(np.abs(t_normal - want)) < 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_contraction_identity(self, name, prof_m1):
        grid = sp.build_grid("axisymmetric1d", 128)
        state = perturbed_state(prof_m1, grid, r0=2.0, amp=0.3)
        F = cf.from_name(name, 2)
        assert geo.contraction_consistency_residual(state, F) < 5e-12

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
        state = geo.GraphState(
            t=state.t, grid=grid, phi=state.phi, r=state.r, lam=state.lam,
            profile=BrokenProfile(prof_m1),
        )
        F = cf.from_name("mean", 2)
        assert geo.contraction_consistency_residual(state, F) > 1e-3


class TestTiltIdentities:
    def test_gradient_identity_refines(self, prof_m1):
        errs = []
        for n in (64, 128, 256):
            grid = sp.build_grid("axisymmetric1d", n)
            state = perturbed_state(prof_m1, grid, r0=2.0, amp=0.3)
            errs.append(geo.tilt_gradient_residual(state))
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 3.5

    def test_shape_identity_refines(self, prof_m1):
        errs = []
        for n in (64, 128, 256):
            grid = sp.build_grid("axisymmetric1d", n)
            state = perturbed_state(prof_m1, grid, r0=2.0, amp=0.3)
            errs.append(geo.tilt_gradient_shape_residual(state))
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 3.5

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
