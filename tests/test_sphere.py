import numpy as np
import pytest

from icflow import sphere as sp
from icflow.errors import FlowError, ResolutionTooSmall


def field(grid, values):
    return sp.ScalarField(grid, values)


def laplacian(f):
    h = sp.hessian_mixed(f)
    return h[..., 0, 0] + h[..., 1, 1]


def cell_areas(g):
    """Field-shaped exact areas of the grid cells."""
    edges = np.arange(g.n_theta + 1) * g.d_theta
    band = np.cos(edges[:-1]) - np.cos(edges[1:])
    if g.mode == "axisymmetric1d":
        return 2.0 * np.pi * band
    return np.repeat(band[:, None] * g.d_psi, g.n_psi, axis=1)


def integrate(f):
    return float(np.sum(cell_areas(f.grid) * f.values))


class TestGrid:
    def test_axisym_counts_and_area(self):
        g = sp.build_grid("axisymmetric1d", 64)
        assert g.theta.shape == (64,)
        assert abs(np.sum(cell_areas(g)) - 4 * np.pi) < 1e-10

    def test_latlong_counts_and_area(self):
        g = sp.build_grid("latlong2d", (64, 128))
        assert cell_areas(g).shape == g.field_shape == (64, 128)
        assert abs(np.sum(cell_areas(g)) - 4 * np.pi) < 1e-10

    def test_resolution_too_small(self):
        with pytest.raises(ResolutionTooSmall):
            sp.build_grid("axisymmetric1d", 8)
        with pytest.raises(ResolutionTooSmall):
            sp.build_grid("latlong2d", (32, 33))

    def test_nodes_exclude_poles(self):
        g = sp.build_grid("axisymmetric1d", 32)
        assert g.theta[0] > 0 and g.theta[-1] < np.pi


class TestScalarField:
    def test_non_finite_values_are_a_flow_error(self):
        g = sp.build_grid("axisymmetric1d", 32)
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.ones(32)
            vals[7] = bad
            with pytest.raises(FlowError):
                field(g, vals)


class TestGradient:
    def test_constant(self):
        g = sp.build_grid("axisymmetric1d", 64)
        assert np.max(np.abs(sp.grad_components(field(g, np.full(64, 3.7))))) == 0.0

    def test_cos_theta(self):
        g = sp.build_grid("axisymmetric1d", 128)
        f = field(g, np.cos(g.theta))
        got = sp.grad_components(f)[..., 0]
        err = np.max(np.abs(got + np.sin(g.theta)))
        assert err < 2.0 * g.d_theta ** 2
        gn = sp.grad_norm_sq(f)
        assert np.max(np.abs(gn - np.sin(g.theta) ** 2)) < 4.0 * g.d_theta ** 2

    def test_cos2theta_refinement_order(self):
        errs = []
        for n in (64, 128, 256):
            g = sp.build_grid("axisymmetric1d", n)
            got = sp.grad_components(field(g, np.cos(2 * g.theta)))[..., 0]
            errs.append(np.max(np.abs(got + 2 * np.sin(2 * g.theta))))
        for a, b in zip(errs, errs[1:]):
            assert np.log2(a / b) >= 1.9


class TestHessian:
    def test_eigenfunction(self):
        # cos(theta) is an l=1 harmonic: Hess = -cos(theta) sigma
        g = sp.build_grid("axisymmetric1d", 128)
        f = field(g, np.cos(g.theta))
        h = sp.covariant_hess(f)
        tol = 4.0 * g.d_theta ** 2
        assert np.max(np.abs(h[..., 0, 0] + np.cos(g.theta))) < tol
        assert np.max(np.abs(h[..., 1, 1] + np.cos(g.theta) * np.sin(g.theta) ** 2)) < tol
        lap = laplacian(f)
        assert np.max(np.abs(lap + 2 * np.cos(g.theta))) < 2 * tol

    def test_constant(self):
        g = sp.build_grid("axisymmetric1d", 64)
        h = sp.covariant_hess(field(g, np.full(64, 1.0)))
        assert np.max(np.abs(h)) == 0.0

    def test_cos2theta_refinement_order(self):
        errs = []
        for n in (64, 128, 256):
            g = sp.build_grid("axisymmetric1d", n)
            th = g.theta
            h = sp.covariant_hess(field(g, np.cos(2 * th)))
            want_tt = -4 * np.cos(2 * th)
            want_pp = np.sin(th) * np.cos(th) * (-2 * np.sin(2 * th))
            e = max(
                np.max(np.abs(h[..., 0, 0] - want_tt)),
                np.max(np.abs(h[..., 1, 1] - want_pp)),
            )
            errs.append(e)
        for a, b in zip(errs, errs[1:]):
            assert np.log2(a / b) >= 1.9

    def test_pole_regularized_component(self):
        # near the poles sigma^pp f_pp -> d2f/dth2; for cos(2 th) the limit
        # at theta=0 is -4
        for n in (64, 128, 256):
            g = sp.build_grid("axisymmetric1d", n)
            h = sp.hessian_mixed(field(g, np.cos(2 * g.theta)))
            assert abs(h[0, 1, 1] + 4.0) < 0.5
            assert np.all(np.isfinite(h))

    def test_mixed_hessian_matches_covariant_interior(self):
        g = sp.build_grid("axisymmetric1d", 128)
        f = field(g, np.cos(2 * g.theta))
        hm = sp.hessian_mixed(f)
        hc = sp.covariant_hess(f)
        s2 = np.sin(g.theta) ** 2
        inner = slice(5, -5)
        assert np.max(np.abs(hm[inner, 1, 1] - hc[inner, 1, 1] / s2[inner])) < 1e-10


class TestReductions:
    def test_tensor_norm_identity(self):
        g = sp.build_grid("axisymmetric1d", 32)
        t = np.zeros((32, 2, 2))
        t[..., 0, 0] = -2.5
        t[..., 1, 1] = -2.5
        assert abs(sp.tensor_sup_norm(t, g) - 2.5 * np.sqrt(2)) < 1e-12

    def test_tensor_norm_random_vs_eigen_scan(self):
        rng = np.random.default_rng(11)
        g = sp.build_grid("axisymmetric1d", 32)
        t = np.zeros((32, 2, 2))
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        c = rng.normal(size=32)
        s = np.sin(g.theta)
        t[:, 0, 0] = a
        t[:, 1, 1] = b
        # sigma-self-adjoint off-diagonal pair
        t[:, 0, 1] = c * s
        t[:, 1, 0] = c / s
        best = 0.0
        for j in range(32):
            m = np.array([[a[j], c[j]], [c[j], b[j]]])   # orthonormal frame
            best = max(best, np.sqrt(np.sum(np.linalg.eigvalsh(m) ** 2)))
        assert abs(sp.tensor_sup_norm(t, g) - best) < 1e-12

    def test_integration_by_parts(self):
        for n in (64, 128):
            g = sp.build_grid("axisymmetric1d", n)
            f = field(g, np.cos(g.theta))
            w = field(g, np.cos(2 * g.theta))
            lhs = integrate(field(g, f.values * laplacian(w)))
            rhs = integrate(field(g, w.values * laplacian(f)))
            assert abs(lhs - rhs) < 30.0 * g.d_theta ** 2


class TestLatLong:
    def test_axisymmetric_data_matches_1d(self):
        g1 = sp.build_grid("axisymmetric1d", 32)
        g2 = sp.build_grid("latlong2d", (32, 64))
        v1 = np.cos(2 * g1.theta)
        v2 = np.repeat(v1[:, None], 64, axis=1)
        h1 = sp.hessian_mixed(sp.ScalarField(g1, v1))
        h2 = sp.hessian_mixed(sp.ScalarField(g2, v2))
        assert np.max(np.abs(h2[:, 0, :, :] - h1)) < 1e-13
        gr1 = sp.grad_norm_sq(sp.ScalarField(g1, v1))
        gr2 = sp.grad_norm_sq(sp.ScalarField(g2, v2))
        assert np.max(np.abs(gr2[:, 0] - gr1)) < 1e-13

    def test_l1_harmonic_laplacian(self):
        # sin(theta) cos(psi) is an l=1 harmonic: Delta f = -2 f; the two
        # pole-adjacent rows are first-order, the interior second-order
        g = sp.build_grid("latlong2d", (48, 96))
        v = np.sin(g.theta)[:, None] * np.cos(g.psi)[None, :]
        lap = laplacian(sp.ScalarField(g, v))
        err = np.abs(lap + 2 * v)
        assert np.max(err) < 0.25 * g.d_theta
        assert np.max(err[2:-2]) < 6.0 * g.d_theta ** 2

    def test_pole_ghost_consistency(self):
        # a harmonic crossing the pole: gradient stays bounded and accurate
        g = sp.build_grid("latlong2d", (48, 96))
        v = np.sin(g.theta)[:, None] * np.sin(g.psi)[None, :]
        gr = sp.grad_components(sp.ScalarField(g, v))
        want_th = np.cos(g.theta)[:, None] * np.sin(g.psi)[None, :]
        assert np.max(np.abs(gr[..., 0] - want_th)) < 6.0 * g.d_theta ** 2


class TestPolarFilter:
    @pytest.mark.parametrize("shape", [(24, 48), (16, 40), (21, 84)])
    def test_kept_modes_unchanged_dropped_zeroed(self, shape):
        g = sp.build_grid("latlong2d", shape)
        v = np.random.default_rng(3).uniform(-1.0, 1.0, g.field_shape)
        before = np.fft.rfft(v, axis=1) / g.n_psi
        after = np.fft.rfft(sp.polar_filter(g, v), axis=1) / g.n_psi
        assert np.max(np.abs(after - before)[g.keep]) <= 1e-15
        assert np.max(np.abs(after)[~g.keep]) <= 1e-15

    @pytest.mark.parametrize("shape", [(24, 48), (16, 40), (21, 84)])
    def test_constant_along_psi_stays_constant(self, shape):
        g = sp.build_grid("latlong2d", shape)
        v = np.repeat((2.0 + np.cos(3 * g.theta))[:, None], g.n_psi, axis=1)
        out = sp.polar_filter(g, v)
        assert np.max(np.ptp(out, axis=1)) <= 4 * np.finfo(float).eps * np.max(v)
        assert np.max(np.abs(out - v)) <= 4 * np.finfo(float).eps * np.max(v)

    def test_keep_mask_on_square_cells(self):
        # with d_psi = d_theta, sin(k d_psi / 2) <= sin(theta_j) holds
        # exactly for k <= 2 j + 1 on the northern rows; the southern rows
        # mirror them, and the threshold modes k = 2 j + 1 stay
        g = sp.build_grid("latlong2d", (24, 48))
        k = np.arange(25)
        north = k[None, :] <= 2 * np.arange(12)[:, None] + 1
        assert np.array_equal(g.keep, np.concatenate([north, north[::-1]]))
        assert not g.keep.flags.writeable
        assert sp.build_grid("axisymmetric1d", 24).keep is None

    def test_kept_modes_resolved_by_d_theta(self):
        # every kept mode's psi-Laplacian eigenvalue is at most 4 / d_theta^2
        # (up to rounding), every dropped one above it
        g = sp.build_grid("latlong2d", (20, 56))
        k = np.arange(29)[None, :]
        s = np.sin(g.theta)[:, None]
        ratio = (np.sin(0.5 * k * g.d_psi) / (s * g.d_psi)) ** 2 * g.d_theta ** 2
        assert np.all(ratio[g.keep] <= 1.0 + 1e-12)
        assert np.all(ratio[~g.keep] > 1.0)
