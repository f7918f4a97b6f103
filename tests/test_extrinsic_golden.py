"""The component-form extrinsic data against a reference (..., 2, 2)
pass, kappa from the pencil (phi_ij, b_ij) in it, the frame Hessian against a reference copy
of the mean / fluctuation split it replaced, the stage data from that
pass's components by the invariant formula of tests/oracles.py, the
stability bound and dF against reference copies of the reductions they
replaced, and the warp
lookups and state_from_gauge against reference copies of the per-mass
accessors they replaced: every quantity must agree bit for bit, and the
lookups must refuse the same finite values past the table. The frame
Hessian differs from its reference in rounding only, so it must agree to
1e-12 of its largest component."""

import dataclasses
import math

import numpy as np
import pytest

from icflow import background as bg
from icflow import curvature as cf
from icflow import flow
from icflow import geometry as geo
from icflow import sphere as sp
from icflow.errors import ConfigError, FlowError, InadmissibleState, TableExtentError

from oracles import extrinsic_pass, reference_invariants


# -- reference: the (..., 2, 2) pass, with its own stencils -------------------

def _pad_theta(grid, v):
    if grid.mode == "axisymmetric1d":
        return np.concatenate([v[:1], v, v[-1:]])
    half = grid.n_psi // 2
    top = np.roll(v[:1], half, axis=1)
    bot = np.roll(v[-1:], half, axis=1)
    return np.concatenate([top, v, bot], axis=0)


def _dtheta(grid, v):
    p = _pad_theta(grid, v)
    return (p[2:] - p[:-2]) / (2.0 * grid.d_theta)


def _d2theta(grid, v):
    p = _pad_theta(grid, v)
    return (p[2:] - 2.0 * v + p[:-2]) / grid.d_theta ** 2


def _dpsi(grid, v):
    return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * grid.d_psi)


def _d2psi(grid, v):
    return (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / grid.d_psi ** 2


def _grad(grid, v):
    dth = _dtheta(grid, v)
    if grid.mode == "axisymmetric1d":
        return np.stack([dth, np.zeros_like(dth)], axis=-1)
    return np.stack([dth, _dpsi(grid, v)], axis=-1)


def _hess(grid, v):
    dth = _dtheta(grid, v)
    h = np.zeros(grid.field_shape + (2, 2))
    h[..., 0, 0] = _d2theta(grid, v)
    h[..., 1, 1] = grid.sin_theta * grid.cos_theta * dth
    if grid.mode == "latlong2d":
        dps = _dpsi(grid, v)
        cot = grid.cos_theta / grid.sin_theta
        mixed = _dtheta(grid, dps) - cot * dps
        h[..., 0, 1] = mixed
        h[..., 1, 0] = mixed
        h[..., 1, 1] += _d2psi(grid, v)
    return h


def reference_hessian_mixed(grid, v):
    """The (1,1) Hessian as the azimuthal mean / fluctuation split computed
    it: the mean's cot(theta) d_theta f replaced by d^2_theta f at the
    pole rows, the fluctuation's psi and cot terms kept together."""
    cot = grid.cos_theta / grid.sin_theta
    h = _hess(grid, v)
    if grid.mode == "axisymmetric1d":
        axi = cot * _dtheta(grid, v)
        axi[[0, -1]] = h[[0, -1], 0, 0]
        h[..., 1, 1] = axi
        return h
    s2 = grid.sin_theta ** 2
    vbar = np.mean(v, axis=1, keepdims=True)
    vp = v - vbar
    axi = cot * _dtheta(grid, vbar)
    axi[[0, -1]] = _d2theta(grid, vbar)[[0, -1]]
    h[..., 1, 1] = axi + (_d2psi(grid, vp) / s2 + cot * _dtheta(grid, vp))
    h[..., 1, 0] /= s2
    return h


def _pencil(a, b):
    det_b = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] ** 2
    mix = (a[..., 0, 0] * b[..., 1, 1] + a[..., 1, 1] * b[..., 0, 0]
           - 2.0 * a[..., 0, 1] * b[..., 0, 1])
    d1 = a[..., 0, 0] * b[..., 1, 1] - a[..., 1, 1] * b[..., 0, 0]
    d2 = a[..., 0, 0] * b[..., 0, 1] - a[..., 0, 1] * b[..., 0, 0]
    d3 = a[..., 1, 1] * b[..., 0, 1] - a[..., 0, 1] * b[..., 1, 1]
    disc = np.sqrt(np.maximum(d1 * d1 + 4.0 * d2 * d3, 0.0))
    lo = (mix - disc) / (2.0 * det_b)
    hi = (mix + disc) / (2.0 * det_b)
    return np.stack([lo, hi], axis=-1)


def reference_extrinsic(state):
    grid = state.grid
    sigma = np.zeros(grid.field_shape + (2, 2))
    sigma[..., 0, 0] = 1.0
    sigma[..., 1, 1] = grid.sin_theta ** 2
    lam = state.profile.lambda_of_r(state.r.values)
    lam_p = state.profile.lambda_p_of_lambda(lam)
    dphi = _grad(grid, state.phi.values)
    q = dphi[..., 0] * dphi[..., 0]
    if grid.mode == "latlong2d":
        q = q + (dphi[..., 1] / grid.sin_theta) ** 2
    v = np.sqrt(1.0 + q)
    hess_cov = _hess(grid, state.phi.values)
    pp = dphi[..., :, None] * dphi[..., None, :]
    # lambda v kappa = lambda' - mu, for mu the eigenvalues of the pencil
    # phi_ij x = mu b_ij x, b_ij = phi_i phi_j + sigma_ij
    mu = _pencil(hess_cov, pp + sigma)
    kappa = (lam_p[..., None] - mu[..., ::-1]) / (lam * v)[..., None]
    return dict(v=v, grad_phi=dphi, grad_phi_sq=q, hess=hess_cov, kappa=kappa, lam=lam,
                lam_p=lam_p)


# -- reference: the stage reductions along a short last axis ----------------

def _in_cone(f, e):
    return e[..., 1:f.cone_order + 1].min() > 0.0


def _deleted(kappa, e):
    n = kappa.shape[-1]
    d = np.zeros(kappa.shape[:-1] + (n + 1, n))
    d[..., 0, :] = 1.0
    for j in range(1, n + 1):
        d[..., j, :] = e[..., j, None] - kappa * d[..., j - 1, :]
    return d


def reference_gradient(f, kappa, e):
    n = f.n
    if f.kind == "mean":
        return np.ones_like(kappa)
    d = _deleted(kappa, e)
    k = f.k
    if f.kind == "sigma_k_root":
        val = n * (e[..., k] / math.comb(n, k)) ** (1.0 / k)
        return (val / (k * e[..., k]))[..., None] * d[..., k - 1, :]
    c = n * k / (n - k + 1.0)
    skm1 = np.maximum(e[..., k - 1], 1e-300)
    num = d[..., k - 1, :] * skm1[..., None] - e[..., k, None] * d[..., k - 2, :]
    return c * num / (skm1 * skm1)[..., None]


def reference_stage(state, f):
    """(e, lambda v F, speed) of flow.evaluate, from the reference extrinsic
    pass's components and the invariant formula of tests/oracles.py."""
    ref = reference_extrinsic(state)
    grad, hess = ref["grad_phi"], ref["hess"]
    v2, e, _ = reference_invariants(state.grid, ref["lam_p"], grad[..., 0], grad[..., 1],
                                    ref["grad_phi_sq"], hess[..., 0, 0], hess[..., 0, 1],
                                    hess[..., 1, 1])
    assert _in_cone(f, e)
    lvf = cf._value(f, e)
    return e, lvf, v2 / lvf


def reference_stable_dt(state, stage, fp):
    """The stability bound of stage, with fp the full dF array of its
    lambda v kappa."""
    scale = stage.speed * stage.speed / np.sqrt(stage.v2) * fp.max(axis=-1)
    h = state.grid.d_theta
    return flow.CFL * h * h / float(scale.max())


# -- reference: the warp lookups, with a branch and range tests per mass -----
# For m > 0 each reads the table up to its last node, the anchor, and the
# closed far field above it: with a = m / (2 (n + 1)) and
# b = a 2^(n+2) / (n + 2), lambda = sinh r + a sinh^(-n) r,
# psi = 2 artanh e^(-r) - a 2^(n+2) e^(-(n+2) r) / (n + 2) and
# r = r0 - sinh(r0) b e^(-(n+2) r0) with r0 = -log tanh(psi / 2).

def _ref_check_r(prof, r):
    r = np.asarray(r, dtype=float)
    if (r < prof.r_horizon - 1e-12).any() or (r > prof.r_max * (1 + 1e-14)).any():
        raise TableExtentError("radius")
    return r


def _ref_pieces(x, anchor, near, far):
    """near(x) at and below the anchor, far(x) above it, entry by entry."""
    out = np.empty_like(x)
    below = x <= anchor
    out[below] = near(x[below])
    out[~below] = far(x[~below])
    return out[()]


def _ref_far(prof):
    m, n = prof.params.m, prof.params.n
    a = m / (2.0 * (n + 1.0))
    b = a * 2.0 ** (n + 2) / (n + 2)

    def lam(r):
        s = np.sinh(r)
        return s + a * s ** (-n)

    def phi(r):
        return -(2.0 * np.arctanh(np.exp(-r)) - b * np.exp(-(n + 2) * r))

    def radius(p):
        r0 = -np.log(np.tanh(-0.5 * p))
        return r0 - np.sinh(r0) * b * np.exp(-(n + 2) * r0)

    return lam, phi, radius


def ref_lambda_of_r(prof, r):
    r = _ref_check_r(prof, r)
    if prof.params.m == 0.0:
        return np.sinh(r)
    return _ref_pieces(r, prof.table_r[-1], prof._lam_by_r.near, _ref_far(prof)[0])


def ref_gauge_from_radius(prof, r):
    r = _ref_check_r(prof, r)
    if prof.params.m == 0.0:
        if (r <= 0.0).any():
            raise TableExtentError("radius")
        return -2.0 * np.arctanh(np.exp(-r))
    return _ref_pieces(r, prof.table_r[-1], prof._phi_by_r.near, _ref_far(prof)[1])


def ref_warp_from_gauge(prof, phi):
    phi = np.asarray(phi, dtype=float)
    if prof.params.m == 0.0:
        if (phi >= 0.0).any():
            raise TableExtentError("gauge value")
        r = _ref_check_r(prof, -np.log(np.tanh(-0.5 * phi)))
        return r, np.sinh(r)
    nodes = prof._r_by_phi.near.x
    lo = nodes[0] - 1e-12
    hi = ref_gauge_from_radius(prof, prof.r_max) * (1 - 1e-12)
    if (phi < lo).any() or (phi > hi).any():
        raise TableExtentError("gauge value")
    far_lam, _, far_r = _ref_far(prof)
    r = _ref_pieces(phi, nodes[-1], prof._r_by_phi.near, far_r)
    lam = _ref_pieces(phi, nodes[-1], prof._lam_by_phi.near, lambda p: far_lam(far_r(p)))
    _ref_check_r(prof, r)
    return r, lam


def ref_radius_from_gauge(prof, phi):
    return ref_warp_from_gauge(prof, phi)[0]


def ref_lambda_from_gauge(prof, phi):
    return ref_warp_from_gauge(prof, phi)[1]


def ref_state_from_gauge(grid, prof, phi):
    """(r, lambda) of the state, with the field's own tests first."""
    sp.ScalarField(grid, phi)
    return ref_warp_from_gauge(prof, phi)


LOOKUPS = [("lambda_of_r", ref_lambda_of_r), ("gauge_from_radius", ref_gauge_from_radius),
           ("radius_from_gauge", ref_radius_from_gauge),
           ("lambda_from_gauge", ref_lambda_from_gauge)]


def _outcome(fn, *args):
    """What a call returns, as arrays, or the type of the error it raises."""
    try:
        out = fn(*args)
    except (ConfigError, FlowError, TableExtentError) as exc:
        return type(exc)
    return [np.asarray(a) for a in (out if isinstance(out, tuple) else (out,))]


def _same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(a, b))


# -- states ------------------------------------------------------------------

def a3_state():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=8.0)
    grid = sp.build_grid("axisymmetric1d", 256)
    return geo.state_from_radius(grid, prof, 2.0 + 0.3 * np.cos(grid.theta))


def massless_state():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), r_max=8.0)
    grid = sp.build_grid("axisymmetric1d", 64)
    return geo.state_from_radius(grid, prof, 1.0 + 0.1 * np.cos(grid.theta))


def latlong_state():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=8.0)
    grid = sp.build_grid("latlong2d", (24, 48))
    th, ps = grid.theta[:, None], grid.psi[None, :]
    return geo.state_from_radius(
        grid, prof, 2.0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps))


def massless_latlong_state():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), r_max=8.0)
    grid = sp.build_grid("latlong2d", (16, 32))
    th, ps = grid.theta[:, None], grid.psi[None, :]
    return geo.state_from_radius(
        grid, prof, 1.0 + 0.1 * np.cos(th) + 0.05 * np.sin(th) * np.sin(ps))


STATES = [a3_state, massless_state, latlong_state, massless_latlong_state]


@pytest.mark.parametrize("make_state", STATES)
def test_matches_tensor_pass_bit_for_bit(make_state):
    state = make_state()
    grad, q, v2, _, lam_p, _, hess = extrinsic_pass(state)
    ref = reference_extrinsic(state)
    got = dict(kappa=geo.compute_extrinsic(state), v=np.sqrt(v2), lam_p=lam_p, grad_phi_sq=q)
    for name in ("kappa", "v", "lam_p", "grad_phi_sq"):
        assert np.array_equal(got[name], ref[name]), name
    assert np.array_equal(state.lam, ref["lam"])
    for k in range(2):
        assert np.array_equal(grad[k], ref["grad_phi"][..., k])
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 1)]):
        assert np.array_equal(hess[k], ref["hess"][..., i, j]), ("hess", i, j)


def axisymmetric_latlong_state():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=8.0)
    grid = sp.build_grid("latlong2d", (24, 48))
    return geo.state_from_radius(grid, prof, 2.0 + 0.3 * np.cos(grid.theta)[:, None]
                                 + grid.zeros)


def wavy_latlong_state(shape):
    # modes 1 to 3 in psi, each with a nonzero value on the pole rows
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=8.0)
    grid = sp.build_grid("latlong2d", shape)
    th, ps = grid.theta[:, None], grid.psi[None, :]
    return geo.state_from_radius(
        grid, prof, 2.0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps)
        + 0.05 * np.sin(th) ** 2 * np.sin(2 * ps) + 0.02 * np.sin(th) ** 3 * np.cos(3 * ps + 0.4))


@pytest.mark.parametrize("make_state", [
    a3_state, axisymmetric_latlong_state,
    lambda: wavy_latlong_state((16, 32)), lambda: wavy_latlong_state((32, 64))],
    ids=["a3_256", "axisymmetric_24x48", "wavy_16x32", "wavy_32x64"])
def test_hessian_mixed_matches_mean_fluctuation_split(make_state):
    state = make_state()
    grid = state.grid
    d = sp.derivatives(state.phi.values, grid)
    h = np.stack(sp.hessian_mixed(grid, d[0], d[2:]))
    ref = reference_hessian_mixed(grid, state.phi.values)
    # the reference's mixed components moved to the orthonormal frame,
    # where H^theta_psi / sin theta and H^psi_theta sin theta agree
    s = grid.sin_theta
    frame = np.stack([ref[..., 0, 0], ref[..., 0, 1] / s, ref[..., 1, 1]])
    bound = 1e-12 * np.abs(frame).max()
    assert bound > 0.0
    assert np.abs(ref[..., 1, 0] * s - frame[1]).max() <= bound
    assert np.abs(h - frame).max() <= bound
    # the two rows next to the poles, where the two forms differ most
    assert np.abs(h[:, [0, -1]] - frame[:, [0, -1]]).max() <= bound


@pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
@pytest.mark.parametrize("make_state", STATES)
def test_stage_matches_reference_reductions_bit_for_bit(make_state, name):
    state = make_state()
    f = cf.from_name(name, 2)
    stage = flow.evaluate(state, f)
    e, lvf, speed = reference_stage(state, f)
    # the stage forms the sigma_j up to F's cone order: S_2 not for the mean
    assert np.array_equal(stage.e, e[..., :f.cone_order + 1])
    assert np.array_equal(stage.lvf, lvf)
    assert np.array_equal(stage.speed, speed)
    kappa = geo.scaled_curvatures(stage.lam_p, stage.b, stage.hess)
    fp = reference_gradient(f, kappa, e)
    assert np.array_equal(cf._gradient(f, kappa, e), fp)
    assert flow.stable_dt(state, f, stage) == reference_stable_dt(state, stage, fp)


def in_cone_pairs(rng, rows, cols):
    """Ascending kappa pairs in the sigma_2 cone, shape (rows, cols, 2):
    the larger kappa from 1e-150 to 1e150, and the smaller one of the
    same size (ratio 1e-16 to 1), a tie, or far smaller, so that sigma_2
    is just above 0 (ratio down to 1e-300, while sigma_2 stays positive)."""
    size = rows * cols
    hi = 10.0 ** rng.uniform(-150.0, 150.0, 4 * size)
    ratio = 10.0 ** np.concatenate([rng.uniform(-16.0, 0.0, 2 * size), np.zeros(size),
                                    rng.uniform(-300.0, -16.0, size)])
    kappa = np.stack([hi * ratio, hi], axis=-1)
    e = cf.elementary_symmetric(kappa)
    kappa = kappa[(e[:, 1] > 0.0) & (e[:, 2] > 0.0)]
    return rng.permutation(kappa)[:size].reshape(rows, cols, 2)


@pytest.mark.parametrize("name", ["sigma2root", "quotient2"])
def test_stable_dt_reads_the_smaller_kappa_column(name, monkeypatch):
    # at n = 2 the smaller kappa's dF column is the column maximum bit for
    # bit, ties and sigma_2 near 0 included, so the bound equals the
    # reference's full maximum. The stage's S_1 and S_2 are not formed
    # from kappa, so the column must be the maximum for sigma_j off
    # kappa's too: S_1 - kappa_i is monotone in kappa_i whatever S_1 is.
    # DT_MIN is lifted so that a bound of a state far from 1 in size is
    # compared and not refused
    monkeypatch.setattr(flow, "DT_MIN", 0.0)
    f = cf.from_name(name, 2)
    state = a3_state()
    stage = flow.evaluate(state, f)
    rng = np.random.default_rng(20261019)
    kappa = in_cone_pairs(rng, 200, state.grid.n_theta)
    e = cf.elementary_symmetric(kappa)
    off = e.copy()
    off[..., 1:] *= 2.0 ** rng.uniform(-1.0, 1.0, e.shape[:-1] + (2,))
    with np.errstate(divide="ignore", over="ignore"):
        for ej in (e, off):
            assert np.array_equal(cf._gradient(f, kappa[..., :1], ej)[..., 0],
                                  reference_gradient(f, kappa, ej).max(axis=-1))
        for k, ek in zip(kappa, off):
            monkeypatch.setattr(flow, "scaled_curvatures", lambda *args, k=k: k)
            lvf = cf._value(f, ek)
            row = dataclasses.replace(stage, e=ek, lvf=lvf, speed=stage.v2 / lvf)
            assert flow.stable_dt(state, f, row) == \
                reference_stable_dt(state, row, reference_gradient(f, k, ek))


@pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
def test_cone_test_matches_reference(name):
    # the cone test reads one minimum per sigma_j; it must accept and
    # refuse exactly what one minimum over sigma_1..sigma_k did
    f = cf.from_name(name, 2)
    kappa = latlong_state().grid.zeros[..., None] + np.array([0.5, 1.5])
    for j in range(3):
        for bad in (None, 0.0, -1e-300, -2.0, math.nan, -math.inf):
            e = cf.elementary_symmetric(kappa)
            if bad is not None:
                e[7, 11, j] = bad
            try:
                cf.require_cone(f, e, kappa)
                accepted = True
            except InadmissibleState:
                accepted = False
            assert accepted == bool(_in_cone(f, e)), (j, bad)


@pytest.mark.parametrize("m", [0.0, 1e-6, 1.0, 100.0])
def test_lookups_match_reference_bit_for_bit(m):
    prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=40.0)
    r = np.linspace(prof.r_horizon, prof.r_max, 20001)[int(m == 0.0):]
    phi = np.linspace(ref_gauge_from_radius(prof, r[0]), ref_gauge_from_radius(prof, r[-1]), 20001)
    args = {"lambda_of_r": r, "gauge_from_radius": r, "radius_from_gauge": phi,
            "lambda_from_gauge": phi}
    for name, ref in LOOKUPS:
        x = args[name]
        assert _same(_outcome(getattr(prof, name), x), _outcome(ref, prof, x)), name
        for xi in (x[0], float(x[-1]), x[::997].reshape(-1, 3)):
            assert _same(_outcome(getattr(prof, name), xi), _outcome(ref, prof, xi)), name


@pytest.mark.parametrize("m", [0.0, 1e-6, 1.0, 100.0])
def test_lookups_refuse_what_the_reference_refused(m):
    # finite values just past either end of each range, at the slivers'
    # edges, and far out; m = 0 radii below the smallest one with a finite
    # gauge are refused by design and left out
    prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=8.0)
    r_lo, r_hi = prof.r_horizon, prof.r_max
    phi_hi = float(ref_gauge_from_radius(prof, r_hi))
    probes = {
        "r": [r_lo - 1e-9, r_lo - 1e-12, r_hi + 1e-9, r_hi * (1 + 1e-14),
              np.nextafter(r_hi * (1 + 1e-14), 9.0), -1e300, 1e300],
        "phi": [phi_hi * (1 - 1e-9), phi_hi * (1 - 1e-12), phi_hi * (1 - 1e-13),
                0.0, 1.0, 1e300],
    }
    if m == 0.0:
        probes["r"] = [x for x in probes["r"] if x > 0.0 or x < -1e-12]
    else:
        phi_lo = float(prof._r_by_phi.near.x[0])
        probes["r"].append(np.nextafter(r_lo - 1e-12, -9.0))
        probes["phi"] += [phi_lo - 1e-9, phi_lo - 1e-12, -1e300]
    kind = {"lambda_of_r": "r", "gauge_from_radius": "r",
            "radius_from_gauge": "phi", "lambda_from_gauge": "phi"}
    refused = 0
    for name, ref in LOOKUPS:
        for x in probes[kind[name]]:
            got, want = _outcome(getattr(prof, name), x), _outcome(ref, prof, x)
            assert _same(got, want), (name, x)
            refused += got is TableExtentError
    assert refused >= 4 * len(LOOKUPS)


@pytest.mark.parametrize("make_state", STATES)
def test_state_from_gauge_matches_reference(make_state):
    state = make_state()
    grid, prof, phi = state.grid, state.profile, state.phi.values
    new = geo.state_from_gauge(grid, prof, phi)
    r, lam = ref_state_from_gauge(grid, prof, phi)
    assert np.array_equal(new.r.values, r) and np.array_equal(new.lam, lam)
    # every gauge is refused with the reference's error type: a non-finite
    # value before a finite one past the table, and a wrong shape first
    top = float(ref_gauge_from_radius(prof, prof.r_max))
    for bad in ([math.nan], [math.inf], [-math.inf], [top * (1 - 1e-9)], [1.0],
                [1.0, math.nan], [top * (1 - 1e-9), -math.inf]):
        bent = phi.copy()
        bent.flat[3:3 + len(bad)] = bad
        got = _outcome(geo.state_from_gauge, grid, prof, bent)
        assert got is _outcome(ref_state_from_gauge, grid, prof, bent), bad
    for shape in [phi.ravel()[:-1], phi.ravel()[:-1] * math.nan]:
        assert _outcome(geo.state_from_gauge, grid, prof, shape) is ConfigError
        assert _outcome(ref_state_from_gauge, grid, prof, shape) is ConfigError


@pytest.mark.parametrize("make_state", STATES)
def test_state_from_gauge_reads_the_reference_radius(make_state):
    # the state is built with lambda alone; r is looked up from phi when
    # first read, kept, and equal to the reference's bit for bit
    state = make_state()
    grid, prof, phi = state.grid, state.profile, state.phi.values
    new = geo.state_from_gauge(grid, prof, phi)
    assert new._r is None
    r = new.r
    assert new.r is r
    assert np.array_equal(r.values, ref_state_from_gauge(grid, prof, phi)[0])
