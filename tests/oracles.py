"""Independent reference computations used by the test suite.

The curvature oracle works directly in the radial parametrization: it
differentiates the embedding (R(theta), theta) of a surface of revolution
with its own finite-difference stencils, applies the warped-product
Christoffel symbols of the ambient metric, and reads the principal
curvatures off the first and second fundamental forms. No gauge field,
no shape-operator formula, no symmetrization: a fully separate path from
the production code.

The step-path oracles compute the flow's speed and stability bound
through the public curvature API, each cone test, F and dF evaluated on
its own from kappa, sigma_j recomputed each time; the flow's one-pass
stage must match them bit for bit.
"""

import numpy as np

from icflow import curvature as cf
from icflow.errors import FlowError, InadmissibleState


def _even_pad(v):
    return np.concatenate([v[:1], v, v[-1:]])


def revolution_principal_curvatures(profile, theta, r_values):
    """Principal curvatures (kappa_meridian, kappa_parallel) of the
    axisymmetric surface r = R(theta), by finite differences of the
    embedding in the ambient metric dr^2 + lambda^2 (dtheta^2 + sin^2 dpsi^2)."""
    h = theta[1] - theta[0]
    p = _even_pad(np.asarray(r_values, dtype=float))
    rp = (p[2:] - p[:-2]) / (2.0 * h)
    rpp = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / h ** 2

    lam = profile.lambda_of_r(r_values)
    lam_p = profile.lambda_p_of_lambda(lam)

    v = np.sqrt(1.0 + rp ** 2 / lam ** 2)
    # covariant acceleration of Y_theta = (R', 1, 0):
    #   r:     R'' + Gamma^r_thth = R'' - lambda lambda'
    #   theta: 2 Gamma^th_rth R' = 2 (lambda'/lambda) R'
    acc_r = rpp - lam * lam_p
    acc_th = 2.0 * (lam_p / lam) * rp
    # <A, nu> with nu = (1/v)(d_r - (R'/lambda^2) d_theta)
    ii_thth = -(acc_r - rp * acc_th) / v
    kappa_meridian = ii_thth / (rp ** 2 + lam ** 2)

    sin, cos = np.sin(theta), np.cos(theta)
    # covariant acceleration of Y_psi: (Gamma^r_pp, Gamma^th_pp, 0)
    acc_r_p = -lam * lam_p * sin ** 2
    acc_th_p = -sin * cos
    ii_pp = -(acc_r_p - rp * acc_th_p) / v
    kappa_parallel = ii_pp / (lam ** 2 * sin ** 2)
    return kappa_meridian, kappa_parallel


# -- the step path through the public curvature API ----------------------------

def reference_speed(state, F, ext):
    """d phi / dt = v / F(lambda kappa) through the public cone test and
    f_eval, with ext = compute_extrinsic(state): each check of the stage,
    on its own evaluation of F."""
    kappa = ext.kappa
    ok = cf.cone_contains(F, kappa)
    if not ok.all():
        margins = cf.elementary_symmetric(kappa)[..., 1:F.cone_order + 1].min(axis=-1)
        idx = np.unravel_index(int(np.argmin(margins)), margins.shape)
        raise InadmissibleState("state left the admissibility cone",
                                t=state.t, node=idx, kappa=kappa[idx])
    scaled = cf.f_eval(F, ext.lam[..., None] * kappa)
    plain = ext.lam * cf.f_eval(F, kappa)
    if np.max(np.abs(scaled - plain)) > 1e-12 * np.max(np.abs(scaled)):
        raise FlowError("homogeneity cross-check failed in speed evaluation")
    if np.min(scaled) <= 0.0:
        idx = np.unravel_index(int(np.argmin(scaled)), scaled.shape)
        raise InadmissibleState("curvature function not positive",
                                t=state.t, node=idx, kappa=kappa[idx])
    return ext.v / scaled


def reference_stable_dt(state, F, ext, cfl):
    """The parabolic stability bound from f_grad and f_eval, with
    ext = compute_extrinsic(state)."""
    fp = cf.f_grad(F, ext.kappa)
    fval = cf.f_eval(F, ext.kappa)
    scale = ext.v / (ext.lam * fval) ** 2 * np.max(fp, axis=-1)
    h = state.grid.d_theta
    return cfl * h * h / float(np.max(scale))
