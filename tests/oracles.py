"""Independent reference computations used by the test suite.

The curvature oracle works directly in the radial parametrization: it
differentiates the embedding (R(theta), theta) of a surface of revolution
with its own finite-difference stencils, applies the warped-product
Christoffel symbols of the ambient metric, and reads the principal
curvatures off the first and second fundamental forms. No gauge field,
no shape-operator formula, no symmetrization: a fully separate path from
the production code.

The step-path oracles compute the flow's speed and stability bound from
the invariants of the scaled shape operator, written out term by term
from the components of an extrinsic pass in the general (lat-long) form
on both grids, with the cone test and dF taken over every column; the
flow's one-pass stage, which skips the terms that vanish on axisymmetric
grids and reads one dF column, must match them bit for bit.
"""

import numpy as np

from icflow import curvature as cf
from icflow import geometry as geo
from icflow.errors import FlowError, InadmissibleState


def radius_at_lambda(profile, lam):
    """The radius at which profile.lambda_of_r comes nearest the warp
    value lam: the table's radius range bisected to adjacent doubles, and
    the nearer of the two. It places an umbilic sphere by its lambda."""
    lo, hi = profile.r_horizon, profile.r_max
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if profile.lambda_of_r(mid) < lam:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda r: abs(float(profile.lambda_of_r(r)) - lam))


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


# -- the step path from the scaled invariants ----------------------------------

def reference_invariants(grid, lam_p, d_th, d_ps, q, p00, p01, p11):
    """(v^2, e, b) of the stage, from the components of an extrinsic pass:
    e = (1, S_1, S_2) with S_1 = 2 lambda' - tr A and
    S_2 = lambda' (lambda' - tr A) + det A, A = b^-1 phi_ij, and b the
    triple of b_ij = phi_i phi_j + sigma_ij, each term written out in the
    lat-long form, whose psi terms are exact zeros on axisymmetric grids."""
    s2 = grid.sin2
    v2 = 1.0 + q
    b = (d_th * d_th + 1.0, d_th * d_ps, d_ps * d_ps + s2)
    det_b = s2 * v2
    tr = (b[2] * p00 + b[0] * p11 - 2.0 * (b[1] * p01)) / det_b
    det = (p00 * p11 - p01 * p01) / det_b
    e = np.stack([np.ones_like(tr), 2.0 * lam_p - tr, lam_p * (lam_p - tr) + det], axis=-1)
    return v2, e, b


def extrinsic_pass(state):
    """geometry.scaled_invariants of state at order 1: (D phi, |D phi|^2,
    v^2, e, lambda', b, phi_ij)."""
    return geo.scaled_invariants(state.grid, state.profile, state.phi.values, state.lam,
                                 order=1)


def _stage_invariants(state):
    """reference_invariants of state, from the components of its
    extrinsic_pass, and that pass's lambda' and phi_ij."""
    grad, q, _, _, lam_p, _, hess = extrinsic_pass(state)
    return reference_invariants(state.grid, lam_p, *grad, q, *hess), lam_p, hess


def reference_speed(state, F):
    """d phi / dt = v^2 / (lambda v F) from the scaled invariants: every
    sigma_j up to the cone order tested at once, and a state outside the
    cone refused at its node of least margin, with compute_extrinsic's
    kappa there."""
    (v2, e, _), _, _ = _stage_invariants(state)
    margins = e[..., 1:F.cone_order + 1].min(axis=-1)
    if not (margins > 0.0).all():
        idx = np.unravel_index(int(np.argmin(margins)), margins.shape)
        raise InadmissibleState("state left the admissibility cone",
                                t=state.t, node=idx, kappa=geo.compute_extrinsic(state)[idx])
    lvf = cf._value(F, e)
    if np.min(lvf) <= 0.0:
        raise FlowError("curvature function not positive on the cone")
    return v2 / lvf


def reference_stable_dt(state, F, cfl):
    """The parabolic stability bound from the scaled invariants:
    v / (lambda F)^2 = speed^2 / v times the largest dF/dkappa_i over both
    columns, read at lambda v kappa, lambda' less the eigenvalues of the
    pencil (phi_ij, b_ij)."""
    (v2, e, b), lam_p, hess = _stage_invariants(state)
    speed = reference_speed(state, F)
    mu = geo._pencil_eigenvalues(hess, b)
    kappa = lam_p[..., None] - mu[..., ::-1]
    fp = cf._gradient(F, kappa, e)
    scale = speed * speed / np.sqrt(v2) * np.max(fp, axis=-1)
    h = state.grid.d_theta
    return cfl * h * h / float(np.max(scale))
