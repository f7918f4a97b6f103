"""Extrinsic geometry of star-shaped graphs over the sphere.

A hypersurface is the graph {(r(theta), theta)} in the warped background.
The radial gauge phi = -integral_r^infinity ds/lambda, anchored at
infinity so that it resolves radius at any r, flattens the metric so that
the induced metric, tilt factor and shape operator take the algebraic
forms

    g_ij    = lambda^2 b_ij,        b_ij = phi_i phi_j + sigma_ij
    v^2     = 1 + |D phi|^2
    h_ij    = (lambda / v) (lambda' b_ij - phi_ij)
    h^i_j   = (1 / (lambda v)) (lambda' delta^i_j - gtilde^ik phi_kj)

with gtilde^ij = sigma^ij - phi^i phi^j / v^2, the inverse of b_ij.

One pass reads these forms (`scaled_invariants`): one set of stencils,
and the invariants of the scaled shape operator
lambda v h^i_j = lambda' delta^i_j - A, A = b^-1 phi_ij: at n = 2

    S_1 = lambda v sigma_1       = 2 lambda' - tr A
    S_2 = (lambda v)^2 sigma_2   = lambda' (lambda' - tr A) + det A,

with tr A and det A in closed form over det b = v^2 sin^2(theta). An F
of the principal curvatures is a function of the sigma_j, so by its
1-homogeneity these give lambda v F with no eigensolve; the pass forms
them up to F's cone order, S_1 alone for the mean. Where kappa is read
(the stability bound of an F other than the mean, where it may come
under dt_max, snapshots, checks, the node a cone exit names), it comes
from the one pencil phi_ij x = mu b_ij x of the same pass:
lambda v kappa = lambda' - mu (`scaled_curvatures`), and kappa that over
lambda v (`curvatures`; a state's, `compute_extrinsic`). The
closed-form 2x2 generalized eigensolve keeps kappa real, avoids
dividing by sin^2(theta) near the poles and forms no product that grows
like lambda^4. Gradients are carried as component pairs (theta, psi)
and symmetric 2-tensors as component triples (00, 01, 11), as
`sphere.derivatives` returns them; the discrete Hessian is symmetric by
construction, since one array serves as both of its off-diagonal
entries, so the pencil needs no symmetrization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .background import WarpProfile
from .errors import TableExtentError
from .sphere import (
    ScalarField,
    SphereGrid,
    covector_norm_sq,
    derivatives,
    grad_components,
)


@dataclass(slots=True, eq=False)
class GraphState:
    """The evolving surface at one instant: gauge field, warp factor
    lambda(r) at each node, and time. The radius field r is the one
    state_from_radius was given, or else it is looked up from phi
    (WarpProfile.radius_from_gauge) when first read and then kept: a
    stage reads only phi and lambda."""

    t: float
    grid: SphereGrid
    phi: ScalarField
    lam: np.ndarray
    profile: WarpProfile
    _r: Optional[ScalarField] = field(default=None, repr=False)

    @property
    def r(self) -> ScalarField:
        if self._r is None:
            self._r = ScalarField.unchecked(
                self.grid, self.profile.radius_from_gauge(self.phi.values))
        return self._r


def state_from_radius(grid, profile, r_values, t=0.0) -> GraphState:
    r_values = np.asarray(r_values, dtype=float)
    phi = profile.gauge_from_radius(r_values)
    return GraphState(
        t=float(t), grid=grid,
        phi=ScalarField(grid, phi),
        lam=profile.lambda_of_r(r_values),
        profile=profile,
        _r=ScalarField(grid, r_values),
    )


def lambda_of_gauge(grid, profile, phi):
    """lambda at the gauge array phi from one lookup
    (WarpProfile.lambda_from_gauge), whose one min and one max refuse
    every gauge whose radius lies outside the profile. Only when the lookup
    refuses a value is phi built as a checked ScalarField, so that a
    non-finite value is named (FlowError) before a finite value outside
    the profile (TableExtentError)."""
    try:
        return profile.lambda_from_gauge(phi)
    except TableExtentError:
        ScalarField(grid, phi)      # raises FlowError on a non-finite value
        raise


def state_from_gauge(grid, profile, phi_values, t=0.0) -> GraphState:
    """The state at the gauge phi_values, with lambda_of_gauge; r is
    looked up only if it is read. A wrong shape is a ConfigError."""
    phi = np.asarray(phi_values, dtype=float)
    if phi.shape != grid.field_shape:
        ScalarField(grid, phi)      # raises ConfigError
    return GraphState(t=float(t), grid=grid, phi=ScalarField.unchecked(grid, phi),
                      lam=lambda_of_gauge(grid, profile, phi), profile=profile)


def _pencil_eigenvalues(a, b):
    """Ascending eigenvalues of the symmetric pencil a x = kappa b x with b
    positive definite (closed 2x2 form), from the component triples
    a = (a00, a01, a11) and b = (b00, b01, b11).

    The discriminant is expanded as
        (a00 b11 - a11 b00)^2 + 4 (a00 b01 - a01 b00)(a11 b01 - a01 b11),
    which vanishes to rounding at umbilic points where a is proportional
    to b; the textbook form mix^2 - 4 det a det b would leave an
    sqrt(eps)-sized spurious eigenvalue split there.
    """
    a00, a01, a11 = a
    b00, b01, b11 = b
    p, q = a00 * b11, a11 * b00
    mix = p + q - 2.0 * a01 * b01
    d1 = p - q
    d2 = a00 * b01 - a01 * b00
    d3 = a11 * b01 - a01 * b11
    disc = np.sqrt(np.maximum(d1 * d1 + 4.0 * d2 * d3, 0.0))
    den = 2.0 * (b00 * b11 - b01 ** 2)
    return np.stack([(mix - disc) / den, (mix + disc) / den], axis=-1)


def scaled_invariants(grid, profile, phi, lam, order):
    """The one geometric pass of the gauge array phi, with lambda lam at
    its nodes: one set of stencils and the invariants of the scaled shape
    operator lambda v h^i_j = lambda' delta^i_j - A, A = b^-1 phi_ij.

    Returns (D phi, |D phi|^2, v^2, e, lambda', b, phi_ij): D phi as a
    pair, b_ij = phi_i phi_j + sigma_ij and the round Hessian phi_ij as
    triples, and e holding, along its last axis, the sigma_j of
    lambda v kappa up to j = order, an F's cone order: (1, S_1) for the
    mean, which reads no S_2, else (1, S_1, S_2), with
    S_1 = 2 lambda' - tr A and S_2 = lambda' (lambda' - tr A) + det A;
    tr A and det A are divided by det b = v^2 sin^2 theta, which is exact
    in closed form. phi and lam may carry a leading member axis, a stack
    of fields, on which every operation is elementwise. On axisymmetric
    grids |D phi|^2 = phi_theta^2, b = (v^2, 0, sin^2 theta) with the
    grid's zero, and the psi terms of tr A and det A vanish identically
    and are skipped; each adds an exact zero, so a lat-long grid gives
    the same e bit for bit on axisymmetric data."""
    d_th, d_ps, p00, p01, p11 = derivatives(phi, grid)   # D phi and phi_ij
    q = covector_norm_sq(grid, d_th, d_ps)
    lam_p = profile.lambda_p_of_lambda(lam)
    axisymmetric = grid.mode == "axisymmetric1d"
    if axisymmetric:
        v2 = q + 1.0
        b00, b01, b11 = v2, grid.zeros, grid.sin2
        tr = b11 * p00 + b00 * p11
    else:
        v2 = 1.0 + q
        b00, b01, b11 = d_th * d_th + 1.0, d_th * d_ps, d_ps * d_ps + grid.sin2
        tr = b11 * p00 + b00 * p11 - 2.0 * (b01 * p01)
    det_b = grid.sin2 * v2
    tr /= det_b
    e = np.empty(tr.shape + (order + 1,))
    e[..., 0] = 1.0
    np.subtract(2.0 * lam_p, tr, out=e[..., 1])
    if order == 2:
        det = p00 * p11
        if not axisymmetric:
            det -= p01 * p01
        det /= det_b
        np.add(lam_p * (lam_p - tr), det, out=e[..., 2])
    return (d_th, d_ps), q, v2, e, lam_p, (b00, b01, b11), (p00, p01, p11)


def scaled_curvatures(lam_p, b, hess):
    """lambda v kappa, ascending along the last axis: lambda' less the
    eigenvalues mu of the pencil phi_ij x = mu b_ij x, from the triples b
    and hess that scaled_invariants returns, with lam_p its lambda'."""
    return lam_p[..., None] - _pencil_eigenvalues(hess, b)[..., ::-1]


def curvatures(lam, v, lam_p, b, hess):
    """The principal curvatures kappa, ascending along the last axis: the
    scaled_curvatures of the triples b and hess over lambda v, with lam
    and v = sqrt(v^2) at the same nodes."""
    return scaled_curvatures(lam_p, b, hess) / (lam * v)[..., None]


def compute_extrinsic(state: GraphState) -> np.ndarray:
    """The principal curvatures kappa of state, ascending, shape (..., 2):
    its scaled_invariants and their pencil (curvatures)."""
    _, _, v2, _, lam_p, b, hess = scaled_invariants(state.grid, state.profile,
                                                    state.phi.values, state.lam, order=1)
    return curvatures(state.lam, np.sqrt(v2), lam_p, b, hess)


def _contract(w, t):
    """The covector w^i t_ij of the vector pair w and the triple t."""
    t00, t01, t11 = t
    return w[0] * t00 + w[1] * t01, w[0] * t01 + w[1] * t11


def tilt_gradient_residual(state: GraphState) -> float:
    """Sup defect of D_i v = v^-1 phi^k phi_ki: the stencil derivative of v
    against the gradient form, from the round-metric Hessian of phi that
    the pass kept; second order in the grid spacing."""
    (d_th, d_ps), _, v2, _, _, _, hess = scaled_invariants(
        state.grid, state.profile, state.phi.values, state.lam, order=1)
    v = np.sqrt(v2)
    lhs = grad_components(ScalarField(state.grid, v))
    rhs = _contract((d_th, d_ps / state.grid.sin2), hess)
    return max(float(np.max(np.abs(a - b / v))) for a, b in zip(lhs, rhs))
