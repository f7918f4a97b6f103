"""Extrinsic geometry of star-shaped graphs over the sphere.

A hypersurface is the graph {(r(theta), theta)} in the warped background.
The radial gauge phi = -integral_r^infinity ds/lambda, anchored at
infinity so that it resolves radius at any r, flattens the metric so that
the induced metric, tilt factor and shape operator take the algebraic
forms

    g_ij    = lambda^2 (phi_i phi_j + sigma_ij)
    v^2     = 1 + |D phi|^2
    h_ij    = (lambda / v) (lambda' (phi_i phi_j + sigma_ij) - phi_ij)
    h^i_j   = (1 / (lambda v)) (lambda' delta^i_j - gtilde^ik phi_kj)

with gtilde^ij = sigma^ij - phi^i phi^j / v^2. Principal curvatures are
computed from the symmetric covariant pair (h_ij, g_ij) by a closed-form
2x2 generalized eigensolve, which keeps them real and avoids dividing by
sin^2(theta) near the poles. Both are carried as component triples
(00, 01, 11); the discrete Hessian is symmetric by construction, since
one array serves as both of its off-diagonal entries, so h_ij needs no
symmetrization.

The ambient curvature enters through two contractions along the surface,
assembled from the warped-product coefficients; the scalar prefactor

    (lambda lambda'' + 1 - lambda'^2) / lambda = (m (n + 1) / 2) lambda^(-n)

is evaluated through the right-hand closed form since the left-hand
combination loses all significant digits at large radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import curvature as cf
from .background import WarpProfile
from .errors import TableExtentError
from .sphere import (
    ScalarField,
    SphereGrid,
    covariant_hess,
    covector_norm_sq,
    derivatives,
    grad_components,
    symmetric_matrix,
)


@dataclass
class GraphState:
    """The evolving surface at one instant: gauge field, radius, warp
    factor lambda(r) at each node, and time."""

    t: float
    grid: SphereGrid
    phi: ScalarField
    r: ScalarField
    lam: np.ndarray
    profile: WarpProfile


def state_from_radius(grid, profile, r_values, t=0.0) -> GraphState:
    r_values = np.asarray(r_values, dtype=float)
    phi = profile.gauge_from_radius(r_values)
    return GraphState(
        t=float(t), grid=grid,
        phi=ScalarField(grid, phi),
        r=ScalarField(grid, r_values),
        lam=profile.lambda_of_r(r_values),
        profile=profile,
    )


def state_from_gauge(grid, profile, phi_values, t=0.0) -> GraphState:
    """The state at the gauge phi_values, with r and lambda from one
    lookup (WarpProfile.warp_from_gauge), which judges phi and then r by
    one min and one max each. A wrong shape is a ConfigError. Only when
    the lookup refuses a value is phi built as a checked ScalarField, so
    that a non-finite value is named (FlowError) before a finite value
    past the table (TableExtentError)."""
    phi = np.asarray(phi_values, dtype=float)
    if phi.shape != grid.field_shape:
        ScalarField(grid, phi)      # raises ConfigError
    try:
        r, lam = profile.warp_from_gauge(phi)
    except TableExtentError:
        ScalarField(grid, phi)      # raises FlowError on a non-finite value
        raise
    return GraphState(t=float(t), grid=grid, phi=ScalarField.unchecked(grid, phi),
                      r=ScalarField.unchecked(grid, r), lam=lam, profile=profile)


@dataclass
class ExtrinsicData:
    """Per-node extrinsic quantities of a graph state.

    Tensors are in (theta, psi) coordinates. The gradient is the pair
    (phi_theta, phi_psi); the symmetric 2-tensors g and h are the triples
    of their (00, 01, 11) components, and `symmetric_matrix(*ext.g)`
    assembles a (..., 2, 2) array where one is needed. On axisymmetric
    grids the psi components are the grid's read-only zero field. Only
    what the stepper and the snapshots read is kept; the identity checks
    derive the mixed shape operator and the raised gradient from these
    fields and the grid's round metric. sigma_j feeds every cone test, F
    and dF of kappa that reads this state.

    f_kappa and speed are the flow's stage data, None until
    flow.evaluate fills them in: F(kappa) of the flow's curvature
    function, which the stability bound and the snapshot read, and
    d phi / dt = v / (lambda F(kappa)), from that one F. flow.evaluate
    makes one per state the stepper touches: each accepted state, each
    midpoint and each trial end state.
    """

    v: np.ndarray
    grad_phi: tuple                # covariant D_i phi, (theta, psi)
    grad_phi_sq: np.ndarray        # |D phi|^2
    g: tuple                       # induced metric, (g00, g01, g11)
    h: tuple                       # second fundamental form, (h00, h01, h11)
    kappa: np.ndarray              # principal curvatures, ascending, (..., 2)
    sigma_j: np.ndarray            # elementary symmetric sigma_j(kappa), j = 0..n
    chi: np.ndarray                # lambda / v
    lam: np.ndarray
    lam_p: np.ndarray
    f_kappa: Optional[np.ndarray] = None   # F(kappa)
    speed: Optional[np.ndarray] = None     # v / (lambda F(kappa))


def _h_mixed(ext):
    """Mixed shape operator h^i_j = g^ik h_kj."""
    g00, g01, g11 = ext.g
    g_inv = symmetric_matrix(g11, -g01, g00) / (g00 * g11 - g01 * g01)[..., None, None]
    return np.einsum("...ik,...kj->...ij", g_inv, symmetric_matrix(*ext.h))


def _pencil_eigenvalues(a, b, diagonal=False):
    """Ascending eigenvalues of the symmetric pencil a x = kappa b x with b
    positive definite (closed 2x2 form), from the component triples
    a = (a00, a01, a11) and b = (b00, b01, b11).

    The discriminant is expanded as
        (a00 b11 - a11 b00)^2 + 4 (a00 b01 - a01 b00)(a11 b01 - a01 b11),
    which vanishes to rounding at umbilic points where a is proportional
    to b; the textbook form mix^2 - 4 det a det b would leave an
    sqrt(eps)-sized spurious eigenvalue split there. With diagonal=True
    both off-diagonals vanish identically and the terms they enter are
    skipped; each of those terms adds an exact zero, so the result is the
    same bit for bit.

    Far out d1, d2 and d3 grow like lambda^4, and their squares overflow
    past r ~ 88. So the diagonal root is |d1|, and the general one is taken
    of the discriminant times s^2, for one power of two s per state near
    1 / sqrt(max det b), and divided by s: d1 s is squared, and 4 s^2 is
    one factor of 4 d2 d3. Both equal the unscaled sqrt wherever its
    products neither overflow nor underflow.
    """
    a00, a01, a11 = a
    b00, b01, b11 = b
    p, q = a00 * b11, a11 * b00
    mix, d1 = p + q, p - q
    if diagonal:
        det_b = b00 * b11
        disc = np.abs(d1)
    else:
        det_b = b00 * b11 - b01 ** 2
        mix = mix - 2.0 * a01 * b01
        d2 = a00 * b01 - a01 * b00
        d3 = a11 * b01 - a01 * b11
        s = math.ldexp(1.0, -(math.frexp(float(det_b.max()))[1] // 2))
        d1 = d1 * s
        disc = np.sqrt(np.maximum(d1 * d1 + (4.0 * s * s) * d2 * d3, 0.0)) / s
    den = 2.0 * det_b
    lo = (mix - disc) / den
    kappa = np.empty(lo.shape + (2,))
    kappa[..., 0] = lo
    kappa[..., 1] = (mix + disc) / den
    return kappa


def compute_extrinsic(state: GraphState) -> ExtrinsicData:
    grid = state.grid
    lam = state.lam
    lam_p = state.profile.lambda_p_of_lambda(lam)

    d_th, d_ps, p00, p01, p11 = derivatives(state.phi)   # D phi and phi_ij
    q = covector_norm_sq(grid, d_th, d_ps)
    v = np.sqrt(1.0 + q)
    chi = lam / v
    lam2 = lam * lam

    # g_ij = lam^2 b_ij and h_ij = chi (lam' b_ij - phi_ij), where
    # b_ij = phi_i phi_j + sigma_ij
    s2 = grid.sigma[..., 1, 1]
    b00 = d_th * d_th + 1.0
    if grid.mode == "axisymmetric1d":
        zero = grid.zeros
        g = (lam2 * b00, zero, lam2 * s2)
        h = (chi * (lam_p * b00 - p00), zero, chi * (lam_p * s2 - p11))
        kappa = _pencil_eigenvalues(h, g, diagonal=True)
    else:
        b01 = d_th * d_ps
        b11 = d_ps * d_ps + s2
        g = (lam2 * b00, lam2 * b01, lam2 * b11)
        h = (chi * (lam_p * b00 - p00), chi * (lam_p * b01 - p01),
             chi * (lam_p * b11 - p11))
        kappa = _pencil_eigenvalues(h, g)

    return ExtrinsicData(
        v=v, grad_phi=(d_th, d_ps), grad_phi_sq=q,
        g=g, h=h, kappa=kappa,
        sigma_j=cf.elementary_symmetric(kappa),
        chi=chi, lam=lam, lam_p=lam_p,
    )


def ambient_contractions(state: GraphState, ext: ExtrinsicData):
    """The two ambient curvature contractions along the surface.

    Returns covariant (..., 2, 2) tensors: the normal-normal contraction
    R(X_i, nu, X_j, nu), and R(nu, X_i, (lambda d_r)^T, X_j).
    """
    prof = state.profile
    m, n = prof.params.m, prof.params.n
    lam, lam_p = ext.lam, ext.lam_p
    lam_pp = prof.lambda_pp_of_lambda(lam)
    q, v = ext.grad_phi_sq, ext.v
    sig = state.grid.sigma
    r_i = lam[..., None] * np.stack(ext.grad_phi, axis=-1)
    rr = r_i[..., :, None] * r_i[..., None, :]

    lp2m1 = lam_p * lam_p - 1.0
    c_a = lam * lam_pp + lp2m1 * q
    c_b = 2.0 * lam_pp / lam - lp2m1 / lam ** 2 + (lam_pp / lam) * q
    t_normal = -(1.0 / (v * v))[..., None, None] * (
        c_a[..., None, None] * sig + c_b[..., None, None] * rr
    )

    prefactor = 0.5 * m * (n + 1) * lam ** (-n)      # (lam lam'' + 1 - lam'^2)/lam
    t_radial = (prefactor / v ** 3)[..., None, None] * (
        rr - (lam * lam * q)[..., None, None] * sig
    )
    return t_normal, t_radial


def contraction_consistency_residual(state: GraphState) -> float:
    """Sup residual of the contracted curvature identity, checked component
    by component as the tensor identity

        B_ij = chi^-1 R(nu, X_i, lambda d_r, X_j) + R(X_i, nu, X_j, nu)
               + (lambda''/lambda) g_ij = 0,

    relative to 1 + |(lambda''/lambda) g_ij|. The two ambient contractions
    carry the closed-form radial prefactor, the last term the warp
    accessors; B vanishes to rounding only if the closed forms are
    mutually consistent, so a corrupted lambda'' or prefactor breaks it.
    """
    ext = compute_extrinsic(state)
    t_normal, t_radial = ambient_contractions(state, ext)
    lam = ext.lam
    warp = (state.profile.lambda_pp_of_lambda(lam) / lam)[..., None, None] \
        * symmetric_matrix(*ext.g)
    b = t_radial / ext.chi[..., None, None] + t_normal + warp
    return float(np.max(np.abs(b) / (1.0 + np.abs(warp))))


def _tilt_gradient_form(state: GraphState, ext: ExtrinsicData):
    """The gradient form v^-1 phi^k phi_ki of D_i v, shape (..., 2), from
    the round-metric Hessian of phi."""
    d_th, d_ps = ext.grad_phi
    grad_up = np.stack([d_th, d_ps / state.grid.sigma[..., 1, 1]], axis=-1)
    return np.einsum("...k,...ki->...i", grad_up, covariant_hess(state.phi)) \
        / ext.v[..., None]


def tilt_gradient_residual(state: GraphState) -> float:
    """Sup defect of D_i v = v^-1 phi^k phi_ki: the stencil derivative of v
    against the gradient form, second order in the grid spacing."""
    ext = compute_extrinsic(state)
    lhs = grad_components(ScalarField(state.grid, ext.v))
    return float(np.max(np.abs(lhs - _tilt_gradient_form(state, ext))))


def tilt_gradient_shape_residual(state: GraphState) -> float:
    """Sup defect of the shape form of D_k v against its gradient form,

        (lambda'/lambda) v r_k - v^2 h^i_k r_i = v^-1 phi^i phi_ik,

    relative to sup |(lambda'/lambda) v r_k|. Both sides read the same
    discrete phi_ij, on which the two are equal in exact arithmetic, so the
    defect is rounding; a corrupted h, g or lambda' breaks it. A state with
    no gradient reads 0.
    """
    ext = compute_extrinsic(state)
    r_i = ext.lam[..., None] * np.stack(ext.grad_phi, axis=-1)
    radial = ((ext.lam_p / ext.lam) * ext.v)[..., None] * r_i
    shape = radial - (ext.v ** 2)[..., None] * np.einsum("...ik,...i->...k", _h_mixed(ext), r_i)
    scale = max(float(np.max(np.abs(radial))), np.finfo(float).tiny)
    return float(np.max(np.abs(shape - _tilt_gradient_form(state, ext)))) / scale
