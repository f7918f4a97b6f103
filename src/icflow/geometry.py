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

from dataclasses import dataclass

import numpy as np

from . import curvature as cf
from .background import WarpProfile
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
        phi=ScalarField(grid, phi, t=t),
        r=ScalarField(grid, r_values, t=t),
        lam=profile.lambda_of_r(r_values),
        profile=profile,
    )


def state_from_gauge(grid, profile, phi_values, t=0.0) -> GraphState:
    phi = ScalarField(grid, np.asarray(phi_values, dtype=float), t=t)
    r, lam = profile.warp_from_gauge(phi.values)
    return GraphState(t=float(t), grid=grid, phi=phi, r=ScalarField(grid, r, t=t),
                      lam=lam, profile=profile)


@dataclass
class ExtrinsicData:
    """Per-node extrinsic quantities of a graph state.

    Tensors are in (theta, psi) coordinates. The gradient is the pair
    (phi_theta, phi_psi); the symmetric 2-tensors g and h are the triples
    of their (00, 01, 11) components, and `symmetric_matrix(*ext.g)`
    assembles a (..., 2, 2) array where one is needed. On axisymmetric
    grids the psi components are the grid's read-only zero field. flow.run
    computes one per accepted state and hands it to the snapshot, the
    stability bound and the first stage of the next step. Only what the
    stepper and the snapshots read is kept; the identity checks derive the
    mixed shape operator, raised gradient and gtilde^ij from these fields.
    sigma_j feeds every cone test, F and dF of kappa that reads this state;
    sigma is the grid's shared, read-only round metric.
    """

    v: np.ndarray
    grad_phi: tuple                # covariant D_i phi, (theta, psi)
    grad_phi_sq: np.ndarray        # |D phi|^2
    sigma: np.ndarray              # round metric components, (..., 2, 2)
    g: tuple                       # induced metric, (g00, g01, g11)
    h: tuple                       # second fundamental form, (h00, h01, h11)
    kappa: np.ndarray              # principal curvatures, ascending, (..., 2)
    sigma_j: np.ndarray            # elementary symmetric sigma_j(kappa), j = 0..n
    chi: np.ndarray                # lambda / v
    lam: np.ndarray
    lam_p: np.ndarray


def _h_mixed(ext):
    """Mixed shape operator h^i_j = g^ik h_kj."""
    g00, g01, g11 = ext.g
    g_inv = symmetric_matrix(g11, -g01, g00) / (g00 * g11 - g01 * g01)[..., None, None]
    return np.einsum("...ik,...kj->...ij", g_inv, symmetric_matrix(*ext.h))


def _grad_up(ext):
    """Contravariant gradient phi^i = sigma^ik phi_k, shape (..., 2)."""
    d_th, d_ps = ext.grad_phi
    return np.stack([d_th, d_ps / ext.sigma[..., 1, 1]], axis=-1)


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
    """
    a00, a01, a11 = a
    b00, b01, b11 = b
    p, q = a00 * b11, a11 * b00
    mix, d1 = p + q, p - q
    if diagonal:
        det_b = b00 * b11
        disc = np.sqrt(d1 * d1)
    else:
        det_b = b00 * b11 - b01 ** 2
        mix = mix - 2.0 * a01 * b01
        d2 = a00 * b01 - a01 * b00
        d3 = a11 * b01 - a01 * b11
        disc = np.sqrt(np.maximum(d1 * d1 + 4.0 * d2 * d3, 0.0))
    den = 2.0 * det_b
    return np.stack([(mix - disc) / den, (mix + disc) / den], axis=-1)


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
        v=v, grad_phi=(d_th, d_ps), grad_phi_sq=q, sigma=grid.sigma,
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
    sig = ext.sigma
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


def shape_gradient_tensor(F: cf.CurvatureFunction, ext: ExtrinsicData):
    """dF/dh as a contravariant 2-tensor F^ij, from the 2x2 spectral calculus.

    F^i_j shares eigenvectors with the scaled shape operator; writing it as
    alpha I + beta h-tilde reproduces the eigenvalue derivatives exactly,
    with beta -> 0 at umbilic points. Indices are then raised with gtilde.
    """
    lam = ext.lam
    kt = lam[..., None] * ext.kappa                   # eigenvalues of lam h
    f = cf.f_grad(F, kt)
    gap = kt[..., 1] - kt[..., 0]
    safe = np.abs(gap) > 1e-9 * (1.0 + np.abs(kt).max(axis=-1))
    beta = np.where(safe, (f[..., 1] - f[..., 0]) / np.where(safe, gap, 1.0), 0.0)
    alpha = f[..., 0] - beta * kt[..., 0]
    ht_mixed = lam[..., None, None] * _h_mixed(ext)
    eye = np.zeros_like(ht_mixed)
    eye[..., 0, 0] = 1.0
    eye[..., 1, 1] = 1.0
    f_mixed = alpha[..., None, None] * eye + beta[..., None, None] * ht_mixed

    up = _grad_up(ext)
    v2 = ext.v * ext.v
    gt = np.empty_like(ext.sigma)
    gt[..., 0, 0] = 1.0 - up[..., 0] * up[..., 0] / v2
    gt[..., 1, 1] = 1.0 / ext.sigma[..., 1, 1] - up[..., 1] * up[..., 1] / v2
    gt[..., 0, 1] = -up[..., 0] * up[..., 1] / v2
    gt[..., 1, 0] = gt[..., 0, 1]
    return np.einsum("...ik,...jk->...ij", gt, f_mixed)


def contraction_consistency_residual(state: GraphState, F: cf.CurvatureFunction) -> float:
    """Sup residual of the contracted curvature identity

        chi^-1 F^ij R(nu, X_i, lambda d_r, X_j) = -(lambda''/lambda) F^ij g_ij.

    The left side is assembled from the two ambient contractions with the
    closed-form radial prefactor, the right side from the warp accessors;
    agreement at rounding level requires the closed forms to be mutually
    consistent, so a corrupted lambda'' breaks the identity.
    """
    ext = compute_extrinsic(state)
    t_normal, t_radial = ambient_contractions(state, ext)
    f_up = shape_gradient_tensor(F, ext)
    lam = ext.lam
    lam_pp = state.profile.lambda_pp_of_lambda(lam)
    lhs = (np.einsum("...ij,...ij->...", f_up, t_radial) / ext.chi
           + np.einsum("...ij,...ij->...", f_up, t_normal))
    rhs = -(lam_pp / lam) * np.einsum("...ij,...ij->...", f_up, symmetric_matrix(*ext.g))
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))


def tilt_gradient_residual(state: GraphState) -> float:
    """Sup defect of D_i v = v^-1 phi^k phi_ki (round-metric derivatives)."""
    ext = compute_extrinsic(state)
    grid = state.grid
    v_field = ScalarField(grid, ext.v, t=state.t)
    lhs = grad_components(v_field)
    hess_cov = covariant_hess(state.phi)
    rhs = np.einsum("...k,...ki->...i", _grad_up(ext), hess_cov) / ext.v[..., None]
    return float(np.max(np.abs(lhs - rhs)))


def tilt_gradient_shape_residual(state: GraphState) -> float:
    """Sup defect of D_k v = (lambda'/lambda) v r_k - v^2 h^i_k r_i."""
    ext = compute_extrinsic(state)
    grid = state.grid
    v_field = ScalarField(grid, ext.v, t=state.t)
    lhs = grad_components(v_field)
    r_i = ext.lam[..., None] * np.stack(ext.grad_phi, axis=-1)
    rhs = ((ext.lam_p / ext.lam) * ext.v)[..., None] * r_i \
        - (ext.v ** 2)[..., None] * np.einsum("...ik,...i->...k", _h_mixed(ext), r_i)
    return float(np.max(np.abs(lhs - rhs)))
