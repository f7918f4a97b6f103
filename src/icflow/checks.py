"""Built-in oracle suite behind the check command.

Each check exercises one verifiable property against either a closed form
or an independently computed reference, returning (passed, detail). The
suite is deliberately small and fast; the full test suite covers the same
ground at higher resolution.
"""

from __future__ import annotations

import math

import numpy as np

from . import background as bg
from . import curvature as cf
from . import flow
from . import geometry as geo
from . import sphere as sp


def _perturbed_state(profile, n_theta=128, r0=2.0, amp=0.3):
    grid = sp.build_grid("axisymmetric1d", n_theta)
    r = r0 + amp * np.cos(grid.theta)
    return geo.state_from_radius(grid, profile, r)


def check_background_residual():
    worst = 0.0
    for m in (1.0, 2.0, 1e-6):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), 10.0)
        worst = max(worst, prof.ode_residual_max())
    return worst <= 1e-9, f"max relative residual {worst:.2e} (bound 1e-9)"


def check_background_hyperbolic():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 10.5)
    r = np.linspace(1e-3, 10.0, 4001)
    err = float(np.max(np.abs(prof.lambda_of_r(r) - np.sinh(r))))
    return err <= 1e-8, f"sup |lambda - sinh| = {err:.2e} (bound 1e-8)"


def check_sectional_curvature():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), 10.0)
    r = np.linspace(0.5, 9.5, 400)
    lam = prof.lambda_of_r(r)
    k_tan, _ = bg.ambient_sectional(prof, r)
    dev = float(np.max(np.abs(k_tan + 1.0 - lam ** -3)))
    win = (r >= 4.0) & (r <= 9.0)
    slope = float(np.polyfit(r[win], np.log(np.abs(k_tan[win] + 1.0)), 1)[0])
    ok = dev <= 1e-10 and abs(slope + 3.0) <= 0.06
    return ok, f"closed-form deviation {dev:.2e}, decay slope {slope:+.4f} (target -3)"


def check_curvature_axioms():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for name in ("mean", "sigma2root", "quotient2"):
        for n in (2, 3):
            F = cf.from_name(name, n)
            if abs(cf.f_eval(F, np.ones(n)) - n) > 1e-12:
                return False, f"normalization broken for {name}, n={n}"
            kap = rng.uniform(0.1, 10.0, size=(200, n))
            val = cf.f_eval(F, kap)
            grad = cf.f_grad(F, kap)
            euler = np.max(np.abs(np.sum(kap * grad, axis=1) - val) / np.abs(val))
            hom = np.max(np.abs(cf.f_eval(F, 2.5 * kap) - 2.5 * val) / np.abs(2.5 * val))
            worst = max(worst, float(euler), float(hom))
    return worst <= 1e-10, f"worst Euler/homogeneity defect {worst:.2e}"


def check_grid_refinement():
    orders = []
    errs = []
    for n in (32, 64, 128):
        g = sp.build_grid("axisymmetric1d", n)
        f = sp.ScalarField(g, np.cos(2 * g.theta))
        e1 = np.max(np.abs(sp.grad_components(f)[..., 0] + 2 * np.sin(2 * g.theta)))
        h = sp.covariant_hess(f)
        e2 = np.max(np.abs(h[..., 0, 0] + 4 * np.cos(2 * g.theta)))
        errs.append(max(float(e1), float(e2)))
    for a, b in zip(errs, errs[1:]):
        orders.append(math.log2(a / b))
    return min(orders) >= 1.9, f"observed orders {['%.2f' % o for o in orders]}"


def check_umbilic_exactness():
    prof2 = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), 8.0)
    grid = sp.build_grid("axisymmetric1d", 64)
    r0 = float(prof2.radius_from_lambda(2.0))
    state = geo.state_from_radius(grid, prof2, np.full(64, r0))
    ext = geo.compute_extrinsic(state)
    lam_p = float(prof2.lambda_p_of_lambda(2.0))
    err = float(np.max(np.abs(ext.kappa - lam_p / 2.0)))
    prof0 = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 8.0)
    state0 = geo.state_from_radius(grid, prof0, np.full(64, 1.0))
    ext0 = geo.compute_extrinsic(state0)
    err0 = float(np.max(np.abs(ext0.kappa - 1.0 / math.tanh(1.0))))
    worst = max(err, err0)
    return worst <= 1e-12, f"geodesic-sphere curvature defect {worst:.2e}"


def check_contraction_identity(profile=None):
    prof = profile or bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), 8.0)
    state = _perturbed_state(prof)
    worst = 0.0
    for name in ("mean", "sigma2root", "quotient2"):
        worst = max(worst, geo.contraction_consistency_residual(
            state, cf.from_name(name, 2)))
    return worst <= 1e-11, f"largest contraction-identity residual {worst:.2e}"


def check_tilt_identity():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), 8.0)
    errs = [geo.tilt_gradient_residual(_perturbed_state(prof, n))
            for n in (64, 128, 256)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    return min(ratios) >= 3.5, f"refinement ratios {['%.2f' % r for r in ratios]}"


def check_tilt_shape_identity():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), 8.0)
    errs = [geo.tilt_gradient_shape_residual(_perturbed_state(prof, n))
            for n in (64, 128, 256)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    return min(ratios) >= 3.5, f"refinement ratios {['%.2f' % r for r in ratios]}"


def check_umbilic_flow_law():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), 6.0)
    r0 = float(prof.radius_from_lambda(2.0))
    cfg = flow.FlowConfig(
        background=bg.BackgroundParams(m=2.0, n=2),
        grid_mode="axisymmetric1d", grid_resolution=32,
        initial=flow.InitialData(kind="constant", r0=r0),
        f=cf.from_name("mean", 2), t_end=0.5,
    )
    final, series, _ = flow.run(cfg)
    worst = 0.0
    for t, r in zip(series.times, series.radii):
        lam = float(np.max(final.profile.lambda_of_r(r)))
        worst = max(worst, abs(lam * math.exp(-t / 2.0) / 2.0 - 1.0))
    return worst <= 1e-6, f"umbilic growth-law defect {worst:.2e}"


ALL_CHECKS = (
    ("background_ode_residual", check_background_residual),
    ("background_hyperbolic_limit", check_background_hyperbolic),
    ("background_sectional_curvature", check_sectional_curvature),
    ("curvature_function_axioms", check_curvature_axioms),
    ("grid_refinement_orders", check_grid_refinement),
    ("umbilic_exactness", check_umbilic_exactness),
    ("curvature_contraction_identity", check_contraction_identity),
    ("tilt_gradient_identity", check_tilt_identity),
    ("tilt_gradient_shape_identity", check_tilt_shape_identity),
    ("umbilic_flow_law", check_umbilic_flow_law),
)


def run_all(out=print):
    """Run every oracle check, print one line each, return overall pass."""
    all_ok = True
    for name, func in ALL_CHECKS:
        ok, detail = func()
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'}  {name:34s} {detail}")
    out(f"{'PASS' if all_ok else 'FAIL'}  overall")
    return all_ok
