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
from .errors import InadmissibleState


def check_background_residual():
    worst = max(bg.build_warp_profile(bg.BackgroundParams(m=m, n=2)).ode_residual_max()
                for m in (1.0, 2.0, 1e-6))
    return worst <= 1e-10, f"max relative residual {worst:.2e} (bound 1e-10)"


def check_background_hyperbolic():
    # at m = 0 the table is the closed form sinh itself; at m = 1e-9 it is
    # built, and lambda - sinh is O(m), about 3.3e-9
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1e-9, n=2))
    r = np.linspace(1e-3, 10.0, 4001)
    err = float(np.max(np.abs(prof.lambda_of_r(r) - np.sinh(r))))
    return err <= 1e-8, f"sup |lambda - sinh| = {err:.2e} (bound 1e-8)"


def check_sectional_curvature():
    # at n = 2, K_tan = m lambda^-3 - 1 and K_rad = -lambda''/lambda =
    # -1 - (m/2) lambda^-3, so a broken lambda'' shows in K_rad
    r = np.linspace(0.5, 9.5, 400)
    win = (r >= 4.0) & (r <= 9.0)
    dev, slopes = 0.0, []
    for m in (1.0, 2.0):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2))
        lam = prof.lambda_of_r(r)
        k_tan, k_rad = bg.ambient_sectional(prof, r)
        dev = max(dev, float(np.max(np.abs(k_tan + 1.0 - m * lam ** -3))),
                  float(np.max(np.abs(k_rad + 1.0 + 0.5 * m * lam ** -3))))
        slopes.append(float(np.polyfit(r[win], np.log(np.abs(k_tan[win] + 1.0)), 1)[0]))
    ok = dev <= 1e-10 and max(abs(s + 3.0) for s in slopes) <= 0.06
    return ok, (f"closed-form deviation {dev:.2e}, decay slopes "
                f"{['%+.4f' % s for s in slopes]} (target -3)")


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
    return worst <= 1e-12, f"worst Euler/homogeneity defect {worst:.2e} (bound 1e-12)"


def check_grid_refinement():
    orders = []
    errs = []
    for n in (32, 64, 128):
        g = sp.build_grid("axisymmetric1d", n)
        f = sp.ScalarField(g, np.cos(2 * g.theta))
        e1 = np.max(np.abs(sp.grad_components(f)[0] + 2 * np.sin(2 * g.theta)))
        e2 = np.max(np.abs(sp.covariant_hess(f)[0] + 4 * np.cos(2 * g.theta)))
        errs.append(max(float(e1), float(e2)))
    for a, b in zip(errs, errs[1:]):
        orders.append(math.log2(a / b))
    return min(orders) >= 1.9, f"observed orders {['%.2f' % o for o in orders]}"


def check_umbilic_exactness():
    # the sphere r = 1 at m = 2, n = 2: kappa = lambda' / lambda, with
    # lambda' written out from the warp equation at the state's own lambda
    prof2 = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2))
    grid = sp.build_grid("axisymmetric1d", 64)
    state = geo.state_from_radius(grid, prof2, np.full(64, 1.0))
    kappa = geo.compute_extrinsic(state)
    lam = state.lam[:, None]
    err = float(np.max(np.abs(kappa - np.sqrt(1.0 + lam * lam - 2.0 / lam) / lam)))
    prof0 = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2))
    state0 = geo.state_from_radius(grid, prof0, np.full(64, 1.0))
    kappa0 = geo.compute_extrinsic(state0)
    err0 = float(np.max(np.abs(kappa0 - 1.0 / math.tanh(1.0))))
    worst = max(err, err0)
    return worst <= 1e-12, f"geodesic-sphere curvature defect {worst:.2e}"


def check_tilt_identity():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2))
    errs = []
    for n in (64, 128, 256):
        grid = sp.build_grid("axisymmetric1d", n)
        errs.append(geo.tilt_gradient_residual(
            geo.state_from_radius(grid, prof, 2.0 + 0.3 * np.cos(grid.theta))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    return min(ratios) >= 3.5, f"refinement ratios {['%.2f' % r for r in ratios]}"


def stage_states():
    """Seeded states on which the stage is checked against the pencil: for
    m in {0, 1, 2} and both grid modes, four radii r = 2 + a cos(k theta),
    with a psi tilt on lat-long grids. Some leave the cone of each F."""
    rng = np.random.default_rng(20261020)
    for m in (0.0, 1.0, 2.0):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2))
        for mode, resolution in (("axisymmetric1d", 32), ("latlong2d", (16, 32))):
            grid = sp.build_grid(mode, resolution)
            th = grid.theta if mode == "axisymmetric1d" else grid.theta[:, None]
            for _ in range(4):
                r = 2.0 + rng.uniform(0.1, 0.6) * np.cos(int(rng.integers(1, 6)) * th)
                if mode == "latlong2d":
                    r = r + rng.uniform(0.0, 0.2) * np.sin(th) * np.cos(grid.psi)
                yield geo.state_from_radius(grid, prof, r)


def stage_defect(state, F):
    """The stage of state against F of its pencil's kappa: whether kappa
    lies in the cone of F at every node, and the sup relative defect of
    flow.evaluate's F against cf.f_eval there, 0 outside the cone and inf
    where the two cone verdicts differ."""
    kappa = geo.compute_extrinsic(state)
    inside = bool(cf.cone_contains(F, kappa).all())
    try:
        f = flow.evaluate(state, F).f
    except InadmissibleState:
        return inside, math.inf if inside else 0.0
    if not inside:
        return inside, math.inf
    want = cf.f_eval(F, kappa)
    return inside, float(np.max(np.abs(f - want) / np.abs(want)))


def check_stage_invariants():
    # the stage reads F from S_1 and S_2 of the scaled shape operator; the
    # pencil's kappa gives it independently
    verdicts = []
    worst = 0.0
    for state in stage_states():
        for name in ("mean", "sigma2root", "quotient2"):
            inside, defect = stage_defect(state, cf.from_name(name, 2))
            verdicts.append(inside)
            worst = max(worst, defect)
    return worst <= 1e-10, (f"F from (S_1, S_2) against F(kappa): defect {worst:.2e} "
                            f"(bound 1e-10), {sum(verdicts)} of {len(verdicts)} "
                            f"inside the cone")


def check_umbilic_flow_law():
    # an umbilic sphere of any radius grows as lambda = lambda_0 e^(t/n)
    cfg = flow.FlowConfig(
        background=bg.BackgroundParams(m=2.0, n=2),
        grid_mode="axisymmetric1d", grid_resolution=32,
        initial=flow.InitialData(kind="constant", r0=1.0),
        f=cf.from_name("mean", 2), t_end=0.5,
    )
    final, series, _ = flow.run(cfg)
    lam = [float(np.max(final.profile.lambda_of_r(r))) for r in series.radii]
    worst = max(abs(lt * math.exp(-t / 2.0) / lam[0] - 1.0)
                for t, lt in zip(series.times, lam))
    return worst <= 1e-6, f"umbilic growth-law defect {worst:.2e}"


def off_centre_sphere_radius(cos_gamma, rho, d):
    """The radius over the unit sphere of the geodesic sphere of radius rho
    in hyperbolic space (m = 0) about a point at distance d < rho from the
    origin, at the angle gamma from the centre's direction. It solves the
    law of cosines cosh rho = cosh r cosh d - sinh r sinh d cos gamma:

        r = atanh(tanh d cos gamma)
            + acosh(cosh rho / sqrt(1 + sinh^2 d sin^2 gamma)).
    """
    stretch = np.sqrt(1.0 + math.sinh(d) ** 2 * (1.0 - cos_gamma ** 2))
    return np.arctanh(math.tanh(d) * cos_gamma) + np.arccosh(math.cosh(rho) / stretch)


def off_centre_sphere_errors(mode, resolution, t_end, dt_max, rho0=1.5, d=0.6):
    """Sup errors in r and in kappa at t_end of the mean curvature flow at
    m = 0 of the geodesic sphere of radius rho0 about a point at distance d
    from the origin: on the axis theta = 0 on axisymmetric grids, at
    theta = pi/2, psi = 0 on lat-long grids. The flow keeps it a geodesic
    sphere about the same centre, of radius rho with sinh rho = sinh rho0
    e^(t/2), and both principal curvatures coth rho."""
    grid = sp.build_grid(mode, resolution)
    if mode == "axisymmetric1d":
        cos_gamma = grid.cos_theta
    else:
        cos_gamma = grid.sin_theta * np.cos(grid.psi)
    params = bg.BackgroundParams(m=0.0, n=2)
    cfg = flow.FlowConfig(
        background=params, grid_mode=mode, grid_resolution=resolution,
        initial=flow.InitialData(kind="constant", r0=rho0),
        f=cf.from_name("mean", 2), t_end=t_end, dt_max=dt_max,
    )
    prof = bg.build_warp_profile(params)
    start = geo.state_from_radius(grid, prof, off_centre_sphere_radius(cos_gamma, rho0, d))
    final, _, _ = flow.run(cfg, initial_state=start)
    rho = math.asinh(math.sinh(rho0) * math.exp(final.t / 2.0))
    r_err = np.max(np.abs(final.r.values - off_centre_sphere_radius(cos_gamma, rho, d)))
    k_err = np.max(np.abs(geo.compute_extrinsic(final) - 1.0 / math.tanh(rho)))
    return float(r_err), float(k_err)


def check_off_centre_sphere():
    # N_theta = 64 to t = 0.5 reads 1.6e-5 in r and 6.4e-5 in kappa; the
    # kappa error is the stencils' at t = 0, 8.6e-5, decaying
    r_err, k_err = off_centre_sphere_errors("axisymmetric1d", 64, 0.5, 1e-3)
    ok = r_err <= 2e-5 and k_err <= 8e-5
    return ok, f"errors r {r_err:.2e} (bound 2e-5), kappa {k_err:.2e} (bound 8e-5)"


ALL_CHECKS = (
    ("background_ode_residual", check_background_residual),
    ("background_hyperbolic_limit", check_background_hyperbolic),
    ("background_sectional_curvature", check_sectional_curvature),
    ("curvature_function_axioms", check_curvature_axioms),
    ("grid_refinement_orders", check_grid_refinement),
    ("umbilic_exactness", check_umbilic_exactness),
    ("tilt_gradient_identity", check_tilt_identity),
    ("stage_invariants", check_stage_invariants),
    ("umbilic_flow_law", check_umbilic_flow_law),
    ("off_centre_geodesic_sphere", check_off_centre_sphere),
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
