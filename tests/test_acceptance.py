"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with -s (or read captured stdout) for the one-line verdicts.
"""

import math
import time

import numpy as np
import pytest

from icflow import background as bg
from icflow import cli
from icflow import curvature as cf
from icflow import diagnostics as dg
from icflow import flow
from icflow import geometry as geo
from icflow import sphere as sp

from oracles import revolution_principal_curvatures


def verdict(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def umbilic_config(name, r0, t_end, m=2.0, n_theta=48, dt_max=4e-3):
    return flow.FlowConfig(
        background=bg.BackgroundParams(m=m, n=2),
        grid_mode="axisymmetric1d",
        grid_resolution=n_theta,
        initial=flow.InitialData(kind="constant", r0=r0),
        f=cf.from_name(name, 2),
        t_end=t_end,
        dt_max=dt_max,
    )


@pytest.fixture(scope="module")
def a3_run():
    """Shared perturbed run: m=1, r0 = 2 + 0.3 cos(theta), mean curvature,
    N_theta = 256, t_end = 10."""
    cfg = flow.FlowConfig(
        background=bg.BackgroundParams(m=1.0, n=2),
        grid_mode="axisymmetric1d",
        grid_resolution=256,
        initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                 amplitude=0.3, wavenumber=1),
        f=cf.from_name("mean", 2),
        t_end=10.0,
        dt_max=1e-3,
    )
    t0 = time.time()
    final, series, events = flow.run(cfg)
    elapsed = time.time() - t0
    return final, series, events, elapsed


def test_A1_umbilic_exactness():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), 6.0)
    r0 = float(prof.radius_from_lambda(2.0))
    finals = {}
    worst_defect = 0.0
    worst_time = 0.0
    for name in ("mean", "sigma2root", "quotient2"):
        t0 = time.time()
        final, series, _ = flow.run(umbilic_config(name, r0, t_end=3.0))
        worst_time = max(worst_time, time.time() - t0)
        finals[name] = final
        for t, r in zip(series.times, series.radii):
            lam = float(np.max(final.profile.lambda_of_r(r)))
            worst_defect = max(worst_defect, abs(lam * math.exp(-t / 2.0) / 2.0 - 1.0))
    ref = finals["mean"].r.values
    traj_diff = max(
        float(np.max(np.abs(finals[k].r.values - ref)))
        for k in ("sigma2root", "quotient2")
    )
    ok = worst_defect <= 1e-5 and traj_diff <= 1e-9 and worst_time < 5.0
    verdict("A1 umbilic exactness", ok,
            f"law defect {worst_defect:.2e} (<=1e-5), F-kind trajectory spread "
            f"{traj_diff:.2e} (<=1e-9), slowest run {worst_time:.1f}s (<5s)")


def test_A2_hyperbolic_closed_form():
    cfg = flow.FlowConfig(
        background=bg.BackgroundParams(m=0.0, n=2),
        grid_mode="axisymmetric1d",
        grid_resolution=64,
        initial=flow.InitialData(kind="constant", r0=1.0),
        f=cf.from_name("mean", 2),
        t_end=9.0,
        dt_max=2e-3,
    )
    t0 = time.time()
    _, series, _ = flow.run(cfg)
    elapsed = time.time() - t0
    defect = 0.0
    for t, r_values in zip(series.times, series.radii):
        if t <= 4.0 + 1e-9:
            r = float(np.max(r_values))
            want = math.sinh(1.0) * math.exp(t / 2.0)
            defect = max(defect, abs(math.sinh(r) / want - 1.0))
    fit = dg.fit_rate(series, "sup_kappa_dev", (4.0, 9.0), 1.0, 0.05)
    ok = defect <= 1e-5 and abs(fit.slope + 1.0) <= 0.05 and elapsed < 10.0
    verdict("A2 hyperbolic closed form", ok,
            f"sinh-law defect {defect:.2e} (<=1e-5), decay slope {fit.slope:+.4f} "
            f"(-1.0 +- 0.05), runtime {elapsed:.1f}s (<10s)")


def test_A3_perturbed_decay_rates(a3_run):
    _, series, events, elapsed = a3_run
    rep = dg.theorem_report(series, dg.limit_profile(series),
                            dg.ReportConfig(window=(4.0, 9.0)))
    rates = {r["name"]: r for r in rep["rates"]}
    k, g, h = (rates["sup_kappa_dev"], rates["sup_grad_phi_sq"], rates["sup_hess_phi"])
    pinch = all(r.pinch_low_ok and r.pinch_high_ok for r in series.records)
    g0 = series.meta["sup_grad0"]
    monotone = all(r.sup_grad_phi_sq <= g0 * (1 + 1e-6) for r in series.records)
    no_violations = not any(e.kind == "admissibility_violation" for e in events)
    ok = (
        k["slope"] <= -0.85 and k["r_squared"] >= 0.95
        and g["slope"] <= -0.85 and g["r_squared"] >= 0.95
        and h["slope"] <= -0.40 and h["r_squared"] >= 0.95
        and pinch and monotone and no_violations and elapsed < 120.0
    )
    verdict("A3 perturbed decay rates", ok,
            f"slopes kappa {k['slope']:+.3f} (<=-0.85), grad {g['slope']:+.3f} "
            f"(<=-0.85), hess {h['slope']:+.3f} (<=-0.40), all r2 >= "
            f"{min(k['r_squared'], g['r_squared'], h['r_squared']):.4f}, "
            f"pinching {pinch}, monotone {monotone}, runtime {elapsed:.0f}s (<120s)")


def test_A4_limit_profile(a3_run):
    _, series, _, _ = a3_run
    n = series.meta["n"]
    times = series.times

    def snap(t):
        k = next(k for k, tk in enumerate(times) if abs(tk - t) < 1e-6)
        return times[k], series.radii[k], series.metrics[k]

    t10, r10, g10 = snap(10.0)
    t8, r8, _ = snap(8.0)
    t6, _, g6 = snap(6.0)
    gap = float(np.max(np.abs((r10 - t10 / n) - (r8 - t8 / n))))
    f_hat = r10 - t10 / n
    res10 = dg._metric_residual(g10, t10, f_hat, n, series.grid)
    res6 = dg._metric_residual(g6, t6, f_hat, n, series.grid)
    ok = gap <= 0.02 and res10 <= 5e-3 and res10 < res6
    verdict("A4 limit profile", ok,
            f"sup|rt(10)-rt(8)| = {gap:.2e} (<=0.02), metric residual at 10 "
            f"{res10:.2e} (<=5e-3) vs at 6 {res6:.2e} (must be smaller)")


def test_A5_geometry_fidelity():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 6.0)
    errs = []
    for n in (64, 128, 256):
        grid = sp.build_grid("axisymmetric1d", n)
        r = 1.0 + 0.1 * np.cos(grid.theta)
        state = geo.state_from_radius(grid, prof, r)
        ext = geo.compute_extrinsic(state)
        km, kp = revolution_principal_curvatures(prof, grid.theta, r)
        want = np.sort(np.stack([km, kp], axis=-1), axis=-1)
        errs.append(float(np.max(np.abs(ext.kappa - want))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    grid = sp.build_grid("axisymmetric1d", 64)
    state = geo.state_from_radius(grid, prof, np.full(64, 1.0))
    ext = geo.compute_extrinsic(state)
    sphere_err = float(np.max(np.abs(ext.kappa - 1.0 / math.tanh(1.0))))
    ok = min(orders) >= 1.9 and sphere_err <= 1e-12
    verdict("A5 geometry fidelity", ok,
            f"oracle convergence orders {['%.2f' % o for o in orders]} (>=1.9), "
            f"geodesic-sphere error {sphere_err:.2e} (<=1e-12)")


def test_A6_identity_suite():
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), 6.0)

    def state_at(n):
        grid = sp.build_grid("axisymmetric1d", n)
        return geo.state_from_radius(grid, prof, 2.0 + 0.3 * np.cos(grid.theta))

    contraction = max(
        geo.contraction_consistency_residual(state_at(n), cf.from_name(name, 2))
        for n in (64, 128) for name in ("mean", "sigma2root", "quotient2")
    )
    tilt = [geo.tilt_gradient_residual(state_at(n)) for n in (64, 128, 256)]
    shape = [geo.tilt_gradient_shape_residual(state_at(n)) for n in (64, 128, 256)]
    tilt_ratios = [a / b for a, b in zip(tilt, tilt[1:])]
    shape_ratios = [a / b for a, b in zip(shape, shape[1:])]
    ok = (contraction <= 1e-11
          and min(tilt_ratios) >= 3.5 and min(shape_ratios) >= 3.5)
    verdict("A6 identity suite", ok,
            f"contraction identity residual {contraction:.2e} (<=1e-11, holds to "
            f"rounding), tilt-gradient ratios {['%.2f' % r for r in tilt_ratios]}, "
            f"shape-form ratios {['%.2f' % r for r in shape_ratios]} (>=3.5)")


def test_A7_curvature_function_axioms():
    rng = np.random.default_rng(12345)
    worst = {"norm": 0.0, "hom": 0.0, "euler": 0.0, "grad": 0.0}
    concave_ok = True
    for name in ("mean", "sigma2root", "quotient2"):
        for n in (2, 3):
            F = cf.from_name(name, n)
            worst["norm"] = max(worst["norm"], abs(float(cf.f_eval(F, np.ones(n))) - n))
            kap = rng.uniform(0.1, 10.0, size=(1000, n))
            val = cf.f_eval(F, kap)
            grad = cf.f_grad(F, kap)
            c = rng.uniform(0.1, 10.0, size=1000)
            hom = np.abs(cf.f_eval(F, c[:, None] * kap) - c * val) / np.abs(c * val)
            worst["hom"] = max(worst["hom"], float(np.max(hom)))
            euler = np.abs(np.sum(kap * grad, axis=1) - val) / np.abs(val)
            worst["euler"] = max(worst["euler"], float(np.max(euler)))
            a = rng.uniform(0.1, 10.0, size=(1000, n))
            b = rng.uniform(0.1, 10.0, size=(1000, n))
            mid = cf.f_eval(F, 0.5 * (a + b))
            concave_ok &= bool(np.all(
                mid >= 0.5 * (cf.f_eval(F, a) + cf.f_eval(F, b)) - 1e-12))
            eps = 1e-5
            for i in range(n):
                dk = np.zeros(n)
                dk[i] = eps
                fd = (cf.f_eval(F, kap + dk) - cf.f_eval(F, kap - dk)) / (2 * eps)
                rel = np.abs(fd - grad[:, i]) / np.maximum(np.abs(grad[:, i]), 1e-12)
                worst["grad"] = max(worst["grad"], float(np.max(rel)))
    ok = (worst["norm"] <= 1e-12 and worst["hom"] <= 1e-10
          and worst["euler"] <= 1e-10 and concave_ok and worst["grad"] <= 1e-6)
    verdict("A7 curvature-function axioms", ok,
            f"normalization {worst['norm']:.1e} (<=1e-12), homogeneity "
            f"{worst['hom']:.1e} and Euler {worst['euler']:.1e} (<=1e-10), "
            f"concavity {concave_ok}, gradient-vs-FD {worst['grad']:.1e} (<=1e-6)")


def test_A8_background_asymptotics():
    residual = 0.0
    for m in (1.0, 2.0, 1e-6):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), 10.0)
        residual = max(residual, prof.ode_residual_max())
    prof0 = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 10.5)
    rr = np.linspace(1e-3, 10.0, 4001)
    sinh_err = float(np.max(np.abs(prof0.lambda_of_r(rr) - np.sinh(rr))))
    prof1 = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), 10.0)
    rs = np.linspace(0.5, 9.5, 500)
    lam = prof1.lambda_of_r(rs)
    k_tan, _ = bg.ambient_sectional(prof1, rs)
    closed = float(np.max(np.abs(k_tan + 1.0 - lam ** -3)))
    win = (rs >= 4.0) & (rs <= 9.0)
    slope = float(np.polyfit(rs[win], np.log(np.abs(k_tan[win] + 1.0)), 1)[0])
    ok = (residual <= 1e-9 and sinh_err <= 1e-8 and closed <= 1e-10
          and abs(slope + 3.0) <= 0.02 * 3.0)
    verdict("A8 background asymptotics", ok,
            f"ODE residual {residual:.1e} (<=1e-9), sinh match {sinh_err:.1e} "
            f"(<=1e-8), tangential closed form {closed:.1e} (<=1e-10), "
            f"decay slope {slope:+.4f} (-3 within 2%)")


def test_A9_determinism_and_resume(tmp_path):
    text = """
[background]
m = 1.0
n = 2

[grid]
mode = axisymmetric1d
n_theta = 48

[initial]
kind = cosine_perturbation
r0 = 2.0
amplitude = 0.2
wavenumber = 1

[flow]
f_kind = mean
t_end = {t_end}
dt_max = 2e-3
output_every = 0.1

[report]
enable_rates = false
enable_limit_profile = false
"""
    import json

    cfg_half = tmp_path / "half.ini"
    cfg_full = tmp_path / "full.ini"
    cfg_half.write_text(text.format(t_end=1.0))
    cfg_full.write_text(text.format(t_end=2.0))
    a, b, h, r = (tmp_path / x for x in "abhr")
    assert cli.main(["run", "--config", str(cfg_full), "--out", str(a)]) == 0
    assert cli.main(["run", "--config", str(cfg_full), "--out", str(b)]) == 0
    byte_identical = (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    assert cli.main(["run", "--config", str(cfg_half), "--out", str(h)]) == 0
    assert cli.main(["run", "--config", str(cfg_full), "--out", str(r),
                     "--resume", str(h / "checkpoint.json")]) == 0
    ck_a = json.loads((a / "checkpoint.json").read_text())
    ck_r = json.loads((r / "checkpoint.json").read_text())
    resume_diff = float(np.max(np.abs(
        np.array(ck_a["phi"]) - np.array(ck_r["phi"]))))
    ok = byte_identical and resume_diff == 0.0
    verdict("A9 determinism and resume", ok,
            f"reruns byte-identical {byte_identical}, resume deviation "
            f"{resume_diff:.2e} (== 0)")


def a10_run(n_theta, dt_max):
    """A10: m=1, r = 2 + 0.2 cos(theta) + 0.1 sin(theta) cos(psi)
    + 0.05 sin^2(theta) cos(2 psi) on an n_theta x 2 n_theta lat-long grid,
    mean curvature, t_end = 10; returns the run's events and its report."""
    cfg = flow.FlowConfig(
        background=bg.BackgroundParams(m=1.0, n=2),
        grid_mode="latlong2d",
        grid_resolution=(n_theta, 2 * n_theta),
        initial=flow.InitialData(kind="constant", r0=2.0),
        f=cf.from_name("mean", 2),
        t_end=10.0,
        dt_max=dt_max,
    )
    grid = sp.build_grid("latlong2d", cfg.grid_resolution)
    th, ps = grid.theta[:, None], grid.psi[None, :]
    r0 = 2.0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps) \
        + 0.05 * np.sin(th) ** 2 * np.cos(2 * ps)
    prof = bg.build_warp_profile(cfg.background, float(np.max(r0)) + cfg.t_end / 2 + 2.0)
    _, series, events = flow.run(cfg, initial_state=geo.state_from_radius(grid, prof, r0))
    rep = dg.theorem_report(series, dg.limit_profile(series),
                            dg.ReportConfig(window=(4.0, 9.0)))
    return events, rep


def test_A10_non_axisymmetric_latlong():
    events, rep = a10_run(32, 1e-2)
    steps = events[-1].payload["steps"]
    violations = sum(e.kind == "admissibility_violation" for e in events)
    slopes = {r["name"]: r["slope"] for r in rep["rates"]}
    ok = (rep["overall_pass"] and not rep["insufficient"] and violations == 0
          and steps <= 1100)
    verdict("A10 non-axisymmetric lat-long", ok,
            f"32x64: overall_pass {rep['overall_pass']}, insufficient "
            f"{rep['insufficient']}, {violations} admissibility retries, {steps} steps "
            f"(<=1100), slopes " + ", ".join(f"{k} {v:+.4f}" for k, v in slopes.items()))


def test_A10_filter_keeps_the_rates():
    # 16 x 32, where dt_max = 1e-3 binds with or without the filter (the
    # pole-row bound there was about 2e-3): the filter moves the three
    # slopes by at most 2e-3 from the unfiltered run's -0.9937, -1.0001
    # and -0.5001
    _, rep = a10_run(16, 1e-3)
    slopes = [r["slope"] for r in rep["rates"]]
    gaps = [abs(s - u) for s, u in zip(slopes, (-0.9937, -1.0001, -0.5001))]
    ok = rep["overall_pass"] and max(gaps) <= 2e-3
    verdict("A10 rates with and without the filter", ok,
            f"16x32 slopes {', '.join(f'{s:+.4f}' for s in slopes)}, largest gap to "
            f"the unfiltered run {max(gaps):.1e} (<=2e-3)")
