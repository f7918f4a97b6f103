import math
from dataclasses import replace

import numpy as np
import pytest

from icflow import background as bg
from icflow import curvature as cf
from icflow import diagnostics as dg
from icflow import flow
from icflow import geometry as geo
from icflow import sphere as sp

from oracles import radius_at_lambda


def synthetic_series(times, values):
    """A series started on a unit sphere at m = 0, holding synthetic records."""
    grid = sp.build_grid("axisymmetric1d", 16)
    prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 3.0)
    state = geo.state_from_radius(grid, prof, np.ones(16))
    s = dg.DiagnosticsSeries.start(state, cf.from_name("mean", 2))
    for t, y in zip(times, values):
        s.records.append(dg.DiagnosticsRecord(
            t=t, sup_kappa_dev=y, sup_grad_phi_sq=y, sup_hess_phi=y,
            F_min=1.0, F_max=2.0, r_tilde_min=0.0, r_tilde_max=0.0,
            chi_scaled_min=1.0, chi_scaled_max=1.0,
            pinch_low_ok=True, pinch_high_ok=True,
        ))
    return s


@pytest.fixture(scope="module")
def umbilic_run():
    cfg = flow.FlowConfig(
        background=bg.BackgroundParams(m=0.0, n=2),
        grid_mode="axisymmetric1d",
        grid_resolution=32,
        initial=flow.InitialData(kind="constant", r0=1.0),
        f=cf.from_name("mean", 2),
        t_end=9.0,
        dt_max=2e-3,
    )
    final, series, events = flow.run(cfg)
    return final, series, events


def snapshot(state, pinch_ref):
    """The snapshot of state as a mean curvature run takes it."""
    stage = flow.evaluate(state, cf.from_name("mean", 2))
    return dg.snapshot(state, stage, pinch_ref=pinch_ref)


class TestSnapshot:
    def test_umbilic_mass2_kappa_is_one(self):
        # at lambda = 2, m = 2: lambda'^2 = 1 + 4 - 1 = 4, kappa = 1 exactly
        prof = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), 6.0)
        grid = sp.build_grid("axisymmetric1d", 32)
        r0 = radius_at_lambda(prof, 2.0)
        state = geo.state_from_radius(grid, prof, np.full(32, r0))
        rec = snapshot(state, pinch_ref=(2.0, 2.0))
        assert rec.sup_kappa_dev < 1e-10
        assert rec.sup_grad_phi_sq == 0.0
        assert rec.pinch_low_ok and rec.pinch_high_ok

    def test_unit_hyperbolic_sphere(self):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 6.0)
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof, np.full(32, 1.0))
        rec = snapshot(state, pinch_ref=(math.sinh(1.0), math.sinh(1.0)))
        want = 1.0 / math.tanh(1.0) - 1.0
        assert abs(rec.sup_kappa_dev - want) < 1e-12
        assert abs(want - 0.3130352854993312) < 1e-15
        assert rec.sup_grad_phi_sq == 0.0
        assert rec.r_tilde_max >= rec.r_tilde_min
        assert np.isfinite(rec.r_tilde_min)

    @pytest.mark.parametrize("shift, low_ok, high_ok", [
        (1.0 + 2e-6, False, True), (1.0 - 2e-6, True, False),
        (1.0 + 5e-7, True, True), (1.0 - 5e-7, True, True)])
    def test_pinching_flags_against_the_slack(self, shift, low_ok, high_ok):
        # lambda e^(-t/n) of the unit sphere at t = 0 is sinh(1); a start
        # range moved by more than the relative slack 1e-6 fails a flag
        prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 6.0)
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof, np.full(32, 1.0))
        lam = shift * math.sinh(1.0)
        rec = snapshot(state, pinch_ref=(lam, lam))
        assert (rec.pinch_low_ok, rec.pinch_high_ok) == (low_ok, high_ok)


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 20)
        s = synthetic_series(t, 5.0 * np.exp(-t))
        fit, reason = dg.fit_rate(s, "sup_kappa_dev", (0.0, 5.0), 1.0, 0.1)
        assert abs(fit["slope"] + 1.0) < 1e-9
        assert fit["r_squared"] > 1 - 1e-12
        assert fit["pass"] and fit["status"] == "fit" and reason is None

    def test_constant_series_fails_but_fits(self):
        t = np.linspace(0, 5, 20)
        s = synthetic_series(t, np.full(20, 0.25))
        fit, reason = dg.fit_rate(s, "sup_kappa_dev", (0.0, 5.0), 1.0, 0.1)
        assert fit["status"] == "fit" and reason is None
        assert abs(fit["slope"]) < 1e-12
        assert fit["pass"] is False

    def test_too_few_snapshots(self):
        t = np.linspace(0, 5, 5)
        s = synthetic_series(t, np.exp(-t))
        fit, reason = dg.fit_rate(s, "sup_kappa_dev", (0.0, 5.0), 1.0, 0.1)
        assert fit == {"name": "sup_kappa_dev", "slope": None, "target": 1.0,
                       "tolerance": 0.1, "r_squared": None, "pass": None,
                       "status": "insufficient"}
        assert reason == "only 5 snapshots in window (0.0, 5.0) for sup_kappa_dev"

    def test_too_few_positive_values(self):
        t = np.linspace(0, 5, 20)
        y = np.where(np.arange(20) < 5, 0.5, 0.0)
        fit, reason = dg.fit_rate(synthetic_series(t, y), "sup_hess_phi", (0.0, 5.0), 0.5, 0.1)
        assert fit["status"] == "insufficient" and fit["pass"] is None
        assert reason == "only 5 positive values in window for sup_hess_phi"

    def test_floor_passes(self):
        t = np.linspace(0, 5, 20)
        s = synthetic_series(t, np.full(20, 1e-15))
        fit, reason = dg.fit_rate(s, "sup_kappa_dev", (0.0, 5.0), 1.0, 0.1)
        assert fit["status"] == "floor" and reason is None
        assert fit["pass"] is True
        assert fit["slope"] is None and fit["r_squared"] is None

    def test_slope_too_shallow_fails(self):
        t = np.linspace(0, 5, 20)
        s = synthetic_series(t, np.exp(-0.3 * t))
        fit, _ = dg.fit_rate(s, "sup_kappa_dev", (0.0, 5.0), 1.0, 0.1)
        assert fit["pass"] is False


class TestLimitProfile:
    def test_umbilic_limit_value(self, umbilic_run):
        _, series, _ = umbilic_run
        entries, notes = dg.limit_profile(series)
        f_hat = dg.final_r_tilde(series)
        want = math.log(2.0 * math.sinh(1.0))
        assert abs(want - 0.8545865421311408) < 1e-15
        assert np.max(np.abs(f_hat - want)) < 1e-3
        assert entries["limit_gap"] < 1e-4
        assert np.max(f_hat) - np.min(f_hat) < 1e-10
        assert entries["umbilic_profile_constant_pass"] is True
        assert notes == []

    def test_umbilic_mass2_limit_value(self):
        # constant data at lambda_0 = 2: r - t/2 -> log(2 lambda_0) = log 4
        prof = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), 8.0)
        r0 = radius_at_lambda(prof, 2.0)
        cfg = flow.FlowConfig(
            background=bg.BackgroundParams(m=2.0, n=2),
            grid_mode="axisymmetric1d",
            grid_resolution=32,
            initial=flow.InitialData(kind="constant", r0=r0),
            f=cf.from_name("mean", 2),
            t_end=8.0,
            dt_max=2e-3,
        )
        _, series, _ = flow.run(cfg)
        assert np.max(np.abs(dg.final_r_tilde(series) - math.log(4.0))) < 1e-3

    def test_insufficient(self):
        too_short = ({"limit_gap": None},
                     ["limit_profile: limit profile requires at least two retained states"])
        s = synthetic_series([], [])
        assert dg.limit_profile(s) == too_short
        s.radii.append(np.ones(16))
        assert dg.limit_profile(s) == too_short


class TestTheoremReport:
    def test_umbilic_report_passes(self, umbilic_run):
        _, series, _ = umbilic_run
        rep = dg.theorem_report(series, dg.ReportConfig())
        assert rep["overall_pass"], dg.report_lines(rep)
        by_name = {r["name"]: r for r in rep["rates"]}
        # gradient and Hessian collapse to the floor on exact umbilic data
        assert by_name["sup_grad_phi_sq"]["status"] == "floor"
        assert by_name["sup_hess_phi"]["status"] == "floor"
        # curvature deviation decays like e^(-2t/n) = e^(-t)
        assert by_name["sup_kappa_dev"]["status"] == "fit"
        assert by_name["sup_kappa_dev"]["slope"] <= -0.85
        assert rep["pinching_pass"]
        assert rep["umbilic_profile_constant_pass"]
        lines = dg.report_lines(rep)
        assert any(line.startswith("OVERALL: PASS") for line in lines)

    @pytest.mark.parametrize("shift", [1.0, 1.0 + 2e-6, 1.0 - 2e-6])
    def test_pinching_failure_fails_the_report(self, shift):
        # the round sphere keeps lambda e^(-t/n) to rounding; judged
        # against its start range moved past the slack, pinching fails,
        # and with it the run
        f = cf.from_name("mean", 2)
        grid = sp.build_grid("axisymmetric1d", 16)
        prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2))
        state = geo.state_from_radius(grid, prof, np.full(16, 1.0))
        series = dg.DiagnosticsSeries.start(state, f)
        series.pinch_ref = tuple(shift * p for p in series.pinch_ref)
        stage = flow.evaluate(state, f)
        series.append(state, stage)
        for _ in range(10):
            state, stage = flow.step(state, f, flow.stable_dt(state, f, stage, dt_max=1e-2), stage)
            series.append(state, stage)
        rep = dg.theorem_report(series, dg.ReportConfig())
        assert rep["pinching_pass"] is (shift == 1.0)
        assert rep["overall_pass"] is (shift == 1.0), dg.report_lines(rep)

    def test_missing_profile_reported_insufficient(self):
        # one snapshot: the series holds no limit profile
        series = synthetic_series([0.0], [0.5])
        series.radii.append(np.ones(16))
        rep = dg.theorem_report(series, dg.ReportConfig())
        assert rep["limit_gap"] is None
        assert "limit_gap_pass" not in rep
        assert ("limit_profile: limit profile requires at least two retained states"
                in rep["insufficient"])

    def test_short_run_reports_insufficient(self):
        cfg = flow.FlowConfig(
            background=bg.BackgroundParams(m=0.0, n=2),
            grid_mode="axisymmetric1d",
            grid_resolution=32,
            initial=flow.InitialData(kind="constant", r0=1.0),
            f=cf.from_name("mean", 2),
            t_end=0.5,
        )
        _, series, _ = flow.run(cfg)
        rep = dg.theorem_report(series, dg.ReportConfig())
        statuses = {r["name"]: r["status"] for r in rep["rates"]}
        assert all(s in ("insufficient", "floor") for s in statuses.values())
        assert rep["pinching_pass"]
        assert rep["gradient_monotone_pass"]


class TestFBounds:
    """f_bounds bounds F by the umbilic comparison spheres, whose F = n
    lambda'/lambda rises to its peak at lambda*, lambda*^(n-1) =
    m (n + 1) / 2, and then falls toward n: F_max by 1.1 times the peak
    from the start's lambda_min on, F_min by half the least of F_min(0)
    and those spheres' F."""

    @pytest.fixture(scope="class")
    def near_horizon_series(self):
        # m = 1 from r_horizon + 0.1: the sphere's F rises from 0.506 to
        # the peak 2 lambda*'/lambda* = 2.143 (lambda* = 3/2), which a
        # bound read at the start's own nodes (1.1 x 0.506 = 0.557) missed
        params = bg.BackgroundParams(m=1.0, n=2)
        cfg = flow.FlowConfig(
            background=params, grid_mode="axisymmetric1d", grid_resolution=16,
            initial=flow.InitialData(kind="constant",
                                     r0=bg.build_warp_profile(params).r_horizon + 0.1),
            f=cf.from_name("mean", 2), t_end=3.0, dt_max=1e-2,
        )
        return flow.run(cfg)[1]

    @staticmethod
    def judged(series, f_scale=1.0):
        """f_bounds_pass of the series with F_max scaled by f_scale."""
        copy = replace(series, records=[replace(r, F_max=f_scale * r.F_max)
                                        for r in series.records])
        return dg.theorem_report(copy, dg.ReportConfig())["f_bounds_pass"]

    def test_bound_covers_the_comparison_spheres(self, near_horizon_series):
        series = near_horizon_series
        lam = 1.5
        assert series.f_umb0 == pytest.approx(2.0 * math.sqrt(1.0 + lam * lam - 1.0 / lam) / lam,
                                              rel=1e-15, abs=0.0)
        f_max = float(np.max(series.column("F_max")))
        assert 1.1 * series.records[0].F_max < f_max <= series.f_umb0 < 2.144
        assert self.judged(series) is True

    def test_floor_holds_while_f_rises_from_the_horizon(self, near_horizon_series):
        # F_min rises from 0.506 to about 2.14, so half its late value
        # (1.07) lies above its start; the floor is half the start's 0.506
        series = near_horizon_series
        lam = series.pinch_ref[0]          # lambda_min at t = 0
        assert series.f_umb_min == pytest.approx(
            2.0 * math.sqrt(1.0 + lam * lam - 1.0 / lam) / lam, rel=1e-15, abs=0.0)
        f_min = series.column("F_min")
        assert f_min[0] < 0.5 * float(np.min(f_min[series.times >= 1.0]))
        assert f_min[0] == pytest.approx(series.f_umb_min, rel=1e-3)
        assert self.judged(series) is True

    def test_f_falling_from_t1_fails_the_floor(self):
        # A3's data at N_theta = 32: F_min stays near 2 and the floor is
        # 1; scaled by 0.4 from t = 1 on, F_min falls to 0.8. The floor is
        # read at the start, since one read off the late F_min would fall
        # with it
        cfg = flow.FlowConfig(
            background=bg.BackgroundParams(m=1.0, n=2), grid_mode="axisymmetric1d",
            grid_resolution=32,
            initial=flow.InitialData(kind="cosine_perturbation", r0=2.0, amplitude=0.3),
            f=cf.from_name("mean", 2), t_end=2.0, dt_max=1e-2,
        )
        series = flow.run(cfg)[1]
        assert dg.theorem_report(series, dg.ReportConfig())["f_bounds_pass"] is True
        scaled = replace(series, records=[replace(r, F_min=0.4 * r.F_min) if r.t >= 1.0 else r
                                          for r in series.records])
        assert dg.theorem_report(scaled, dg.ReportConfig())["f_bounds_pass"] is False

    def test_f_past_the_bound_still_fails(self, near_horizon_series):
        # 1.2 x 2.143 = 2.57 lies past the bound 1.1 x 2.143 = 2.357
        assert self.judged(near_horizon_series, f_scale=1.2) is False
