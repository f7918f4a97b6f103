import json
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
from icflow.errors import (
    ConfigError,
    FlowError,
    InadmissibleState,
    StepUnderflow,
    TableExtentError,
)

from oracles import reference_speed, reference_stable_dt


def make_config(**kw):
    defaults = dict(
        background=bg.BackgroundParams(m=0.0, n=2),
        grid_mode="axisymmetric1d",
        grid_resolution=64,
        initial=flow.InitialData(kind="constant", r0=1.0),
        f=cf.from_name("mean", 2),
        t_end=1.0,
    )
    defaults.update(kw)
    return flow.FlowConfig(**defaults)


@pytest.fixture(scope="module")
def prof_m0():
    return bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), r_max=8.0)


@pytest.fixture(scope="module")
def prof_m1():
    return bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=8.0)


@pytest.fixture(scope="module")
def prof_m2():
    return bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), r_max=8.0)


def unit_sphere_state(prof_m0, n=48):
    grid = sp.build_grid("axisymmetric1d", n)
    return geo.state_from_radius(grid, prof_m0, np.full(n, 1.0))


def rhs(state, f):
    return flow.evaluate(state, f).speed


def stable_dt(state, f, **kw):
    return flow.stable_dt(state, f, flow.evaluate(state, f), **kw)


def step(state, f, dt, **kw):
    return flow.step(state, f, dt, flow.evaluate(state, f), **kw)[0]


def count_calls(monkeypatch, module, name):
    """Count calls of module.name, wherever a package module holds it."""
    orig = getattr(module, name)
    counter = {"n": 0}

    def counted(*args, **kwargs):
        counter["n"] += 1
        return orig(*args, **kwargs)

    for mod in (bg, cf, dg, flow, geo, sp):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return counter


class TestRhs:
    def test_closed_form_unit_sphere(self, prof_m0):
        # v=1, lambda=sinh1, F=2 coth 1: speed = 1/(2 cosh 1)
        state = unit_sphere_state(prof_m0)
        speed = rhs(state, cf.from_name("mean", 2))
        want = 1.0 / (2.0 * math.cosh(1.0))
        assert abs(want - 0.3240271368319427) < 1e-15
        assert np.max(np.abs(speed - want)) < 1e-13

    def test_umbilic_reduces_to_radial_law(self, prof_m2):
        # constant data: speed = 1/(n lambda')
        grid = sp.build_grid("axisymmetric1d", 32)
        r0 = float(prof_m2.radius_from_lambda(2.0))
        state = geo.state_from_radius(grid, prof_m2, np.full(32, r0))
        speed = rhs(state, cf.from_name("mean", 2))
        lam_p = float(prof_m2.lambda_p_of_lambda(2.0))
        assert np.max(np.abs(speed - 1.0 / (2.0 * lam_p))) < 1e-12

    def test_inadmissible_state_raises(self, prof_m0):
        # a deep thin dimple drives one principal curvature negative enough
        # to leave the mean-curvature cone
        grid = sp.build_grid("axisymmetric1d", 96)
        r = 1.0 - 0.65 * np.exp(-((grid.theta - np.pi / 2) ** 2) / 0.02)
        state = geo.state_from_radius(grid, prof_m0, r)
        ext = geo.compute_extrinsic(state)
        assert np.min(np.sum(ext.kappa, axis=-1)) < 0  # fixture sanity
        with pytest.raises(InadmissibleState) as exc:
            rhs(state, cf.from_name("mean", 2))
        assert exc.value.node is not None
        assert exc.value.kappa is not None

    def test_stage_checks_raise_typed_errors(self, prof_m0, monkeypatch):
        # a formula that is not 1-homogeneous fails the cross-check, a
        # negative one the positivity test, and a subnormal one overflows
        # the speed
        state = unit_sphere_state(prof_m0)
        f = cf.from_name("mean", 2)
        real = cf._value
        for formula, error in [(lambda F, e: real(F, e) ** 1.5, FlowError),
                               (lambda F, e: -real(F, e), InadmissibleState),
                               (lambda F, e: 1e-310 * real(F, e), FlowError)]:
            monkeypatch.setattr(cf, "_value", formula)
            with np.errstate(over="ignore"), pytest.raises(error):
                flow.evaluate(state, f)


class TestStableDt:
    def test_umbilic_scale(self, prof_m0):
        state = unit_sphere_state(prof_m0)
        f = cf.from_name("mean", 2)
        dt = stable_dt(state, f, cfl=0.2, dt_max=np.inf)
        lam = math.sinh(1.0)
        fval = 2.0 * math.cosh(1.0) / math.sinh(1.0)
        h = state.grid.d_theta
        want = 0.2 * h * h * (lam * fval) ** 2
        assert abs(dt - want) < 1e-12 * want

    def test_resolution_quarters_dt(self, prof_m0):
        f = cf.from_name("mean", 2)
        dts = []
        for n in (32, 64):
            grid = sp.build_grid("axisymmetric1d", n)
            state = geo.state_from_radius(grid, prof_m0, np.full(n, 1.0))
            dts.append(stable_dt(state, f, cfl=0.2, dt_max=np.inf))
        assert abs(dts[0] / dts[1] - 4.0) < 1e-12

    def test_latlong_dt_quarters_per_doubling(self):
        # the polar filter lets d_theta set the step on lat-long grids too,
        # so dt ~ N^-2 and not the pole row's N^-4; A3 data, sigma_2 root
        prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), 5.0)
        f = cf.from_name("sigma2root", 2)
        dts = []
        for n in (16, 32, 64):
            grid = sp.build_grid("latlong2d", (n, 2 * n))
            r = np.repeat((2.0 + 0.3 * np.cos(grid.theta))[:, None], 2 * n, axis=1)
            dts.append(stable_dt(geo.state_from_radius(grid, prof, r), f, cfl=0.2,
                                 dt_max=np.inf))
        for coarse, fine in zip(dts, dts[1:]):
            assert abs(coarse / fine - 4.0) <= 0.5

    def test_underflow(self, prof_m0, monkeypatch):
        monkeypatch.setattr(flow, "DT_MIN", 1.0)
        state = unit_sphere_state(prof_m0)
        with pytest.raises(StepUnderflow):
            stable_dt(state, cf.from_name("mean", 2), cfl=0.2)


class TestStep:
    def test_constant_stays_constant(self, prof_m0):
        state = unit_sphere_state(prof_m0)
        f = cf.from_name("mean", 2)
        for _ in range(5):
            state = step(state, f, 0.01)
        spread = np.max(state.phi.values) - np.min(state.phi.values)
        assert spread <= 1e-13

    def test_time_convergence_orders(self, prof_m0):
        # umbilic closed form: lambda(t) = sinh(1) e^(t/2)
        f = cf.from_name("mean", 2)

        def final_error(dt):
            grid = sp.build_grid("axisymmetric1d", 16)
            state = geo.state_from_radius(grid, prof_m0, np.full(16, 1.0))
            steps = round(1.0 / dt)
            for _ in range(steps):
                state = step(state, f, dt)
            lam = float(prof_m0.lambda_of_r(state.r.values[0]))
            return abs(lam - math.sinh(1.0) * math.exp(0.5 * state.t))

        errs = [final_error(dt) for dt in (4e-3, 2e-3, 1e-3)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(abs(o - 2.0) <= 0.1 for o in orders)

    def test_retry_halving(self, prof_m0, monkeypatch):
        state = unit_sphere_state(prof_m0)
        f = cf.from_name("mean", 2)
        calls = {"n": 0}
        real = flow._advance

        def flaky(s, F, dt, ext):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise InadmissibleState("synthetic", t=s.t, node=(0,), kappa=None)
            return real(s, F, dt, ext)

        monkeypatch.setattr(flow, "_advance", flaky)
        events = []
        new = step(state, f, 0.01, events=events)
        assert calls["n"] == 3
        assert len(events) == 2
        assert all(e.kind == "admissibility_violation" for e in events)
        assert abs((new.t - state.t) - 0.0025) < 1e-15

    def test_retry_exhaustion(self, prof_m0, monkeypatch):
        state = unit_sphere_state(prof_m0)

        def always_bad(s, F, dt, ext):
            raise InadmissibleState("synthetic", t=s.t, node=(0,), kappa=None)

        monkeypatch.setattr(flow, "_advance", always_bad)
        with pytest.raises(InadmissibleState):
            step(state, cf.from_name("mean", 2), 0.01)

    def test_end_state_tested_inside_retry(self, prof_m1):
        # at dt = 3.625e-3 the end state leaves Gamma_1 at nodes 31-32
        # (the midpoint does not): the step logs one violation there and
        # returns the admissible half step with its stage data
        grid = sp.build_grid("axisymmetric1d", 64)
        state = geo.state_from_radius(grid, prof_m1, 2.0 + 0.9 * np.cos(2 * grid.theta))
        f = cf.from_name("mean", 2)
        events = []
        new, ext = flow.step(state, f, 3.625e-3, flow.evaluate(state, f), events=events)
        assert [(e.kind, e.payload["dt"], e.payload["node"]) for e in events] == \
            [("admissibility_violation", 3.625e-3, (31,))]
        assert new.t == 3.625e-3 / 2
        assert cf.cone_contains(f, geo.compute_extrinsic(new).kappa).all()
        assert np.array_equal(ext.speed, flow.evaluate(new, f).speed)
        assert flow.stable_dt(new, f, ext, cfl=0.2) > 0.0

    def test_scaled_curvatures_outside_cone_retried(self, prof_m1, monkeypatch):
        # only sigma_j(lambda kappa) of the first midpoint leaves the cone,
        # at node 5: the step logs that node with its unscaled kappa and
        # takes the half step
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof_m1, 2.0 + 0.3 * np.cos(grid.theta))
        f = cf.from_name("mean", 2)
        dt = 1e-3
        ext = flow.evaluate(state, f)
        mid = geo.state_from_gauge(grid, prof_m1, state.phi.values + 0.5 * dt * ext.speed,
                                   t=0.5 * dt)
        kappa_mid = geo.compute_extrinsic(mid).kappa
        orig = cf.elementary_symmetric
        calls = {"n": 0}

        def scaled_out_once(kappa):
            e = orig(kappa)
            calls["n"] += 1
            if calls["n"] == 2:      # the midpoint's lambda kappa
                e[5, 1] = -1.0
            return e

        monkeypatch.setattr(cf, "elementary_symmetric", scaled_out_once)
        events = []
        new, _ = flow.step(state, f, dt, ext, events=events)
        assert [(e.kind, e.payload["dt"], e.payload["node"]) for e in events] == \
            [("admissibility_violation", dt, (5,))]
        assert events[0].payload["kappa"] == list(kappa_mid[5])
        assert new.t == 0.5 * dt


def stage_states():
    """Perturbed states on both grid modes, massless and with m = 1."""
    for m in (0.0, 1.0):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=8.0)
        grid = sp.build_grid("axisymmetric1d", 64)
        yield f"1d-m{m}", geo.state_from_radius(grid, prof, 2.0 + 0.3 * np.cos(grid.theta))
        grid = sp.build_grid("latlong2d", (16, 32))
        th, ps = grid.theta[:, None], grid.psi[None, :]
        yield f"latlong-m{m}", geo.state_from_radius(
            grid, prof, 2.0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps))


class TestStageGolden:
    """The one-pass stage against the step path through the public
    curvature API (tests/oracles.py): equal bit for bit."""

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_matches_public_api_path(self, name):
        f = cf.from_name(name, 2)
        for label, state in stage_states():
            ext = flow.evaluate(state, f)
            ref = geo.compute_extrinsic(state)
            assert np.array_equal(ext.speed, reference_speed(state, f, ref)), label
            assert np.array_equal(ext.f_kappa, cf.f_eval(f, ref.kappa)), label
            assert flow.stable_dt(state, f, ext, cfl=0.2) == \
                reference_stable_dt(state, f, ref, cfl=0.2), label


class TestRun:
    def test_umbilic_mass2_exponential_law(self):
        cfg = make_config(
            background=bg.BackgroundParams(m=2.0, n=2),
            initial=flow.InitialData(kind="constant", r0=0.0),  # replaced below
            t_end=3.0,
        )
        prof = bg.build_warp_profile(cfg.background, 6.0)
        r0 = float(prof.radius_from_lambda(2.0))
        cfg = make_config(
            background=cfg.background,
            initial=flow.InitialData(kind="constant", r0=r0),
            t_end=3.0,
        )
        final, series, events = flow.run(cfg)
        for t, r in zip(series.times, series.radii):
            lam = float(np.max(final.profile.lambda_of_r(r)))
            assert abs(lam * math.exp(-t / 2.0) / 2.0 - 1.0) <= 1e-5
        assert events[-1].kind == "completed"

    def test_massless_sinh_law(self):
        cfg = make_config(t_end=4.0)
        final, series, _ = flow.run(cfg)
        for t, r_values in zip(series.times, series.radii):
            r = float(np.max(r_values))
            want = math.sinh(1.0) * math.exp(t / 2.0)
            assert abs(math.sinh(r) / want - 1.0) <= 1e-5

    def test_series_keeps_radii_and_metrics(self):
        cfg = make_config(t_end=0.3)
        final, series, _ = flow.run(cfg)
        assert len(series.radii) == len(series.metrics) == len(series.records) == 4
        assert series.grid is final.grid
        assert np.array_equal(series.radii[-1], final.r.values)
        g = geo.compute_extrinsic(final).g
        assert all(np.array_equal(a, b) for a, b in zip(series.metrics[-1], g, strict=True))

    def test_zero_t_end(self):
        cfg = make_config(t_end=0.0)
        final, series, events = flow.run(cfg)
        assert final.t == 0.0
        assert series.records == []
        assert [e.kind for e in events] == ["completed"]

    def test_snapshot_times_and_event_order(self):
        cfg = make_config(t_end=0.55, output_every=0.1)
        _, series, events = flow.run(cfg)
        times = series.times
        assert abs(times[0]) < 1e-12
        assert abs(times[-1] - 0.55) < 1e-9
        expected = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.55]
        assert len(times) == len(expected)
        assert np.max(np.abs(times - np.array(expected))) < 1e-9
        ts = [e.t for e in events]
        assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))

    def test_snapshot_times_are_multiples_of_every(self):
        assert flow._snapshot_times(0.0, 1.0, 0.1) == [k * 0.1 for k in range(1, 10)] + [1.0]
        assert flow._snapshot_times(0.7, 1.55, 0.1) == [k * 0.1 for k in range(8, 16)] + [1.55]
        _, series, _ = flow.run(make_config(t_end=0.55, output_every=0.1))
        assert list(series.times) == [0.0] + [k * 0.1 for k in range(1, 6)] + [0.55]

    def test_no_sliver_step_before_a_snapshot(self, monkeypatch):
        # from t = 8 on, the rounding of t adds up to a gap just over 1e-12
        # before the t = 9.9 snapshot unless every interval ends on target
        cfg = make_config(
            background=bg.BackgroundParams(m=1.0, n=2),
            grid_resolution=16,
            initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                     amplitude=0.3, wavenumber=1),
            t_end=10.0, dt_max=1e-3, output_every=0.1,
        )
        grid = sp.build_grid("axisymmetric1d", 16)
        profile = bg.build_warp_profile(cfg.background, 9.3)
        start = geo.state_from_radius(grid, profile, 6.0 + 0.3 * np.cos(grid.theta), t=8.0)
        dts = []
        orig = flow.step

        def recorded(state, F, dt, *args, **kwargs):
            dts.append(dt)
            return orig(state, F, dt, *args, **kwargs)

        monkeypatch.setattr(flow, "step", recorded)
        _, series, _ = flow.run(cfg, initial_state=start)
        assert min(dts) > 1e-9
        assert list(series.times) == [8.0] + [k * 0.1 for k in range(81, 100)] + [10.0]

    def test_symmetry_preserved_in_2d(self):
        cfg = make_config(
            grid_mode="latlong2d",
            grid_resolution=(16, 32),
            initial=flow.InitialData(kind="cosine_perturbation", r0=1.0,
                                     amplitude=0.1, wavenumber=1),
            t_end=0.02,
            output_every=0.01,
        )
        final, _, _ = flow.run(cfg)
        var = np.max(final.phi.values, axis=1) - np.min(final.phi.values, axis=1)
        assert np.max(var) <= 1e-10

    def test_latlong_matches_1d_on_axisymmetric_data(self):
        # both grids step with the same d_theta-bound dt, and the filter
        # keeps each row constant along psi, so they agree to rounding
        kw = dict(background=bg.BackgroundParams(m=1.0, n=2),
                  initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                           amplitude=0.3, wavenumber=1),
                  f=cf.from_name("sigma2root", 2), t_end=0.2, output_every=0.1)
        one_d, _, _ = flow.run(make_config(grid_resolution=24, **kw))
        two_d, _, _ = flow.run(make_config(grid_mode="latlong2d",
                                           grid_resolution=(24, 48), **kw))
        assert np.max(np.ptp(two_d.r.values, axis=1)) <= 1e-14
        assert np.max(np.abs(two_d.r.values - one_d.r.values[:, None])) <= 1e-12

    def test_pinching_and_gradient_monotone(self):
        cfg = make_config(
            background=bg.BackgroundParams(m=1.0, n=2),
            grid_resolution=128,
            initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                     amplitude=0.3, wavenumber=1),
            t_end=1.5,
        )
        _, series, _ = flow.run(cfg)
        assert all(r.pinch_low_ok for r in series.records)
        assert all(r.pinch_high_ok for r in series.records)
        g0 = series.meta["sup_grad0"]
        assert all(r.sup_grad_phi_sq <= g0 * (1 + 1e-6) for r in series.records)

    @pytest.mark.parametrize("name", ["mean", "sigma2root"])
    def test_one_extrinsic_pass_per_state(self, monkeypatch, name):
        # one stage evaluation per state: per rk2 step the midpoint and the
        # new state, plus the initial state once per run. sigma_j: one per
        # extrinsic pass, and one for the scaled curvatures lambda kappa.
        # The stage tests the cone and evaluates F through the private
        # formulas, never through cone_contains or f_eval
        cfg = make_config(
            background=bg.BackgroundParams(m=1.0, n=2),
            grid_resolution=32,
            initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                     amplitude=0.2, wavenumber=1),
            f=cf.from_name(name, 2),
            t_end=0.05, output_every=0.01,
        )
        n_ext = count_calls(monkeypatch, geo, "compute_extrinsic")
        n_sym = count_calls(monkeypatch, cf, "elementary_symmetric")
        n_cone = count_calls(monkeypatch, cf, "cone_contains")
        n_f = count_calls(monkeypatch, cf, "f_eval")
        _, _, events = flow.run(cfg)
        steps = events[-1].payload["steps"]
        assert steps >= 20
        assert n_ext["n"] == 2 * steps + 1
        assert n_sym["n"] == 2 * n_ext["n"]
        assert n_cone["n"] == n_f["n"] == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            make_config(cfl=0.9)
        with pytest.raises(ConfigError):
            make_config(t_end=-1.0)
        with pytest.raises(ConfigError, match="DT_MIN"):
            make_config(dt_max=flow.DT_MIN)


class TestCheckpoint:
    def test_roundtrip_bits(self, tmp_path, prof_m0):
        grid = sp.build_grid("axisymmetric1d", 32)
        r = 1.0 + 0.2 * np.cos(grid.theta)
        state = geo.state_from_radius(grid, prof_m0, r, t=0.75)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(state, path)
        cfg = make_config(grid_resolution=32, t_end=2.0)
        loaded = flow.load_checkpoint(path, cfg)
        assert loaded.t == state.t
        assert np.array_equal(loaded.phi.values, state.phi.values)

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg_full = make_config(
            grid_resolution=48,
            initial=flow.InitialData(kind="cosine_perturbation", r0=1.0,
                                     amplitude=0.2, wavenumber=1),
            t_end=2.0,
        )
        _, series_full, _ = flow.run(cfg_full)

        cfg_half = make_config(
            grid_resolution=48,
            initial=cfg_full.initial,
            t_end=1.0,
        )
        mid, _, _ = flow.run(cfg_half)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(mid, path)
        resumed_state = flow.load_checkpoint(path, cfg_full)
        _, series_res, _ = flow.run(cfg_full, initial_state=resumed_state)

        for rec in series_res.records:
            match = [r for r in series_full.records if r.t == rec.t]
            assert match
            ref = match[0]
            assert rec.r_tilde_max == ref.r_tilde_max
            assert rec.sup_grad_phi_sq == ref.sup_grad_phi_sq

    def test_latlong_resume_matches_uninterrupted(self, tmp_path):
        # non-axisymmetric data on a 16 x 32 grid: the checkpoint holds the
        # filtered gauge, so the resumed run repeats the full one bit for bit
        cfg_full = make_config(
            background=bg.BackgroundParams(m=1.0, n=2),
            grid_mode="latlong2d", grid_resolution=(16, 32),
            initial=flow.InitialData(kind="constant", r0=2.0),
            t_end=0.4, dt_max=1e-2,
        )
        grid = sp.build_grid("latlong2d", (16, 32))
        th, ps = grid.theta[:, None], grid.psi[None, :]
        r0 = 2.0 + 0.2 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ps)
        prof = bg.build_warp_profile(cfg_full.background, 5.0)
        full, series_full, _ = flow.run(cfg_full,
                                        initial_state=geo.state_from_radius(grid, prof, r0))
        mid, _, _ = flow.run(replace(cfg_full, t_end=0.2),
                             initial_state=geo.state_from_radius(grid, prof, r0))
        path = tmp_path / "ck.json"
        flow.save_checkpoint(mid, path)
        resumed, series_res, _ = flow.run(cfg_full,
                                          initial_state=flow.load_checkpoint(path, cfg_full))
        assert np.array_equal(resumed.phi.values, full.phi.values)
        assert np.array_equal(resumed.r.values, full.r.values)
        for rec in series_res.records:
            ref = next(r for r in series_full.records if r.t == rec.t)
            assert (rec.sup_hess_phi, rec.F_max) == (ref.sup_hess_phi, ref.F_max)

    def test_run_independent_of_table_extent(self):
        # a resumed run may load onto a table of another extent than the
        # original run's; the flow on it must not change, bit for bit
        cfg = make_config(
            background=bg.BackgroundParams(m=1.0, n=2),
            grid_resolution=32,
            initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                     amplitude=0.3, wavenumber=1),
            t_end=0.5, dt_max=1e-2,
        )
        grid = sp.build_grid("axisymmetric1d", 32)
        r0 = cfg.initial.radius_on(grid)
        finals = []
        for r_max in (5.0, 11.0):
            prof = bg.build_warp_profile(cfg.background, r_max)
            final, _, _ = flow.run(cfg, initial_state=geo.state_from_radius(grid, prof, r0))
            finals.append(final)
        assert np.array_equal(finals[0].phi.values, finals[1].phi.values)
        assert np.array_equal(finals[0].r.values, finals[1].r.values)

    @pytest.mark.parametrize("t_stop", [0.5, 1.0])
    def test_resume_builds_the_runs_table(self, tmp_path, monkeypatch, t_stop):
        # a checkpoint of the same config reloads onto one table of the
        # run's own extent, mid-run or at t_end
        cfg = make_config(
            background=bg.BackgroundParams(m=1.0, n=2),
            grid_resolution=32,
            initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                     amplitude=0.3, wavenumber=1),
            t_end=1.0, dt_max=1e-2,
        )
        final, _, _ = flow.run(cfg)
        stopped, _, _ = flow.run(replace(cfg, t_end=t_stop))
        path = tmp_path / "ck.json"
        flow.save_checkpoint(stopped, path)
        n_build = count_calls(monkeypatch, bg, "build_warp_profile")
        loaded = flow.load_checkpoint(path, cfg)
        assert n_build["n"] == 1
        assert loaded.profile.r_max == final.profile.r_max
        assert np.array_equal(loaded.phi.values, stopped.phi.values)

    def test_gauge_beyond_every_table_rejected(self, tmp_path, prof_m0):
        # a positive gauge lies past r = infinity
        state = unit_sphere_state(prof_m0, 32)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["phi"] = [50.0] * len(doc["phi"])
        path.write_text(json.dumps(doc))
        with pytest.raises(TableExtentError):
            flow.load_checkpoint(path, make_config(grid_resolution=32))

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_far_checkpoint_loads_onto_one_table(self, tmp_path, monkeypatch, m):
        # radii far past the config's own extent (2.5 + 0.25 + 2) are sized
        # from the checkpoint's phi: one table, the radii kept to rounding
        params = bg.BackgroundParams(m=m, n=2)
        prof = bg.build_warp_profile(params, 16.0)
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof, np.full(32, 12.0), t=0.5)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(state, path)
        cfg = make_config(background=params, grid_resolution=32, t_end=1.0,
                          initial=flow.InitialData(kind="constant", r0=2.5))
        n_build = count_calls(monkeypatch, bg, "build_warp_profile")
        loaded = flow.load_checkpoint(path, cfg)
        assert n_build["n"] == 1
        assert loaded.profile.r_max >= 12.0 + 0.25 + 2.0
        assert np.max(np.abs(loaded.r.values - 12.0)) < 1e-13

    def test_version_1_checkpoint_rejected(self, tmp_path, prof_m0):
        # version 1 held a base radius, and phi relative to it
        state = unit_sphere_state(prof_m0, 32)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2 and "base_radius" not in doc
        doc["format_version"] = 1
        doc["base_radius"] = 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="unsupported checkpoint format 1"):
            flow.load_checkpoint(path, make_config(grid_resolution=32))

    @pytest.mark.parametrize("bad, error", [
        (float("nan"), ConfigError),
        (-5e-324, TableExtentError),     # its radius bound overflows
    ])
    def test_gauge_with_no_radius_bound_rejected(self, tmp_path, prof_m0, bad, error):
        state = unit_sphere_state(prof_m0, 32)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["phi"][3] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            flow.load_checkpoint(path, make_config(grid_resolution=32))

    def test_legacy_tol_ode_key_loads(self, tmp_path, prof_m0):
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof_m0, 1.0 + 0.2 * np.cos(grid.theta), t=0.5)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        assert set(doc["params"]) == {"m", "n"}
        doc["params"]["tol_ode"] = 1e-10     # both written by older versions
        doc["params"]["tol_root"] = 1e-13
        path.write_text(json.dumps(doc, sort_keys=True))
        loaded = flow.load_checkpoint(path, make_config(grid_resolution=32, t_end=2.0))
        assert loaded.t == state.t
        assert np.array_equal(loaded.phi.values, state.phi.values)

    def test_mismatched_config_rejected(self, tmp_path, prof_m0):
        state = unit_sphere_state(prof_m0, 32)
        path = tmp_path / "ck.json"
        flow.save_checkpoint(state, path)
        cfg = make_config(grid_resolution=64)
        with pytest.raises(ConfigError):
            flow.load_checkpoint(path, cfg)
