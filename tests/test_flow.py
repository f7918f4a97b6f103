import dataclasses
import json
import math
from dataclasses import replace
from types import SimpleNamespace

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

from oracles import (
    extrinsic_pass,
    radius_at_lambda,
    reference_invariants,
    reference_speed,
    reference_stable_dt,
)

STAGE_FIELDS = [f.name for f in dataclasses.fields(flow.StageData)]


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
        r0 = radius_at_lambda(prof_m2, 2.0)
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
        kappa = geo.compute_extrinsic(state)
        assert np.min(np.sum(kappa, axis=-1)) < 0  # fixture sanity
        with pytest.raises(InadmissibleState) as exc:
            rhs(state, cf.from_name("mean", 2))
        assert exc.value.node is not None
        assert exc.value.kappa is not None

    def test_stage_checks_raise_typed_errors(self, prof_m0, monkeypatch):
        # a subnormal formula overflows the speed; F > 0 on the cone needs
        # no test of its own (test_curvature's test_value_positive_on_the_cone)
        state = unit_sphere_state(prof_m0)
        f = cf.from_name("mean", 2)
        real = cf._value
        monkeypatch.setattr(cf, "_value", lambda F, e: 1e-310 * real(F, e))
        with np.errstate(over="ignore"), pytest.raises(FlowError):
            flow.evaluate(state, f)

    def test_infinite_f_has_no_stability_bound(self, prof_m0, monkeypatch):
        # F overflowed to infinity passes the stage with speed 0, whose
        # diffusion scale is 0: the bound is a FlowError (exit 2), not a
        # bare ZeroDivisionError
        state = unit_sphere_state(prof_m0, n=16)
        f = cf.from_name("mean", 2)
        real = cf._value
        monkeypatch.setattr(cf, "_value", lambda F, e: 1e308 * real(F, e))
        with np.errstate(over="ignore"):
            stage = flow.evaluate(state, f)
        assert np.isinf(stage.lvf).all() and not stage.speed.any()
        with pytest.raises(FlowError, match="no stability bound"):
            flow.stable_dt(state, f, stage)

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_no_stability_bound_under_a_finite_dt_max(self, prof_m1, name):
        # a diffusion scale of 0 (the speed of an F that overflowed) or NaN
        # is refused whatever dt_max is: the bound from S_1 and S_2 reads
        # it too and goes on to the pencil, which refuses it
        f = cf.from_name(name, 2)
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof_m1, 2.0 + 0.3 * np.cos(grid.theta))
        stage = flow.evaluate(state, f)
        speed = stage.speed.copy()
        speed[5] = np.nan
        for stage in (dataclasses.replace(stage, speed=np.zeros_like(speed)),
                      dataclasses.replace(stage, speed=speed)):
            for dt_max in (1e-3, 1.0, math.inf):
                with pytest.raises(FlowError, match="no stability bound"):
                    flow.stable_dt(state, f, stage, dt_max=dt_max)


class TestStableDt:
    def test_umbilic_scale(self, prof_m0):
        state = unit_sphere_state(prof_m0)
        f = cf.from_name("mean", 2)
        dt = stable_dt(state, f, dt_max=np.inf)
        lam = math.sinh(1.0)
        fval = 2.0 * math.cosh(1.0) / math.sinh(1.0)
        h = state.grid.d_theta
        want = flow.CFL * h * h * (lam * fval) ** 2
        assert abs(dt - want) < 1e-12 * want

    def test_resolution_quarters_dt(self, prof_m0):
        f = cf.from_name("mean", 2)
        dts = []
        for n in (32, 64):
            grid = sp.build_grid("axisymmetric1d", n)
            state = geo.state_from_radius(grid, prof_m0, np.full(n, 1.0))
            dts.append(stable_dt(state, f, dt_max=np.inf))
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
            dts.append(stable_dt(geo.state_from_radius(grid, prof, r), f, dt_max=np.inf))
        for coarse, fine in zip(dts, dts[1:]):
            assert abs(coarse / fine - 4.0) <= 0.5

    @pytest.mark.parametrize("name, grads", [("mean", 0), ("sigma2root", 1), ("quotient2", 1)])
    def test_gradient_only_where_dF_varies(self, prof_m1, monkeypatch, name, grads):
        # dF = 1 for the mean, so its bound builds no dF array and solves
        # no pencil; the others build one dF array, of the smaller kappa's
        # column, and one pencil, unless the bound from S_1 and S_2 shows
        # that dt_max binds: at N = 32 the bound is near 0.05, far above
        # dt_max = 1e-3
        f = cf.from_name(name, 2)
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof_m1, 2.0 + 0.3 * np.cos(grid.theta))
        ext = flow.evaluate(state, f)
        n_grad = count_calls(monkeypatch, cf, "_gradient")
        n_eig = count_calls(monkeypatch, geo, "_pencil_eigenvalues")
        assert flow.stable_dt(state, f, ext, dt_max=1e-3) == 1e-3
        assert n_grad["n"] == n_eig["n"] == 0
        assert flow.stable_dt(state, f, ext) > 1e-2
        assert n_grad["n"] == n_eig["n"] == grads

    def test_dt_max_short_cut_is_the_same_double(self, monkeypatch):
        # where the bound on dF from S_1 and S_2 shows dt_max binding,
        # stable_dt returns dt_max with no pencil, and elsewhere it solves
        # the pencil: either way the result is min(bound, dt_max) bit for
        # bit. dt_max at the bound, one ulp to either side of it, and 0.01,
        # 0.5, 2 and 100 times it, for every F, on seeded states for m in
        # {0, 1, 2} on both grid modes and on states within rounding of
        # the sigma_2 cone's edge, where the S_1 bound is tight and the
        # pencil's smaller lambda v kappa rounds to either side of 0. DT_MIN
        # is lifted, since next to the edge the bound is far below it
        monkeypatch.setattr(flow, "DT_MIN", 0.0)
        n_eig = count_calls(monkeypatch, geo, "_pencil_eigenvalues")
        states = list(random_states(36, 3)) + list(sigma2_edge_states(37, 12))
        short = edge = below_zero = 0
        for label, state in states:
            for name in ("mean", "sigma2root", "quotient2"):
                f = cf.from_name(name, 2)
                try:
                    stage = flow.evaluate(state, f)
                except InadmissibleState:
                    continue
                if name == "sigma2root":
                    e = stage.e
                    kappa = geo.scaled_curvatures(stage.lam_p, stage.b, stage.hess)
                    edge += bool((e[..., 2] < 1e-9 * e[..., 1] ** 2).any())
                    below_zero += bool((kappa[..., 0] < 0.0).any())
                bound = flow.stable_dt(state, f, stage)
                for d in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf),
                          0.01 * bound, 0.5 * bound, 2.0 * bound, 100.0 * bound):
                    before = n_eig["n"]
                    assert flow.stable_dt(state, f, stage, dt_max=d) == min(bound, d), \
                        (label, name, d / bound)
                    short += name != "mean" and n_eig["n"] == before
        assert short >= 100 and edge >= 15 and below_zero >= 1, (short, edge, below_zero)

    def test_underflow(self, prof_m0, monkeypatch):
        monkeypatch.setattr(flow, "DT_MIN", 1.0)
        state = unit_sphere_state(prof_m0)
        with pytest.raises(StepUnderflow):
            stable_dt(state, cf.from_name("mean", 2))


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
        assert cf.cone_contains(f, geo.compute_extrinsic(new)).all()
        assert np.array_equal(ext.speed, flow.evaluate(new, f).speed)
        assert flow.stable_dt(new, f, ext) > 0.0


def test_step_reads_no_radius(prof_m1, monkeypatch):
    # a stage looks up lambda of its gauge alone; the new state's radius is
    # looked up once, when first read, and a start state keeps its radii
    calls = {"n": 0}
    real = bg.WarpProfile.radius_from_gauge

    def counted(self, phi):
        calls["n"] += 1
        return real(self, phi)

    monkeypatch.setattr(bg.WarpProfile, "radius_from_gauge", counted)
    grid = sp.build_grid("axisymmetric1d", 32)
    state = geo.state_from_radius(grid, prof_m1, 2.0 + 0.3 * np.cos(grid.theta))
    new = step(state, cf.from_name("mean", 2), 1e-3)
    assert np.array_equal(state.r.values, 2.0 + 0.3 * np.cos(grid.theta))
    assert calls["n"] == 0
    assert new.r is new.r
    assert calls["n"] == 1


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
    """The one-pass stage against the step path of the scaled invariants
    written out term by term (tests/oracles.py): equal bit for bit."""

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_matches_the_invariant_reference(self, name):
        f = cf.from_name(name, 2)
        for label, state in stage_states():
            stage = flow.evaluate(state, f)
            assert np.array_equal(stage.speed, reference_speed(state, f)), label
            assert flow.stable_dt(state, f, stage) == \
                reference_stable_dt(state, f, cfl=flow.CFL), label


def random_states(seed, count):
    """Seeded random states, for m in {0, 1, 2} on both grid modes:
    r0 + sum over k <= 3 of a_k cos k theta, plus on lat-long grids a psi
    term of modes 1 and 2. Most are admissible for every F; about a fifth
    leave the sigma_2 cone, and most of those Gamma_1 too."""
    rng = np.random.default_rng(seed)
    for m in (0.0, 1.0, 2.0):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=8.0)
        for mode, res in (("axisymmetric1d", 32), ("latlong2d", (16, 32))):
            grid = sp.build_grid(mode, res)
            th = grid.theta if mode == "axisymmetric1d" else grid.theta[:, None]
            for _ in range(count):
                r0 = rng.uniform(prof.r_horizon + 0.5, 4.0)
                amp = rng.uniform(-1.0, 1.0, 3) * 0.5 * (r0 - prof.r_horizon) / np.arange(1, 4)
                r = r0 + sum(a * np.cos(k * th) for k, a in enumerate(amp, 1))
                if mode == "latlong2d":
                    c = rng.uniform(-1.0, 1.0, 2) * 0.03 * (r0 - prof.r_horizon)
                    ps = grid.psi[None, :] + rng.uniform(0.0, 2.0 * np.pi)
                    r = r + c[0] * np.sin(th) * np.cos(ps) + c[1] * np.sin(th) ** 2 * np.sin(2 * ps)
                yield f"m{m}-{mode}", geo.state_from_radius(grid, prof, r)


def sigma2_edge_states(seed, count):
    """States within rounding of the sigma_2 cone's edge, for m in
    {0, 1, 2} on both grid modes: the radius bisected, over 60 halvings,
    between a state of random_states(seed, count) inside Gamma_2 and one
    outside, to the last one whose stage accepts."""
    f = cf.from_name("sigma2root", 2)

    def inside(state):
        try:
            flow.evaluate(state, f)
        except InadmissibleState:
            return False
        return True

    groups = {}
    for label, state in random_states(seed, count):
        groups.setdefault(label, []).append(state)
    for label, states in groups.items():
        outside = [s for s in states if not inside(s)]
        for a, b in zip([s for s in states if inside(s)], outside):
            def blend(s, a=a, b=b):
                return geo.state_from_radius(a.grid, a.profile,
                                             (1.0 - s) * a.r.values + s * b.r.values)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if inside(blend(mid)) else (lo, mid)
            yield label, blend(lo)


def kappa_route_stable_dt(state, F, kappa):
    """The stability bound through F and dF of kappa: v / (lambda F)^2
    times the largest dF/dkappa_i, with kappa = compute_extrinsic(state)
    and v from its extrinsic_pass."""
    v = np.sqrt(extrinsic_pass(state)[2])
    scale = v / (state.lam * cf.f_eval(F, kappa)) ** 2 \
        * np.max(cf.f_grad(F, kappa), axis=-1)
    return flow.CFL * state.grid.d_theta ** 2 / float(np.max(scale))


class TestInvariantStage:
    """The stage's F of the scaled invariants against F of the principal
    curvatures, which the full extrinsic pass solves: the same cone
    verdict, and F and the stability bound equal to rounding."""

    def test_matches_the_kappa_route_on_random_states(self):
        worst_f = worst_dt = 0.0
        verdicts = {True: 0, False: 0}
        for label, state in random_states(33, 40):
            kappa = geo.compute_extrinsic(state)
            for name in ("mean", "sigma2root", "quotient2"):
                f = cf.from_name(name, 2)
                inside = bool(cf.cone_contains(f, kappa).all())
                verdicts[inside] += 1
                if not inside:
                    with pytest.raises(InadmissibleState):
                        flow.evaluate(state, f)
                    continue
                stage = flow.evaluate(state, f)
                want = cf.f_eval(f, kappa)
                worst_f = max(worst_f, float(np.max(np.abs(stage.f - want) / want)))
                dt = flow.stable_dt(state, f, stage)
                worst_dt = max(worst_dt, abs(dt / kappa_route_stable_dt(state, f, kappa) - 1.0))
        assert verdicts[True] >= 500 and verdicts[False] >= 50, verdicts
        assert worst_f <= 1e-10 and worst_dt <= 1e-10, (worst_f, worst_dt)

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_umbilic_spheres_agree_to_ulps(self, name):
        # constant radius: tr A = det A = 0, S_1 = 2 lambda', S_2 = lambda'^2
        f = cf.from_name(name, 2)
        for m in (0.0, 1.0, 2.0):
            prof = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2), r_max=8.0)
            for mode, res in (("axisymmetric1d", 16), ("latlong2d", (16, 32))):
                grid = sp.build_grid(mode, res)
                for r0 in (prof.r_horizon + 0.05, 0.7, 2.0, 7.5):
                    if r0 <= prof.r_horizon:
                        continue
                    state = geo.state_from_radius(grid, prof, np.full(grid.field_shape, r0))
                    want = cf.f_eval(f, geo.compute_extrinsic(state))
                    got = flow.evaluate(state, f).f
                    assert np.all(np.abs(got - want) <= 8 * np.spacing(want)), (m, mode, r0)

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_value_is_positive_on_the_cone(self, name):
        # the cone test on the scaled invariants implies lambda v F >= 0 for
        # every F, and > 0 unless the quotient 4 S_2 / S_1 underflows, which
        # takes S_2 below about 1e-323 S_1: a stage there has an infinite
        # speed, which it refuses (FlowError). Seeded components of either
        # sign, magnitudes 1e-165 to 1e150, lambda' >= 0 with some 0 (the
        # horizon), through the invariant formula the stage pins to
        f = cf.from_name(name, 2)
        rng = np.random.default_rng(3)
        size = 200_000
        mag = lambda: 10.0 ** rng.uniform(-165.0, 150.0, size) \
            * rng.choice([-1.0, 1.0], size)  # noqa: E731
        # the nodes' sin theta of a 16-row grid, one per sample
        sin = sp.build_grid("latlong2d", (16, 32)).sin_theta[rng.integers(0, 16, size), 0]
        lam_p = np.abs(mag())
        lam_p[:1000] = 0.0
        d_th, d_ps, p00, p01, p11 = (mag() for _ in range(5))
        # one set at the horizon where det A is rounding left over from
        # cancellation: S_1 = 1e300, S_2 about 1e-35, and the quotient
        # underflows to 0
        d_th[0] = d_ps[0] = 0.0
        p00[0], p01[0], p11[0] = -1e300, 9.999944335758489e-11, -1e-320
        with np.errstate(all="ignore"):
            _, e, _ = reference_invariants(
                SimpleNamespace(sin2=sin * sin), lam_p, d_th, d_ps,
                d_th * d_th + (d_ps / sin) ** 2, p00, p01, p11)
            e = e[cf._margin(f, e) > 0.0]
            value = cf._value(f, e)
        assert len(e) > 100_000
        finite = np.isfinite(value)
        assert (value[finite] >= 0.0).all()
        zero = value == 0.0
        if name == "quotient2":
            assert zero.any() and (e[zero, 2] < 1e-323 * e[zero, 1]).all()
        else:
            assert not zero.any()


def reference_advance(state, F, dt, ext):
    """flow._advance as it was while the midpoint was a state: a copy."""
    grid = state.grid
    latlong = grid.mode == "latlong2d"
    phi_mid = state.phi.values + 0.5 * dt * ext.speed
    if latlong:
        phi_mid = sp.polar_filter(grid, phi_mid)
    mid = geo.state_from_gauge(grid, state.profile, phi_mid, t=state.t + 0.5 * dt)
    phi_new = state.phi.values + dt * flow.evaluate(mid, F).speed
    if latlong:
        phi_new = sp.polar_filter(grid, phi_new)
    new = geo.state_from_gauge(grid, state.profile, phi_new, t=state.t + dt)
    return new, flow.evaluate(new, F)


def same_arrays(a, b):
    """a and b, arrays or tuples of them, equal bit for bit, shapes included."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_arrays(x, y) for x, y in zip(a, b))
    return a.shape == b.shape and np.array_equal(a, b)


def midpoint_gauge(state, ext, dt):
    return sp.polar_filter(state.grid, state.phi.values + 0.5 * dt * ext.speed)


def midpoint_speed(grid, profile, phi, t, f):
    """The speed _rk2_gauge reads at the midpoint phi: its _stage, with
    lambda looked up by gauge, and no state built."""
    return flow._stage(f, t, grid, profile, phi, geo.lambda_of_gauge(grid, profile, phi)).speed


def outcome(fn, *args):
    """The error fn raises, as (type, message, t, node, kappa); None if none."""
    try:
        fn(*args)
    except (FlowError, InadmissibleState, TableExtentError) as exc:
        kappa = getattr(exc, "kappa", None)
        return (type(exc), str(exc), getattr(exc, "t", None), getattr(exc, "node", None),
                None if kappa is None else list(kappa))
    return None


def admissible_exit_state():
    """m = 1, N_theta = 64, r = 2 + 0.9 cos 2 theta: admissible, and at
    dt = 0.03 its midpoint leaves Gamma_1 at node 34."""
    prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2), r_max=8.0)
    grid = sp.build_grid("axisymmetric1d", 64)
    return geo.state_from_radius(grid, prof, 2.0 + 0.9 * np.cos(2 * grid.theta))


class TestMidpoint:
    """The rk2 midpoint builds no state: its speed, its step and its
    refusals, from the stage of its gauge array, against the midpoint that
    was a state."""

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_speed_matches_the_state_path(self, name):
        f = cf.from_name(name, 2)
        for label, state in stage_states():
            ext = flow.evaluate(state, f)
            dt = flow.stable_dt(state, f, ext, dt_max=1e-3)
            phi, t = midpoint_gauge(state, ext, dt), state.t + 0.5 * dt
            want = flow.evaluate(geo.state_from_gauge(state.grid, state.profile, phi, t), f)
            got = midpoint_speed(state.grid, state.profile, phi, t, f)
            assert same_arrays(got, want.speed), label

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_step_matches_the_reference_advance(self, name):
        f = cf.from_name(name, 2)
        for label, state in stage_states():
            ext = ref_ext = flow.evaluate(state, f)
            ref = state
            for _ in range(3):
                dt = flow.stable_dt(state, f, ext, dt_max=1e-3)
                state, ext = flow.step(state, f, dt, ext)
                ref, ref_ext = reference_advance(ref, f, dt, ref_ext)
                assert state.t == ref.t, label
                assert same_arrays(state.phi.values, ref.phi.values), label
                assert same_arrays(state.lam, ref.lam), label
                for name_ in STAGE_FIELDS:
                    assert same_arrays(getattr(ext, name_), getattr(ref_ext, name_)), (label, name_)

    def test_non_finite_midpoint_gauge_is_a_flow_error(self, prof_m1):
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof_m1, 2.0 + 0.3 * np.cos(grid.theta))
        f = cf.from_name("mean", 2)
        ext = flow.evaluate(state, f)
        for bad in (math.nan, math.inf, -math.inf):
            phi = state.phi.values.copy()
            phi[5] = bad
            got = outcome(midpoint_speed, grid, prof_m1, phi, 0.5e-3, f)
            assert got[0] is FlowError
            assert got == outcome(lambda: flow.evaluate(
                geo.state_from_gauge(grid, prof_m1, phi, 0.5e-3), f))
        ext.speed = ext.speed.copy()
        ext.speed[5] = math.nan
        events = []
        with pytest.raises(FlowError):
            flow.step(state, f, 1e-3, ext, events=events)
        assert events == []

    def test_midpoint_gauge_past_r_max_is_a_table_extent_error(self, prof_m1):
        grid = sp.build_grid("axisymmetric1d", 32)
        state = geo.state_from_radius(grid, prof_m1, 2.0 + 0.3 * np.cos(grid.theta))
        f = cf.from_name("mean", 2)
        prof = bg.build_warp_profile(bg.BackgroundParams(m=1.0, n=2))
        assert prof.r_max == bg.R_MAX
        for gauge in (float(prof.gauge_from_radius(bg.R_MAX)) * (1 - 1e-9), -1e-100):
            phi = state.phi.values.copy()
            phi[7] = gauge
            got = outcome(midpoint_speed, grid, prof, phi, 0.5e-3, f)
            assert got[0] is TableExtentError and "past r_max = 177" in got[1]
            assert got == outcome(lambda: flow.evaluate(
                geo.state_from_gauge(grid, prof, phi, 0.5e-3), f))

    def test_cone_exit_at_the_midpoint(self, monkeypatch):
        state = admissible_exit_state()
        f = cf.from_name("mean", 2)
        ext = flow.evaluate(state, f)
        dt = 0.03
        phi, t = midpoint_gauge(state, ext, dt), state.t + 0.5 * dt
        got = outcome(midpoint_speed, state.grid, state.profile, phi, t, f)
        assert got[0] is InadmissibleState and got[2] == 0.015 and got[3] == (34,)
        assert got == outcome(lambda: flow.evaluate(
            geo.state_from_gauge(state.grid, state.profile, phi, t), f))
        # the step retries it with halved dt and logs what it logged when
        # the midpoint was a state
        events = []
        new, new_ext = flow.step(state, f, dt, ext, events=events)
        monkeypatch.setattr(flow, "_advance", reference_advance)
        ref_events = []
        ref, ref_ext = flow.step(state, f, dt, ext, events=ref_events)
        assert events[0].kind == "admissibility_violation"
        assert events[0].payload["node"] == (34,) and events[0].payload["dt"] == dt
        assert [(e.kind, e.t, e.payload) for e in events] == \
            [(e.kind, e.t, e.payload) for e in ref_events]
        assert new.t == ref.t and same_arrays(new.phi.values, ref.phi.values)
        assert same_arrays(new_ext.speed, ref_ext.speed)


def exit_state(state, f, stage, dt):
    """The state that leaves the cone in a step of dt from admissible_exit_state:
    the midpoint, as a state, when it leaves (dt = 0.03), else the end state
    (dt = 3.625e-3)."""
    grid, prof = state.grid, state.profile
    phi, t = midpoint_gauge(state, stage, dt), state.t + 0.5 * dt
    mid = geo.state_from_gauge(grid, prof, phi, t)
    if not cf.cone_contains(f, geo.compute_extrinsic(mid)).all():
        return mid
    speed = midpoint_speed(grid, prof, phi, t, f)
    return geo.state_from_gauge(grid, prof, sp.polar_filter(grid, state.phi.values + dt * speed),
                                t=state.t + dt)


class TestConeExit:
    """A cone exit names the node of least margin of the scaled invariants
    and that node's kappa, which the full extrinsic pass solves there: it
    equals compute_extrinsic's kappa of the state that left, for an exit at
    the midpoint, at the end state and at the start. The step's
    admissibility_violation event and the run's failed event carry both."""

    @pytest.mark.parametrize("dt, node", [(0.03, (34,)), (3.625e-3, (31,))])
    def test_exit_names_the_node_and_its_kappa(self, dt, node):
        state = admissible_exit_state()
        f = cf.from_name("mean", 2)
        stage = flow.evaluate(state, f)
        left = exit_state(state, f, stage, dt)
        kappa = geo.compute_extrinsic(left)
        with pytest.raises(InadmissibleState) as info:
            flow._advance(state, f, dt, stage)
        assert info.value.t == left.t and info.value.node == node
        assert np.array_equal(info.value.kappa, kappa[node])
        # the node of least margin of sigma_1 of kappa too
        assert np.argmin(kappa.sum(axis=-1)) == node[0]
        events = []
        flow.step(state, f, dt, stage, events=events)
        assert events[0].kind == "admissibility_violation"
        assert events[0].payload == {"dt": dt, "node": node, "kappa": list(kappa[node])}

    @pytest.mark.parametrize("dt, node", [(0.03, (34,)), (3.625e-3, (31,))])
    def test_failed_event_names_the_node_and_its_kappa(self, monkeypatch, dt, node):
        # steps of dt with no retry: the run gives up on its first exit
        state = admissible_exit_state()
        f = cf.from_name("mean", 2)
        left = exit_state(state, f, flow.evaluate(state, f), dt)
        monkeypatch.setattr(flow, "stable_dt", lambda *args, **kwargs: dt)
        monkeypatch.setattr(flow, "step", lambda s, F, dt_, stage, events=None:
                            flow._advance(s, F, dt_, stage))
        cfg = make_config(background=state.profile.params, grid_resolution=64)
        with pytest.raises(InadmissibleState) as info:
            flow.run(cfg, initial_state=state)
        event = info.value.events[-1]
        assert event.kind == "failed" and event.t == 0.0
        assert event.payload["node"] == node
        assert event.payload["kappa"] == list(geo.compute_extrinsic(left)[node])

    def test_start_state_outside_the_cone(self, prof_m0):
        # the dimple of test_inadmissible_state_raises, as a run's start
        grid = sp.build_grid("axisymmetric1d", 96)
        r = 1.0 - 0.65 * np.exp(-((grid.theta - np.pi / 2) ** 2) / 0.02)
        state = geo.state_from_radius(grid, prof_m0, r)
        kappa = geo.compute_extrinsic(state)
        with pytest.raises(InadmissibleState) as info:
            flow.run(make_config(grid_resolution=96), initial_state=state)
        node = info.value.node
        assert node == (int(np.argmin(kappa.sum(axis=-1))),)
        assert np.array_equal(info.value.kappa, kappa[node])
        assert info.value.events[-1].payload["kappa"] == list(kappa[node])


class TestRun:
    def test_umbilic_mass2_exponential_law(self):
        cfg = make_config(
            background=bg.BackgroundParams(m=2.0, n=2),
            initial=flow.InitialData(kind="constant", r0=0.0),  # replaced below
            t_end=3.0,
        )
        prof = bg.build_warp_profile(cfg.background, 6.0)
        r0 = radius_at_lambda(prof, 2.0)
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

    def test_series_keeps_radii_and_no_metrics(self):
        cfg = make_config(t_end=0.3)
        final, series, _ = flow.run(cfg)
        assert len(series.radii) == len(series.records) == 4
        assert series.grid is final.grid
        assert series.n == 2
        assert np.array_equal(series.radii[-1], final.r.values)
        assert not hasattr(series, "metrics") and not hasattr(series, "profile")

    def test_zero_t_end(self):
        with pytest.raises(ConfigError, match="t_end must be positive"):
            make_config(t_end=0.0)

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
        assert list(flow._snapshot_times(0.0, 1.0, 0.1)) == [k * 0.1 for k in range(1, 10)] + [1.0]
        assert list(flow._snapshot_times(0.7, 1.55, 0.1)) == \
            [k * 0.1 for k in range(8, 16)] + [1.55]
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
        g0 = series.records[0].sup_grad_phi_sq
        assert all(r.sup_grad_phi_sq <= g0 * (1 + 1e-6) for r in series.records)

    @pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
    def test_one_extrinsic_pass_per_state(self, monkeypatch, name):
        # one array pass per stage: per rk2 step the midpoint and the new
        # state, plus the initial state once per run, each reading the
        # scaled invariants alone, with one stencil pass each. Only
        # accepted states (the new state and the initial one) become a
        # GraphState and a StageData record; the midpoint is a gauge array
        # and its speed. A snapshot reads its state's stage data and makes
        # no pass of its own: compute_extrinsic is never called, and the
        # pencil's eigensolve runs once per snapshot, where kappa is read,
        # and, for an F other than the mean, once per step whose stability
        # bound may come under dt_max. At N = 32 and dt_max = 1e-3 the
        # bound from S_1 and S_2 shows dt_max binding on every step; at
        # N = 256 and dt_max = 1 the stability bound sets every step but
        # the five that land on a snapshot. No sigma_j of kappa is formed:
        # the stage tests the cone and evaluates F on the scaled
        # invariants through the private formulas, never through
        # cone_contains or f_eval
        counts = {c: count_calls(monkeypatch, mod, c) for mod, c in [
            (geo, "scaled_invariants"), (geo, "compute_extrinsic"),
            (geo, "_pencil_eigenvalues"), (geo, "state_from_gauge"), (sp, "derivatives"),
            (cf, "elementary_symmetric"), (cf, "cone_contains"), (cf, "f_eval")]}
        for capped, n_theta, dt_max in ((True, 32, 1e-3), (False, 256, 1.0)):
            for counter in counts.values():
                counter["n"] = 0
            cfg = make_config(
                background=bg.BackgroundParams(m=1.0, n=2),
                grid_resolution=n_theta,
                initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                         amplitude=0.2, wavenumber=1),
                f=cf.from_name(name, 2),
                t_end=0.05, output_every=0.01, dt_max=dt_max,
            )
            _, series, events = flow.run(cfg)
            n = {c: counter["n"] for c, counter in counts.items()}
            steps = events[-1].payload["steps"]
            snapshots = len(series.records)
            assert steps >= 20 and snapshots == 6
            assert events[-1].payload["stability_steps"] == (0 if capped else steps - 5)
            assert n["scaled_invariants"] == n["derivatives"] == 2 * steps + 1
            assert n["compute_extrinsic"] == 0
            assert n["_pencil_eigenvalues"] == \
                snapshots + (0 if capped or name == "mean" else steps)
            assert n["state_from_gauge"] == steps
            assert n["elementary_symmetric"] == n["cone_contains"] == n["f_eval"] == 0

    def test_config_validation(self):
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
        # a profile's cap r_max only ends its radius range: the flow on a
        # profile capped below the anchor and on one capped above it is
        # the same, bit for bit
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
        # a checkpoint of the same config reloads onto the run's own
        # profile, mid-run or at t_end: the one profile of its mass
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
        assert loaded.profile is final.profile is stopped.profile
        assert loaded.profile.r_max == bg.R_MAX
        assert np.array_equal(loaded.phi.values, stopped.phi.values)

    def test_resume_past_the_anchor_matches_uninterrupted(self, tmp_path):
        # r0 = 11 lies past the table's anchor (near r = 10), so every
        # lookup reads the closed far field: cut at t = 0.25 and resumed,
        # the run repeats the uninterrupted one bit for bit
        cfg = make_config(
            background=bg.BackgroundParams(m=1.0, n=2),
            grid_resolution=16,
            initial=flow.InitialData(kind="cosine_perturbation", r0=11.0,
                                     amplitude=0.3, wavenumber=1),
            t_end=0.5, dt_max=1e-2, output_every=0.05,
        )
        full, series_full, _ = flow.run(cfg)
        assert full.r.values.min() > full.profile.table_r[-1]
        mid, _, _ = flow.run(replace(cfg, t_end=0.25))
        path = tmp_path / "ck.json"
        flow.save_checkpoint(mid, path)
        resumed, series_res, _ = flow.run(cfg, initial_state=flow.load_checkpoint(path, cfg))
        assert np.array_equal(resumed.phi.values, full.phi.values)
        assert np.array_equal(resumed.r.values, full.r.values)
        assert len(series_res.records) == 6
        for rec in series_res.records:
            ref = next(r for r in series_full.records if r.t == rec.t)
            assert rec == ref

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
        # radii far past the config's own start (2.5) load onto the one
        # profile of the mass, the radii kept to rounding
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
        assert loaded.profile is bg.build_warp_profile(params)
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
        (-5e-324, TableExtentError),     # past every radius
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
