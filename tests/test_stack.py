"""flow.run_group steps several flows as one stack. Each member's outputs
must equal its own flow.run's bit for bit: its final gauge, its events,
its series records and the radii they keep, and a failure's events and
message. Members leave the stack as they end, and a step that raises is
taken member by member, so a member that retries or fails does so as it
would alone."""

import numpy as np
import pytest

from icflow import background as bg
from icflow import curvature as cf
from icflow import flow
from icflow import sphere as sp
from icflow.errors import ConfigError, TableExtentError


def make_config(m=0.0, name="mean", amplitude=0.1, r0=2.0, mode="axisymmetric1d",
                resolution=16, **kw):
    args = dict(background=bg.BackgroundParams(m=m, n=2), grid_mode=mode,
                grid_resolution=resolution,
                initial=flow.InitialData(kind="cosine_perturbation", r0=r0,
                                         amplitude=amplitude, wavenumber=1),
                f=cf.from_name(name, 2), t_end=0.2, dt_max=1e-2, output_every=0.05)
    args.update(kw)
    return flow.FlowConfig(**args)


def solo(config):
    """flow.run's outcome: its (final, series, events), or what it raised."""
    try:
        return flow.run(config)
    except Exception as exc:   # noqa: BLE001 - compared with the member's
        return exc


def events_of(outcome):
    events = outcome.events if isinstance(outcome, Exception) else outcome[2]
    return [(e.kind, e.t, e.payload) for e in events]


def assert_same_outcome(member, alone):
    """member's outcome equals alone's, bit for bit."""
    assert events_of(member) == events_of(alone)
    if isinstance(alone, Exception):
        assert type(member) is type(alone) and str(member) == str(alone)
        return
    (final, series, _), (final_0, series_0, _) = member, alone
    assert final.t == final_0.t
    assert final.phi.values.tobytes() == final_0.phi.values.tobytes()
    assert [vars(r) for r in series.records] == [vars(r) for r in series_0.records]
    assert [r.tobytes() for r in series.radii] == [r.tobytes() for r in series_0.radii]


def record_steps(monkeypatch):
    """The start times of the member-by-member steps (flow.step) that
    run_group takes, as they are taken."""
    starts = []
    real = flow.step

    def recorded(state, *args, **kwargs):
        starts.append(state.t)
        return real(state, *args, **kwargs)

    monkeypatch.setattr(flow, "step", recorded)
    return starts


def record_stacks(monkeypatch):
    """The stacked steps (flow._step_stack) that run_group takes, as
    (members, whether the step was taken), in order."""
    stacked = []
    real = flow._step_stack

    def recorded(members, stack):
        stack = real(members, stack)
        stacked.append((len(members), stack is not None))
        return stack

    monkeypatch.setattr(flow, "_step_stack", recorded)
    return stacked


@pytest.mark.parametrize("mode, resolution", [("axisymmetric1d", 16), ("latlong2d", (16, 32))])
@pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("name", ["mean", "sigma2root", "quotient2"])
def test_stacked_members_equal_their_own_runs(monkeypatch, name, m, mode, resolution):
    configs = [make_config(m, name, amplitude, mode=mode, resolution=resolution)
               for amplitude in (0.1, 0.3)]
    alone = [solo(c) for c in configs]
    alone_steps = record_steps(monkeypatch)
    group = flow.run_group(configs)
    # every step was a stacked one: no member stepped alone
    assert alone_steps == []
    for member, own in zip(group, alone):
        assert events_of(member)[-1][0] == "completed"
        assert_same_outcome(member, own)


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_elementwise_kernels_do_not_depend_on_length_or_position(m):
    # the stage reads numpy's vectorised transcendental loops (m = 0:
    # tanh, log and sinh of the gauge) and, on lat-long grids, the
    # batched rfft; a member's row of a stack must give its own values,
    # whatever the stack's length and the row's place in it
    profile = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2))
    rng = np.random.default_rng(7)
    for n in (16, 17, 24, 63, 64, 65):
        for k in (2, 3, 5):
            r = rng.uniform(0.5, 20.0, size=(k, n))
            phi = profile.gauge_from_radius(r)
            for lookup in (profile.lambda_from_gauge, profile.radius_from_gauge):
                whole = lookup(phi)
                for i in range(k):
                    assert whole[i].tobytes() == lookup(phi[i].copy()).tobytes()
                flat = phi.ravel()
                for start in range(1, 9):
                    assert lookup(flat)[start:].tobytes() == lookup(flat[start:]).tobytes()
    for n_theta in (16, 24):
        grid = sp.build_grid("latlong2d", (n_theta, 2 * n_theta))
        for k in (2, 3):
            values = rng.standard_normal((k,) + grid.field_shape)
            whole = sp.polar_filter(grid, values)
            for i in range(k):
                assert whole[i].tobytes() == sp.polar_filter(grid, values[i].copy()).tobytes()


def test_member_that_retries_beside_one_that_does_not(monkeypatch):
    # at four times the stability bound's CFL, the steps of the rough
    # member (amplitude 0.9 in cos 2 theta) leave the cone and retry with
    # halved dt; its smooth partners (0.6, 0.5, at dt_max = 1e-3 so that
    # they outlast its first retry) never do. All step alone where a
    # stacked step raised, so each matches its own run
    monkeypatch.setattr(flow, "CFL", 4.0)
    configs = [make_config(1.0, amplitude=amplitude, resolution=64, dt_max=dt_max,
                           initial=flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                                    amplitude=amplitude, wavenumber=2))
               for amplitude, dt_max in ((0.9, 1.0), (0.6, 1e-3), (0.5, 1e-3))]
    alone = [solo(c) for c in configs]
    retries = [sum(kind == "admissibility_violation" for kind, _, _ in events_of(a))
               for a in alone]
    assert retries[0] > 1 and retries[1:] == [0, 0]
    stacked = record_stacks(monkeypatch)
    for member, own in zip(flow.run_group(configs), alone):
        assert_same_outcome(member, own)
    # after its first retry the rough member steps alone, so only one
    # stacked step raised, and its partners stepped on as a stack of two
    failed = stacked.index((3, False))
    assert all(ok for _, ok in stacked[:failed] + stacked[failed + 1:])
    assert {k for k, _ in stacked[failed + 1:]} == {2}


def test_member_that_fails_beside_one_that_completes(monkeypatch):
    # from r0 = 176 the surface passes R_MAX = 177 near t = 1.8: that
    # member's step raises TableExtentError and it ends with its failed
    # event, while its partner from r0 = 2 runs on, alone, to t_end
    configs = [make_config(r0=r0, t_end=3.0, output_every=0.5) for r0 in (176.0, 2.0)]
    alone = [solo(c) for c in configs]
    assert isinstance(alone[0], TableExtentError)
    assert events_of(alone[1])[-1][0] == "completed"
    alone_steps = record_steps(monkeypatch)
    group = flow.run_group(configs)
    for member, own in zip(group, alone):
        assert_same_outcome(member, own)
    # the two stepped as one stack up to the step that failed, which was
    # then taken member by member; the partner went on alone
    t_failed = group[0].events[-1].t
    assert 1.7 < t_failed < 1.9
    assert alone_steps[:2] == [t_failed, t_failed] and min(alone_steps) == t_failed


def test_stack_re_forms_after_a_member_fails(monkeypatch):
    # the member from r0 = 176 passes R_MAX near t = 1.8 and fails there;
    # its partners from r0 = 2 and 2.5 form a new stack of two from their
    # accepted states, evaluated as one, and step on as that stack to t_end
    configs = [make_config(r0=r0, t_end=3.0, output_every=0.5) for r0 in (176.0, 2.0, 2.5)]
    alone = [solo(c) for c in configs]
    assert isinstance(alone[0], TableExtentError)
    assert [events_of(a)[-1][0] for a in alone[1:]] == ["completed", "completed"]
    stacked = record_stacks(monkeypatch)
    for member, own in zip(flow.run_group(configs), alone):
        assert_same_outcome(member, own)
    failed = stacked.index((3, False))
    assert all(ok for _, ok in stacked[:failed] + stacked[failed + 1:])
    assert {k for k, _ in stacked[:failed]} == {3}
    assert len(stacked) > failed + 1 and {k for k, _ in stacked[failed + 1:]} == {2}


def test_stack_re_forms_after_a_member_completes(monkeypatch):
    # the member with the earliest t_end leaves on a stacked step; the
    # others form a new stack from their rows of the old one
    configs = [make_config(amplitude=a, t_end=t_end)
               for a, t_end in ((0.1, 0.1), (0.3, 0.2), (0.2, 0.2))]
    alone = [solo(c) for c in configs]
    stacked = record_stacks(monkeypatch)
    for member, own in zip(flow.run_group(configs), alone):
        assert events_of(member)[-1][0] == "completed"
        assert_same_outcome(member, own)
    assert all(ok for _, ok in stacked)
    sizes = [k for k, _ in stacked]
    assert sizes == sorted(sizes, reverse=True) and set(sizes) == {3, 2}


def test_members_land_on_a_snapshot_after_different_step_counts():
    # with dt_max = 1 the stability bound sets dt, which differs between
    # the small sphere and the large one: each lands on every snapshot
    # time on its own step count, and no member steps with dt = 0
    configs = [make_config(r0=r0, dt_max=1.0, resolution=32) for r0 in (0.5, 1.0)]
    alone = [solo(c) for c in configs]
    counts = [events_of(a)[-1][2] for a in alone]
    assert counts[0]["steps"] != counts[1]["steps"]
    assert all(c["stability_steps"] > 0 for c in counts)
    snapshots = [[t for kind, t, _ in events_of(a) if kind == "snapshot"] for a in alone]
    assert snapshots[0] == snapshots[1]
    for member, own in zip(flow.run_group(configs), alone):
        assert_same_outcome(member, own)


def test_a_member_that_cannot_start_fails_alone():
    # a negative start radius is refused when the member starts; the other
    # member runs, and its outcome is its own run's
    configs = [make_config(amplitude=3.0), make_config(amplitude=0.3)]
    group = flow.run_group(configs)
    assert isinstance(group[0], ConfigError)
    assert events_of(group[0]) == [("failed", 0.0, {
        "error": "ConfigError: initial radius must be positive everywhere"})]
    assert_same_outcome(group[1], solo(configs[1]))


def test_group_of_none_and_of_one():
    assert flow.run_group([]) == []
    config = make_config()
    (outcome,) = flow.run_group([config])
    assert_same_outcome(outcome, solo(config))


def test_a_group_runs_inside_one_run_call(monkeypatch):
    # run_group integrates through flow.run, so a tool that wraps run (as
    # perfbench's untraced mode does) sees each stack inside one call,
    # which returns the first member's outcome
    calls = []
    real = flow.run

    def wrapped(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(flow, "run", wrapped)
    group = flow.run_group([make_config(amplitude=a) for a in (0.1, 0.3)])
    assert len(calls) == 1 and calls[0] is group[0]
