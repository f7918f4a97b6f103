"""Explicit time integration of the expanding curvature flow.

The scalar form evolved here is

    d phi / dt = v / F(lambda h^i_j),

equal by 1-homogeneity to v / (lambda F(h^i_j)); both are computed and
must agree to rounding, which cross-checks the scaling path. `evaluate`
computes everything the stepper reads of a state in one pass: the
extrinsic data, the cone test on kappa and on lambda kappa, F(kappa) and
the speed. Each state the stepper touches (accepted, midpoint, end) is
evaluated once, and the end state inside the step's retry loop, so an
end state outside the cone is retried like a midpoint.
The gauge phi = -integral_r^infinity ds/lambda is anchored at infinity,
so it resolves radius at any r; the radius field is refreshed from phi
through the tabulated gauge inverse after every substep.

Stepping is explicit (the midpoint rule, rk2) under a parabolic
stability bound: the linearized diffusion coefficient is
F'_max gtilde_max v / (lambda F)^2, so dt ~ cfl d_theta^2 (lambda F)^2 and
grows geometrically as the surface expands; total work to reach a fixed
time is small and no nonlinear solves are needed. On lat-long grids the
pole rows' azimuthal spacing sin(theta_j) d_psi is far below d_theta;
the polar filter (sphere.polar_filter) removes from the midpoint and the
new gauge the azimuthal modes that d_theta does not resolve, so the same
d_theta bound holds in both grid modes. An admissibility guard
re-tries a failed step with halved dt up to eight times before giving up,
so transient excursions toward the cone boundary are handled without
interpreting them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import curvature as cf
from . import diagnostics as dg
from .background import BackgroundParams, build_warp_profile
from .errors import (
    ConfigError,
    FlowError,
    InadmissibleState,
    StepUnderflow,
)
from .geometry import (
    ExtrinsicData,
    GraphState,
    compute_extrinsic,
    state_from_gauge,
    state_from_radius,
)
from .sphere import build_grid, polar_filter

CHECKPOINT_FORMAT_VERSION = 2
DT_MIN = 1e-12   # a stability bound below this is a StepUnderflow


@dataclass(frozen=True)
class InitialData:
    kind: str                      # constant | cosine_perturbation | custom_table
    r0: float = 0.0
    amplitude: float = 0.0
    wavenumber: int = 1
    table_theta: Optional[tuple] = None
    table_r: Optional[tuple] = None

    def radius_on(self, grid) -> np.ndarray:
        if self.kind == "constant":
            base = np.full(grid.n_theta, self.r0)
        elif self.kind == "cosine_perturbation":
            base = self.r0 + self.amplitude * np.cos(self.wavenumber * grid.theta)
        elif self.kind == "custom_table":
            theta = np.asarray(self.table_theta)
            if not (np.diff(theta) > 0).all():     # np.interp needs increasing theta
                raise ConfigError("[initial] table_path: theta must be strictly increasing")
            base = np.interp(grid.theta, theta, np.asarray(self.table_r))
        else:
            raise ConfigError(f"unknown initial data kind {self.kind!r}")
        if (base <= 0).any():
            raise ConfigError("initial radius must be positive everywhere")
        if grid.mode == "latlong2d":
            base = np.repeat(base[:, None], grid.n_psi, axis=1)
        return base


@dataclass(frozen=True)
class FlowConfig:
    background: BackgroundParams
    grid_mode: str
    grid_resolution: tuple
    initial: InitialData
    f: cf.CurvatureFunction
    t_end: float
    cfl: float = 0.2
    dt_max: float = 1e-3
    output_every: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.cfl <= 0.5):
            raise ConfigError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if not (DT_MIN < self.dt_max):
            raise ConfigError(f"dt_max must exceed DT_MIN = {DT_MIN:g}")
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if self.output_every <= 0:
            raise ConfigError("output_every must be positive")
        if self.background.n != 2:
            raise ConfigError("time integration is implemented for n = 2 grids")


@dataclass
class FlowEvent:
    kind: str                      # snapshot | admissibility_violation | completed | failed
    t: float
    payload: dict = field(default_factory=dict)


def evaluate(state: GraphState, F: cf.CurvatureFunction) -> ExtrinsicData:
    """The stage data of state: its extrinsic pass, the cone test on its
    sigma_j and on those of lambda kappa, F(kappa) and the speed
    d phi / dt = v / F(lambda kappa), kept as ext.f_kappa and ext.speed.

    Raises InadmissibleState, carrying the worst node and its kappa, when
    kappa or lambda kappa leaves the cone or F(lambda kappa) is not
    positive; FlowError when F(lambda kappa) and lambda F(kappa) disagree
    beyond rounding or the speed is not finite.
    """
    ext = compute_extrinsic(state)
    kappa = ext.kappa
    f_kappa = cf._value(F, cf.require_cone(F, ext.sigma_j, kappa, state.t))
    e_scaled = cf.elementary_symmetric(ext.lam[..., None] * kappa)
    scaled = cf._value(F, cf.require_cone(F, e_scaled, kappa, state.t))
    if np.abs(scaled - ext.lam * f_kappa).max() > 1e-12 * np.abs(scaled).max():
        raise FlowError("homogeneity cross-check failed in speed evaluation")
    if scaled.min() <= 0.0:
        idx = np.unravel_index(int(np.argmin(scaled)), scaled.shape)
        raise InadmissibleState(
            f"curvature function not positive at t={state.t}",
            t=state.t, node=idx, kappa=kappa[idx],
        )
    speed = ext.v / scaled
    if not np.isfinite(speed).all():
        raise FlowError(f"non-finite speed at t={state.t}")
    ext.f_kappa = f_kappa
    ext.speed = speed
    return ext


def stable_dt(state: GraphState, F: cf.CurvatureFunction, ext: ExtrinsicData,
              cfl: float, dt_max: float = math.inf) -> float:
    """Parabolic stability bound cfl d_theta^2 / max(diffusion scale), with
    ext = evaluate(state, F). On lat-long grids the polar filter keeps
    only the azimuthal modes that d_theta resolves. A bound below DT_MIN
    raises StepUnderflow."""
    fp = cf._gradient(F, ext.kappa, ext.sigma_j)
    # largest eigenvalue of gtilde relative to sigma is exactly 1
    scale = ext.v / (ext.lam * ext.f_kappa) ** 2 * fp.max(axis=-1)
    h = state.grid.d_theta
    dt = cfl * h * h / float(scale.max())
    if dt < DT_MIN:
        raise StepUnderflow(f"stability requires dt={dt:.3e} below DT_MIN={DT_MIN:.3e}")
    return min(dt, dt_max)


def _advance(state, F, dt, ext):
    """One rk2 step of size dt from state, with ext = evaluate(state, F):
    the new state and its stage data."""
    grid = state.grid
    latlong = grid.mode == "latlong2d"
    phi_mid = state.phi.values + 0.5 * dt * ext.speed
    if latlong:
        phi_mid = polar_filter(grid, phi_mid)
    mid = state_from_gauge(grid, state.profile, phi_mid, t=state.t + 0.5 * dt)
    phi_new = state.phi.values + dt * evaluate(mid, F).speed
    if latlong:
        phi_new = polar_filter(grid, phi_new)
    new = state_from_gauge(grid, state.profile, phi_new, t=state.t + dt)
    return new, evaluate(new, F)


def _offender(exc: InadmissibleState) -> dict:
    """The worst node and its kappa, as an event payload."""
    return {"node": exc.node,
            "kappa": None if exc.kappa is None else list(np.atleast_1d(exc.kappa))}


def step(state: GraphState, F: cf.CurvatureFunction, dt: float, ext: ExtrinsicData,
         events: Optional[list] = None) -> tuple[GraphState, ExtrinsicData]:
    """One midpoint (rk2) step from state, with ext = evaluate(state, F).
    Returns the new state and its stage data, evaluate(new, F). When the
    midpoint or the new state leaves the cone (InadmissibleState), the
    step is retried with halved dt, up to eight times, logging an
    `admissibility_violation` event for each failed try."""
    last = None
    for _ in range(9):
        try:
            return _advance(state, F, dt, ext)
        except InadmissibleState as exc:
            last = exc
            if events is not None:
                events.append(FlowEvent("admissibility_violation", state.t,
                                        {"dt": dt, **_offender(exc)}))
            dt *= 0.5
    raise last


def _snapshot_times(t0, t_end, every):
    """The targets k * every strictly between t0 and t_end, then t_end."""
    k = math.floor(t0 / every + 1e-9) + 1
    times = []
    while k * every < t_end - 1e-12:
        if k * every > t0 + 1e-12:
            times.append(k * every)
        k += 1
    times.append(t_end)
    return times


def _table_extent(config: FlowConfig, r, t: float) -> float:
    """Warp-table extent for radii r at time t: the largest radius, plus
    the remaining flow time at the asymptotic drift rate 1/n, plus 2."""
    return float(np.max(r)) + (config.t_end - t) / config.background.n + 2.0


def run(config: FlowConfig, initial_state: Optional[GraphState] = None):
    """Integrate to t_end, returning (final state, diagnostics series, events).

    Deterministic for a given config: fixed node order, no randomized
    reductions. Snapshots are taken at t = 0 (or the resume time), at each
    k * output_every, and at t_end. The step that ends an interval is cut,
    or stretched by under 1e-12, to land on its snapshot time exactly.
    An exception raised on the way carries the events so far, ending with
    a `failed` event, as exc.events; an InadmissibleState's `failed`
    event also names the worst node and its kappa.
    """
    F = config.f
    events: list[FlowEvent] = []
    state = initial_state
    try:
        if state is None:
            grid = build_grid(config.grid_mode, config.grid_resolution)
            r0 = config.initial.radius_on(grid)
            profile = build_warp_profile(config.background, _table_extent(config, r0, 0.0))
            state = state_from_radius(grid, profile, r0, t=0.0)

        series = dg.DiagnosticsSeries.start(state, F)
        if config.t_end <= state.t:
            events.append(FlowEvent("completed", state.t, {"steps": 0}))
            return state, series, events

        def take_snapshot(s, ext):
            rec = dg.snapshot(s, ext, pinch_ref=series.pinch_ref)
            series.append(s, ext, rec)
            events.append(FlowEvent("snapshot", s.t, {"index": len(series.records) - 1}))

        # one stage evaluation per state: the step returns its new state's,
        # which the snapshot, the stability bound and the next step share
        ext = evaluate(state, F)
        take_snapshot(state, ext)
        snap_times = _snapshot_times(state.t, config.t_end, config.output_every)
        steps = 0
        for target in snap_times:
            while state.t < target - 1e-12:
                dt = stable_dt(state, F, ext, config.cfl, dt_max=config.dt_max)
                if state.t + dt >= target - 1e-12:
                    dt = target - state.t      # ends the interval on target
                state, ext = step(state, F, dt, ext, events=events)
                steps += 1
            take_snapshot(state, ext)
    except Exception as exc:
        t = 0.0 if state is None else state.t
        payload = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, InadmissibleState):
            payload.update(_offender(exc))
        events.append(FlowEvent("failed", t, payload))
        exc.t = t
        exc.events = events
        raise
    events.append(FlowEvent("completed", state.t, {"steps": steps}))
    return state, series, events


# -- checkpointing -----------------------------------------------------------

def save_checkpoint(state: GraphState, path) -> None:
    """Write state as a checkpoint document; a file that cannot be written
    is a ConfigError naming it."""
    grid = state.grid
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "t": state.t,
        "params": {
            "m": state.profile.params.m,
            "n": state.profile.params.n,
        },
        "grid": {
            "mode": grid.mode,
            "n_theta": grid.n_theta,
            "n_psi": grid.n_psi,
        },
        "phi": [float(x) for x in state.phi.values.ravel()],
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write checkpoint {path}: {exc}") from None


def load_checkpoint(path, config: FlowConfig) -> GraphState:
    """Rebuild a state from a checkpoint document, validated against config.
    A file that cannot be read as a checkpoint is a ConfigError naming it."""
    grid = build_grid(config.grid_mode, config.grid_resolution)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ConfigError(f"unsupported checkpoint format {doc.get('format_version')!r}")
        p = doc["params"]
        if p["m"] != config.background.m or p["n"] != config.background.n:
            raise ConfigError("checkpoint background parameters do not match the configuration")
        g = doc["grid"]
        if g["mode"] != config.grid_mode:
            raise ConfigError("checkpoint grid mode does not match the configuration")
        if (grid.n_theta, grid.n_psi) != (g["n_theta"], g["n_psi"]):
            raise ConfigError("checkpoint grid resolution does not match the configuration")
        phi = np.asarray(doc["phi"], dtype=float).reshape(grid.field_shape)
        t = float(doc["t"])
        if not (math.isfinite(t) and np.isfinite(phi).all()):
            raise ValueError("t and phi must be finite")
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {type(exc).__name__}: {exc}") from None
    # one table, at least the uninterrupted run's own, and long enough for
    # the checkpointed radii and the remaining flow time. lambda >= sinh r
    # for every m >= 0, so psi_m <= psi_0 and the massless inverse of the
    # largest phi bounds the largest radius from above (a phi at or
    # above 0 lies past every table)
    s = math.tanh(-0.5 * float(np.max(phi)))
    r_bound = -math.log(s) if s > 0.0 else math.inf
    extent = max(_table_extent(config, config.initial.radius_on(grid), 0.0),
                 _table_extent(config, r_bound, t))
    return state_from_gauge(grid, build_warp_profile(config.background, extent), phi, t=t)
