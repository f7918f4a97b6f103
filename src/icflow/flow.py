"""Explicit time integration of the expanding curvature flow.

The scalar form evolved here is

    d phi / dt = v / F(lambda h^i_j) = v^2 / (lambda v F(h^i_j)),

and by the 1-homogeneity of F, lambda v F is F of the scaled shape
operator lambda v h^i_j, whose invariants S_1 and S_2 the stage reads
(geometry.scaled_invariants): F is a function of the sigma_j, so each
rk2 stage is one array pass from its gauge to its speed, with no
eigensolve: lambda by gauge, the scaled invariants, the cone test on
them, lambda v F and the speed (1 + |D phi|^2) / (lambda v F). That pass,
`_stage`, builds every StageData: the midpoint's, of which the step
reads the speed and builds no state, and an accepted state's
(`evaluate`), kept once per state, the end state's inside the step's
retry loop, so an end state outside the cone is retried like a
midpoint. The principal curvatures are solved
only where they are read, from the pencil (phi_ij, b_ij) of the same
pass: at the snapshots and at the node a cone exit names
(geometry.curvatures), and, for an F other than the mean, in the
stability bound, as lambda v kappa, on a step where it may come under
dt_max. For the mean, whose cone test and F read S_1 alone, the pass
forms no S_2.
The gauge phi = -integral_r^infinity ds/lambda is anchored at infinity,
so it resolves radius at any r. A stage reads only lambda of its gauge
(WarpProfile.lambda_from_gauge); a state's radius field is looked up
through the gauge inverse only where it is read, at the snapshots. A run
and its resume read the one warp profile of their mass, which needs no
extent (build_warp_profile).

Stepping is explicit (the midpoint rule, rk2) under a parabolic
stability bound: the linearized diffusion coefficient is
F'_max gtilde_max v / (lambda F)^2, so dt ~ CFL d_theta^2 (lambda F)^2 and
grows geometrically as the surface expands; total work to reach a fixed
time is small and no nonlinear solves are needed. dt_max soon sets every
step, which stable_dt shows from a bound on F' by S_1 and S_2 alone,
before it solves the pencil; `run`'s `completed` event counts the steps
whose dt the stability bound set (`stability_steps`). On lat-long grids the
pole rows' azimuthal spacing sin(theta_j) d_psi is far below d_theta;
the polar filter (sphere.polar_filter) removes from the midpoint and the
new gauge the azimuthal modes that d_theta does not resolve, so the same
d_theta bound holds in both grid modes. An admissibility guard
re-tries a failed step with halved dt up to eight times before giving up,
so transient excursions toward the cone boundary are handled without
interpreting them.

Flows that share a grid step as one stack (`run_group`), whatever their
masses and F: their gauges along a leading member axis, ordered by mass,
every node through the operations of a run of its own, so each member
equals its own run bit for bit; `run` is the one-member case. A stack's
stage data is one `_stage` of its stacked gauges, whether a stacked step
lands on them or the stack forms from its members' accepted states: one
lookup of lambda and lambda' per mass block of rows, one pass, and one
cone test and lambda v F per F, on that F's rows.

Rejected input is a ConfigError: InitialData refuses an unknown kind, a
non-finite r0 or amplitude and a malformed table, FlowConfig refuses a
t_end that is not positive and finite, an output_every at or below the
landing tolerance LAND_TOL and an f normalised for another n than the
background's, run refuses a start state at or past t_end or within
LAND_TOL of it, which it records as its `failed` event, and run_group
configs that do not share one grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
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
    is_finite_number,
    is_integer,
)
from .geometry import (
    GraphState,
    compute_extrinsic,  # noqa: F401 - not called here; perfbench's tracer test reads it
    curvatures,
    lambda_of_gauge,
    scaled_curvatures,
    scaled_invariants,
    state_from_gauge,
    state_from_radius,
)
from .sphere import ScalarField, build_grid, polar_filter

CHECKPOINT_FORMAT_VERSION = 2
DT_MIN = 1e-12   # a stability bound below this is a StepUnderflow
CFL = 0.2        # the stability bound's fraction of the parabolic limit
LAND_TOL = 1e-12 # a step within this of a snapshot time lands on it
# stable_dt's bound on dF from S_1 and S_2 covers the pencil's dF to within
# this factor. Rounding puts the pencil's lambda v kappa_0 below 0 only next
# to the sigma_2 cone's edge, by a few 1e-16 (lambda' / S_1)^2 S_1 (6.6e-12 S_1
# seen there, past a margin of 1e-12); this one covers it down to -1e-6 S_1
_DF_MARGIN = 1.0 + 1e-6


@dataclass(frozen=True)
class InitialData:
    kind: str                      # constant | cosine_perturbation | custom_table
    r0: float = 0.0
    amplitude: float = 0.0
    wavenumber: int = 1
    table_theta: Optional[tuple] = None
    table_r: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("constant", "cosine_perturbation", "custom_table"):
            raise ConfigError(f"unknown initial data kind {self.kind!r}")
        if not (is_finite_number(self.r0) and is_finite_number(self.amplitude)):
            raise ConfigError(f"initial r0 and amplitude must be finite numbers, "
                              f"got {self.r0!r} and {self.amplitude!r}")
        # cos(k theta) is even about theta = pi, as the pole closure needs,
        # only for an integer k
        if not is_integer(self.wavenumber):
            raise ConfigError(f"initial wavenumber must be an integer, got {self.wavenumber!r}")
        if self.kind == "custom_table":
            try:
                theta = np.asarray(self.table_theta, dtype=float)
                r = np.asarray(self.table_r, dtype=float)
            except (TypeError, ValueError) as exc:     # text, or ragged rows
                raise ConfigError(f"custom_table: table_theta and table_r must be "
                                  f"numbers: {exc}") from None
            if not (theta.ndim == r.ndim == 1 and theta.size == r.size >= 2
                    and np.isfinite(theta).all() and np.isfinite(r).all()):
                raise ConfigError("custom_table needs table_theta and table_r: two "
                                  "columns of equal length, at least two finite values each")
            if not (np.diff(theta) > 0).all():     # np.interp needs increasing theta
                raise ConfigError("custom_table: theta must be strictly increasing")
            # a table in degrees covers the grid too, and would read as
            # nearly round
            if theta[-1] > 2.0 * math.pi:
                raise ConfigError(f"custom_table: theta is in radians, got theta up to "
                                  f"{theta[-1]:.6g}, past 2 pi")

    def radius_on(self, grid) -> np.ndarray:
        if self.kind == "constant":
            base = np.full(grid.n_theta, self.r0)
        elif self.kind == "cosine_perturbation":
            base = self.r0 + self.amplitude * np.cos(self.wavenumber * grid.theta)
        else:
            theta = self.table_theta
            # np.interp would hold the end values past the table's range
            if not (theta[0] <= grid.theta[0] and theta[-1] >= grid.theta[-1]):
                raise ConfigError(
                    f"custom_table: theta must cover the grid's nodes "
                    f"[{grid.theta[0]:.6g}, {grid.theta[-1]:.6g}] (radians), "
                    f"got [{theta[0]:.6g}, {theta[-1]:.6g}]")
            base = np.interp(grid.theta, theta, self.table_r)
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
    dt_max: float = 1e-3
    output_every: float = 0.1

    def __post_init__(self):
        for name, kind in (("background", BackgroundParams), ("initial", InitialData),
                           ("f", cf.CurvatureFunction)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        if not (is_finite_number(self.dt_max) and DT_MIN < self.dt_max):
            raise ConfigError(f"dt_max must be finite and exceed DT_MIN = {DT_MIN:g}, "
                              f"got {self.dt_max!r}")
        if not (is_finite_number(self.t_end) and self.t_end > 0.0):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end!r}")
        if not (is_finite_number(self.output_every) and self.output_every > 0):
            raise ConfigError(f"output_every must be positive and finite, "
                              f"got {self.output_every!r}")
        # snapshot times closer than the landing tolerance would be one
        if not self.output_every > LAND_TOL:
            raise ConfigError(f"output_every must exceed LAND_TOL = {LAND_TOL:g}, "
                              f"got {self.output_every!r}")
        if self.background.n != 2:
            raise ConfigError("time integration is implemented for n = 2 grids")
        if self.f.n != self.background.n:
            raise ConfigError(f"curvature function is normalised for n = {self.f.n}, "
                              f"the background has n = {self.background.n}")


@dataclass
class FlowEvent:
    kind: str                      # snapshot | admissibility_violation | completed | failed
    t: float
    payload: dict = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class StageData:
    """The stage data of a gauge array, as `_stage` makes it, the one
    place a record is built (a stacked one's rows aside, `_stage_row`):
    its pass (geometry.scaled_invariants) and what the stage made of it.
    e holds (1, S_1, S_2), or (1, S_1) for the mean alone (a stack with
    another F forms S_2 on every row), on which the cone was tested;
    lvf is lambda v F, F of the scaled shape operator; speed is
    d phi / dt = v^2 / (lambda v F). The rk2 midpoint reads speed
    alone; the stability bound reads speed, v^2 and, for an F other than
    the mean, e, lvf and, where it may come under dt_max, the triples b
    and hess; the snapshot reads the gradient, the Hessian, kappa of b
    and hess, and F (`f`). lam is the gauge's lambda. The arrays of a
    stack carry a leading member axis."""

    lam: np.ndarray
    grad: tuple                    # covariant D_i phi, (theta, psi)
    grad_sq: np.ndarray            # |D phi|^2
    v2: np.ndarray                 # v^2 = 1 + |D phi|^2
    e: np.ndarray                  # sigma_j of lambda v kappa, j = 0..cone order
    lam_p: np.ndarray
    b: tuple                       # phi_i phi_j + sigma_ij, (b00, b01, b11)
    hess: tuple                    # round Hessian phi_ij, (p00, p01, p11)
    lvf: np.ndarray                # lambda v F
    speed: np.ndarray              # v^2 / (lambda v F)

    @property
    def f(self) -> np.ndarray:
        """F at the nodes: lambda v F over lambda v."""
        return self.lvf / (self.lam * np.sqrt(self.v2))


# A stage's rows, as `_stage` reads them: (masses, fs, order). masses holds
# (profile, slice) pairs, each mass a contiguous block of rows, since a
# stack is ordered by mass (_rows_of); fs holds (F, rows) pairs, rows an
# index array; order is the highest cone order among the F. Rows of None
# are every row: one flow has one pair of each, and neither slices nor
# gathers. A plain tuple, since one is built for every step of a flow.


def _one(profile, F) -> tuple:
    """The rows of one flow."""
    return ((profile, None),), ((F, None),), F.cone_order


def _take(a, rows, nd):
    """The rows `rows` of a along its member axis, or a itself for a grid
    constant (at most nd axes, the grid's), which every row shares."""
    return a if a.ndim <= nd else a[rows]


def _warp(masses, grid, phi, lam):
    """lambda at the stacked gauges phi, looked up for lam None, and
    lambda', each once per mass block of masses, on its rows."""
    lookup, lam_p = lam is None, np.empty(phi.shape)
    if lookup:
        lam = np.empty(phi.shape)
    for profile, rows in masses:
        if lookup:
            lam[rows] = lambda_of_gauge(grid, profile, phi[rows])
        lam_p[rows] = profile.lambda_p_of_lambda(lam[rows])
    return lam, lam_p


def _stage(rows, t, grid, phi, lam=None) -> StageData:
    """The StageData of the gauge array phi at time t, its rows split as
    rows says: lambda, looked up for lam None, and lambda', each once per
    mass block; its scaled_invariants, to the highest cone order among
    the F; each F's cone test and lambda v F on its rows; and the speed
    v^2 / (lambda v F). phi may carry a leading member axis (a stack),
    and the record then does too. Raises InadmissibleState when the
    invariants leave the cone, carrying the node of least margin among
    that F's rows and its kappa, read off the same pass
    (geometry.curvatures); FlowError when the speed is not finite. At
    n = 2 the cone test implies lambda v F >= 0 for every F: the mean is
    S_1, the sigma_2 root is 2 sqrt(S_2) and the quotient 4 S_2 / S_1,
    each of positive numbers, 0 only where the quotient underflows. So
    the speed is a number only if it is at least 0, and finite only if
    its maximum is."""
    masses, fs, order = rows
    if len(masses) == 1:
        profile = masses[0][0]
        if lam is None:
            lam = lambda_of_gauge(grid, profile, phi)
        lam_p = profile.lambda_p_of_lambda(lam)
    else:
        lam, lam_p = _warp(masses, grid, phi, lam)
    grad, q, v2, e, b, hess = scaled_invariants(grid, phi, lam_p, order)

    def kappa_at(node):
        return curvatures(lam, np.sqrt(v2), lam_p, b, hess)[node]

    if len(fs) == 1:
        F = fs[0][0]
        lvf = cf._value(F, cf.require_cone(F, e, kappa_at, t))
    else:
        lvf = np.empty(v2.shape)
        for F, idx in fs:
            def kappa_of(node, idx=idx):    # node among F's rows
                return kappa_at((idx[node[0]],) + node[1:])

            lvf[idx] = cf._value(F, cf.require_cone(F, e[idx], kappa_of, t))
    speed = v2 / lvf
    if not math.isfinite(speed.max()):
        raise FlowError(f"non-finite speed at t={t}")
    return StageData(lam, grad, q, v2, e, lam_p, b, hess, lvf, speed)


def evaluate(state: GraphState, F: cf.CurvatureFunction) -> StageData:
    """The stage data of state, with its cone test, lambda v F and speed."""
    return _stage(_one(state.profile, F), state.t, state.grid, state.phi.values, state.lam)


def stable_dt(state: GraphState, F: cf.CurvatureFunction, stage: StageData,
              dt_max: float = math.inf) -> float:
    """Parabolic stability bound CFL d_theta^2 / max(diffusion scale), with
    stage = evaluate(state, F), or dt_max where that is less. The scale is
    v / (lambda F)^2 = speed^2 / v times the largest dF/dkappa_i: 1 for
    the mean, else dF of the smaller kappa, read at lambda v kappa
    (scaled_curvatures), since dF is 0-homogeneous. That pencil is solved
    only where the bound may come under dt_max: first the scale is bounded
    from S_1 and S_2 alone (_DF_MARGIN), and where that bound's step
    reaches dt_max, dt_max is returned, the same double the pencil's
    bound gives. On lat-long grids the polar filter keeps only the
    azimuthal modes that d_theta resolves. A largest scale of 0 (an F
    that overflowed) or NaN raises FlowError, and a bound below DT_MIN
    StepUnderflow."""
    return _stable_dts(state.grid, ((F, None),), stage, (dt_max,), state.t)[0]


def _member_max(a, k):
    """The maxima of a over the nodes of each of its k members: a carries
    a leading member axis, or none for one member."""
    return (a.max(),) if k == 1 else a.reshape(k, -1).max(axis=1)


def _stable_dts(grid, fs, stage, dt_max, t):
    """stable_dt of each member of stage, whose arrays carry a leading axis
    of len(dt_max) members (or none for one member), under that member's
    dt_max, with fs the (F, rows) pairs of its rows (_one), from the same
    operations on every node; t names the time in a refusal."""
    k = len(dt_max)
    # largest eigenvalue of gtilde relative to sigma is exactly 1
    scale = stage.speed * stage.speed / np.sqrt(stage.v2)
    h = grid.d_theta
    limit = CFL * h * h
    maxima = None                  # each member's largest scale, found once
    pencil, dts = {}, [None] * k   # pencil: the largest scale times dF, where read
    for F, rows in fs:
        if F.kind != "sigma2root" and maxima is None:
            maxima = _member_max(scale, k)
        if F.kind == "mean":
            continue               # dF = 1: the bound reads the largest scale
        members = range(k) if rows is None else rows
        # dF of the smaller kappa_0 is lambda v kappa_1 / sqrt(S_2) for the
        # sigma_2 root and 4 (lambda v kappa_1 / S_1)^2 for the quotient,
        # and on Gamma_2 lambda v kappa_1 = S_1 - lambda v kappa_0 <= S_1:
        # so at most S_1 / sqrt(S_2), formed by _gradient's operations
        # with S_1 in place of S_1 - lambda v kappa_0, and 4. A zero or
        # NaN bound goes on to the pencil, whose scale is refused too
        if F.kind == "sigma2root":
            e, lvf, sc = stage.e, stage.lvf, scale
            if rows is not None:
                e, lvf, sc = e[rows], lvf[rows], sc[rows]
            bounds = [float(top) for top in
                      _member_max(sc * (lvf / (2.0 * e[..., 2]) * e[..., 1]), len(members))]
        else:
            bounds = [4.0 * float(maxima[i]) for i in members]
        pending = []
        for i, top in zip(members, bounds):
            top *= _DF_MARGIN
            if top > 0.0 and limit / top >= dt_max[i]:
                dts[i] = dt_max[i]
            else:
                pending.append(i)
        if not pending:
            continue
        # the pencil, on the rows of the members the bound left open: at
        # n = 2 every dF/dkappa_i is S_1 - lambda v kappa_i times a positive
        # factor, and rounding keeps that monotone, so the column of the
        # smaller (first, ascending) kappa is the largest, bit for bit
        lam_p, b, hess, e, sc = stage.lam_p, stage.b, stage.hess, stage.e, scale
        if len(pending) < len(members) or rows is not None:
            sub, nd = np.array(pending), grid.zeros.ndim
            lam_p, e, sc = lam_p[sub], e[sub], sc[sub]
            b, hess = (tuple(_take(a, sub, nd) for a in pair) for pair in (b, hess))
        grad = cf._gradient(F, scaled_curvatures(lam_p, b, hess)[..., :1], e)[..., 0]
        pencil.update(zip(pending, _member_max(sc * grad, len(pending))))
    for i, dt in enumerate(dts):
        if dt is not None:
            continue
        top = float(pencil[i] if i in pencil else maxima[i])
        if not top > 0.0:
            raise FlowError(f"no stability bound at t={t}: largest diffusion scale {top}")
        dt = limit / top
        if dt < DT_MIN:
            raise StepUnderflow(f"stability requires dt={dt:.3e} below DT_MIN={DT_MIN:.3e}")
        dts[i] = min(dt, dt_max[i])
    return dts


def _rk2_gauge(grid, rows, phi, speed, dt, t_mid):
    """The gauge an rk2 step of size dt takes phi to, with speed its
    stage's speed and rows its rows (_one); t_mid names the midpoint's
    time in a refusal. phi may carry a leading member axis, and dt then
    holds each member's step along it."""
    phi_mid = polar_filter(grid, phi + 0.5 * dt * speed)
    mid = _stage(rows, t_mid, grid, phi_mid)
    return polar_filter(grid, phi + dt * mid.speed)


def _advance(state, F, dt, stage):
    """One rk2 step of size dt from state, with stage = evaluate(state, F):
    the new state and its stage data."""
    grid, profile, rows = state.grid, state.profile, _one(state.profile, F)
    phi_new = _rk2_gauge(grid, rows, state.phi.values, stage.speed, dt, state.t + 0.5 * dt)
    new = state_from_gauge(grid, profile, phi_new, t=state.t + dt)
    return new, _stage(rows, new.t, grid, phi_new, new.lam)


def _offender(exc: InadmissibleState) -> dict:
    """The worst node and its kappa, as an event payload."""
    return {"node": exc.node,
            "kappa": None if exc.kappa is None else list(np.atleast_1d(exc.kappa))}


def step(state: GraphState, F: cf.CurvatureFunction, dt: float, stage: StageData,
         events: Optional[list] = None) -> tuple[GraphState, StageData]:
    """One midpoint (rk2) step from state, with stage = evaluate(state, F).
    Returns the new state and its stage data, evaluate(new, F). When the
    midpoint or the new state leaves the cone (InadmissibleState), the
    step is retried with halved dt, up to eight times, logging an
    `admissibility_violation` event for each failed try."""
    last = None
    for _ in range(9):
        try:
            return _advance(state, F, dt, stage)
        except InadmissibleState as exc:
            last = exc
            if events is not None:
                events.append(FlowEvent("admissibility_violation", state.t,
                                        {"dt": dt, **_offender(exc)}))
            dt *= 0.5
    raise last


def _snapshot_times(t0, t_end, every):
    """Yield the targets k * every that lie more than LAND_TOL inside
    (t0, t_end), then t_end, one at a time, so a long run holds no
    schedule."""
    k = math.floor(t0 / every + 1e-9) + 1
    while k * every < t_end - LAND_TOL:
        if k * every > t0 + LAND_TOL:
            yield k * every
        k += 1
    yield t_end


def run(config: FlowConfig, initial_state: Optional[GraphState] = None, *, _group=None):
    """Integrate to t_end, returning (final state, diagnostics series, events).

    Deterministic for a given config: fixed node order, no randomized
    reductions. Snapshots are taken at t = 0 (or the resume time), at each
    k * output_every, and at t_end. The step that ends an interval is cut,
    or stretched by under LAND_TOL, to land on its snapshot time exactly.
    A snapshot reads its state's stage data, kappa from its pencil, and
    F. A start state at or past t_end or within LAND_TOL of it, with
    nothing to run, or one that is not a GraphState on the config's grid
    and background, is a ConfigError. An exception raised on the way
    carries the events so far, ending with a `failed` event, as
    exc.events; an InadmissibleState's `failed` event also names the
    worst node and its kappa.

    _group serves only the benchmark (perfbench), whose untraced mode
    wraps run alone: run_group passes its members here, the first of them
    config's, so that the wrapper sees each stack inside one run call and
    returns the first member's outcome.
    """
    members = [_Member(config, initial_state)] if _group is None else _group
    _integrate(members)
    outcome = members[0].outcome
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _integrate(members):
    """Step every member to its end; the outcome of each is left in its
    `outcome`. The stack is the live members, ordered by mass, and each
    pass takes one stacked step. Where that step raised, each member takes
    the step alone, and a member whose step retried finishes alone there.
    A stack of one finishes alone."""
    for member in members:
        member.start()
    live = sorted((m for m in members if m.outcome is None), key=lambda m: m.profile.params.m)
    stack = None
    while len(live) > 1:
        stack = _step_stack(live, stack)
        if stack is None:
            for member in live:
                if member.step_alone():
                    member.finish_alone()
        if [m for m in live if m.land()]:   # every member lands
            live = [m for m in live if m.outcome is None]
            stack = None
    for member in live:
        member.finish_alone()


def run_group(configs) -> list:
    """Run each config as `run` does, stepping the flows that are still
    running as one stack: their gauges along a leading member axis, each
    member with its own t, dt, stability bound, snapshot times, counts,
    events and series, and its own warp profile and F. The configs must
    share the grid (a ConfigError otherwise); a config that is not a
    FlowConfig fails as its member, with the ConfigError that `run`
    raises.

    The stack is ordered by mass, so that each mass is a block of rows:
    a stacked stage looks lambda and lambda' up once per mass, and tests
    the cone and evaluates lambda v F once per F, on that F's rows. A
    stacked step runs every node through the same operations as a run
    of its own, so each member's outputs equal its own run's bit for bit.
    A member that has landed on t_end, or failed, leaves the stack; no
    member takes a step of dt = 0. When the stacked step or stability
    bound raises, that step is taken member by member with stable_dt and
    step, with their retries and events, and a member that raises there
    fails alone. A member whose step retried there finishes alone, since
    its next steps would likely retry as well, and each would cost the
    stack a step that raises. A lone member always steps alone.

    Returns, per config in order, (final state, series, events), or the
    exception its run raised, carrying its events as run's does."""
    def grid(c):
        return c.grid_mode, c.grid_resolution

    # a config that is not a FlowConfig fails alone, when its member starts
    flows = [c for c in configs if isinstance(c, FlowConfig)]
    if any(grid(c) != grid(flows[0]) for c in flows[1:]):
        raise ConfigError("the flows of one group must share the grid")
    members = [_Member(c, None) for c in configs]
    if members:
        try:
            run(configs[0], _group=members)
        except Exception as exc:
            if exc is not members[0].outcome:
                raise
    return [m.outcome for m in members]


_STAGE_FIELDS = tuple(f.name for f in fields(StageData))


def _stage_row(stage: StageData, i: int, nd: int) -> StageData:
    """Member i's StageData of a stacked one: row i of every array with a
    member axis (_take)."""
    return StageData(*(tuple(_take(a, i, nd) for a in value) if isinstance(value, tuple)
                       else _take(value, i, nd)
                       for value in (getattr(stage, name) for name in _STAGE_FIELDS)))


def _rows_of(members) -> tuple:
    """The rows of a stack of members ordered by mass: a block for each
    run of equal profile params (build_warp_profile's cache may rebuild an
    equal profile, so not by identity), and the rows of each F."""
    starts = [i for i, m in enumerate(members)
              if i == 0 or m.profile.params != members[i - 1].profile.params]
    masses = tuple((members[a].profile, slice(a, b))
                   for a, b in zip(starts, starts[1:] + [len(members)]))
    by_f = {}
    for i, member in enumerate(members):
        by_f.setdefault(member.config.f, []).append(i)
    return (masses, tuple((F, None if len(rows) == len(members) else np.array(rows))
                          for F, rows in by_f.items()),
            max(F.cone_order for F in by_f))


def _stack_of(members, grid):
    """The members' accepted gauges, stacked along a leading axis, their
    stage data, from one evaluation of the stack: the same operations,
    node by node, as each member's own, and its rows."""
    states = [m.accepted()[0] for m in members]
    phi, rows = np.stack([state.phi.values for state in states]), _rows_of(members)
    return phi, _stage(rows, None, grid, phi, np.stack([state.lam for state in states])), rows


def _step_stack(members, stack):
    """One rk2 step of every member as one stack, from stack = (gauges,
    stage data, rows) or, for None, the members' stacked accepted states.
    Returns the new stack, after committing each member's step, or None,
    with no member touched, when the stability bound or the step raised
    (on a cone exit no member retries here)."""
    grid = members[0].grid
    try:
        phi, stage, rows = _stack_of(members, grid) if stack is None else stack
        bounds = _stable_dts(grid, rows[1], stage, [m.config.dt_max for m in members], None)
        cuts = [m.cut(dt) for m, dt in zip(members, bounds)]
        dt = np.array([c[0] for c in cuts]).reshape((-1,) + (1,) * (phi.ndim - 1))
        phi = _rk2_gauge(grid, rows, phi, stage.speed, dt, None)
        stage = _stage(rows, None, grid, phi)
    except Exception:   # noqa: BLE001 - each member steps alone instead
        return None
    for i, (member, (step_dt, bound_set)) in enumerate(zip(members, cuts)):
        member.t, member.row = member.t + step_dt, (phi, stage, i)
        member.steps += 1
        member.stability_steps += bound_set
    return phi, stage, rows


class _Member:
    """One flow of run_group: its config, events, series and counts, and
    its accepted state and stage data, its own or, after a stacked step,
    a row of the stack (`row`), made into a state only where it is read."""

    def __init__(self, config: FlowConfig, initial: Optional[GraphState]):
        self.config, self.initial = config, initial
        self.events: list[FlowEvent] = []
        self.series = None
        self.t = None                  # the accepted state's time
        self.state = self.stage = self.row = None
        self.grid = self.profile = None
        self.steps = self.stability_steps = 0
        self.targets = self.target = None
        self.outcome = None            # (final, series, events), or the exception

    def start(self):
        """The start state (`initial`, or else the config's initial data),
        its series, its stage data and its snapshot. A config that is not a
        FlowConfig, or an `initial` that is not a GraphState on the
        config's grid and background, is a ConfigError."""
        cfg, state = self.config, self.initial
        try:
            if not isinstance(cfg, FlowConfig):
                raise ConfigError(f"config must be a FlowConfig, got {type(cfg).__name__}")
            grid = build_grid(cfg.grid_mode, cfg.grid_resolution)
            if state is None:
                r0 = cfg.initial.radius_on(grid)
                state = state_from_radius(grid, build_warp_profile(cfg.background), r0, t=0.0)
            elif not isinstance(state, GraphState):
                raise ConfigError(f"start state must be a GraphState, "
                                  f"got {type(state).__name__}")
            elif state.grid != grid:
                raise ConfigError(f"start state grid {state.grid.mode} {state.grid.field_shape} "
                                  f"does not match the configuration's {grid.mode} "
                                  f"{grid.field_shape}")
            elif state.profile.params != cfg.background:
                raise ConfigError(f"start state background {state.profile.params} does not "
                                  f"match the configuration's {cfg.background}")
            self.state, self.t = state, state.t
            self.grid, self.profile = state.grid, state.profile
            # a start within LAND_TOL of t_end would land on it with no step
            if state.t >= cfg.t_end - LAND_TOL:
                raise ConfigError(f"start time t={state.t} is not before t_end = {cfg.t_end} "
                                  f"by more than LAND_TOL = {LAND_TOL:g}; nothing to run")
            self.series = dg.DiagnosticsSeries.start(state, cfg.f)
            # one stage evaluation per state: each step returns its new
            # state's, which the snapshot, the stability bound and the next
            # step share
            self.stage = evaluate(state, cfg.f)
            self._snapshot()
            self.targets = _snapshot_times(state.t, cfg.t_end, cfg.output_every)
            self.target = next(self.targets)
            self.land()
        except Exception as exc:
            self._fail(exc)

    def accepted(self):
        """The accepted state and its stage data."""
        if self.row is not None:
            phi, stage, i = self.row
            self.row = None
            grid = self.grid
            self.state = GraphState(t=self.t, grid=grid, phi=ScalarField.unchecked(grid, phi[i]),
                                    lam=stage.lam[i], profile=self.profile)
            self.stage = _stage_row(stage, i, len(grid.field_shape))
        return self.state, self.stage

    def cut(self, dt):
        """dt, cut (or stretched by under LAND_TOL) to end on the next
        snapshot time where it reaches it, and whether the stability bound
        set it."""
        if self.t + dt >= self.target - LAND_TOL:
            return self.target - self.t, False
        return dt, dt < self.config.dt_max

    def step_alone(self) -> bool:
        """One step with stable_dt and step, their retries and events;
        whether it logged one: a retry, or the member's failure."""
        logged = len(self.events)
        try:
            state, stage = self.accepted()
            F = self.config.f
            dt, bound_set = self.cut(stable_dt(state, F, stage, dt_max=self.config.dt_max))
            self.stability_steps += bound_set
            self.state, self.stage = step(state, F, dt, stage, events=self.events)
            self.t = self.state.t
            self.steps += 1
        except Exception as exc:
            self._fail(exc)
        return len(self.events) > logged

    def finish_alone(self):
        """Step alone until the member ends."""
        while not self.land():
            self.step_alone()

    def land(self) -> bool:
        """The snapshots of every snapshot time the member has reached, and
        its `completed` event after the last. True once the member has
        ended, completed or failed."""
        try:
            while self.outcome is None and self.t >= self.target - LAND_TOL:
                self._snapshot()
                self.target = next(self.targets, None)
                if self.target is None:
                    self.events.append(FlowEvent("completed", self.t, {
                        "steps": self.steps, "stability_steps": self.stability_steps}))
                    self.outcome = (self.accepted()[0], self.series, self.events)
        except Exception as exc:
            self._fail(exc)
        return self.outcome is not None

    def _snapshot(self):
        state, stage = self.accepted()
        self.series.append(state, stage)
        self.events.append(FlowEvent("snapshot", state.t,
                                     {"index": len(self.series.records) - 1}))

    def _fail(self, exc):
        """End with a `failed` event at the last accepted state's time."""
        payload = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, InadmissibleState):
            payload.update(_offender(exc))
        self.events.append(FlowEvent("failed", 0.0 if self.t is None else self.t, payload))
        exc.events = self.events
        self.outcome = exc


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
    # the uninterrupted run's own profile: it depends on the mass alone
    return state_from_gauge(grid, build_warp_profile(config.background), phi, t=t)
