"""Per-snapshot scalar extraction, rate fitting and theorem-style checks.

Each snapshot condenses a flow state into the handful of scalars the
qualitative theory controls: the worst deviation of the principal
curvatures from 1, the gauge-gradient and gauge-Hessian sup norms, the
range of the curvature function, the drift-corrected radius r - t/n and
the rescaled support function (lambda/v) e^(-t/n), plus the two pinching
flags comparing lambda(r) e^(-t/n) against its initial range.

Pinching, the comparison barrier written in lambda, is the one check on
the radius; with the gradient check it also bounds chi = lambda / v, so
the r_tilde and chi_scaled columns are reported, not judged.

Exponential rates are estimated by least squares on (t, log y): a bound
of the form y <= C e^(-mu t) is accepted when the fitted slope is at most
-mu + tolerance with r^2 >= 0.95. Quantities that have already collapsed
to the floating-point floor pass trivially; windows with fewer than eight
usable snapshots report insufficient data instead of failure. A rate fit
returns its report.json entry as it stands, and the limit profile its
section of report.json: the limit of r - t/n is judged by the gap
between the last two snapshots, the drift envelope and, for constant
data, its constancy; pinching bounds r - t/n throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import curvature as cf
from .errors import ConfigError, is_finite_number
from .geometry import GraphState, curvatures
from .sphere import SphereGrid, hessian_mixed, tensor_sup_norm

FLOOR = 1e-13
_FLOOR_PASS = 1e-10

# the certificate's tolerances, fixed so that a pass means the same on
# every run: a fitted decay rate may fall short of its target by at most
# TOL_RATE_*; the limit gap must stay at or below LIMIT_GAP_TOL
TOL_RATE_KAPPA = 0.15
TOL_RATE_GRAD = 0.15
TOL_RATE_HESS = 0.10
LIMIT_GAP_TOL = 0.02

@dataclass
class DiagnosticsRecord:
    t: float
    sup_kappa_dev: float
    sup_grad_phi_sq: float
    sup_hess_phi: float
    F_min: float
    F_max: float
    r_tilde_min: float
    r_tilde_max: float
    chi_scaled_min: float
    chi_scaled_max: float
    pinch_low_ok: bool
    pinch_high_ok: bool
    neg_drift_scaled: float = 0.0   # sup (1/n - v/F)_+ e^(t/n); not serialized


# the columns of series.csv, in field order
SERIES_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord)
                       if f.name != "neg_drift_scaled")


def snapshot(state: GraphState, stage, pinch_ref: tuple) -> DiagnosticsRecord:
    """Condense one state, with stage = flow.evaluate(state, F), whose pass
    holds the gradient and the Hessian of phi, kappa's pencil
    (geometry.curvatures) and F, and pinch_ref =
    (lambda(inf r_0), lambda(sup r_0))."""
    n = state.profile.params.n
    t = state.t
    lam = state.lam
    v = np.sqrt(stage.v2)
    kappa = curvatures(lam, v, stage.lam_p, stage.b, stage.hess)
    f_vals = stage.f
    scaled = lam * math.exp(-t / n)
    chi_scaled = lam / v * math.exp(-t / n)
    eps = 1e-6 * pinch_ref[1]
    drift = (1.0 / n - v / f_vals) * math.exp(t / n)
    return DiagnosticsRecord(
        t=t,
        sup_kappa_dev=float(np.max(np.abs(kappa - 1.0))),
        sup_grad_phi_sq=float(np.max(stage.grad_sq)),
        sup_hess_phi=tensor_sup_norm(*hessian_mixed(state.grid, stage.grad[0], stage.hess)),
        F_min=float(np.min(f_vals)),
        F_max=float(np.max(f_vals)),
        r_tilde_min=float(np.min(state.r.values)) - t / n,
        r_tilde_max=float(np.max(state.r.values)) - t / n,
        chi_scaled_min=float(np.min(chi_scaled)),
        chi_scaled_max=float(np.max(chi_scaled)),
        pinch_low_ok=bool(np.min(scaled) >= pinch_ref[0] - eps),
        pinch_high_ok=bool(np.max(scaled) <= pinch_ref[1] + eps),
        neg_drift_scaled=float(max(0.0, np.max(drift))),
    )


@dataclass
class DiagnosticsSeries:
    """Snapshot records plus, per snapshot, the radius array the limit
    profile reads; and, from the start state, what the report measures
    them against."""

    n: int                         # the sphere dimension of the background
    grid: SphereGrid
    pinch_ref: tuple               # (lambda(inf r), lambda(sup r)) e^(-t0/n)
    f_umb0: float                  # sup F of the umbilic spheres from lambda_min on
    f_umb_min: float               # inf F of the umbilic spheres from lambda_min on
    initial_constant: bool         # the start radius is constant
    records: list = field(default_factory=list)
    radii: list = field(default_factory=list)

    @staticmethod
    def start(state: GraphState, F: cf.CurvatureFunction) -> "DiagnosticsSeries":
        prof = state.profile
        n = prof.params.n
        r, lam = state.r.values, state.lam
        # reference for the pinching flags is the scaled warp value at the
        # series start, so resumed runs check monotonicity from their own t0
        scale0 = math.exp(-state.t / n)
        # the umbilic spheres' F = n lambda'/lambda rises to its peak at
        # lambda*^(n-1) = m (n+1)/2 and then falls toward n
        lam_min = float(np.min(lam))
        lam_umb = max(lam_min, (0.5 * prof.params.m * (n + 1)) ** (1.0 / (n - 1)))
        return DiagnosticsSeries(
            n=n, grid=state.grid,
            pinch_ref=(lam_min * scale0, float(np.max(lam)) * scale0),
            f_umb0=n * float(prof.lambda_p_of_lambda(lam_umb)) / lam_umb,
            f_umb_min=n * min(float(prof.lambda_p_of_lambda(lam_min)) / lam_min, 1.0),
            initial_constant=bool(np.max(r) - np.min(r) < 1e-12),
        )

    def append(self, state: GraphState, stage) -> None:
        """Record snapshot(state, stage) and keep, of the state, only r."""
        self.records.append(snapshot(state, stage, self.pinch_ref))
        self.radii.append(state.r.values)

    @property
    def times(self):
        return np.array([r.t for r in self.records])

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])


def fit_rate(series: DiagnosticsSeries, quantity: str, window: tuple,
             target: float, tolerance: float) -> tuple:
    """Least squares on (t, log y) over snapshots in the window.

    Returns (entry, reason). entry is the rate entry of report.json:
    name, slope, target, tolerance, r_squared, pass and status, which is
    "fit", "floor" or "insufficient". Values below the floating-point
    floor are excluded; a window whose values have all collapsed to the
    floor passes trivially. With fewer than eight usable snapshots the
    status is "insufficient", slope, r_squared and pass are None, and
    reason says what was missing; otherwise reason is None.
    """
    entry = {"name": quantity, "slope": None, "target": target,
             "tolerance": tolerance, "r_squared": None, "pass": None,
             "status": "insufficient"}
    t = series.times
    y = series.column(quantity)
    in_win = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)
    if int(np.sum(in_win)) < 8:
        return entry, f"only {int(np.sum(in_win))} snapshots in window {window} for {quantity}"
    tw, yw = t[in_win], y[in_win]
    usable = yw > FLOOR
    if int(np.sum(usable)) < 8:
        if float(np.max(yw)) <= _FLOOR_PASS:
            entry.update({"pass": True, "status": "floor"})
            return entry, None
        return entry, f"only {int(np.sum(usable))} positive values in window for {quantity}"
    tf, yf = tw[usable], np.log(yw[usable])
    slope, intercept = np.polyfit(tf, yf, 1)
    fitted = slope * tf + intercept
    ss_res = float(np.sum((yf - fitted) ** 2))
    ss_tot = float(np.sum((yf - np.mean(yf)) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    entry.update({"slope": float(slope), "r_squared": float(r2), "status": "fit",
                  "pass": bool(slope <= -target + tolerance and r2 >= 0.95)})
    return entry, None


def final_r_tilde(series: DiagnosticsSeries):
    """f_hat = r - t/n at the last snapshot, the limit profile's radius;
    an (n_theta, n_psi) array on a lat-long grid."""
    return series.radii[-1] - series.records[-1].t / series.n


_TOO_SHORT = "limit profile requires at least two retained states"


def limit_profile(series: DiagnosticsSeries) -> tuple:
    """The limit section of report.json for a completed run, as
    (entries, notes).

    entries holds limit_gap = sup |f_hat - r_tilde(penultimate)| and
    drift_constant, then the verdicts in report order: limit_gap_pass,
    drift_envelope_pass and, for constant initial data,
    umbilic_profile_constant_pass. A series of fewer than two snapshots
    gives only limit_gap = None, and notes holds a note saying so; else
    notes is empty.

    The drift envelope is calibrated on the first half of the run: with
    C = sup of the observed negative drift rate scaled by e^(t/n), every
    late pair of snapshots must satisfy
        min (r_tilde(b) - r_tilde(a)) >= -C n (e^(-a/n) - e^(-b/n)).
    """
    if len(series.radii) < 2:
        return {"limit_gap": None}, [f"limit_profile: {_TOO_SHORT}"]
    n = series.n
    recs = series.records
    f_hat = final_r_tilde(series)
    r_tilde = [r - rec.t / n for r, rec in zip(series.radii[:-1], recs)] + [f_hat]
    gap = float(np.max(np.abs(f_hat - r_tilde[-2])))

    t0 = recs[0].t
    t_half = t0 + 0.5 * (recs[-1].t - t0)
    first = [r for r in recs if r.t <= t_half]
    c_drift = 1.1 * max((r.neg_drift_scaled for r in first), default=0.0) + 1e-12
    drift_ok = True
    prev = None
    for k, rec in enumerate(recs):
        if rec.t < t_half:
            continue
        if prev is not None:
            ta, tb = recs[prev].t, rec.t
            drop = float(np.min(r_tilde[k] - r_tilde[prev]))
            envelope = -c_drift * n * (math.exp(-ta / n) - math.exp(-tb / n)) - 1e-12
            if drop < envelope:
                drift_ok = False
        prev = k

    entries = {"limit_gap": gap, "drift_constant": c_drift,
               "limit_gap_pass": bool(gap <= LIMIT_GAP_TOL),
               "drift_envelope_pass": drift_ok}
    # the profile is asserted constant only for umbilic initial data
    if series.initial_constant:
        entries["umbilic_profile_constant_pass"] = bool(
            np.max(f_hat) - np.min(f_hat) <= 1e-8)
    return entries, []


@dataclass
class ReportConfig:
    window: Optional[tuple] = None         # default [0.4, 0.9] t_end

    def __post_init__(self):
        w = self.window
        if w is not None and not (isinstance(w, (tuple, list)) and len(w) == 2
                                  and all(map(is_finite_number, w)) and 0 <= w[0] < w[1]):
            raise ConfigError(f"rate window must be a pair of finite numbers with "
                              f"0 <= start < end, got {w!r}")


def theorem_report(series: DiagnosticsSeries, report_cfg: ReportConfig,
                   config_echo: Optional[dict] = None) -> dict:
    """Aggregate pass/fail summary of a completed run.

    Every run is judged on every check. One with too little data to judge
    is noted as insufficient, saying why, and does not fail the run: a
    short rate window, or a series of fewer than two snapshots for the
    limit profile. Pinching carries the radius barrier, and with the
    gradient check the bound on chi; the limit profile of r - t/n is
    judged by the limit gap, the drift envelope and, for constant data,
    its constancy.
    """
    n = series.n
    t_end = series.records[-1].t
    window = report_cfg.window or (0.4 * t_end, 0.9 * t_end)

    report = {
        "config_echo": config_echo or {},
        "rates": [],
        "overall_pass": True,
        "insufficient": [],
    }

    def add_result(key, value):
        report[key] = value
        if value is False:
            report["overall_pass"] = False

    targets = [
        ("sup_kappa_dev", 2.0 / n, TOL_RATE_KAPPA),
        ("sup_grad_phi_sq", 2.0 / n, TOL_RATE_GRAD),
        ("sup_hess_phi", 1.0 / n, TOL_RATE_HESS),
    ]
    for name, target, tol in targets:
        entry, reason = fit_rate(series, name, window, target, tol)
        report["rates"].append(entry)
        if reason is not None:
            report["insufficient"].append(f"rate:{name}: {reason}")
        elif not entry["pass"]:
            report["overall_pass"] = False

    add_result("pinching_pass", bool(
        all(r.pinch_low_ok for r in series.records)
        and all(r.pinch_high_ok for r in series.records)
    ))

    fmax0 = series.records[0].F_max
    bound = 1.1 * max(fmax0, series.f_umb0)
    # F_min(0) > 0 by the cone test and lambda' > 0 outside the horizon,
    # so the floor is positive and meeting it shows F > 0
    floor = 0.5 * min(series.records[0].F_min, series.f_umb_min)
    fmin = series.column("F_min")
    fmax = series.column("F_max")
    add_result("f_bounds_pass", bool(np.max(fmax) <= bound and np.min(fmin) >= floor))

    # absolute floor covers the rounding-level gradients of constant data
    grads = series.column("sup_grad_phi_sq")
    add_result("gradient_monotone_pass",
               bool(np.all(grads <= grads[0] * (1.0 + 1e-6) + 1e-20)))

    entries, notes = limit_profile(series)
    for key, value in entries.items():
        add_result(key, value)
    report["insufficient"] += notes
    return report


def report_lines(report: dict) -> list:
    """Human-readable one-line-per-check rendering: the rate fits, then
    each check of the report in the order theorem_report made them."""
    lines = []
    for r in report.get("rates", []):
        if r["status"] == "insufficient":
            lines.append(f"RATE  {r['name']}: insufficient data")
        elif r["status"] == "floor":
            lines.append(f"RATE  {r['name']}: at floor (pass)")
        else:
            lines.append(
                f"RATE  {r['name']}: slope={r['slope']:+.4f} "
                f"target<=-{r['target']:.3f}+{r['tolerance']:.3f} "
                f"r2={r['r_squared']:.4f} {'PASS' if r['pass'] else 'FAIL'}"
            )
    for key, value in report.items():
        if key.endswith("_pass") and key != "overall_pass":
            lines.append(f"CHECK {key}: {'PASS' if value else 'FAIL'}")
    for note in report.get("insufficient", []):
        lines.append(f"NOTE  {note}")
    lines.append(f"OVERALL: {'PASS' if report['overall_pass'] else 'FAIL'}")
    return lines
