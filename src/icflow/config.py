"""Run configuration files.

INI-style sections with strict validation: unknown sections or keys are
rejected with the offending location in the message, so a typo in a
tolerance cannot silently change what a run certifies.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from . import curvature as cf
from .background import BackgroundParams
from .diagnostics import ReportConfig
from .errors import ConfigError
from .flow import FlowConfig, InitialData

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _to_bool(raw, where):
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}") from None


def _to_float(raw, where):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _to_int(raw, where):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


_SCHEMA = {
    "background": {"m", "n", "tol_root"},
    "grid": {"mode", "n_theta", "n_psi"},
    "initial": {"kind", "r0", "amplitude", "wavenumber", "table_path"},
    "flow": {"f_kind", "t_end", "cfl", "integrator", "output_every",
             "dt_max", "dt_min"},
    "report": {"window_start", "window_end", "tol_rate_kappa", "tol_rate_grad",
               "tol_rate_hess", "limit_gap_tol", "metric_residual_tol",
               "chi_ratio_max", "enable_rates", "enable_pinching",
               "enable_f_bounds", "enable_gradient_monotone",
               "enable_chi_ratio", "enable_limit_profile"},
    "output": {"directory", "formats"},
    "sweep": {"m", "f_kind", "amplitude"},
}

_REQUIRED_SECTIONS = ("background", "grid", "initial", "flow")


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv", "json")


@dataclass
class RunConfig:
    flow: FlowConfig
    report: ReportConfig
    output: OutputConfig
    echo: dict = field(default_factory=dict)
    sweep: dict | None = None


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    return parser


def _validate_keys(parser):
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key}")
    for section in _REQUIRED_SECTIONS:
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")


def parse_run_config(path, allow_sweep=False) -> RunConfig:
    parser = _read_ini(path)
    _validate_keys(parser)
    if "sweep" in parser and not allow_sweep:
        raise ConfigError("[sweep] section is only valid for the sweep command")

    b = parser["background"]
    background = BackgroundParams(
        m=_to_float(b.get("m", None) or _missing("background", "m"), "[background] m"),
        n=_to_int(b.get("n", "2"), "[background] n"),
        tol_root=_to_float(b.get("tol_root", "1e-13"), "[background] tol_root"),
    )

    g = parser["grid"]
    mode = g.get("mode", "axisymmetric1d").strip()
    if mode not in ("axisymmetric1d", "latlong2d"):
        raise ConfigError(f"[grid] mode: unknown mode {mode!r}")
    n_theta = _to_int(g.get("n_theta", None) or _missing("grid", "n_theta"), "[grid] n_theta")
    if mode == "latlong2d":
        n_psi = _to_int(g.get("n_psi", str(2 * n_theta)), "[grid] n_psi")
        resolution = (n_theta, n_psi)
    else:
        if "n_psi" in g:
            raise ConfigError("[grid] n_psi is only valid in latlong2d mode")
        resolution = n_theta

    i = parser["initial"]
    kind = i.get("kind", None) or _missing("initial", "kind")
    kind = kind.strip()
    if kind == "constant":
        initial = InitialData(
            kind=kind,
            r0=_to_float(i.get("r0", None) or _missing("initial", "r0"), "[initial] r0"),
        )
        _forbid(i, ("amplitude", "wavenumber", "table_path"), "constant")
    elif kind == "cosine_perturbation":
        initial = InitialData(
            kind=kind,
            r0=_to_float(i.get("r0", None) or _missing("initial", "r0"), "[initial] r0"),
            amplitude=_to_float(i.get("amplitude", None) or _missing("initial", "amplitude"),
                                "[initial] amplitude"),
            wavenumber=_to_int(i.get("wavenumber", "1"), "[initial] wavenumber"),
        )
        _forbid(i, ("table_path",), "cosine_perturbation")
    elif kind == "custom_table":
        _forbid(i, ("r0", "amplitude", "wavenumber"), "custom_table")
        table_path = i.get("table_path", None) or _missing("initial", "table_path")
        try:
            data = np.loadtxt(table_path, delimiter=",")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[initial] table_path: {exc}") from None
        if data.ndim != 2 or data.shape[1] != 2 or not np.all(np.isfinite(data)):
            raise ConfigError("[initial] table_path: expected two comma-separated "
                              "columns of finite numbers")
        initial = InitialData(kind=kind, table_theta=tuple(data[:, 0]),
                              table_r=tuple(data[:, 1]))
    else:
        raise ConfigError(f"[initial] kind: unknown kind {kind!r}")

    f = parser["flow"]
    f_kind = (f.get("f_kind", None) or _missing("flow", "f_kind")).strip()
    try:
        func = cf.from_name(f_kind, background.n)
    except ValueError as exc:
        raise ConfigError(f"[flow] f_kind: {exc}") from None
    flow_cfg = FlowConfig(
        background=background,
        grid_mode=mode,
        grid_resolution=resolution,
        initial=initial,
        f=func,
        t_end=_to_float(f.get("t_end", None) or _missing("flow", "t_end"), "[flow] t_end"),
        cfl=_to_float(f.get("cfl", "0.2"), "[flow] cfl"),
        dt_max=_to_float(f.get("dt_max", "1e-3"), "[flow] dt_max"),
        dt_min=_to_float(f.get("dt_min", "1e-12"), "[flow] dt_min"),
        integrator=f.get("integrator", "rk2").strip(),
        output_every=_to_float(f.get("output_every", "0.1"), "[flow] output_every"),
    )
    if flow_cfg.t_end <= 0:
        raise ConfigError("[flow] t_end must be positive")

    rep = parser["report"] if "report" in parser else {}
    window = None
    if "window_start" in rep or "window_end" in rep:
        if not ("window_start" in rep and "window_end" in rep):
            raise ConfigError("[report] window_start and window_end must be given together")
        window = (_to_float(rep["window_start"], "[report] window_start"),
                  _to_float(rep["window_end"], "[report] window_end"))
        if not (0 <= window[0] < window[1] <= flow_cfg.t_end + 1e-12):
            raise ConfigError("[report] rate window must satisfy 0 <= start < end <= t_end")
    report = ReportConfig(
        window=window,
        tol_rate_kappa=_to_float(rep.get("tol_rate_kappa", "0.15"), "[report] tol_rate_kappa"),
        tol_rate_grad=_to_float(rep.get("tol_rate_grad", "0.15"), "[report] tol_rate_grad"),
        tol_rate_hess=_to_float(rep.get("tol_rate_hess", "0.10"), "[report] tol_rate_hess"),
        limit_gap_tol=_to_float(rep.get("limit_gap_tol", "0.02"), "[report] limit_gap_tol"),
        metric_residual_tol=_to_float(rep.get("metric_residual_tol", "5e-3"),
                                      "[report] metric_residual_tol"),
        chi_ratio_max=_to_float(rep.get("chi_ratio_max", "10"), "[report] chi_ratio_max"),
        enable_rates=_to_bool(rep.get("enable_rates", "true"), "[report] enable_rates"),
        enable_pinching=_to_bool(rep.get("enable_pinching", "true"), "[report] enable_pinching"),
        enable_f_bounds=_to_bool(rep.get("enable_f_bounds", "true"), "[report] enable_f_bounds"),
        enable_gradient_monotone=_to_bool(rep.get("enable_gradient_monotone", "true"),
                                          "[report] enable_gradient_monotone"),
        enable_chi_ratio=_to_bool(rep.get("enable_chi_ratio", "true"),
                                  "[report] enable_chi_ratio"),
        enable_limit_profile=_to_bool(rep.get("enable_limit_profile", "true"),
                                      "[report] enable_limit_profile"),
    )

    out = parser["output"] if "output" in parser else {}
    formats = tuple((out.get("formats", "csv json") or "").split())
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"[output] formats: unknown format {fmt!r}")
    output = OutputConfig(directory=out.get("directory", "out"), formats=formats)

    echo = {s: dict(parser[s]) for s in parser.sections()}

    sweep = None
    if "sweep" in parser:
        sw = parser["sweep"]
        sweep = {}
        if "m" in sw:
            sweep["m"] = [_to_float(x, "[sweep] m") for x in sw["m"].split()]
        if "f_kind" in sw:
            kinds = sw["f_kind"].split()
            for kname in kinds:
                try:
                    cf.from_name(kname, background.n)
                except ValueError as exc:
                    raise ConfigError(f"[sweep] f_kind: {exc}") from None
            sweep["f_kind"] = kinds
        if "amplitude" in sw:
            sweep["amplitude"] = [_to_float(x, "[sweep] amplitude")
                                  for x in sw["amplitude"].split()]
        if not sweep or any(len(v) == 0 for v in sweep.values()):
            raise ConfigError("[sweep] needs at least one non-empty value grid")
        if "amplitude" in sweep and initial.kind != "cosine_perturbation":
            raise ConfigError("[sweep] amplitude requires cosine_perturbation initial data")

    return RunConfig(flow=flow_cfg, report=report, output=output, echo=echo, sweep=sweep)


def _missing(section, key):
    raise ConfigError(f"missing required key [{section}] {key}")


def _forbid(section_proxy, keys, kind):
    for key in keys:
        if key in section_proxy:
            raise ConfigError(f"[initial] {key} is not valid for kind {kind!r}")
