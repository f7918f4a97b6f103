"""Run configuration files.

INI-style sections with strict validation: unknown sections or keys are
rejected with the offending location in the message, so a typo cannot
silently change what a run does. No key sets a tolerance of the
certificate: those are constants of the diagnostics module.
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


def _to_str(raw, where):
    return raw


def _to_floats(raw, where):
    return [_to_float(x, where) for x in raw.split()]


def _to_words(raw, where):
    return raw.split()


# every key a section accepts, with its converter; a key the file leaves
# out takes the default of the field it fills
_SCHEMA = {
    "background": {"m": _to_float, "n": _to_int},
    "grid": {"mode": _to_str, "n_theta": _to_int, "n_psi": _to_int},
    "initial": {"kind": _to_str, "r0": _to_float, "amplitude": _to_float,
                "wavenumber": _to_int, "table_path": _to_str},
    "flow": {"f_kind": _to_str, "t_end": _to_float, "cfl": _to_float,
             "output_every": _to_float, "dt_max": _to_float},
    "report": {"window_start": _to_float, "window_end": _to_float,
               "enable_rates": _to_bool, "enable_limit_profile": _to_bool},
    "output": {"directory": _to_str},
    "sweep": {"m": _to_floats, "f_kind": _to_words, "amplitude": _to_floats},
}

_REQUIRED_SECTIONS = ("background", "grid", "initial", "flow")

# initial data kind: (required keys, optional keys)
_INITIAL_KEYS = {
    "constant": (("r0",), ()),
    "cosine_perturbation": (("r0", "amplitude"), ("wavenumber",)),
    "custom_table": (("table_path",), ()),
}


@dataclass
class OutputConfig:
    directory: str = "out"


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


def _options(parser, section) -> dict:
    """The keys [section] sets, converted; every error names its key."""
    if section not in parser:
        return {}
    schema = _SCHEMA[section]
    return {key: schema[key](raw, f"[{section}] {key}")
            for key, raw in parser[section].items()}


def _require(options, section, *keys):
    for key in keys:
        if key not in options:
            raise ConfigError(f"missing required key [{section}] {key}")


def _load_table(path):
    try:
        data = np.loadtxt(path, delimiter=",")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[initial] table_path: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2 or not np.all(np.isfinite(data)):
        raise ConfigError("[initial] table_path: expected two comma-separated "
                          "columns of finite numbers")
    return {"table_theta": tuple(data[:, 0]), "table_r": tuple(data[:, 1])}


def parse_run_config(path, allow_sweep=False) -> RunConfig:
    parser = _read_ini(path)
    _validate_keys(parser)
    if "sweep" in parser and not allow_sweep:
        raise ConfigError("[sweep] section is only valid for the sweep command")
    opts = {section: _options(parser, section) for section in _SCHEMA}

    _require(opts["background"], "background", "m")
    background = BackgroundParams(**opts["background"])

    grid = opts["grid"]
    _require(grid, "grid", "n_theta")
    mode = grid.get("mode", "axisymmetric1d")
    if mode not in ("axisymmetric1d", "latlong2d"):
        raise ConfigError(f"[grid] mode: unknown mode {mode!r}")
    if mode == "latlong2d":
        resolution = (grid["n_theta"], grid.get("n_psi", 2 * grid["n_theta"]))
    elif "n_psi" in grid:
        raise ConfigError("[grid] n_psi is only valid in latlong2d mode")
    else:
        resolution = grid["n_theta"]

    initial = opts["initial"]
    _require(initial, "initial", "kind")
    kind = initial.pop("kind")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"[initial] kind: unknown kind {kind!r}")
    required, optional = _INITIAL_KEYS[kind]
    for key in initial:
        if key not in required + optional:
            raise ConfigError(f"[initial] {key} is not valid for kind {kind!r}")
    _require(initial, "initial", *required)
    if kind == "custom_table":
        initial.update(_load_table(initial.pop("table_path")))
    initial = InitialData(kind=kind, **initial)

    flow = opts["flow"]
    _require(flow, "flow", "f_kind", "t_end")
    try:
        func = cf.from_name(flow.pop("f_kind"), background.n)
    except ValueError as exc:
        raise ConfigError(f"[flow] f_kind: {exc}") from None
    flow_cfg = FlowConfig(background=background, grid_mode=mode, grid_resolution=resolution,
                          initial=initial, f=func, **flow)
    if flow_cfg.t_end <= 0:
        raise ConfigError("[flow] t_end must be positive")

    rep = opts["report"]
    if "window_start" in rep or "window_end" in rep:
        if not ("window_start" in rep and "window_end" in rep):
            raise ConfigError("[report] window_start and window_end must be given together")
        rep["window"] = (rep.pop("window_start"), rep.pop("window_end"))
        if not (0 <= rep["window"][0] < rep["window"][1] <= flow_cfg.t_end + 1e-12):
            raise ConfigError("[report] rate window must satisfy 0 <= start < end <= t_end")
    report = ReportConfig(**rep)

    output = OutputConfig(**opts["output"])

    echo = {s: dict(parser[s]) for s in parser.sections()}

    sweep = None
    if "sweep" in parser:
        sweep = opts["sweep"]
        for kname in sweep.get("f_kind", ()):
            try:
                cf.from_name(kname, background.n)
            except ValueError as exc:
                raise ConfigError(f"[sweep] f_kind: {exc}") from None
        if not sweep or any(len(v) == 0 for v in sweep.values()):
            raise ConfigError("[sweep] needs at least one non-empty value grid")
        if "amplitude" in sweep and initial.kind != "cosine_perturbation":
            raise ConfigError("[sweep] amplitude requires cosine_perturbation initial data")

    return RunConfig(flow=flow_cfg, report=report, output=output, echo=echo, sweep=sweep)
