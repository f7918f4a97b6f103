"""Batch front door: run, sweep and check.

    icflow run   --config run.ini   --out results/      [--resume ck.json]
    icflow sweep --config sweep.ini --out results/ --jobs 4
    icflow check

A run writes series.csv (one row per snapshot, 17 significant digits),
report.json / report.txt, checkpoint.json, limit_profile.csv and
events.jsonl into the output directory (a failed run still writes
events.jsonl, ending with the error), and exits 0 only if every enabled
check passed (1 on a check failure, 2 on a runtime or configuration
error, an artifact that cannot be written among them). Identical configs produce byte-identical series files. A sweep
runs up to --jobs combinations at once, capped by the CPU count;
node-level arithmetic is vectorized and single-threaded per run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import diagnostics as dg
from . import flow
from .checks import run_all
from .config import RunConfig, parse_run_config
from .errors import ConfigError, IcflowError, InsufficientData


def _write_text(path: Path, text: str) -> None:
    """Write one artifact; an OSError is a ConfigError naming the file."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_series(path: Path, series: dg.DiagnosticsSeries) -> None:
    cols = dg.SERIES_COLUMNS
    lines = [",".join(cols)]
    for rec in series.records:
        cells = []
        for c in cols:
            val = getattr(rec, c)
            cells.append(str(int(val)) if isinstance(val, bool) else "%.17g" % val)
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def _write_profile(path: Path, profile: dg.LimitProfile) -> None:
    lines = ["theta,f_hat"]
    for th, fh in zip(profile.theta, profile.f_hat):
        lines.append("%.17g,%.17g" % (th, fh))
    _write_text(path, "\n".join(lines) + "\n")


def _write_events(path: Path, events) -> None:
    lines = [json.dumps({"kind": e.kind, "t": e.t, **e.payload}, sort_keys=True,
                        default=int)      # node indices are numpy integers
             for e in events]
    _write_text(path, "".join(line + "\n" for line in lines))


def _make_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def execute_run(cfg: RunConfig, out_dir, resume=None) -> dict:
    """Run one configured flow and write all artifacts. Returns the report."""
    out = _make_dir(out_dir)
    initial_state = None
    if resume is not None:
        initial_state = flow.load_checkpoint(resume, cfg.flow)
        if initial_state.t >= cfg.flow.t_end:
            raise ConfigError(f"checkpoint time t={initial_state.t} is not before "
                              f"[flow] t_end = {cfg.flow.t_end}; nothing to run")
    try:
        final, series, events = flow.run(cfg.flow, initial_state=initial_state)
    except Exception as exc:
        _write_events(out / "events.jsonl", exc.events)
        raise
    _write_events(out / "events.jsonl", events)
    try:
        prof = dg.limit_profile(series)
    except InsufficientData:
        prof = None
    report = dg.theorem_report(series, prof, cfg.report, config_echo=cfg.echo)

    _write_series(out / "series.csv", series)
    if prof is not None:
        _write_profile(out / "limit_profile.csv", prof)
    flow.save_checkpoint(final, out / "checkpoint.json")
    _write_text(out / "report.json", json.dumps(report, sort_keys=True, indent=1) + "\n")
    _write_text(out / "report.txt", "\n".join(dg.report_lines(report)) + "\n")
    return report


def cmd_run(args) -> int:
    cfg = parse_run_config(args.config)
    report = execute_run(cfg, args.out or cfg.output.directory, resume=args.resume)
    for line in dg.report_lines(report):
        print(line)
    return 0 if report["overall_pass"] else 1


def _combo_key(combo) -> str:
    parts = []
    for key, val in combo:
        parts.append(f"{key}{val}" if key != "f_kind" else str(val))
    return "_".join(parts).replace(" ", "")


def _apply_combo(cfg: RunConfig, combo) -> RunConfig:
    from . import curvature as cf

    flow_cfg = cfg.flow
    for key, val in combo:
        if key == "m":
            bkg = replace(flow_cfg.background, m=val)
            flow_cfg = replace(flow_cfg, background=bkg)
        elif key == "f_kind":
            flow_cfg = replace(flow_cfg, f=cf.from_name(val, flow_cfg.background.n))
        elif key == "amplitude":
            flow_cfg = replace(flow_cfg, initial=replace(flow_cfg.initial, amplitude=val))
    echo = dict(cfg.echo)
    echo["sweep_combo"] = {k: v for k, v in combo}
    return RunConfig(flow=flow_cfg, report=cfg.report, output=cfg.output,
                     echo=echo, sweep=None)


def _run_combo(payload):
    cfg, combo, out_dir = payload
    try:
        report = execute_run(_apply_combo(cfg, combo), out_dir)
        return combo, report, None
    except Exception as exc:   # noqa: BLE001 - worker boundary
        return combo, None, f"{type(exc).__name__}: {exc}"


def sweep_combos(cfg: RunConfig) -> list:
    """Cartesian product of the sweep value grids, in sorted key order."""
    keys = sorted(cfg.sweep)
    return [tuple(zip(keys, vals))
            for vals in itertools.product(*(cfg.sweep[k] for k in keys))]


def cmd_sweep(args) -> int:
    cfg = parse_run_config(args.config, allow_sweep=True)
    if not cfg.sweep:
        raise ConfigError("sweep config needs a [sweep] section")
    combos = sweep_combos(cfg)
    out = _make_dir(args.out or cfg.output.directory)
    jobs = max(1, min(args.jobs, os.cpu_count() or 1))

    payloads = [(cfg, combo, out / _combo_key(combo)) for combo in combos]
    results = []
    if jobs == 1:
        results = [_run_combo(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_combo, payloads))

    rows = ["combo,slope_kappa,slope_grad,slope_hess,overall_pass,error"]
    any_error = any_failed = False
    for combo, report, err in results:
        key = _combo_key(combo)
        if err is not None:
            any_error = True
            rows.append(f"{key},,,,0,{err}")
            print(f"FAIL {key}: {err}")
            continue
        slopes = {r["name"]: r["slope"] for r in report.get("rates", [])}
        ok = report["overall_pass"]
        any_failed |= not ok
        rows.append(",".join([
            key,
            *("" if slopes.get(q) is None else "%.17g" % slopes[q]
              for q in ("sup_kappa_dev", "sup_grad_phi_sq", "sup_hess_phi")),
            "1" if ok else "0",
            "",
        ]))
        print(f"{'PASS' if ok else 'FAIL'} {key}")
    _write_text(out / "aggregate.csv", "\n".join(rows) + "\n")
    # a combination that raised is a runtime error (2), like a failed run
    if any_error:
        return 2
    return 1 if any_failed else 0


def cmd_check(_args) -> int:
    return 0 if run_all() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icflow",
        description="expanding curvature flow in an asymptotically hyperbolic background",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured flow")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--resume", default=None, help="checkpoint file to resume from")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run the built-in oracle suite")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IcflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
