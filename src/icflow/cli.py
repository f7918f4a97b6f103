"""Batch front door: run, sweep and check.

    icflow run   --config run.ini   --out results/      [--resume ck.json]
    icflow sweep --config sweep.ini --out results/ --jobs 4
    icflow check

A run writes series.csv (one row per snapshot, 17 significant digits),
report.json / report.txt, checkpoint.json, limit_profile.csv and
events.jsonl into the output directory, --out (default `out`). A failed
run still writes events.jsonl, ending with the error; a resume from a
checkpoint at or past t_end is one. Every run is judged on every check;
one the run is too short to judge is noted as insufficient in the report
and fails nothing. The run exits 0 only if no check failed (1 on a check
failure, 2 on a runtime or configuration error, an artifact that cannot
be written among them).
Identical configs produce byte-identical series files. A sweep steps
the combinations of one m and f_kind as one stack (flow.run_group), each
writing the files its own run would, and runs up to --jobs stacks at
once, capped by the CPUs the process may run on and by the number of
combinations; fewer groups than that are split into more stacks, so
that every worker has one. sweep_stats.json holds each stack's members,
their step counts and its wall seconds, the sweep's one
non-deterministic file. A worker that dies abruptly is a runtime error
(2): the combinations that finished are kept, and aggregate.csv names
each one it lost, every member of its unfinished stacks. Node-level arithmetic is vectorized
and single-threaded per stack.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import diagnostics as dg
from . import flow
from .config import RunConfig, parse_run_config
from .errors import ConfigError, FlowError, IcflowError


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


def _write_profile(path: Path, series: dg.DiagnosticsSeries) -> None:
    """theta and the final r - t/n, along psi_0 on a lat-long grid."""
    f_hat = dg.final_r_tilde(series)
    if series.grid.mode == "latlong2d":
        f_hat = f_hat[:, 0]
    lines = ["theta,f_hat"]
    for th, fh in zip(series.grid.theta, f_hat):
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
    initial_state = None if resume is None else flow.load_checkpoint(resume, cfg.flow)
    try:
        outcome = flow.run(cfg.flow, initial_state=initial_state)
    except Exception as exc:
        outcome = exc
    return _write_run(cfg, out, outcome)


def _write_run(cfg: RunConfig, out: Path, outcome) -> dict:
    """Write a run's artifacts into out and return its report. outcome is
    what flow.run returned, or the exception it raised: its events.jsonl
    is written, and the exception raised again."""
    if isinstance(outcome, Exception):
        _write_events(out / "events.jsonl", outcome.events)
        raise outcome
    final, series, events = outcome
    _write_events(out / "events.jsonl", events)
    report = dg.theorem_report(series, cfg.report, config_echo=cfg.echo)

    _write_series(out / "series.csv", series)
    _write_profile(out / "limit_profile.csv", series)
    flow.save_checkpoint(final, out / "checkpoint.json")
    _write_text(out / "report.json", json.dumps(report, sort_keys=True, indent=1) + "\n")
    _write_text(out / "report.txt", "\n".join(dg.report_lines(report)) + "\n")
    return report


def cmd_run(args) -> int:
    cfg = parse_run_config(args.config)
    report = execute_run(cfg, args.out, resume=args.resume)
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
    return RunConfig(flow=flow_cfg, report=cfg.report, echo=echo, sweep=None)


def _run_stack(payload):
    """Run one stack of sweep combinations, those that share m and f_kind,
    as one flow.run_group, and write each one's artifacts as execute_run
    does. Returns each combination's (combo, report, error) and the
    stack's entry of sweep_stats.json."""
    cfg, combos, out = payload
    started = time.perf_counter()
    results = [(combo, None, None) for combo in combos]
    runs = []
    for i, combo in enumerate(combos):
        try:
            runs.append((i, _apply_combo(cfg, combo), _make_dir(out / _combo_key(combo))))
        except Exception as exc:   # noqa: BLE001 - worker boundary
            results[i] = (combo, None, f"{type(exc).__name__}: {exc}")
    try:
        outcomes = flow.run_group([run_cfg.flow for _, run_cfg, _ in runs])
    except Exception as exc:   # noqa: BLE001 - worker boundary
        for i, _, _ in runs:
            results[i] = (combos[i], None, f"{type(exc).__name__}: {exc}")
        runs = outcomes = []
    steps = [None] * len(combos)
    for (i, run_cfg, run_out), outcome in zip(runs, outcomes):
        if not isinstance(outcome, Exception):
            steps[i] = outcome[2][-1].payload["steps"]
        try:
            results[i] = (combos[i], _write_run(run_cfg, run_out, outcome), None)
        except Exception as exc:   # noqa: BLE001 - worker boundary
            results[i] = (combos[i], None, f"{type(exc).__name__}: {exc}")
    stats = {"members": [_combo_key(c) for c in combos], "steps": steps,
             "wall_s": time.perf_counter() - started}
    return results, stats


def sweep_combos(cfg: RunConfig) -> list:
    """Cartesian product of the sweep value grids, in sorted key order."""
    keys = sorted(cfg.sweep)
    return [tuple(zip(keys, vals))
            for vals in itertools.product(*(cfg.sweep[k] for k in keys))]


def _stacks(combos, jobs) -> list:
    """The combinations grouped by their m and f_kind, which share a warp
    profile and F and so step as one stack, in order of first appearance.
    Where that makes fewer stacks than jobs, which would leave workers
    idle, the groups with the most members per stack are dealt out
    round-robin into more stacks, up to jobs stacks or one combination
    each."""
    groups = {}
    for combo in combos:
        values = dict(combo)
        groups.setdefault((values.get("m"), values.get("f_kind")), []).append(combo)
    groups = list(groups.values())
    parts = [1] * len(groups)
    while sum(parts) < jobs:
        i = max(range(len(groups)), key=lambda g: len(groups[g]) / parts[g])
        if parts[i] == len(groups[i]):
            break
        parts[i] += 1
    return [group[j::n] for group, n in zip(groups, parts) for j in range(n)]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args) -> int:
    cfg = parse_run_config(args.config, allow_sweep=True)
    if not cfg.sweep:
        raise ConfigError("sweep config needs a [sweep] section")
    combos = sweep_combos(cfg)
    out = _make_dir(args.out)
    jobs = max(1, min(args.jobs, _usable_cpus(), len(combos)))
    stacks = _stacks(combos, jobs)

    payloads = [(cfg, stack, out) for stack in stacks]
    broken = None
    if jobs == 1:
        finished = [_run_stack(p) for p in payloads]
    else:
        # imported here, so that run and check never load the process pool
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        finished = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_stack, p) for p in payloads]
            # a worker that dies abruptly (killed, a crash, os._exit) takes
            # every member of its unfinished stacks with it; the finished
            # are kept
            for stack, future in zip(stacks, futures):
                try:
                    finished.append(future.result())
                except BrokenProcessPool as exc:
                    broken = exc
                    lost = f"{type(exc).__name__}: {exc}"
                    finished.append(([(combo, None, lost) for combo in stack],
                                     {"members": [_combo_key(c) for c in stack],
                                      "steps": [None] * len(stack), "wall_s": None}))
    done = {combo: (report, err) for results, _ in finished for combo, report, err in results}

    rows = [["combo", "slope_kappa", "slope_grad", "slope_hess", "overall_pass", "error"]]
    any_error = any_failed = False
    for combo in combos:
        report, err = done[combo]
        key = _combo_key(combo)
        if err is not None:
            any_error = True
            rows.append([key, "", "", "", "0", err])
            print(f"FAIL {key}: {err}")
            continue
        slopes = {r["name"]: r["slope"] for r in report.get("rates", [])}
        ok = report["overall_pass"]
        any_failed |= not ok
        rows.append([
            key,
            *("" if slopes.get(q) is None else "%.17g" % slopes[q]
              for q in ("sup_kappa_dev", "sup_grad_phi_sq", "sup_hess_phi")),
            "1" if ok else "0",
            "",
        ])
        print(f"{'PASS' if ok else 'FAIL'} {key}")
    # an error message may hold commas, which the writer quotes
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _write_text(out / "aggregate.csv", text.getvalue())
    # the one file with timings, so that every other file stays deterministic
    _write_text(out / "sweep_stats.json",
                json.dumps({"jobs": jobs, "stacks": [stats for _, stats in finished]},
                           indent=1) + "\n")
    if broken is not None:
        raise FlowError(f"a sweep worker died abruptly: {broken}")
    # a combination that raised is a runtime error (2), like a failed run
    if any_error:
        return 2
    return 1 if any_failed else 0


def cmd_check(_args) -> int:
    from .checks import run_all

    return 0 if run_all() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icflow",
        description="expanding curvature flow in an asymptotically hyperbolic background",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured flow")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--resume", default=None, help="checkpoint file to resume from")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run the built-in oracle suite")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IcflowError, MemoryError) as exc:   # a grid too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
