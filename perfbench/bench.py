"""Measurement and correctness gates of the icflow benchmark.

Each workload is an INI file under `workloads/`; a seed jitters r0 and
the amplitudes by at most `JITTER` (seed 0 leaves them as written), and
the program receives only the generated file.

Untraced mode repeats the workload until the next repetition would end
after `seconds`, at least once, then times the set-up a few times, each
in a fresh interpreter. Traced mode runs the workload once untraced and
once traced, and reports per-layer numbers from the spans of the traced
run. Every repetition's outputs are checked, and repetitions
of one process must write byte-identical series.csv files.
"""

from __future__ import annotations

import configparser
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
import tracing
from setup_probe import combo_flow_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_out"

WORKLOADS = ("a3_reference", "latlong_2d", "sweep_small")
SWEEP_JOBS = 2
# a sweep's set-up covers 18 runs and takes several seconds, so it is
# repeated fewer times
SETUP_REPEATS = {"a3_reference": 5, "latlong_2d": 5, "sweep_small": 3}
# seeds move r0 and the amplitudes by at most this; step counts move by ~1 %
JITTER = 0.002
# lat-long gate: the initial data is axisymmetric, so the final radius must
# not vary along psi, and must match a 1D run on the same theta rows up to
# the time-step difference (the 1D run may take larger steps)
PSI_TOL = 1e-10
REF_TOL = 1e-6
LAYERS = ("background", "sphere", "curvature", "geometry", "flow",
          "diagnostics", "config", "cli")
STENCILS = ("sphere.grad_components", "sphere.grad_norm_sq",
            "sphere.covariant_hess", "sphere.hessian_mixed")


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_icflow():
    """Import icflow from this checkout's sources, never from elsewhere."""
    init = SRC / "icflow" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"icflow sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import icflow
    import icflow.cli
    import icflow.config

    if Path(icflow.__file__).resolve() != init.resolve():
        raise BenchError(f"icflow was imported from {icflow.__file__}, not from {SRC}")
    return icflow


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def make_ini(template: str, seed: int) -> str:
    """The workload config for a seed: r0 and every amplitude moved by a
    uniform offset in [-JITTER, JITTER]; seed 0 moves nothing."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(template)
    if seed != 0:
        rng = random.Random(seed)
        jitter = lambda text: repr(float(text) + rng.uniform(-JITTER, JITTER))  # noqa: E731
        initial = parser["initial"]
        initial["r0"] = jitter(initial["r0"])
        initial["amplitude"] = jitter(initial["amplitude"])
        if parser.has_option("sweep", "amplitude"):
            parser["sweep"]["amplitude"] = " ".join(
                jitter(a) for a in parser["sweep"]["amplitude"].split())
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@dataclass
class Iteration:
    """One repetition of a workload and what it left behind."""

    out: Path
    runs: list = field(default_factory=list)       # run ids of the timed call
    all_runs: list = field(default_factory=list)   # plus config parse and reload
    started: float = 0.0
    wall: float = 0.0                              # seconds, calibration excluded
    speed: list = field(default_factory=list)      # calibration kernel samples
    report: dict | None = None
    code: int | None = None
    state: object = None                           # checkpoint loaded back
    error: str | None = None


def run_iteration(ic, workload, ini: Path, cfg, out: Path, tracer, label,
                  probe) -> Iteration:
    """One repetition; `probe` is the span-recording calibration kernel,
    which also runs just before and after the timed call."""
    it = Iteration(out=out)

    def begin(suffix):
        tracer.run_id = tracer.new_run(label + suffix)
        it.all_runs.append(tracer.run_id)
        return tracer.run_id

    try:
        if workload == "sweep_small":
            it.runs.append(begin(""))
            probe()
            with redirect_stdout(io.StringIO()):
                it.started = perf_counter()
                it.code = ic.cli.main(["sweep", "--config", str(ini), "--out", str(out),
                                       "--jobs", str(SWEEP_JOBS)])
                it.wall = perf_counter() - it.started
            probe()
            workers = tracer.collect_spool(label)
            it.runs += workers
            it.all_runs += workers
            ck_dir = sorted(p.parent for p in out.glob("*/checkpoint.json"))[-1]
            echo = json.loads((ck_dir / "report.json").read_text())["config_echo"]
            flow_cfg = combo_flow_config(cfg.flow, tuple(echo["sweep_combo"].items()),
                                         ic.curvature)
        else:
            begin("/config")
            run_cfg = ic.config.parse_run_config(str(ini))
            it.runs.append(begin(""))
            probe()
            it.started = perf_counter()
            it.report = ic.cli.execute_run(run_cfg, out)
            it.wall = perf_counter() - it.started
            probe()
            ck_dir, flow_cfg = out, run_cfg.flow
        begin("/load")
        it.state = ic.flow.load_checkpoint(ck_dir / "checkpoint.json", flow_cfg)
    except Exception:  # noqa: BLE001 - a failed repetition is counted, not fatal
        it.error = traceback.format_exc()
    return it


def _workers(tracer, runs) -> int:
    """How many forked sweep workers recorded spans under `runs`, at least 1."""
    pids = {tracer.run_labels[r].split("-")[1] for r in runs
            if "/spans-" in tracer.run_labels[r]}
    return max(len(pids), 1)


def _extras(tracer, name, runs) -> list:
    return [tracer.extra[i] for i in tracer.find(name, runs) if i in tracer.extra]


def account_calibration(it: Iteration, tracer) -> None:
    """Collect the iteration's kernel samples and take the kernel time spent
    inside the timed call out of its wall time; a sweep's workers ran their
    kernels in parallel, so their share is divided among them."""
    idx = tracer.find("calibration.kernel", it.runs)
    arr = tracer.arrays()
    start, end = arr["start"][idx], arr["end"][idx]
    it.speed = list(end - start)
    inside = (start >= it.started) & (end <= it.started + it.wall)
    it.wall -= float((end - start)[inside].sum()) / _workers(tracer, it.runs)


def calibrated_wall(it: Iteration) -> float:
    return calibration.rescale(it.wall, it.speed)


# -- correctness gates ---------------------------------------------------------


def _a3_problems(it, tracer):
    rep = it.report
    rates = rep.get("rates", [])
    problems = []
    if not rep["overall_pass"]:
        problems.append("overall_pass is false")
    if len(rates) != 3 or not all(r["pass"] is True for r in rates):
        problems.append("rate fits: " + ", ".join(f"{r['name']}={r['pass']}" for r in rates))
    retries = sum(e["retries"] for e in _extras(tracer, "flow.run", it.runs))
    if retries:
        problems.append(f"{retries} admissibility-violation events")
    return problems


def _latlong_problems(it, reference, messages):
    rep = it.report
    problems = [f"{key} is not true" for key in
                ("pinching_pass", "f_bounds_pass", "gradient_monotone_pass")
                if rep.get(key) is not True]
    r = it.state.r.values
    spread = float(np.max(r.max(axis=1) - r.min(axis=1)))
    gap = float(np.max(np.abs(r - reference[:, None])))
    messages.append(f"final r: spread along psi {spread:.3e} (<= {PSI_TOL:.0e}), "
                    f"gap to the 1D run {gap:.3e} (<= {REF_TOL:.0e})")
    if spread > PSI_TOL:
        problems.append("final r varies along psi")
    if gap > REF_TOL:
        problems.append("final r differs from the 1D run")
    return problems


def _series_files(it, sweep):
    if sweep:
        return {p.parent.name: p for p in it.out.glob("*/series.csv")}
    return {"": it.out / "series.csv"}


def check(ic, workload, its, cfg, tracer):
    """Gate every repetition. Returns (attempted, failed, messages); a sweep
    counts each combination, a run counts itself."""
    sweep = workload == "sweep_small"
    units = len(ic.cli.sweep_combos(cfg)) if sweep else 1
    reference = None
    if workload == "latlong_2d":
        one_d = replace(cfg.flow, grid_mode="axisymmetric1d",
                        grid_resolution=cfg.flow.grid_resolution[0])
        reference = ic.flow.run(one_d)[0].r.values
    ok_its = [it for it in its if it.error is None]
    first = _series_files(ok_its[0], sweep) if ok_its else {}
    attempted = failed = 0
    messages = []
    for k, it in enumerate(its):
        attempted += units
        if it.error is not None:
            failed += units
            messages.append(f"repetition {k} raised:\n{it.error}")
            continue
        missing = 0
        if sweep:
            rows = [row.split(",", 5) for row in
                    (it.out / "aggregate.csv").read_text().splitlines()[1:]]
            bad = {cells[0] for cells in rows
                   if len(cells) < 6 or cells[4] != "1" or cells[5]}
            missing = max(units - len(rows), 0)
            if it.code != 0 or missing:
                messages.append(f"repetition {k}: sweep exit {it.code}, {missing} rows missing")
        else:
            gate = (_a3_problems(it, tracer) if workload == "a3_reference"
                    else _latlong_problems(it, reference, messages))
            bad = {""} if gate else set()
            if gate:
                messages.append(f"repetition {k}: " + "; ".join(gate))
        for key, path in _series_files(it, sweep).items():
            if key not in bad and (key not in first
                                   or path.read_bytes() != first[key].read_bytes()):
                bad.add(key)
                messages.append(f"repetition {k}: series.csv {key} differs from the first")
        if sweep and bad:
            messages.append(f"repetition {k}: failing combinations {sorted(bad)}")
        failed += len(bad) + missing
    return attempted, failed, messages


# -- measurement -----------------------------------------------------------------

def setup_samples(ini: Path, sweep: bool, repeats: int) -> list:
    """(set-up seconds, calibrated set-up seconds), each pair measured in a
    fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(ini),
           "sweep" if sweep else "run"]
    samples = []
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, kernel = (float(x) for x in done.stdout.split()[-2:])
        samples.append((seconds, calibration.rescale(seconds, [kernel])))
    return samples


def tail(samples) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} of n={n}"
    if n >= 11:
        ordered = sorted(samples)
        text += f", p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
    else:
        text += " (a tail percentile needs n >= 11)"
    return text


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(tracer, untraced: Iteration, traced: Iteration, dt_max: float) -> dict:
    """Per-layer numbers from the spans of the traced repetition."""
    arr = tracer.arrays()
    dur = arr["end"] - arr["start"]
    own = tracing.self_times(arr["parent"], dur)
    timed = np.isin(arr["run"], traced.runs)
    whole = np.isin(arr["run"], traced.all_runs)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(*names, mask=timed):
        return np.isin(arr["name"], [ids.get(n, -1) for n in names]) & mask

    def calls(*names, mask=timed):
        return int(np.count_nonzero(sel(*names, mask=mask)))

    def secs(*names, mask=timed):
        return float(dur[sel(*names, mask=mask)].sum())

    def nested_kernel_s(runs):
        # calibration kernels that ran inside icflow calls, at its snapshots
        inside = sel("calibration.kernel", mask=np.isin(arr["run"], runs)) & (arr["parent"] >= 0)
        return float(dur[inside].sum())

    steps = calls("flow.step")
    per_step = 1.0 / max(steps, 1)
    dts = np.array(_extras(tracer, "flow.step", traced.runs) or [0.0])
    untraced_runs = _extras(tracer, "flow.run", untraced.runs)
    untraced_steps = sum(e["steps"] for e in untraced_runs)
    untraced_run_s = secs("flow.run", mask=np.isin(arr["run"], untraced.runs)) \
        - nested_kernel_s(untraced.runs)
    jobs = _workers(tracer, traced.runs)
    m = {
        "background.build_warp_profile.calls": calls("background.build_warp_profile"),
        "background.build_warp_profile.s": secs("background.build_warp_profile"),
        "background.table_nodes":
            sum(_extras(tracer, "background.build_warp_profile", traced.runs)),
        "background.lambda_of_r.calls": calls("background.lambda_of_r"),
        "background.lambda_of_r.s": secs("background.lambda_of_r"),
        "background.radius_from_gauge.calls": calls("background.radius_from_gauge"),
        "background.radius_from_gauge.s": secs("background.radius_from_gauge"),
        "sphere.stencil.calls": calls(*STENCILS),
        "sphere.stencil.s": secs(*STENCILS),
        "curvature.elementary_symmetric.calls": calls("curvature.elementary_symmetric"),
        "curvature.elementary_symmetric.per_step":
            calls("curvature.elementary_symmetric") * per_step,
        "curvature.f_eval.calls": calls("curvature.f_eval"),
        "curvature.f_eval.s": secs("curvature.f_eval"),
        "curvature.f_grad.calls": calls("curvature.f_grad"),
        "curvature.f_grad.s": secs("curvature.f_grad"),
        "curvature.cone_contains.calls": calls("curvature.cone_contains"),
        "geometry.compute_extrinsic.calls": calls("geometry.compute_extrinsic"),
        "geometry.compute_extrinsic.s": secs("geometry.compute_extrinsic"),
        "geometry.compute_extrinsic.per_step": calls("geometry.compute_extrinsic") * per_step,
        "geometry.state_from_gauge.calls": calls("geometry.state_from_gauge"),
        "geometry.state_from_gauge.s": secs("geometry.state_from_gauge"),
        "flow.steps": steps,
        "flow.retries": sum(e["retries"] for e in _extras(tracer, "flow.run", traced.runs)),
        "flow.step.s": secs("flow.step"),
        "flow.us_per_step": 1e6 * untraced_run_s / max(untraced_steps, 1),
        "flow.stable_dt.calls": calls("flow.stable_dt"),
        "flow.stable_dt.s": secs("flow.stable_dt"),
        "flow.dt_p50": float(np.median(dts)),
        "flow.dt_min": float(np.min(dts)),
        "flow.dt_capped_frac": float(np.mean(dts == dt_max)),
        "flow.save_checkpoint.s": secs("flow.save_checkpoint"),
        "flow.save_checkpoint.bytes":
            sum(_extras(tracer, "flow.save_checkpoint", traced.runs)),
        "flow.load_checkpoint.s": secs("flow.load_checkpoint", mask=whole),
        "diagnostics.snapshot.calls": calls("diagnostics.snapshot"),
        "diagnostics.snapshot.s": secs("diagnostics.snapshot"),
        "diagnostics.theorem_report.s": secs("diagnostics.theorem_report"),
        "diagnostics.limit_profile.calls": calls("diagnostics.limit_profile"),
        "diagnostics.limit_profile.s": secs("diagnostics.limit_profile"),
        "config.parse_run_config.s": secs("config.parse_run_config", mask=whole),
        "cli.output.s": float(own[sel("cli.execute_run")].sum()),
        "cli.output_bytes": _tree_bytes(traced.out),
        "cli.sweep.worker_busy_frac":
            (secs("cli.execute_run") - nested_kernel_s(traced.runs)) / (jobs * traced.wall)
            if traced.wall else 0.0,
        "trace.overhead_frac": calibrated_wall(traced) / calibrated_wall(untraced) - 1.0
            if traced.speed and untraced.speed else 0.0,
        "trace.spans": int(np.count_nonzero(whole)),
    }
    # the self time of the sweep parent's cli.main is its wait for the
    # workers, not work, so no layer counts it
    for layer in LAYERS:
        names = [n for n in tracer.names if n.startswith(layer + ".") and n != "cli.main"]
        m[f"self_s.{layer}"] = float(own[sel(*names)].sum())
    m["trace.self_sum_frac"] = sum(m[f"self_s.{layer}"] for layer in LAYERS) / traced.wall \
        if traced.wall else 0.0
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            ini_text: str | None = None, work_dir: Path | None = None,
            setup_repeats: int | None = None):
    """Run one workload; returns (result document, human-readable lines)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    ic = import_icflow()
    spec = load_spec()
    sweep = workload == "sweep_small"
    work = work_dir or WORK_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spool").mkdir(parents=True)
    template = ini_text if ini_text is not None else \
        (BENCH_DIR / "workloads" / f"{workload}.ini").read_text(encoding="utf-8")
    ini = work / f"{workload}.ini"
    ini.write_text(make_ini(template, seed), encoding="utf-8")
    cfg = ic.config.parse_run_config(str(ini), allow_sweep=sweep)

    tracer = tracing.Tracer(spool_dir=work / "spool")
    its = []
    missing = set()
    started = perf_counter()
    while True:
        k = len(its)
        missing.update(tracer.install(tracing.TRACED if trace and k == 1 else tracing.CAPTURE))
        t0 = perf_counter()
        try:
            probe = tracer.wrap(calibration.kernel, "calibration.kernel")
            tracer.call_before("diagnostics", "snapshot", probe)
            it = run_iteration(ic, workload, ini, cfg, work / f"rep{k}", tracer, f"rep{k}",
                               probe)
        finally:
            tracer.restore()
        account_calibration(it, tracer)
        its.append(it)
        took = perf_counter() - t0
        # traced: one untraced and one traced repetition; untraced: stop
        # before a repetition that would end after `seconds`
        done = len(its) == 2 if trace else perf_counter() + took > started + seconds
        if done:
            break
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tracer.save(work / "spans.npz")

    attempted, failed, messages = check(ic, workload, its, cfg, tracer)
    ok = [it for it in its if it.error is None and it.speed]
    walls = [it.wall for it in ok]
    cal_walls = [calibrated_wall(it) for it in ok]
    lines = [f"{workload} seed {seed}: {len(its)} repetition(s), "
             f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}"]
    lines += messages
    if missing:
        lines.append("not traced, absent from icflow: " + ", ".join(sorted(missing)))
    if trace:
        values = layer_metrics(tracer, its[0], its[1], cfg.flow.dt_max)
        wanted = spec["per_layer"]
        lines.append(f"wall_s measured: untraced {its[0].wall:.4f}, traced {its[1].wall:.4f}")
    else:
        setup = setup_samples(ini, sweep, setup_repeats or SETUP_REPEATS[workload])
        peak_mb = (own_kb + (children_kb if sweep else 0)) / 1024.0
        values = {
            "wall_s": statistics.median(cal_walls) if ok else 0.0,
            "setup_s": statistics.median(cal for _, cal in setup),
            "peak_rss_mb": peak_mb,
        }
        wanted = spec["end_to_end"]
        if ok:
            lines.append(f"wall_s measured: {tail(walls)}")
            lines.append(f"wall_s at reference speed: {tail(cal_walls)}; kernel mean "
                         + ", ".join(f"{1e3 * float(np.mean(it.speed)):.3f}" for it in ok)
                         + f" ms over {sum(len(it.speed) for it in ok)} samples "
                         f"(reference {1e3 * calibration.REFERENCE_S:.3f} ms)")
        lines.append(f"setup_s measured: {tail([raw for raw, _ in setup])}")
        lines.append(f"setup_s at reference speed: {tail([cal for _, cal in setup])}")
        lines.append(f"peak_rss_mb own {own_kb / 1024.0:.1f}"
                     + (f" + largest worker {children_kb / 1024.0:.1f}" if sweep else ""))
    metrics = {}
    for spec_metric in wanted:
        name = spec_metric["name"]
        metrics[name] = {"value": values[name], "unit": spec_metric["unit"]}
        lines.append(f"  {name} = {values[name]:.6g} {spec_metric['unit']}")
    if failed == 0:
        for it in its:
            shutil.rmtree(it.out, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return result, lines
