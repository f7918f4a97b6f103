"""Smoke tests of the benchmark itself: python3 -m pytest perfbench

Tiny versions of the workloads must emit every metric BENCHMARK.json
names, and tracing must leave the icflow modules as it found them.
"""

import configparser
import io
import json
import math
import shutil
import subprocess
import sys

import pytest

import bench
import tracing

ic = bench.import_icflow()

TINY = {
    "a3_reference": {"grid": {"n_theta": "32"},
                     "flow": {"t_end": "0.3"},
                     "report": {"window_start": "0.1", "window_end": "0.3"}},
    "latlong_2d": {"grid": {"n_theta": "16", "n_psi": "32"},
                   "flow": {"t_end": "0.02", "output_every": "0.01"}},
    "sweep_small": {"grid": {"n_theta": "16"},
                    "flow": {"t_end": "0.3"},
                    "sweep": {"m": "0 1", "f_kind": "mean", "amplitude": "0.1"}},
}


def tiny_ini(workload):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(bench.BENCH_DIR / "workloads" / f"{workload}.ini")
    for section, values in TINY[workload].items():
        parser[section].update(values)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def module_state():
    state = {}
    for name, mod in sys.modules.items():
        if name == "icflow" or name.startswith("icflow."):
            state.update({(name, k): id(v) for k, v in vars(mod).items()})
    state.update({("WarpProfile", k): id(v)
                  for k, v in vars(ic.background.WarpProfile).items()})
    return state


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_workload_emits_every_metric(workload, trace, tmp_path):
    before = module_state()
    result, lines = bench.measure(workload, 3, 0.0, trace, ini_text=tiny_ini(workload),
                                  work_dir=tmp_path, setup_repeats=1)
    spec = bench.load_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
    assert result["attempted"] >= (2 if trace else 1)
    assert len(json.dumps(result).splitlines()) == 1
    assert module_state() == before
    if trace and workload != "sweep_small":
        assert result["metrics"]["trace.self_sum_frac"]["value"] == pytest.approx(1.0, abs=1e-2)
        assert result["metrics"]["flow.steps"]["value"] > 0


def test_tracer_restores_module_attributes(tmp_path):
    before = module_state()
    original = ic.geometry.compute_extrinsic
    tracer = tracing.Tracer(spool_dir=tmp_path)
    assert tracer.install() == []
    try:
        assert ic.flow.compute_extrinsic is not original
        assert ic.geometry.compute_extrinsic.__wrapped__ is original
        with pytest.raises(RuntimeError):
            tracing.Tracer().install()
    finally:
        tracer.restore()
    assert module_state() == before
    absent = tracing.Tracer()
    assert absent.install([("flow", "no_such_function"), ("flow", "step")]) == [
        "flow.no_such_function"]
    absent.restore()
    assert module_state() == before


def test_self_times_subtract_direct_children():
    parent = tracing.np.array([-1, 0, 1, 0])
    duration = tracing.np.array([10.0, 4.0, 1.0, 3.0])
    assert list(tracing.self_times(parent, duration)) == [3.0, 3.0, 1.0, 3.0]


def test_seed_zero_keeps_the_committed_config():
    text = (bench.BENCH_DIR / "workloads" / "sweep_small.ini").read_text()
    zero = configparser.ConfigParser(interpolation=None)
    zero.read_string(bench.make_ini(text, 0))
    assert zero["initial"]["r0"] == "2.0" and zero["sweep"]["amplitude"] == "0.1 0.3"
    moved = configparser.ConfigParser(interpolation=None)
    moved.read_string(bench.make_ini(text, 7))
    assert moved["initial"]["r0"] != "2.0"
    assert abs(float(moved["initial"]["r0"]) - 2.0) <= bench.JITTER
    assert bench.make_ini(text, 7) == bench.make_ini(text, 7)


def test_refuses_to_run_without_icflow_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "a3_reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
