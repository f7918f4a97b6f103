"""The benchmark's traced mode wraps icflow callables by name; every one
of them must exist, or its per-layer metrics silently vanish. Its set-up
probe calls icflow directly and must keep running too, and its workload
configs must keep parsing."""

import importlib
import importlib.util
import inspect
import math
import subprocess
import sys
from pathlib import Path

import pytest

from icflow import config, flow

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PROBE = ROOT / "perfbench" / "setup_probe.py"
WORKLOADS = ROOT / "perfbench" / "workloads"

TINY_RUN = """
[background]
m = 1.0
n = 2

[grid]
n_theta = 16

[initial]
kind = cosine_perturbation
r0 = 2.0
amplitude = 0.3

[flow]
f_kind = mean
t_end = 1.0
"""


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_every_traced_target_resolves():
    traced = load_traced()
    assert traced
    for module, attr in traced:
        obj = importlib.import_module("icflow." + module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"icflow.{module}.{attr}"


def test_step_takes_dt_third():
    # the traced mode reads a step's dt from its third positional argument
    assert list(inspect.signature(flow.step).parameters)[2] == "dt"


@pytest.mark.parametrize("kind", ["run", "sweep"])
def test_setup_probe_prints_two_floats(tmp_path, kind):
    # the benchmark reads set-up seconds and the kernel time from the
    # probe's last line, in a fresh interpreter on the source tree
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_RUN + ("[sweep]\nm = 0 1\nf_kind = mean sigma2root\n"
                               if kind == "sweep" else ""))
    done = subprocess.run([sys.executable, str(PROBE), str(ROOT / "src"), str(ini), kind],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1].split()
    assert len(last) == 2
    assert all(math.isfinite(float(x)) and float(x) > 0.0 for x in last)


@pytest.mark.parametrize("ini", sorted(WORKLOADS.glob("*.ini")), ids=lambda p: p.stem)
def test_workload_config_parses(ini):
    # a schema key removed while a workload still sets it fails here
    cfg = config.parse_run_config(ini, allow_sweep=ini.stem == "sweep_small")
    assert (cfg.sweep is not None) == (ini.stem == "sweep_small")
