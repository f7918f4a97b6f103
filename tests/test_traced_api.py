"""The benchmark's traced mode wraps icflow callables by name; every one
of them must exist, or its per-layer metrics silently vanish."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from icflow import flow

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
