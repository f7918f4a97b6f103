"""Property test of the config parser: any INI text built from the schema
keys either parses into a config of finite numbers or raises an
IcflowError, never another exception, so every malformed config exits 2.
Parsing only; no flow is run."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icflow import config as cfgmod
from icflow.errors import IcflowError

# a valid run config; each example replaces or drops a few schema keys
BASE = {
    "background": {"m": "1.0", "n": "2"},
    "grid": {"mode": "axisymmetric1d", "n_theta": "32"},
    "initial": {"kind": "cosine_perturbation", "r0": "2.0", "amplitude": "0.2"},
    "flow": {"f_kind": "mean", "t_end": "1.0"},
}

KEYS = [(section, key) for section in sorted(cfgmod._SCHEMA)
        for key in sorted(cfgmod._SCHEMA[section])]

WORDS = [
    "nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "0", "-0", "-1",
    "", "true", "no", "mean", "sigma2root", "quotient2", "mean bogus", "bogus",
    "axisymmetric1d", "latlong2d", "constant", "cosine_perturbation",
    "custom_table", "euler", "rk2", "csv", "csv json", "xml", "0 1", "1 nan",
]

VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(WORDS),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)

TABLES = {
    "valid": "0.0,1.5\n1.6,1.6\n3.2,1.5\n",
    "header": "theta,r\n0.0,1.5\n3.2,1.5\n",
    "nan": "0.0,1.5\n3.2,nan\n",
    "one_column": "0.0\n3.2\n",
    "junk": "a,b\nc,d\n",
    "empty": "",
}


def render(sections):
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


@st.composite
def ini_texts(draw):
    sections = {section: dict(entries) for section, entries in BASE.items()}
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=4)):
        entries = sections.setdefault(section, {})
        if draw(st.booleans()) and key in entries:
            del entries[key]
        elif key == "table_path":
            entries[key] = "{%s}" % draw(st.sampled_from(sorted(TABLES) + ["missing"]))
        else:
            entries[key] = draw(VALUES)
    return render(sections)


def floats_in(obj):
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from floats_in(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from floats_in(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from floats_in(value)
    elif isinstance(obj, float):
        yield obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in TABLES.items():
        (root / f"{name}.csv").write_text(text)
    return root


@settings(max_examples=200, deadline=None)
@given(text=ini_texts(), allow_sweep=st.booleans())
@example(text=render(BASE).replace("t_end = 1.0", "t_end = inf"), allow_sweep=False)
def test_parse_returns_or_raises_icflow_error(workdir, text, allow_sweep):
    for name in list(TABLES) + ["missing"]:
        text = text.replace("{%s}" % name, str(workdir / f"{name}.csv"))
    path = workdir / "run.ini"
    path.write_text(text)
    try:
        cfg = cfgmod.parse_run_config(path, allow_sweep=allow_sweep)
    except IcflowError:
        return
    assert all(math.isfinite(x) for x in floats_in((cfg.flow, cfg.report, cfg.sweep)))
