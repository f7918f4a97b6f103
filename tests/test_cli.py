import concurrent.futures
import csv
import json
import os
import re
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import icflow
from icflow import background as bg
from icflow import cli
from icflow import config as cfgmod
from icflow import curvature as cf
from icflow import diagnostics as dg
from icflow import flow
from icflow import geometry as geo
from icflow import sphere as sp
from icflow.errors import ConfigError, InadmissibleState

from oracles import radius_at_lambda

BASE = """
[background]
m = {m}
n = 2

[grid]
mode = axisymmetric1d
n_theta = {n_theta}

[initial]
kind = {kind}
{initial_extra}

[flow]
f_kind = mean
t_end = {t_end}
dt_max = {dt_max}
output_every = 0.1

[report]
{report_extra}
"""


def write_config(path, m=0.0, n_theta=48, kind="constant", initial_extra="r0 = 1.0",
                 t_end=1.0, dt_max="2e-3", report_extra=""):
    path.write_text(BASE.format(m=m, n_theta=n_theta, kind=kind,
                                initial_extra=initial_extra, t_end=t_end,
                                dt_max=dt_max, report_extra=report_extra))
    return path


def count_calls(monkeypatch, func):
    """Count calls of func, wherever a module of the package holds it."""
    counter = {"n": 0}

    def counted(*args, **kwargs):
        counter["n"] += 1
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "icflow" or name.startswith("icflow."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counted)
    return counter


class TestConfigParsing:
    def test_valid(self, tmp_path):
        p = write_config(tmp_path / "c.ini")
        rc = cfgmod.parse_run_config(p)
        assert rc.flow.background.m == 0.0
        assert rc.flow.grid_resolution == 48

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(BASE.format(m=0, n_theta=48, kind="constant",
                                 initial_extra="r0 = 1.0", t_end=1.0,
                                 dt_max="1e-3", report_extra="") + "\n[flow2]\nx = 1\n")
        with pytest.raises(ConfigError, match="flow2"):
            cfgmod.parse_run_config(p)

    def test_typo_key_rejected_with_context(self, tmp_path):
        p = write_config(tmp_path / "c.ini", report_extra="tol_rate_kapa = 0.2")
        with pytest.raises(ConfigError, match=r"\[report\] tol_rate_kapa"):
            cfgmod.parse_run_config(p)

    @pytest.mark.parametrize("section, key, value", [
        ("background", "tol_root", "1e-13"),
        ("flow", "integrator", "rk2"),
        ("report", "enable_pinching", "true"),
        ("report", "enable_f_bounds", "true"),
        ("report", "enable_gradient_monotone", "true"),
        ("report", "enable_chi_ratio", "true"),
        ("report", "tol_rate_kappa", "0.15"),
        ("report", "tol_rate_grad", "0.15"),
        ("report", "tol_rate_hess", "0.10"),
        ("report", "limit_gap_tol", "0.02"),
        ("report", "metric_residual_tol", "5e-3"),
        ("report", "chi_ratio_max", "10.0"),
        ("flow", "dt_min", "1e-12"),
        ("flow", "cfl", "0.2"),
    ])
    def test_removed_key_rejected(self, tmp_path, section, key, value):
        p = write_config(tmp_path / "c.ini")
        p.write_text(p.read_text().replace(f"[{section}]", f"[{section}]\n{key} = {value}"))
        with pytest.raises(ConfigError, match=rf"unknown key \[{section}\] {key}$"):
            cfgmod.parse_run_config(p)

    @pytest.mark.parametrize("key, value", [("directory", "out"), ("formats", "csv json")])
    def test_output_section_rejected(self, tmp_path, key, value):
        # --out is the one way to name the output directory
        p = write_config(tmp_path / "c.ini")
        p.write_text(p.read_text() + f"\n[output]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=r"unknown section \[output\]$"):
            cfgmod.parse_run_config(p)

    def test_minimal_config_takes_field_defaults(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[background]\nm = 1\n[grid]\nn_theta = 32\n[initial]\nkind = constant\n"
                     "r0 = 2\n[flow]\nf_kind = mean\nt_end = 1\n")
        rc = cfgmod.parse_run_config(p)
        assert rc.flow == flow.FlowConfig(
            background=bg.BackgroundParams(m=1.0), grid_mode="axisymmetric1d",
            grid_resolution=32, initial=flow.InitialData(kind="constant", r0=2.0),
            f=cf.from_name("mean", 2), t_end=1.0)
        assert rc.report == dg.ReportConfig()

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        p = tmp_path / "c.ini"
        p.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        rc = cfgmod.parse_run_config(p)
        assert rc.flow.grid_mode == "axisymmetric1d"
        assert rc.flow.initial.kind == "cosine_perturbation"
        assert rc.flow.f == cf.from_name("mean", 2)
        assert rc.report == dg.ReportConfig(window=(4.0, 9.0))

    def test_readme_imports_resolve(self):
        # a README that shows a deleted public name fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^from icflow import (\([^)]*\)|.*)$", readme, re.MULTILINE)
        names = [n.strip() for block in blocks for n in block.strip("()").split(",")]
        assert len(blocks) >= 2 and "theorem_report" in names
        missing = [n for n in names if n and not hasattr(icflow, n)]
        assert missing == []

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[background]\nm = 1\n[grid]\nn_theta = 32\n"
                     "[initial]\nkind = constant\nr0 = 1\n[flow]\nf_kind = mean\n")
        with pytest.raises(ConfigError, match="t_end"):
            cfgmod.parse_run_config(p)

    @pytest.mark.parametrize("old, new", [
        ("m = 0.0", "m = nan"),
        ("r0 = 1.0", "r0 = inf"),
        ("t_end = 1.0", "t_end = nan"),
        ("t_end = 1.0", "t_end = inf"),
        ("t_end = 1.0", "t_end = -inf"),
        ("output_every = 0.1", "output_every = nan"),
        ("dt_max = 2e-3", "dt_max = inf"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, old, new):
        p = write_config(tmp_path / "c.ini")
        text = p.read_text()
        assert old in text
        p.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match="finite"):
            cfgmod.parse_run_config(p)

    def test_sweep_section_rejected_for_run(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(BASE.format(m=0, n_theta=48, kind="constant",
                                 initial_extra="r0 = 1.0", t_end=1.0,
                                 dt_max="1e-3", report_extra="") + "\n[sweep]\nm = 0 1\n")
        with pytest.raises(ConfigError, match="sweep"):
            cfgmod.parse_run_config(p)

    def test_empty_sweep_grid(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(BASE.format(m=0, n_theta=48, kind="constant",
                                 initial_extra="r0 = 1.0", t_end=1.0,
                                 dt_max="1e-3", report_extra="") + "\n[sweep]\nm =\n")
        with pytest.raises(ConfigError, match="sweep"):
            cfgmod.parse_run_config(p, allow_sweep=True)

    @pytest.mark.parametrize("line, message", [
        ("m = 1 1.0", r"\[sweep\] m: value 1\.0 is repeated"),
        ("m = 0 2 -0.0", r"\[sweep\] m: value -0\.0 is repeated"),
        ("f_kind = mean mean", r"\[sweep\] f_kind: value 'mean' is repeated"),
        ("amplitude = 0.1 0.2 0.10", r"\[sweep\] amplitude: value 0\.1 is repeated"),
    ])
    def test_repeated_sweep_value(self, tmp_path, line, message):
        # two equal values would name two combinations alike, which would
        # run into one directory
        p = tmp_path / "c.ini"
        p.write_text(BASE.format(m=0, n_theta=48, kind="cosine_perturbation",
                                 initial_extra="r0 = 2.0\namplitude = 0.1", t_end=1.0,
                                 dt_max="1e-3", report_extra="") + f"\n[sweep]\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            cfgmod.parse_run_config(p, allow_sweep=True)

    @pytest.mark.parametrize("case, message", [
        ("missing", "config file not found: "),
        ("unparsable", "config parse error: "),
        ("table_of_three_columns", "[initial] table_path: expected two comma-separated columns"),
        ("table_of_one_column", "[initial] table_path: expected two comma-separated columns"),
        ("n_psi_in_1d", "[grid] n_psi is only valid in latlong2d mode"),
        ("window_past_t_end", "[report] rate window must end at or before t_end"),
        ("sweep_amplitude_of_constant", "[sweep] amplitude requires cosine_perturbation "
                                        "initial data"),
        ("sweep_without_section", "sweep config needs a [sweep] section"),
    ])
    def test_refused_config_exit_2(self, tmp_path, capsys, case, message):
        # each refusal reaches the command line as exit 2 and its message
        p, table, command = tmp_path / "c.ini", tmp_path / "r0.csv", "run"
        if case == "unparsable":
            p.write_text("[background\nm = 0\n")
        elif case.startswith("table_of"):
            table.write_text("0.0,1.5,1.0\n3.2,1.5,1.0\n" if case == "table_of_three_columns"
                             else "0.0\n3.2\n")
            write_config(p, kind="custom_table", initial_extra=f"table_path = {table}")
        elif case == "n_psi_in_1d":
            write_config(p)
            p.write_text(p.read_text().replace("n_theta = 48", "n_theta = 48\nn_psi = 96"))
        elif case == "window_past_t_end":
            write_config(p, report_extra="window_start = 0.2\nwindow_end = 2.0")
        elif case.startswith("sweep"):
            command = "sweep"
            write_config(p)
            if case == "sweep_amplitude_of_constant":
                p.write_text(p.read_text() + "\n[sweep]\namplitude = 0.1 0.2\n")
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(p), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_umbilic_mass2_run_fails_only_its_kappa_rate(self, tmp_path, capsys):
        # the sphere at lambda = 2, m = 2 starts at kappa = 1 exactly, and
        # |kappa - 1| rises before it decays (ROADMAP item 8's kappa
        # transient): the fit over [1.2, 2.7] reads about -0.675 against
        # <= -0.85, and every other check passes
        prof = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), 6.0)
        r0 = radius_at_lambda(prof, 2.0)
        cfg = write_config(
            tmp_path / "c.ini", m=2.0, n_theta=48,
            initial_extra=f"r0 = {r0!r}", t_end=3.0, dt_max="1e-3",
        )
        out = tmp_path / "out"
        rcode = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rcode == 1
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == ",".join(
            ["t", "sup_kappa_dev", "sup_grad_phi_sq", "sup_hess_phi",
             "F_min", "F_max", "r_tilde_min", "r_tilde_max",
             "chi_scaled_min", "chi_scaled_max", "pinch_low_ok", "pinch_high_ok"])
        rows = [line.split(",") for line in series[1:]]
        # constant data stays exactly round and pinched
        for row in rows:
            assert float(row[6]) == pytest.approx(float(row[7]), abs=1e-12)
            assert row[10] == "1" and row[11] == "1"
        # growth law: lambda e^{-t/2} = 2 read back through chi (= lambda here)
        for row in rows:
            assert abs(float(row[8]) / 2.0 - 1.0) < 1e-5
        report = json.loads((out / "report.json").read_text())
        assert [k for k, v in report.items() if k.endswith("_pass") and not v] == [
            "overall_pass"]
        rates = {r["name"]: r for r in report["rates"]}
        assert [name for name, r in rates.items() if not r["pass"]] == ["sup_kappa_dev"]
        assert -0.70 < rates["sup_kappa_dev"]["slope"] < -0.65
        assert (out / "checkpoint.json").exists()
        assert (out / "report.txt").exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", m=1.0, n_theta=32,
                           kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1",
                           t_end=1.0)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        kw = dict(m=0.0, n_theta=32, kind="cosine_perturbation",
                  initial_extra="r0 = 1.0\namplitude = 0.2\nwavenumber = 1")
        cfg_half = write_config(tmp_path / "half.ini", t_end=1.0, **kw)
        cfg_full = write_config(tmp_path / "full.ini", t_end=2.0, **kw)
        half, full, res = tmp_path / "h", tmp_path / "f", tmp_path / "r"
        assert cli.main(["run", "--config", str(cfg_half), "--out", str(half)]) == 0
        assert cli.main(["run", "--config", str(cfg_full), "--out", str(full)]) == 0
        assert cli.main(["run", "--config", str(cfg_full), "--out", str(res),
                         "--resume", str(half / "checkpoint.json")]) == 0
        ck_full = json.loads((full / "checkpoint.json").read_text())
        ck_res = json.loads((res / "checkpoint.json").read_text())
        assert abs(ck_full["t"] - ck_res["t"]) < 1e-12
        assert ck_full["phi"] == ck_res["phi"]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        p.write_text("[background]\nm = banana\n")
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "not_json", "no_params", "phi_short",
                                      "t_nan", "t_inf", "out_is_a_file"])
    def test_bad_checkpoint_or_output_exit_2(self, tmp_path, capsys, case):
        p = write_config(tmp_path / "c.ini", n_theta=32)
        grid = sp.build_grid("axisymmetric1d", 32)
        prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0), 5.0)
        ck, out = tmp_path / "ck.json", tmp_path / "o"
        flow.save_checkpoint(geo.state_from_radius(grid, prof, np.full(32, 1.0), t=0.5), ck)
        doc = json.loads(ck.read_text())
        if case == "missing":
            ck.unlink()
        elif case == "not_json":
            ck.write_text("{not json")
        elif case == "no_params":
            del doc["params"]
            ck.write_text(json.dumps(doc))
        elif case == "phi_short":
            doc["phi"].pop()
            ck.write_text(json.dumps(doc))
        elif case in ("t_nan", "t_inf"):
            # json writes and reads these as NaN and Infinity
            doc["t"] = float("nan") if case == "t_nan" else float("inf")
            ck.write_text(json.dumps(doc))
        else:
            out.write_text("")
        assert cli.main(["run", "--config", str(p), "--out", str(out),
                         "--resume", str(ck)]) == 2
        assert str(out if case == "out_is_a_file" else ck) in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("other_mass", "checkpoint background parameters do not match the configuration"),
        ("other_grid_mode", "checkpoint grid mode does not match the configuration"),
        ("checkpoint_is_a_directory", "cannot write checkpoint "),
    ])
    def test_checkpoint_refusal_exit_2(self, tmp_path, capsys, case, message):
        # a checkpoint of m = 0 refused under m = 1: the mass check is the
        # one guard against resuming one mass's gauge under another's
        # profile, since load_checkpoint builds the configuration's
        p = write_config(tmp_path / "c.ini", m=1.0, n_theta=32, initial_extra="r0 = 2.0",
                         t_end=0.1)
        grid = sp.build_grid("axisymmetric1d", 32)
        m = 0.0 if case == "other_mass" else 1.0
        prof = bg.build_warp_profile(bg.BackgroundParams(m=m))
        ck, out = tmp_path / "ck.json", tmp_path / "o"
        flow.save_checkpoint(geo.state_from_radius(grid, prof, np.full(32, 2.0), t=0.05), ck)
        resume = ["--resume", str(ck)]
        if case == "other_grid_mode":
            doc = json.loads(ck.read_text())
            doc["grid"]["mode"] = "latlong2d"
            ck.write_text(json.dumps(doc))
        elif case == "checkpoint_is_a_directory":
            (out / "checkpoint.json").mkdir(parents=True)
            resume = []
        assert cli.main(["run", "--config", str(p), "--out", str(out), *resume]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        if case == "checkpoint_is_a_directory":
            assert str(out / "checkpoint.json") in err

    def test_unwritable_artifact_exit_2(self, tmp_path, capsys):
        # a directory in the way of series.csv: the run writes no traceback
        p = write_config(tmp_path / "c.ini", n_theta=32, t_end=0.1)
        out = tmp_path / "o"
        (out / "series.csv").mkdir(parents=True)
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert f"cannot write {out / 'series.csv'}" in capsys.readouterr().err

    def test_non_finite_mass_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini", m="nan")
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "[background] m" in capsys.readouterr().err

    def test_mass_below_minimum_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini", m="5e-324")
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "positive mass must be at least" in capsys.readouterr().err

    def test_mass_above_maximum_exit_2(self, tmp_path, capsys):
        # at m = 3e81 the warp table next to the horizon has intervals of
        # zero width, where a lookup divides by zero; with warnings as
        # errors the run is refused as a config error, not a failed check
        p = write_config(tmp_path / "c.ini", m="3e81", n_theta=16,
                         initial_extra="r0 = 64.0", t_end=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "mass parameter must be at most M_MAX = 1e+60, got 3e+81" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("m = 3e81", "[background] m: mass parameter must be at most M_MAX = 1e+60, got 3e+81"),
        ("m = -1", "[background] m: mass parameter must be >= 0, got -1.0"),
        ("n = 1", "[background] n: sphere dimension must be an integer >= 2, got 1"),
    ])
    def test_background_error_names_its_key(self, tmp_path, capsys, line, message):
        p = write_config(tmp_path / "c.ini")
        text = p.read_text()
        p.write_text(text.replace("m = 0.0" if line.startswith("m") else "n = 2", line))
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_radius_beyond_table_range_exit_2(self, tmp_path, capsys, m):
        # r0 = 500 is the fuzz test's far draw
        for r0 in (500, 800):
            p = write_config(tmp_path / "c.ini", m=m, initial_extra=f"r0 = {r0}")
            assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
            assert f"radius {r0} past r_max = 177" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_radius_past_gauge_limit_fails_fast(self, tmp_path, capsys, m):
        # r0 = 177.5 lies just past R_MAX = 177, the largest radius a
        # warp profile accepts: the run stops before its first stage, names
        # the radius, and says why in events.jsonl
        p = write_config(tmp_path / "c.ini", m=m, initial_extra="r0 = 177.5")
        out = tmp_path / "o"
        start = time.perf_counter()
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "radius 177.5 past r_max = 177" in capsys.readouterr().err
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["kind"] for e in events] == ["failed"]
        assert events[0]["error"].startswith("TableExtentError")

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_radius_crossing_r_max_mid_run_exit_2(self, tmp_path, capsys, m):
        # r0 = 176.8 starts inside R_MAX = 177 and the flow carries the
        # surface past it: the stage that reads the gauge past the cap is
        # refused, the run exits 2 naming the radius, and events.jsonl ends
        # in a `failed` event at the last accepted time
        p = write_config(tmp_path / "c.ini", m=m, n_theta=16, kind="cosine_perturbation",
                         initial_extra="r0 = 176.8\namplitude = 0.1", dt_max="1e-2")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "gauge value outside tabulated range: radius 177.002 past r_max = 177" in err
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["t"] for e in events if e["kind"] == "snapshot"] == [0.0, 0.1, 0.2]
        assert events[-1]["kind"] == "failed" and events[-1]["t"] == 0.2
        assert events[-1]["error"].startswith("TableExtentError")

    def test_events_file(self, tmp_path):
        p = write_config(tmp_path / "c.ini", m=1.0, n_theta=32,
                         kind="cosine_perturbation",
                         initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        rows = (out / "series.csv").read_text().splitlines()[1:]
        snaps = [e for e in events if e["kind"] == "snapshot"]
        assert len(snaps) == len(rows) == 11
        assert [e["t"] for e in snaps] == [float(row.split(",")[0]) for row in rows]
        assert events[-1]["kind"] == "completed"
        assert events[-1]["t"] == 1.0
        assert events[-1]["steps"] > 0

    def test_events_file_holds_retries(self, tmp_path):
        # an admissibility retry carries numpy node indices and kappa values
        event = flow.FlowEvent("admissibility_violation", 0.5, {
            "dt": 0.01, "node": np.unravel_index(7, (4, 8)),
            "kappa": list(np.array([1.5, -0.25]))})
        cli._write_events(tmp_path / "events.jsonl", [event])
        line = json.loads((tmp_path / "events.jsonl").read_text())
        assert line == {"kind": "admissibility_violation", "t": 0.5, "dt": 0.01,
                        "node": [0, 7], "kappa": [1.5, -0.25]}

    def test_failed_event_names_the_offender(self, tmp_path, monkeypatch):
        # every retry of the first step leaves the cone; the run gives up
        # and its last event carries the worst node and kappa
        def always_bad(s, F, dt, ext):
            raise InadmissibleState("synthetic", t=s.t, node=np.unravel_index(5, (32,)),
                                    kappa=np.array([1.5, -0.25]))

        monkeypatch.setattr(flow, "_advance", always_bad)
        p = write_config(tmp_path / "c.ini", n_theta=32)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        lines = (out / "events.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["snapshot"] + 9 * ["admissibility_violation"] + ["failed"]
        last = json.loads(lines[-1])
        assert last == {"kind": "failed", "t": 0.0, "node": [5], "kappa": [1.5, -0.25],
                        "error": "InadmissibleState: synthetic"}

    @pytest.mark.parametrize("t_end", [1.0, 0.5])
    def test_resume_at_or_past_t_end_exit_2(self, tmp_path, capsys, t_end):
        kw = dict(n_theta=32)
        cfg_first = write_config(tmp_path / "first.ini", t_end=1.0, **kw)
        cfg_again = write_config(tmp_path / "again.ini", t_end=t_end, **kw)
        first, again = tmp_path / "first", tmp_path / "r"
        assert cli.main(["run", "--config", str(cfg_first), "--out", str(first)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", str(cfg_again), "--out", str(again),
                         "--resume", str(first / "checkpoint.json")]) == 2
        assert "t_end" in capsys.readouterr().err
        # refused like any other start-up failure: events.jsonl says why
        events = [json.loads(line) for line in (again / "events.jsonl").read_text().splitlines()]
        assert [e["kind"] for e in events] == ["failed"]
        t_first = json.loads((first / "checkpoint.json").read_text())["t"]
        assert events[0]["t"] == t_first
        assert events[0]["error"].startswith(f"ConfigError: start time t={t_first} is not before")

    def test_t_end_within_landing_tolerance_exit_2(self, tmp_path, capsys):
        # a start within LAND_TOL of t_end would land on it with no step,
        # writing two snapshots at t = 0 and a `completed` event of 0 steps
        cfg = write_config(tmp_path / "c.ini", m=1.0, n_theta=16, kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.3\nwavenumber = 1",
                           t_end=5e-13)
        out = tmp_path / "r"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "nothing to run" in capsys.readouterr().err
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["kind"] for e in events] == ["failed"]
        assert events[0]["t"] == 0.0
        assert not (out / "checkpoint.json").exists()

    def test_one_limit_profile_per_run(self, tmp_path, monkeypatch):
        # the report computes the limit profile once, from the metrics stored
        # at the snapshots instead of recomputing them; limit_profile.csv is
        # written from the series. The stage pass runs once per rk2 stage,
        # with one stencil pass each, and the snapshots read it: no
        # compute_extrinsic call, and one eigensolve per snapshot
        cfg = write_config(tmp_path / "c.ini", m=1.0, n_theta=32,
                           kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1")
        n_profile = count_calls(monkeypatch, dg.limit_profile)
        n_inv = count_calls(monkeypatch, geo.scaled_invariants)
        n_der = count_calls(monkeypatch, sp.derivatives)
        n_ext = count_calls(monkeypatch, geo.compute_extrinsic)
        n_eig = count_calls(monkeypatch, geo._pencil_eigenvalues)
        n_steps = count_calls(monkeypatch, flow.step)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg), "--out", str(out)])
        snapshots = len((out / "series.csv").read_text().splitlines()) - 1
        assert n_profile["n"] == 1
        assert n_steps["n"] > 0 and snapshots == 11
        assert n_inv["n"] == n_der["n"] == 2 * n_steps["n"] + 1
        assert n_ext["n"] == 0
        assert n_eig["n"] == snapshots
        report = json.loads((out / "report.json").read_text())
        rows = (out / "limit_profile.csv").read_text().splitlines()
        assert report["limit_gap"] is not None and len(rows) == 33

    def test_latlong_limit_profile_is_the_psi0_column(self, tmp_path, monkeypatch):
        # one row per theta: theta and the final r - t/n at psi = psi_0,
        # both written to round-trip exactly
        p = tmp_path / "c.ini"
        p.write_text(BASE.format(m=1.0, n_theta=16, kind="cosine_perturbation",
                                 initial_extra="r0 = 2.0\namplitude = 0.3",
                                 t_end=0.2, dt_max="2e-3", report_extra="")
                     .replace("mode = axisymmetric1d", "mode = latlong2d\nn_psi = 32"))
        runs = []
        real_run = flow.run

        def kept_run(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(flow, "run", kept_run)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(p), "--out", str(out)])
        _, series, _ = runs[0]
        rows = (out / "limit_profile.csv").read_text().splitlines()
        assert rows[0] == "theta,f_hat" and len(rows) == 17
        cells = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
        assert series.radii[-1].shape == (16, 32)
        assert np.array_equal(cells[:, 0], series.grid.theta)
        assert np.array_equal(cells[:, 1], series.radii[-1][:, 0] - series.times[-1] / 2)

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate is a runtime error, not a failed check
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(flow, "build_grid", no_memory)
        p = write_config(tmp_path / "c.ini", n_theta=32, t_end=0.1)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Unable to allocate 72.8 TiB" in err
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["kind"] for e in events] == ["failed"]
        assert events[0]["error"].startswith("MemoryError")

    def test_report_pins_the_certificate(self, tmp_path):
        # the rate targets 2/n, 2/n and 1/n and every tolerance are fixed;
        # no config key moves them, so a change to one is an edit here
        cfg = write_config(tmp_path / "c.ini", n_theta=32, dt_max="1e-2")
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg), "--out", str(out)])
        rates = json.loads((out / "report.json").read_text())["rates"]
        assert [(r["name"], r["target"], r["tolerance"]) for r in rates] == [
            ("sup_kappa_dev", 1.0, 0.15),
            ("sup_grad_phi_sq", 1.0, 0.15),
            ("sup_hess_phi", 0.5, 0.10),
        ]
        assert dg.LIMIT_GAP_TOL == 0.02
        report = json.loads((out / "report.json").read_text())
        assert [k for k in report if k.startswith("metric_residual")] == []

    def test_readme_names_the_checks_the_report_makes(self, tmp_path):
        # the README's check list names each *_pass key of report.json,
        # and no other; constant data adds umbilic_profile_constant_pass
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        checks = readme.split("Each check is either a theorem estimate", 1)[1]
        checks = checks.split("Time stepping is", 1)[0]
        named = set(re.findall(r"`(\w+_pass)`", checks))
        cfg = write_config(tmp_path / "c.ini", n_theta=16, t_end=0.5, dt_max="1e-2")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        made = {k for k in report if k.endswith("_pass") and k != "overall_pass"}
        assert "umbilic_profile_constant_pass" in made
        assert named == made

    def test_short_run_report_text(self, tmp_path):
        # too short for any rate fit: each is noted insufficient, not
        # failed; the text holds no rounded number, so it is the same on
        # every platform
        cfg = write_config(tmp_path / "c.ini", m=1.0, n_theta=32, kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.3", t_end=0.5)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.txt").read_text() == """\
RATE  sup_kappa_dev: insufficient data
RATE  sup_grad_phi_sq: insufficient data
RATE  sup_hess_phi: insufficient data
CHECK pinching_pass: PASS
CHECK f_bounds_pass: PASS
CHECK gradient_monotone_pass: PASS
CHECK limit_gap_pass: PASS
CHECK drift_envelope_pass: PASS
NOTE  rate:sup_kappa_dev: only 3 snapshots in window (0.2, 0.45) for sup_kappa_dev
NOTE  rate:sup_grad_phi_sq: only 3 snapshots in window (0.2, 0.45) for sup_grad_phi_sq
NOTE  rate:sup_hess_phi: only 3 snapshots in window (0.2, 0.45) for sup_hess_phi
OVERALL: PASS
"""
        rates = json.loads((out / "report.json").read_text())["rates"]
        assert [sorted(r) for r in rates] == 3 * [
            ["name", "pass", "r_squared", "slope", "status", "target", "tolerance"]]

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_near_horizon_start_passes_every_check(self, tmp_path, m):
        # 0.013 outside the horizon r - t/n rises toward the comparison
        # sphere's limit, far past its start range; pinching is the radius
        # barrier, and it holds
        r0 = bg.build_warp_profile(bg.BackgroundParams(m=m, n=2)).r_horizon + 0.013
        cfg = write_config(tmp_path / "c.ini", m=m, n_theta=32, kind="cosine_perturbation",
                           initial_extra=f"r0 = {r0!r}\namplitude = 0.003",
                           t_end=10.0, dt_max="1e-2")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["insufficient"] == []
        assert all(r["pass"] for r in report["rates"])
        assert [k for k, v in report.items() if k.endswith("_pass") and v is not True] == []
        rt = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, usecols=(6, 7))
        assert rt.max() - rt[0].max() > 0.1

    def test_huge_t_end_fails_at_r_max(self, tmp_path, capsys):
        # t_end = 1e9 asks for 1e10 snapshot targets; they are yielded one
        # at a time, so the run steps at once and stops where the surface
        # passes R_MAX, near t = 350
        cfg = write_config(tmp_path / "c.ini", n_theta=16, initial_extra="r0 = 2.0",
                           t_end="1e9", dt_max="1.0")
        out = tmp_path / "out"
        start = time.perf_counter()
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 30.0
        assert "past r_max = 177" in capsys.readouterr().err
        last = json.loads((out / "events.jsonl").read_text().splitlines()[-1])
        assert last["kind"] == "failed" and last["error"].startswith("TableExtentError")
        assert 300.0 < last["t"] < 400.0


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "s.ini", m=0.0, n_theta=64,
            kind="cosine_perturbation",
            initial_extra="r0 = 2.0\namplitude = 0.15\nwavenumber = 1",
            t_end=7.0,
            report_extra="window_start = 3.0\nwindow_end = 6.3",
        )
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nm = 0 1\nf_kind = mean\n")
        out = tmp_path / "sweep"
        rcode = cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"])
        assert rcode == 0
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0].startswith("combo,")
        assert len(agg) == 3
        for line in agg[1:]:
            cells = line.split(",")
            assert cells[4] == "1"
            assert float(cells[1]) <= -0.85     # umbilicity decay slope
        assert (out / "mean_m0.0").is_dir() and (out / "mean_m1.0").is_dir()

    def test_stacked_combinations_equal_their_own_runs(self, tmp_path, capsys):
        # m x f_kind x amplitude: one stack of all eight, on --jobs 1,
        # mixing masses and F. Each combination directory holds what
        # `icflow run` writes for its
        # config alone, byte for byte; report.json differs only in the
        # config echo, which names the sweep. The timings are in
        # sweep_stats.json alone
        cfg = write_config(tmp_path / "s.ini", m=1.0, n_theta=16, kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1",
                           t_end=0.3, dt_max="1e-2")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nm = 0 1\nf_kind = mean sigma2root\namplitude = 0.1 0.3\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        stats = json.loads((out / "sweep_stats.json").read_text())
        assert stats["jobs"] == 1
        assert [s["members"] for s in stats["stacks"]] == [
            [f"amplitude{a}_{f}_m{m}" for a in (0.1, 0.3)
             for f in ("mean", "sigma2root") for m in (0.0, 1.0)]]
        assert all(s["steps"] == [30] * 8 and s["wall_s"] > 0.0 for s in stats["stacks"])
        text = cfg.read_text().split("[sweep]")[0]
        for m, f_kind, amplitude in [(0.0, "sigma2root", 0.3), (1.0, "mean", 0.1)]:
            one = tmp_path / f"{f_kind}{m}{amplitude}.ini"
            one.write_text(text.replace("m = 1.0", f"m = {m}")
                           .replace("f_kind = mean", f"f_kind = {f_kind}")
                           .replace("amplitude = 0.2", f"amplitude = {amplitude}"))
            alone = tmp_path / one.stem
            assert cli.main(["run", "--config", str(one), "--out", str(alone)]) == 0
            member = out / f"amplitude{amplitude}_{f_kind}_m{m}"
            assert sorted(p.name for p in member.iterdir()) == sorted(
                p.name for p in alone.iterdir())
            for path in alone.iterdir():
                if path.name == "report.json":
                    reports = [json.loads(d.joinpath(path.name).read_text())
                               for d in (member, alone)]
                    for report in reports:
                        del report["config_echo"]
                    assert reports[0] == reports[1]
                else:
                    assert (member / path.name).read_bytes() == path.read_bytes()

    def test_erroring_combination_exit_2(self, tmp_path, capsys):
        # amplitude 3 makes the initial radius negative: that combination
        # raises, the other passes, and aggregate.csv still lists both
        cfg = write_config(tmp_path / "s.ini", m=1.0, n_theta=32, kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\namplitude = 0.2 3.0\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        rows = [line.split(",") for line in
                (out / "aggregate.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[4]) for r in rows] == [("amplitude0.2", "1"), ("amplitude3.0", "0")]
        assert rows[0][5] == ""
        assert rows[1][5].startswith("ConfigError")
        assert "PASS amplitude0.2" in capsys.readouterr().out

    def test_error_with_commas_stays_one_cell(self, tmp_path, capsys):
        # the mass error's message holds a comma; quoted, it stays one
        # cell, so every row reads back as the header's six
        cfg = write_config(tmp_path / "s.ini", n_theta=16, t_end=0.1, dt_max="1e-2")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nm = -1 1\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        with open(out / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [6, 6, 6]
        assert [(r[0], r[4]) for r in rows[1:]] == [("m-1.0", "0"), ("m1.0", "1")]
        assert rows[1][5] == "ConfigError: mass parameter must be >= 0, got -1.0"
        assert rows[2][5] == ""

    def test_unwritable_aggregate_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.ini", n_theta=32, t_end=0.1)
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nf_kind = mean\n")
        out = tmp_path / "sweep"
        (out / "aggregate.csv").mkdir(parents=True)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS mean" in captured.out
        assert f"cannot write {out / 'aggregate.csv'}" in captured.err

    def test_dead_worker_exit_2(self, tmp_path, capsys, monkeypatch):
        # a worker that dies abruptly (killed for memory, a crash, os._exit)
        # breaks the pool: a runtime error with an error line, not a
        # traceback read as a failed check. The combination that finished
        # before it is kept, and aggregate.csv names each one that was lost:
        # dealt round-robin into two stacks, mean and quotient2 finish, and
        # sigma2root is lost
        class HalfDeadPool:
            # runs the first combination, then every later future raises
            def __init__(self, max_workers):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, payload):
                future = concurrent.futures.Future()
                if self.submitted == 0:
                    future.set_result(fn(payload))
                else:
                    future.set_exception(BrokenProcessPool("a child process terminated abruptly"))
                self.submitted += 1
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", HalfDeadPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = write_config(tmp_path / "s.ini", n_theta=32, t_end=0.1)
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nf_kind = mean sigma2root quotient2\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: a sweep worker died abruptly")
        assert "PASS mean" in captured.out and "PASS quotient2" in captured.out
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert len(rows) == 4
        assert [(rows[i].split(",")[0], rows[i].endswith(",1,")) for i in (1, 3)] == [
            ("mean", True), ("quotient2", True)]
        assert rows[2] == "sigma2root,,,,0,BrokenProcessPool: a child process terminated abruptly"
        assert (out / "mean" / "report.json").exists()
        assert not (out / "sigma2root" / "report.json").exists()

    def test_dead_worker_loses_its_whole_stack(self, tmp_path, capsys, monkeypatch):
        # four combinations dealt round-robin into two stacks of two, here
        # one per m: the worker of the second stack dies, and both its
        # members are lost
        class HalfDeadPool:
            def __init__(self, max_workers):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, payload):
                future = concurrent.futures.Future()
                if self.submitted == 0:
                    future.set_result(fn(payload))
                else:
                    future.set_exception(BrokenProcessPool("a child process terminated abruptly"))
                self.submitted += 1
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", HalfDeadPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = write_config(tmp_path / "s.ini", n_theta=16, t_end=0.1, dt_max="1e-2",
                           kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nm = 0 1\namplitude = 0.1 0.2\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 2
        rows = [row.split(",") for row in (out / "aggregate.csv").read_text().splitlines()[1:]]
        lost = "BrokenProcessPool: a child process terminated abruptly"
        assert [(r[0], r[4], r[5]) for r in rows] == [
            ("amplitude0.1_m0.0", "1", ""), ("amplitude0.1_m1.0", "0", lost),
            ("amplitude0.2_m0.0", "1", ""), ("amplitude0.2_m1.0", "0", lost)]
        stats = json.loads((out / "sweep_stats.json").read_text())["stacks"]
        assert stats[0]["steps"] == [10, 10] and stats[0]["wall_s"] > 0.0
        assert stats[1] == {"members": ["amplitude0.1_m1.0", "amplitude0.2_m1.0"],
                            "steps": [None, None], "wall_s": None}

    def test_fewer_groups_than_jobs_split_into_stacks(self, tmp_path, capsys, monkeypatch):
        # three combinations on --jobs 2 are dealt round-robin into two
        # stacks, one per worker, and each combination still writes its own
        # run's files
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        cfg = write_config(tmp_path / "s.ini", n_theta=16, t_end=0.05, kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\namplitude = 0.1 0.2 0.3\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
        stats = json.loads((out / "sweep_stats.json").read_text())
        assert stats["jobs"] == 2
        assert [s["members"] for s in stats["stacks"]] == [
            ["amplitude0.1", "amplitude0.3"], ["amplitude0.2"]]
        serial = tmp_path / "serial"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(serial), "--jobs", "1"]) == 0
        assert [s["members"] for s in json.loads(
            (serial / "sweep_stats.json").read_text())["stacks"]] == [
                ["amplitude0.1", "amplitude0.2", "amplitude0.3"]]
        for key in ("amplitude0.1", "amplitude0.2", "amplitude0.3"):
            for path in (out / key).iterdir():
                assert path.read_bytes() == (serial / key / path.name).read_bytes()

    def test_groups_split_up_to_the_jobs(self):
        # the combinations, whatever their m and f_kind, are dealt
        # round-robin into one stack per job; cmd_sweep caps the jobs at
        # the number of combinations
        combos = [(("amplitude", a), ("f_kind", f_kind), ("m", m))
                  for a in (0.1, 0.3) for f_kind in ("mean", "quotient2") for m in (0.0, 1.0)]
        assert cli._stacks(combos, 1) == [combos]
        assert cli._stacks(combos, 2) == [combos[0::2], combos[1::2]]
        assert cli._stacks(combos, 3) == [combos[0::3], combos[1::3], combos[2::3]]
        assert cli._stacks(combos, 8) == [[c] for c in combos]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        # --jobs 0 or below would run serially without a word: refused
        # before the config is read, with exit 2 and no output directory
        cfg = write_config(tmp_path / "s.ini", n_theta=16, t_end=0.05)
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nf_kind = mean sigma2root\n")
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs: must be at least 1, got {int(jobs)}" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_capped_by_the_affinity_mask(self, tmp_path, capsys, monkeypatch):
        # a machine of 4 CPUs, of which the process may run on one: --jobs 2
        # takes the serial path and builds no process pool
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError(f"a pool of {max_workers} workers was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = write_config(tmp_path / "s.ini", n_theta=16, t_end=0.05)
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nf_kind = mean sigma2root\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["mean", "sigma2root"]

    def test_unknown_sweep_f_kind_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.ini")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nf_kind = mean bogus\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[sweep] f_kind" in err and "bogus" in err
        assert not out.exists()


def test_run_and_check_load_no_process_pool():
    # only a sweep with --jobs above 1 imports the process pool
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(icflow.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, icflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestSweepCombos:
    def test_counting(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.ini", m=0.0, n_theta=64,
            kind="cosine_perturbation",
            initial_extra="r0 = 2.0\namplitude = 0.15\nwavenumber = 1",
            t_end=7.0,
        )
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nm = 0 1 2\nf_kind = mean sigma2root\n")
        rc = cfgmod.parse_run_config(cfg, allow_sweep=True)
        combos = cli.sweep_combos(rc)
        assert len(combos) == 6
        keys = {cli._combo_key(c) for c in combos}
        assert len(keys) == 6


class TestCustomTable:
    def test_custom_table_initial_data(self, tmp_path):
        theta = np.linspace(0.0, np.pi, 65)
        r = 1.5 + 0.1 * np.cos(theta)
        table = tmp_path / "r0.csv"
        table.write_text("\n".join("%.17g,%.17g" % (a, b) for a, b in zip(theta, r)))
        cfg = write_config(
            tmp_path / "c.ini", m=0.0, n_theta=32, kind="custom_table",
            initial_extra=f"table_path = {table}", t_end=0.3,
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("text", [
        "theta,r\n0.0,1.5\n3.2,1.5\n",       # header row
        "0.0,1.5\n3.2,nan\n",                 # non-finite radius
        "3.2,1.7\n1.6,2.0\n0.0,2.3\n",        # theta decreasing
    ])
    def test_malformed_table_rejected(self, tmp_path, text):
        table = tmp_path / "r0.csv"
        table.write_text(text)
        cfg = write_config(tmp_path / "c.ini", kind="custom_table",
                           initial_extra=f"table_path = {table}")
        with pytest.raises(ConfigError, match="table_path"):
            rc = cfgmod.parse_run_config(cfg)
            rc.flow.initial.radius_on(sp.build_grid("axisymmetric1d", 16))

    def test_custom_table_forbids_r0(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini", kind="custom_table",
            initial_extra="table_path = x.csv\nr0 = 1.0",
        )
        with pytest.raises(ConfigError, match="r0"):
            cfgmod.parse_run_config(cfg)
