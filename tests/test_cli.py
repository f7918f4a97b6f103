import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from icflow import background as bg
from icflow import cli
from icflow import config as cfgmod
from icflow import curvature as cf
from icflow import diagnostics as dg
from icflow import flow
from icflow import geometry as geo
from icflow import sphere as sp
from icflow.errors import ConfigError, InadmissibleState

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

[output]
directory = out
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
        ("output", "formats", "csv json"),
        ("report", "tol_rate_kappa", "0.15"),
        ("report", "tol_rate_grad", "0.15"),
        ("report", "tol_rate_hess", "0.10"),
        ("report", "limit_gap_tol", "0.02"),
        ("report", "metric_residual_tol", "5e-3"),
        ("report", "chi_ratio_max", "10.0"),
        ("flow", "dt_min", "1e-12"),
    ])
    def test_removed_key_rejected(self, tmp_path, section, key, value):
        p = write_config(tmp_path / "c.ini")
        p.write_text(p.read_text().replace(f"[{section}]", f"[{section}]\n{key} = {value}"))
        with pytest.raises(ConfigError, match=rf"unknown key \[{section}\] {key}$"):
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
        assert rc.output == cfgmod.OutputConfig()

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        p = tmp_path / "c.ini"
        p.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        rc = cfgmod.parse_run_config(p)
        assert rc.flow.grid_mode == "axisymmetric1d"
        assert rc.flow.initial.kind == "cosine_perturbation"
        assert rc.flow.f == cf.from_name("mean", 2)
        assert rc.report == dg.ReportConfig(window=(4.0, 9.0))

    def test_cfl_bound(self, tmp_path):
        p = tmp_path / "c.ini"
        txt = BASE.format(m=0, n_theta=48, kind="constant", initial_extra="r0 = 1.0",
                          t_end=1.0, dt_max="1e-3", report_extra="")
        p.write_text(txt.replace("[flow]", "[flow]\ncfl = 0.9"))
        with pytest.raises(ConfigError, match="cfl"):
            cfgmod.parse_run_config(p)

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


class TestRunCommand:
    def test_umbilic_run_exits_zero(self, tmp_path, capsys):
        prof = bg.build_warp_profile(bg.BackgroundParams(m=2.0, n=2), 6.0)
        r0 = float(prof.radius_from_lambda(2.0))
        cfg = write_config(
            tmp_path / "c.ini", m=2.0, n_theta=48,
            initial_extra=f"r0 = {r0!r}", t_end=3.0, dt_max="1e-3",
            report_extra="enable_rates = false\nenable_limit_profile = false",
        )
        out = tmp_path / "out"
        rcode = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rcode == 0
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
        assert report["overall_pass"] is True
        assert (out / "checkpoint.json").exists()
        assert (out / "report.txt").exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", m=1.0, n_theta=32,
                           kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1",
                           t_end=1.0,
                           report_extra="enable_rates = false\nenable_limit_profile = false")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        kw = dict(m=0.0, n_theta=32, kind="cosine_perturbation",
                  initial_extra="r0 = 1.0\namplitude = 0.2\nwavenumber = 1",
                  report_extra="enable_rates = false\nenable_limit_profile = false")
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

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_radius_beyond_table_range_exit_2(self, tmp_path, capsys, m):
        p = write_config(tmp_path / "c.ini", m=m, initial_extra="r0 = 800")
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "r_max" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_radius_past_gauge_limit_fails_fast(self, tmp_path, capsys, m):
        # r0 = 138 with t_end = 1 needs an extent of 140.5, just past the
        # largest finite table: the run stops before building a table and
        # says why in events.jsonl
        p = write_config(tmp_path / "c.ini", m=m, initial_extra="r0 = 138")
        out = tmp_path / "o"
        start = time.perf_counter()
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "r_max" in capsys.readouterr().err
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["kind"] for e in events] == ["failed"]
        assert events[0]["error"].startswith("TableExtentError")

    def test_events_file(self, tmp_path):
        p = write_config(tmp_path / "c.ini", m=1.0, n_theta=32,
                         kind="cosine_perturbation",
                         initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1",
                         report_extra="enable_rates = false\nenable_limit_profile = false")
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
        kw = dict(n_theta=32, report_extra="enable_rates = false\nenable_limit_profile = false")
        cfg_first = write_config(tmp_path / "first.ini", t_end=1.0, **kw)
        cfg_again = write_config(tmp_path / "again.ini", t_end=t_end, **kw)
        first = tmp_path / "first"
        assert cli.main(["run", "--config", str(cfg_first), "--out", str(first)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", str(cfg_again), "--out", str(tmp_path / "r"),
                         "--resume", str(first / "checkpoint.json")]) == 2
        assert "t_end" in capsys.readouterr().err

    def test_one_limit_profile_per_run(self, tmp_path, monkeypatch):
        # the report and limit_profile.csv share one profile, which reads the
        # metrics stored at the snapshots instead of recomputing them
        cfg = write_config(tmp_path / "c.ini", m=1.0, n_theta=32,
                           kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1")
        n_profile = count_calls(monkeypatch, dg.limit_profile)
        n_ext = count_calls(monkeypatch, geo.compute_extrinsic)
        n_steps = count_calls(monkeypatch, flow.step)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert n_profile["n"] == 1
        assert n_steps["n"] > 0
        assert n_ext["n"] == 2 * n_steps["n"] + 1
        report = json.loads((out / "report.json").read_text())
        rows = (out / "limit_profile.csv").read_text().splitlines()
        assert report["limit_gap"] is not None and len(rows) == 33

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
        assert (dg.LIMIT_GAP_TOL, dg.METRIC_RESIDUAL_TOL, dg.CHI_RATIO_MAX) == (0.02, 5e-3, 10.0)


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

    def test_erroring_combination_exit_2(self, tmp_path, capsys):
        # amplitude 3 makes the initial radius negative: that combination
        # raises, the other passes, and aggregate.csv still lists both
        cfg = write_config(tmp_path / "s.ini", m=1.0, n_theta=32, kind="cosine_perturbation",
                           initial_extra="r0 = 2.0\namplitude = 0.2\nwavenumber = 1",
                           report_extra="enable_rates = false\nenable_limit_profile = false")
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

    def test_unwritable_aggregate_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.ini", n_theta=32, t_end=0.1,
                           report_extra="enable_rates = false\nenable_limit_profile = false")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nf_kind = mean\n")
        out = tmp_path / "sweep"
        (out / "aggregate.csv").mkdir(parents=True)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS mean" in captured.out
        assert f"cannot write {out / 'aggregate.csv'}" in captured.err

    def test_unknown_sweep_f_kind_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.ini")
        with open(cfg, "a") as fh:
            fh.write("\n[sweep]\nf_kind = mean bogus\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[sweep] f_kind" in err and "bogus" in err
        assert not out.exists()


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
            report_extra="enable_rates = false\nenable_limit_profile = false",
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
