"""Property test of the exit-code contract: `icflow run` on any small
config returns 0 (every check passed), 1 (a check failed) or 2 (a config or
runtime error), and never lets another exception escape.

Configs are drawn around valid short runs: t_end <= 0.05 in both grid
modes, N_theta <= 64 in axisymmetric mode and N_theta <= 20, n_psi <= 64 in
lat-long mode, and at most one key per config (about a third of them)
takes a value outside its valid range. Initial radii lie in 0.05 to 30,
except that one draw in eight takes r0 = 500, past the largest radius a
warp profile accepts (R_MAX, r = 177); perturbation amplitudes lie mostly
below r0. Masses are 0, in 0.01 to 4, or in [0, 0.01) down to subnormals,
which keeps both the graded-horizon tables and the exit for masses below
M_MIN in the draw.
Most valid draws reach the flow and the report, which judges every check.
The seed is fixed, so every run draws the same 40 configs.
"""

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from icflow import cli


def render(sections):
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def num(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


# at most one key per config takes a value outside its valid range
INVALID = {
    ("grid", "n_theta"): ["8", "15"],
    ("grid", "n_psi"): ["31", "34"],
    ("initial", "r0"): ["0", "-1.0"],
    ("flow", "t_end"): ["0", "-0.01"],
    ("flow", "dt_max"): ["0", "1e-13"],
}


@st.composite
def run_configs(draw):
    if draw(st.booleans()):
        grid = {"mode": "axisymmetric1d", "n_theta": draw(st.integers(16, 64))}
        t_end = draw(num(1e-4, 0.05))
    else:
        n_theta = draw(st.integers(16, 20))
        grid = {"mode": "latlong2d", "n_theta": n_theta,
                "n_psi": 2 * draw(st.integers(n_theta, 32))}
        t_end = draw(num(1e-4, 0.05))
    far = draw(st.sampled_from([False] * 7 + [True]))
    r0 = 500.0 if far else draw(st.floats(0.05, 30.0))
    initial = {"r0": repr(r0)}
    if draw(st.booleans()):
        # |amplitude| < r0 keeps the radius positive; one draw in eight leaves it
        amplitude = r0 * draw(st.floats(-1.0, 1.0)) * draw(st.sampled_from([0.9] * 7 + [3.0]))
        initial.update(kind="cosine_perturbation", amplitude=repr(amplitude),
                       wavenumber=draw(st.integers(0, 4)))
    else:
        initial.update(kind="constant")
    flow = {
        "f_kind": draw(st.sampled_from(["mean", "sigma2root", "quotient2"])),
        "t_end": t_end,
        "output_every": draw(num(0.005, 0.1)),
        "dt_max": draw(num(1e-4, 0.05)),
    }
    background = {"m": draw(st.one_of(st.just("0.0"), num(0.01, 4.0), num(0.0, 0.01))),
                  "n": 2}
    sections = {"background": background, "grid": grid, "initial": initial, "flow": flow}
    broken = draw(st.one_of(st.none(), st.none(), st.sampled_from(sorted(INVALID))))
    if broken is not None:
        sections[broken[0]][broken[1]] = draw(st.sampled_from(INVALID[broken]))
    return render(sections)


@seed(0)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=run_configs())
def test_run_exit_code_is_0_1_or_2(tmp_path, capsys, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code in (0, 1, 2)
