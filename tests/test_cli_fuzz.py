"""Property test of the exit-code contract: `icflow run` on any small
config returns 0 (every check passed), 1 (a check failed) or 2 (a config or
runtime error), and never lets another exception escape.

Configs are drawn around valid short runs: N_theta <= 64 and t_end <= 0.05
in axisymmetric mode, N_theta <= 20, n_psi <= 64 and t_end <= 0.005 in
lat-long mode (whose pole-row stability bound takes many more steps), and at
most one key per config takes a value outside its valid range. Initial
radii span 0.05 to 1e4, past the largest warp table (r = 18.3, where the
gauge stops resolving radius). The seed is fixed, so every run draws the
same 40 configs.
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
    ("flow", "cfl"): ["0", "0.6"],
    ("flow", "dt_min"): ["0.05"],
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
        t_end = draw(num(1e-4, 0.005))
    initial = {"r0": draw(num(0.05, 1e4))}
    if draw(st.booleans()):
        initial.update(kind="cosine_perturbation", amplitude=draw(num(-3.0, 3.0)),
                       wavenumber=draw(st.integers(0, 4)))
    else:
        initial.update(kind="constant")
    flow = {
        "f_kind": draw(st.sampled_from(["mean", "sigma2root", "quotient2"])),
        "t_end": t_end,
        "cfl": draw(num(0.05, 0.5)),
        "output_every": draw(num(0.005, 0.1)),
        "dt_max": draw(num(1e-4, 0.05)),
        "dt_min": draw(st.sampled_from(["1e-12", "1e-6"])),
    }
    background = {"m": draw(num(0.0, 4.0)), "n": 2}
    sections = {"background": background, "grid": grid, "initial": initial, "flow": flow}
    broken = draw(st.one_of(st.none(), st.sampled_from(sorted(INVALID))))
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
