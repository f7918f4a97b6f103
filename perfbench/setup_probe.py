"""Time one icflow set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG.ini run|sweep

Set-up is everything before the first time step: `import icflow`, the
config parse, and for each run the grid, the warp table, the initial
state and `DiagnosticsSeries.start`, called with the arguments
`flow.run` uses. A sweep sets up each of its combinations. The last line
of output holds the set-up seconds, from this file's first statement on
(interpreter start-up is not included), and the mean time of the
calibration kernel, which runs after the import, after each set-up and
twenty times at the end.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

KERNEL_SAMPLES = 20


def combo_flow_config(flow_cfg, combo, curvature):
    """The FlowConfig of one sweep combination, as `icflow sweep` builds it."""
    for key, val in combo:
        if key == "m":
            flow_cfg = replace(flow_cfg, background=replace(flow_cfg.background, m=val))
        elif key == "f_kind":
            flow_cfg = replace(flow_cfg, f=curvature.from_name(val, flow_cfg.background.n))
        elif key == "amplitude":
            flow_cfg = replace(flow_cfg, initial=replace(flow_cfg.initial, amplitude=val))
    return flow_cfg


def main(argv) -> int:
    src, ini, kind = argv[1], argv[2], argv[3]
    sys.path.insert(0, src)
    import icflow
    if Path(icflow.__file__).resolve().parent != Path(src).resolve() / "icflow":
        raise SystemExit(f"icflow was imported from {icflow.__file__}, not from {src}")
    from icflow import background, cli, config, curvature, diagnostics, geometry, sphere

    # numpy is loaded now, so the calibration kernel can run between the
    # set-up steps; its own time is taken out of the set-up time
    import calibration
    samples = [calibration.timed_kernel()]
    sweep = kind == "sweep"
    cfg = config.parse_run_config(ini, allow_sweep=sweep)
    flows = ([combo_flow_config(cfg.flow, c, curvature) for c in cli.sweep_combos(cfg)]
             if sweep else [cfg.flow])
    for fc in flows:
        grid = sphere.build_grid(fc.grid_mode, fc.grid_resolution)
        r0 = fc.initial.radius_on(grid)
        r_max = float(r0.max()) + fc.t_end / fc.background.n + 2.0
        profile = background.build_warp_profile(fc.background, r_max)
        state = geometry.state_from_radius(grid, profile, r0, t=0.0)
        diagnostics.DiagnosticsSeries.start(state, fc.f)
        samples.append(calibration.timed_kernel())
    elapsed = time.perf_counter() - T0 - sum(samples)
    samples += [calibration.timed_kernel() for _ in range(KERNEL_SAMPLES)]
    print(repr(elapsed), repr(sum(samples) / len(samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
