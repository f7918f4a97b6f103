"""Every input the library rejects raises ConfigError, whatever layer
rejects it: the grid, the background, the curvature function, the initial
data, the flow or report configuration or the start state of a run. The
background's and the grid resolution's range rejections are tested
beside them, in test_background and test_sphere."""

import numpy as np
import pytest

from icflow import background as bg
from icflow import curvature as cf
from icflow import diagnostics as dg
from icflow import flow
from icflow import geometry as geo
from icflow import sphere as sp
from icflow.errors import ConfigError


def flow_config(**kw):
    args = dict(background=bg.BackgroundParams(m=0.0, n=2), grid_mode="axisymmetric1d",
                grid_resolution=16, initial=flow.InitialData(kind="constant", r0=1.0),
                f=cf.from_name("mean", 2), t_end=0.5)
    args.update(kw)
    return flow.FlowConfig(**args)


def table(theta, r):
    return flow.InitialData(kind="custom_table", table_theta=theta, table_r=r)


def run_from_t_end():
    grid = sp.build_grid("axisymmetric1d", 16)
    prof = bg.build_warp_profile(bg.BackgroundParams(m=0.0, n=2), 5.0)
    flow.run(flow_config(), initial_state=geo.state_from_radius(grid, prof, np.ones(16), t=0.5))


REJECTIONS = {
    "grid_mode": (lambda: sp.build_grid("cubed", 16), "unknown grid mode"),
    "grid_latlong_one_count": (lambda: sp.build_grid("latlong2d", 24),
                               r"latlong2d resolution must be a pair"),
    "grid_latlong_three_counts": (lambda: sp.build_grid("latlong2d", (24, 48, 2)),
                                  r"latlong2d resolution must be a pair"),
    "grid_axisymmetric_pair": (lambda: sp.build_grid("axisymmetric1d", (24, 48)),
                               r"n_theta must be an integer, got \(24, 48\)"),
    "grid_text": (lambda: sp.build_grid("axisymmetric1d", "abc"),
                  "n_theta must be an integer, got 'abc'"),
    "grid_fraction": (lambda: sp.build_grid("axisymmetric1d", 24.7),
                      r"n_theta must be an integer, got 24\.7"),
    "grid_bool": (lambda: sp.build_grid("axisymmetric1d", True), "n_theta must be an integer"),
    "grid_n_psi_fraction": (lambda: sp.build_grid("latlong2d", (24, 48.5)),
                            r"n_psi must be an integer, got 48\.5"),
    "background_m_nan": (lambda: bg.BackgroundParams(m=float("nan")),
                         "mass parameter must be finite"),
    "background_m_inf": (lambda: bg.BackgroundParams(m=float("inf")),
                         "mass parameter must be finite"),
    "background_n_nan": (lambda: bg.BackgroundParams(m=1.0, n=float("nan")),
                         "sphere dimension must be an integer >= 2"),
    "background_m_text": (lambda: bg.BackgroundParams(m="1"),
                          "mass parameter must be finite and real, got '1'"),
    "background_n_text": (lambda: bg.BackgroundParams(m=1, n="2"),
                          "sphere dimension must be an integer >= 2, got '2'"),
    "initial_wavenumber_fraction": (
        lambda: flow.InitialData(kind="cosine_perturbation", r0=2.0, amplitude=0.1,
                                 wavenumber=1.5),
        r"wavenumber must be an integer, got 1\.5"),
    "field_shape": (lambda: sp.ScalarField(sp.build_grid("axisymmetric1d", 16), np.ones(5)),
                    "field shape"),
    "f_kind": (lambda: cf.CurvatureFunction("harmonic", 2), "unknown curvature function kind"),
    "f_order": (lambda: cf.CurvatureFunction("sigma_k_root", 2, k=3), "order k=3"),
    "f_order_fraction": (lambda: cf.CurvatureFunction("sigma_k_root", n=3, k=2.5),
                         r"n and k must be integers, got n=3, k=2\.5"),
    "f_none": (lambda: flow_config(f=None), "f must be a CurvatureFunction, got None"),
    "f_name": (lambda: cf.from_name("sigma3root", 2), "unknown curvature function name"),
    "f_name_list": (lambda: cf.from_name([], 2), r"unknown curvature function name \[\]"),
    "f_dimension_mean": (lambda: flow_config(f=cf.from_name("mean", 3)), "normalised for n = 3"),
    "f_dimension_sigma2root": (lambda: flow_config(f=cf.from_name("sigma2root", 3)),
                               "normalised for n = 3"),
    "f_dimension_quotient2": (lambda: flow_config(f=cf.from_name("quotient2", 3)),
                              "normalised for n = 3"),
    "t_end_inf": (lambda: flow_config(t_end=float("inf")), "t_end must be positive and finite"),
    "t_end_text": (lambda: flow_config(t_end="1"), "t_end must be positive and finite, got '1'"),
    "dt_max_text": (lambda: flow_config(dt_max="1e-3"), "dt_max must be finite"),
    "output_every_nan": (lambda: flow_config(output_every=float("nan")), "output_every"),
    # snapshot times within the landing tolerance of each other would be
    # written again and again at one t
    "output_every_at_landing_tolerance": (
        lambda: flow_config(output_every=flow.LAND_TOL),
        r"output_every must exceed LAND_TOL = 1e-12, got 1e-12"),
    "start_at_t_end": (run_from_t_end, "nothing to run"),
    "initial_kind": (lambda: flow.InitialData(kind="sphere", r0=1.0),
                     "unknown initial data kind"),
    "initial_r0_nan": (lambda: flow.InitialData(kind="constant", r0=float("nan")),
                       "r0 and amplitude must be finite"),
    "initial_r0_text": (lambda: flow.InitialData(kind="constant", r0="2"),
                        "r0 and amplitude must be finite numbers, got '2'"),
    "initial_amplitude_inf": (lambda: flow.InitialData(kind="cosine_perturbation", r0=2.0,
                                                       amplitude=float("inf")),
                              "r0 and amplitude must be finite"),
    "table_missing": (lambda: flow.InitialData(kind="custom_table"), "custom_table needs"),
    "table_lengths": (lambda: table((0.0, 1.6, 3.2), (1.5, 1.5)), "custom_table needs"),
    "table_one_row": (lambda: table((0.0,), (1.5,)), "custom_table needs"),
    "table_text": (lambda: table(("a", "b"), (1, 2)),
                   "custom_table: table_theta and table_r must be numbers"),
    "table_ragged": (lambda: table(((0.0, 1.0), (2.0,)), (1, 2)),
                     "custom_table: table_theta and table_r must be numbers"),
    "group_of_two_grids": (lambda: flow.run_group([flow_config(), flow_config(grid_resolution=32)]),
                           "must share the grid, the background and F"),
    "table_nan": (lambda: table((0.0, 3.2), (1.5, float("nan"))), "custom_table needs"),
    "table_theta_decreasing": (lambda: table((3.2, 1.6, 0.0), (1.5, 1.6, 1.5)),
                               "strictly increasing"),
    # theta in degrees covers every grid, and would read as nearly round
    "table_in_degrees": (lambda: table((0.0, 90.0, 180.0), (1.5, 1.6, 1.5)),
                         r"theta is in radians, got theta up to 180, past 2 pi"),
    # theta over [0, 1] on N_theta = 32: np.interp would hold 22 nodes at
    # the table's last r
    "table_short_of_the_grid": (
        lambda: table((0.0, 1.0), (1.5, 1.6)).radius_on(sp.build_grid("axisymmetric1d", 32)),
        r"theta must cover the grid's nodes \[0\.0490874, 3\.09251\] \(radians\), got \[0, 1\]"),
    "report_window_reversed": (lambda: dg.ReportConfig(window=(9.0, 4.0)),
                               r"0 <= start < end"),
    "report_window_one_value": (lambda: dg.ReportConfig(window=(1,)),
                                r"rate window must be a pair .*, got \(1,\)"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_library_rejection_raises_config_error(case):
    call, message = REJECTIONS[case]
    with pytest.raises(ConfigError, match=message):
        call()
