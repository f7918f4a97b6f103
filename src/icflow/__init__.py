"""Inverse curvature flow of star-shaped hypersurfaces in an
AdS-Schwarzschild background, with built-in convergence diagnostics."""

from .background import (
    BackgroundParams,
    WarpProfile,
    ambient_sectional,
    build_warp_profile,
    solve_horizon,
)
from .curvature import CurvatureFunction, cone_contains, f_eval, f_grad, from_name
from .diagnostics import (
    DiagnosticsRecord,
    DiagnosticsSeries,
    ReportConfig,
    fit_rate,
    limit_profile,
    snapshot,
    theorem_report,
)
from .flow import FlowConfig, FlowEvent, InitialData, evaluate, run, stable_dt, step
from .geometry import (
    GraphState,
    compute_extrinsic,
    state_from_radius,
)
from .sphere import ScalarField, SphereGrid, build_grid

__version__ = "0.1.0"
