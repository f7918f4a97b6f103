"""Exception types shared across the package."""


class IcflowError(Exception):
    """Base class for all icflow errors."""


class NonPositiveDimension(IcflowError):
    """Sphere dimension n < 2 is not supported."""


class NegativeMass(IcflowError):
    """Mass parameter m must be nonnegative."""


class MassTooSmall(IcflowError):
    """A positive mass below M_MIN (machine epsilon), whose horizon the
    warp table cannot resolve."""


class TableExtentError(IcflowError):
    """A radius, warp value or gauge value fell outside the tabulated range,
    or a table extent lies past R_TABLE_LIMIT (r = 140), where the warp
    tables stop being finite. Values are never silently extrapolated.
    """


class ResolutionTooSmall(IcflowError):
    """Grid resolution below the supported minimum."""


class InadmissibleCurvatures(IcflowError):
    """Principal curvatures left the admissibility cone of the curvature function."""


class InadmissibleState(IcflowError):
    """A flow state has at least one node outside the admissibility cone.

    Carries the flow time ``t``, the flat ``node`` index of the worst
    offender and its principal curvatures ``kappa``.
    """

    def __init__(self, message, t=None, node=None, kappa=None):
        super().__init__(message)
        self.t = t
        self.node = node
        self.kappa = kappa


class StepUnderflow(IcflowError):
    """The stability-limited time step fell below dt_min."""


class InsufficientData(IcflowError):
    """Not enough usable snapshots for a rate fit or profile extraction."""


class FlowError(IcflowError):
    """Internal inconsistency detected during time integration."""


class ConfigError(IcflowError):
    """Invalid or malformed run configuration."""
