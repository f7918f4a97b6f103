"""Exception types shared across the package, and the two type tests
that library inputs are judged by.

Every failure is an IcflowError, which the command line maps to exit 2.
Every input the program rejects, from a config file or a library call,
raises ConfigError; the other types name what went wrong on the way.
Data too scarce for a rate fit or the limit profile is no error: the
report notes that check as insufficient.
"""

import math
import numbers


def is_integer(value) -> bool:
    """True for an integer; a bool, a float or a string is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a finite real number; a bool, a string or None is not one."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


class IcflowError(Exception):
    """Base class for all icflow errors."""


class TableExtentError(IcflowError):
    """A radius or gauge value fell outside a warp profile's range (one past
    the top is named by its radius) or was not finite (NaN or an infinity),
    or a cap was asked past background.R_MAX (r = 177), where a snapshot
    overflows. Values are never silently extrapolated.
    """


class InadmissibleState(IcflowError):
    """Principal curvatures left the admissibility cone of the curvature
    function.

    Carries the flow time ``t`` (None outside a flow), the ``node`` index
    of the worst offender and its principal curvatures ``kappa``. The
    stepper retries a step that raises it with halved dt.
    """

    def __init__(self, message, t=None, node=None, kappa=None):
        super().__init__(message)
        self.t = t
        self.node = node
        self.kappa = kappa


class StepUnderflow(IcflowError):
    """The stability-limited time step fell below flow.DT_MIN."""


class FlowError(IcflowError):
    """Internal inconsistency detected during time integration, or a sweep
    worker process that died before returning its run."""


class ConfigError(IcflowError):
    """Any input the program rejects: a malformed or out-of-range config
    value, library parameter, grid, curvature function, file or start
    time."""
