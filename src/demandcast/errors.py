"""Exception hierarchy shared across the package.

Every error raised on purpose derives from DemandcastError so callers can
catch one base class. The split mirrors how the command line reports
failures: configuration and data problems exit with status 1, numerical
convergence problems with status 2.
"""


class DemandcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DemandcastError):
    """A parameter or configuration value is out of its legal range."""


class DataError(DemandcastError):
    """Input data violates a precondition (shape, range, length, order)."""


class ShapeError(DataError):
    """An array has the wrong length or dimensionality."""


class ParseError(DataError):
    """A text input (CSV, config file, snapshot) could not be parsed."""


class GapError(DataError):
    """A time series is not contiguous at the expected half-hour spacing."""


class DegenerateError(DataError):
    """Data has no variation where variation is required."""


class EmptyModelError(DemandcastError):
    """An operation needs a trained or non-empty model."""


class ConvergenceError(DemandcastError):
    """An iterative fit stopped without meeting its convergence criterion.

    The last iterate is attached so callers can inspect how far the fit got.
    """

    def __init__(self, message, last_params=None):
        super().__init__(message)
        self.last_params = last_params


class DivergenceError(DemandcastError):
    """Training produced a non-finite objective value."""
