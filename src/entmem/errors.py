"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: validation -> 2, calibration -> 3,
estimation -> 4.
"""

import numpy as np


class EntmemError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ValidationError(EntmemError):
    """Invalid input value, state, or configuration."""

    exit_code = 2


class ConfigurationError(ValidationError):
    """Structurally broken configuration (duplicate settings, bad schema)."""


class CalibrationError(EntmemError):
    """A calibration target cannot be reached within parameter bounds."""

    exit_code = 3


class EstimationError(EntmemError):
    """An estimator could not produce a value from the given data."""

    exit_code = 4


def nan_or_raise(values, undefined, one: bool, message: str):
    """An estimate over a stack of inputs, NaN where undefined; for one input (one=True)
    a float (if 0-d) or array, or EstimationError(message) if any value is undefined."""
    if not one:
        return np.where(undefined, np.nan, values)
    if undefined.any():
        raise EstimationError(message)
    return float(values) if values.ndim == 0 else values
