"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: validation -> 2, calibration -> 3,
estimation -> 4.
"""

from typing import get_type_hints

import numpy as np


class EntmemError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ValidationError(EntmemError):
    """Invalid input value, state, or configuration; `field` names a field outside its Range."""

    exit_code = 2
    field: str | None = None


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


class Range:
    """The interval a Section field's value must lie in: Range(0, 1) is [0, 1] and
    Range(0, 0.5, "()") is (0, 0.5). An infinite end is written open, so that no value in
    a Range is inf or NaN."""

    def __init__(self, lo: float, hi: float, ends: str = "[]"):
        self.lo, self.hi, self.ends = lo, hi, ends

    def __contains__(self, x) -> bool:
        above = self.lo < x if self.ends[0] == "(" else self.lo <= x
        return above and (x < self.hi if self.ends[1] == ")" else x <= self.hi)

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"


class Section:
    """Base of the scenario sections: a dataclass field annotated Annotated[float, Range(...)]
    is checked against its Range on construction, before any check the subclass adds."""

    def __init_subclass__(cls):
        hints = get_type_hints(cls, include_extras=True).items()
        cls.ranges = tuple((k, h.__metadata__[0]) for k, h in hints if hasattr(h, "__metadata__"))

    def __post_init__(self):
        for name, r in self.ranges:
            if getattr(self, name) not in r:
                exc = ValidationError(f"{name} is {getattr(self, name)!r}, outside {r}")
                exc.field = name
                raise exc
