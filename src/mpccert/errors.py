"""Exception types shared across the package."""

from __future__ import annotations


class MpcCertError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MpcCertError):
    """Invalid configuration: bad dimensions, horizons, weights or options."""


class PlantFormatError(ConfigError):
    """A plant description file could not be parsed.

    Carries the 1-based line number at which parsing failed, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AdmissibilityError(MpcCertError):
    """A state or control lies outside the plant's admissible set.

    Nothing in the package checks admissibility yet; this is the error a
    row-wise admissibility check on the plant is to raise.
    """


class SolverError(MpcCertError):
    """The finite-horizon solver failed to produce a usable solution."""
