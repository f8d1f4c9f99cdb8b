"""Exception types shared across the package.

Solver failures are kept distinct from "the requested mode does not
exist" conditions so callers (and the CLI exit-code contract) can tell
bad inputs apart from numerical trouble.
"""


class PcwgProbeError(Exception):
    """Base class for all package errors."""


class NoGuidedModeError(PcwgProbeError):
    """No guided solution inside the numerical bracket (e.g. fiber too thin)."""


class ConvergenceError(PcwgProbeError):
    """A root or eigenvalue search failed to converge to tolerance."""


class ModeCutoffError(PcwgProbeError):
    """Requested slab mode order is below cutoff at this thickness."""


class ProfileRangeError(PcwgProbeError):
    """Query outside the sampled range of a taper profile."""


class NoDefectModeError(PcwgProbeError):
    """No localized defect branch inside the bulk gap, or none with the wanted label."""


class EigensolverError(PcwgProbeError):
    """Dense eigensolve failed or produced non-physical output."""


class BandCoverageError(PcwgProbeError):
    """Band samples do not cover the requested spectral window."""


class UndefinedWidthError(PcwgProbeError):
    """A profile does not fall to half its maximum on both sides in its sweep."""


class InsufficientFringesError(PcwgProbeError):
    """Fewer fringe extrema than needed for a contrast fit."""


class NonPhysicalContrastError(PcwgProbeError):
    """Fringe contrast above 1; not invertible for a reflectivity."""


class ConfigError(PcwgProbeError):
    """Malformed or inconsistent run configuration."""


class MapFormatError(PcwgProbeError):
    """Malformed transmission-map CSV."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)
        self.line = line
        self.column = column
