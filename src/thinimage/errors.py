"""Exception types shared across the package."""


class ThinImageError(Exception):
    """Base class for package errors."""


class ConfigError(ThinImageError):
    """Invalid configuration value or file."""


class GeometryError(ThinImageError):
    """Degenerate, self-intersecting, or out-of-domain geometry."""


class ResonanceError(ThinImageError):
    """Frequency too close to a Neumann eigenvalue of the disk."""


class DataStateError(ThinImageError):
    """Operation incompatible with the dataset's state (e.g. noise twice)."""


class FlatMapError(ThinImageError):
    """Normalization of an identically-flat imaging map."""


class RidgeError(ThinImageError):
    """Ridge extraction found no distinguished points."""


class FitError(ThinImageError):
    """Curve fit underdetermined or degenerate."""
