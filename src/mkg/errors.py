"""Exception types shared across the package."""


class MkgError(Exception):
    """Base class for all package errors."""


class RadiusExceeded(MkgError):
    """Field amplitude left the validity radius of the target-space metric."""


class IndefiniteCoupling(MkgError):
    """Gauge-coupling matrix family cannot guarantee positive definiteness."""


class NonFinite(MkgError):
    """NaN or Inf appeared in an evolved field."""


class TraceTooShort(MkgError):
    """A diagnostics trace has too few records for an audit."""


class NonUniformSampling(MkgError):
    """A diagnostics trace is not uniformly sampled in time."""


class ConfigError(MkgError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Config file failed to parse or contained an unknown key."""


class ValidationError(ConfigError):
    """Config value violated a constraint."""
