"""Exception hierarchy shared across the package.

Every error that a CLI subcommand maps to a distinct exit code lives here,
so the mapping stays in one place.
"""


class Ar1FptError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ConfigError(Ar1FptError):
    """Invalid configuration: schema violation or a broken invariant."""

    exit_code = 2


class NoCrossingError(Ar1FptError):
    """The level cannot be crossed (no innovation mass above a(1-lambda))."""

    exit_code = 3


class DivergenceError(Ar1FptError):
    """An improper integral or the cumulant series fails to converge."""

    exit_code = 4


class SeriesDivergenceError(DivergenceError):
    """The limit-cumulant series needs more terms K(u) than its budget K_MAX."""


class InfeasibleTruncationError(Ar1FptError):
    """A truncation transform cannot produce the required positive atom."""

    exit_code = 5


class CertificateInfeasibleError(Ar1FptError):
    """No admissible transform order yields a valid exponential certificate."""

    exit_code = 5


class UnsupportedSamplerError(Ar1FptError):
    """Sampling requested for a family without a supported sampler."""

    exit_code = 5


class CoverageError(Ar1FptError):
    """The simulation cannot carry the identity: an h table built for another
    problem, no h(Z) fold, no crossed path, or an identity that is not finite."""

    exit_code = 6
