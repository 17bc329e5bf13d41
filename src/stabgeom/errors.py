"""Exception types shared across the package.

Everything raised for a *bad input* (as opposed to a programming error)
derives from StabgeomError, so callers and the CLI can catch one base class.
"""


class StabgeomError(ValueError):
    """Base class for all input-domain errors raised by this package."""


class UsageError(StabgeomError):
    """The command line does not match the CLI's arguments."""


class SchemaError(StabgeomError):
    """A JSON document does not match the configuration schema."""


class FrameDegenerateError(StabgeomError):
    """The frame points of a configuration are not in general position."""


class DegenerateConfigurationError(StabgeomError):
    """A configuration does not span its ambient space."""


class RowEliminationError(StabgeomError):
    """No kernel basis with all rows nonzero exists for this configuration."""


class SubsetTooLargeError(StabgeomError):
    """Exhaustive subset enumeration was requested beyond its size cap."""


class SizeMismatchError(StabgeomError):
    """The number of points does not match the expected r*g."""


class SingularPointError(StabgeomError):
    """A polar image was requested at a singular point."""
