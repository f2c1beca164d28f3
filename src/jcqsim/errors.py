"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A physical parameter or argument is outside its valid range."""


class SpecValidationError(ValueError):
    """A sweep or search specification is malformed."""


class ConfigError(ValueError):
    """A CLI configuration file or flag set cannot be interpreted."""


class DimensionError(ValueError):
    """Matrix arguments have unsupported or mismatched dimensions."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian is not."""


class DomainError(ValueError):
    """A numerical operation left its valid domain."""


class NotAStateError(DomainError):
    """A matrix is not a valid density operator."""


class BracketError(RuntimeError):
    """A critical-point search bracket does not contain the sought crossing."""
