"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A solver configuration violates one of its invariants."""


class NumericError(ArithmeticError):
    """A numerical kernel failed; the message carries diagnostics."""
