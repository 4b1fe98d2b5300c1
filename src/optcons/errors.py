"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario or weight configuration is invalid.

    Carries the full list of violations so callers can report all of
    them at once instead of fixing one at a time.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PreconditionError(ValueError):
    """A documented algorithm precondition does not hold (e.g. graph connectivity)."""


class NumericError(RuntimeError):
    """A numeric computation produced non-finite values or an unsolvable system."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row  # the failing row of a stack, when known
