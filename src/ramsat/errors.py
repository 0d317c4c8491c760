"""Exception types shared across the package."""


class BudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its documented hard cap."""


class ConsistencyError(RuntimeError):
    """An internal well-definedness check failed.

    The transforms between subset colorings and graphs carry conditions that
    are provably mutually exclusive; tripping this means a bug in the
    implementation, not bad input.
    """


class ParseError(ValueError):
    """Malformed text input, annotated with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UsageError(Exception):
    """A command line no command accepts; the CLI exits 3 without a certificate."""


def refuse(given, flag: str, where: str) -> None:
    """A usage error when ``flag`` was given ``where`` it changes nothing."""
    if given is not None:
        raise UsageError(f"{flag} changes nothing {where}")
