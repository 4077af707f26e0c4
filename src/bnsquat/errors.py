"""Exception types shared across the toolkit."""


class BnsquatError(Exception):
    """Base class for all toolkit errors."""


class EmptyLabel(BnsquatError):
    """Raised when a raw name has no label left after stripping separators."""


class UnknownNamespace(BnsquatError):
    """Raised for a namespace string that is not eth, ud:<tld>, or adah."""


class ParseError(BnsquatError):
    """Raised for a malformed fixture record. Carries line number and field."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        loc = ""
        if line is not None:
            loc += f" (line {line}"
            loc += f", field {field!r})" if field else ")"
        elif field:
            loc += f" (field {field!r})"
        super().__init__(message + loc)


class InvalidField(ValueError):
    """A record constructor rejected one field's value; record parsers turn it
    into a ParseError naming that field and the record's line."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


class MissingRate(BnsquatError):
    """No USD closing rate for a (date, asset) pair."""

    def __init__(self, date, asset: str):
        self.date = date
        self.asset = asset
        super().__init__(f"no USD rate for {asset} on {date}")


class ZeroVector(BnsquatError):
    """Cosine similarity is undefined for an all-zero vector."""


class InsufficientNames(BnsquatError):
    """Too few names for the requested similarity aggregate."""


class SourceExhaustedAbnormally(BnsquatError):
    """More than 1% of a source's records failed to parse."""


class MissingPrerequisite(BnsquatError):
    """A pipeline stage was run before the stage it depends on."""


class ConfigError(BnsquatError):
    """Invalid run configuration."""
