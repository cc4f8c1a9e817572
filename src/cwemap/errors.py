"""Exception hierarchy shared across the package.

CLI exit-code mapping: input/format/validation/configuration problems exit
with 2, training failures with 3, model integrity/version problems with 4.
"""


class CwemapError(Exception):
    """Base class for all package errors."""


class ValidationError(CwemapError):
    """Input data violates a documented invariant."""


class FormatError(CwemapError):
    """A document is not in the expected external format; the message is
    prefixed with the offending location (``path``, ``path:line``) when given."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class ConfigurationError(CwemapError):
    """Inconsistent or incomplete configuration for an operation."""


class TrainingError(CwemapError):
    """Training could not be carried out."""


class IntegrityError(CwemapError):
    """A persisted model fails an integrity check."""


class VersionError(CwemapError):
    """A persisted model uses an unsupported format version."""
