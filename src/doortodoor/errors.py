"""Exception hierarchy shared across the package."""


class DoorToDoorError(Exception):
    """Base class for all package errors."""


class ValidationError(DoorToDoorError):
    """Malformed or inconsistent input data.

    Carries the source path and 1-based line number when the problem is
    attributable to a specific row of an input file.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class FitUndefinedError(DoorToDoorError):
    """Regression requested on a degenerate sample set."""


class SensitivityUndefinedError(DoorToDoorError):
    """No zone has ride statistics in both periods of a delay comparison."""
