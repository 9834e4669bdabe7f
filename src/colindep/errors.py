"""Exception and warning types shared across the package."""


class ColindepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ColindepError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateAxis(InvalidInput):
    """A row or column has zero variance and cannot be standardized."""

    def __init__(self, axis: str, index: int):
        self.axis = axis
        self.index = index
        super().__init__(f"{axis} {index} has zero variance")


class NonConvergence(ColindepError, RuntimeError):
    """An iterative procedure failed to reach its tolerance."""


class NumericalError(ColindepError, RuntimeError):
    """A numerical backend (an eigensolver or SVD) failed."""


class CalibrationFailure(ColindepError, RuntimeError):
    """Root finding for a simulation parameter could not bracket the target."""


class ParseError(ColindepError, ValueError):
    """Malformed tabular input; carries a 1-based row/column location."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None and column is not None:
            loc = f" (row {row}, column {column})"
        elif row is not None:
            loc = f" (row {row})"
        super().__init__(message + loc)


class DegenerateEigengapWarning(UserWarning):
    """Top two eigenvalues are nearly equal; the first eigenvector is unstable."""
