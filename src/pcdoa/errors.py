"""Exception types shared across the package."""

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain."""


class IdentifiabilityError(ValueError):
    """The scenario violates an identifiability requirement (e.g. L >= M)."""


class RankDeficiencyError(RuntimeError):
    """Whitening failed because a signal eigenvalue fell below the noise floor.

    Attributes
    ----------
    component : int
        1-based index of the offending eigenvalue.
    """

    def __init__(self, component, message):
        super().__init__(message)
        self.component = component


class DegenerateInputError(ValueError):
    """Input is structurally valid but numerically degenerate (e.g. zero rows)."""


class SnapshotFormatError(ValueError):
    """A snapshot CSV file failed validation.

    Attributes
    ----------
    row : int or None
        1-based data row index where the problem was found, if applicable.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DomainError(ValueError):
    """An angle or iterate left the open search domain."""


class ConfigError(ValueError):
    """A run configuration file is missing keys or holds bad values."""


# Numerical failures: they end one trial, or exit the CLI with code 3,
# without ending the experiment. InvalidParameterError is deliberately
# absent: a config bug must stop the run, not count as a failed trial.
NUMERICAL_ERRORS = (
    DegenerateInputError,
    DomainError,
    IdentifiabilityError,
    RankDeficiencyError,
    np.linalg.LinAlgError,
)
