"""Exception hierarchy shared across the package.

Validation errors describe malformed inputs (shapes, definiteness,
mode mismatches) and are raised before any computation starts.
Runtime errors (numerical failure, ordering violations, size caps)
are raised mid-computation when a contract is broken.
"""


class MeanFieldLqgError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MeanFieldLqgError):
    """An input failed a structural or definiteness contract."""


class ModelFormatError(MeanFieldLqgError):
    """A serialized model or gain file is missing keys or has the wrong types."""


class DimensionMismatch(ValidationError):
    """A matrix or vector does not have the expected shape."""


class NotSymmetric(ValidationError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class NotPositiveSemidefinite(ValidationError):
    """A weight or covariance matrix has an eigenvalue below -1e-10."""


class NotPositiveDefinite(ValidationError):
    """A matrix required to be positive definite failed its Cholesky test."""


class NumericalFailure(MeanFieldLqgError):
    """A linear solve hit a singular or numerically unusable matrix."""


class IncompatibleStrategy(MeanFieldLqgError):
    """A policy does not match the model it was applied to."""


class OutOfOrderUpdate(MeanFieldLqgError):
    """A filter state was advanced with the wrong time index."""


class CapExceeded(MeanFieldLqgError):
    """A requested stacked problem exceeds the configured size cap."""
