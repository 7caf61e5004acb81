"""Exception types shared across the package."""


class EivError(Exception):
    """Base class for all package-specific errors."""


class InvalidMatrix(EivError):
    """Matrix input is malformed (non-finite, non-symmetric, wrong shape)."""


class NotPSD(EivError):
    """Matrix is not positive semidefinite within tolerance."""


class SingularCovariance(EivError):
    """A covariance matrix required to be nonsingular is (numerically) singular."""


class InvalidInput(EivError):
    """Scalar/parameter input outside its documented domain."""


class SpecError(EivError):
    """Model specification violates the model assumptions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DatasetError(EivError):
    """A dataset CSV does not parse or disagrees with its spec sidecar."""


class InsufficientData(EivError):
    """Sample too small for the requested fit or statistic."""


class ReplicationsFailed(EivError):
    """Every replication of a Monte Carlo run failed."""


class NonConvergence(EivError):
    """All optimizer starts failed to converge."""


class DimensionError(EivError):
    """Shapes of inputs do not match the fitted model."""


class Unsupported(EivError):
    """Operation not available for the requested model family."""
