"""Exception hierarchy.

DomainError covers violated mathematical preconditions (exit code 1 in the
CLI); NumericalError covers solver/quadrature failures (exit code 2);
ConfigError covers bad run configuration (exit code 3).
"""


class LatticeSpectraError(Exception):
    pass


class DomainError(LatticeSpectraError):
    pass


class NumericalError(LatticeSpectraError):
    pass


class ConfigError(LatticeSpectraError):
    pass


# -- domain errors ----------------------------------------------------------

class NonMaxAtPi(DomainError):
    """Global maximum of the dispersion is not at (pi, pi)."""


class DegenerateHessian(DomainError):
    """Hessian at the maximizer is singular to working precision."""


class BelowThreshold(DomainError):
    """Spectral parameter z is not above the essential spectrum."""


class ZeroCoupling(DomainError):
    """a and b must be nonzero reals."""


class NotEvenPerCoordinate(DomainError):
    """Dispersion is not even in each coordinate separately."""


class CutoffTooSmall(DomainError):
    """Hopping-range cutoff leaves too much l1 mass outside."""


class NotIntegrable(DomainError):
    """Threshold integral diverges (log singularity not suppressed)."""


# -- numerical errors -------------------------------------------------------

class NoConvergence(NumericalError):
    """Adaptive refinement or iterative eigensolver did not converge."""


class BracketFailure(NumericalError):
    """A determinant is not positive at the upper end of its root bracket."""


class SignChangeAbsent(NumericalError):
    """Expected sign change of G_z(A) at the endpoints is missing."""


class FitFailure(NumericalError):
    """Extrapolation/regression residual exceeds the data spread."""


class UnresolvableRoots(NumericalError):
    """Requested roots sit closer to threshold than working precision: the
    determinant branch is still positive at the floor
    ``determinant.ALPHA_FLOOR``, or its Newton search did not settle within
    ``determinant.MAX_STEPS`` steps."""
