"""Exception types shared across the package."""


class CcrsimError(Exception):
    """Base class for every error this package raises on contract violations."""


class InvalidArray(CcrsimError, ValueError):
    """An array holds NaN or Inf, or a matrix is not a valid density matrix."""


class NotNormalized(CcrsimError):
    """A state vector or amplitude list is not unit norm within tolerance."""


class DimensionMismatch(CcrsimError):
    """Operands have incompatible shapes or tensor factor structure."""


class NormNotPreserved(CcrsimError):
    """An operator that must be unitary changed the norm of a state."""


class BadSubsystemIndex(CcrsimError):
    """A subsystem index is out of range, repeated, or the keep-set is empty."""


class VelocityOutOfRange(CcrsimError):
    """Boost speed must satisfy 0 <= v < 1 in natural units."""


class ThetaOutOfRange(CcrsimError):
    """Boost-plane angle must lie in [0, pi/2]."""


class LabelCollision(CcrsimError):
    """Two momentum modes of one particle coincide, degenerating the basis."""


class BadPhysicalParams(CcrsimError):
    """Physical parameters are invalid (non-timelike momentum, bad magnitude, ...)."""


class OracleOutOfDomain(CcrsimError):
    """The 4x4 Wigner oracle cannot reach its accuracy at these rapidities."""


class GlobalStateNotPure(CcrsimError):
    """Complementarity bookkeeping requires a pure global state."""


class NotXShaped(CcrsimError):
    """Matrix has weight outside the diagonal / anti-diagonal X pattern."""


class ConfigError(CcrsimError):
    """A sweep or check configuration is invalid; the message lists every violation."""
