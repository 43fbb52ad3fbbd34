"""Exception types shared by the defectwalk package."""

__all__ = [
    "DefectWalkError",
    "NotUnitary",
    "ReducibleCoin",
    "DiagonalCoin",
    "SizeTooSmall",
    "TruncationTooSmall",
    "ZeroA",
    "ParameterOutOfDisk",
    "BranchPoint",
    "BoundaryZeta",
    "CuspParameter",
    "BorderlineA",
    "QuadratureNotConverged",
    "TooLarge",
]


class DefectWalkError(Exception):
    """Base class for all defectwalk errors."""


class NotUnitary(DefectWalkError):
    """A coin matrix deviates from unitarity beyond tolerance."""


class ReducibleCoin(DefectWalkError):
    """A coin has a zero diagonal entry, so the walk decouples."""


class DiagonalCoin(DefectWalkError):
    """The constant coin is diagonal (c21 = 0): the measure is of
    Bernstein-Szego type and no localization analysis applies."""


class SizeTooSmall(DefectWalkError):
    """Requested transition-matrix size is below the structural minimum."""


class TruncationTooSmall(DefectWalkError):
    """The truncated matrix is too small for the requested number of steps."""


class ZeroA(DefectWalkError):
    """An operation that divides by the reduced parameter a received a = 0."""


class ParameterOutOfDisk(DefectWalkError):
    """A reflection coefficient or parameter (a, b) is not strictly inside
    the unit disk, or is not finite."""


class BranchPoint(DefectWalkError):
    """Evaluation requested at (or too close to) a branch point on the circle."""


class BoundaryZeta(DefectWalkError):
    """A mass formula was evaluated at the boundary of the support arc."""


class CuspParameter(DefectWalkError):
    """Envelope evaluation at a parameter where the defining system degenerates."""


class BorderlineA(DefectWalkError):
    """A decision sits on its boundary within tolerance and is not made
    numerically: a within 1e-9 of the classifying epitrochoid, measured to
    the curve points over the roots of its cubic (region class), or two
    roots of the half-line atom equation nearly coinciding (atom count)."""


class QuadratureNotConverged(DefectWalkError):
    """The arc quadrature failed its internal convergence estimate."""


class TooLarge(DefectWalkError):
    """A walk or a brute-force oracle was asked for more steps than its cap
    allows (``cmv.MAX_STEPS``, 64 for ``brute_force_return``), or a CLI size
    flag exceeds its cap (``cli.MAX_GRID``, ``MAX_THETA_GRID``, ``MAX_SAMPLES``)."""
