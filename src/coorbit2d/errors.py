"""Exception types shared across the package."""


class CoorbitError(Exception):
    """Base class for all library errors."""


class SingularMatrixError(CoorbitError, ValueError):
    """A matrix that must be invertible has zero (or non-finite) determinant."""


class ChartMismatchError(CoorbitError, ValueError):
    """Chart point does not belong to the family of the group spec."""


class DegenerateInputError(CoorbitError, ValueError):
    """Geometrically degenerate input (e.g. coincident lines)."""


class OrbitSampleError(CoorbitError, ValueError):
    """The admissibility integral vanished at the orbit samples of the family."""


class WeightRangeError(CoorbitError, ArithmeticError):
    """The chart weights or elements of a group spec, the p-th powers summed by
    a coorbit norm, or a reconstruction fhat C / C_psi leave the float range."""


class FormatError(CoorbitError, ValueError):
    """Malformed on-disk document (group spec, signal file, or report)."""


class CoverageWarning(UserWarning):
    """A test signal's spectrum reaches beyond the band its grid represents."""
