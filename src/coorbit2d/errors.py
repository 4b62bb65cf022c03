"""Exception types shared across the package."""


class CoorbitError(Exception):
    """Base class for all library errors."""


class SingularMatrixError(CoorbitError, ValueError):
    """A matrix that must be invertible has zero (or non-finite) determinant."""


class ChartMismatchError(CoorbitError, ValueError):
    """Chart point does not belong to the family of the group spec."""


class NotInGroupError(CoorbitError, ValueError):
    """A matrix expected to lie in the represented group does not."""


class DegenerateInputError(CoorbitError, ValueError):
    """Geometrically degenerate input (e.g. coincident lines)."""


class OrbitSampleError(CoorbitError, ValueError):
    """A frequency sample does not lie inside the open dual orbit."""


class WaveletSupportError(CoorbitError, ValueError):
    """Wavelet frequency support is not contained in the dual orbit."""


class CertificateError(CoorbitError):
    """A decision's certificate contradicts its verdict (an internal invariant)."""


class FormatError(CoorbitError, ValueError):
    """Malformed on-disk document (group spec, signal file, or report)."""


class CoverageWarning(UserWarning):
    """Frequency content falls outside the representable or sampled region."""
