"""Matrix dilation groups of the plane: the similitude, diagonal and shearlet
families, arbitrary conjugates thereof, chart coordinates and Haar densities.

A group is described by a :class:`GroupSpec`: one of the three standard
families together with an invertible conjugator ``B``; the represented group
is ``B @ H_std @ inv(B)``.  Chart coordinates use the natural logarithm for
scales and radians for angles.  A chart point is one row of its family's
columns, of width 2, 4 and 3 in this column order:

* similitude  ``(lam, theta)``      -> ``exp(lam) * [[cos t, sin t], [-sin t, cos t]]``
* diagonal    ``(lam1, lam2, e1, e2)`` -> ``diag(e1 exp(lam1), e2 exp(lam2))``
* shearlet c  ``(eps, lam, b)``     -> ``eps * [[exp(lam), b], [0, exp(c lam)]]``

The signs ``e1``, ``e2`` and ``eps`` are +1 or -1.  One point is a
:class:`SimilitudeChart`, :class:`DiagonalChart` or :class:`ShearletChart`
(named tuples of those columns) or any length-k sequence; a stack of points is
an ``(..., k)`` array of rows.  `element_from_chart`, `haar_weight` and
`g_weight` take either and check the width, finiteness and signs.  The
charts, standard matrices and densities of each family are fields of its
record in :mod:`coorbit2d.families`.

The left Haar density of the full group ``R^2 x| H`` in these coordinates is
``dx dh / |det h|`` where ``dh`` is the Haar measure of ``H`` itself; the
chart densities of ``dh`` are 1, 1 and ``exp(-lam)`` respectively (verified by
the left-invariance quadrature oracle in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp, hypot, inf, isfinite, ldexp
from typing import Optional, Tuple

import numpy as np

from .errors import (ChartMismatchError, DegenerateInputError, SingularMatrixError,
                     WeightRangeError)
# the family kinds and chart point types stay importable from this module
from .families import (DIAGONAL, FAMILIES, SHEARLET, SIMILITUDE,  # noqa: F401
                       DiagonalChart, ShearletChart, SimilitudeChart)

DEFAULT_TOL = 1e-9

_I2 = np.eye(2)
_PI = np.pi


def valid_tolerance(tol):
    """The rule for a comparison tolerance: 0 <= tol < inf, so not nan."""
    return 0.0 <= tol < inf


def scaled_columns(m):
    """Entries (a', b', c', d') and exponents (e1, e2) with B = [[a', b'],
    [c', d']] diag(2^e1, 2^e2), each column scaled exactly to a largest entry
    in [1/2, 1).  A non-finite entry stays non-finite."""
    (a, b), (c, d) = m.tolist()
    e1, e2 = frexp(max(abs(a), abs(c)))[1], frexp(max(abs(b), abs(d)))[1]
    return (ldexp(a, -e1), ldexp(b, -e2), ldexp(c, -e1), ldexp(d, -e2)), (e1, e2)


def checked_matrix(m, name):
    """A read-only 2x2 float array, finite with independent columns; the sine
    of the angle between its columns; and whether its inverse is finite.

    With B = B' diag(2^e1, 2^e2) from `scaled_columns`, the sine
    |det B'| / (|b1'| |b2'|) does not depend on scale and cannot overflow,
    and inv(B) has rows 2^-e1 (d', -b') and 2^-e2 (-c', a') over det B'.
    """
    a = np.array(m, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {a.shape}")
    (p, q, r, s), (e1, e2) = scaled_columns(a)
    if not isfinite(p + q + r + s):
        raise SingularMatrixError(f"{name} has non-finite entries")
    det = abs(p * s - q * r)
    if not det:
        raise SingularMatrixError(f"{name} is singular")
    try:  # x / det is inf for a subnormal det; ldexp raises past the float range
        finite = (isfinite(ldexp(max(abs(q), abs(s)) / det, -e1))
                  and isfinite(ldexp(max(abs(p), abs(r)) / det, -e2)))
    except OverflowError:
        finite = False
    a.flags.writeable = False
    return a, det / (hypot(p, r) * hypot(q, s)), finite


def as_vector(v, name="vector"):
    a = np.array(v, dtype=float).reshape(-1)
    if a.shape != (2,):
        raise ValueError(f"{name} must have two components")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components")
    return a


def rotation(phi):
    """Rotation matrix [[cos, sin], [-sin, cos]]; maps the line at angle g to g - phi."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def shear(s):
    """Upper unit shear [[1, s], [0, 1]]."""
    return np.array([[1.0, s], [0.0, 1.0]])


def mod_pi(x):
    """Reduce an angle to [0, pi); guards against rounding to pi itself."""
    a = float(x) % _PI
    return 0.0 if a >= _PI else a


def angle_distance(a, b):
    """Distance between two line angles in the R/pi metric."""
    d = abs(mod_pi(a) - mod_pi(b))
    return min(d, _PI - d)


@dataclass(frozen=True)
class LineSet:
    """0, 1 or 2 distinct lines through the origin, each an angle in [0, pi)."""

    angles: Tuple[float, ...]

    def __post_init__(self):
        angles = tuple(sorted(map(mod_pi, self.angles)))
        if len(angles) > 2:
            raise ValueError("at most two lines")
        if len(angles) == 2:
            # their angle_distance, since both lie in [0, pi) in order
            gap = angles[1] - angles[0]
            if min(gap, _PI - gap) <= DEFAULT_TOL:
                raise DegenerateInputError("lines coincide within tolerance")
        object.__setattr__(self, "angles", angles)

    def __len__(self):
        return len(self.angles)

    def equals(self, other, tol=DEFAULT_TOL):
        """Whether the lines pair up within `tol`, in order or crossed."""
        a, b, d = self.angles, other.angles, angle_distance
        if len(a) != len(b):
            return False
        if len(a) < 2:
            return not a or d(a[0], b[0]) <= tol
        return ((d(a[0], b[0]) <= tol and d(a[1], b[1]) <= tol)
                or (d(a[0], b[1]) <= tol and d(a[1], b[0]) <= tol))

    def distance_from(self, w):
        """Smallest distance of a point from the union of the lines (inf if empty)."""
        w = as_vector(w, "w")
        if not self.angles:
            return np.inf
        return min(
            abs(-w[0] * np.sin(a) + w[1] * np.cos(a)) for a in self.angles
        )


@dataclass(frozen=True)
class Family:
    """Tagged family: similitude, diagonal, or shearlet with exponent c."""

    kind: str
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (SIMILITUDE, DIAGONAL, SHEARLET):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == SHEARLET:
            if self.c is None or not np.isfinite(self.c):
                raise ValueError("shearlet family requires a finite exponent c")
        elif self.c is not None:
            raise ValueError(f"{self.kind} family takes no exponent")


def similitude():
    return Family(SIMILITUDE)


def diagonal():
    return Family(DIAGONAL)


def shearlet(c):
    return Family(SHEARLET, float(c))


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A dilation group: standard family conjugated by an invertible matrix.

    Construction checks the conjugator B with `checked_matrix` and, from B's
    four floats, computes once the lines missing from the group's open dual
    orbit, which `classify.orbit_complement` returns: B^-T moves the axes to
    the lines of (s, -q) and (-r, p) for B = [[p, q], [r, s]].  A diagonal B
    can pass the sine rule below while its two line angles lie within
    DEFAULT_TOL of each other; such a spec is built with no complement, and
    `orbit_complement` and every decision that reads it raise
    DegenerateInputError instead.
    """

    family: Family
    conjugator: np.ndarray = field(default_factory=lambda: _I2.copy())
    _complement: Optional[LineSet] = field(init=False, repr=False)

    def __post_init__(self):
        b, sine, inverse_finite = checked_matrix(self.conjugator, "conjugator")
        # the sine of the angle between B's columns is that between the lines
        # B^-T maps the axes to; at DEFAULT_TOL they coincide for LineSet
        if sine <= DEFAULT_TOL:
            raise SingularMatrixError(
                "conjugator is numerically singular: B^-T maps the axes to lines "
                "within tolerance of each other"
            )
        if not inverse_finite:
            raise SingularMatrixError("conjugator has a non-finite inverse")
        object.__setattr__(self, "conjugator", b)
        (p, q), (r, s) = b.tolist()
        try:
            comp = LineSet(FAMILIES[self.family.kind].complement(p, q, r, s))
        except DegenerateInputError:
            comp = None
        object.__setattr__(self, "_complement", comp)

    @property
    def is_standard(self):
        return bool(np.array_equal(self.conjugator, _I2))

    def __repr__(self):
        fam = self.family.kind
        if self.family.c is not None:
            fam += f"(c={self.family.c})"
        if self.is_standard:
            return f"GroupSpec({fam})"
        return f"GroupSpec({fam}, conjugator={self.conjugator.tolist()})"


def conjugate_spec(spec, a):
    """The spec of A H A^-1 where H is the group of `spec`."""
    return GroupSpec(spec.family, checked_matrix(a, "A")[0] @ spec.conjugator)


# ---------------------------------------------------------------------------
# chart points and operations


def _chart_columns(spec, p):
    """Chart point(s) of `spec` as a checked float array of shape (..., k),
    and the record of its family."""
    record = FAMILIES[spec.family.kind]
    chart = record.chart
    cols = np.asarray(p, dtype=float)
    if cols.shape[-1:] != (len(chart._fields),):
        raise ChartMismatchError(f"chart points of shape {cols.shape} do not match "
                                 f"family {spec.family.kind}, rows {chart._fields}")
    if not np.all(np.isfinite(cols)):
        raise ValueError("chart coordinates must be finite")
    for j in record.signs:
        if not np.all(np.abs(cols[..., j]) == 1.0):
            raise ValueError(f"{chart._fields[j]} must be +1 or -1")
    return cols, record


def element_from_chart(spec, p):
    """Group element at chart point p, conjugated into the represented group.

    p is one point, giving a 2x2 matrix, or an (..., k) stack of rows.
    Raises WeightRangeError if an entry leaves the float range, as B m B^-1
    can for a badly scaled B and a large shearlet exponent.
    """
    cols, record = _chart_columns(spec, p)
    b = spec.conjugator
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.stack(record.matrix(cols, spec.family.c), axis=-1)
        h = b @ m.reshape(cols.shape[:-1] + (2, 2)) @ np.linalg.inv(b)
    if not np.all(np.isfinite(h)):
        raise WeightRangeError(f"the elements of {spec!r} leave the float range")
    return h


def _weights(w):
    """A float for one chart point, the array for a stack."""
    return float(w) if w.ndim == 0 else w


def haar_weight(spec, p):
    """Density of the left Haar measure of H at p, in chart coordinates.

    Conjugation rescales Haar measure by a positive constant only; the
    constant is fixed to 1 for every conjugate, so the density depends on the
    family alone.  p is one point (a float result) or a stack of rows.
    """
    cols, record = _chart_columns(spec, p)
    return _weights(record.haar(cols, spec.family.c))


def g_weight(spec, p):
    """h-marginal density of the Haar measure of R^2 x| H: haar / |det h|."""
    cols, record = _chart_columns(spec, p)
    return _weights(record.g(cols, spec.family.c))
