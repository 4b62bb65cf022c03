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
`g_weight` take either and check the width, finiteness and signs.

The left Haar density of the full group ``R^2 x| H`` in these coordinates is
``dx dh / |det h|`` where ``dh`` is the Haar measure of ``H`` itself; the
chart densities of ``dh`` are 1, 1 and ``exp(-lam)`` respectively (verified by
the left-invariance quadrature oracle in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp, hypot, ldexp
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ChartMismatchError, NotInGroupError, SingularMatrixError

SIMILITUDE = "similitude"
DIAGONAL = "diagonal"
SHEARLET = "shearlet"

DEFAULT_TOL = 1e-9

_I2 = np.eye(2)


def column_sine(m):
    """|sin| of the angle between the columns of a 2x2 matrix; 0 for a zero column.

    Each column is first scaled by an exact power of two to a largest entry
    in [1/2, 1), so the value does not depend on scale and cannot overflow.
    A non-finite entry gives nan.
    """
    (a, b), (c, d) = np.asarray(m, dtype=float).tolist()
    e1, e2 = frexp(max(abs(a), abs(c)))[1], frexp(max(abs(b), abs(d)))[1]
    a, c, b, d = ldexp(a, -e1), ldexp(c, -e1), ldexp(b, -e2), ldexp(d, -e2)
    norms = hypot(a, c) * hypot(b, d)
    return abs(a * d - b * c) / norms if norms else 0.0


def as_matrix(m, name="matrix"):
    """Coerce to a read-only 2x2 float array, finite and with independent columns."""
    a = np.array(m, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SingularMatrixError(f"{name} has non-finite entries")
    if column_sine(a) == 0.0:
        raise SingularMatrixError(f"{name} is singular")
    a.flags.writeable = False
    return a


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
    """A dilation group: standard family conjugated by an invertible matrix."""

    family: Family
    conjugator: np.ndarray = field(default_factory=lambda: _I2.copy())

    def __post_init__(self):
        b = as_matrix(self.conjugator, "conjugator")
        # the sine of the angle between B's columns is that between the lines
        # B^-T maps the axes to; at DEFAULT_TOL they coincide for LineSet
        if column_sine(b) <= DEFAULT_TOL:
            raise SingularMatrixError(
                "conjugator is numerically singular: B^-T maps the axes to lines "
                "within tolerance of each other"
            )
        if not np.isfinite(np.linalg.inv(b)).all():
            raise SingularMatrixError("conjugator has a non-finite inverse")
        object.__setattr__(self, "conjugator", b)

    @property
    def is_standard(self):
        return bool(np.array_equal(self.conjugator, _I2))

    def __repr__(self):
        fam = self.family.kind
        if self.family.kind == SHEARLET:
            fam += f"(c={self.family.c})"
        if self.is_standard:
            return f"GroupSpec({fam})"
        return f"GroupSpec({fam}, conjugator={self.conjugator.tolist()})"


def conjugate_spec(spec, a):
    """The spec of A H A^-1 where H is the group of `spec`."""
    a = as_matrix(a, "A")
    return GroupSpec(spec.family, a @ spec.conjugator)


# ---------------------------------------------------------------------------
# chart points


class SimilitudeChart(NamedTuple):
    lam: float
    theta: float


class DiagonalChart(NamedTuple):
    lam1: float
    lam2: float
    eps1: int = 1
    eps2: int = 1


class ShearletChart(NamedTuple):
    eps: int
    lam: float
    shear: float


ChartPoint = Union[SimilitudeChart, DiagonalChart, ShearletChart]

# per family: the chart point type naming its columns, and its sign columns
_CHARTS = {
    SIMILITUDE: (SimilitudeChart, ()),
    DIAGONAL: (DiagonalChart, (2, 3)),
    SHEARLET: (ShearletChart, (0,)),
}


def _chart_columns(spec, p):
    """Chart point(s) of `spec` as a checked float array of shape (..., k)."""
    chart, signs = _CHARTS[spec.family.kind]
    cols = np.asarray(p, dtype=float)
    if cols.shape[-1:] != (len(chart._fields),):
        raise ChartMismatchError(f"chart points of shape {cols.shape} do not match "
                                 f"family {spec.family.kind}, rows {chart._fields}")
    if not np.all(np.isfinite(cols)):
        raise ValueError("chart coordinates must be finite")
    for j in signs:
        if not np.all(np.abs(cols[..., j]) == 1.0):
            raise ValueError(f"{chart._fields[j]} must be +1 or -1")
    return cols


# ---------------------------------------------------------------------------
# operations


def _standard_matrix(family, cols):
    """Standard-family matrices at checked chart columns (..., k): (..., 2, 2)."""
    if family.kind == SIMILITUDE:
        r = np.exp(cols[..., 0])
        a, b = r * np.cos(cols[..., 1]), r * np.sin(cols[..., 1])
        entries = (a, b, -b, a)
    elif family.kind == DIAGONAL:
        zero = np.zeros(cols.shape[:-1])
        entries = (cols[..., 2] * np.exp(cols[..., 0]), zero,
                   zero, cols[..., 3] * np.exp(cols[..., 1]))
    else:
        eps, a = cols[..., 0], np.exp(cols[..., 1])
        # np.power, not **: on one point ** takes scalar pow, which can round
        # differently from the array loop, and a point must equal its stack row
        entries = (eps * a, eps * cols[..., 2], eps * 0.0,
                   eps * np.power(a, family.c))
    return np.stack(entries, axis=-1).reshape(cols.shape[:-1] + (2, 2))


def element_from_chart(spec, p):
    """Group element at chart point p, conjugated into the represented group.

    p is one point, giving a 2x2 matrix, or an (..., k) stack of rows.
    """
    m = _standard_matrix(spec.family, _chart_columns(spec, p))
    b = spec.conjugator
    return b @ m @ np.linalg.inv(b)


def chart_from_element(spec, m):
    """Inverse of `element_from_chart`; raises NotInGroupError off the group."""
    if not contains(spec, m):
        raise NotInGroupError("matrix is not in the represented group")
    b = spec.conjugator
    ms = np.linalg.solve(b, as_matrix(m, "m") @ b)
    kind = spec.family.kind
    if kind == SIMILITUDE:
        a, bb = ms[0, 0], ms[0, 1]
        return SimilitudeChart(lam=0.5 * np.log(a * a + bb * bb),
                               theta=np.arctan2(bb, a) % (2 * np.pi))
    if kind == DIAGONAL:
        return DiagonalChart(
            lam1=np.log(abs(ms[0, 0])), lam2=np.log(abs(ms[1, 1])),
            eps1=1 if ms[0, 0] > 0 else -1, eps2=1 if ms[1, 1] > 0 else -1,
        )
    eps = 1 if ms[0, 0] > 0 else -1
    a = eps * ms[0, 0]
    return ShearletChart(eps=eps, lam=np.log(a), shear=eps * ms[0, 1])


def _weights(w):
    """A float for one chart point, the array for a stack."""
    return float(w) if w.ndim == 0 else w


def haar_weight(spec, p):
    """Density of the left Haar measure of H at p, in chart coordinates.

    Conjugation rescales Haar measure by a positive constant only; the
    constant is fixed to 1 for every conjugate, so the density depends on the
    family alone.  p is one point (a float result) or a stack of rows.
    """
    cols = _chart_columns(spec, p)
    if spec.family.kind == SHEARLET:
        return _weights(np.exp(-cols[..., 1]))
    return _weights(np.ones(cols.shape[:-1]))


def g_weight(spec, p):
    """h-marginal density of the Haar measure of R^2 x| H: haar / |det h|."""
    cols = _chart_columns(spec, p)
    kind = spec.family.kind
    if kind == SIMILITUDE:
        return _weights(np.exp(-2.0 * cols[..., 0]))
    if kind == DIAGONAL:
        return _weights(np.exp(-(cols[..., 0] + cols[..., 1])))
    lam = cols[..., 1]
    return _weights(np.exp(-lam) * np.exp(-(1.0 + spec.family.c) * lam))


def _fixes_line(m, v, tol):
    """Whether m maps the line of v to itself: |sin| of the angle of v and m v."""
    return column_sine(np.column_stack((v, m @ v))) <= tol


def contains(spec, m, tol=DEFAULT_TOL):
    """Whether m lies in the represented group, within relative tolerance.

    Each test reads an invariant of the group, so the verdict does not depend
    on how the conjugator B is written: for similitude, the reflection-scaling
    part of B^-1 m B is at most `tol` times its rotation-scaling part; for
    diagonal, m fixes the lines of B e1 and B e2; for shearlet, m fixes the
    line of B e1, and its eigenvalue l1 there and the other one, l2 =
    det m / l1, share a sign with |l2| = |l1|^c within relative `tol`.
    """
    m = as_matrix(m, "m")
    b = spec.conjugator
    kind = spec.family.kind
    if kind == SIMILITUDE:
        (m11, m12), (m21, m22) = np.linalg.solve(b, m @ b).tolist()
        return hypot(m11 - m22, m12 + m21) <= tol * hypot(m11 + m22, m12 - m21)
    if kind == DIAGONAL:
        return _fixes_line(m, b[:, 0], tol) and _fixes_line(m, b[:, 1], tol)
    if not _fixes_line(m, b[:, 0], tol):
        return False
    # l1 and l2 of m scaled by 2^-e, then scaled back: det m cannot overflow
    e = frexp(np.max(np.abs(m)))[1]
    v, ms = b[:, 0] / hypot(*b[:, 0]), np.ldexp(m, -e)
    l1 = float(v @ ms @ v)
    if l1 == 0.0:
        return False
    l1, l2 = ldexp(l1, e), ldexp(float(np.linalg.det(ms)) / l1, e)
    if np.sign(l1) != np.sign(l2):
        return False
    target = abs(l1) ** spec.family.c
    return abs(abs(l2) - target) <= tol * max(abs(l2), target)

