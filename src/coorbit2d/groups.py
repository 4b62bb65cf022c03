"""Matrix dilation groups of the plane: the similitude, diagonal and shearlet
families, arbitrary conjugates thereof, chart coordinates and Haar densities.

A group is described by a :class:`GroupSpec`: one of the three standard
families together with an invertible conjugator ``B``; the represented group
is ``B @ H_std @ inv(B)``.  A spec keeps the four checked floats of ``B``,
which all its readers but `element_from_chart` read, and builds for that
one the read-only array of ``B`` on first read.  The check is ``math`` on
Python floats; it scales the columns of ``B`` by powers of two only where an
entry lies outside the range in which that scaling cannot change a bit of
its result.  `conjugate_spec` forms ``A B`` on those floats, each entry a sum
of two rounded products.  The spec, its `Family` and `LineSet` are immutable
``__slots__`` records (:class:`Record`), built with no dataclass machinery.
numpy is called only to read a matrix that is not a float64 array, to build
the array of ``B``, by `rotation` and `shear`, and by the chart code.

Chart coordinates use the natural logarithm for scales and radians for
angles.  A chart point is one row of its family's columns, of width 2, 4
and 3 in this column order:

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

from dataclasses import FrozenInstanceError
from math import frexp, hypot, inf, isfinite, ldexp, pi

import numpy as np

from .errors import (ChartMismatchError, DegenerateInputError, SingularMatrixError,
                     WeightRangeError)
# the family kinds and chart point types stay importable from this module
from .families import (DIAGONAL, FAMILIES, SHEARLET, SIMILITUDE,  # noqa: F401
                       DiagonalChart, ShearletChart, SimilitudeChart)

DEFAULT_TOL = 1e-9

_I2 = (1.0, 0.0, 0.0, 1.0)  # the entries of the identity
_PI = pi


def valid_tolerance(tol):
    """The rule for a comparison tolerance: 0 <= tol < inf, so not nan."""
    return 0.0 <= tol < inf


def scaled_columns(a, b, c, d):
    """Entries (a', b', c', d') and exponents (e1, e2) with B = [[a', b'],
    [c', d']] diag(2^e1, 2^e2) for B = [[a, b], [c, d]], each column scaled
    exactly to a largest entry in [1/2, 1).  A non-finite entry stays
    non-finite."""
    e1, e2 = frexp(max(abs(a), abs(c)))[1], frexp(max(abs(b), abs(d)))[1]
    return (ldexp(a, -e1), ldexp(b, -e2), ldexp(c, -e1), ldexp(d, -e2)), (e1, e2)


# Column scaling by powers of two is exact both ways while every nonzero
# entry of B has magnitude in [2^-200, 2^200): the scaled entries are at
# least 2^-400 and their products 2^-800, the entries' products lie in
# [2^-400, 2^400), so every product, difference, hypot and quotient below
# rounds alike at either scale.  A nonzero determinant is then at least
# 2^-452, and each entry of inv(B) at most 2^652, so it is finite.
_LO, _HI = ldexp(1.0, -200), ldexp(1.0, 200)


def _scale_free(a, b, c, d):
    """Whether each of a, b, c, d is 0 or of magnitude in [_LO, _HI)."""
    return ((not a or _LO <= abs(a) < _HI) and (not b or _LO <= abs(b) < _HI)
            and (not c or _LO <= abs(c) < _HI) and (not d or _LO <= abs(d) < _HI))


def _checked(a, b, c, d, name):
    """The sine of the angle between the columns of B = [[a, b], [c, d]], and
    whether inv(B) is finite; SingularMatrixError unless B is finite with
    independent columns.

    With B = B' diag(2^e1, 2^e2) from `scaled_columns`, the sine
    |det B'| / (|b1'| |b2'|) does not depend on scale and cannot overflow,
    and inv(B) has rows 2^-e1 (d', -b') and 2^-e2 (-c', a') over det B'.
    Where `_scale_free` holds, B itself gives the same bits.
    """
    if _scale_free(a, b, c, d):
        det = abs(a * d - b * c)
        if not det:
            raise SingularMatrixError(f"{name} is singular")
        return det / (hypot(a, c) * hypot(b, d)), True
    (p, q, r, s), (e1, e2), det = _column_scaled(a, b, c, d, name)
    try:  # x / det is inf for a subnormal det; ldexp raises past the float range
        finite = (isfinite(ldexp(max(abs(q), abs(s)) / det, -e1))
                  and isfinite(ldexp(max(abs(p), abs(r)) / det, -e2)))
    except OverflowError:
        finite = False
    return det / (hypot(p, r) * hypot(q, s)), finite


def _column_scaled(a, b, c, d, name):
    """B' and (e1, e2) of `scaled_columns`, and |det B'|; SingularMatrixError
    unless B' is finite with det B' exactly nonzero."""
    (p, q, r, s), e = scaled_columns(a, b, c, d)
    if not isfinite(p + q + r + s):
        raise SingularMatrixError(f"{name} has non-finite entries")
    det = abs(p * s - q * r)
    if not det:
        raise SingularMatrixError(f"{name} is singular")
    return (p, q, r, s), e, det


def _similar(ea, eb, tol):
    """Whether M = B_a^-1 B_b is a rotation- or reflection-scaling, for B_a
    and B_b of entries `ea` and `eb` (see `classify.same_group`).

    M is adj(B_a) B_b up to the factor 1/det B_a.  With B = B' diag(2^e1,
    2^e2) from `scaled_columns`, that is adj(B_a') B_b' with row i scaled by
    2^-e_i and column j by 2^f_j; shifting each entry by those less the
    largest exponent keeps every entry in range.  Where `_scale_free` holds
    for both, M itself gives the same answer: as in `_checked`, each entry
    of M is 0 or in [2^-452, 2^401], so its sums and their norms round alike
    at either scale, each norm 0 or at least 2^-504.  tol times the larger
    norm rounds alike too, unless it leaves the normal range, where the
    smaller norm lies on the same side of it at either scale.
    """
    if _scale_free(*ea) and _scale_free(*eb):
        (p, q, r, s), (p2, q2, r2, s2) = ea, eb
        m11, m12 = s * p2 - q * r2, s * q2 - q * s2
        m21, m22 = p * r2 - r * p2, p * s2 - r * q2
    else:
        (p, q, r, s), (e1, e2) = scaled_columns(*ea)
        (p2, q2, r2, s2), (f1, f2) = scaled_columns(*eb)
        m = ((s * p2 - q * r2, f1 - e1), (s * q2 - q * s2, f2 - e1),
             (p * r2 - r * p2, f1 - e2), (p * s2 - r * q2, f2 - e2))
        top = max(frexp(x)[1] + k for x, k in m if x)
        m11, m12, m21, m22 = (ldexp(x, k - top) for x, k in m)
    rot, ref = hypot(m11 + m22, m12 - m21), hypot(m11 - m22, m12 + m21)
    return min(rot, ref) <= tol * max(rot, ref)


def _entries(m, name):
    """The four floats (a, b, c, d) of a 2x2 matrix [[a, b], [c, d]]: read
    from a float64 array as they are, through np.array for any other input."""
    if type(m) is not np.ndarray or m.dtype != float or m.shape != (2, 2):
        m = np.array(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    return a, b, c, d


def _read_only(a, b, c, d):
    m = np.array(((a, b), (c, d)))
    m.flags.writeable = False
    return m


def checked_matrix(m, name):
    """A read-only 2x2 float array, finite with independent columns; the sine
    of the angle between its columns; and whether its inverse is finite (see
    `_checked`)."""
    entries = _entries(m, name)
    return (_read_only(*entries), *_checked(*entries, name))


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


def _near(a, b, tol):
    """angle_distance(a, b) <= tol for two angles in [0, pi), where mod_pi is
    the identity."""
    d = abs(a - b)
    return min(d, _PI - d) <= tol


# a slot store past Record.__setattr__, for building a record
_set = object.__setattr__


class Record:
    """An immutable record over the slots named in `_fields`: the equality,
    hash and repr of a frozen dataclass, without its generated __init__; a
    subclass builds with `_set`."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()


class LineSet(Record):
    """0, 1 or 2 distinct lines through the origin, each an angle in [0, pi).

    `gap` is the acute angle between two lines (None for fewer), kept when
    the set is built so that a decision reads it."""

    __slots__ = ("angles", "gap")
    _fields = ("angles",)

    def __init__(self, angles):
        angles = tuple(angles)
        gap = None
        if len(angles) == 2:
            a, b = mod_pi(angles[0]), mod_pi(angles[1])
            if b < a:
                a, b = b, a
            # their angle_distance, since both lie in [0, pi) in order
            gap = b - a
            gap = min(gap, _PI - gap)
            if gap <= DEFAULT_TOL:
                raise DegenerateInputError("lines coincide within tolerance")
            angles = (a, b)
        elif len(angles) == 1:
            angles = (mod_pi(angles[0]),)
        elif angles:
            raise ValueError("at most two lines")
        _set(self, "angles", angles)
        _set(self, "gap", gap)

    def __len__(self):
        return len(self.angles)

    def equals(self, other, tol=DEFAULT_TOL):
        """Whether the lines pair up within `tol`, in order or crossed."""
        a, b = self.angles, other.angles
        if len(a) != len(b):
            return False
        if len(a) < 2:
            return not a or _near(a[0], b[0], tol)
        return ((_near(a[0], b[0], tol) and _near(a[1], b[1], tol))
                or (_near(a[0], b[1], tol) and _near(a[1], b[0], tol)))


class Family(Record):
    """Tagged family: similitude, diagonal, or shearlet with exponent c."""

    __slots__ = _fields = ("kind", "c")

    def __init__(self, kind, c=None):
        if kind not in (SIMILITUDE, DIAGONAL, SHEARLET):
            raise ValueError(f"unknown family kind {kind!r}")
        if kind == SHEARLET:
            if c is None or not isfinite(c):
                raise ValueError("shearlet family requires a finite exponent c")
        elif c is not None:
            raise ValueError(f"{kind} family takes no exponent")
        _set(self, "kind", kind)
        _set(self, "c", c)


def similitude():
    return Family(SIMILITUDE)


def diagonal():
    return Family(DIAGONAL)


def shearlet(c):
    return Family(SHEARLET, float(c))


class GroupSpec(Record):
    """A dilation group: standard family conjugated by an invertible matrix.

    Construction reads the four floats of the conjugator B = [[p, q], [r,
    s]] into `entries` and checks them as `checked_matrix` does; no decision
    reads B in any other form.  From them it computes once the lines missing
    from the group's open dual orbit, which `classify.orbit_complement`
    returns: B^-T moves the axes to the lines of (s, -q) and (-r, p).  A
    diagonal B can pass the sine rule below while its two line angles lie
    within DEFAULT_TOL of each other; such a spec is built with no
    complement, and `orbit_complement` and every decision that reads it
    raise DegenerateInputError instead.  `conjugator`, the read-only 2x2
    array of B that `element_from_chart` reads, is built on first read.  A
    spec is immutable and equal only to itself.
    """

    __slots__ = ("family", "entries", "_conjugator", "_complement")
    _fields = ("family", "conjugator")  # the arguments a copy is built from
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, family, conjugator=None):
        entries = _I2 if conjugator is None else _entries(conjugator, "conjugator")
        _build_spec(family, entries, self)

    @property
    def conjugator(self):
        """B as a read-only 2x2 float array, built on first read."""
        b = self._conjugator
        if b is None:
            b = _read_only(*self.entries)
            _set(self, "_conjugator", b)
        return b

    @property
    def is_standard(self):
        return self.entries == _I2

    def __repr__(self):
        fam = self.family.kind
        if self.family.c is not None:
            fam += f"(c={self.family.c})"
        if self.is_standard:
            return f"GroupSpec({fam})"
        a, b, c, d = self.entries
        return f"GroupSpec({fam}, conjugator={[[a, b], [c, d]]})"


def _build_spec(family, entries, spec=None):
    """A spec of `family` and the conjugator's four floats, filled into
    `spec` (new) or into a new GroupSpec."""
    if spec is None:
        spec = object.__new__(GroupSpec)
    sine, inverse_finite = _checked(*entries, "conjugator")
    # the sine of the angle between B's columns is that between the lines
    # B^-T maps the axes to; at DEFAULT_TOL they coincide for LineSet
    if sine <= DEFAULT_TOL:
        raise SingularMatrixError(
            "conjugator is numerically singular: B^-T maps the axes to lines "
            "within tolerance of each other"
        )
    if not inverse_finite:
        raise SingularMatrixError("conjugator has a non-finite inverse")
    try:
        comp = LineSet(FAMILIES[family.kind].complement(*entries))
    except DegenerateInputError:
        comp = None
    _set(spec, "family", family)
    _set(spec, "entries", entries)
    _set(spec, "_conjugator", None)
    _set(spec, "_complement", comp)
    return spec


def conjugate_spec(spec, a):
    """The spec of A H A^-1 where H is the group of `spec`: conjugator A B,
    each entry a sum of two rounded products.  A is refused as
    `checked_matrix` refuses it, with no sine and no inverse."""
    a00, a01, a10, a11 = _entries(a, "A")
    if not _scale_free(a00, a01, a10, a11):
        _column_scaled(a00, a01, a10, a11, "A")
    elif a00 * a11 == a01 * a10:
        raise SingularMatrixError("A is singular")
    return _build_spec(spec.family, _product(a00, a01, a10, a11, *spec.entries))


def _product(a00, a01, a10, a11, b00, b01, b10, b11):
    """The entries of A B, each a sum of two rounded products."""
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


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
