"""Dual orbits, canonical forms, coorbit-equivalence decisions and symmetry
group membership for the three dilation-group families.

The open dual orbit of each represented group is the plane minus 0, 1 or 2
lines through the origin; conjugating the group by ``B`` moves the orbit by
``B^-T``.  Two groups are coorbit equivalent exactly when their orbits agree
and, for the two-component (shearlet) case, the anisotropy exponents agree as
well.  Every decision below therefore reduces to arithmetic on line sets,
which is cheap and exact up to an angle tolerance.  The complement is an
invariant of the group: `GroupSpec` computes it once, when it is built, in
closed form from the adjugate of ``B``, and a decision only reads and compares
those of its specs, so no decision inverts a matrix or derives an angle.  A
decision is arithmetic on Python floats: the specs' four conjugator entries,
their stored complement angles and the acute gap between two lines.  The
module does not import numpy: a canonical form takes ``s`` from ``math.tan``
and a representative takes ``R_phi`` from ``math.cos`` and ``math.sin``, each
entry of its conjugator a sum of two rounded products, so neither depends on
the SIMD or BLAS kernels numpy picks at run time.  A symmetry test
builds the one conjugated spec it compares, and `symmetry` answers all three
tests from that one spec.  The canonical forms and the reason that certify an
equivalence verdict are computed from the same two complements when they are
read, not when the verdict is made.  The verdict, the canonical form and the
line set are immutable records (`groups.Record`).
`canonicalize`, the decisions and `lines_to_phi_s` refuse a ``tol`` outside
`groups.valid_tolerance` with ValueError.  `LineSet`, `mod_pi` and
`angle_distance` live in :mod:`coorbit2d.groups` and are importable from
here.
"""

from __future__ import annotations

from math import cos, isfinite, pi, sin, tan

from .errors import DegenerateInputError
from .families import FAMILIES
# the line sets and their angle arithmetic stay importable from this module
from .groups import LineSet, angle_distance, mod_pi  # noqa: F401
from .groups import (
    DEFAULT_TOL,
    DIAGONAL,
    SHEARLET,
    SIMILITUDE,
    GroupSpec,
    Record,
    _build_spec,
    _product,
    _similar,
    conjugate_spec,
    diagonal,
    shearlet,
    similitude,
    valid_tolerance,
)

_PI = pi
# a slot store past Record.__setattr__, for building a record
_set = object.__setattr__


def _checked_tol(tol):
    if not valid_tolerance(tol):
        raise ValueError(f"tol must satisfy 0 <= tol < inf, got {tol!r}")


def orbit_complement(spec):
    """The lines missing from the open dual orbit of the represented group.

    `GroupSpec` computes them when it is built, in closed form from the
    entries of its conjugator; this returns that `LineSet`.  For a diagonal
    spec whose two lines lie within DEFAULT_TOL of each other it raises
    DegenerateInputError, as does every decision that reads them.
    """
    comp = spec._complement
    if comp is None:
        raise DegenerateInputError("lines coincide within tolerance")
    return comp


def component_count(spec):
    """Number of connected components of the dual orbit: 1, 2 or 4."""
    return FAMILIES[spec.family.kind].components


# ---------------------------------------------------------------------------
# canonical forms


class CanonicalForm(Record):
    """Coorbit-equivalence class representative.

    kind 'similitude' carries no parameters; 'diagonal' carries (phi, s) in
    [0, pi) x [0, inf); 'shearlet' carries (phi, c) in [0, pi) x R.
    """

    __slots__ = _fields = ("kind", "phi", "s", "c")

    def __init__(self, kind, phi=None, s=None, c=None):
        if kind not in FAMILIES:
            raise ValueError(f"unknown canonical kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "phi", phi)
        _set(self, "s", s)
        _set(self, "c", c)
        name = FAMILIES[kind].parameter
        if name is None:
            return
        value = s if name == "s" else c
        if phi is None or value is None:
            raise ValueError(f"{kind} canonical form needs phi and {name}")
        if not (0.0 <= phi < _PI):
            raise ValueError("phi must lie in [0, pi)")
        if not isfinite(value):
            raise ValueError(f"{name} must be finite")
        if name == "s" and value < 0.0:
            raise ValueError("s must be nonnegative")

    def __repr__(self):
        name = FAMILIES[self.kind].parameter
        if name is None:
            return f"Canonical({self.kind})"
        return (f"Canonical({self.kind}, phi={self.phi:.12g}, "
                f"{name}={getattr(self, name):.12g})")


def canonical_similitude():
    return CanonicalForm(SIMILITUDE)


def canonical_diagonal(phi, s):
    return CanonicalForm(DIAGONAL, phi=float(phi), s=float(s))


def canonical_shearlet(phi, c):
    return CanonicalForm(SHEARLET, phi=float(phi), c=float(c))


def lines_to_phi_s(lines, tol=DEFAULT_TOL):
    """Unique (phi, s) with R_phi S_s (axes) = the given pair of lines.

    A pair within `tol` of perpendicular is snapped to s = 0.  Then both phi
    and phi + pi/2 solve the set equation and describe the same
    diagonal-family group, so phi is reported in [0, pi/2), with a value
    within `tol` of pi/2 mapped to 0.
    """
    _checked_tol(tol)
    if len(lines) != 2:
        raise DegenerateInputError("need exactly two distinct lines")
    a1, a2 = lines.angles
    theta = lines.gap  # the acute angle between them; no (phi, s) at most tol
    if theta <= tol:
        raise DegenerateInputError("lines coincide within tolerance")
    # cot(theta) via the complementary angle: exact 0 for perpendicular pairs
    s = tan(_PI / 2 - theta)
    if s <= tol:
        phi = mod_pi(-a1) % (_PI / 2)
        return (0.0 if _PI / 2 - phi <= tol else phi), 0.0
    # R_phi S_s maps the axes to {-phi, theta - phi}: rotate the line that
    # starts the acute gap to 0
    return mod_pi(-(a1 if a2 - a1 < _PI / 2 else a2)), s


def canonicalize(spec, tol=DEFAULT_TOL):
    """Canonical form of the coorbit-equivalence class of the represented group."""
    _checked_tol(tol)
    return _canonical(spec, orbit_complement(spec), tol)


def _canonical(spec, comp, tol):
    """Canonical form named by the dual-orbit complement `comp` of `spec`."""
    kind = spec.family.kind
    if kind == SIMILITUDE:
        return canonical_similitude()
    if kind == DIAGONAL:
        return canonical_diagonal(*lines_to_phi_s(comp, tol))
    return canonical_shearlet(mod_pi(_PI / 2 - comp.angles[0]), spec.family.c)


def rep_group(cf):
    """Representative GroupSpec of a canonical form.

    Diagonal(phi, s) uses the conjugator A = (R_phi S_s)^-T = R_phi [[1, 0],
    [-s, 1]], each entry a sum of two rounded products; the shearlet form
    uses the rotation R_phi.
    """
    if cf.kind == SIMILITUDE:
        return GroupSpec(similitude())
    cos_phi, sin_phi = cos(cf.phi), sin(cf.phi)
    rot = (cos_phi, sin_phi, -sin_phi, cos_phi)
    if cf.kind == DIAGONAL:
        return _build_spec(diagonal(), _product(*rot, 1.0, 0.0, -cf.s, 1.0))
    return _build_spec(shearlet(cf.c), rot)


# ---------------------------------------------------------------------------
# equivalence decision


class EquivalenceVerdict(Record):
    """A coorbit-equivalence verdict, the data that decided it, and its
    certificate.

    The certificate, `canonicals` and `reason`, is computed from the specs,
    complements and `tol` each time it is read: a caller that reads only
    `equivalent` never builds it.  Reading it cannot raise, since the verdict
    is only made where both canonical forms exist.
    """

    __slots__ = _fields = ("equivalent", "component_counts", "complements", "specs", "tol")

    def __init__(self, equivalent, component_counts, complements, specs, tol):
        _set(self, "equivalent", equivalent)
        _set(self, "component_counts", component_counts)
        _set(self, "complements", complements)
        _set(self, "specs", specs)
        _set(self, "tol", tol)

    @property
    def canonicals(self):
        """Canonical forms of the two groups, named by their complements."""
        (s1, s2), (l1, l2) = self.specs, self.complements
        return _canonical(s1, l1, self.tol), _canonical(s2, l2, self.tol)

    @property
    def reason(self):
        """One line on what decided the verdict."""
        (c1, c2), (l1, l2) = self.component_counts, self.complements
        if c1 != c2:
            return f"component counts differ: {c1} vs {c2}"
        if not l1.equals(l2, self.tol):
            return (f"dual-orbit complements differ: "
                    f"{_fmt_angles(l1)} vs {_fmt_angles(l2)}")
        if c1 == 2:
            e1, e2 = (s.family.c for s in self.specs)
            return (
                f"same complement line; shearlet exponents "
                f"{e1:.12g} vs {e2:.12g} "
                + ("agree" if self.equivalent else f"differ by {abs(e1 - e2):.3g}")
            )
        return f"complements coincide and orbit has {c1} component(s)"


def coorbit_equivalent(s1, s2, tol=DEFAULT_TOL):
    """Decide coorbit equivalence of two represented groups, with certificate.

    Equivalent iff the component counts agree, the dual-orbit complements
    coincide as line sets, and in the two-component case the shearlet
    exponents agree (absolute tolerance).  The complement each spec stored
    when it was built decides.
    A pair of complement lines within `tol` of each other has no canonical
    form, so it raises DegenerateInputError here, whatever the verdict.
    """
    _checked_tol(tol)
    l1, l2 = s1._complement, s2._complement
    if l1 is None or l2 is None:
        raise DegenerateInputError("lines coincide within tolerance")
    g1, g2 = l1.gap, l2.gap
    if (g1 is not None and g1 <= tol) or (g2 is not None and g2 <= tol):
        raise DegenerateInputError("lines coincide within tolerance")
    f1, f2 = s1.family, s2.family
    c1, c2 = FAMILIES[f1.kind].components, FAMILIES[f2.kind].components
    eq = c1 == c2 and l1.equals(l2, tol) and (c1 != 2 or abs(f1.c - f2.c) <= tol)
    return EquivalenceVerdict(eq, (c1, c2), (l1, l2), (s1, s2), tol)


def _fmt_angles(ls):
    return "{" + ", ".join(f"{a:.12g}" for a in ls.angles) + "}"


# ---------------------------------------------------------------------------
# symmetry groups


def in_orbit_symmetry(spec, a, tol=DEFAULT_TOL):
    """Whether A^T maps the dual orbit onto itself (the linear symmetry group).

    A^T O = O exactly when A^-T O, the dual orbit of A H A^-1, is O.  The
    complements are compared in that form, as `same_group` and
    `coorbit_equivalent` compare them, so the three symmetry tests round
    alike and refuse the same A: those `conjugate_spec` refuses.
    """
    _checked_tol(tol)
    moved = conjugate_spec(spec, a)
    return orbit_complement(moved).equals(orbit_complement(spec), tol)


def same_group(spec_a, spec_b, tol=DEFAULT_TOL):
    """Whether two specs represent the same subgroup of GL(2, R).

    A diagonal or shearlet group is fixed by its invariant lines, so two
    conjugates of one family are the same group exactly when their dual-orbit
    complements coincide (and, for shearlets, c agrees within `tol`).  Two
    similitude groups agree when M = B_a^-1 B_b is a rotation- or
    reflection-scaling: the smaller of the norms of those two parts of M is
    at most `tol` times the larger, a ratio no factor of M moves.  Neither
    test depends on how a conjugator is written.
    """
    _checked_tol(tol)
    kind = spec_a.family.kind
    if kind != spec_b.family.kind:
        return False
    if kind == SIMILITUDE:
        return _similar(spec_a.entries, spec_b.entries, tol)
    if kind == SHEARLET and abs(spec_a.family.c - spec_b.family.c) > tol:
        return False
    return orbit_complement(spec_a).equals(orbit_complement(spec_b), tol)


def in_normalizer(spec, a, tol=DEFAULT_TOL):
    """Whether A normalizes the represented group: A H A^-1 = H."""
    _checked_tol(tol)
    return same_group(spec, conjugate_spec(spec, a), tol)


def in_coorbit_symmetry(spec, a, tol=DEFAULT_TOL):
    """Whether A H A^-1 is coorbit equivalent to H (the coorbit symmetry group)."""
    _checked_tol(tol)
    return coorbit_equivalent(conjugate_spec(spec, a), spec, tol).equivalent


def symmetry(spec, a, tol=DEFAULT_TOL):
    """(in_normalizer, in_coorbit_symmetry, in_orbit_symmetry) of A, from the
    one conjugated spec A H A^-1 that all three compare with H.  It raises
    what the first of them to raise would."""
    _checked_tol(tol)
    moved = conjugate_spec(spec, a)
    return (same_group(spec, moved, tol), coorbit_equivalent(moved, spec, tol).equivalent,
            orbit_complement(moved).equals(orbit_complement(spec), tol))
