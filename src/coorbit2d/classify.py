"""Dual orbits, canonical forms, coorbit-equivalence decisions and symmetry
group membership for the three dilation-group families.

The open dual orbit of each represented group is the plane minus 0, 1 or 2
lines through the origin; conjugating the group by ``B`` moves the orbit by
``B^-T``.  Two groups are coorbit equivalent exactly when their orbits agree
and, for the two-component (shearlet) case, the anisotropy exponents agree as
well.  Every decision below therefore reduces to arithmetic on line sets,
which is cheap and exact up to an angle tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import CertificateError, DegenerateInputError
from .groups import (
    DEFAULT_TOL,
    DIAGONAL,
    SHEARLET,
    SIMILITUDE,
    Family,
    GroupSpec,
    as_matrix,
    as_vector,
    conjugate_spec,
    diagonal,
    rotation,
    same_group,
    shearlet,
    similitude,
)

_PI = np.pi


def mod_pi(x):
    """Reduce an angle to [0, pi); guards against rounding to pi itself."""
    a = float(x) % _PI
    return 0.0 if a >= _PI else a


def angle_distance(a, b):
    """Distance between two line angles in the R/pi metric."""
    d = abs(mod_pi(a) - mod_pi(b))
    return min(d, _PI - d)


def line_angle(v):
    """Angle in [0, pi) of the line spanned by a nonzero vector."""
    v = as_vector(v, "line direction")
    n = np.hypot(v[0], v[1])
    if n == 0.0:
        raise DegenerateInputError("zero vector spans no line")
    return mod_pi(np.arctan2(v[1], v[0]))


@dataclass(frozen=True)
class LineSet:
    """0, 1 or 2 distinct lines through the origin, each an angle in [0, pi)."""

    angles: Tuple[float, ...]

    def __post_init__(self):
        angles = tuple(sorted(mod_pi(a) for a in self.angles))
        if len(angles) > 2:
            raise ValueError("at most two lines")
        if len(angles) == 2 and angle_distance(angles[0], angles[1]) <= DEFAULT_TOL:
            raise DegenerateInputError("lines coincide within tolerance")
        object.__setattr__(self, "angles", angles)

    def __len__(self):
        return len(self.angles)

    def mapped_by(self, m):
        """Image line set under an invertible matrix acting on directions."""
        m = as_matrix(m, "m")
        return LineSet(tuple(line_angle(m @ _direction(a)) for a in self.angles))

    def equals(self, other, tol=DEFAULT_TOL):
        if len(self.angles) != len(other.angles):
            return False
        if len(self.angles) < 2:
            return all(
                angle_distance(a, b) <= tol
                for a, b in zip(self.angles, other.angles)
            )
        a1, a2 = self.angles
        b1, b2 = other.angles
        straight = angle_distance(a1, b1) <= tol and angle_distance(a2, b2) <= tol
        crossed = angle_distance(a1, b2) <= tol and angle_distance(a2, b1) <= tol
        return straight or crossed

    def distance_from(self, w):
        """Smallest distance of a point from the union of the lines (inf if empty)."""
        w = as_vector(w, "w")
        if not self.angles:
            return np.inf
        return min(
            abs(-w[0] * np.sin(a) + w[1] * np.cos(a)) for a in self.angles
        )


def _direction(angle):
    return np.array([np.cos(angle), np.sin(angle)])


_STD_COMPLEMENT = {
    SIMILITUDE: (),
    DIAGONAL: (0.0, _PI / 2),
    SHEARLET: (_PI / 2,),
}

_COMPONENTS = {SIMILITUDE: 1, DIAGONAL: 4, SHEARLET: 2}


def orbit_complement(spec):
    """The lines missing from the open dual orbit of the represented group."""
    std = LineSet(_STD_COMPLEMENT[spec.family.kind])
    if spec.is_standard:
        return std
    b_inv_t = np.linalg.inv(spec.conjugator).T
    return std.mapped_by(b_inv_t)


def component_count(spec):
    """Number of connected components of the dual orbit: 1, 2 or 4."""
    return _COMPONENTS[spec.family.kind]


def orbit_contains(spec, zeta, tol=DEFAULT_TOL):
    """Whether a frequency lies in the open dual orbit, with a relative margin."""
    zeta = as_vector(zeta, "zeta")
    w = spec.conjugator.T @ zeta
    n = np.hypot(w[0], w[1])
    if n <= 0.0:
        return False
    std = LineSet(_STD_COMPLEMENT[spec.family.kind])
    return std.distance_from(w) > tol * n


# ---------------------------------------------------------------------------
# canonical forms


@dataclass(frozen=True)
class CanonicalForm:
    """Coorbit-equivalence class representative.

    kind 'similitude' carries no parameters; 'diagonal' carries (phi, s) in
    [0, pi) x [0, inf); 'shearlet' carries (phi, c) in [0, pi) x R.
    """

    kind: str
    phi: Optional[float] = None
    s: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (SIMILITUDE, DIAGONAL, SHEARLET):
            raise ValueError(f"unknown canonical kind {self.kind!r}")

    def __repr__(self):
        if self.kind == SIMILITUDE:
            return "Canonical(similitude)"
        if self.kind == DIAGONAL:
            return f"Canonical(diagonal, phi={self.phi:.12g}, s={self.s:.12g})"
        return f"Canonical(shearlet, phi={self.phi:.12g}, c={self.c:.12g})"


def canonical_similitude():
    return CanonicalForm(SIMILITUDE)


def canonical_diagonal(phi, s):
    if not (0.0 <= phi < _PI):
        raise ValueError("phi must lie in [0, pi)")
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return CanonicalForm(DIAGONAL, phi=float(phi), s=float(s))


def canonical_shearlet(phi, c):
    if not (0.0 <= phi < _PI):
        raise ValueError("phi must lie in [0, pi)")
    if not np.isfinite(c):
        raise ValueError("c must be finite")
    return CanonicalForm(SHEARLET, phi=float(phi), c=float(c))


def lines_to_phi_s(lines, tol=DEFAULT_TOL):
    """Unique (phi, s) with R_phi S_s (axes) = the given pair of lines.

    A pair within `tol` of perpendicular is snapped to s = 0.  Then both phi
    and phi + pi/2 solve the set equation and describe the same
    diagonal-family group, so phi is reported in [0, pi/2), with a value
    within `tol` of pi/2 mapped to 0.
    """
    if len(lines) != 2:
        raise DegenerateInputError("need exactly two distinct lines")
    a1, a2 = lines.angles
    delta = a2 - a1
    theta = min(delta, _PI - delta)
    if theta <= tol:
        raise DegenerateInputError("lines coincide within tolerance")
    # cot(theta) via the complementary angle: exact 0 for perpendicular pairs
    s = float(np.tan(_PI / 2 - theta))
    if s <= tol:
        phi = mod_pi(-a1) % (_PI / 2)
        return (0.0 if _PI / 2 - phi <= tol else phi), 0.0
    beta = np.arctan2(1.0, s)  # angle of the sheared y-axis image
    verified = []
    for alpha in (a1, a2):
        phi = mod_pi(-alpha)
        images = LineSet((mod_pi(-phi), mod_pi(beta - phi)))
        if images.equals(lines, max(tol, 1e-12)):
            verified.append(phi)
    if not verified:
        raise DegenerateInputError("no rotation-shear cross-section matches")
    return min(verified), s


def canonicalize(spec, tol=DEFAULT_TOL):
    """Canonical form of the coorbit-equivalence class of the represented group."""
    kind = spec.family.kind
    if kind == SIMILITUDE:
        return canonical_similitude()
    comp = orbit_complement(spec)
    if kind == DIAGONAL:
        phi, s = lines_to_phi_s(comp, tol)
        return canonical_diagonal(phi, s)
    alpha = comp.angles[0]
    return canonical_shearlet(mod_pi(_PI / 2 - alpha), spec.family.c)


def rep_group(cf):
    """Representative GroupSpec of a canonical form.

    Diagonal(phi, s) uses the conjugator A = (R_phi S_s)^-T, the shearlet form
    uses the rotation R_phi.
    """
    if cf.kind == SIMILITUDE:
        return GroupSpec(similitude())
    if cf.kind == DIAGONAL:
        if cf.phi is None or cf.s is None:
            raise ValueError("diagonal canonical form needs phi and s")
        if not (0.0 <= cf.phi < _PI) or cf.s < 0.0:
            raise ValueError("canonical parameters out of range")
        conj = rotation(cf.phi) @ np.array([[1.0, 0.0], [-cf.s, 1.0]])
        return GroupSpec(diagonal(), conj)
    if cf.phi is None or cf.c is None:
        raise ValueError("shearlet canonical form needs phi and c")
    if not (0.0 <= cf.phi < _PI) or not np.isfinite(cf.c):
        raise ValueError("canonical parameters out of range")
    return GroupSpec(shearlet(cf.c), rotation(cf.phi))


def canonical_equal(cf1, cf2, tol=DEFAULT_TOL):
    """Whether two canonical forms denote the same group.

    Falls back to an exact group comparison for the perpendicular-pair
    degeneracy, where phi is only determined up to pi/2.
    """
    if cf1.kind != cf2.kind:
        return False
    if cf1.kind == SIMILITUDE:
        return True
    if cf1.kind == DIAGONAL:
        if angle_distance(cf1.phi, cf2.phi) <= tol and abs(cf1.s - cf2.s) <= tol:
            return True
        return same_group(rep_group(cf1), rep_group(cf2), tol)
    return (
        angle_distance(cf1.phi, cf2.phi) <= tol and abs(cf1.c - cf2.c) <= tol
    )


# ---------------------------------------------------------------------------
# equivalence decision


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    component_counts: Tuple[int, int]
    complements: Tuple[LineSet, LineSet]
    canonicals: Tuple[CanonicalForm, CanonicalForm]
    reason: str


def coorbit_equivalent(s1, s2, tol=DEFAULT_TOL):
    """Decide coorbit equivalence of two represented groups, with certificate.

    Equivalent iff the dual-orbit complements coincide as line sets, the
    component counts agree, and in the two-component case the shearlet
    exponents agree (absolute tolerance).
    """
    c1, c2 = component_count(s1), component_count(s2)
    l1, l2 = orbit_complement(s1), orbit_complement(s2)
    cf1, cf2 = canonicalize(s1, tol), canonicalize(s2, tol)

    counts_match = c1 == c2
    lines_match = l1.equals(l2, tol)
    if not counts_match:
        eq = False
        reason = f"component counts differ: {c1} vs {c2}"
    elif not lines_match:
        eq = False
        reason = (f"dual-orbit complements differ: "
                  f"{_fmt_angles(l1)} vs {_fmt_angles(l2)}")
    elif c1 == 2:
        dc = abs(s1.family.c - s2.family.c)
        eq = dc <= tol
        reason = (
            f"same complement line; shearlet exponents "
            f"{s1.family.c:.12g} vs {s2.family.c:.12g} "
            + ("agree" if eq else f"differ by {dc:.3g}")
        )
    else:
        eq = True
        reason = (f"complements coincide and orbit has {c1} component(s)")

    # equal orbits force equal canonical forms; a disagreement is a defect
    if eq and not (lines_match and canonical_equal(cf1, cf2, tol)):
        raise CertificateError(
            f"verdict 'equivalent' but canonical forms differ: {cf1!r} vs {cf2!r}"
        )
    return EquivalenceVerdict(eq, (c1, c2), (l1, l2), (cf1, cf2), reason)


def _fmt_angles(ls):
    return "{" + ", ".join(f"{a:.12g}" for a in ls.angles) + "}"


# ---------------------------------------------------------------------------
# symmetry groups


def in_orbit_symmetry(spec, a, tol=DEFAULT_TOL):
    """Whether A^T maps the dual orbit onto itself (the linear symmetry group)."""
    a = as_matrix(a, "A")
    comp = orbit_complement(spec)
    if not comp.angles:
        return True
    return comp.mapped_by(a.T).equals(comp, tol)


def in_normalizer(spec, a, tol=DEFAULT_TOL):
    """Whether A normalizes the represented group: A H A^-1 = H."""
    a = as_matrix(a, "A")
    return same_group(spec, conjugate_spec(spec, a), tol)


def in_coorbit_symmetry(spec, a, tol=DEFAULT_TOL):
    """Whether A H A^-1 is coorbit equivalent to H (the coorbit symmetry group)."""
    a = as_matrix(a, "A")
    return coorbit_equivalent(conjugate_spec(spec, a), spec, tol).equivalent
