"""What the package knows of each standard family, in one read-only record.

The groups classified are the similitude, diagonal and shearlet-c families,
each up to conjugation by an invertible B.  `FAMILIES` maps a family kind to
its :class:`FamilyRecord`; the other modules look a family up there instead
of branching on its kind.  The wavelet profiles, in eta = B^T xi, are built
from the bump rho(t) = exp(1 - 1/(1 - t^2)) on (-1, 1), exactly 0 for |t| >=
0.99933, in chart form: at m^T eta, m the matrix of a chart row, a profile
is rho(u + alpha) rho(beta v + gamma), from the record's `invariants` (u, v)
of eta and `shifts` (alpha, beta, gamma) of the row (one factor for the
similitude family).  The rotation and sign columns drop out: the profiles
are invariant under them.  At the identity row the chart form is the
`profile`, total and exactly +0.0 off 1/2 < |eta| < 2 (similitude), off
1/2 < |eta1|, |eta2| < 2 (diagonal) and off 1/2 < |eta1| < 2, |eta2| <
|eta1| (shearlet).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

SIMILITUDE = "similitude"
DIAGONAL = "diagonal"
SHEARLET = "shearlet"


def bump(t):
    """exp(1 - 1/(1-t^2)) inside (-1, 1), 0 outside; peak value 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out


def _chart_form(invariants, shifts):
    """psi-hat at chart rows from the invariants of eta: bump(u + alpha) for
    invariants (u,), times bump(beta v + gamma) for (u, v), with shifts
    (alpha, beta, gamma).  The arrays broadcast."""
    value = bump(invariants[0] + shifts[0])
    if len(invariants) > 1:
        value = value * bump(shifts[1] * invariants[1] + shifts[2])
    return value


_LN2 = np.log(2.0)


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


@dataclass(frozen=True)
class FamilyRecord:
    """One standard family.  The functions of `cols` take checked chart
    columns (..., k) and the shearlet exponent c (None for the others)."""

    chart: type  # the named tuple of the chart columns
    signs: Tuple[int, ...]  # the sign columns of the chart
    matrix: Callable  # (cols, c) -> entries (a, b, c, d) of [[a, b], [c, d]]
    haar: Callable  # (cols, c) -> density of the left Haar measure of H
    g: Callable  # (cols, c) -> haar / |det h|
    # (p, q, r, s) -> the lines missing from the dual orbit of B H B^-1 for
    # B = [[p, q], [r, s]]: B^-T moves the axes to (s, -q) and (-r, p)
    complement: Callable
    components: int  # connected components of the dual orbit
    # (eta1, eta2) -> the invariants (u,) or (u, v) of eta
    invariants: Callable
    # (cols, c) -> the shifts (alpha, beta, gamma) of the chart rows, beta > 0;
    # alpha alone for a family with one invariant
    shifts: Callable
    orbit_samples: np.ndarray  # (16, 2): the Calderon samples
    parameter: Optional[str]  # of the canonical form, besides phi
    n_lam: int  # the default number of points per log-scale axis
    # (lams, dlam, shears, dshear) -> (chart rows, cell volume) of H/K_psi:
    # one row per class, at theta = 0, signs (+1, +1) or eps = +1, and a cell
    # volume that holds the measure of K_psi in chart units, 2 pi, 4 or 2
    quotient: Callable

    def profile(self, e1, e2):
        """The wavelet profile at eta: the chart form at the identity row."""
        return _chart_form(self.invariants(e1, e2), (0.0, 1.0, 0.0))


def _read_only(rows):
    a = np.array(rows, dtype=float)
    a.flags.writeable = False
    return a


def _rows(*axes):
    """The cartesian product of 1-D axes as rows, the last axis varying fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _similitude_matrix(cols, c):
    r = np.exp(cols[..., 0])
    a, b = r * np.cos(cols[..., 1]), r * np.sin(cols[..., 1])
    return a, b, -b, a


def _diagonal_matrix(cols, c):
    zero = np.zeros(cols.shape[:-1])
    return (cols[..., 2] * np.exp(cols[..., 0]), zero,
            zero, cols[..., 3] * np.exp(cols[..., 1]))


def _shearlet_matrix(cols, c):
    eps, a = cols[..., 0], np.exp(cols[..., 1])
    # np.power, not **: on one point ** takes scalar pow, which can round
    # differently from the array loop, and a point must equal its stack row
    return eps * a, eps * cols[..., 2], eps * 0.0, eps * np.power(a, c)


def _shearlet_shifts(cols, c):
    # m^T eta = eps (a eta1, s eta1 + a^c eta2): log2|a eta1| and, over a eta1,
    # s / a + a^(c - 1) eta2 / eta1; np.power as in _shearlet_matrix
    a = np.exp(cols[..., 1])
    return cols[..., 1] / _LN2, np.power(a, c - 1.0), cols[..., 2] / a


_SIGN_PAIRS = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]

FAMILIES = MappingProxyType({
    SIMILITUDE: FamilyRecord(
        chart=SimilitudeChart, signs=(), matrix=_similitude_matrix,
        haar=lambda cols, c: np.ones(cols.shape[:-1]),
        g=lambda cols, c: np.exp(-2.0 * cols[..., 0]),
        complement=lambda p, q, r, s: (), components=1,
        invariants=lambda e1, e2: (np.log2(np.hypot(e1, e2)),),
        shifts=lambda cols, c: (cols[..., 0] / _LN2,),
        orbit_samples=_read_only([(r * np.cos(a), r * np.sin(a))
                                  for r in (0.6, 1.0, 1.4, 2.0)
                                  for a in (0.3, 1.2, 2.5, 4.0)]),
        parameter=None, n_lam=32,
        quotient=lambda lams, dlam, shears, dshear: (
            _rows(lams, [0.0]), dlam * (2.0 * np.pi)),
    ),
    DIAGONAL: FamilyRecord(
        chart=DiagonalChart, signs=(2, 3), matrix=_diagonal_matrix,
        haar=lambda cols, c: np.ones(cols.shape[:-1]),
        g=lambda cols, c: np.exp(-(cols[..., 0] + cols[..., 1])),
        complement=lambda p, q, r, s: (atan2(-q, s), atan2(p, -r)), components=4,
        invariants=lambda e1, e2: (np.log2(np.abs(e1)), np.log2(np.abs(e2))),
        shifts=lambda cols, c: (cols[..., 0] / _LN2, np.ones(cols.shape[:-1]),
                                cols[..., 1] / _LN2),
        orbit_samples=_read_only([(s1 * u, s2 * v) for s1, s2 in _SIGN_PAIRS
                                  for u in (0.7, 1.2) for v in (0.7, 1.2)]),
        parameter="s", n_lam=16,
        quotient=lambda lams, dlam, shears, dshear: (
            _rows(lams, lams, [1.0], [1.0]), dlam * dlam * 4.0),
    ),
    SHEARLET: FamilyRecord(
        chart=ShearletChart, signs=(0,), matrix=_shearlet_matrix,
        haar=lambda cols, c: np.exp(-cols[..., 1]),
        g=lambda cols, c: np.exp(-cols[..., 1]) * np.exp(-(1.0 + c) * cols[..., 1]),
        complement=lambda p, q, r, s: (atan2(p, -r),), components=2,
        invariants=lambda e1, e2: (np.log2(np.abs(e1)), e2 / e1),
        shifts=_shearlet_shifts,
        orbit_samples=_read_only([(s * m, s * m * r) for s in (1.0, -1.0)
                                  for m in (0.8, 1.25)
                                  for r in (-0.35, -0.1, 0.2, 0.45)]),
        parameter="c", n_lam=16,
        quotient=lambda lams, dlam, shears, dshear: (
            _rows([1.0], lams, shears), dlam * dshear * 2.0),
    ),
})
