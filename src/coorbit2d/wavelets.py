"""Band-limited admissible wavelets with closed-form frequency profiles.

Each group spec has one wavelet, ``default_wavelet(spec)``.  Its profile is
built from the smooth compactly supported bump
``rho(t) = exp(1 - 1/(1 - t^2))`` on (-1, 1) and evaluated at ``eta = B^T xi``
where ``B`` is the conjugator of the group, which places the support inside
the conjugated dual orbit:

* similitude:  rho(log2|eta|)
* diagonal:    rho(log2|eta1|) * rho(log2|eta2|)
* shearlet:    rho(log2|eta1|) * rho(eta2 / eta1)

Values are always computed from the closed form; no resampling or
interpolation enters any transform built on top.

``WaveletSpec.support_pieces`` writes the support as a few disjoint convex
pieces in eta, each an intersection of half-planes g . eta < b, with the same
slack and bounds as the masks of ``evaluate``:

* similitude:  the box |eta1|, |eta2| < 2
* diagonal:    the 4 sign squares 1/2 < +-eta1, +-eta2 < 2
* shearlet:    the 2 trapezoids 1/2 < +-eta1 < 2, |eta2| < |eta1|

A transform evaluates the profile only where one of these pieces can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# not called here; bench/spans.py traces requests through this name
from .classify import orbit_contains  # noqa: F401
from .groups import DIAGONAL, SHEARLET, SIMILITUDE, GroupSpec


def bump(t):
    """exp(1 - 1/(1-t^2)) inside (-1, 1), 0 outside; peak value 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out


# relative slack of the support masks in WaveletSpec.evaluate and of its
# support pieces: a magnitude t is kept when _LO < t < _HI
_SLACK = 1e-6
_LO, _HI = 0.5 * (1.0 - _SLACK), 2.0 * (1.0 + _SLACK)


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """Closed-form frequency profile of a group spec's family and conjugator."""

    spec: GroupSpec

    def evaluate(self, xi1, xi2):
        """psi-hat at arbitrary frequencies (broadcastable arrays or scalars)."""
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        bt = self.spec.conjugator.T
        shape = np.broadcast_shapes(xi1.shape, xi2.shape)
        e1, e2, tmp = np.empty((3,) + (shape or (1,)))
        np.multiply(bt[0, 0], xi1, out=e1)
        e1 += np.multiply(bt[0, 1], xi2, out=tmp)
        np.multiply(bt[1, 0], xi1, out=e2)
        e2 += np.multiply(bt[1, 1], xi2, out=tmp)
        out = np.zeros(e1.shape)
        # bump(t) is 0 unless |t| < 1, i.e. unless each magnitude lies in
        # (1/2, 2); the masks keep a superset of those frequencies, with a
        # slack far above the roundoff of log2(.), and the closed form runs
        # on the kept ones only: every other value is exactly 0 anyway
        lo, hi = _LO, _HI
        kind = self.spec.family.kind
        if kind == SIMILITUDE:
            r2 = np.square(e1)
            r2 += np.square(e2, out=tmp)
            m = (r2 > lo * lo) & (r2 < hi * hi)
            out[m] = bump(np.log2(np.hypot(e1[m], e2[m])))
        elif kind == DIAGONAL:
            a1, a2 = np.abs(e1), np.abs(e2, out=tmp)
            m = (a1 > lo) & (a1 < hi) & (a2 > lo) & (a2 < hi)
            out[m] = bump(np.log2(a1[m])) * bump(np.log2(a2[m]))
        else:
            a1 = np.abs(e1)
            m = ((a1 > lo) & (a1 < hi)
                 & (np.abs(e2, out=tmp) < (1.0 + _SLACK) * a1))
            out[m] = bump(np.log2(a1[m])) * bump(e2[m] / e1[m])
        return out.reshape(shape)

    def support_pieces(self):
        """(g, b): the disjoint convex pieces {eta : g[k] @ eta < b[k] for all k}.

        g has shape (pieces, constraints, 2) and b (pieces, constraints); every
        eta that a mask of `evaluate` keeps lies in one piece, up to the
        roundoff of the comparisons.
        """
        kind = self.spec.family.kind
        if kind == SIMILITUDE:
            g = [[(1, 0), (-1, 0), (0, 1), (0, -1)]]
            b = [(_HI, _HI, _HI, _HI)]
        elif kind == DIAGONAL:
            signs = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
            g = [[(-s1, 0), (s1, 0), (0, -s2), (0, s2)] for s1, s2 in signs]
            b = [(-_LO, _HI, -_LO, _HI)] * 4
        else:
            k = 1.0 + _SLACK  # |eta2| < k |eta1|, as in the mask
            g = [[(-s, 0), (s, 0), (-s * k, 1), (-s * k, -1)] for s in (1, -1)]
            b = [(-_LO, _HI, 0.0, 0.0)] * 2
        return np.array(g, dtype=float), np.array(b, dtype=float)


def default_wavelet(spec):
    """The admissible wavelet of a group spec; its conjugator was checked there.

    It needs no support check: in standard coordinates eta = B^T xi the
    closure of its support keeps |eta| >= 1/2 (similitude), |eta1|, |eta2| >= 1/2
    (diagonal) or |eta1| >= 1/2 (shearlet), so it lies inside the open dual orbit.
    """
    return WaveletSpec(spec)
