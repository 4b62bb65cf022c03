"""Band-limited admissible wavelets with closed-form frequency profiles.

Each profile is built from the smooth compactly supported bump
``rho(t) = exp(1 - 1/(1 - t^2))`` on (-1, 1) and evaluated at ``eta = B^T xi``
where ``B`` is the conjugator of the owning group, which places the support
inside the conjugated dual orbit:

* similitude:  rho(log2(|eta| / s0) / w)
* diagonal:    rho(log2(|eta1| / s0) / w) * rho(log2(|eta2| / s0) / w)
* shearlet:    rho(log2(|eta1| / s0) / w) * rho((eta2 / eta1) / w)

with center scale ``s0`` and bandwidth factor ``w`` (defaults 1).  Values are
always computed from the closed form; no resampling or interpolation enters
any transform built on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# not called here; bench/spans.py traces requests through this name
from .classify import orbit_contains  # noqa: F401
from .groups import DIAGONAL, SHEARLET, SIMILITUDE, Family, as_matrix


def bump(t):
    """exp(1 - 1/(1-t^2)) inside (-1, 1), 0 outside; peak value 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out


# relative slack of the support masks in WaveletSpec.evaluate
_SLACK = 1e-6

# per family: the chart columns (see coorbit2d.groups) the profile ignores
_IGNORED_COLUMNS = {SIMILITUDE: (1,), DIAGONAL: (2, 3), SHEARLET: (0,)}


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """Closed-form frequency profile tied to a group family and conjugator."""

    family: Family
    conjugator: np.ndarray
    center_scale: float = 1.0
    bandwidth: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "conjugator",
                           as_matrix(self.conjugator, "conjugator"))
        if self.center_scale <= 0 or self.bandwidth <= 0:
            raise ValueError("center scale and bandwidth must be positive")

    @property
    def ignored_columns(self):
        """Chart columns of its own family on which psihat(h^T xi) does not depend.

        For h = B m B^-1 with this wavelet's conjugator B, psihat(h^T xi) is the
        profile at m^T B^T xi: the similitude profile is radial (theta drops
        out), the diagonal profile is even in each coordinate (the signs drop
        out), and the shearlet profile sees eps only through |eta1| and
        eta2 / eta1.  |det h| ignores the same columns.
        """
        return _IGNORED_COLUMNS[self.family.kind]

    def evaluate(self, xi1, xi2):
        """psi-hat at arbitrary frequencies (broadcastable arrays or scalars)."""
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        bt = self.conjugator.T
        shape = np.broadcast_shapes(xi1.shape, xi2.shape)
        e1, e2, tmp = np.empty((3,) + (shape or (1,)))
        np.multiply(bt[0, 0], xi1, out=e1)
        e1 += np.multiply(bt[0, 1], xi2, out=tmp)
        np.multiply(bt[1, 0], xi1, out=e2)
        e2 += np.multiply(bt[1, 1], xi2, out=tmp)
        out = np.zeros(e1.shape)
        s0, w = self.center_scale, self.bandwidth
        # bump(t) is 0 unless |t| < 1, i.e. unless each log-scale lies in
        # (lo, hi); the masks keep a superset of those frequencies, with a
        # slack far above the roundoff of log2(.) / w, and the closed form runs
        # on the kept ones only: every other value is exactly 0 anyway
        lo = s0 * 2.0 ** -w * (1.0 - _SLACK)
        hi = s0 * 2.0 ** w * (1.0 + _SLACK)
        kind = self.family.kind
        if kind == SIMILITUDE:
            r2 = np.square(e1)
            r2 += np.square(e2, out=tmp)
            m = (r2 > lo * lo) & (r2 < hi * hi)
            out[m] = bump(np.log2(np.hypot(e1[m], e2[m]) / s0) / w)
        elif kind == DIAGONAL:
            a1, a2 = np.abs(e1), np.abs(e2, out=tmp)
            m = (a1 > lo) & (a1 < hi) & (a2 > lo) & (a2 < hi)
            out[m] = (bump(np.log2(a1[m] / s0) / w)
                      * bump(np.log2(a2[m] / s0) / w))
        else:
            a1 = np.abs(e1)
            m = ((a1 > lo) & (a1 < hi)
                 & (np.abs(e2, out=tmp) < w * (1.0 + _SLACK) * a1))
            out[m] = (bump(np.log2(a1[m] / s0) / w)
                      * bump((e2[m] / e1[m]) / w))
        return out.reshape(shape)


def default_wavelet(spec):
    """Standard admissible wavelet for a group spec.

    It needs no support check: in standard coordinates eta = B^T xi the
    closure of its support keeps |eta| >= 1/2 (similitude), |eta1|, |eta2| >= 1/2
    (diagonal) or |eta1| >= 1/2 (shearlet), so it lies inside the open dual orbit.
    """
    return WaveletSpec(spec.family, spec.conjugator)
