"""Quadrature sampling of the dilation group in chart coordinates.

A sampling belongs to one group spec: `GroupSampling(spec, points, volumes)`
holds the spec, its M chart rows as a read-only (M, k) array in the column
order of :mod:`coorbit2d.groups` and one cell volume per row.  It checks the
rows against the spec's family and derives from them the two weight vectors
used everywhere downstream: ``haar_w = haar density x volume`` (integration
over H) and ``g_w = haar_w / |det h|`` (h-marginal of the full group measure).

Charts are sampled on uniform grids (midpoint rule in the unbounded
coordinates) by `default_sampling`, the one grid builder.  It covers the
quotient H/K_psi, where K_psi is the compact subgroup that leaves the group's
wavelet profile invariant: the rotations for similitude, the four sign
elements for diagonal and +-I for shearlet.  Since W f(., h k) = W f(., h)
for k in K_psi, each class needs one row.  The family record's `quotient`
lays the rows out on the log-scale and shear grids and gives the cell volume,
which includes the measure of K_psi; the builder only makes the grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WeightRangeError
from .families import FAMILIES
from .groups import GroupSpec, g_weight, haar_weight

# the default chart grid of `default_sampling`; the CLI flags default to it
LAM_RANGE = (-2.0, 2.0)
SHEAR_RANGE = (-5.0, 5.0)
N_SHEAR = 48


@dataclass(frozen=True, eq=False)
class GroupSampling:
    """M chart rows of `spec`'s family with finite positive cell volumes.

    `points`, `volumes` and the derived `haar_w` and `g_w` (`haar_weight`
    and `g_weight` of the spec at the rows, times the volumes) are read-only.
    Weights out of the float range raise WeightRangeError: a shearlet
    exponent |c| above ~378 does that on the default log-scales (to 1.875).
    """

    spec: GroupSpec
    points: np.ndarray
    volumes: np.ndarray
    haar_w: np.ndarray = field(init=False)
    g_w: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.spec, GroupSpec):
            raise TypeError("spec must be a GroupSpec")
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (M, k) array, got shape {pts.shape}")
        if pts.size == 0:
            raise ValueError("sampling must contain at least one chart point")
        vol = np.array(self.volumes, dtype=float)
        if vol.shape != (len(pts),):
            raise ValueError("volumes: one value per chart point required")
        # the weights check the rows: the family's width, finite, signs +-1
        with np.errstate(over="ignore", invalid="ignore"):
            haar_w = haar_weight(self.spec, pts) * vol
            g_w = g_weight(self.spec, pts) * vol
        if not np.all(np.isfinite(vol) & (vol > 0)):
            raise ValueError("volumes: values must be finite and positive")
        if not all(np.all(np.isfinite(w) & (w > 0)) for w in (haar_w, g_w)):
            raise WeightRangeError(f"the weights of {self.spec!r} leave the float range")
        for name, w in (("points", pts), ("volumes", vol), ("haar_w", haar_w), ("g_w", g_w)):
            w.flags.writeable = False
            object.__setattr__(self, name, w)

    def __len__(self):
        return len(self.points)


def _midpoints(bounds, n, axis):
    """n cell midpoints of `bounds` = (lo, hi) and the cell width; errors name
    the builder's arguments n_<axis> and <axis>_range."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n_{axis} must be a positive integer, got {n!r}")
    lo, hi = bounds
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"{axis}_range must be finite and non-empty, got ({lo}, {hi})")
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step, step


def default_sampling(spec, lam_range=LAM_RANGE, n_lam=None,
                     shear_range=SHEAR_RANGE, n_shear=N_SHEAR):
    """The midpoint grid over H/K_psi of the spec's family, as its sampling.

    n_lam points per log-scale axis on `lam_range` (the family's count when
    None) and n_shear shears on `shear_range`.  Only the shearlet chart uses
    the shear axis, but every family checks it.
    """
    record = FAMILIES[spec.family.kind]
    lams, dlam = _midpoints(lam_range, record.n_lam if n_lam is None else n_lam, "lam")
    shears, dshear = _midpoints(shear_range, n_shear, "shear")
    pts, volume = record.quotient(lams, dlam, shears, dshear)
    return GroupSampling(spec, pts, np.full(len(pts), volume))
