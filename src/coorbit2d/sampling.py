"""Quadrature sampling of the dilation group in chart coordinates.

Charts are sampled on uniform grids (midpoint rule in the unbounded
coordinates).  A sampling stores its M chart points as a read-only (M, k)
array of rows, in the column order of :mod:`coorbit2d.groups`, and the
per-point chart cell volume together with the two derived weight vectors used
everywhere downstream:  ``haar_w = haar density x volume`` (integration over
H) and ``g_w = haar_w / |det h|`` (h-marginal of the full group measure).

`default_sampling` is the one builder.  It covers the quotient H/K_psi, where
K_psi is the compact subgroup that leaves the group's wavelet profile
invariant: the rotations for similitude, the four sign elements for diagonal
and +-I for shearlet.  Since W f(., h k) = W f(., h) for k in K_psi, each
class needs one row.  The family record's `quotient` lays the rows out on the
log-scale and shear grids and gives the cell volume, which includes the
measure of K_psi; the builder only makes the grids and the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightRangeError
from .families import FAMILIES
from .groups import g_weight, haar_weight

# the default chart ranges of `default_sampling`; the CLI flags default to them
LAM_RANGE = (-2.0, 2.0)
SHEAR_RANGE = (-5.0, 5.0)


@dataclass(frozen=True, eq=False)
class GroupSampling:
    """M chart points with cell volumes and derived weights.

    `points` is a read-only (M, k) float array, one chart point per row;
    `volumes`, `haar_w` and `g_w` are read-only, with one value per row.
    """

    points: np.ndarray
    volumes: np.ndarray
    haar_w: np.ndarray
    g_w: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (M, k) array, got shape {pts.shape}")
        if pts.size == 0:
            raise ValueError("sampling must contain at least one chart point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("chart coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        for name in ("volumes", "haar_w", "g_w"):
            w = np.array(getattr(self, name), dtype=float)
            if w.shape != (len(pts),):
                raise ValueError(f"{name}: one value per chart point required")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError(f"{name}: values must be finite and positive")
            w.flags.writeable = False
            object.__setattr__(self, name, w)

    def __len__(self):
        return len(self.points)


def build_sampling(spec, points, volumes):
    """Attach Haar and group weights of `spec` to chart points.

    `points` is an (M, k) array of chart rows or a sequence of M chart points.
    """
    pts = np.asarray(points, dtype=float)
    vol = np.asarray(volumes, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        haar_w, g_w = haar_weight(spec, pts) * vol, g_weight(spec, pts) * vol
    # with valid volumes, weights out of range are the spec's doing: a shearlet
    # exponent |c| above ~378 on the default log-scales (up to 1.875)
    valid = [np.all(np.isfinite(w) & (w > 0)) for w in (vol, haar_w, g_w)]
    if valid[0] and not all(valid):
        raise WeightRangeError(f"the weights of {spec!r} leave the float range")
    return GroupSampling(pts, vol, haar_w, g_w)


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
                     shear_range=SHEAR_RANGE, n_shear=48):
    """The midpoint grid over H/K_psi of the spec's family.

    n_lam points per log-scale axis on `lam_range` (the family's count when
    None) and n_shear shears on `shear_range`.  Only the shearlet chart uses
    the shear axis, but every family checks it.
    """
    record = FAMILIES[spec.family.kind]
    lams, dlam = _midpoints(lam_range, record.n_lam if n_lam is None else n_lam, "lam")
    shears, dshear = _midpoints(shear_range, n_shear, "shear")
    pts, volume = record.quotient(lams, dlam, shears, dshear)
    return build_sampling(spec, pts, np.full(len(pts), volume))
