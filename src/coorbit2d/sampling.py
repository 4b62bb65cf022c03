"""Quadrature sampling of the dilation group in chart coordinates.

Charts are sampled on uniform grids (midpoint rule in the unbounded
coordinates, uniform points on the periodic angle), one sheet per connected
component carrying signs.  Each sampling stores the per-point chart cell
volume together with the two derived weight vectors used everywhere
downstream:  ``haar_w = haar density x volume`` (integration over H) and
``g_w = haar_w / |det h|`` (h-marginal of the full group measure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .groups import (
    DIAGONAL,
    SHEARLET,
    SIMILITUDE,
    DiagonalChart,
    ShearletChart,
    SimilitudeChart,
    g_weight,
    haar_weight,
)


@dataclass(frozen=True, eq=False)
class GroupSampling:
    """Finite set of chart points with cell volumes and derived weights."""

    points: Tuple
    volumes: np.ndarray
    haar_w: np.ndarray
    g_w: np.ndarray

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("sampling must contain at least one chart point")
        for name in ("volumes", "haar_w", "g_w"):
            w = np.asarray(getattr(self, name), dtype=float)
            if w.shape != (len(self.points),):
                raise ValueError(f"{name}: one value per chart point required")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError(f"{name}: values must be finite and positive")

    def __len__(self):
        return len(self.points)


def build_sampling(spec, points, volumes):
    """Attach Haar and group weights of `spec` to raw chart points."""
    points = tuple(points)
    vol = np.asarray(volumes, dtype=float)
    haar = np.array([haar_weight(spec, p) for p in points]) * vol
    gw = np.array([g_weight(spec, p) for p in points]) * vol
    return GroupSampling(points, vol, haar, gw)


def _midpoints(lo, hi, n):
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step, step


def similitude_sampling(spec, lam_range=(-2.0, 2.0), n_lam=32, n_theta=32):
    lams, dlam = _midpoints(*lam_range, n_lam)
    dth = 2.0 * np.pi / n_theta
    thetas = np.arange(n_theta) * dth
    pts = [SimilitudeChart(lam, th) for lam in lams for th in thetas]
    return build_sampling(spec, pts, np.full(len(pts), dlam * dth))


def diagonal_sampling(spec, lam_range=(-2.0, 2.0), n_lam=16, signs=None):
    if signs is None:
        signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    lams, dlam = _midpoints(*lam_range, n_lam)
    pts = [
        DiagonalChart(l1, l2, e1, e2)
        for (e1, e2) in signs
        for l1 in lams
        for l2 in lams
    ]
    return build_sampling(spec, pts, np.full(len(pts), dlam * dlam))


def shearlet_sampling(spec, lam_range=(-2.0, 2.0), n_lam=16,
                      shear_range=(-5.0, 5.0), n_shear=48, signs=(1, -1)):
    lams, dlam = _midpoints(*lam_range, n_lam)
    shears, dshear = _midpoints(*shear_range, n_shear)
    pts = [
        ShearletChart(eps, lam, b)
        for eps in signs
        for lam in lams
        for b in shears
    ]
    return build_sampling(spec, pts, np.full(len(pts), dlam * dshear))


def default_sampling(spec, refine=1):
    """Family-appropriate default chart grid; `refine` scales the resolution."""
    r = int(refine)
    if r < 1:
        raise ValueError("refine must be a positive integer")
    kind = spec.family.kind
    if kind == SIMILITUDE:
        return similitude_sampling(spec, n_lam=32 * r, n_theta=32 * r)
    if kind == DIAGONAL:
        return diagonal_sampling(spec, n_lam=16 * r)
    return shearlet_sampling(spec, n_lam=16 * r, n_shear=48 * r)
