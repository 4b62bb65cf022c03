"""Band-limited admissible wavelets with closed-form frequency profiles.

Each group spec has one wavelet, ``default_wavelet(spec)``: the profile of
its family's record in :mod:`coorbit2d.families` at ``eta = B^T xi``, where
``B`` is the conjugator, which places the support inside the conjugated dual
orbit.  Values come from the closed form at every frequency; no mask,
resampling or interpolation enters any transform built on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bump stays importable from this module
from .families import FAMILIES, bump  # noqa: F401
from .groups import GroupSpec


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """Closed-form frequency profile of a group spec's family and conjugator."""

    spec: GroupSpec

    def evaluate(self, xi1, xi2):
        """psi-hat at arbitrary frequencies (broadcastable arrays or scalars):
        exactly +0.0 off the support, also where eta = B^T xi is 0, inf or nan."""
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        b = self.spec.conjugator
        e1 = b[0, 0] * xi1 + b[1, 0] * xi2
        e2 = b[0, 1] * xi1 + b[1, 1] * xi2
        # log2(0) and eta2 / eta1 give +-inf or nan, which the bump maps to 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return FAMILIES[self.spec.family.kind].profile(e1, e2)


def default_wavelet(spec):
    """The admissible wavelet of a group spec; its conjugator was checked there.

    It needs no support check: in eta = B^T xi its support keeps away from
    the lines of the family's complement, inside the dual orbit.
    """
    return WaveletSpec(spec)
