"""Band-limited admissible wavelets with closed-form frequency profiles.

Each group spec has one wavelet, ``default_wavelet(spec)``: the profile of
its family's record in :mod:`coorbit2d.families` at ``eta = B^T xi``, where
``B`` is the conjugator, which places the support inside the conjugated dual
orbit.  Values always come from the closed form; no resampling or
interpolation enters any transform built on top.
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
        m, values = FAMILIES[self.spec.family.kind].profile(e1, e2, tmp)
        out[m] = values
        return out.reshape(shape)


def default_wavelet(spec):
    """The admissible wavelet of a group spec; its conjugator was checked there.

    It needs no support check: in eta = B^T xi its support pieces keep
    away from the lines of the family's complement, inside the dual orbit.
    """
    return WaveletSpec(spec)
