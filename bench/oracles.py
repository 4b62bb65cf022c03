"""Correctness oracles for the transform workloads; they hold for any seed.

On the grid, every transform pipeline collapses to the Calderon multiplier

    C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2

over the sampled chart, because g_w(h) |det h| = haar_w(h):

* ||W f||_2^2 = sum_xi |fhat|^2 C / L^2            (grid Plancherel)
* invert(analyze(f)) = inverse FT of fhat C / C_psi

C is built here from public functions only (element_from_chart,
WaveletSpec.evaluate, spectrum_from_signal), independently of the transform
module, so the identities can be tested to roundoff.  Each check returns
None when the output is right and a one-line description when it is not.
"""

from __future__ import annotations

import numpy as np

from coorbit2d import (
    default_sampling,
    default_wavelet,
    element_from_chart,
    signal_from_spectrum,
    spectrum_from_signal,
)
from coorbit2d.signals import freq_grids

REL_TOL = 1e-10  # the identities are exact on the grid; this is roundoff headroom
ROUNDOFF = 1e-12  # for relations the program computes directly


def calderon_multiplier(spec, n, length):
    """C(xi) on the n x n grid for the default CLI sampling and wavelet of `spec`."""
    psi = default_wavelet(spec)
    sampling = default_sampling(spec)
    xi1, xi2 = freq_grids(n, length)
    c = np.zeros((n, n))
    for p, w in zip(sampling.points, sampling.haar_w):
        h = element_from_chart(spec, p)
        v = psi.evaluate(h[0, 0] * xi1 + h[1, 0] * xi2, h[0, 1] * xi1 + h[1, 1] * xi2)
        c += w * v * v
    return c


def weighted_energy(sig, c):
    """||W f||_2^2 predicted by the multiplier: sum |fhat|^2 C / L^2."""
    fhat = spectrum_from_signal(sig)
    return float(np.sum(np.abs(fhat) ** 2 * c) / sig.L ** 2)


def _rel_gap(value, reference):
    return abs(value - reference) / abs(reference)


def check_norm2(norm, energy):
    """coorbit_norm(p=2)^2 must equal the multiplier energy."""
    gap = _rel_gap(norm ** 2, energy)
    if not gap <= REL_TOL:
        return f"norm^2 {norm ** 2:.17g} vs multiplier {energy:.17g} (rel {gap:.2e})"
    return None


def check_energy(total_weighted_energy, energy):
    """analyze's total_weighted_energy must equal the multiplier energy."""
    gap = _rel_gap(total_weighted_energy, energy)
    if not gap <= REL_TOL:
        return (f"total_weighted_energy {total_weighted_energy:.17g} vs multiplier "
                f"{energy:.17g} (rel {gap:.2e})")
    return None


def check_invert(rec, sig, c, c_psi):
    """The reconstruction must equal the inverse FT of fhat C / C_psi."""
    ref = signal_from_spectrum(spectrum_from_signal(sig) * c / c_psi, sig.N, sig.L)
    gap = np.linalg.norm(rec.data - ref) / np.linalg.norm(ref)
    if not gap <= REL_TOL:
        return f"reconstruction differs from multiplier image (rel {gap:.2e})"
    return None


def check_holder(total_weighted_energy, norm1, norm_inf):
    """||W||_2^2 <= ||W||_inf ||W||_1 (same weights), up to roundoff."""
    bound = norm_inf * norm1
    if not total_weighted_energy <= bound * (1.0 + ROUNDOFF):
        return f"Holder violated: {total_weighted_energy:.17g} > {bound:.17g}"
    return None


def check_compare_rows(rows):
    """Every compare row is finite, non-degenerate and has ratio = norm1 / norm2."""
    if not rows:
        return "compare returned no rows"
    for i, row in enumerate(rows):
        n1, n2, ratio = row["norm1"], row["norm2"], row["ratio"]
        if row["degenerate"] or ratio is None:
            return f"row {i} is degenerate"
        if not all(np.isfinite(v) for v in (n1, n2, ratio)) or n2 == 0.0:
            return f"row {i} is not finite"
        gap = _rel_gap(ratio, n1 / n2)
        if not gap <= ROUNDOFF:
            return f"row {i}: ratio {ratio:.17g} != norm1/norm2 (rel {gap:.2e})"
    return None
