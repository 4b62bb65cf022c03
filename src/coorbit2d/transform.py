"""Continuous wavelet analysis over sampled group charts, coorbit quasi-norms,
the admissibility (Calderon) constant, inversion, and covariance checks.

All frequency-domain objects live on the grid lattice of the signal.  For a
group element h the analysis plane is

    W(., h) = inverse FT of [ fhat(xi) * |det h|^(1/2) * conj(psihat(h^T xi)) ]

with psihat always evaluated in closed form at h^T xi.  The coorbit
quasi-norm integrates |W|^p over space (cell (L/N)^2) and over the chart with
the g-weights of the sampling; no triangle inequality is assumed anywhere, so
p < 1 uses the same formula.

Because g_w(h) * |det h| = haar_w(h), every quadratic quantity of the sampled
transform collapses onto the Calderon multiplier

    C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2      (calderon_multiplier)

exactly on the grid:  ||W f||_{L^2(G)}^2 = sum_xi |fhat|^2 C / L^2  (grid
Plancherel) and  invert(analyze(f)) = inverse FT of fhat C / C_psi.  The
p = 2 norm of a signal (signal_coorbit_norm) and the reconstruction of a
signal (reconstruct) are computed that way, with two FFTs at most and no
M x N x N coefficient slab; the admissibility constant is the same kernel at
a few orbit samples.  `analyze`, `coorbit_norm` and `invert` remain the
coefficient-domain path: norms with p != 2 and per-plane energies need every
coefficient, and the tests use them as the reference for the multiplier.

Planes are independent across chart points; the plane map may run on a thread
pool (COORBIT2D_THREADS caps the width) and is deterministic regardless of
schedule.  Reductions across planes run in index order.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .classify import orbit_contains
from .errors import CoverageWarning, NotInGroupError, OrbitSampleError
from .groups import (
    DIAGONAL,
    SHEARLET,
    SIMILITUDE,
    as_matrix,
    as_vector,
    chart_from_element,
    contains,
    element_from_chart,
)
from .sampling import GroupSampling
from .signals import (
    GridSignal,
    TestSignal,
    freq_grids,
    signal_from_spectrum,
    spectrum_from_signal,
)
from .wavelets import WaveletSpec


def _resolve_threads(threads):
    if threads is None:
        try:
            threads = int(os.environ.get("COORBIT2D_THREADS", "1"))
        except ValueError:
            threads = 1
    return max(1, int(threads))


def _map_indexed(fn, n_items, threads):
    """Apply fn(i) for i in range(n_items), optionally on a thread pool.

    Results land in index order; each item is computed independently, so the
    output does not depend on the schedule.
    """
    if threads <= 1 or n_items <= 1:
        for i in range(n_items):
            fn(i)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fn, range(n_items)))


@dataclass(frozen=True, eq=False)
class CoeffSlab:
    """Wavelet coefficients W(x, h): one N x N plane per sampled chart point."""

    planes: np.ndarray
    sampling: GroupSampling
    N: int
    L: float

    def __post_init__(self):
        if self.planes.shape != (len(self.sampling), self.N, self.N):
            raise ValueError("plane stack does not match sampling and grid")

    def __len__(self):
        return len(self.sampling)

    def plane_energies(self):
        """Per-plane spatial L^2 energies, cell-weighted."""
        cell = (self.L / self.N) ** 2
        return np.sum(np.abs(self.planes) ** 2, axis=(1, 2)) * cell


def _det_and_eta(h, xi1, xi2):
    det = abs(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0])
    eta1 = h[0, 0] * xi1 + h[1, 0] * xi2
    eta2 = h[0, 1] * xi1 + h[1, 1] * xi2
    return det, eta1, eta2


def _warn_uncovered(spec, sampling, psi, n, length, stacklevel=3):
    """Warn when some sampled h pushes the wavelet support out of the band."""
    nyq = (n / 2 - 1) / length
    m1, m2 = psi.support_box()
    corners = np.array([[m1, m2], [m1, -m2], [-m1, m2], [-m1, -m2]]).T
    worst = 0.0
    for p in sampling.points:
        h = element_from_chart(spec, p)
        # support of xi -> psihat(h^T xi) is (h B)^-T applied to the eta box
        mapped = np.linalg.inv((h @ psi.conjugator).T) @ corners
        worst = max(worst, float(np.max(np.abs(mapped))))
    if worst > nyq:
        warnings.warn(
            f"wavelet support reaches |xi| ~ {worst:.3g} for some sampled h, "
            f"beyond the representable band {nyq:.3g}",
            CoverageWarning,
            stacklevel=stacklevel,
        )


# chart points per multiplier chunk times frequencies.  On a 128 x 128 grid
# (2-core Xeon) 2^16 ran at the speed of a per-plane loop and larger budgets
# ran slower; a few Calderon samples take the whole sampling in one chunk.
_CHUNK_ELEMENTS = 2 ** 16


def calderon_multiplier(spec, psi, sampling, xi1, xi2):
    """C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2 at broadcastable frequencies.

    The sum runs over the sampled chart in index order, a chunk of planes at
    a time; the result has the broadcast shape of (xi1, xi2).
    """
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=float),
                                   np.asarray(xi2, dtype=float))
    shape = xi1.shape
    x1, x2 = xi1.reshape(1, -1), xi2.reshape(1, -1)
    mats = np.array([element_from_chart(spec, p) for p in sampling.points])
    step = max(1, _CHUNK_ELEMENTS // max(x1.size, 1))
    total = np.zeros(x1.size)
    for lo in range(0, len(mats), step):
        h = mats[lo:lo + step]
        vals = psi.evaluate(h[:, 0, 0, None] * x1 + h[:, 1, 0, None] * x2,
                            h[:, 0, 1, None] * x1 + h[:, 1, 1, None] * x2)
        total += sampling.haar_w[lo:lo + step] @ (vals * vals)
    return total.reshape(shape)


def _grid_multiplier(f, spec, sampling, psi):
    """Spectrum of a grid signal and the Calderon multiplier on its lattice."""
    if not isinstance(f, GridSignal):
        raise TypeError("f must be a GridSignal")
    _warn_uncovered(spec, sampling, psi, f.N, f.L, stacklevel=4)
    xi1, xi2 = freq_grids(f.N, f.L)
    return spectrum_from_signal(f), calderon_multiplier(spec, psi, sampling, xi1, xi2)


def signal_coorbit_norm(f, spec, sampling, psi, p, threads=None):
    """Coorbit quasi-norm ||W f||_{L^p(G)} of a grid signal.

    p = 2 is computed from the Calderon multiplier as
    sqrt(sum |fhat|^2 C / L^2), which equals coorbit_norm(analyze(f), 2) to
    roundoff; every other p analyzes the signal and reduces the slab.
    """
    if p == 2:
        fhat, c = _grid_multiplier(f, spec, sampling, psi)
        return float(np.sqrt(np.sum(np.abs(fhat) ** 2 * c)) / f.L)
    return coorbit_norm(analyze(f, spec, sampling, psi, threads), p)


def reconstruct(f, spec, sampling, psi, c_psi):
    """invert(analyze(f), ...) computed as the inverse FT of fhat C / C_psi."""
    if not (c_psi > 0):
        raise ValueError("C_psi must be positive")
    fhat, c = _grid_multiplier(f, spec, sampling, psi)
    return GridSignal(f.N, f.L, signal_from_spectrum(fhat * c / c_psi, f.N, f.L))


def analyze(f, spec, sampling, psi, threads=None):
    """Continuous wavelet transform of a grid signal over the sampled chart."""
    if not isinstance(f, GridSignal):
        raise TypeError("f must be a GridSignal")
    if len(sampling) == 0:
        raise ValueError("empty sampling")
    n, length = f.N, f.L
    _warn_uncovered(spec, sampling, psi, n, length)
    fhat = spectrum_from_signal(f)
    xi1, xi2 = freq_grids(n, length)
    mats = [element_from_chart(spec, p) for p in sampling.points]
    planes = np.empty((len(sampling), n, n), dtype=complex)

    def one(i):
        det, eta1, eta2 = _det_and_eta(mats[i], xi1, xi2)
        what = fhat * (np.sqrt(det) * np.conj(psi.evaluate(eta1, eta2)))
        planes[i] = signal_from_spectrum(what, n, length)

    _map_indexed(one, len(sampling), _resolve_threads(threads))
    return CoeffSlab(planes, sampling, n, length)


def coorbit_norm(slab, p):
    """Coorbit quasi-norm ||W||_{L^p(G)} of a coefficient slab.

    p < inf:  ( sum_h g_w(h) * sum_x |W(x,h)|^p * (L/N)^2 )^(1/p);
    p = inf:  max over all samples.
    """
    if not np.isscalar(p) or not (p > 0):
        raise ValueError("p must be a positive exponent or inf")
    mags = np.abs(slab.planes)
    if np.isinf(p):
        return float(mags.max())
    cell = (slab.L / slab.N) ** 2
    per_plane = np.sum(mags ** p, axis=(1, 2)) * cell
    total = 0.0
    for i in range(len(slab)):  # index order: reference reduction mode
        total += slab.sampling.g_w[i] * per_plane[i]
    return float(total ** (1.0 / p))


@dataclass(frozen=True)
class CalderonResult:
    mean: float
    max_rel_deviation: float
    values: tuple

    def __iter__(self):  # unpacks like (mean, deviation)
        return iter((self.mean, self.max_rel_deviation))


def default_orbit_samples(spec, n=16):
    """Frequencies well inside the dual orbit and inside default chart coverage.

    Chosen in standard (eta) coordinates per family and mapped back through
    B^-T, so the set respects the conjugation.
    """
    kind = spec.family.kind
    pts = []
    if kind == SIMILITUDE:
        radii = (0.6, 1.0, 1.4, 2.0)
        angles = (0.3, 1.2, 2.5, 4.0)
        pts = [
            (r * np.cos(a), r * np.sin(a)) for r in radii for a in angles
        ]
    elif kind == DIAGONAL:
        mags = (0.7, 1.2)
        pts = [
            (s1 * u, s2 * v)
            for s1 in (1.0, -1.0)
            for s2 in (1.0, -1.0)
            for u in mags
            for v in mags
        ]
    else:
        ratios = (-0.35, -0.1, 0.2, 0.45)
        pts = [
            (s1 * m, s1 * m * r)
            for s1 in (1.0, -1.0)
            for m in (0.8, 1.25)
            for r in ratios
        ]
    binv_t = np.linalg.inv(spec.conjugator).T
    out = [binv_t @ np.array(p) for p in pts]
    return out[:n]


def calderon_constant(spec, psi, xi_samples, sampling, margin=1e-6):
    """Admissibility integral C(xi) = sum_h haar_w |psihat(h^T xi)|^2 per sample.

    Returns the mean over samples and the largest relative deviation from it;
    for an admissible pair the deviation vanishes as the sampling refines.
    """
    xi_samples = [as_vector(x, "xi sample") for x in xi_samples]
    if not xi_samples:
        raise ValueError("need at least one frequency sample")
    for x in xi_samples:
        if not orbit_contains(spec, x, margin):
            raise OrbitSampleError(
                f"frequency sample {x.tolist()} is not inside the dual orbit"
            )
    pts = np.array(xi_samples)
    values = calderon_multiplier(spec, psi, sampling, pts[:, 0], pts[:, 1])
    mean = float(values.mean())
    if mean <= 0.0:
        raise OrbitSampleError("admissibility integral vanished on all samples")
    dev = float(np.max(np.abs(values - mean)) / mean)
    return CalderonResult(mean, dev, tuple(values))


def invert(slab, spec, sampling, psi, c_psi, threads=None):
    """Reconstruction from a coefficient slab via the inversion formula.

    Accumulates g_w(h) * FT(W(., h)) * |det h|^(1/2) * psihat(h^T xi) in the
    DFT domain and applies a single inverse transform, scaled by 1/C_psi.
    """
    if not (c_psi > 0):
        raise ValueError("C_psi must be positive")
    n, length = slab.N, slab.L
    xi1, xi2 = freq_grids(n, length)
    acc = np.zeros((n, n), dtype=complex)
    mats = [element_from_chart(spec, p) for p in sampling.points]
    if len(mats) != len(slab):
        raise ValueError("sampling does not match slab")
    contribs = np.empty((len(slab), n, n), dtype=complex)

    def one(i):
        det, eta1, eta2 = _det_and_eta(mats[i], xi1, xi2)
        plane_sig = GridSignal(n, length, slab.planes[i])
        what = spectrum_from_signal(plane_sig)
        contribs[i] = (sampling.g_w[i] * np.sqrt(det)) * what * psi.evaluate(eta1, eta2)

    _map_indexed(one, len(slab), _resolve_threads(threads))
    for i in range(len(slab)):  # index order: reference reduction mode
        acc += contribs[i]
    data = signal_from_spectrum(acc / c_psi, n, length)
    return GridSignal(n, length, data)


# ---------------------------------------------------------------------------
# covariance check


def _is_grid_shift(y, n, length, tol=1e-12):
    steps = np.asarray(y) / (length / n)
    rounded = np.round(steps)
    if np.max(np.abs(steps - rounded)) <= tol:
        return rounded.astype(int)
    return None


def _trig_eval(coeffs, omega1, omega2, pos1, pos2):
    """Evaluate sum_k c_k exp(2 pi i (p1 w1 + p2 w2)) on the product grid."""
    a = np.exp(2j * np.pi * np.outer(pos1, omega1.ravel()))
    b = np.exp(2j * np.pi * np.outer(pos2, omega2.ravel()))
    return (a * coeffs.ravel()[None, :]) @ b.T


def covariance_residual(f, y, g, h_chart, spec, psi):
    """Residual of W(pi(y,g) f)(x, h) = W f((y,g)^-1 (x, h)) over the grid.

    The left side analyzes the transformed signal (exact spectrum
    |det g|^(1/2) e^(-2 pi i y.xi) fhat(g^T xi)); the right side evaluates the
    plane computed at the chart point of g^-1 h at the points g^-1 (x - y).
    Reported as max |LHS - RHS| relative to the plane maximum.
    """
    if not isinstance(f, TestSignal):
        raise TypeError("f must be a TestSignal with a closed-form spectrum")
    g = as_matrix(g, "g")
    y = as_vector(y, "y")
    if not contains(spec, g):
        raise NotInGroupError("g is not an element of the represented group")
    h = element_from_chart(spec, h_chart)
    hp = np.linalg.inv(g) @ h
    if not contains(spec, hp):
        raise NotInGroupError("g^-1 h is not representable in the chart")
    hp = element_from_chart(spec, chart_from_element(spec, hp))

    n, length = f.signal.N, f.signal.L
    xi1, xi2 = freq_grids(n, length)
    det_g = abs(np.linalg.det(g))

    # left side: analyze pi(y, g) f at h
    gt1 = g[0, 0] * xi1 + g[1, 0] * xi2
    gt2 = g[0, 1] * xi1 + g[1, 1] * xi2
    moved = (np.sqrt(det_g)
             * np.exp(-2j * np.pi * (y[0] * xi1 + y[1] * xi2))
             * f.spectrum(gt1, gt2))
    det_h, e1, e2 = _det_and_eta(h, xi1, xi2)
    lhs_hat = moved * (np.sqrt(det_h) * np.conj(psi.evaluate(e1, e2)))
    lhs = signal_from_spectrum(lhs_hat, n, length)

    # right side: plane at chart(g^-1 h), evaluated at x' = g^-1 (x - y)
    det_hp, p1, p2 = _det_and_eta(hp, xi1, xi2)
    rhs_hat = f.spectrum(xi1, xi2) * (np.sqrt(det_hp) * np.conj(psi.evaluate(p1, p2)))
    shift = _is_grid_shift(y, n, length) if np.array_equal(g, np.eye(2)) else None
    if shift is not None:
        plane = signal_from_spectrum(rhs_hat, n, length)
        rhs = np.roll(plane, (shift[0], shift[1]), axis=(0, 1))
    else:
        gmt = np.linalg.inv(g).T
        om1, om2 = np.broadcast_arrays(gmt[0, 0] * xi1 + gmt[0, 1] * xi2,
                                       gmt[1, 0] * xi1 + gmt[1, 1] * xi2)
        pos = (np.arange(n) / n - 0.5) * length
        rhs = _trig_eval(rhs_hat / length ** 2, om1, om2,
                         pos - y[0], pos - y[1])
    scale = float(np.max(np.abs(lhs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# norm-ratio profiling


@dataclass(frozen=True)
class RatioRow:
    label: str
    norm1: float
    norm2: float
    ratio: Optional[float]
    degenerate: bool


@dataclass(frozen=True)
class RatioTable:
    rows: tuple
    p: float

    def valid_ratios(self):
        return [r.ratio for r in self.rows if not r.degenerate]

    def summary(self):
        ratios = self.valid_ratios()
        if not ratios:
            return {"min": None, "max": None, "spread": None}
        lo, hi = min(ratios), max(ratios)
        return {"min": lo, "max": hi, "spread": hi / lo if lo > 0 else None}


def norm_ratio_profile(s1, s2, p, signals, sampling1, sampling2,
                       psi1=None, psi2=None, threads=None):
    """Coorbit-norm ratios ||f||_{s1} / ||f||_{s2} over a family of signals."""
    from .wavelets import default_wavelet

    if psi1 is None:
        psi1 = default_wavelet(s1)
    if psi2 is None:
        psi2 = default_wavelet(s2)
    rows = []
    for f in signals:
        n1 = signal_coorbit_norm(f.signal, s1, sampling1, psi1, p, threads)
        n2 = signal_coorbit_norm(f.signal, s2, sampling2, psi2, p, threads)
        scale = max(f.signal.norm_l2(), 1.0)
        degenerate = n2 <= 1e-14 * scale or n1 <= 1e-14 * scale
        ratio = None if degenerate else n1 / n2
        rows.append(RatioRow(f.label, n1, n2, ratio, degenerate))
    return RatioTable(tuple(rows), float(p))
