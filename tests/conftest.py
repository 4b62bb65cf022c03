import struct
from dataclasses import dataclass

import numpy as np
import pytest

from coorbit2d import (
    GridSignal,
    GroupSampling,
    GroupSpec,
    diagonal,
    element_from_chart,
    freq_bump,
    freq_grids,
    signal_from_spectrum,
    spectrum_from_signal,
)
from coorbit2d import transform
from coorbit2d.signals import _phase_grid


# ---------------------------------------------------------------------------
# the coefficient slab: the tests' reference for the streamed transform
#
# It holds all M x N x N coefficients and is built on the same private
# kernels as the product (`transform._planes`, `_plane_stats`,
# `_coorbit_total`, `_class_values`, `_root_det`), so a comparison between a
# slab and a streamed result can be exact.


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
        sums, _ = transform._plane_stats(self.planes, (len(self),), 2,
                                         (self.L / self.N) ** 2)
        return sums


def analyze(f, sampling):
    """Continuous wavelet transform of a grid signal over the sampled chart."""
    n, length = transform._grid([f])
    planes = np.zeros((len(sampling), n, n), dtype=complex)
    for k, w in enumerate(transform._planes([f], sampling)):
        if w is not None:
            planes[k] = w[0]
    return CoeffSlab(planes, sampling, n, length)


def coorbit_norm(slab, p):
    """Coorbit quasi-norm ||W||_{L^p(G)} of a coefficient slab.

    p < inf:  ( sum_h g_w(h) * sum_x |W(x,h)|^p * (L/N)^2 )^(1/p);
    p = inf:  max over all samples.
    The slab is reduced one plane at a time.
    """
    transform._check_exponent(p)
    sums, peaks = transform._plane_stats(slab.planes, (len(slab),), p,
                                         (slab.L / slab.N) ** 2)
    return transform._coorbit_total(sums, peaks, slab.sampling.g_w, p)


def invert(slab, c_psi):
    """Reconstruction from a coefficient slab via the inversion formula.

    Accumulates g_w(h) * FT(W(., h)) * |det h|^(1/2) * psihat(h^T xi) over
    the sampling of the slab in the DFT domain, in index order, and applies a
    single inverse transform, scaled by 1/C_psi.  Every plane takes its own
    FFT, since a slab may have been edited, except the planes of a row whose
    psihat is exactly 0 on the lattice, which add exactly 0.
    """
    if not (c_psi > 0):
        raise ValueError("C_psi must be positive")
    n, length, sampling = slab.N, slab.L, slab.sampling
    acc = np.zeros((n, n), dtype=complex)
    root_det = transform._root_det(sampling)
    # spectrum_from_signal's factor: a plane holds coefficients, not a signal
    dx = length / n
    fold = (dx * dx) * _phase_grid(n)
    for k, vals in enumerate(transform._class_values(sampling, n, length)):
        if vals is not None:
            what = fold * np.fft.fft2(slab.planes[k])
            acc += (sampling.g_w[k] * root_det[k]) * what * vals
    data = signal_from_spectrum(acc / c_psi, n, length)
    return GridSignal(n, length, data)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_invertible(rng, n=1, min_det=0.1):
    """Random well-conditioned invertible 2x2 matrices."""
    out = []
    while len(out) < n:
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) >= min_det:
            out.append(m)
    return out[0] if n == 1 else out


def diagonal_spec_from_lines(a1, a2):
    """Diagonal-family spec whose dual-orbit complement is the lines {a1, a2}."""
    directions = np.array([[np.cos(a1), np.cos(a2)], [np.sin(a1), np.sin(a2)]])
    return GroupSpec(diagonal(), np.linalg.inv(directions).T)


def write_raw_signal(path, n, length, data):
    """A .sig file written byte by byte, past GridSignal's rule: the header
    (magic, u16 version, u32 N, f64 L) and N^2 little-endian complex128."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHId", b"C2D1", 1, n, length))
        fh.write(np.asarray(data, dtype="<c16").tobytes())


def big_bump_data():
    """The 32 x 32 freq_bump at (0.8, 0.2), L = 8, scaled by 1e200: its
    samples are finite (max |f| ~ 1.4e199), its energy overflows."""
    bump = freq_bump(32, 8.0, center=(0.8, 0.2), sigma=0.15).signal
    return 1e200 * bump.data


def chart_quotient(spec, g_chart, h_chart):
    """The chart point of g^-1 h, by chart arithmetic in standard coordinates."""
    g, h = np.asarray(g_chart, dtype=float), np.asarray(h_chart, dtype=float)
    kind = spec.family.kind
    if kind == "similitude":  # exp(lam) R(theta): lam and theta subtract
        return h - g
    if kind == "diagonal":  # log-scales subtract, signs multiply
        return np.concatenate([h[:2] - g[:2], g[2:] * h[2:]])
    # eps [[a, b], [0, a^c]]: g^-1 h has shear (b_h - b_g (a_h / a_g)^c) / a_g
    lam = h[1] - g[1]
    shear = (h[2] - g[2] * np.exp(spec.family.c * lam)) * np.exp(-g[1])
    return np.array([g[0] * h[0], lam, shear])


def _plane(sig, spec, chart):
    """The analysis plane W sig(., h) at one chart point h."""
    return analyze(sig, GroupSampling(spec, [chart], [1.0])).planes[0]


def covariance_residual(f, y, g_chart, h_chart, spec):
    """Residual of W(pi(y, g) f)(x, h) = W f((y, g)^-1 (x, h)) over the grid.

    f is a test signal with a closed-form spectrum.  The left side analyzes
    pi(y, g) f, whose spectrum |det g|^(1/2) exp(-2 pi i y.xi) fhat(g^T xi)
    is sampled exactly; the right side takes the plane of f at the chart
    point of g^-1 h and evaluates it at g^-1 (x - y): by a roll when g = I
    and y is a whole number of grid steps, else by its trigonometric sum.
    Returns max |LHS - RHS| relative to max |LHS|.
    """
    n, length = f.signal.N, f.signal.L
    y = np.asarray(y, dtype=float)
    g = element_from_chart(spec, g_chart)
    xi1, xi2 = freq_grids(n, length)
    moved = (np.sqrt(abs(np.linalg.det(g)))
             * np.exp(-2j * np.pi * (y[0] * xi1 + y[1] * xi2))
             * f.spectrum(g[0, 0] * xi1 + g[1, 0] * xi2, g[0, 1] * xi1 + g[1, 1] * xi2))
    lhs = _plane(GridSignal(n, length, signal_from_spectrum(moved, n, length)),
                 spec, h_chart)
    plane = _plane(f.signal, spec, chart_quotient(spec, g_chart, h_chart))
    steps = y / (length / n)
    if np.array_equal(g, np.eye(2)) and np.max(np.abs(steps - np.round(steps))) <= 1e-12:
        rhs = np.roll(plane, np.round(steps).astype(int), axis=(0, 1))
    else:
        # sum_xi what(xi) / L^2 exp(2 pi i (x - y).g^-T xi) at the sample positions
        what = spectrum_from_signal(GridSignal(n, length, plane)) / length ** 2
        gmt = np.linalg.inv(g).T
        om1, om2 = np.broadcast_arrays(gmt[0, 0] * xi1 + gmt[0, 1] * xi2,
                                       gmt[1, 0] * xi1 + gmt[1, 1] * xi2)
        pos = (np.arange(n) / n - 0.5) * length
        a = np.exp(2j * np.pi * np.outer(pos - y[0], om1.ravel()))
        b = np.exp(2j * np.pi * np.outer(pos - y[1], om2.ravel()))
        rhs = (a * what.ravel()) @ b.T
    scale = float(np.max(np.abs(lhs)))
    return 0.0 if scale == 0.0 else float(np.max(np.abs(lhs - rhs)) / scale)


def stabilizer_residual(f, spec, h_chart, hk_chart):
    """Residual of W f(., h k) = W f(., h) for k in the stabilizer K_psi.

    h_chart is a chart row and hk_chart the row of h k: theta + phi for a
    rotation k (similitude), the signs multiplied for a sign element
    (diagonal), eps negated for k = -I (shearlet).  Both rows are analyzed in
    one two-row sampling.  Returns max |W(., h k) - W(., h)| relative to the
    larger plane's maximum, and exactly 0.0 when the planes are
    np.array_equal; a zero plane at h, where the identity says nothing, fails.
    """
    planes = analyze(f, GroupSampling(spec, [h_chart, hk_chart], [1.0, 1.0])).planes
    assert np.any(planes[0]), "W f(., h) is 0: choose f and h that overlap"
    if np.array_equal(planes[0], planes[1]):
        return 0.0
    return float(np.max(np.abs(planes[1] - planes[0])) / np.max(np.abs(planes)))
