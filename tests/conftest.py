import struct

import numpy as np
import pytest

from coorbit2d import (
    GridSignal,
    GroupSpec,
    analyze,
    build_sampling,
    diagonal,
    element_from_chart,
    freq_bump,
    freq_grids,
    signal_from_spectrum,
    spectrum_from_signal,
)


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
    return analyze(sig, spec, build_sampling(spec, [chart], [1.0])).planes[0]


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
    planes = analyze(f, spec, build_sampling(spec, [h_chart, hk_chart], [1.0, 1.0])).planes
    assert np.any(planes[0]), "W f(., h) is 0: choose f and h that overlap"
    if np.array_equal(planes[0], planes[1]):
        return 0.0
    return float(np.max(np.abs(planes[1] - planes[0])) / np.max(np.abs(planes)))
