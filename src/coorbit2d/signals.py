"""Sampled signals on a periodic square and their exact grid spectra.

Sample (i, j) of an N x N grid sits at ((i/N - 1/2) L, (j/N - 1/2) L); the
first array axis is the first spatial coordinate.  Spectra follow the
convention  fhat(xi) = integral f(x) exp(-2 pi i x.xi) dx  evaluated on the
frequency lattice k/L (numpy fft ordering), so Plancherel holds exactly on
the grid:  sum |f|^2 dx^2 = sum |fhat|^2 / L^2.  The centered grid brings in
an alternating-sign phase relative to numpy's corner-anchored transforms,
applied symmetrically in both directions below.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CoverageWarning
from .wavelets import bump


@dataclass(frozen=True, eq=False)
class GridSignal:
    """N x N complex samples of a function on an L-periodic square."""

    N: int
    L: float
    data: np.ndarray

    def __post_init__(self):
        n = int(self.N)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("N must be a power of two, at least 8")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError("L must be a positive finite length")
        d = np.asarray(self.data, dtype=complex)
        if d.shape != (n, n):
            raise ValueError(f"data must be {n}x{n}, got {d.shape}")
        if not np.all(np.isfinite(d.view(float))):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "data", d)

    @property
    def dx(self):
        return self.L / self.N

    def positions(self):
        """1D coordinate axis shared by both directions."""
        return (np.arange(self.N) / self.N - 0.5) * self.L

    def norm_l2(self):
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2) * self.dx ** 2))


def freq_axis(n, length):
    """Frequency lattice k/length in fft order (cycles per unit length)."""
    return np.fft.fftfreq(n, d=length / n)


def freq_grids(n, length):
    """Broadcastable (xi1, xi2) frequency grids matching the data layout."""
    f = freq_axis(n, length)
    return f[:, None], f[None, :]


def _half_shift(n):
    s = np.ones(n)
    s[1::2] = -1.0
    return s


def _phase_grid(n):
    s = _half_shift(n)
    return np.outer(s, s)


def spectrum_from_signal(sig):
    """Exact spectrum samples fhat(k/L) of a GridSignal."""
    dx = sig.dx
    return (dx * dx) * _phase_grid(sig.N) * np.fft.fft2(sig.data)


def signal_from_spectrum(spec_array, n, length):
    """Signal samples whose spectrum equals the given lattice samples."""
    spec_array = np.asarray(spec_array, dtype=complex)
    scale = (n / length) ** 2
    return scale * np.fft.ifft2(_phase_grid(n) * spec_array)


def spectral_norm_l2(spec_array, length):
    """L^2 norm computed from lattice spectrum samples (grid Plancherel)."""
    return float(np.sqrt(np.sum(np.abs(spec_array) ** 2) / length ** 2))


# ---------------------------------------------------------------------------
# closed-form test signals


@dataclass(frozen=True, eq=False)
class TestSignal:
    """A grid signal together with an exact closed-form spectrum evaluator.

    `spectrum(xi1, xi2)` accepts arbitrary (broadcastable) frequency arrays,
    so group-transformed spectra can be sampled without interpolation.
    """

    kind: str
    signal: GridSignal
    spectrum: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""


def _check_band(center, extent, n, length, what):
    nyq = (n / 2 - 1) / length
    reach = max(abs(center[0]), abs(center[1])) + extent
    if reach > nyq:
        warnings.warn(
            f"{what} reaches |xi| ~ {reach:.3g}, beyond the representable "
            f"band {nyq:.3g} of the {n}x{n} grid",
            CoverageWarning,
            stacklevel=3,
        )


def freq_bump(n, length, center, sigma, amplitude=1.0, shape="gaussian",
              x0=(0.0, 0.0)):
    """Atom concentrated near one frequency: Gaussian or compact bump profile.

    `x0` shifts the atom in space (a pure phase on the spectrum).
    """
    center = np.asarray(center, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if shape not in ("gaussian", "bump"):
        raise ValueError(f"unknown bump shape {shape!r}")
    extent = 3.5 * sigma if shape == "gaussian" else sigma
    _check_band(center, extent, n, length, "frequency bump")

    def spectrum(xi1, xi2):
        d2 = (xi1 - center[0]) ** 2 + (xi2 - center[1]) ** 2
        if shape == "gaussian":
            prof = np.exp(-d2 / (2.0 * sigma * sigma))
        else:
            prof = bump(np.sqrt(d2) / sigma)
        phase = np.exp(-2j * np.pi * (x0[0] * xi1 + x0[1] * xi2))
        return amplitude * prof * phase

    xi1, xi2 = freq_grids(n, length)
    sig = GridSignal(n, length, signal_from_spectrum(spectrum(xi1, xi2), n, length))
    label = f"{shape} bump @({center[0]:.3g},{center[1]:.3g}) sigma={sigma:.3g}"
    return TestSignal("freq_bump", sig, spectrum, label)


def wave_packet(n, length, center, sigma_along, sigma_across, direction,
                amplitude=1.0, x0=(0.0, 0.0)):
    """Anisotropic Gaussian packet: elongated across `direction` in frequency."""
    center = np.asarray(center, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if sigma_along <= 0 or sigma_across <= 0:
        raise ValueError("widths must be positive")
    u = np.array([np.cos(direction), np.sin(direction)])
    v = np.array([-u[1], u[0]])
    _check_band(center, 3.5 * max(sigma_along, sigma_across), n, length,
                "wave packet")

    def spectrum(xi1, xi2):
        d1 = (xi1 - center[0]) * u[0] + (xi2 - center[1]) * u[1]
        d2 = (xi1 - center[0]) * v[0] + (xi2 - center[1]) * v[1]
        prof = np.exp(-d1 ** 2 / (2 * sigma_along ** 2)
                      - d2 ** 2 / (2 * sigma_across ** 2))
        phase = np.exp(-2j * np.pi * (x0[0] * xi1 + x0[1] * xi2))
        return amplitude * prof * phase

    xi1, xi2 = freq_grids(n, length)
    sig = GridSignal(n, length, signal_from_spectrum(spectrum(xi1, xi2), n, length))
    label = (f"packet @({center[0]:.3g},{center[1]:.3g}) "
             f"dir={direction:.3g} widths=({sigma_along:.3g},{sigma_across:.3g})")
    return TestSignal("wave_packet", sig, spectrum, label)


def psi_atom(n, length, wavelet, amplitude=1.0):
    """The wavelet itself as a signal: spectrum = amplitude * psi-hat."""
    box = wavelet.support_box()
    _check_band((0.0, 0.0), max(box), n, length, "wavelet atom")

    def spectrum(xi1, xi2):
        return amplitude * wavelet.evaluate(xi1, xi2)

    xi1, xi2 = freq_grids(n, length)
    sig = GridSignal(n, length, signal_from_spectrum(spectrum(xi1, xi2), n, length))
    return TestSignal("psi_atom", sig, spectrum, f"wavelet atom x{amplitude:.3g}")


def gen_test_signal(kind, n, length, **params):
    """Dispatch on kind: 'freq_bump', 'wave_packet' or 'psi_atom'."""
    makers = {"freq_bump": freq_bump, "wave_packet": wave_packet,
              "psi_atom": psi_atom}
    if kind not in makers:
        raise ValueError(f"unknown test-signal kind {kind!r}")
    return makers[kind](n, length, **params)
