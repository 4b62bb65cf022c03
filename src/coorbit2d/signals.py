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

import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import CoverageWarning
from .families import bump


# the lattice steps L/N for which (L/N)^2 and (N/L)^2 are finite and normal
STEP_RANGE = (2.0 ** -500, 2.0 ** 500)


def valid_grid_size(n):
    """The rule on N: a power of two from 8 to 2^31, the largest power of two
    that the u32 N of a .sig header holds."""
    return 8 <= n <= 2 ** 31 and n & (n - 1) == 0


def check_lattice(n, length):
    """Raise ValueError unless N passes `valid_grid_size` and the step L/N
    lies in STEP_RANGE, which also makes L positive and finite."""
    if not valid_grid_size(n):
        raise ValueError("N must be a power of two from 8 to 2^31")
    if not STEP_RANGE[0] <= length / n <= STEP_RANGE[1]:
        raise ValueError("L must be positive with L/N in [2^-500, 2^500]")


@dataclass(frozen=True, eq=False)
class GridSignal:
    """N x N complex samples of a function on an L-periodic square.

    Usable means: the lattice passes `check_lattice` (N a power of two from
    8 to 2^31, and 2^-500 <= L/N <= 2^500) and the energy norm_l2()^2 is
    finite, which implies finite samples.  Anything else raises ValueError.
    The rule takes norm_l2() as every report prints it, scaled by max |f|, so
    a signal passes whenever its energy is in range, however large its
    samples are on a fine lattice.
    """

    N: int
    L: float
    data: np.ndarray

    def __post_init__(self):
        n = int(self.N)
        check_lattice(n, self.L)
        d = np.asarray(self.data, dtype=complex)
        if d.shape != (n, n):
            raise ValueError(f"data must be {n}x{n}, got {d.shape}")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "data", d)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = self.norm_l2()
            energy = norm * norm
        if not np.isfinite(energy):
            raise ValueError("signal energy ||f||^2 is not finite in double "
                             "precision")

    @property
    def dx(self):
        return self.L / self.N

    def norm_l2(self):
        return l2_norm(self.data, self.dx)


def l2_norm(data, dx):
    """sqrt(sum |f|^2 dx^2), formed as m dx sqrt(sum |f/m|^2) with m = max |f|,
    so that no square overflows or underflows before the norm itself does."""
    mags = np.abs(data)
    m = np.max(mags)
    if m == 0.0:
        return 0.0
    mags /= m
    return float(m * dx * np.sqrt(np.sum(np.square(mags, out=mags))))


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


@lru_cache(maxsize=16)
def _phase_grid(n):
    """The read-only N x N alternating-sign phase, built once per N."""
    s = _half_shift(n)
    grid = np.outer(s, s)
    grid.flags.writeable = False
    return grid


def spectrum_from_signal(sig):
    """Exact spectrum samples fhat(k/L) of a GridSignal."""
    dx = sig.dx
    return (dx * dx) * _phase_grid(sig.N) * np.fft.fft2(sig.data)


def ifft2_rows(values, rows, buf):
    """np.fft.ifft2 of the N x N array that holds `values` in `rows` and 0 elsewhere.

    numpy's ifft2 transforms the last axis first, so the first pass runs on
    the given rows alone and the result equals ifft2 of the full array bit
    for bit.  `buf` is N x N complex scratch space; it is overwritten.
    """
    buf.fill(0)
    buf[rows] = np.fft.ifft(values, axis=1)
    return np.fft.ifft(buf, axis=0)


def signal_from_spectrum(spec_array, n, length):
    """Signal samples whose spectrum equals the given lattice samples."""
    spec_array = _phase_grid(n) * np.asarray(spec_array, dtype=complex)
    scale = (n / length) ** 2
    return scale * ifft2_rows(spec_array, slice(None), np.empty_like(spec_array))


# ---------------------------------------------------------------------------
# closed-form test signals


@dataclass(frozen=True, eq=False)
class TestSignal:
    """A grid signal together with an exact closed-form spectrum evaluator.

    `spectrum(xi1, xi2)` accepts arbitrary (broadcastable) frequency arrays,
    so group-transformed spectra can be sampled without interpolation.
    """

    signal: GridSignal
    spectrum: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""


def _check_band(center, extent, n, length, what):
    nyq = (n / 2 - 1) / length
    reach = max(abs(center[0]), abs(center[1])) + extent
    if reach > nyq:
        # point at the first caller outside this module, also through
        # gen_test_signal
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_globals.get("__name__") == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"{what} reaches |xi| ~ {reach:.3g}, beyond the representable "
            f"band {nyq:.3g} of the {n}x{n} grid",
            CoverageWarning,
            stacklevel=level,
        )


def freq_bump(n, length, center, sigma, amplitude=1.0, shape="gaussian"):
    """Atom concentrated near one frequency: Gaussian or compact bump profile."""
    center = np.asarray(center, dtype=float)
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
        return amplitude * prof

    xi1, xi2 = freq_grids(n, length)
    sig = GridSignal(n, length, signal_from_spectrum(spectrum(xi1, xi2), n, length))
    label = f"{shape} bump @({center[0]:.3g},{center[1]:.3g}) sigma={sigma:.3g}"
    return TestSignal(sig, spectrum, label)


def wave_packet(n, length, center, sigma_along, sigma_across, direction,
                amplitude=1.0):
    """Anisotropic Gaussian packet: elongated across `direction` in frequency."""
    center = np.asarray(center, dtype=float)
    if sigma_along <= 0 or sigma_across <= 0:
        raise ValueError("widths must be positive")
    u = np.array([np.cos(direction), np.sin(direction)])
    v = np.array([-u[1], u[0]])
    _check_band(center, 3.5 * max(sigma_along, sigma_across), n, length,
                "wave packet")

    def spectrum(xi1, xi2):
        d1 = (xi1 - center[0]) * u[0] + (xi2 - center[1]) * u[1]
        d2 = (xi1 - center[0]) * v[0] + (xi2 - center[1]) * v[1]
        return amplitude * np.exp(-d1 ** 2 / (2 * sigma_along ** 2)
                                  - d2 ** 2 / (2 * sigma_across ** 2))

    xi1, xi2 = freq_grids(n, length)
    sig = GridSignal(n, length, signal_from_spectrum(spectrum(xi1, xi2), n, length))
    label = (f"packet @({center[0]:.3g},{center[1]:.3g}) "
             f"dir={direction:.3g} widths=({sigma_along:.3g},{sigma_across:.3g})")
    return TestSignal(sig, spectrum, label)


def gen_test_signal(kind, n, length, **params):
    """Dispatch on kind: 'freq_bump' or 'wave_packet'."""
    makers = {"freq_bump": freq_bump, "wave_packet": wave_packet}
    if kind not in makers:
        raise ValueError(f"unknown test-signal kind {kind!r}")
    return makers[kind](n, length, **params)
