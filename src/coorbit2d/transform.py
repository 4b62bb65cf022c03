"""Continuous wavelet analysis over sampled group charts, coorbit quasi-norms,
the admissibility (Calderon) constant, inversion, and covariance checks.

All frequency-domain objects live on the grid lattice of the signal.  For a
group element h the analysis plane is

    W(., h) = inverse FT of [ fhat(xi) * |det h|^(1/2) * conj(psihat(h^T xi)) ]

with psi the wavelet of the group spec (`default_wavelet`), always evaluated
in closed form at h^T xi: no function here takes a wavelet of its own.  Each
public call stacks the 2 x 2 elements of its class representatives (below)
once; one kernel yields |det h|^(1/2) and psihat(h^T xi) over a stack, a
chunk at a time, and backs the multiplier, the analysis planes, the `invert`
sum and both sides of `covariance_residual`.

The wavelet factor |det h|^(1/2) psihat(h^T xi) is constant on the classes
of H modulo the compact part K_psi of H that leaves the profile invariant.
`WaveletSpec.ignored_columns` names the chart columns the profile ignores:
theta for the radial similitude profile, the signs (e1, e2) for the diagonal
one and eps for the shearlet one.  The sampled rows are grouped by their
remaining columns (`_classes`, one `np.unique` over the chart array) and the
kernel runs on one representative row per class; on the default samplings
that is 32 of 1024 similitude, 256 of 1024 diagonal and 768 of 1536
shearlet rows.

The analysis planes come from one generator that takes the FFT of each
signal once and yields, class by class, the planes of all its signals;
where psihat(h^T xi) is exactly 0 on the lattice the plane is exactly 0 and
its FFTs are skipped.  Elsewhere only the lattice rows that psihat reaches
take the first inverse-FFT pass (`signals.ifft2_rows`, `np.fft.ifft2` bit
for bit), and the plane and magnitude buffers are reused from plane to
plane.  Each spectrum takes the lattice phase and (N/L)^2 once; when
(N/L)^2 is a power of two that is exact, and the planes equal
`signal_from_spectrum(fhat * factor)` bit for bit.  `analyze` is the only
code that fills an M x N x N slab from it, copying each class's plane into
every row of the class.
Norms with p != 2 (`signal_coorbit_norm`, `norm_ratio_profile`, which shares
each psihat plane across its signals) and the CLI `analyze` report reduce
each class's plane as it is computed, hand its sums to every row of the
class, and total them over the M rows with the same per-plane formula and
index-order sum as `coorbit_norm` of a slab, so the results agree bit for
bit.  `invert` takes the FFT of every slab plane, since a slab may have been
edited, and evaluates psihat once per class.

The coorbit quasi-norm integrates |W|^p over space (cell (L/N)^2) and over
the chart with the g-weights of the sampling; no triangle inequality is
assumed anywhere, so p < 1 uses the same formula.

Because g_w(h) * |det h| = haar_w(h), every quadratic quantity of the sampled
transform collapses onto the Calderon multiplier

    C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2      (calderon_multiplier)

exactly on the grid:  ||W f||_{L^2(G)}^2 = sum_xi |fhat|^2 C / L^2  (grid
Plancherel) and  invert(analyze(f)) = inverse FT of fhat C / C_psi.  The
p = 2 norm of a signal (signal_coorbit_norm) and the reconstruction of a
signal (reconstruct) are computed that way, with two FFTs at most and no
M x N x N coefficient slab; the admissibility constant is the same sum at a
few orbit samples.  C is summed once per class, which enters with the sum of
the Haar weights of its rows.  `analyze`, `coorbit_norm` and `invert` remain
the coefficient-domain path on a slab, and the tests use them as the
reference for the multiplier and for the streamed reductions.

No coverage check runs here: an h that maps the wavelet off the lattice
gives a zero plane.  Only the test signals of `signals` warn on coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import orbit_contains
from .errors import NotInGroupError, OrbitSampleError
from .groups import (
    DIAGONAL,
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
    _phase_grid,
    freq_grids,
    ifft2_rows,
    signal_from_spectrum,
    spectrum_from_signal,
)
from .wavelets import default_wavelet


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
        sums, _ = _plane_stats(self.planes, (len(self),), 2, (self.L / self.N) ** 2)
        return sums


# elements per chunk times frequencies: one 128 x 128 plane.  On a 2-core Xeon
# at N = 128, 2^16 (4 planes) made `analyze` ~40% slower than a per-plane loop
# (diagonal 1.35 -> 2.0 s); 2^14 is at parity (all families, 6 alternating
# runs: 8.6-10.0 s CPU against 9.4-10.6 s) and its grid multiplier is no
# slower than 2^16 (diagonal 0.77 vs 1.07 s, shearlet 1.25 vs 1.5 s).
_CHUNK_ELEMENTS = 2 ** 14


def _wavelet_chunks(psi, mats, xi1, xi2):
    """Yield (lo, |det h|^(1/2), psihat(h^T xi)) for h in mats[lo:lo + k].

    Chunks come in index order; vals has shape (k,) + broadcast shape of xi.
    """
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=float),
                                   np.asarray(xi2, dtype=float))
    shape = xi1.shape
    x1, x2 = xi1.reshape(1, -1), xi2.reshape(1, -1)
    step = max(1, _CHUNK_ELEMENTS // max(x1.size, 1))
    # h^T xi of every chunk goes into one buffer: a fresh chunk-sized
    # temporary is returned to the OS on free and page-faulted back in by
    # the next chunk
    buf = np.empty((3, min(step, len(mats)), x1.size))
    for lo in range(0, len(mats), step):
        h = mats[lo:lo + step]
        k = len(h)
        det = np.abs(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0])
        eta1, eta2, tmp = buf[0, :k], buf[1, :k], buf[2, :k]
        np.multiply(h[:, 0, 0, None], x1, out=eta1)
        eta1 += np.multiply(h[:, 1, 0, None], x2, out=tmp)
        np.multiply(h[:, 0, 1, None], x1, out=eta2)
        eta2 += np.multiply(h[:, 1, 1, None], x2, out=tmp)
        vals = psi.evaluate(eta1, eta2)
        yield lo, np.sqrt(det), vals.reshape((len(h),) + shape)


def _plane_factor(psi, h, xi1, xi2):
    """|det h|^(1/2) conj(psihat(h^T xi)) for one element, as a 1-element stack."""
    ((_, root, vals),) = _wavelet_chunks(psi, h[None], xi1, xi2)
    return root[0] * np.conj(vals[0])


def _classes(spec, sampling):
    """(psi, mats, inverse): the spec's wavelet and its classes of sampled rows.

    Rows that differ only in the chart columns `psi.ignored_columns` share a
    class modulo K_psi; mats[k] is the element of the lowest row of class k and inverse[i]
    the class of row i.
    """
    psi = default_wavelet(spec)
    key = np.delete(sampling.points, psi.ignored_columns, axis=1)
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    return psi, element_from_chart(spec, sampling.points[first]), inverse.reshape(-1)


def calderon_multiplier(spec, sampling, xi1, xi2):
    """C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2 at broadcastable frequencies.

    The sum runs over the classes of the sampled chart modulo K_psi, a chunk
    of class representatives at a time; the result has the broadcast shape of
    (xi1, xi2).
    """
    psi, mats, inverse = _classes(spec, sampling)
    haar_w = np.bincount(inverse, sampling.haar_w)
    total = np.zeros(np.broadcast_shapes(np.shape(xi1), np.shape(xi2)))
    for lo, _, vals in _wavelet_chunks(psi, mats, xi1, xi2):
        k = len(vals)
        sq = np.square(vals, out=vals).reshape(k, -1)
        total += (haar_w[lo:lo + k] @ sq).reshape(total.shape)
    return total


def _grid(signals):
    """The (N, L) lattice of a non-empty list of grid signals that share it."""
    if not all(isinstance(f, GridSignal) for f in signals):
        raise TypeError("f must be a GridSignal")
    return signals[0].N, signals[0].L


def _planes(signals, mats, psi):
    """Analysis planes of grid signals that share one lattice, one element at a time.

    Yields, for each element h of the stack `mats` in order, the (S, N, N)
    stack of planes W_s(., h), or None when psihat(h^T xi) is exactly 0 on
    the lattice, where the plane is exactly 0 and its FFTs are skipped.  The
    stack is one buffer that the next plane overwrites: copy what must
    outlive the step.  Only the lattice rows where psihat(h^T xi) is nonzero
    take fhat * factor and the first inverse-FFT pass.
    """
    n, length = signals[0].N, signals[0].L
    # the phase and scale of signal_from_spectrum, applied once per signal
    fold = (n / length) ** 2 * _phase_grid(n)
    spectra = [fold * spectrum_from_signal(f) for f in signals]
    out = np.empty((len(spectra), n, n), dtype=complex)
    buf = np.empty((n, n), dtype=complex)
    for _, root_det, vals in _wavelet_chunks(psi, mats, *freq_grids(n, length)):
        for j in range(len(vals)):
            rows = np.flatnonzero(vals[j].any(axis=1))
            if not len(rows):
                yield None
                continue
            factor = root_det[j] * np.conj(vals[j][rows])
            for s, spectrum in enumerate(spectra):
                out[s] = ifft2_rows(spectrum[rows] * factor, rows, buf)
            yield out


def _plane_stats(planes, shape, p, cell):
    """Per-plane sum_x |W|^p * cell and max_x |W| over a sequence of planes.

    Each item is an (..., N, N) plane stack whose leading shape is shape[1:],
    or None for an exactly zero plane; both results have `shape`.  At p = inf
    only the maxima are formed and the sums stay 0.
    """
    sums, peaks = np.zeros(shape), np.zeros(shape)
    mags = None  # one magnitude buffer, allocated by the first nonzero plane
    for i, w in enumerate(planes):
        if w is None:
            continue
        mags = np.abs(w, out=mags)
        peaks[i] = mags.max(axis=(-2, -1))
        if not np.isinf(p):
            mags **= p  # in place, with the fast paths (square, sqrt) of mags ** p
            sums[i] = np.sum(mags, axis=(-2, -1)) * cell
    return sums, peaks


def _coorbit_total(sums, peaks, g_w, p):
    """( sum_h g_w(h) * sums(h) )^(1/p), or the largest peak at p = inf."""
    if np.isinf(p):
        return float(peaks.max())
    total = 0.0
    for i in range(len(g_w)):  # index order: reference reduction mode
        total += g_w[i] * sums[i]
    return float(total ** (1.0 / p))


def _signal_stats(signals, spec, sampling, p):
    """(M, S) per-plane sums of |W_s|^p (L/N)^2 and maxima of |W_s|.

    The planes of the same-grid signals are reduced as they are computed, one
    class at a time, and each row takes the values of its class, so no
    M x N x N slab is held.
    """
    n, length = _grid(signals)
    psi, mats, inverse = _classes(spec, sampling)
    sums, peaks = _plane_stats(_planes(signals, mats, psi),
                               (len(mats), len(signals)), p, (length / n) ** 2)
    return sums[inverse], peaks[inverse]


def _signal_norms(signals, spec, sampling, p):
    """Coorbit quasi-norms of grid signals that share one lattice.

    p = 2 builds the Calderon multiplier once; any other p streams the
    planes of all signals in one pass over the sampling.
    """
    n, length = _grid(signals)
    if p == 2:
        c = calderon_multiplier(spec, sampling, *freq_grids(n, length))
        return [float(np.sqrt(np.sum(np.abs(spectrum_from_signal(f)) ** 2 * c))
                      / length) for f in signals]
    sums, peaks = _signal_stats(signals, spec, sampling, p)
    return [_coorbit_total(sums[:, k], peaks[:, k], sampling.g_w, p)
            for k in range(len(signals))]


def _check_exponent(p):
    if not np.isscalar(p) or not (p > 0):
        raise ValueError("p must be a positive exponent or inf")


def signal_coorbit_norm(f, spec, sampling, p):
    """Coorbit quasi-norm ||W f||_{L^p(G)} of a grid signal.

    p = 2 is computed from the Calderon multiplier as
    sqrt(sum |fhat|^2 C / L^2), which equals coorbit_norm(analyze(f), 2) to
    roundoff; every other p reduces the planes as they are computed and
    equals coorbit_norm(analyze(f), p) bit for bit.
    """
    _check_exponent(p)
    (value,) = _signal_norms([f], spec, sampling, p)
    return value


def reconstruct(f, spec, sampling, c_psi):
    """invert(analyze(f), ...) computed as the inverse FT of fhat C / C_psi."""
    if not (c_psi > 0):
        raise ValueError("C_psi must be positive")
    n, length = _grid([f])
    c = calderon_multiplier(spec, sampling, *freq_grids(n, length))
    rec = signal_from_spectrum(spectrum_from_signal(f) * c / c_psi, n, length)
    return GridSignal(n, length, rec)


def analyze(f, spec, sampling):
    """Continuous wavelet transform of a grid signal over the sampled chart."""
    n, length = _grid([f])
    psi, mats, inverse = _classes(spec, sampling)
    planes = np.zeros((len(sampling), n, n), dtype=complex)
    for k, w in enumerate(_planes([f], mats, psi)):
        if w is not None:
            planes[inverse == k] = w[0]
    return CoeffSlab(planes, sampling, n, length)


def coorbit_norm(slab, p):
    """Coorbit quasi-norm ||W||_{L^p(G)} of a coefficient slab.

    p < inf:  ( sum_h g_w(h) * sum_x |W(x,h)|^p * (L/N)^2 )^(1/p);
    p = inf:  max over all samples.
    The slab is reduced one plane at a time.
    """
    _check_exponent(p)
    sums, peaks = _plane_stats(slab.planes, (len(slab),), p,
                               (slab.L / slab.N) ** 2)
    return _coorbit_total(sums, peaks, slab.sampling.g_w, p)


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


_ORBIT_MARGIN = 1e-6  # relative depth of a frequency sample inside the dual orbit


def calderon_constant(spec, xi_samples, sampling):
    """Admissibility integral C(xi) = sum_h haar_w |psihat(h^T xi)|^2 per sample.

    Returns the mean over samples and the largest relative deviation from it;
    for an admissible pair the deviation vanishes as the sampling refines.
    """
    xi_samples = [as_vector(x, "xi sample") for x in xi_samples]
    if not xi_samples:
        raise ValueError("need at least one frequency sample")
    for x in xi_samples:
        if not orbit_contains(spec, x, _ORBIT_MARGIN):
            raise OrbitSampleError(
                f"frequency sample {x.tolist()} is not inside the dual orbit"
            )
    pts = np.array(xi_samples)
    values = calderon_multiplier(spec, sampling, pts[:, 0], pts[:, 1])
    mean = float(values.mean())
    if not mean > 0.0:
        raise OrbitSampleError("admissibility integral vanished on all samples")
    dev = float(np.max(np.abs(values - mean)) / mean)
    return CalderonResult(mean, dev, tuple(values))


def invert(slab, spec, c_psi):
    """Reconstruction from a coefficient slab via the inversion formula.

    Accumulates g_w(h) * FT(W(., h)) * |det h|^(1/2) * psihat(h^T xi) over
    the sampling of the slab in the DFT domain, class by class and within a
    class in index order, and applies a single inverse transform, scaled by
    1/C_psi.  Every plane of the slab takes its own FFT; psihat is evaluated
    once per class.
    """
    if not (c_psi > 0):
        raise ValueError("C_psi must be positive")
    n, length, sampling = slab.N, slab.L, slab.sampling
    acc = np.zeros((n, n), dtype=complex)
    psi, mats, inverse = _classes(spec, sampling)
    for lo, root_det, vals in _wavelet_chunks(psi, mats, *freq_grids(n, length)):
        for j in range(len(vals)):
            for i in np.flatnonzero(inverse == lo + j):
                what = spectrum_from_signal(GridSignal(n, length, slab.planes[i]))
                acc += (sampling.g_w[i] * root_det[j]) * what * vals[j]
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


def covariance_residual(f, y, g, h_chart, spec):
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

    psi = default_wavelet(spec)
    n, length = f.signal.N, f.signal.L
    xi1, xi2 = freq_grids(n, length)
    det_g = abs(np.linalg.det(g))

    # left side: analyze pi(y, g) f at h
    gt1 = g[0, 0] * xi1 + g[1, 0] * xi2
    gt2 = g[0, 1] * xi1 + g[1, 1] * xi2
    moved = (np.sqrt(det_g)
             * np.exp(-2j * np.pi * (y[0] * xi1 + y[1] * xi2))
             * f.spectrum(gt1, gt2))
    lhs_hat = moved * _plane_factor(psi, h, xi1, xi2)
    lhs = signal_from_spectrum(lhs_hat, n, length)

    # right side: plane at chart(g^-1 h), evaluated at x' = g^-1 (x - y)
    rhs_hat = f.spectrum(xi1, xi2) * _plane_factor(psi, hp, xi1, xi2)
    shift = _is_grid_shift(y, n, length) if np.array_equal(g, np.eye(2)) else None
    if shift is not None:
        plane = signal_from_spectrum(rhs_hat, n, length)
        rhs = np.roll(plane, (shift[0], shift[1]), axis=(0, 1))
    else:
        gmt = np.linalg.inv(g).T
        om1, om2 = np.broadcast_arrays(gmt[0, 0] * xi1 + gmt[0, 1] * xi2,
                                       gmt[1, 0] * xi1 + gmt[1, 1] * xi2)
        pos = f.signal.positions()
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

    def summary(self):
        ratios = [r.ratio for r in self.rows if not r.degenerate]
        if not ratios:
            return {"min": None, "max": None, "spread": None}
        lo, hi = min(ratios), max(ratios)
        return {"min": lo, "max": hi, "spread": hi / lo if lo > 0 else None}


def norm_ratio_profile(s1, s2, p, signals, sampling1, sampling2):
    """Coorbit-norm ratios ||f||_{s1} / ||f||_{s2} over a family of signals.

    The signals are grouped by grid; each group takes one pass per spec, so
    its element stack and psihat (or, at p = 2, its Calderon multiplier) are
    built once and shared by all signals of the group.
    """
    _check_exponent(p)
    by_grid = {}
    for k, f in enumerate(signals):
        by_grid.setdefault((f.signal.N, f.signal.L), []).append(k)
    norms = [None] * len(signals)
    for ks in by_grid.values():
        grid = [signals[k].signal for k in ks]
        pairs = zip(_signal_norms(grid, s1, sampling1, p),
                    _signal_norms(grid, s2, sampling2, p))
        for k, pair in zip(ks, pairs):
            norms[k] = pair
    rows = []
    for f, (n1, n2) in zip(signals, norms):
        scale = max(f.signal.norm_l2(), 1.0)
        degenerate = n2 <= 1e-14 * scale or n1 <= 1e-14 * scale
        ratio = None if degenerate else n1 / n2
        rows.append(RatioRow(f.label, n1, n2, ratio, degenerate))
    return RatioTable(tuple(rows))
