"""Continuous wavelet analysis over sampled group charts, coorbit quasi-norms,
the admissibility (Calderon) constant and inversion.

All frequency-domain objects live on the grid lattice of the signal.  For a
group element h the analysis plane is

    W(., h) = inverse FT of [ fhat(xi) * |det h|^(1/2) * conj(psihat(h^T xi)) ]

with psi the wavelet of the group spec (`default_wavelet`), always evaluated
in closed form at h^T xi: no function here takes a wavelet of its own.  Each
public call stacks the 2 x 2 elements of its class representatives (below)
once, and one sparse kernel evaluates psihat(h^T xi) over the stack where
the convex support pieces of the profile in eta = B^T h^T xi
(`WaveletSpec.support_pieces`) reach.  Along a lattice row eta is affine in
xi2, so each piece reaches one interval of columns per class and row
(`_row_intervals`), widened by a few roundings of |B^T| |h^T| |xi| and made
disjoint.  The (class, frequency) pairs inside come in class order, in
chunks of bounded size, and take the arithmetic of a dense evaluation:
every value is the dense one bit for bit, and every pair left out is
exactly 0 (on the default samplings at N = 128, 4-5% of the lattice is
evaluated for the shearlet classes, 11-14% for the diagonal ones).  The
kernel backs the multiplier, the analysis planes and the `invert` sum.

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
its FFTs are skipped; a class whose pieces reach no lattice point skips
psihat as well.  Elsewhere only the lattice rows that psihat reaches take
the first inverse-FFT pass (`signals.ifft2_rows`, `np.fft.ifft2` bit for
bit), and the plane, row-product and magnitude buffers are reused from plane
to plane.  Each spectrum takes the lattice phase and (N/L)^2 once; when
(N/L)^2 is a power of two that is exact, and the planes equal
`signal_from_spectrum(fhat * factor)` bit for bit.  `analyze` is the only
code that fills an M x N x N slab from it, copying each class's plane into
every row of the class.
Norms with p != 2 (`signal_coorbit_norm`, `norm_ratio_profile`, which shares
each psihat plane across its signals) and the CLI `analyze` report reduce
each class's plane as it is computed, hand its sums to every row of the
class, and total them over the M rows with the same per-plane formula and
index-order sum as `coorbit_norm` of a slab, so the results agree bit for
bit.  `invert` takes the FFT of every slab plane whose class the support
pieces bring onto the lattice, since a slab may have been edited, and
evaluates psihat once per class.

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
M x N x N coefficient slab.  C is summed once per class, which enters with
the sum of the Haar weights of its rows, in class order at every frequency,
so the sum does not depend on how the kernel blocks or chunks its work.
`calderon_constant` takes the same sum at the 16 orbit samples of the family,
from one dense psihat evaluation over all (class, sample) pairs.
`analyze`, `coorbit_norm` and `invert` remain the coefficient-domain path on
a slab, and the tests use them as the reference for the multiplier and for
the streamed reductions.

No coverage check runs here: an h that maps the wavelet off the lattice
gives a zero plane.  Only the test signals of `signals` warn on coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# not called here; it stays importable from this module because
# bench/spans.py traces CLI requests through this name
from .classify import orbit_contains  # noqa: F401
from .errors import OrbitSampleError, WeightRangeError
from .groups import DIAGONAL, SIMILITUDE, element_from_chart
from .sampling import GroupSampling
from .signals import (
    GridSignal,
    _phase_grid,
    freq_axis,
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


# classes per block of column intervals, and candidate points per call of
# `WaveletSpec.evaluate`; neither changes a value
_BLOCK_CLASSES = 16
_CHUNK_POINTS = 2 ** 12

# a margin of _ROUNDING * (|g| |B^T| |h^T| |xi| + |b|) on each constraint
# g . eta < b of a support piece covers the few roundings, each at most
# eps * |B^T| |h^T| |xi|, by which the computed eta of `evaluate`, its mask
# comparisons and the interval arithmetic below can differ from exact eta
_ROUNDING = 16 * np.finfo(float).eps


def _row_intervals(psi, mats, rows, cols):
    """(start, count) of the columns each support piece reaches, per class and row.

    On the product grid xi = (rows[r], cols[c]), with cols sorted, eta =
    B^T h^T xi is affine in cols along row r, so each convex piece of
    `psi.support_pieces` keeps one interval of columns, widened by the
    rounding margin.  Both results have shape (len(mats), pieces, len(rows)),
    and the intervals of one class and row do not overlap.
    """
    g, b = psi.support_pieces()
    bt, ht = psi.spec.conjugator.T, np.swapaxes(mats, 1, 2)
    ga = g @ (bt @ ht)[:, None]  # (K, pieces, constraints, 2): g . eta = ga . xi
    # |B^T| |h^T| |xi| per row, with |xi2| bounded over the row
    reach = np.abs(bt) @ np.abs(ht) @ np.stack(
        [np.abs(rows), np.full(len(rows), np.max(np.abs(cols), initial=0.0))])  # (K, 2, R)
    slope = ga[..., 1, None] + 0.0  # no -0: a zero slope bounds from above
    bound = np.abs(g) @ reach[:, None]  # (K, pieces, constraints, R)
    bound += np.abs(b[..., None])
    bound *= _ROUNDING
    bound += b[..., None]
    bound -= ga[..., 0, None] * rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.divide(bound, slope, out=bound)
    # cols < t where slope > 0 (+-inf where it is 0), cols > t where slope
    # < 0; fmin and fmax skip a nan (from inf - inf or 0 / 0), which leaves
    # the interval open
    hi = np.fmin.reduce(np.where(slope >= 0, t, np.inf), axis=2)
    lo = np.fmax.reduce(np.where(slope < 0, t, -np.inf), axis=2)
    start = np.searchsorted(cols, lo, side="left")
    end = np.searchsorted(cols, hi, side="right")
    # a wide margin can make the intervals of two pieces overlap: sort them
    # by (start, end) (odd-even transposition over the few pieces) and start
    # each after the ends of those before it
    width = len(cols) + 1
    keys = start * width + end
    for k in range(len(g)):
        for i in range(k % 2, len(g) - 1, 2):
            left, right = keys[:, i], keys[:, i + 1]
            keys[:, i], keys[:, i + 1] = np.minimum(left, right), np.maximum(left, right)
    start, end = np.divmod(keys, width)
    for i in range(1, len(g)):
        np.maximum(start[:, i], end[:, i - 1], out=start[:, i])
        np.maximum(end[:, i], end[:, i - 1], out=end[:, i])
    return start, np.maximum(end - start, 0)


def _candidates(psi, mats, rows, cols):
    """Yield (cls, idx): the (class, frequency) pairs where psihat(h^T xi) may be nonzero.

    The frequencies are the product grid xi = (rows[r], cols[c]), and idx =
    r * len(cols) + c.  Every pair left out has psihat(h^T xi) exactly 0,
    and no pair comes twice.  The pairs come from `_row_intervals`, a block
    of _BLOCK_CLASSES classes at a time, in class order, at most
    _CHUNK_POINTS at a time.
    """
    order = np.argsort(cols, kind="stable")
    sorted_cols = cols[order]
    for lo in range(0, len(mats), _BLOCK_CLASSES):
        start, count = _row_intervals(psi, mats[lo:lo + _BLOCK_CLASSES], rows, sorted_cols)
        # segments (class, piece, row) of consecutive sorted columns
        n_pieces, n_rows = count.shape[1:]
        seg = np.flatnonzero(count)
        seg_count = count.ravel()[seg]
        seg_cls = lo + seg // (n_pieces * n_rows)
        seg_base = seg % n_rows * len(cols)
        ends = np.cumsum(seg_count)
        skip = start.ravel()[seg] - (ends - seg_count)  # sorted column - point number
        total = int(ends[-1]) if len(ends) else 0
        for q0 in range(0, total, _CHUNK_POINTS):
            q = np.arange(q0, min(q0 + _CHUNK_POINTS, total))
            first, last = np.searchsorted(ends, q[[0, -1]], side="right")
            segs = np.arange(first, last + 1)
            s = np.repeat(segs, np.minimum(ends[segs], q[-1] + 1)
                          - np.maximum(ends[segs] - seg_count[segs], q0))
            yield seg_cls[s], seg_base[s] + order[skip[s] + q]


def _psihat(psi, mats, rows, cols):
    """Yield (cls, idx, psihat(h_cls^T xi_idx)) over the pairs of `_candidates`.

    h^T xi takes the same two roundings per coordinate as a dense evaluation
    over the grid, so every value equals its dense counterpart bit for bit.
    """
    h00, h10, h01, h11 = (mats[:, i, j].copy() for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
    for cls, idx in _candidates(psi, mats, rows, cols):
        a1, a2 = rows[idx // len(cols)], cols[idx % len(cols)]
        eta1 = h00[cls] * a1
        eta1 += h10[cls] * a2
        eta2 = h01[cls] * a1
        eta2 += h11[cls] * a2
        yield cls, idx, psi.evaluate(eta1, eta2)


def _class_values(psi, mats, n, length):
    """Yield psihat(h^T xi) on the n x n signal lattice for each element h of `mats`.

    A class without candidates yields None, with no psihat evaluated; any
    other yields its values in one n x n buffer that the next class
    overwrites.
    """
    axis = freq_axis(n, length)
    buf = np.zeros((n, n))
    flat = buf.reshape(-1)
    current = -1
    for cls, idx, vals in _psihat(psi, mats, axis, axis):
        cuts = np.flatnonzero(cls[1:] != cls[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(cls)]):
            if cls[lo] != current:
                if current >= 0:
                    yield buf
                    flat.fill(0.0)
                yield from [None] * (cls[lo] - current - 1)
                current = cls[lo]
            flat[idx[lo:hi]] = vals[lo:hi]
    if current >= 0:
        yield buf
    yield from [None] * (len(mats) - current - 1)


def _root_det(mats):
    """|det h|^(1/2) over a stack of elements."""
    return np.sqrt(np.abs(mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]))


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


def calderon_multiplier(spec, sampling, n, length):
    """C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2 on the n x n signal lattice.

    The sum runs over the classes of the sampled chart modulo K_psi, in class
    order at every frequency, and skips the frequencies where the support of
    psihat(h^T .) cannot reach; the result is laid out as `freq_grids(n, length)`.
    """
    psi, mats, inverse = _classes(spec, sampling)
    haar_w = np.bincount(inverse, sampling.haar_w)
    axis = freq_axis(n, length)
    total = np.zeros(n * n)
    for cls, idx, vals in _psihat(psi, mats, axis, axis):
        np.add.at(total, idx, haar_w[cls] * np.square(vals))
    return total.reshape(n, n)


def _grid(signals):
    """The (N, L) lattice of a non-empty list of grid signals that share it."""
    if not all(isinstance(f, GridSignal) for f in signals):
        raise TypeError("f must be a GridSignal")
    return signals[0].N, signals[0].L


def _planes(signals, mats, psi):
    """Analysis planes of grid signals that share one lattice, one element at a time.

    Yields, for each element h of the stack `mats` in order, the (S, N, N)
    stack of planes W_s(., h), or None when psihat(h^T xi) is exactly 0 on
    the lattice, where the plane is exactly 0 and its FFTs are skipped; a
    class without candidates is skipped before psihat is evaluated.  The
    stack is one buffer that the next plane overwrites: copy what must
    outlive the step.  Only the lattice rows where psihat(h^T xi) is nonzero
    take fhat * factor and the first inverse-FFT pass.
    """
    n, length = signals[0].N, signals[0].L
    # the phase and scale of signal_from_spectrum, applied once per signal
    fold = (n / length) ** 2 * _phase_grid(n)
    spectra = [fold * spectrum_from_signal(f) for f in signals]
    out = np.empty((len(spectra), n, n), dtype=complex)
    buf, picked = np.empty((2, n, n), dtype=complex)
    root_det = _root_det(mats)
    for k, vals in enumerate(_class_values(psi, mats, n, length)):
        rows = () if vals is None else np.flatnonzero(vals.any(axis=1))
        if not len(rows):
            yield None
            continue
        factor = root_det[k] * np.conj(vals[rows])
        for s, spectrum in enumerate(spectra):
            # fhat * factor in a reused buffer: a fresh plane-sized product
            # is handed back to the OS on free and faulted in again
            rows_hat = np.take(spectrum, rows, axis=0, out=picked[:len(rows)])
            rows_hat *= factor
            out[s] = ifft2_rows(rows_hat, rows, buf)
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
            # in place, with the fast paths (square, sqrt) of mags ** p; a
            # power out of range is refused by _coorbit_total
            with np.errstate(over="ignore"):
                mags **= p
                sums[i] = np.sum(mags, axis=(-2, -1)) * cell
    return sums, peaks


def _coorbit_total(sums, peaks, g_w, p):
    """( sum_h g_w(h) * sums(h) )^(1/p), or the largest peak at p = inf.

    Raises WeightRangeError when that leaves the floating-point range: the
    total is not finite, or it is 0 although some |W| is not.
    """
    if np.isinf(p):
        return float(peaks.max())
    total = 0.0
    with np.errstate(over="ignore"):
        for i in range(len(g_w)):  # index order: reference reduction mode
            total += g_w[i] * sums[i]
        total = float(total ** (1.0 / p))
    if not np.isfinite(total) or (total == 0.0 and peaks.max() > 0.0):
        raise WeightRangeError(f"the coorbit norm at p = {p:g} leaves the "
                               f"floating-point range")
    return total


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
        c = calderon_multiplier(spec, sampling, n, length)
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
    c = calderon_multiplier(spec, sampling, n, length)
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


def default_orbit_samples(spec):
    """The 16 frequencies at which `calderon_constant` samples C.

    Chosen in standard (eta) coordinates per family, well inside the dual
    orbit and inside default chart coverage, and mapped back through B^-T, so
    the set respects the conjugation.
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
    return [binv_t @ np.array(p) for p in pts]


def calderon_constant(spec, sampling):
    """Admissibility integral C(xi) = sum_h haar_w |psihat(h^T xi)|^2 per orbit sample.

    psihat(h^T xi) is rounded as in `_psihat` and summed in class order, as in
    `calderon_multiplier`.  Returns the mean over `default_orbit_samples` and
    the largest relative deviation from it; for an admissible pair the
    deviation vanishes as the sampling refines.
    """
    psi, mats, inverse = _classes(spec, sampling)
    haar_w = np.bincount(inverse, sampling.haar_w)
    xi1, xi2 = np.array(default_orbit_samples(spec)).T
    eta1 = mats[:, 0, 0, None] * xi1
    eta1 += mats[:, 1, 0, None] * xi2
    eta2 = mats[:, 0, 1, None] * xi1
    eta2 += mats[:, 1, 1, None] * xi2
    vals = psi.evaluate(eta1, eta2)
    values = np.cumsum(haar_w[:, None] * np.square(vals), axis=0)[-1]
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
    1/C_psi.  Every plane takes its own FFT, since a slab may have been
    edited, except the planes of a class whose support pieces reach no
    lattice point, which add exactly 0; psihat is evaluated once per class.
    """
    if not (c_psi > 0):
        raise ValueError("C_psi must be positive")
    n, length, sampling = slab.N, slab.L, slab.sampling
    acc = np.zeros((n, n), dtype=complex)
    psi, mats, inverse = _classes(spec, sampling)
    root_det = _root_det(mats)
    for k, vals in enumerate(_class_values(psi, mats, n, length)):
        if vals is None:
            continue
        for i in np.flatnonzero(inverse == k):
            what = spectrum_from_signal(GridSignal(n, length, slab.planes[i]))
            acc += (sampling.g_w[i] * root_det[k]) * what * vals
    data = signal_from_spectrum(acc / c_psi, n, length)
    return GridSignal(n, length, data)


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
