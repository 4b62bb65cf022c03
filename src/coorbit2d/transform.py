"""Continuous wavelet analysis over sampled group charts, coorbit quasi-norms,
the admissibility (Calderon) constant and inversion.

All frequency-domain objects live on the grid lattice of the signal.  For a
group element h the analysis plane is

    W(., h) = inverse FT of [ fhat(xi) * |det h|^(1/2) * conj(psihat(h^T xi)) ]

with psi the wavelet of the group spec (`default_wavelet`), always evaluated
in closed form at h^T xi: no function here takes a wavelet of its own.  Each
public call stacks the 2 x 2 elements of its sampled rows once
(`_elements`), and one sparse kernel evaluates psihat(h^T xi) over the
stack where the convex support pieces of the profile in eta = B^T h^T xi
(the family's record in `coorbit2d.families`) reach.  Along a lattice row
eta is affine in xi2, so each piece reaches one interval of columns per
element and row (`_row_intervals`), widened by a few roundings of
|B^T| |h^T| |xi| and made disjoint.  The (element, frequency) pairs inside
come in element order, in chunks of bounded size, and take the arithmetic
of a dense evaluation: every value is the dense one bit for bit, and every
pair left out is exactly 0 (on the default samplings at N = 128, 4-5% of
the lattice is evaluated for the shearlet elements, 11-14% for the diagonal
ones).  The kernel backs the multiplier and the analysis planes.

The wavelet factor |det h|^(1/2) psihat(h^T xi) is constant on the classes
of H modulo the compact subgroup K_psi that leaves the profile invariant:
the rotations for the radial similitude profile, the four sign elements for
the diagonal one and +-I for the shearlet one.  The default samplings
(`coorbit2d.sampling`) list one row per class of H/K_psi, with the measure of
K_psi in its cell volume: 32 similitude, 256 diagonal and 768 shearlet rows.
A sampling that lists K_psi-equivalent rows is still correct: each of its
rows takes its own plane.

The analysis planes come from one generator that takes the FFT of each
signal once and yields, row by row, the planes of all its signals;
where psihat(h^T xi) is exactly 0 on the lattice the plane is exactly 0 and
its FFTs are skipped; an element whose pieces reach no lattice point skips
psihat as well.  Elsewhere only the lattice rows that psihat reaches take
the first inverse-FFT pass (`signals.ifft2_rows`, `np.fft.ifft2` bit for
bit), and the plane, row-product and magnitude buffers are reused from plane
to plane.  Each spectrum takes the lattice phase and (N/L)^2 once; when
(N/L)^2 is a power of two that is exact, and the planes equal
`signal_from_spectrum(fhat * factor)` bit for bit.  No M x N x N slab of
coefficients is held anywhere: norms with p != 2 (`signal_coorbit_norm`,
`norm_ratio_profile`, which shares each psihat plane across its signals)
and the CLI `analyze` report reduce each plane as it is computed
(`_plane_stats`) and total the M rows in index order (`_coorbit_total`).

The coorbit quasi-norm integrates |W|^p over space (cell (L/N)^2) and over
the chart with the g-weights of the sampling; no triangle inequality is
assumed anywhere, so p < 1 uses the same formula.

Because g_w(h) * |det h| = haar_w(h), every quadratic quantity of the sampled
transform collapses onto the Calderon multiplier

    C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2      (calderon_multiplier)

exactly on the grid:  ||W f||_{L^2(G)}^2 = sum_xi |fhat|^2 C / L^2  (grid
Plancherel), and the inversion formula, which sums
g_w(h) FT(W f(., h)) |det h|^(1/2) psihat(h^T xi) over the rows, gives the
inverse FT of fhat C / C_psi.  The p = 2 norm of a signal
(signal_coorbit_norm) and the reconstruction of a signal (reconstruct) are
computed that way, with two FFTs at most and no analysis plane.  C is
summed in row order at every frequency, so the sum does not depend on how
the kernel blocks or chunks its work.
`calderon_constant` takes the same sum at the 16 orbit samples of the family's
record, from one dense psihat evaluation over all (row, sample) pairs.

No coverage check runs here: an h that maps the wavelet off the lattice
gives a zero plane.  Only the test signals of `signals` warn on coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OrbitSampleError, WeightRangeError
from .families import FAMILIES
from .groups import element_from_chart
from .signals import (
    GridSignal,
    _phase_grid,
    freq_axis,
    ifft2_rows,
    signal_from_spectrum,
    spectrum_from_signal,
)
from .wavelets import default_wavelet


# classes per block of column intervals, and candidate points per call of
# `WaveletSpec.evaluate`; neither changes a value
_BLOCK_CLASSES = 16
_CHUNK_POINTS = 2 ** 12

# a margin of _ROUNDING * (|g| |B^T| |h^T| |xi| + |b|) on each constraint
# g . eta < b of a support piece covers the few roundings, each at most
# eps * |B^T| |h^T| |xi|, by which the computed eta of `evaluate` and the
# interval arithmetic below can differ from exact eta
_ROUNDING = 16 * np.finfo(float).eps


def _row_intervals(psi, mats, rows, cols):
    """(start, count) of the columns each support piece reaches, per class and row.

    On the product grid xi = (rows[r], cols[c]), with cols sorted, eta =
    B^T h^T xi is affine in cols along row r, so each convex support piece of
    the family keeps one interval of columns, widened by the rounding margin.
    Both results have shape (len(mats), pieces, len(rows)), and the intervals
    of one class and row do not overlap.
    """
    g, b = FAMILIES[psi.spec.family.kind].pieces
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


def _eta(h00, h10, h01, h11, xi1, xi2):
    """eta = h^T xi from the entries of h, rounded as h00 xi1 + h10 xi2 and
    h01 xi1 + h11 xi2: `_psihat` and `calderon_constant` both take it, so
    each psihat value equals a dense evaluation at the same point bit for bit."""
    eta1 = h00 * xi1
    eta1 += h10 * xi2
    eta2 = h01 * xi1
    eta2 += h11 * xi2
    return eta1, eta2


def _psihat(psi, mats, rows, cols):
    """Yield (cls, idx, psihat(h_cls^T xi_idx)) over the pairs of `_candidates`."""
    h = [mats[:, i, j].copy() for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))]
    for cls, idx in _candidates(psi, mats, rows, cols):
        a1, a2 = rows[idx // len(cols)], cols[idx % len(cols)]
        yield cls, idx, psi.evaluate(*_eta(*(e[cls] for e in h), a1, a2))


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


def _elements(spec, sampling):
    """(psi, mats): the spec's wavelet and the elements of the sampled rows."""
    return default_wavelet(spec), element_from_chart(spec, sampling.points)


def calderon_multiplier(spec, sampling, n, length):
    """C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2 on the n x n signal lattice.

    The sum runs over the sampled rows in order at every frequency, and skips
    the frequencies where the support of psihat(h^T .) cannot reach; the
    result is laid out as `freq_grids(n, length)`.
    """
    psi, mats = _elements(spec, sampling)
    axis = freq_axis(n, length)
    total = np.zeros(n * n)
    for cls, idx, vals in _psihat(psi, mats, axis, axis):
        np.add.at(total, idx, sampling.haar_w[cls] * np.square(vals))
    return total.reshape(n, n)


def _grid(signals):
    """The one (N, L) lattice of a non-empty list of grid signals."""
    if not all(isinstance(f, GridSignal) for f in signals):
        raise TypeError("f must be a GridSignal")
    if len({(f.N, f.L) for f in signals}) != 1:
        raise ValueError("the signals must share one (N, L) lattice")
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
    row at a time, so no M x N x N slab is held.
    """
    n, length = _grid(signals)
    psi, mats = _elements(spec, sampling)
    return _plane_stats(_planes(signals, mats, psi),
                        (len(mats), len(signals)), p, (length / n) ** 2)


def _multiplier_norm(fhat, c, length):
    """sqrt(sum |fhat|^2 C) / L, with |fhat| scaled by the exact power of two
    2^-e, e the exponent of max |fhat|, so that no square overflows.

    Raises WeightRangeError when the norm itself leaves the float range.
    """
    mags = np.abs(fhat)
    e = np.frexp(mags.max())[1]
    np.ldexp(mags, -e, out=mags)
    with np.errstate(over="ignore"):
        value = float(np.ldexp(np.sqrt(np.sum(mags ** 2 * c)) / length, e))
    if not np.isfinite(value):
        raise WeightRangeError("the coorbit norm at p = 2 leaves the "
                               "floating-point range")
    return value


def _signal_norms(signals, spec, sampling, p):
    """Coorbit quasi-norms of grid signals that share one lattice.

    p = 2 builds the Calderon multiplier once; any other p streams the
    planes of all signals in one pass over the sampling.
    """
    n, length = _grid(signals)
    if p == 2:
        c = calderon_multiplier(spec, sampling, n, length)
        return [_multiplier_norm(spectrum_from_signal(f), c, length) for f in signals]
    sums, peaks = _signal_stats(signals, spec, sampling, p)
    return [_coorbit_total(sums[:, k], peaks[:, k], sampling.g_w, p)
            for k in range(len(signals))]


def _check_exponent(p):
    if not np.isscalar(p) or not (p > 0):
        raise ValueError("p must be a positive exponent or inf")


def signal_coorbit_norm(f, spec, sampling, p):
    """Coorbit quasi-norm ||W f||_{L^p(G)} of a grid signal.

    p < inf:  ( sum_h g_w(h) * sum_x |W f(x,h)|^p * (L/N)^2 )^(1/p);
    p = inf:  max over all samples.
    p = 2 is computed from the Calderon multiplier as
    sqrt(sum |fhat|^2 C / L^2), which equals that sum to roundoff; every
    other p reduces the planes as they are computed.
    """
    _check_exponent(p)
    (value,) = _signal_norms([f], spec, sampling, p)
    return value


def reconstruct(f, spec, sampling, c_psi):
    """The inversion formula applied to W f: the inverse FT of fhat C / C_psi.

    It equals, to roundoff, the inverse FT of the sum over the sampled rows
    of g_w(h) FT(W f(., h)) |det h|^(1/2) psihat(h^T xi), scaled by 1/C_psi.
    """
    if not (c_psi > 0):
        raise ValueError("C_psi must be positive")
    n, length = _grid([f])
    c = calderon_multiplier(spec, sampling, n, length)
    rec = signal_from_spectrum(spectrum_from_signal(f) * c / c_psi, n, length)
    return GridSignal(n, length, rec)


@dataclass(frozen=True)
class CalderonResult:
    mean: float
    max_rel_deviation: float
    values: tuple

    def __iter__(self):  # unpacks like (mean, deviation)
        return iter((self.mean, self.max_rel_deviation))


def default_orbit_samples(spec):
    """The 16 frequencies at which `calderon_constant` samples C.

    The orbit samples of the family's record, chosen in standard (eta)
    coordinates, mapped back through B^-T, so the set respects the
    conjugation.
    """
    binv_t = np.linalg.inv(spec.conjugator).T
    return [binv_t @ p for p in FAMILIES[spec.family.kind].orbit_samples]


def calderon_constant(spec, sampling):
    """Admissibility integral C(xi) = sum_h haar_w |psihat(h^T xi)|^2 per orbit sample.

    psihat(h^T xi) takes `_eta`'s rounding, as in `_psihat`, and is summed in
    row order, as in `calderon_multiplier`.  Returns the mean over
    `default_orbit_samples` and the largest relative deviation from it; for an
    admissible pair the deviation vanishes as the sampling refines.
    """
    psi, mats = _elements(spec, sampling)
    xi1, xi2 = np.array(default_orbit_samples(spec)).T
    vals = psi.evaluate(*_eta(mats[:, 0, 0, None], mats[:, 1, 0, None],
                              mats[:, 0, 1, None], mats[:, 1, 1, None], xi1, xi2))
    values = np.cumsum(sampling.haar_w[:, None] * np.square(vals), axis=0)[-1]
    mean = float(values.mean())
    if not mean > 0.0:
        raise OrbitSampleError("admissibility integral vanished on all samples")
    dev = float(np.max(np.abs(values - mean)) / mean)
    return CalderonResult(mean, dev, tuple(values))


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

    The signals share one (N, L) lattice (ValueError otherwise) and take one
    pass per spec, so its element stack and psihat (or, at p = 2, its
    Calderon multiplier) are built once and shared by all signals.
    """
    _check_exponent(p)
    grid = [f.signal for f in signals]
    norms = zip(_signal_norms(grid, s1, sampling1, p),
                _signal_norms(grid, s2, sampling2, p))
    rows = []
    for f, (n1, n2) in zip(signals, norms):
        scale = max(f.signal.norm_l2(), 1.0)
        degenerate = n2 <= 1e-14 * scale or n1 <= 1e-14 * scale
        ratio = None if degenerate else n1 / n2
        rows.append(RatioRow(f.label, n1, n2, ratio, degenerate))
    return RatioTable(tuple(rows))
