"""Continuous wavelet analysis over sampled group charts, coorbit quasi-norms,
the admissibility (Calderon) constant and inversion.

Every function takes a `GroupSampling` and reads its group spec from it
(`sampling.spec`): the wavelet, the chart rows and the weights are one
group's, so no call can pair a spec with another group's sampling.

All frequency-domain objects live on the grid lattice of the signal.  For a
group element h the analysis plane is

    W(., h) = inverse FT of [ fhat(xi) * |det h|^(1/2) * conj(psihat(h^T xi)) ]

with psi the wavelet of the group spec (`default_wavelet`), the profile of
its family at eta = B^T xi.  For h = B m B^-1, with m the chart matrix of a
sampled row, B^T h^T xi = m^T B^T xi, so psihat(h^T xi) is the profile at
m^T eta: no element h is formed, and |det h| = |det m| comes from the chart.
The family record (`coorbit2d.families`) writes that profile in chart form:
bump(u + alpha) * bump(beta v + gamma), with the invariants (u, v) of eta
computed once per lattice (`_invariants`) and the shifts (alpha, beta,
gamma) once per sampling (`_shifts`).

One sparse kernel (`_chart_values`) evaluates it where it can be nonzero.
It sorts u once per lattice; the first factor of a row then reaches one
range of it, found by bisection.  Within that range it sorts v once per run
of rows that share alpha, and the second factor of each row reaches one
range of that.  A rounded affine map with a positive slope is monotone, and
the bump is exactly 0 for |t| >= 0.99933, so every pair left outside the
ranges is exactly 0, and every value is the dense chart form's bit for bit
(on a default shearlet sampling at N = 128, 3.7% of the (row, frequency)
pairs are evaluated).  The kernel backs the multiplier and the analysis
planes.

The wavelet factor |det h|^(1/2) psihat(h^T xi) is constant on the classes
of H modulo the compact subgroup K_psi that leaves the profile invariant:
the rotations for the radial similitude profile, the four sign elements for
the diagonal one and +-I for the shearlet one; the chart form has no column
for them.  The default samplings (`coorbit2d.sampling`) list one row per
class of H/K_psi, with the measure of K_psi in its cell volume: 32
similitude, 256 diagonal and 768 shearlet rows.  A sampling that lists
K_psi-equivalent rows, or rows in any order, is still correct: each of its
rows takes its own plane.

The analysis planes come from one generator that takes the FFT of each
signal once and yields, row by row, the planes of all its signals;
where psihat(h^T xi) is exactly 0 on the lattice the plane is exactly 0 and
its FFTs are skipped; a row whose ranges reach no lattice point skips
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
summed in row order at every frequency.
`calderon_constant` takes the same sum at the 16 orbit samples of the
family's record, which are eta directly, from one dense chart-form
evaluation over all (row, sample) pairs.

No coverage check runs here: an h that maps the wavelet off the lattice
gives a zero plane.  Only the test signals of `signals` warn on coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OrbitSampleError, WeightRangeError
from .families import FAMILIES, _chart_form, bump
from .groups import GroupSpec
from .signals import (
    GridSignal,
    _phase_grid,
    freq_grids,
    ifft2_rows,
    signal_from_spectrum,
    spectrum_from_signal,
)


def _invariants(spec, xi1, xi2):
    """The invariants of eta = B^T xi (`FamilyRecord.invariants`) at
    broadcastable frequencies xi, from the four floats of B."""
    b00, b01, b10, b11 = spec.entries
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    # eta may overflow; log2(0) and eta2 / eta1 give +-inf or nan; the bump maps all to 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return FAMILIES[spec.family.kind].invariants(b00 * xi1 + b10 * xi2,
                                                     b01 * xi1 + b11 * xi2)


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """Closed-form frequency profile of a group spec's family and conjugator."""

    spec: GroupSpec

    def evaluate(self, xi1, xi2):
        """psi-hat at arbitrary frequencies (broadcastable arrays or scalars):
        the chart form at the identity row, exactly +0.0 off the support, also
        where eta = B^T xi is 0, inf or nan."""
        return _chart_form(_invariants(self.spec, xi1, xi2), (0.0, 1.0, 0.0))


def default_wavelet(spec):
    """The admissible wavelet of a group spec; its conjugator was checked there.

    It needs no support check: in eta = B^T xi its support keeps away from
    the lines of the family's complement, inside the dual orbit.
    """
    return WaveletSpec(spec)


def _shifts(sampling):
    """The shifts (alpha, beta, gamma) of the chart form at the sampled rows.

    Raises WeightRangeError when a slope beta = a^(c - 1) leaves the float
    range or underflows to 0, as it can for a large shearlet exponent.
    """
    spec = sampling.spec
    with np.errstate(over="ignore"):
        shifts = FAMILIES[spec.family.kind].shifts(sampling.points, spec.family.c)
    if len(shifts) > 1 and not np.all((shifts[1] > 0.0) & (shifts[1] < np.inf)):
        raise WeightRangeError(f"the elements of {spec!r} leave the float range")
    return shifts


def _root_det(sampling):
    """|det h|^(1/2) = |det m|^(1/2) at the sampled rows, from their chart matrices.

    Raises WeightRangeError when |det m| leaves the float range.
    """
    spec = sampling.spec
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c, d = FAMILIES[spec.family.kind].matrix(sampling.points, spec.family.c)
        root_det = np.sqrt(np.abs(a * d - b * c))
    if not np.all(np.isfinite(root_det)):
        raise WeightRangeError(f"the elements of {spec!r} leave the float range")
    return root_det


def _bounds(keys, slope, shift):
    """Per row of `shift`, the [start, stop) of the sorted keys where
    |slope * key + shift| < 1, with slope > 0 and finite.

    The rounded map is non-decreasing in the key, and a nan key sorts last
    and stays outside, so the other keys have |t| >= 1 or t = nan, where the
    bump is exactly 0.  Each end is a bisection over all rows.
    """
    def first(past, lo, hi):
        # the first index in [lo, hi) at which `past` holds, or hi
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            go = past(slope * keys[np.minimum(mid, len(keys) - 1)] + shift)
            lo, hi = np.minimum(np.where(go, lo, mid + 1), hi), np.where(go, mid, hi)
        return lo

    end = np.full(len(shift), len(keys))
    start = first(lambda t: ~(t <= -1.0), np.zeros(len(shift), dtype=int), end)
    return start, first(lambda t: ~(t < 1.0), start, end)


def _chart_values(sampling, n, length):
    """Yield (k, idx, psihat(h_k^T xi_idx)) for the sampled rows k in order.

    idx are flat indices of the n x n lattice (`freq_grids`), none twice;
    psihat(h_k^T xi) is exactly 0 at every other index, and a row whose
    ranges reach no lattice point is not yielded.  Each value is the chart
    form's at that point bit for bit.
    """
    u, *v = (x.ravel() for x in _invariants(sampling.spec, *freq_grids(n, length)))
    alpha, *second = _shifts(sampling)
    order = np.argsort(u, kind="stable")
    keys = u[order]
    start, stop = _bounds(keys, 1.0, alpha)
    # the rows of a run share alpha, and with it the first factor and its range
    cuts = [0, *(np.flatnonzero(alpha[1:] != alpha[:-1]) + 1), len(alpha)]
    with np.errstate(over="ignore"):  # beta v + gamma, beyond the bump's reach
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            idx = order[start[r0]:stop[r0]]
            if not len(idx):
                continue
            first = bump(keys[start[r0]:stop[r0]] + alpha[r0])
            if not v:
                for k in range(r0, r1):
                    yield k, idx, first
                continue
            by_v = np.argsort(v[0][idx], kind="stable")
            idx, first, vs = idx[by_v], first[by_v], v[0][idx[by_v]]
            beta, gamma = second[0][r0:r1], second[1][r0:r1]
            lo, hi = _bounds(vs, beta, gamma)
            for j, (a, b) in enumerate(zip(lo, hi)):
                if a < b:
                    yield r0 + j, idx[a:b], first[a:b] * bump(beta[j] * vs[a:b] + gamma[j])


def _class_values(sampling, n, length):
    """Yield psihat(h^T xi) on the n x n signal lattice for each sampled row.

    A row without candidates yields None, with no psihat evaluated; any
    other yields its values in one n x n buffer that the next row overwrites.
    """
    buf = np.zeros((n, n))
    flat = buf.reshape(-1)
    ahead = 0
    for k, idx, vals in _chart_values(sampling, n, length):
        yield from [None] * (k - ahead)
        flat[idx] = vals
        yield buf
        flat[idx] = 0.0
        ahead = k + 1
    yield from [None] * (len(sampling) - ahead)


def calderon_multiplier(sampling, n, length):
    """C(xi) = sum_h haar_w(h) |psihat(h^T xi)|^2 on the n x n signal lattice.

    The sum runs over the sampled rows in order at every frequency, and skips
    the frequencies where psihat(h^T .) is exactly 0; the result is laid out
    as `freq_grids(n, length)`.
    """
    total = np.zeros(n * n)
    for k, idx, vals in _chart_values(sampling, n, length):
        total[idx] += sampling.haar_w[k] * np.square(vals)
    return total.reshape(n, n)


def _grid(signals):
    """The one (N, L) lattice of a non-empty list of grid signals."""
    if not all(isinstance(f, GridSignal) for f in signals):
        raise TypeError("f must be a GridSignal")
    if len({(f.N, f.L) for f in signals}) != 1:
        raise ValueError("the signals must share one (N, L) lattice")
    return signals[0].N, signals[0].L


def _planes(signals, sampling):
    """Analysis planes of grid signals that share one lattice, one row at a time.

    Yields, for each sampled row h in order, the (S, N, N) stack of planes
    W_s(., h), or None when psihat(h^T xi) is exactly 0 on the lattice,
    where the plane is exactly 0 and its FFTs are skipped; a row without
    candidates is skipped before psihat is evaluated.  The
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
    root_det = _root_det(sampling)
    for k, vals in enumerate(_class_values(sampling, n, length)):
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


def _signal_stats(signals, sampling, p):
    """(M, S) per-plane sums of |W_s|^p (L/N)^2 and maxima of |W_s|.

    The planes of the same-grid signals are reduced as they are computed, one
    row at a time, so no M x N x N slab is held.
    """
    n, length = _grid(signals)
    return _plane_stats(_planes(signals, sampling),
                        (len(sampling), len(signals)), p, (length / n) ** 2)


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


def _signal_norms(signals, sampling, p):
    """Coorbit quasi-norms of grid signals that share one lattice.

    p = 2 builds the Calderon multiplier once; any other p streams the
    planes of all signals in one pass over the sampling.
    """
    n, length = _grid(signals)
    if p == 2:
        c = calderon_multiplier(sampling, n, length)
        return [_multiplier_norm(spectrum_from_signal(f), c, length) for f in signals]
    sums, peaks = _signal_stats(signals, sampling, p)
    return [_coorbit_total(sums[:, k], peaks[:, k], sampling.g_w, p)
            for k in range(len(signals))]


def _check_exponent(p):
    if not np.isscalar(p) or not (p > 0):
        raise ValueError("p must be a positive exponent or inf")


def signal_coorbit_norm(f, sampling, p):
    """Coorbit quasi-norm ||W f||_{L^p(G)} of a grid signal.

    p < inf:  ( sum_h g_w(h) * sum_x |W f(x,h)|^p * (L/N)^2 )^(1/p);
    p = inf:  max over all samples.
    p = 2 is computed from the Calderon multiplier as
    sqrt(sum |fhat|^2 C / L^2), which equals that sum to roundoff; every
    other p reduces the planes as they are computed.
    """
    _check_exponent(p)
    (value,) = _signal_norms([f], sampling, p)
    return value


def reconstruct(f, sampling, c_psi):
    """The inversion formula applied to W f: the inverse FT of fhat C / C_psi.

    It equals, to roundoff, the inverse FT of the sum over the sampled rows
    of g_w(h) FT(W f(., h)) |det h|^(1/2) psihat(h^T xi), scaled by 1/C_psi.
    C_psi must be finite and positive; out of the float range is WeightRangeError.
    """
    if not (0.0 < c_psi < np.inf):
        raise ValueError("C_psi must be finite and positive")
    n, length = _grid([f])
    c = calderon_multiplier(sampling, n, length)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = signal_from_spectrum(spectrum_from_signal(f) * c / c_psi, n, length)
    try:  # the lattice is f's: only the energy of rec can fail the rule
        return GridSignal(n, length, rec)
    except ValueError:
        raise WeightRangeError("the reconstruction fhat C / C_psi leaves the "
                               "floating-point range") from None


@dataclass(frozen=True)
class CalderonResult:
    mean: float
    max_rel_deviation: float
    values: tuple

    def __iter__(self):  # unpacks like (mean, deviation)
        return iter((self.mean, self.max_rel_deviation))


def calderon_constant(sampling):
    """Admissibility integral C(xi) = sum_h haar_w |psihat(h^T xi)|^2 per orbit sample.

    The orbit samples of the family's record are eta = B^T xi, so the chart
    form takes them directly, with no B, and the rows are summed in order, as
    in `calderon_multiplier`.  Returns the mean over the samples and the
    largest relative deviation from it; for an admissible pair the deviation
    vanishes as the sampling refines.
    """
    record = FAMILIES[sampling.spec.family.kind]
    shifts = _shifts(sampling)
    with np.errstate(over="ignore"):
        vals = _chart_form(record.invariants(*record.orbit_samples.T),
                           [s[:, None] for s in shifts])
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


def norm_ratio_profile(p, signals, sampling1, sampling2):
    """Coorbit-norm ratios ||f||_sampling1 / ||f||_sampling2 over a family of signals.

    The signals share one (N, L) lattice (ValueError otherwise) and take one
    pass per sampling, so its psihat (or, at p = 2, its Calderon multiplier)
    is built once and shared by all signals.
    """
    _check_exponent(p)
    grid = [f.signal for f in signals]
    norms = zip(_signal_norms(grid, sampling1, p),
                _signal_norms(grid, sampling2, p))
    rows = []
    for f, (n1, n2) in zip(signals, norms):
        scale = max(f.signal.norm_l2(), 1.0)
        degenerate = n2 <= 1e-14 * scale or n1 <= 1e-14 * scale
        ratio = None if degenerate else n1 / n2
        rows.append(RatioRow(f.label, n1, n2, ratio, degenerate))
    return RatioTable(tuple(rows))
