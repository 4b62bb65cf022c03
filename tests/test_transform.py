import tracemalloc
import warnings

import numpy as np
import pytest

from coorbit2d import (
    CoverageWarning,
    GridSignal,
    GroupSpec,
    OrbitSampleError,
    ShearletChart,
    SimilitudeChart,
    WeightRangeError,
    build_sampling,
    calderon_constant,
    calderon_multiplier,
    default_wavelet,
    diagonal,
    element_from_chart,
    freq_bump,
    freq_grids,
    norm_ratio_profile,
    reconstruct,
    rotation,
    shearlet,
    signal_coorbit_norm,
    signal_from_spectrum,
    similitude,
    spectrum_from_signal,
)
from coorbit2d import transform
from coorbit2d.families import FAMILIES, _chart_form, bump
from coorbit2d.groups import DiagonalChart
from coorbit2d.sampling import GroupSampling, default_sampling
from coorbit2d.signals import ifft2_rows
from conftest import (
    CoeffSlab,
    analyze,
    chart_quotient,
    coorbit_norm,
    covariance_residual,
    invert,
    stabilizer_residual,
)


def _wavelet_atom(n, length, spec):
    """The wavelet of `spec` as a test signal: its spectrum is psi-hat."""
    from coorbit2d.signals import TestSignal  # a module-level name would be collected

    psi = default_wavelet(spec)
    data = signal_from_spectrum(psi.evaluate(*freq_grids(n, length)), n, length)
    return TestSignal(GridSignal(n, length, data), psi.evaluate, "wavelet atom")


@pytest.fixture(scope="module")
def sim_setup():
    spec = GroupSpec(similitude())
    sampling = default_sampling(spec)
    f = freq_bump(128, 16.0, center=(1.0, 0.4), sigma=0.12)
    slab = analyze(f.signal, spec, sampling)
    return spec, sampling, f, slab


class TestAnalyze:
    def test_zero_signal_zero_slab(self, sim_setup):
        spec, sampling, f, _ = sim_setup
        with pytest.warns(CoverageWarning, match="frequency bump"):
            zero = freq_bump(32, 16.0, center=(1.0, 0.0), sigma=0.2, amplitude=0.0)
        small = default_sampling(spec, n_lam=4)
        slab = analyze(zero.signal, spec, small)
        assert np.all(slab.planes == 0.0)

    def test_self_reproducing_peak(self):
        spec = GroupSpec(similitude())
        psi = default_wavelet(spec)
        atom = _wavelet_atom(128, 16.0, spec)
        sampling = build_sampling(spec, [SimilitudeChart(0.0, 0.0)], [1.0])
        slab = analyze(atom.signal, spec, sampling)
        center = slab.planes[0, 64, 64]  # x = 0 sits at index N/2
        xi1, xi2 = freq_grids(128, 16.0)
        norm2 = np.sum(np.abs(psi.evaluate(xi1, xi2)) ** 2) / 16.0 ** 2
        assert abs(center - norm2) / norm2 < 1e-6
        assert abs(center.imag) < 1e-12 * norm2
        # the peak really is the maximum
        assert np.max(np.abs(slab.planes[0])) == pytest.approx(abs(center), rel=1e-12)

    def test_disjoint_supports_zero_plane(self):
        spec = GroupSpec(similitude())
        # signal lives at radius ~1; at lam = -2 the wavelet sees radii > 3.6
        f = freq_bump(128, 16.0, center=(1.0, 0.0), sigma=0.05)
        sampling = build_sampling(
            spec, [SimilitudeChart(0.0, 0.0), SimilitudeChart(-2.0, 0.0)], [1.0, 1.0]
        )
        slab = analyze(f.signal, spec, sampling)
        top = np.max(np.abs(slab.planes))
        assert np.max(np.abs(slab.planes[1])) <= 1e-12 * top

    def test_dimension_mismatch(self, sim_setup):
        # a bare ndarray is refused at the product's entry points, as by the
        # reference slab
        spec, sampling, f, slab = sim_setup
        data = f.signal.data
        for call in (lambda: analyze(data, spec, sampling),
                     lambda: signal_coorbit_norm(data, spec, sampling, 1),
                     lambda: signal_coorbit_norm(data, spec, sampling, 2),
                     lambda: reconstruct(data, spec, sampling, 1.0)):
            with pytest.raises(TypeError, match="GridSignal"):
                call()


class TestCoorbitNorm:
    def test_zero_slab(self, sim_setup):
        spec, *_ = sim_setup
        sampling = build_sampling(spec, [SimilitudeChart(0.0, 0.0)], [1.0])
        slab = CoeffSlab(np.zeros((1, 16, 16), dtype=complex), sampling, 16, 4.0)
        for p in (0.5, 1, 2, np.inf):
            assert coorbit_norm(slab, p) == 0.0

    def test_constant_plane_formula(self):
        spec = GroupSpec(similitude())
        pts = [SimilitudeChart(0.0, 0.0), SimilitudeChart(0.1, 1.0)]
        sampling = build_sampling(spec, pts, [0.3, 0.4])
        m, n, length = 0.7, 16, 4.0
        planes = np.full((2, n, n), m, dtype=complex)
        slab = CoeffSlab(planes, sampling, n, length)
        w = float(np.sum(sampling.g_w))
        assert coorbit_norm(slab, 2) == pytest.approx(m * np.sqrt(w * length ** 2))

    def test_scaling_homogeneity(self, sim_setup):
        spec, sampling, f, slab = sim_setup
        scaled = CoeffSlab(3.5 * slab.planes, sampling, slab.N, slab.L)
        for p in (0.7, 1, 2, 4, np.inf):
            assert coorbit_norm(scaled, p) == pytest.approx(
                3.5 * coorbit_norm(slab, p), rel=1e-12
            )

    def test_invalid_exponent(self, sim_setup):
        *_, slab = sim_setup
        with pytest.raises(ValueError):
            coorbit_norm(slab, 0.0)
        with pytest.raises(ValueError):
            coorbit_norm(slab, -2)

    def test_infinity_norm_is_max(self, sim_setup):
        *_, slab = sim_setup
        assert coorbit_norm(slab, np.inf) == np.max(np.abs(slab.planes))

    @pytest.mark.parametrize("family", [similitude(), diagonal(), shearlet(0.7)],
                             ids=lambda f: f.kind)
    def test_p2_norm_scales_exactly_past_the_square_range(self, family):
        # |fhat|^2 of 2^510 f overflows; the norm scales |fhat| by a power
        # of two first, so it is exactly 2^510 times the norm of f
        spec = GroupSpec(family, rotation(0.3))
        sampling = default_sampling(spec)
        f = freq_bump(64, 16.0, center=(1.0, 0.2), sigma=0.12).signal
        big = GridSignal(f.N, f.L, 2.0 ** 510 * f.data)
        norm = signal_coorbit_norm(f, spec, sampling, 2)
        assert norm > 0.0
        assert signal_coorbit_norm(big, spec, sampling, 2) == 2.0 ** 510 * norm

    def test_p2_norm_out_of_range_is_typed(self, monkeypatch):
        spec = GroupSpec(similitude())
        f = freq_bump(64, 16.0, center=(1.0, 0.2), sigma=0.12).signal
        big = GridSignal(f.N, f.L, 2.0 ** 510 * f.data)
        # a multiplier of 1e308 puts the norm itself past the float range
        monkeypatch.setattr(transform, "calderon_multiplier",
                            lambda spec, sampling, n, length: np.full((n, n), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeightRangeError, match="p = 2"):
                signal_coorbit_norm(big, spec, default_sampling(spec), 2)

    @pytest.mark.parametrize("p", [-1, 0, np.nan])
    def test_exponent_checked_before_any_transform_work(self, p, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("transform work ran before the exponent check")

        # every transform path starts from the invariants of the lattice
        monkeypatch.setattr(transform, "_invariants", no_work)
        spec = GroupSpec(similitude())
        sampling = default_sampling(spec, n_lam=4)
        with pytest.warns(CoverageWarning, match="frequency bump"):
            f = freq_bump(32, 16.0, center=(1.0, 0.0), sigma=0.2)
        with pytest.raises(ValueError, match="exponent"):
            signal_coorbit_norm(f.signal, spec, sampling, p)
        with pytest.raises(ValueError, match="exponent"):
            norm_ratio_profile(spec, spec, p, [f], sampling, sampling)


class TestCalderon:
    def test_similitude_radial_oracle(self):
        # C(xi) = 2 pi * integral u(t)^2 dt / t for a radial profile
        from scipy.integrate import quad

        spec = GroupSpec(similitude())
        psi = default_wavelet(spec)
        sampling = default_sampling(spec, n_lam=128)
        cal = calderon_constant(spec, sampling)
        oracle = 2 * np.pi * quad(
            lambda t: psi.evaluate(t, 0.0) ** 2 / t, 0.5, 2.0
        )[0]
        assert cal.mean == pytest.approx(oracle, rel=1e-6)
        assert cal.max_rel_deviation < 1e-6

    def test_truncated_range_negative_control(self):
        spec = GroupSpec(similitude())
        sampling = default_sampling(spec, lam_range=(-0.3, 0.3), n_lam=8)
        cal = calderon_constant(spec, sampling)
        assert cal.max_rel_deviation > 0.5

    def test_nan_integral_rejected(self, monkeypatch):
        spec = GroupSpec(similitude())
        sampling = default_sampling(spec, n_lam=4)
        for value in (np.nan, 0.0):
            monkeypatch.setattr(transform, "_chart_form", lambda invariants, shifts:
                                np.full(np.broadcast(*invariants, *shifts).shape, value))
            with pytest.raises(OrbitSampleError, match="vanished"):
                calderon_constant(spec, sampling)

    def test_unpacks_as_pair(self):
        spec = GroupSpec(similitude())
        sampling = default_sampling(spec, n_lam=8)
        mean, dev = calderon_constant(spec, sampling)
        assert mean > 0 and dev >= 0


class TestInvert:
    def test_zero_slab_zero_signal(self, sim_setup):
        spec, *_ = sim_setup
        sampling = build_sampling(spec, [SimilitudeChart(0.0, 0.0)], [1.0])
        slab = CoeffSlab(np.zeros((1, 32, 32), dtype=complex), sampling, 32, 16.0)
        rec = invert(slab, spec, 1.0)
        assert np.all(rec.data == 0.0)

    def test_reconstruction_of_covered_signal(self, sim_setup):
        spec, sampling, f, slab = sim_setup
        cal = calderon_constant(spec, sampling)
        rec = invert(slab, spec, cal.mean)
        err = np.sqrt(np.sum(np.abs(rec.data - f.signal.data) ** 2)
                      / np.sum(np.abs(f.signal.data) ** 2))
        assert err <= 5e-2

    def test_invalid_constant(self, sim_setup):
        spec, sampling, _, slab = sim_setup
        with pytest.raises(ValueError):
            invert(slab, spec, 0.0)

    def test_uncovered_band_error_localizes(self):
        spec = GroupSpec(similitude())
        sampling = default_sampling(spec, lam_range=(-1.0, 1.0), n_lam=16)
        n, length = 128, 16.0

        def two_bump_spectrum(xi1, xi2):
            r = np.hypot(xi1, xi2)
            inner = np.exp(-((r - 1.0) ** 2) / (2 * 0.05 ** 2))
            outer = np.exp(-((r - 3.2) ** 2) / (2 * 0.05 ** 2))
            return inner + outer

        from coorbit2d import GridSignal, signal_from_spectrum

        xi1, xi2 = freq_grids(n, length)
        spec_arr = two_bump_spectrum(xi1, xi2)
        sig = GridSignal(n, length, signal_from_spectrum(spec_arr, n, length))
        # with lam in [-1, 1] the annulus around r = 1 is fully covered,
        # the bump at r = 3.2 is not
        c_psi = np.mean([_per_point_multiplier(spec, sampling, np.cos(a), np.sin(a))
                         for a in (0.2, 1.0, 2.2, 4.5)])
        slab = analyze(sig, spec, sampling)
        rec = invert(slab, spec, c_psi)
        from coorbit2d import spectrum_from_signal

        diff = spectrum_from_signal(rec) - spec_arr
        r = np.hypot(xi1, xi2) + 0 * diff.real
        covered = np.abs(r - 1.0) < 0.25
        uncovered = np.abs(r - 3.2) < 0.25
        err_cov = np.sqrt(np.sum(np.abs(diff[covered]) ** 2)
                          / np.sum(np.abs(spec_arr[covered]) ** 2))
        err_unc = np.sqrt(np.sum(np.abs(diff[uncovered]) ** 2)
                          / np.sum(np.abs(spec_arr[uncovered]) ** 2))
        assert err_cov <= 5e-2
        assert err_unc > 0.5


class TestRefinement:
    def test_doubling_changes_norm_little(self):
        spec = GroupSpec(similitude())
        f = freq_bump(64, 16.0, center=(1.0, 0.4), sigma=0.12)
        norms = {}
        for refine, n_lam in (("base", 16), ("fine", 32)):
            sampling = default_sampling(spec, n_lam=n_lam)
            slab = analyze(f.signal, spec, sampling)
            norms[refine] = coorbit_norm(slab, 2)
        assert abs(norms["fine"] - norms["base"]) / norms["base"] <= 1e-2


class TestCovariance:
    """W(pi(y, g) f)(x, h) = W f((y, g)^-1 (x, h)) through the test-side oracle."""

    def _signal(self, n=128, length=16.0):
        return freq_bump(n, length, center=(1.0, 0.3), sigma=0.15)

    def test_identity_exact_zero(self):
        spec = GroupSpec(similitude())
        f = self._signal()
        res = covariance_residual(f, (0.0, 0.0), SimilitudeChart(0.0, 0.0),
                                  SimilitudeChart(0.2, 0.8), spec)
        assert res == 0.0

    def test_grid_translation(self):
        spec = GroupSpec(similitude())
        f = self._signal()
        dx = 16.0 / 128
        res = covariance_residual(f, (5 * dx, -3 * dx), SimilitudeChart(0.0, 0.0),
                                  SimilitudeChart(0.2, 0.8), spec)
        assert res <= 1e-10

    def test_sampled_rotation_dilation(self):
        spec = GroupSpec(similitude())
        f = self._signal()
        res = covariance_residual(f, (0.3, -0.7), SimilitudeChart(0.0, np.pi / 2),
                                  SimilitudeChart(0.2, 0.8), spec)
        assert res <= 1e-8

    def test_sampled_shear_dilation(self):
        spec = GroupSpec(shearlet(0.7))
        f = freq_bump(128, 16.0, center=(1.1, 0.1), sigma=0.12)
        res = covariance_residual(f, (0.5, 0.25), ShearletChart(1, 0.0, 1.0),
                                  ShearletChart(1, 0.2, 0.4), spec)
        assert res <= 1e-8

    def test_sampled_reflection_dilation(self):
        spec = GroupSpec(diagonal())
        f = freq_bump(128, 16.0, center=(0.9, 0.9), sigma=0.12)
        res = covariance_residual(f, (0.0, 0.0), DiagonalChart(0.0, 0.0, 1, -1),
                                  DiagonalChart(0.15, -0.2), spec)
        assert res <= 1e-8

    @pytest.mark.parametrize("family", [similitude(), diagonal(), shearlet(-0.6)],
                             ids=lambda f: f.kind)
    def test_chart_quotient_is_the_group_quotient(self, family, rng):
        # the oracle's chart arithmetic against inv(g) @ h, also under conjugation
        spec = GroupSpec(family, [[1.3, 0.7], [-0.4, 0.9]])
        points = default_sampling(spec).points
        for i, j in rng.integers(0, len(points), size=(20, 2)):
            g, h = element_from_chart(spec, points[[i, j]])
            q = element_from_chart(spec, chart_quotient(spec, points[i], points[j]))
            np.testing.assert_allclose(q, np.linalg.inv(g) @ h, rtol=1e-12, atol=1e-12)


class TestNormRatioProfile:
    def test_same_group_unit_ratios(self):
        spec = GroupSpec(shearlet(1.0))
        signals = [freq_bump(64, 16.0, center=(1.0, 0.2), sigma=0.12),
                   freq_bump(64, 16.0, center=(-0.9, 0.1), sigma=0.12)]
        sampling = default_sampling(spec)
        table = norm_ratio_profile(spec, spec, 1.0, signals, sampling, sampling)
        for row in table.rows:
            assert not row.degenerate
            assert row.ratio == 1.0

    def test_normalizer_conjugate_bounded(self):
        base = GroupSpec(diagonal())
        twin = GroupSpec(diagonal(), np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.diag([2.0, -3.0]))
        signals = [freq_bump(64, 16.0, center=c, sigma=0.1)
                   for c in ((0.8, 0.8), (1.1, 0.7), (-0.9, 1.0))]
        table = norm_ratio_profile(base, twin, 2.0, signals,
                                   default_sampling(base), default_sampling(twin))
        summary = table.summary()
        assert summary["spread"] is not None
        assert summary["spread"] < 2.0

    def test_degenerate_rows_flagged(self):
        spec = GroupSpec(similitude())
        with pytest.warns(CoverageWarning, match="frequency bump"):
            zero = freq_bump(32, 16.0, center=(1.0, 0.0), sigma=0.15,
                             amplitude=0.0)
        sampling = default_sampling(spec, n_lam=8)
        table = norm_ratio_profile(spec, spec, 2.0, [zero], sampling, sampling)
        assert table.rows[0].degenerate
        assert table.rows[0].ratio is None
        assert table.summary()["spread"] is None


class TestSamplingWeights:
    def _parts(self):
        spec = GroupSpec(similitude())
        sampling = build_sampling(
            spec, [SimilitudeChart(0.0, 0.0), SimilitudeChart(0.1, 1.0)], [0.3, 0.4])
        return sampling.points, sampling.volumes, sampling.haar_w, sampling.g_w

    def test_infinite_volume_rejected(self):
        spec = GroupSpec(similitude())
        pts = [SimilitudeChart(0.0, 0.0), SimilitudeChart(0.1, 1.0)]
        with pytest.raises(ValueError, match="finite"):
            build_sampling(spec, pts, [1.0, np.inf])

    @pytest.mark.parametrize("field", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["nan", "inf", "zero", "negative"])
    def test_non_finite_or_non_positive_weight_rejected(self, field, bad):
        parts = list(self._parts())
        w = parts[field].copy()
        w[1] = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}[bad]
        parts[field] = w
        with pytest.raises(ValueError, match="finite and positive"):
            GroupSampling(*parts)

    @pytest.mark.parametrize("field", [1, 2, 3])
    def test_wrong_length_rejected(self, field):
        parts = list(self._parts())
        parts[field] = np.append(parts[field], 1.0)
        with pytest.raises(ValueError, match="one value per chart point"):
            GroupSampling(*parts)

    @pytest.mark.parametrize("field", [1, 2, 3])
    def test_two_dimensional_rejected(self, field):
        parts = list(self._parts())
        parts[field] = parts[field].reshape(1, -1)
        with pytest.raises(ValueError, match="one value per chart point"):
            GroupSampling(*parts)


class TestSamplingArrays:
    @staticmethod
    def _midpoints(lo, hi, n):
        step = (hi - lo) / n
        return [lo + (i + 0.5) * step for i in range(n)]

    @pytest.mark.parametrize("grid", [
        {},
        {"lam_range": (-1.0, 3.0), "n_lam": 8},
        {"shear_range": (-2.0, 4.0), "n_shear": 12},
        {"lam_range": (-0.5, 0.25), "n_lam": 3, "shear_range": (1.0, 2.5), "n_shear": 5},
    ], ids=["default", "lam", "shear", "lam-and-shear"])
    def test_default_rows_in_nested_loop_order(self, grid):
        # one row per class of H/K_psi, at theta = 0, signs (+1, +1) or
        # eps = +1; the cell volume holds the measure of K_psi: 2 pi, 4 or 2.
        # Only the shearlet chart reads the shear axis
        lo, hi = grid.get("lam_range", (-2.0, 2.0))
        s_lo, s_hi = grid.get("shear_range", (-5.0, 5.0))
        n_shear = grid.get("n_shear", 48)
        shears, dshear = self._midpoints(s_lo, s_hi, n_shear), (s_hi - s_lo) / n_shear

        n = grid.get("n_lam", 32)
        lams, dlam = self._midpoints(lo, hi, n), (hi - lo) / n
        sampling = default_sampling(GroupSpec(similitude()), **grid)
        assert np.array_equal(sampling.points, [(lam, 0.0) for lam in lams])
        assert np.array_equal(sampling.volumes, [dlam * (2.0 * np.pi)] * n)

        n = grid.get("n_lam", 16)
        lams, dlam = self._midpoints(lo, hi, n), (hi - lo) / n
        sampling = default_sampling(GroupSpec(diagonal()), **grid)
        assert np.array_equal(sampling.points,
                              [(l1, l2, 1, 1) for l1 in lams for l2 in lams])
        assert np.array_equal(sampling.volumes, [dlam * dlam * 4.0] * n * n)

        sampling = default_sampling(GroupSpec(shearlet(0.5)), **grid)
        assert np.array_equal(sampling.points,
                              [(1, lam, b) for lam in lams for b in shears])
        assert np.array_equal(sampling.volumes, [dlam * dshear * 2.0] * n * n_shear)

    def test_points_and_weights_are_read_only(self):
        sampling = default_sampling(GroupSpec(similitude()), n_lam=4)
        assert sampling.points.shape == (4, 2)
        with pytest.raises(ValueError):
            sampling.points[0, 0] = 1.0
        for w in (sampling.volumes, sampling.haar_w, sampling.g_w):
            with pytest.raises(ValueError):
                w[0] = -1.0

    @pytest.mark.parametrize("points, message", [
        (np.zeros(2), "an \\(M, k\\) array"),
        (np.zeros((0, 2)), "at least one"),
        (np.zeros((2, 0)), "at least one"),
        ([[0.0, np.nan], [0.0, 0.0]], "finite"),
        ([[0.0, 0.0], [np.inf, 0.0]], "finite"),
    ], ids=["1-d", "no-rows", "no-columns", "nan", "inf"])
    def test_bad_points_rejected(self, points, message):
        w = np.ones(2)
        with pytest.raises(ValueError, match=message):
            GroupSampling(points, w, w, w)

    @pytest.mark.parametrize("family, points", [
        (similitude(), [(0.0, np.nan)]),
        (diagonal(), [(0.0, 0.0, 1, 2)]),
        (shearlet(0.5), [(0, 0.0, 0.0)]),
        (shearlet(0.5), [(0.0, 0.0)]),
    ], ids=["non-finite", "sign-2", "sign-0", "wrong-width"])
    def test_build_sampling_checks_points(self, family, points):
        with pytest.raises(ValueError):
            build_sampling(GroupSpec(family), points, [1.0])

    @pytest.mark.parametrize("c", [400.0, -400.0])
    def test_weights_out_of_float_range_are_typed(self, c):
        # g_w = exp(-(2 + c) lam) overflows at one end of the default
        # log-scales (+-1.875) and underflows to 0 at the other
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeightRangeError, match="float range"):
                default_sampling(GroupSpec(shearlet(c)))

    @pytest.mark.parametrize("kwargs", [
        {"n_lam": 0}, {"n_lam": -3}, {"n_lam": 2.5}, {"n_lam": 3.0},
        {"lam_range": (1.0, 1.0)}, {"lam_range": (2.0, -2.0)},
        {"lam_range": (np.nan, 2.0)}, {"lam_range": (-2.0, np.inf)},
        {"n_shear": 0}, {"shear_range": (np.nan, 5.0)},
    ])
    def test_similitude_builder_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            default_sampling(GroupSpec(similitude()), **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"n_shear": 0}, {"shear_range": (-np.inf, 5.0)}, {"shear_range": (5.0, -5.0)},
        {"n_lam": 0}, {"lam_range": (0.0, np.nan)},
    ])
    def test_shearlet_builder_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            default_sampling(GroupSpec(shearlet(0.5)), **kwargs)

    def test_diagonal_builder_rejects_bad_grid(self):
        spec = GroupSpec(diagonal())
        with pytest.raises(ValueError):
            default_sampling(spec, n_lam=0)
        with pytest.raises(ValueError):
            default_sampling(spec, lam_range=(1.0, -1.0))
        # the shear axis is checked although the diagonal chart does not use it
        with pytest.raises(ValueError, match="n_shear"):
            default_sampling(spec, n_shear=0)
        with pytest.raises(ValueError, match="shear_range"):
            default_sampling(spec, shear_range=(np.nan, 5.0))


# ---------------------------------------------------------------------------
# the Calderon multiplier: identities that hold on the grid to roundoff

ROUNDOFF = 1e-13

SMALL_CASES = {
    "similitude": (GroupSpec(similitude(), rotation(0.4) @ np.diag([1.3, 0.8])),
                   lambda s: default_sampling(s, n_lam=8)),
    "diagonal": (GroupSpec(diagonal(), rotation(0.3) @ np.diag([1.0, 1.5])),
                 lambda s: default_sampling(s, n_lam=6)),
    "shearlet": (GroupSpec(shearlet(0.7), rotation(-0.5)),
                 lambda s: default_sampling(s, n_lam=6, n_shear=8)),
}


@pytest.fixture(scope="module", params=sorted(SMALL_CASES))
def small_case(request):
    spec, make_sampling = SMALL_CASES[request.param]
    sampling = make_sampling(spec)
    rng = np.random.default_rng(7)
    n, length = 32, 8.0
    # an arbitrary signal: the identities hold for every f, not just covered ones
    f = GridSignal(n, length, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    slab = analyze(f, spec, sampling)
    c = calderon_multiplier(spec, sampling, n, length)
    return spec, sampling, f, slab, c


def _per_point_multiplier(spec, sampling, xi1, xi2):
    """Reference: sum_h haar_w psihat(h^T xi)^2, one chart point at a time."""
    psi = default_wavelet(spec)
    total = 0.0
    for p, w in zip(sampling.points, sampling.haar_w):
        h = element_from_chart(spec, p)
        v = psi.evaluate(h[0, 0] * xi1 + h[1, 0] * xi2, h[0, 1] * xi1 + h[1, 1] * xi2)
        total = total + w * v * v
    return total


def _rel(a, b):
    return np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b))


class TestCalderonMultiplier:
    def test_kernel_matches_per_point_loop(self, small_case):
        spec, sampling, f, _, c = small_case
        xi1, xi2 = freq_grids(f.N, f.L)
        ref = _per_point_multiplier(spec, sampling, xi1, xi2)
        assert c.shape == (f.N, f.N)
        assert _rel(c, ref) <= ROUNDOFF

    def test_norm2_is_multiplier_energy(self, small_case):
        spec, sampling, f, slab, c = small_case
        energy = np.sum(np.abs(spectrum_from_signal(f)) ** 2 * c) / f.L ** 2
        assert abs(coorbit_norm(slab, 2) ** 2 - energy) <= ROUNDOFF * energy
        norm = signal_coorbit_norm(f, spec, sampling, 2)
        assert abs(norm ** 2 - energy) <= ROUNDOFF * energy

    def test_other_exponents_take_the_slab_path(self, small_case):
        spec, sampling, f, slab, _ = small_case
        for p in (0.5, 1, np.inf):
            assert signal_coorbit_norm(f, spec, sampling, p) == coorbit_norm(slab, p)

    def test_invert_is_multiplier_image(self, small_case):
        spec, sampling, f, slab, c = small_case
        c_psi = 1.7
        ref = signal_from_spectrum(spectrum_from_signal(f) * c / c_psi, f.N, f.L)
        assert _rel(invert(slab, spec, c_psi).data, ref) <= ROUNDOFF
        assert _rel(reconstruct(f, spec, sampling, c_psi).data, ref) <= ROUNDOFF

    def test_calderon_values_match_per_point_sums(self, small_case):
        spec, sampling, *_ = small_case
        # the record's samples are eta = B^T xi; B^-T takes them back to xi
        binv_t = np.linalg.inv(spec.conjugator).T
        samples = [binv_t @ p for p in FAMILIES[spec.family.kind].orbit_samples]
        cal = calderon_constant(spec, sampling)
        ref = np.array([_per_point_multiplier(spec, sampling, x[0], x[1])
                        for x in samples])
        assert np.max(np.abs(np.array(cal.values) - ref) / ref) <= ROUNDOFF
        assert cal.mean == pytest.approx(float(ref.mean()), rel=ROUNDOFF)

    def test_planes_in_sampling_order(self, small_case):
        spec, sampling, f, slab, _ = small_case
        fhat = spectrum_from_signal(f)
        xi1, xi2 = freq_grids(f.N, f.L)
        scale = np.max(np.abs(slab.planes))
        acc = 0.0
        psi = default_wavelet(spec)
        for i, p in enumerate(sampling.points):
            h = element_from_chart(spec, p)
            factor = np.sqrt(abs(np.linalg.det(h))) * psi.evaluate(
                h[0, 0] * xi1 + h[1, 0] * xi2, h[0, 1] * xi1 + h[1, 1] * xi2)
            ref = signal_from_spectrum(fhat * np.conj(factor), f.N, f.L)
            assert np.max(np.abs(slab.planes[i] - ref)) <= ROUNDOFF * scale
            acc = acc + sampling.g_w[i] * spectrum_from_signal(
                GridSignal(f.N, f.L, slab.planes[i])) * factor
        ref = signal_from_spectrum(acc / 1.7, f.N, f.L)
        assert _rel(invert(slab, spec, 1.7).data, ref) <= ROUNDOFF

    def test_reconstruct_rejects_bad_constant(self, small_case):
        spec, sampling, f, *_ = small_case
        with pytest.raises(ValueError):
            reconstruct(f, spec, sampling, 0.0)


# ---------------------------------------------------------------------------
# streamed coefficient-domain reductions: bit for bit against the slab path

STREAM_SAMPLINGS = {
    "similitude": lambda s, lam: default_sampling(s, lam, 8),
    "diagonal": lambda s, lam: default_sampling(s, lam, 6),
    "shearlet": lambda s, lam: default_sampling(s, lam, 6, (-5.0, 5.0), 8),
}
# on the N = 64, L = 16 lattice, scales in (-4, 2) put psihat(h^T xi) off the
# lattice for some planes, and scales in (8, 9) for every plane
SOME_ZERO, ALL_ZERO = (-4.0, 2.0), (8.0, 9.0)
EXPONENTS = (0.5, 1, 3, np.inf)


@pytest.fixture(scope="module", params=sorted(STREAM_SAMPLINGS))
def stream_case(request):
    spec = SMALL_CASES[request.param][0]
    sampling = STREAM_SAMPLINGS[request.param](spec, SOME_ZERO)
    rng = np.random.default_rng(11)
    n, length = 64, 16.0
    f = GridSignal(n, length, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    slab = analyze(f, spec, sampling)
    return request.param, spec, sampling, f, slab


def _nonzero_planes(slab):
    return int(np.count_nonzero(np.any(slab.planes.reshape(len(slab), -1), axis=1)))


def _count_inverse_ffts(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return ifft2_rows(*args)

    monkeypatch.setattr(transform, "ifft2_rows", counted)
    return calls


class TestStreamedReduction:
    def test_norms_equal_slab_norms(self, stream_case):
        _, spec, sampling, f, slab = stream_case
        assert 0 < _nonzero_planes(slab) < len(sampling)
        mags = np.abs(slab.planes)
        for p in EXPONENTS:
            value = signal_coorbit_norm(f, spec, sampling, p)
            assert value == coorbit_norm(slab, p)
            # reference: the whole-slab reduction, summed in index order
            if np.isinf(p):
                ref = float(mags.max())
            else:
                per_plane = np.sum(mags ** p, axis=(1, 2)) * (f.L / f.N) ** 2
                total = 0.0
                for w, e in zip(sampling.g_w, per_plane):
                    total += w * e
                ref = float(total ** (1.0 / p))
            assert value == ref

    def test_plane_sums_equal_whole_slab_reduction(self, stream_case):
        _, spec, sampling, f, slab = stream_case
        mags = np.abs(slab.planes)
        for p in (*EXPONENTS, 2):
            sums, peaks = transform._signal_stats([f], spec, sampling, p)
            assert np.array_equal(peaks[:, 0], mags.max(axis=(1, 2)))
            if np.isfinite(p):
                ref = np.sum(mags ** p, axis=(1, 2)) * (f.L / f.N) ** 2
                assert np.array_equal(sums[:, 0], ref)
        assert np.array_equal(sums[:, 0], slab.plane_energies())

    def test_zero_planes_skip_their_ffts(self, stream_case, monkeypatch):
        _, spec, sampling, f, slab = stream_case
        calls = _count_inverse_ffts(monkeypatch)
        signal_coorbit_norm(f, spec, sampling, 1)
        # one FFT per nonzero plane, and none for a zero plane
        nonzero = _nonzero_planes(slab)
        assert len(calls) == nonzero
        calls.clear()
        assert np.array_equal(analyze(f, spec, sampling).planes, slab.planes)
        assert len(calls) == nonzero
        calls.clear()
        transform._signal_stats([f, f], spec, sampling, 1)
        assert len(calls) == 2 * nonzero

    def test_sampling_off_the_lattice_gives_zero(self, stream_case, monkeypatch):
        family, spec, _, f, _ = stream_case
        sampling = STREAM_SAMPLINGS[family](spec, ALL_ZERO)
        calls = _count_inverse_ffts(monkeypatch)
        slab = analyze(f, spec, sampling)
        assert np.all(slab.planes == 0.0)
        for p in EXPONENTS:
            assert signal_coorbit_norm(f, spec, sampling, p) == 0.0
            assert coorbit_norm(slab, p) == 0.0
        assert calls == []


def _profile_signals():
    """Five signals on one lattice."""
    return [freq_bump(64, 16.0, center=(0.9 + 0.1 * k, 0.2), sigma=0.15)
            for k in range(5)]


class TestBatchedProfile:
    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_rows_equal_per_signal_norms(self, p):
        s1 = SMALL_CASES["shearlet"][0]
        s2 = GroupSpec(shearlet(0.7), rotation(0.3))
        sm1 = STREAM_SAMPLINGS["shearlet"](s1, SOME_ZERO)
        sm2 = STREAM_SAMPLINGS["shearlet"](s2, SOME_ZERO)
        signals = _profile_signals()
        table = norm_ratio_profile(s1, s2, p, signals, sm1, sm2)
        for f, row in zip(signals, table.rows):
            assert row.label == f.label
            assert row.norm1 == signal_coorbit_norm(f.signal, s1, sm1, p)
            assert row.norm2 == signal_coorbit_norm(f.signal, s2, sm2, p)
            assert row.ratio == row.norm1 / row.norm2

    @pytest.mark.parametrize("p", [1, 2])
    def test_one_element_stack_per_spec_and_grid(self, p, monkeypatch):
        stacks = []
        invariants = transform._invariants

        def counted(spec, xi1, xi2):
            stacks.append(spec)
            return invariants(spec, xi1, xi2)

        monkeypatch.setattr(transform, "_invariants", counted)
        spec = GroupSpec(diagonal(), rotation(0.3))
        sampling = default_sampling(spec, n_lam=4)
        norm_ratio_profile(spec, spec, p, _profile_signals(), sampling, sampling)
        assert len(stacks) == 2  # one per spec, not 2 x 5 signals

    @pytest.mark.parametrize("other", [(32, 8.0), (64, 8.0)])
    def test_mixed_lattices_rejected(self, other):
        spec = GroupSpec(diagonal(), rotation(0.3))
        sampling = default_sampling(spec, n_lam=4)
        signals = [*_profile_signals(),
                   freq_bump(*other, center=(0.5, 0.2), sigma=0.15)]
        with pytest.raises(ValueError, match="one .N, L. lattice"):
            norm_ratio_profile(spec, spec, 1, signals, sampling, sampling)


# ---------------------------------------------------------------------------
# the stabilizer K_psi of the wavelet profile: W f(., h k) = W f(., h), so the
# default samplings list one row per class of H/K_psi

# id: (family, chart row h, chart row h k for some k in K_psi, whether the
# element of h k is exactly -h under every conjugator: k = -I)
STABILIZER_CASES = {
    "similitude-rotation-0.7": ("similitude", (0.3, 0.5), (0.3, 1.2), False),
    "similitude-rotation-pi/2": ("similitude", (0.3, 0.5), (0.3, 0.5 + np.pi / 2), False),
    "similitude-rotation-pi": ("similitude", (0.3, 0.5), (0.3, 0.5 + np.pi), False),
    "diagonal-minus-I": ("diagonal", (0.2, -0.2, 1, -1), (0.2, -0.2, -1, 1), True),
    "diagonal-flip-1": ("diagonal", (0.2, -0.2, 1, -1), (0.2, -0.2, -1, -1), False),
    "diagonal-flip-2": ("diagonal", (0.2, -0.2, 1, -1), (0.2, -0.2, 1, 1), False),
    "shearlet-minus-I": ("shearlet", (1, 0.2, -0.5), (-1, 0.2, -0.5), True),
    "shearlet-minus-I-back": ("shearlet", (-1, -0.3, -1.0), (1, -0.3, -1.0), True),
}


def _moved_by_stabilizer(family, points):
    """The rows h k of chart rows h for one k in K_psi other than I."""
    points = np.array(points, dtype=float)
    if family == "similitude":
        points[:, 1] += 2.0
    else:  # flip eps, or the first sign of a diagonal row
        points[:, 0 if family == "shearlet" else 2] *= -1.0
    return points


class TestStabilizerQuotient:
    @pytest.mark.parametrize("writing", ["standard", "conjugated"])
    @pytest.mark.parametrize("case", sorted(STABILIZER_CASES))
    def test_stabilizer_leaves_the_plane_unchanged(self, case, writing):
        family, h, hk, minus_identity = STABILIZER_CASES[case]
        spec = SMALL_CASES[family][0]
        if writing == "standard":
            spec = GroupSpec(spec.family)
        center = np.linalg.inv(spec.conjugator).T @ np.array([1.0, 0.8])
        f = freq_bump(64, 16.0, center=center, sigma=0.15).signal
        res = stabilizer_residual(f, spec, h, hk)
        # k = -I only flips signs, and so does a sign element of the standard
        # diagonal group, whose elements are diagonal: both planes are equal
        if minus_identity or (family == "diagonal" and writing == "standard"):
            assert res == 0.0
        else:
            assert res <= ROUNDOFF

    @pytest.mark.parametrize("family", sorted(SMALL_CASES))
    def test_planes_and_inversion_equal_per_row(self, family):
        # a caller-built sampling that lists each class twice, h and h k:
        # every row takes its own plane, and at half the volume the norms and
        # the multiplier equal those of one row per class
        spec, make_sampling = SMALL_CASES[family]
        base = make_sampling(spec)
        sampling = build_sampling(
            spec, np.vstack([base.points, _moved_by_stabilizer(family, base.points)]),
            np.tile(base.volumes / 2, 2))
        f = GridSignal(32, 8.0, np.random.default_rng(6).normal(size=(32, 32)))
        psi = default_wavelet(spec)
        # the per-element path: psihat over the whole lattice at every row's
        # element, in index order
        slab = analyze(f, spec, sampling)
        fhat = spectrum_from_signal(f)
        xi1, xi2 = freq_grids(f.N, f.L)
        rows = element_from_chart(spec, sampling.points)
        planes = np.zeros_like(slab.planes)
        acc = 0.0
        for i, h in enumerate(rows):
            root = np.sqrt(abs(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]))
            vals = psi.evaluate(h[0, 0] * xi1 + h[1, 0] * xi2, h[0, 1] * xi1 + h[1, 1] * xi2)
            planes[i] = signal_from_spectrum(fhat * (root * np.conj(vals)), f.N, f.L)
            what = spectrum_from_signal(GridSignal(f.N, f.L, slab.planes[i]))
            acc = acc + (sampling.g_w[i] * root) * what * vals
        # relative to the largest plane, as in test_planes_in_sampling_order:
        # planes that hold only the far tail of the bump carry no digits of
        # their own
        scale = np.max(np.abs(planes))
        assert scale > 0.0
        assert np.max(np.abs(slab.planes - planes)) <= ROUNDOFF * scale
        ref = signal_from_spectrum(acc / 1.7, f.N, f.L)
        gap = np.max(np.abs(invert(slab, spec, 1.7).data - ref))
        assert gap <= ROUNDOFF * np.max(np.abs(ref))
        sums, _ = transform._signal_stats([f], spec, sampling, 2)
        assert np.array_equal(sums[:, 0], slab.plane_energies())
        for p in (0.5, 1, 3, np.inf):
            value = signal_coorbit_norm(f, spec, sampling, p)
            assert value == coorbit_norm(slab, p)
            assert value == pytest.approx(signal_coorbit_norm(f, spec, base, p),
                                          rel=ROUNDOFF)
        assert _rel(calderon_multiplier(spec, sampling, f.N, f.L),
                    calderon_multiplier(spec, base, f.N, f.L)) <= ROUNDOFF

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_norms_and_profile_rows_equal_slab_norms(self, stream_case, p):
        _, spec, sampling, f, slab = stream_case
        signals = [_wavelet_atom(f.N, f.L, spec),
                   freq_bump(f.N, f.L, center=(0.9, 0.3), sigma=0.2)]
        other = GroupSpec(spec.family, rotation(0.7) @ spec.conjugator)
        table = norm_ratio_profile(spec, other, p, signals, sampling,
                                   sampling)
        assert signal_coorbit_norm(f, spec, sampling, p) == coorbit_norm(slab, p)
        for g, row in zip(signals, table.rows):
            assert row.norm1 == coorbit_norm(analyze(g.signal, spec, sampling), p)
            assert row.norm2 == coorbit_norm(analyze(g.signal, other, sampling), p)


# ---------------------------------------------------------------------------
# the sparse psihat kernel: the chart form only where its sorted ranges reach,
# each value bit for bit the dense chart form's


def _dense_rows(spec, sampling, n, length):
    """Reference: the chart form of each sampled row over the whole lattice."""
    invariants = [x.ravel() for x in transform._invariants(spec, *freq_grids(n, length))]
    shifts = transform._shifts(spec, sampling)
    with np.errstate(over="ignore"):
        for k in range(len(sampling)):
            yield _chart_form(invariants, [s[k] for s in shifts])


def _assert_kernel_is_dense(spec, sampling, n, length):
    """The kernel's values on the n x n lattice equal the dense chart form,
    and every pair it leaves out is exactly 0; its rows come in order, none
    twice, and no index twice in a row.  It raises no floating-point
    warning.  Returns (pairs evaluated, whether any value is nonzero).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = list(transform._chart_values(spec, sampling, n, length))
    rows = [k for k, _, _ in parts]
    assert rows == sorted(set(rows))
    by_row = {k: (idx, vals) for k, idx, vals in parts}
    nonzero = False
    for k, dense in enumerate(_dense_rows(spec, sampling, n, length)):
        got = np.zeros(n * n)
        if k in by_row:
            idx, vals = by_row[k]
            assert len(np.unique(idx)) == len(idx)
            got[idx] = vals
        assert np.array_equal(got, dense)
        nonzero |= bool(np.any(dense))
    return sum(len(idx) for _, idx, _ in parts), nonzero


KERNEL_FAMILIES = {"similitude": similitude(), "diagonal": diagonal(),
                   "shearlet": shearlet(0.7), "shearlet-376": shearlet(376.0)}
_B = rotation(0.4) @ np.diag([1.3, 0.8])
# column sine 2e-9, just above the DEFAULT_TOL = 1e-9 that GroupSpec refuses
_NEAR_LIMIT = rotation(0.2) @ np.array([[1.0, 1.0], [0.0, 2e-9]])
# (conjugator, N, L); a conjugator scaled by s meets a lattice scaled by s,
# so that psihat reaches it
KERNEL_CASES = {
    **{f"N{n}-L{length:g}": (_B, n, length)
       for n, length in ((8, 2.0), (16, 4.0), (32, 8.0), (32, 16.0), (64, 16.0),
                         (128, 16.0), (128, 32.0))},
    "scaled-1e200": (1e200 * _B, 64, 16e200),
    "scaled-1e-200": (1e-200 * _B, 64, 16e-200),
    "scaled-2^500": (2.0 ** 500 * _B, 64, 16.0 * 2.0 ** 500),
    "scaled-2^-500": (2.0 ** -500 * _B, 64, 16.0 * 2.0 ** -500),
    "near-limit-N64": (_NEAR_LIMIT, 64, 16.0),
    "near-limit-N32-L1": (_NEAR_LIMIT, 32, 1.0),
}


def _off_quotient_sampling(spec, seed):
    """Rows off the quotient H/K_psi, in shuffled order: a small default grid,
    the same rows moved by K_psi (a rotation, sign flips, eps = -1), and for
    the shearlet rows with shears of +-1e15 and +-1e300."""
    rng = np.random.default_rng(seed)
    base = default_sampling(spec, n_lam=6, n_shear=8)
    moved = base.points.copy()
    blocks = [base.points, moved]
    if spec.family.kind == "similitude":
        moved[:, 1] = rng.uniform(-10.0, 10.0, len(moved))
    elif spec.family.kind == "diagonal":
        moved[:, 2:] = rng.choice([-1.0, 1.0], (len(moved), 2))
    else:
        moved[:, 0] = -1.0
        extreme = base.points.copy()
        extreme[:, 0] = rng.choice([-1.0, 1.0], len(extreme))
        extreme[:, 2] = rng.choice([-1e300, -1e15, 1e15, 1e300], len(extreme))
        blocks.append(extreme)
    points = rng.permutation(np.vstack(blocks))
    return build_sampling(spec, points, np.full(len(points), base.volumes[0]))


class TestSparseKernel:
    @pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_values_equal_dense_evaluation(self, family, case):
        conjugator, n, length = KERNEL_CASES[case]
        spec = GroupSpec(KERNEL_FAMILIES[family], conjugator)
        count, nonzero = _assert_kernel_is_dense(spec, default_sampling(spec), n, length)
        assert nonzero
        assert count < len(default_sampling(spec)) * n * n  # the ranges leave most out

    @pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
    @pytest.mark.parametrize("case", ["N32-L8", "N128-L16", "scaled-1e200", "near-limit-N64"])
    def test_rows_off_the_quotient_in_any_order(self, family, case):
        conjugator, n, length = KERNEL_CASES[case]
        spec = GroupSpec(KERNEL_FAMILIES[family], conjugator)
        sampling = _off_quotient_sampling(spec, 3)
        count, nonzero = _assert_kernel_is_dense(spec, sampling, n, length)
        assert nonzero and count < len(sampling) * n * n

    @pytest.mark.parametrize("case", [
        *sorted(SMALL_CASES), "off-quotient",
        *(f"{family}:{case}" for family in sorted(KERNEL_FAMILIES)
          for case in sorted(KERNEL_CASES))])
    def test_calderon_constant_sums_classes_in_order(self, case):
        if case in SMALL_CASES:
            spec, make_sampling = SMALL_CASES[case]
            sampling = make_sampling(spec)
        elif case == "off-quotient":
            spec = GroupSpec(shearlet(0.7), _B)
            sampling = _off_quotient_sampling(spec, 5)
        else:
            family, scaled = case.split(":")
            spec = GroupSpec(KERNEL_FAMILIES[family], KERNEL_CASES[scaled][0])
            sampling = default_sampling(spec)
        # per row: haar_w times the dense chart form at the orbit samples,
        # which are eta itself, squared and added in row order
        record = FAMILIES[spec.family.kind]
        invariants = record.invariants(*record.orbit_samples.T)
        shifts = transform._shifts(spec, sampling)
        ref = np.zeros(len(record.orbit_samples))
        for k, w in enumerate(sampling.haar_w):
            ref += w * np.square(_chart_form(invariants, [s[k] for s in shifts]))
        cal = calderon_constant(spec, sampling)
        assert np.all(ref > 0.0)
        assert np.array_equal(cal.values, ref)
        assert cal.mean == ref.mean()
        # B does not enter: the constant of the standard group is the same
        standard = calderon_constant(GroupSpec(spec.family), sampling)
        assert np.array_equal(cal.values, standard.values)

    @pytest.mark.parametrize("family", [similitude(), diagonal(), shearlet(0.7),
                                        shearlet(-1.3)], ids=lambda f: f"{f.kind}{f.c or ''}")
    @pytest.mark.parametrize("conjugator", [_B, rotation(-0.5)], ids=["B", "R"])
    def test_chart_form_is_evaluate_at_the_element(self, family, conjugator):
        # the chart form rounds log2|a eta1| as lam / ln 2 + log2|eta1|, and
        # a^(c - 1) eta2 / eta1 + s / a apart from (s eta1 + a^c eta2) / (a eta1):
        # against evaluate at h^T xi the largest |delta| measured on these
        # cases at N = 32, 64 and 128 is 3.5e-14 (shearlet(-1.3)), with values
        # at most 1, and no value is 0 on one side only
        spec = GroupSpec(family, conjugator)
        sampling = default_sampling(spec)
        n, length = 64, 16.0
        xi1, xi2 = freq_grids(n, length)
        psi = default_wavelet(spec)
        mats = element_from_chart(spec, sampling.points)
        nonzero = 0
        for h, got in zip(mats, transform._class_values(spec, sampling, n, length)):
            ref = psi.evaluate(h[0, 0] * xi1 + h[1, 0] * xi2, h[0, 1] * xi1 + h[1, 1] * xi2)
            got = np.zeros((n, n)) if got is None else got
            assert np.array_equal(got != 0.0, ref != 0.0)
            assert np.max(np.abs(got - ref)) <= 1e-13
            nonzero += np.count_nonzero(ref)
        assert nonzero > 0

    def test_classes_without_candidates_skip_psihat(self, monkeypatch):
        # CI's shearlet spec at N = 128: 195 of its 768 class planes are 0
        spec = GroupSpec(shearlet(0.7), rotation(-0.5))
        sampling = default_sampling(spec)
        zero = [k for k, dense in enumerate(_dense_rows(spec, sampling, 128, 16.0))
                if not np.any(dense)]
        assert (len(zero), len(sampling)) == (195, 768)
        rows, points, evaluated = [], [], []
        chart_values = transform._chart_values

        def recorded_values(*args):
            for k, idx, vals in chart_values(*args):
                rows.append(k)
                points.append(len(idx))
                yield k, idx, vals

        def recorded_bump(t):
            evaluated.append(np.size(t))
            return bump(t)

        monkeypatch.setattr(transform, "_chart_values", recorded_values)
        monkeypatch.setattr(transform, "bump", recorded_bump)
        calls = _count_inverse_ffts(monkeypatch)
        center = np.linalg.inv(spec.conjugator).T @ np.array([1.0, 0.2])
        f = freq_bump(128, 16.0, center=center, sigma=0.12).signal
        assert signal_coorbit_norm(f, spec, sampling, 1) > 0.0
        skipped = np.setdiff1d(np.arange(len(sampling)), rows)
        assert skipped.tolist() == zero
        # the bump sees the candidate pairs and, once per log-scale, the range
        # of its first factor, and nothing else
        u = transform._invariants(spec, *freq_grids(128, 16.0))[0]
        firsts = sum(np.count_nonzero(np.abs(u + a) < 1.0)
                     for a in np.unique(transform._shifts(spec, sampling)[0]))
        assert sum(evaluated) == sum(points) + firsts < 0.05 * len(sampling) * 128 * 128
        assert len(calls) == len(sampling) - len(zero)


def test_chart_out_of_range_is_typed():
    # the weights stay in range, but beta = a^(c - 1) overflows at lam = -1.875
    # for c = -378, and |det m| = a^(1 + c) at lam = 1.87 for c = 379
    f = freq_bump(32, 8.0, center=(0.8, 0.2), sigma=0.15).signal
    steep = GroupSpec(shearlet(-378.0))
    steep_sampling = default_sampling(steep)
    wide = GroupSpec(shearlet(379.0))
    wide_sampling = build_sampling(wide, [ShearletChart(1, 1.87, 0.0)], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: calderon_multiplier(steep, steep_sampling, 32, 8.0),
                     lambda: calderon_constant(steep, steep_sampling),
                     lambda: signal_coorbit_norm(f, steep, steep_sampling, 1),
                     lambda: signal_coorbit_norm(f, wide, wide_sampling, 1)):
            with pytest.raises(WeightRangeError, match="elements of"):
                call()
        # the multiplier takes no determinant
        assert np.all(np.isfinite(calderon_multiplier(wide, wide_sampling, 32, 8.0)))


def test_streamed_norm_holds_no_slab():
    # the M x N x N slab of this case is 768 x 128 x 128 complex: 201 MB
    spec = GroupSpec(shearlet(0.7), rotation(-0.5))
    sampling = default_sampling(spec)
    center = np.linalg.inv(spec.conjugator).T @ np.array([1.0, 0.2])
    f = freq_bump(128, 16.0, center=center, sigma=0.12).signal
    tracemalloc.start()
    try:
        value = signal_coorbit_norm(f, spec, sampling, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak < 32 * 2 ** 20


# classes of H/K_psi on the default samplings: one per log-scale (similitude),
# per pair of log-scales (diagonal), per log-scale and shear (shearlet)
DEFAULT_CLASSES = {"similitude": 32, "diagonal": 16 * 16, "shearlet": 16 * 48}


@pytest.mark.parametrize("family", sorted(DEFAULT_CLASSES))
def test_analyze_holds_one_plane_per_class(family):
    # the slab itself, one N x N complex plane per class, plus 2 MiB for the
    # spectra, buffers and psihat chunks (about 1.2 MiB measured)
    spec = SMALL_CASES[family][0]
    sampling = default_sampling(spec)
    center = np.linalg.inv(spec.conjugator).T @ np.array([1.0, 0.2])
    f = freq_bump(64, 16.0, center=center, sigma=0.12).signal
    tracemalloc.start()
    try:
        slab = analyze(f, spec, sampling)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(slab) == DEFAULT_CLASSES[family] and np.any(slab.planes)
    assert peak <= DEFAULT_CLASSES[family] * 64 * 64 * 16 + 2 * 2 ** 20
