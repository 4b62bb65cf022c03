import tracemalloc
import warnings

import numpy as np
import pytest

from coorbit2d import (
    CoeffSlab,
    CoverageWarning,
    GridSignal,
    GroupSpec,
    OrbitSampleError,
    ShearletChart,
    SimilitudeChart,
    WeightRangeError,
    analyze,
    build_sampling,
    calderon_constant,
    calderon_multiplier,
    coorbit_norm,
    default_orbit_samples,
    default_wavelet,
    diagonal,
    element_from_chart,
    freq_bump,
    freq_grids,
    gen_test_signal,
    invert,
    norm_ratio_profile,
    reconstruct,
    rotation,
    shearlet,
    signal_coorbit_norm,
    signal_from_spectrum,
    similitude,
    similitude_sampling,
    spectrum_from_signal,
)
from coorbit2d import transform
from coorbit2d.groups import DiagonalChart
from coorbit2d.sampling import (
    GroupSampling,
    default_sampling,
    diagonal_sampling,
    shearlet_sampling,
)
from coorbit2d.signals import freq_axis, ifft2_rows
from coorbit2d.wavelets import WaveletSpec
from conftest import chart_quotient, covariance_residual


def _wavelet_atom(n, length, spec):
    """The wavelet of `spec` as a test signal: its spectrum is psi-hat."""
    from coorbit2d.signals import TestSignal  # a module-level name would be collected

    psi = default_wavelet(spec)
    data = signal_from_spectrum(psi.evaluate(*freq_grids(n, length)), n, length)
    return TestSignal(GridSignal(n, length, data), psi.evaluate, "wavelet atom")


@pytest.fixture(scope="module")
def sim_setup():
    spec = GroupSpec(similitude())
    sampling = similitude_sampling(spec)
    f = freq_bump(128, 16.0, center=(1.0, 0.4), sigma=0.12)
    slab = analyze(f.signal, spec, sampling)
    return spec, sampling, f, slab


class TestAnalyze:
    def test_zero_signal_zero_slab(self, sim_setup):
        spec, sampling, f, _ = sim_setup
        with pytest.warns(CoverageWarning, match="frequency bump"):
            zero = freq_bump(32, 16.0, center=(1.0, 0.0), sigma=0.2, amplitude=0.0)
        small = similitude_sampling(spec, n_lam=4, n_theta=4)
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
        spec, sampling, f, slab = sim_setup
        with pytest.raises(TypeError):
            analyze(f.signal.data, spec, sampling)


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

    @pytest.mark.parametrize("p", [-1, 0, np.nan])
    def test_exponent_checked_before_any_transform_work(self, p, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("transform work ran before the exponent check")

        monkeypatch.setattr(transform, "analyze", no_work)
        # every transform path starts by stacking the sampled elements
        monkeypatch.setattr(transform, "element_from_chart", no_work)
        spec = GroupSpec(similitude())
        sampling = similitude_sampling(spec, n_lam=4, n_theta=4)
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
        sampling = similitude_sampling(spec, n_lam=128, n_theta=16)
        cal = calderon_constant(spec, sampling)
        oracle = 2 * np.pi * quad(
            lambda t: psi.evaluate(t, 0.0) ** 2 / t, 0.5, 2.0
        )[0]
        assert cal.mean == pytest.approx(oracle, rel=1e-6)
        assert cal.max_rel_deviation < 1e-6

    def test_truncated_range_negative_control(self):
        spec = GroupSpec(similitude())
        sampling = similitude_sampling(spec, lam_range=(-0.3, 0.3), n_lam=8,
                                       n_theta=16)
        cal = calderon_constant(spec, sampling)
        assert cal.max_rel_deviation > 0.5

    def test_nan_integral_rejected(self, monkeypatch):
        spec = GroupSpec(similitude())
        sampling = similitude_sampling(spec, n_lam=4, n_theta=4)
        for value in (np.nan, 0.0):
            monkeypatch.setattr(WaveletSpec, "evaluate",
                                lambda self, eta1, eta2: np.full(np.shape(eta1), value))
            with pytest.raises(OrbitSampleError, match="vanished"):
                calderon_constant(spec, sampling)

    def test_unpacks_as_pair(self):
        spec = GroupSpec(similitude())
        sampling = similitude_sampling(spec, n_lam=8, n_theta=8)
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
        sampling = similitude_sampling(spec, lam_range=(-1.0, 1.0), n_lam=16,
                                       n_theta=16)
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
        for refine, n_lam, n_th in (("base", 16, 16), ("fine", 32, 32)):
            sampling = similitude_sampling(spec, n_lam=n_lam, n_theta=n_th)
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
        sampling = similitude_sampling(spec, n_lam=8, n_theta=8)
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

    def test_default_rows_in_nested_loop_order(self):
        lams = self._midpoints(-2.0, 2.0, 32)
        thetas = [i * (2.0 * np.pi / 32) for i in range(32)]
        expected = [(lam, th) for lam in lams for th in thetas]
        assert np.array_equal(default_sampling(GroupSpec(similitude())).points, expected)

        lams = self._midpoints(-2.0, 2.0, 16)
        expected = [(l1, l2, e1, e2)
                    for e1, e2 in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
                    for l1 in lams for l2 in lams]
        assert np.array_equal(default_sampling(GroupSpec(diagonal())).points, expected)

        shears = self._midpoints(-5.0, 5.0, 48)
        expected = [(eps, lam, b) for eps in (1, -1) for lam in lams for b in shears]
        assert np.array_equal(default_sampling(GroupSpec(shearlet(0.5))).points,
                              expected)

    def test_points_and_weights_are_read_only(self):
        sampling = similitude_sampling(GroupSpec(similitude()), n_lam=2, n_theta=2)
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
        {"n_lam": 0}, {"n_lam": -3}, {"n_lam": 2.5}, {"n_theta": 0},
        {"lam_range": (1.0, 1.0)}, {"lam_range": (2.0, -2.0)},
        {"lam_range": (np.nan, 2.0)}, {"lam_range": (-2.0, np.inf)},
    ])
    def test_similitude_builder_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            similitude_sampling(GroupSpec(similitude()), **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"n_shear": 0}, {"shear_range": (-np.inf, 5.0)}, {"shear_range": (5.0, -5.0)},
        {"n_lam": 0}, {"lam_range": (0.0, np.nan)},
    ])
    def test_shearlet_builder_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            shearlet_sampling(GroupSpec(shearlet(0.5)), **kwargs)

    def test_diagonal_builder_rejects_bad_grid(self):
        spec = GroupSpec(diagonal())
        with pytest.raises(ValueError):
            diagonal_sampling(spec, n_lam=0)
        with pytest.raises(ValueError):
            diagonal_sampling(spec, lam_range=(1.0, -1.0))


# ---------------------------------------------------------------------------
# the Calderon multiplier: identities that hold on the grid to roundoff

ROUNDOFF = 1e-13

SMALL_CASES = {
    "similitude": (GroupSpec(similitude(), rotation(0.4) @ np.diag([1.3, 0.8])),
                   lambda s: similitude_sampling(s, n_lam=8, n_theta=8)),
    "diagonal": (GroupSpec(diagonal(), rotation(0.3) @ np.diag([1.0, 1.5])),
                 lambda s: diagonal_sampling(s, n_lam=6)),
    "shearlet": (GroupSpec(shearlet(0.7), rotation(-0.5)),
                 lambda s: shearlet_sampling(s, n_lam=6, n_shear=8)),
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
        samples = default_orbit_samples(spec)
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
    "similitude": lambda s, lam: similitude_sampling(s, lam, 8, 8),
    "diagonal": lambda s, lam: diagonal_sampling(s, lam, 6),
    "shearlet": lambda s, lam: shearlet_sampling(s, lam, 6, (-5.0, 5.0), 8),
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
        # one FFT per class of H/K_psi with a nonzero plane: the slab holds
        # each class's plane in all of its rows
        planes = slab.planes.reshape(len(slab), -1)
        distinct = len(np.unique(planes[np.any(planes, axis=1)], axis=0))
        assert distinct < _nonzero_planes(slab)
        assert len(calls) == distinct
        calls.clear()
        assert np.array_equal(analyze(f, spec, sampling).planes, slab.planes)
        assert len(calls) == distinct
        calls.clear()
        transform._signal_stats([f, f], spec, sampling, 1)
        assert len(calls) == 2 * distinct

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
    """Signals on two grids, interleaved."""
    out = []
    for k in range(5):
        n, length = (64, 16.0) if k % 2 == 0 else (32, 8.0)
        out.append(freq_bump(n, length, center=(0.9 + 0.1 * k, 0.2), sigma=0.15))
    return out


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

        def counted(spec, p):
            if np.ndim(p) == 2:
                stacks.append(spec)
            return element_from_chart(spec, p)

        monkeypatch.setattr(transform, "element_from_chart", counted)
        spec = GroupSpec(diagonal(), rotation(0.3))
        sampling = diagonal_sampling(spec, n_lam=4)
        norm_ratio_profile(spec, spec, p, _profile_signals(), sampling, sampling)
        assert len(stacks) == 4  # 2 specs x 2 grids, not 2 x 5 signals


# ---------------------------------------------------------------------------
# the transform factored through the stabilizer K_psi of the wavelet profile

# default samplings: (classes, rows) for the similitude (key lam), diagonal
# (key lam1, lam2) and shearlet (key lam, b) charts
CLASS_COUNTS = {"similitude": (32, 1024), "diagonal": (256, 1024),
                "shearlet": (768, 1536)}


def _element_factor(spec, point, xi1, xi2):
    """Reference |det h|^(1/2) psihat(h^T xi) at one chart point."""
    h = element_from_chart(spec, point)
    return np.sqrt(abs(np.linalg.det(h))) * default_wavelet(spec).evaluate(
        h[0, 0] * xi1 + h[1, 0] * xi2, h[0, 1] * xi1 + h[1, 1] * xi2)


class TestStabilizerQuotient:
    @pytest.mark.parametrize("family", sorted(CLASS_COUNTS))
    def test_planes_equal_their_class_representative(self, family):
        spec = SMALL_CASES[family][0]
        sampling = default_sampling(spec)
        psi, mats, inverse = transform._classes(spec, sampling)
        assert (len(mats), len(sampling)) == CLASS_COUNTS[family]
        # mats holds the element of the lowest row of each class, and the rows
        # of a class agree off the columns the profile ignores
        classes, first = np.unique(inverse, return_index=True)
        assert np.array_equal(classes, np.arange(len(mats)))
        assert np.array_equal(mats, element_from_chart(spec, sampling.points[first]))
        key = np.delete(sampling.points, psi.ignored_columns, axis=1)
        assert np.array_equal(key[first][inverse], key)
        xi1, xi2 = freq_grids(64, 16.0)
        reps = [_element_factor(spec, sampling.points[i], xi1, xi2) for i in first]
        # relative to the largest plane, as in test_planes_in_sampling_order:
        # planes that hold only the far tail of the bump carry no digits of
        # their own
        scale = max(np.max(np.abs(r)) for r in reps)
        assert scale > 0.0
        for point, k in zip(sampling.points, inverse):
            plane = _element_factor(spec, point, xi1, xi2)
            assert np.max(np.abs(plane - reps[k])) <= ROUNDOFF * scale

    @pytest.mark.parametrize("family", sorted(SMALL_CASES))
    def test_planes_and_inversion_equal_per_row(self, family):
        spec, make_sampling = SMALL_CASES[family]
        sampling = make_sampling(spec)
        f = GridSignal(32, 8.0, np.random.default_rng(6).normal(size=(32, 32)))
        psi, mats, _ = transform._classes(spec, sampling)
        assert len(mats) < len(sampling)
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
        # relative to the largest plane, as in
        # test_planes_equal_their_class_representative
        scale = np.max(np.abs(planes))
        assert scale > 0.0
        assert np.max(np.abs(slab.planes - planes)) <= ROUNDOFF * scale
        ref = signal_from_spectrum(acc / 1.7, f.N, f.L)
        gap = np.max(np.abs(invert(slab, spec, 1.7).data - ref))
        assert gap <= ROUNDOFF * np.max(np.abs(ref))
        sums, _ = transform._signal_stats([f], spec, sampling, 2)
        assert np.array_equal(sums[:, 0], slab.plane_energies())
        for p in (0.5, 1, 3, np.inf):
            assert signal_coorbit_norm(f, spec, sampling, p) == coorbit_norm(slab, p)

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_norms_and_profile_rows_equal_slab_norms(self, stream_case, p):
        _, spec, sampling, f, slab = stream_case
        _, mats, _ = transform._classes(spec, sampling)
        assert len(mats) < len(sampling)
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
# the sparse psihat kernel: psihat(h^T xi) only where a support piece reaches,
# each value bit for bit a dense evaluation's


def _dense_psihat(psi, h, xi1, xi2):
    """Reference: psihat(h^T xi) at every frequency for one element."""
    return psi.evaluate(h[0, 0] * xi1 + h[1, 0] * xi2,
                        h[0, 1] * xi1 + h[1, 1] * xi2).ravel()


def _assert_kernel_is_dense(psi, mats, rows, cols):
    """The kernel's values on the grid (rows[r], cols[c]) equal a dense
    evaluation; its pairs come in class order and none twice.  Returns (pairs
    evaluated, whether any value is nonzero).
    """
    parts = list(transform._psihat(psi, mats, rows, cols))
    cls, idx, vals = (np.concatenate(p) for p in zip(*parts))
    xi1, xi2 = rows[:, None], cols[None, :]
    size = len(rows) * len(cols)
    assert np.all(np.diff(cls) >= 0)
    assert len(np.unique(cls * size + idx)) == len(cls)
    bounds = np.searchsorted(cls, np.arange(len(mats) + 1))
    for k, h in enumerate(mats):
        got = np.zeros(size)
        got[idx[bounds[k]:bounds[k + 1]]] = vals[bounds[k]:bounds[k + 1]]
        assert np.array_equal(got, _dense_psihat(psi, h, xi1, xi2))
    return len(cls), bool(np.any(vals))


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
    "near-limit-N64": (_NEAR_LIMIT, 64, 16.0),
    "near-limit-N32-L1": (_NEAR_LIMIT, 32, 1.0),
}


class TestSparseKernel:
    # at c = 376, B m B^-1 overflows for the scaled and near-limit conjugators
    @pytest.mark.parametrize("family, case", [
        (family, case) for family in sorted(KERNEL_FAMILIES) for case in sorted(KERNEL_CASES)
        if family != "shearlet-376" or case.startswith("N")])
    def test_values_equal_dense_evaluation(self, family, case):
        conjugator, n, length = KERNEL_CASES[case]
        spec = GroupSpec(KERNEL_FAMILIES[family], conjugator)
        psi, mats, _ = transform._classes(spec, default_sampling(spec))
        axis = freq_axis(n, length)
        count, nonzero = _assert_kernel_is_dense(psi, mats, axis, axis)
        assert nonzero
        assert count < len(mats) * n * n  # the pieces leave most of the lattice out

    @pytest.mark.parametrize("case", [
        *sorted(SMALL_CASES),
        *(f"{family}-{case}" for family in ("diagonal", "shearlet", "similitude")
          for case in ("scaled-1e200", "scaled-1e-200"))])
    def test_calderon_constant_sums_classes_in_order(self, case):
        if case in SMALL_CASES:
            spec, make_sampling = SMALL_CASES[case]
            sampling = make_sampling(spec)
        else:
            family, scaled = case.split("-", 1)
            spec = GroupSpec(KERNEL_FAMILIES[family], KERNEL_CASES[scaled][0])
            sampling = default_sampling(spec)
        # per class: haar_w times a dense psihat(h^T xi)^2, added in class order
        psi, mats, inverse = transform._classes(spec, sampling)
        haar_w = np.bincount(inverse, sampling.haar_w)
        xi1, xi2 = np.array(default_orbit_samples(spec)).T
        ref = np.zeros(len(xi1))
        for w, h in zip(haar_w, mats):
            ref += w * np.square(_dense_psihat(psi, h, xi1, xi2))
        cal = calderon_constant(spec, sampling)
        assert np.all(ref > 0.0)
        assert np.array_equal(cal.values, ref)
        assert cal.mean == ref.mean()

    @pytest.mark.parametrize("family", sorted(SMALL_CASES))
    def test_any_product_grid_takes_row_intervals(self, family):
        # unsorted, unevenly spaced rows and columns, and an empty grid
        spec, make_sampling = SMALL_CASES[family]
        psi, mats, _ = transform._classes(spec, make_sampling(spec))
        rng = np.random.default_rng(3)
        rows, cols = rng.normal(scale=1.5, size=40), rng.normal(scale=1.5, size=50)
        count, nonzero = _assert_kernel_is_dense(psi, mats, rows, cols)
        assert nonzero and count < len(mats) * 40 * 50
        assert list(transform._psihat(psi, mats, rows, np.zeros(0))) == []

    def test_overlapping_margins_count_each_point_once(self, small_case, monkeypatch):
        # margins this wide make every piece reach the whole of every row
        spec, sampling, f, slab, c = small_case
        psi, mats, _ = transform._classes(spec, sampling)
        axis = freq_axis(f.N, f.L)
        monkeypatch.setattr(transform, "_ROUNDING", 1.0)
        count, _ = _assert_kernel_is_dense(psi, mats, axis, axis)
        assert count == len(mats) * f.N * f.N
        assert np.array_equal(calderon_multiplier(spec, sampling, f.N, f.L), c)

    @pytest.mark.parametrize("sizes", [(1, 1), (10 ** 9, 10 ** 9)])
    def test_block_and_chunk_sizes_change_no_value(self, small_case, sizes, monkeypatch):
        spec, sampling, f, slab, c = small_case
        sums, peaks = transform._signal_stats([f], spec, sampling, 1)
        monkeypatch.setattr(transform, "_BLOCK_CLASSES", sizes[0])
        monkeypatch.setattr(transform, "_CHUNK_POINTS", sizes[1])
        assert np.array_equal(calderon_multiplier(spec, sampling, f.N, f.L), c)
        got_sums, got_peaks = transform._signal_stats([f], spec, sampling, 1)
        assert np.array_equal(got_sums, sums) and np.array_equal(got_peaks, peaks)
        assert np.array_equal(analyze(f, spec, sampling).planes, slab.planes)

    def test_classes_without_candidates_skip_psihat(self, monkeypatch):
        # CI's shearlet spec at N = 128: 195 of its 768 class planes are 0
        spec = GroupSpec(shearlet(0.7), rotation(-0.5))
        sampling = default_sampling(spec)
        psi, mats, _ = transform._classes(spec, sampling)
        xi1, xi2 = freq_grids(128, 16.0)
        zero = [k for k, h in enumerate(mats) if not np.any(_dense_psihat(psi, h, xi1, xi2))]
        assert (len(zero), len(mats)) == (195, 768)
        classes, points, evaluated = [], [], []
        candidates, evaluate = transform._candidates, WaveletSpec.evaluate

        def recorded_candidates(*args):
            for cls, idx in candidates(*args):
                classes.append(np.unique(cls))
                points.append(len(cls))
                yield cls, idx

        def recorded_evaluate(self, eta1, eta2):
            evaluated.append(np.size(eta1))
            return evaluate(self, eta1, eta2)

        monkeypatch.setattr(transform, "_candidates", recorded_candidates)
        monkeypatch.setattr(WaveletSpec, "evaluate", recorded_evaluate)
        calls = _count_inverse_ffts(monkeypatch)
        center = np.linalg.inv(spec.conjugator).T @ np.array([1.0, 0.2])
        f = freq_bump(128, 16.0, center=center, sigma=0.12).signal
        assert signal_coorbit_norm(f, spec, sampling, 1) > 0.0
        skipped = np.setdiff1d(np.arange(len(mats)), np.concatenate(classes))
        assert skipped.tolist() == zero
        # psihat sees the candidates and nothing else
        assert sum(evaluated) == sum(points) < 0.05 * len(mats) * 128 * 128
        assert len(calls) == len(mats) - len(zero)


def test_streamed_norm_holds_no_slab():
    # the M x N x N slab of this case is 1536 x 128 x 128 complex: 403 MB
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
