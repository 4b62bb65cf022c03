import numpy as np
import pytest

from coorbit2d import (
    CoverageWarning,
    GridSignal,
    GroupSpec,
    diagonal,
    default_wavelet,
    freq_bump,
    freq_grids,
    gen_test_signal,
    rotation,
    shearlet,
    signal_from_spectrum,
    similitude,
    spectrum_from_signal,
    wave_packet,
)
from coorbit2d.signals import STEP_RANGE, _phase_grid, ifft2_rows
from coorbit2d.families import bump
from conftest import big_bump_data


class TestBump:
    def test_peak_and_support(self):
        assert bump(0.0) == 1.0
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(2.5) == 0.0

    def test_value(self):
        assert bump(0.5) == pytest.approx(np.exp(1 - 1 / 0.75))


class TestWaveletProfiles:
    def test_similitude_unit_circle_peak(self):
        psi = default_wavelet(GroupSpec(similitude()))
        assert psi.evaluate(1.0, 0.0) == 1.0
        assert psi.evaluate(0.0, -1.0) == 1.0
        assert psi.evaluate(2.0, 0.0) == 0.0

    def test_shearlet_closed_form(self):
        psi = default_wavelet(GroupSpec(shearlet(1.0)))
        assert psi.evaluate(1.0, 0.5) == pytest.approx(np.exp(-1.0 / 3.0))

    def test_diagonal_product_form(self):
        psi = default_wavelet(GroupSpec(diagonal()))
        assert psi.evaluate(1.0, 1.0) == 1.0
        assert psi.evaluate(1.0, 0.0) == 0.0

    def test_conjugated_evaluation_point(self):
        b = rotation(0.6)
        psi = default_wavelet(GroupSpec(similitude(), b))
        # radial profile evaluated at B^T xi: rotation keeps radius
        assert psi.evaluate(1.0, 0.0) == 1.0

    @pytest.mark.parametrize("family", [diagonal(), shearlet(0.5)],
                             ids=["diagonal", "shearlet"])
    def test_zero_near_orbit_complement(self, rng, family):
        # the support closure keeps |eta1| >= 1/2 in standard coordinates
        # eta = B^T xi (diagonal: |eta2| too), away from the complement lines
        for _ in range(3):
            b = rng.normal(size=(2, 2)) + 2 * np.eye(2)
            psi = default_wavelet(GroupSpec(family, b))
            eta = rng.uniform(-4.0, 4.0, (10_000, 2))
            eta[:, 0] = rng.uniform(-0.49, 0.49, 10_000)
            if family.kind == "diagonal":
                eta[::2] = eta[::2, ::-1]  # half of them near the other line
            xi = np.linalg.solve(b.T, eta.T)
            assert np.all(psi.evaluate(xi[0], xi[1]) == 0.0)

    def test_masked_zero_on_complement(self):
        psi = default_wavelet(GroupSpec(shearlet(2.0)))
        assert psi.evaluate(0.0, 1.0) == 0.0
        psi_d = default_wavelet(GroupSpec(diagonal()))
        assert psi_d.evaluate(0.0, 0.7) == 0.0


def _standard_points(kind, rng, n):
    """2n frequencies eta in standard coordinates, by log-scale t (|eta| = 2^t):
    n with t uniform in (-1.01, 1.01), n with |t| within 1e-3 of the support
    edge |t| = 1, where bump is tiny but not yet 0."""
    t = np.concatenate([rng.uniform(-1.01, 1.01, (n, 2)),
                        rng.choice([-1.0, 1.0], (n, 2)) * rng.uniform(0.999, 1.001, (n, 2))])
    mags = 2.0 ** t
    signs = rng.choice([-1.0, 1.0], mags.shape)
    if kind == "similitude":
        ang = rng.uniform(0.0, 2.0 * np.pi, len(mags))
        return mags[:, 0] * np.cos(ang), mags[:, 0] * np.sin(ang)
    if kind == "diagonal":
        return signs[:, 0] * mags[:, 0], signs[:, 1] * mags[:, 1]
    eta1 = signs[:, 0] * mags[:, 0]
    return eta1, eta1 * t[:, 1]


class TestSupportMask:
    @pytest.mark.parametrize("family", [similitude(), diagonal(), shearlet(0.7)],
                             ids=lambda f: f.kind)
    def test_masked_evaluate_equals_the_closed_form(self, family, rng):
        b = rotation(0.4) @ np.diag([1.3, 0.8])
        psi = default_wavelet(GroupSpec(family, b))
        eta1, eta2 = _standard_points(family.kind, rng, 100_000)
        binv_t = np.linalg.inv(b).T
        xi1 = binv_t[0, 0] * eta1 + binv_t[0, 1] * eta2
        xi2 = binv_t[1, 0] * eta1 + binv_t[1, 1] * eta2
        # the closed form at every frequency, with no support mask
        bt = b.T
        e1 = bt[0, 0] * xi1 + bt[0, 1] * xi2
        e2 = bt[1, 0] * xi1 + bt[1, 1] * xi2
        if family.kind == "similitude":
            ref = bump(np.log2(np.hypot(e1, e2)))
        elif family.kind == "diagonal":
            ref = bump(np.log2(np.abs(e1))) * bump(np.log2(np.abs(e2)))
        else:
            ref = bump(np.log2(np.abs(e1))) * bump(e2 / e1)
        got = psi.evaluate(xi1, xi2)
        # the points near the edge hold values that are tiny but not 0
        tail = (ref != 0.0) & (np.abs(ref) < 1e-100)
        assert np.count_nonzero(tail) >= 100
        assert np.array_equal(got, ref)


class TestGridSignal:
    def test_phase_grid_built_once_per_size(self):
        grid = _phase_grid(16)
        assert _phase_grid(16) is grid
        assert not grid.flags.writeable
        s = (-1.0) ** np.arange(16)
        assert np.array_equal(grid, np.outer(s, s))

    @pytest.mark.parametrize("n", [8, 64, 128])
    @pytest.mark.parametrize("pick", ["none", "one", "some", "all"])
    def test_row_pruned_inverse_equals_ifft2(self, rng, n, pick):
        rows = {"none": [], "one": [n - 1], "some": [0, 3, n // 2, n - 2],
                "all": list(range(n))}[pick]
        rows = np.array(rows, dtype=int)
        spec = np.zeros((n, n), dtype=complex)
        spec[rows] = (rng.normal(size=(len(rows), n))
                      + 1j * rng.normal(size=(len(rows), n)))
        buf = np.full((n, n), np.nan + 0j)  # stale scratch contents are ignored
        assert np.array_equal(ifft2_rows(spec[rows], rows, buf), np.fft.ifft2(spec))

    def test_signal_from_spectrum_keeps_its_arithmetic(self, rng):
        # (N/L)^2 = 40.96 is not a power of two, so a reordered product would
        # round differently
        n, length = 64, 10.0
        spec = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ref = (n / length) ** 2 * np.fft.ifft2(_phase_grid(n) * spec)
        assert np.array_equal(signal_from_spectrum(spec, n, length), ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSignal(6, 1.0, np.zeros((6, 6)))
        with pytest.raises(ValueError):
            GridSignal(16, -1.0, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            GridSignal(16, 1.0, np.zeros((8, 8)))

    def test_energy_must_be_finite(self):
        # finite samples whose sum of squares overflows, and non-finite ones
        data = big_bump_data()
        assert np.all(np.isfinite(data))
        for bad in (data, np.full((32, 32), np.nan), np.full((32, 32), np.inf)):
            with pytest.raises(ValueError, match="energy"):
                GridSignal(32, 8.0, bad)

    def test_energy_is_scaled_before_it_is_squared(self):
        # sum |f|^2 of 64 samples 1e200 overflows, but ||f|| = 8 * 1e200 * L/N
        # at L/N = 1e-150 does not; samples 1e-200 underflow it to 0
        for value, step in ((1e200, 1e-150), (1e-200, 1e150)):
            sig = GridSignal(8, 8 * step, np.full((8, 8), value))
            assert sig.norm_l2() == pytest.approx(8 * value * step, rel=1e-15)

    def test_lattice_step_window(self):
        ones = np.ones((8, 8))
        for step in STEP_RANGE:
            GridSignal(8, 8 * step, ones)
        lo, hi = STEP_RANGE
        for step in (np.nextafter(lo, 0), np.nextafter(hi, np.inf), 0.0, np.inf,
                     np.nan, -1.0):
            with pytest.raises(ValueError, match="L/N"):
                GridSignal(8, 8 * step, ones)

    def test_round_trip_transforms(self, rng):
        data = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        sig = GridSignal(16, 4.0, data)
        back = signal_from_spectrum(spectrum_from_signal(sig), 16, 4.0)
        assert np.allclose(back, data, atol=1e-13)

    def test_grid_plancherel_exact(self, rng):
        data = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        sig = GridSignal(32, 8.0, data)
        spec = spectrum_from_signal(sig)
        assert np.sqrt(np.sum(np.abs(spec) ** 2) / 8.0 ** 2) == pytest.approx(
            sig.norm_l2(), rel=1e-12
        )

    def test_spectrum_phase_convention(self):
        # a pure frequency on the lattice: f(x) = exp(2 pi i k.x / L)
        n, length = 16, 4.0
        k = (2, -3)
        pos = (np.arange(n) / n - 0.5) * length
        x1, x2 = np.meshgrid(pos, pos, indexing="ij")
        data = np.exp(2j * np.pi * (k[0] * x1 + k[1] * x2) / length)
        spec = spectrum_from_signal(GridSignal(n, length, data))
        xi1, xi2 = freq_grids(n, length)
        mask = (np.isclose(xi1, k[0] / length) & np.isclose(xi2, k[1] / length))
        # all mass at the single lattice frequency, value = L^2
        assert np.sum(mask) == 1
        assert spec[mask][0] == pytest.approx(length ** 2, rel=1e-12)
        assert np.max(np.abs(spec[~mask])) < 1e-10 * length ** 2


class TestGenTestSignal:
    def test_gaussian_plancherel_analytic(self):
        f = freq_bump(128, 16.0, center=(1.0, 0.4), sigma=0.12)
        assert f.signal.norm_l2() == pytest.approx(
            np.sqrt(np.pi) * 0.12, rel=1e-6
        )

    def test_bump_plancherel_quadrature_oracle(self):
        # the compact bump needs a finer frequency lattice than the gaussian
        sigma = 0.4
        f = freq_bump(128, 32.0, center=(0.9, -0.2), sigma=sigma, shape="bump")
        # independent oracle: fine Riemann integration of the closed form
        t = np.linspace(-sigma, sigma, 4001)
        tt1, tt2 = np.meshgrid(t, t, indexing="ij")
        vals = f.spectrum(tt1 + 0.9, tt2 - 0.2)
        step = t[1] - t[0]
        oracle = np.sqrt(np.sum(np.abs(vals) ** 2) * step * step)
        assert f.signal.norm_l2() == pytest.approx(oracle, rel=1e-6)

    def test_zero_amplitude_gives_zero_signal(self):
        f = freq_bump(32, 8.0, center=(0.8, 0.0), sigma=0.2, amplitude=0.0)
        assert np.all(f.signal.data == 0.0)

    def test_leak_warning(self):
        # the warning points at the caller, also through gen_test_signal
        for make in (lambda: freq_bump(16, 16.0, center=(0.45, 0.0), sigma=0.2),
                     lambda: wave_packet(16, 16.0, center=(0.45, 0.0), sigma_along=0.2,
                                         sigma_across=0.1, direction=0.0),
                     lambda: gen_test_signal("freq_bump", 16, 16.0,
                                             center=(0.45, 0.0), sigma=0.2)):
            with pytest.warns(CoverageWarning) as record:
                make()
            assert [w.filename for w in record] == [__file__]

    def test_wave_packet_norm(self):
        f = wave_packet(64, 16.0, center=(1.0, 0.5), sigma_along=0.15,
                        sigma_across=0.08, direction=0.4)
        # 2D anisotropic gaussian: ||fhat||_2^2 = pi * s1 * s2
        assert f.signal.norm_l2() == pytest.approx(
            np.sqrt(np.pi * 0.15 * 0.08), rel=1e-6
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_test_signal("mystery", 16, 4.0)


class TestInputChecks:
    @pytest.mark.parametrize("kwargs,message", [
        ({"sigma": 0.0}, "sigma must be positive"),
        ({"sigma": -0.1}, "sigma must be positive"),
        ({"sigma": 0.1, "shape": "box"}, "unknown bump shape 'box'"),
    ])
    def test_freq_bump_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            freq_bump(16, 4.0, (1.0, 0.0), **kwargs)

    @pytest.mark.parametrize("widths", [(0.0, 0.1), (0.1, 0.0), (-0.1, 0.1)])
    def test_wave_packet_widths(self, widths):
        with pytest.raises(ValueError, match="widths must be positive"):
            wave_packet(16, 4.0, (1.0, 0.0), *widths, 0.0)
