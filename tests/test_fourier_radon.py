import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridgelab import fourier_radon
from ridgelab.fourier_radon import (derivative_blocks, hermite, multiplier,
                                    radon_direct, radon_slice,
                                    radon_transform, reconstruct,
                                    taper_window)
from ridgelab.quadrature import LineGrid, sample_directions, sphere_grid
from ridgelab.targets import (GaussianSpec, combine, gaussian_radon_oracle,
                              make_gaussian)

GRID = LineGrid(L=4.0, N=2048)


@pytest.fixture(autouse=True)
def _quiet_support_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="profile support")
        yield


class TestRadonSlice:
    def test_gaussian_slice_spectrum(self):
        f = make_gaussian(GaussianSpec(d=2))
        omega = np.array([1.0, 0.0])
        spec = radon_slice(f, omega, GRID)
        t = GRID.frequencies
        np.testing.assert_allclose(spec, 2 * np.pi * np.exp(-t ** 2 / 2),
                                   atol=1e-12)
        np.testing.assert_allclose(spec[0], 2 * np.pi)

    def test_even_symmetry(self):
        f = make_gaussian(GaussianSpec(d=2, width=0.8))
        spec = radon_slice(f, np.array([0.6, 0.8]), GRID)
        # in fft bin order, frequency -t_j lives at index N - j
        np.testing.assert_allclose(spec[1:], spec[1:][::-1], atol=1e-12)

    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        np.testing.assert_array_equal(radon_slice(f, np.array([1.0, 0.0]),
                                                  GRID), 0.0)


class TestRadonTransform:
    def test_matches_oracle_d2(self):
        spec = GaussianSpec(d=2)
        f = make_gaussian(spec)
        omega = np.array([0.6, 0.8])
        values, slopes = radon_transform(f, omega, GRID)
        oracle = np.array([gaussian_radon_oracle(spec, omega, b)
                           for b in GRID.nodes])
        # tails near |b| = L carry periodic wrap-around at the 1e-3 level;
        # the interior matches the closed form far more tightly
        inner = np.abs(GRID.nodes) <= 2.0
        np.testing.assert_allclose(values[inner], oracle[inner],
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(values, oracle, atol=2e-3)
        np.testing.assert_allclose(hermite(values, slopes, GRID, 0.0),
                                   np.sqrt(2 * np.pi), rtol=1e-8)

    def test_matches_oracle_d3(self):
        spec = GaussianSpec(d=3)
        f = make_gaussian(spec)
        omega = np.array([0.0, 0.0, 1.0])
        values, slopes = radon_transform(f, omega, GRID)
        np.testing.assert_allclose(hermite(values, slopes, GRID, 1.0),
                                   2 * np.pi * np.exp(-0.5), rtol=1e-8)

    def test_shifted_peak(self):
        spec = GaussianSpec(d=2, center=np.array([1.0, 0.0]))
        f = make_gaussian(spec)
        values, _ = radon_transform(f, np.array([1.0, 0.0]), GRID)
        peak = GRID.nodes[np.argmax(values)]
        assert abs(peak - 1.0) <= GRID.h


class TestRadonDirect:
    def test_against_oracle_random_slices(self):
        spec = GaussianSpec(d=2, center=np.array([0.2, -0.1]), width=0.9)
        f = make_gaussian(spec)
        dirs = sample_directions(2, 10, 17)
        rng = np.random.default_rng(3)
        for omega in dirs:
            b = rng.uniform(-1, 1)
            np.testing.assert_allclose(
                radon_direct(f, omega, b),
                gaussian_radon_oracle(spec, omega, b), rtol=1e-8)

    def test_outside_support(self):
        from ridgelab.targets import make_cusp_radial
        f = make_cusp_radial(2.0, 2)
        assert abs(radon_direct(f, np.array([1.0, 0.0]), 1.5)) <= 1e-12

    def test_linearity(self):
        f = make_gaussian(GaussianSpec(d=2))
        g = make_gaussian(GaussianSpec(d=2, width=0.5, amplitude=0.7))
        h = combine(f, g, 1.0, 1.0)
        omega = np.array([0.8, -0.6])
        np.testing.assert_allclose(
            radon_direct(h, omega, 0.4),
            radon_direct(f, omega, 0.4) + radon_direct(g, omega, 0.4),
            atol=1e-10)


class TestBackprojectFilter:
    def test_d1_multiplier_is_constant(self):
        # d=1 the multiplier is flat, so filtering just halves the profile
        f = make_gaussian(GaussianSpec(d=1))
        values, _ = radon_transform(f, np.array([1.0]), GRID)
        [(_, F)] = derivative_blocks(f, np.array([[1.0]]), GRID, (0,))
        inner = np.abs(GRID.nodes) <= 2.0
        np.testing.assert_allclose(F[0, 0][inner], values[inner] / 2,
                                   atol=1e-9)

    def test_zero_profile(self):
        grid = LineGrid(L=2.0, N=128)
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        [(_, F)] = derivative_blocks(f, np.array([[1.0, 0.0]]), grid, (0,))
        np.testing.assert_array_equal(F, 0.0)

    def test_multiplier_values(self):
        np.testing.assert_allclose(multiplier(1, 3.0), 0.5)
        np.testing.assert_allclose(multiplier(2, 3.0), 3.0 / (4 * np.pi))
        np.testing.assert_allclose(multiplier(3, -2.0),
                                   4.0 / (2 * (2 * np.pi) ** 2))

    def test_taper_window(self):
        assert taper_window(0.0, 10.0) == 1.0
        assert taper_window(7.9, 10.0) == 1.0
        assert taper_window(11.0, 10.0) == 0.0
        assert 0.0 < taper_window(9.0, 10.0) < 1.0

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    def test_kernel_spectrum_band_only(self, d, order, fraction):
        # the half spectrum built on the band 0 <= t <= cutoff alone, by a
        # real inverse FFT, agrees with the complex inverse FFT of the
        # multiplier and taper at every quadrature frequency to rounding
        grid = LineGrid(L=4.0, N=256)
        cutoff = _kernel_cutoff(grid, fraction)
        nf = fourier_radon.KERNEL_OVERSAMPLE * grid.N
        t = 2.0 * np.pi * np.fft.fftfreq(nf, d=grid.h)
        spec = (1j * t) ** order * multiplier(d, t) * taper_window(t, cutoff)
        lags = np.arange(-(grid.N - 1), grid.N) % nf
        expected = np.fft.rfft((np.fft.ifft(spec).real / grid.h)[lags],
                               3 * grid.N)
        got = fourier_radon._kernel_spectrum(grid.L, grid.N, d, order, cutoff)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    def test_kernel_samples_against_direct_sum(self, order, fraction):
        # kernel samples at lags m h against the band's cosine / sine sum
        #   k(m h) = 1/(nf h) sum_{|t_j| <= cutoff} (i t_j)^order M_2(t_j)
        #            taper(t_j) e^{i t_j m h},   t_j = 2 pi j / (nf h),
        # summed by math.fsum over j >= 0 (the spectrum is Hermitian)
        d = 2
        grid = LineGrid(L=4.0, N=64)
        N, h = grid.N, grid.h
        cutoff = _kernel_cutoff(grid, fraction)
        nf = fourier_radon.KERNEL_OVERSAMPLE * N
        samples = np.fft.irfft(
            fourier_radon._kernel_spectrum(grid.L, N, d, order, cutoff),
            3 * N)[:2 * N - 1]
        t0 = fourier_radon.TAPER_START * cutoff
        for m in (0, 1, 5, -3, N - 1, 1 - N):
            terms = []
            for j in range(nf // 2 + 1):
                t = 2.0 * math.pi * j / (nf * h)
                if t > cutoff:
                    break
                taper = 1.0 if t <= t0 else math.cos(
                    0.5 * math.pi * (t - t0) / (cutoff - t0)) ** 2
                # Re(i^order e^{i t m h})
                phase = t * m * h
                turn = (math.cos(phase), -math.sin(phase), -math.cos(phase),
                        math.sin(phase))[order % 4]
                twice = 1 if j in (0, nf // 2) else 2
                terms.append(twice * t ** (order + d - 1) / (4.0 * math.pi)
                             * taper * turn)
            direct = math.fsum(terms) / (nf * h)
            assert abs(samples[m + N - 1] - direct) \
                <= 1e-13 * np.max(np.abs(samples))


def _kernel_cutoff(grid, fraction):
    """A cutoff as _effective_cutoff picks them: a multiple of the grid's
    frequency spacing, at most Nyquist."""
    dt = np.pi / grid.L
    cutoff = float(np.ceil(fraction * grid.nyquist / dt) * dt)
    assert cutoff <= grid.nyquist
    return cutoff


class TestReconstruct:
    def test_d1_profile_identity(self):
        # F_omega(u) = f(omega * u) / 2 on [-1, 1]
        f = make_gaussian(GaussianSpec(d=1, center=np.array([0.2])))
        sphere = sphere_grid(1, 1)
        u = np.linspace(-1, 1, 101)
        [(_, F)] = derivative_blocks(f, sphere.nodes, GRID, (0, 1))
        for omega, row, slope in zip(sphere.nodes, F[0], F[1]):
            np.testing.assert_allclose(hermite(row, slope, GRID, u),
                                       f((u * omega[0])[:, None]) / 2,
                                       atol=1e-6)

    def test_inversion_at_origin_d2(self):
        f = make_gaussian(GaussianSpec(d=2))
        val = reconstruct(f, np.zeros(2), sphere_grid(2, 8), GRID)
        np.testing.assert_allclose(val, 1.0, atol=1e-3)

    def test_inversion_d1_sum_over_two_directions(self):
        f = make_gaussian(GaussianSpec(d=1, width=0.8))
        pts = np.linspace(-0.9, 0.9, 19)[:, None]
        recon = reconstruct(f, pts, sphere_grid(1, 1), GRID)
        np.testing.assert_allclose(recon, f(pts), atol=1e-6)

    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        val = reconstruct(f, np.array([0.1, 0.2]), sphere_grid(2, 4), GRID)
        np.testing.assert_allclose(val, 0.0, atol=1e-14)

    def test_refinement_reduces_error(self):
        f = make_gaussian(GaussianSpec(d=2))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.6, 0.6, size=(25, 2))
        target = f(pts)
        coarse = reconstruct(f, pts, sphere_grid(2, 6), GRID)
        fine = reconstruct(f, pts, sphere_grid(2, 7), GRID.refine())
        err_c = np.max(np.abs(coarse - target))
        err_f = np.max(np.abs(fine - target))
        assert err_f < err_c


@pytest.mark.parametrize("N", [2, 4, 8, 64, 1024])
def test_even_d_filter_is_the_linear_convolution(N):
    # the kernel's spectrum is padded to 3N >= 3N - 2, the length of the
    # full linear convolution of an N-sample row with the (2N - 1)-sample
    # kernel, so the FFT product has no wrap-around: it equals the direct
    # convolution with the kernel samples
    grid = LineGrid(L=4.0, N=N)
    row = np.random.default_rng(N).standard_normal(N)
    cutoff = fourier_radon._effective_cutoff(np.fft.fft(row), grid)
    for order in (0, 1, 2):
        kernel = fourier_radon._kernel_spectrum(grid.L, N, 2, order,
                                                float(cutoff))
        assert len(kernel) == 3 * N // 2 + 1
        samples = np.fft.irfft(kernel, 3 * N)
        # the padding beyond the 2N - 1 lags holds zeros only
        assert np.max(np.abs(samples[2 * N - 1:])) \
            <= 1e-14 * np.max(np.abs(samples))
        direct = np.convolve(row, samples[:2 * N - 1])[N - 1:2 * N - 1]
        got = fourier_radon._apply_multiplier_linear(row, grid, 2, (order,))[0]
        np.testing.assert_allclose(got, direct * grid.h, rtol=0,
                                   atol=1e-13 * np.max(np.abs(direct * grid.h)))


class TestReconstructRadial:
    """A radial target's directions all read one back-projected profile."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_radial_matches_per_direction_route(self, d):
        f = make_gaussian(GaussianSpec(d=d, width=0.6))
        assert f.radial
        pts = np.random.default_rng(d).uniform(-0.5, 0.5, size=(40, d))
        sphere = sphere_grid(d, 3 if d == 3 else 6)
        radial = reconstruct(f, pts, sphere, GRID)
        per_direction = reconstruct(dataclasses.replace(f, radial=False), pts,
                                    sphere, GRID)
        np.testing.assert_allclose(radial, per_direction, rtol=1e-12, atol=0)


class TestHermite:
    """hermite, the cubic Hermite read of grid samples and slopes."""

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           u=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=20))
    def test_reproduces_cubics(self, coeffs, u):
        grid = LineGrid(L=2.0, N=16)
        p = np.polynomial.Polynomial(coeffs)
        u = np.array(u)
        got = hermite(p(grid.nodes), p.deriv()(grid.nodes), grid, u)
        scale = 1.0 + np.abs(coeffs).sum() * 8.0
        assert np.max(np.abs(got - p(u))) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", [LineGrid(4.0, 16), LineGrid(3.0, 64),
                                      LineGrid(8.0, 16384)])
    def test_returns_samples_at_nodes(self, grid):
        rng = np.random.default_rng(grid.N)
        F = rng.standard_normal((3, grid.N))
        dF = rng.standard_normal((3, grid.N))
        # the last node lies at t = 1 of the last cell
        np.testing.assert_array_equal(hermite(F, dF, grid, grid.nodes), F)
        assert hermite(F, dF, grid, grid.nodes[5]).shape == (3,)

    @pytest.mark.parametrize("d", [2, 3])
    def test_gaussian_radon_row_off_the_nodes(self, d):
        # width 0.5 keeps the row's periodic wrap-around (exp(-7^2) at
        # |b| = 1.5) far below the interpolation error, which is of order
        # h^4 times the row's fourth derivative
        spec = GaussianSpec(d=d, width=0.5)
        omega = np.ones(d) / np.sqrt(d)
        values, slopes = radon_transform(make_gaussian(spec), omega, GRID)
        u = np.random.default_rng(d).uniform(-1.5, 1.5, 500)
        assert not np.isin(u, GRID.nodes).any()
        exact = gaussian_radon_oracle(spec, omega, u)
        err = np.max(np.abs(hermite(values, slopes, GRID, u) - exact))
        assert err <= 1e-10 * np.max(np.abs(exact))
