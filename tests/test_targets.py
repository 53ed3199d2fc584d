import numpy as np
import pytest
from scipy import integrate

from ridgelab.targets import (GaussianSpec, combine, gaussian_radon_oracle,
                              make_cusp_radial, make_gaussian)


class TestGaussian:
    def test_peak_value(self):
        f = make_gaussian(GaussianSpec(d=2))
        np.testing.assert_allclose(f(np.zeros(2)), 1.0)

    def test_point_value_1d(self):
        f = make_gaussian(GaussianSpec(d=1))
        np.testing.assert_allclose(f(np.array([1.0])), np.exp(-0.5))

    def test_fourier_at_zero_is_total_mass(self):
        # oracle: integral of exp(-|x|^2/2) over R^2 by polar quadrature
        f = make_gaussian(GaussianSpec(d=2))
        oracle, _ = integrate.quad(
            lambda r: 2 * np.pi * r * np.exp(-r ** 2 / 2), 0, 40)
        np.testing.assert_allclose(f.fourier(np.zeros(2)), oracle, rtol=1e-10)
        np.testing.assert_allclose(oracle, 2 * np.pi, rtol=1e-10)

    def test_fourier_matches_quadrature_1d(self):
        spec = GaussianSpec(d=1, center=np.array([0.3]), width=0.7,
                            amplitude=1.5)
        f = make_gaussian(spec)
        for xi in (0.0, 0.9, 2.4):
            re, _ = integrate.quad(
                lambda x: f(np.array([x])) * np.cos(xi * x), -30, 30)
            im, _ = integrate.quad(
                lambda x: -f(np.array([x])) * np.sin(xi * x), -30, 30)
            np.testing.assert_allclose(f.fourier(np.array([xi])),
                                       re + 1j * im, atol=1e-10)

    def test_translation(self):
        f = make_gaussian(GaussianSpec(d=2, center=np.array([0.5, 0.0])))
        g = make_gaussian(GaussianSpec(d=2))
        x = np.array([0.7, -0.2])
        np.testing.assert_allclose(f(x), g(x - [0.5, 0.0]))

    def test_bandwidth_truncates_spectrum(self):
        f = make_gaussian(GaussianSpec(d=1))
        xi = np.array([f.bandwidth])
        assert abs(f.fourier(xi)) <= 1.1e-14 * abs(f.fourier(np.zeros(1)))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            GaussianSpec(d=1, width=0.0)


class TestRadonOracle:
    def test_d2_central_slice(self):
        spec = GaussianSpec(d=2)
        omega = np.array([0.6, 0.8])
        np.testing.assert_allclose(gaussian_radon_oracle(spec, omega, 0.0),
                                   np.sqrt(2 * np.pi), rtol=1e-12)

    def test_d3_offset_plane(self):
        spec = GaussianSpec(d=3)
        omega = np.array([0.0, 0.0, 1.0])
        # 2-D Gaussian integral over the plane z = 1
        oracle, _ = integrate.quad(
            lambda r: 2 * np.pi * r * np.exp(-(r ** 2 + 1) / 2), 0, 40)
        np.testing.assert_allclose(gaussian_radon_oracle(spec, omega, 1.0),
                                   oracle, rtol=1e-10)
        np.testing.assert_allclose(oracle, 2 * np.pi * np.exp(-0.5),
                                   rtol=1e-10)

    def test_zero_amplitude(self):
        spec = GaussianSpec(d=2, amplitude=0.0)
        assert gaussian_radon_oracle(spec, np.array([1.0, 0.0]), 0.3) == 0.0

    def test_shifted_peak(self):
        spec = GaussianSpec(d=2, center=np.array([1.0, 0.0]))
        omega = np.array([1.0, 0.0])
        b = np.linspace(-2, 2, 81)
        vals = [gaussian_radon_oracle(spec, omega, bi) for bi in b]
        assert b[int(np.argmax(vals))] == 1.0


class TestCusp:
    def test_pointwise_values(self):
        f = make_cusp_radial(2.0, 2)
        np.testing.assert_allclose(f(np.zeros(2)), 1.0)
        np.testing.assert_allclose(f(np.array([1.0, 0.0])), 0.0)
        np.testing.assert_allclose(f(np.array([0.5, 0.0])), 0.25)

    def test_compact_support(self):
        f = make_cusp_radial(2.5, 2)
        assert f.support_radius == 1.0
        assert f(np.array([1.2, 0.3])) == 0.0

    def test_fourier_matches_quadrature_1d(self):
        f = make_cusp_radial(2.0, 1)
        for xi in (0.0, 1.3, 4.0):
            oracle, _ = integrate.quad(
                lambda x: (1 - abs(x)) ** 2 * np.cos(xi * x), -1, 1)
            np.testing.assert_allclose(f.fourier(np.array([xi])), oracle,
                                       atol=1e-9)

    def test_fourier_1d_closed_form_at_high_frequency(self):
        # gamma = 2: F(xi) = 4/xi^2 - 4 sin(xi)/xi^3; a plain adaptive
        # quadrature returned -9.7e-4 at xi = 6000, where F is 1.1e-7
        f = make_cusp_radial(2.0, 1)
        xi = np.array([10.0, 1000.0, 6000.0])
        exact = 4.0 / xi ** 2 - 4.0 * np.sin(xi) / xi ** 3
        np.testing.assert_allclose(f.radial(xi), exact, rtol=1e-8, atol=0)


class TestCombine:
    def test_linear_combination(self):
        f = make_gaussian(GaussianSpec(d=2))
        g = make_gaussian(GaussianSpec(d=2, width=0.5))
        h = combine(f, g, 2.0, -1.0)
        x = np.array([0.4, -0.1])
        np.testing.assert_allclose(h(x), 2 * f(x) - g(x))
        xi = np.array([1.0, 2.0])
        np.testing.assert_allclose(h.fourier(xi),
                                   2 * f.fourier(xi) - g.fourier(xi))


class TestRadialProfile:
    """radial(rho) is the Fourier data at |xi| = rho, set only for targets
    radial about the origin."""

    XI = np.array([[0.0, 0.0, 0.0], [0.3, -1.2, 0.4], [2.0, 1.0, -2.0],
                   [5.5, 0.0, 0.1]])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_fourier(self, d):
        xi = self.XI[:, :d]
        rho = np.linalg.norm(xi, axis=-1)
        targets = [make_gaussian(GaussianSpec(d=d, width=0.7, amplitude=-1.5)),
                   make_gaussian(GaussianSpec(d=d, center=np.zeros(d))),
                   make_cusp_radial(2.5, d)]
        targets.append(combine(targets[0], targets[2], 0.5, 2.0))
        for f in targets:
            assert f.radial is not None
            np.testing.assert_allclose(f.radial(rho), f.fourier(xi).real,
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(f.fourier(xi).imag, 0.0)
            assert np.ndim(f.radial(rho[1])) == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_off_centre_is_not_radial(self, d):
        c = np.zeros(d)
        c[-1] = 0.25
        shifted = make_gaussian(GaussianSpec(d=d, center=c))
        centred = make_gaussian(GaussianSpec(d=d))
        assert shifted.radial is None
        assert combine(centred, shifted).radial is None
        assert combine(shifted, centred).radial is None
        assert combine(shifted, make_cusp_radial(2.0, d)).radial is None

    def test_cusp_fourier_reads_radial_at_the_norm(self):
        f = make_cusp_radial(2.0, 2)
        value = f.radial(1.75)
        assert f.fourier(np.array([1.05, 1.4])) == value
        assert f.fourier(np.array([1.05, 1.4])).dtype == complex
