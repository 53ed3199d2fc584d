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

    @pytest.mark.parametrize("x", [[[0.1, 0.2, 5.0]], [[0.1]], [0.1, 0.2, 5.0],
                                   np.zeros((2, 3, 1))])
    def test_rejects_points_of_another_dimension(self, x):
        f = make_gaussian(GaussianSpec(d=2))
        with pytest.raises(ValueError, match="points must have 2 coordinates"):
            f(x)


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
        np.testing.assert_allclose(f.fourier(xi[:, None]).real, exact,
                                   rtol=1e-8, atol=0)

    def test_fourier_3d_closed_form_at_high_frequency(self):
        # gamma = 2: F(rho) = 4 pi ((4 + 2 cos rho) / rho^4 - 6 sin rho / rho^5);
        # a plain adaptive quadrature returned 2.6e-7 at rho = 3000, where
        # F is 3.2e-13
        f = make_cusp_radial(2.0, 3)
        rho = np.array([10.0, 300.0, 3000.0])
        exact = 4.0 * np.pi * ((4.0 + 2.0 * np.cos(rho)) / rho ** 4
                               - 6.0 * np.sin(rho) / rho ** 5)
        np.testing.assert_allclose(f.fourier(rho[:, None] * np.eye(3)[0]).real,
                                   exact, rtol=1e-9, atol=0)


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


def _from_factors(f, x):
    """sum of c * prod_i g(z)[i] over f's factors, z the axis-major x."""
    z = np.moveaxis(np.asarray(x, float), -1, 0)
    return sum(c * np.prod(g(z), axis=0) for c, g in f.factors)


class TestFactors:
    """factors describe the same function as evaluate."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_is_one_term(self, d):
        f = make_gaussian(GaussianSpec(d=d, center=np.linspace(-0.2, 0.3, d),
                                       width=0.37, amplitude=-1.3))
        assert len(f.factors) == 1 and f.factors[0][0] == -1.3
        x = np.random.default_rng(d).uniform(-1.0, 1.0, (3, 50, d))
        np.testing.assert_allclose(_from_factors(f, x), f(x), rtol=1e-14,
                                   atol=0)

    def test_combine_concatenates_the_terms(self):
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.5))
        g = make_gaussian(GaussianSpec(d=2, center=np.array([0.2, 0.1]),
                                       width=0.5))
        h = combine(f, g, 2.0, -3.0)
        assert [c for c, _ in h.factors] == [1.0, -3.0]
        assert [fn for _, fn in h.factors] == [f.factors[0][1],
                                             g.factors[0][1]]
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 2))
        np.testing.assert_allclose(_from_factors(h, x), h(x), rtol=1e-14,
                                   atol=1e-15)

    def test_cusp_has_none(self):
        cusp = make_cusp_radial(2.5, 2)
        assert cusp.factors is None
        gauss = make_gaussian(GaussianSpec(d=2))
        assert combine(gauss, cusp).factors is None
        assert combine(cusp, gauss).factors is None


class TestRadialProfile:
    """radial is set only for targets radial about the origin, whose
    Fourier data at xi is the slice along e1 at |xi|."""

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
            assert f.radial is True
            on_e1 = f.fourier(rho[:, None] * np.eye(d)[0])
            np.testing.assert_allclose(on_e1.real, f.fourier(xi).real,
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(f.fourier(xi).imag, 0.0)
            np.testing.assert_array_equal(on_e1.imag, 0.0)
            assert np.ndim(f.fourier(xi[1])) == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_off_centre_is_not_radial(self, d):
        c = np.zeros(d)
        c[-1] = 0.25
        shifted = make_gaussian(GaussianSpec(d=d, center=c))
        centred = make_gaussian(GaussianSpec(d=d))
        assert shifted.radial is False
        assert combine(centred, shifted).radial is False
        assert combine(shifted, centred).radial is False
        assert combine(shifted, make_cusp_radial(2.0, d)).radial is False

    def test_cusp_fourier_reads_radial_at_the_norm(self):
        f = make_cusp_radial(2.0, 2)
        value = f.fourier(np.array([1.75, 0.0]))
        assert f.fourier(np.array([1.05, 1.4])) == value
        assert f.fourier(np.array([1.05, 1.4])).dtype == complex
