import numpy as np
import pytest

from ridgelab.metrics import lp_error, rate_fit
from ridgelab.quadrature import BallSampler
from ridgelab.targets import GaussianSpec, make_gaussian


class TestLpError:
    def test_identical_functions(self):
        f = make_gaussian(GaussianSpec(d=2))
        sampler = BallSampler(d=2, mode="lattice", count=1024, seed=1)
        assert lp_error(f, f, 2, sampler) == 0.0

    def test_sup_norm_of_relu_ridge(self):
        f = lambda x: np.maximum(np.atleast_2d(x)[:, 0], 0.0)
        g = lambda x: np.zeros(len(np.atleast_2d(x)))
        sampler = BallSampler(d=2, mode="lattice", count=2 ** 16, seed=2)
        err = lp_error(f, g, np.inf, sampler)
        assert abs(err - 1.0) < 0.01

    def test_l2_norm_of_indicator(self):
        # || 1 - 0 ||_{L_2(disk)} = sqrt(area) = sqrt(pi)
        one = lambda x: np.ones(len(np.atleast_2d(x)))
        zero = lambda x: np.zeros(len(np.atleast_2d(x)))
        sampler = BallSampler(d=2, mode="lattice", count=2 ** 14, seed=3)
        np.testing.assert_allclose(lp_error(one, zero, 2, sampler),
                                   np.sqrt(np.pi), rtol=1e-3)

    def test_string_infinity_accepted(self):
        one = lambda x: np.ones(len(np.atleast_2d(x)))
        zero = lambda x: np.zeros(len(np.atleast_2d(x)))
        sampler = BallSampler(d=1, mode="lattice", count=64, seed=4)
        assert lp_error(one, zero, "inf", sampler) == 1.0


class TestRateFit:
    def test_exact_inverse_square_law(self):
        pts = [(n, n ** -2.0) for n in (2, 4, 8, 16)]
        slope, _, residual = rate_fit(pts)
        np.testing.assert_allclose(slope, -2.0, atol=1e-12)
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)

    def test_positive_cubic_law(self):
        pts = [(e, e ** 3) for e in (0.5, 0.25, 0.125)]
        slope, _, _ = rate_fit(pts)
        np.testing.assert_allclose(slope, 3.0, atol=1e-12)

    def test_constant_errors(self):
        pts = [(n, 0.7) for n in (2, 4, 8)]
        slope, intercept, _ = rate_fit(pts)
        np.testing.assert_allclose(slope, 0.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(intercept), 0.7)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            rate_fit([(2, 0.5), (4, 0.25)])
