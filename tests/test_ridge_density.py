import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicSpline

from ridgelab import fourier_radon
from ridgelab.fourier_radon import (_apply_multiplier_linear,
                                    _effective_cutoff, derivative_blocks,
                                    radon_transform, reconstruct)
from ridgelab.quadrature import LineGrid, sample_directions, sphere_grid
from ridgelab.ridge_density import (derivative_profile, multi_indices,
                                    peano_polynomial, peano_tables,
                                    sobolev_seminorm, theorem_order,
                                    variation_upper_bound, zero_polynomial)
from ridgelab.targets import GaussianSpec, combine, make_gaussian

GRID = LineGrid(L=4.0, N=2048)


@pytest.fixture(autouse=True)
def _quiet_support_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="profile support")
        yield


class TestDerivativeProfile:
    def test_d1_first_derivative_identity(self):
        # F_omega(u) = f(omega u)/2, so F' = omega f'(omega u)/2
        f = make_gaussian(GaussianSpec(d=1))
        for w in (-1.0, 1.0):
            prof = derivative_profile(f, np.array([w]), 0, GRID)
            u = np.linspace(-1, 1, 101)
            exact = w * (-u * w) * np.exp(-(u * w) ** 2 / 2) / 2
            np.testing.assert_allclose(prof.interpolator()(u), exact,
                                       atol=1e-6)

    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        prof = derivative_profile(f, np.array([1.0, 0.0]), 1, GRID)
        np.testing.assert_allclose(prof.values, 0.0, atol=1e-14)

    def test_even_parity_for_odd_k(self):
        # for a centered target F_omega is even, so F^{(k+1)} with k odd too
        f = make_gaussian(GaussianSpec(d=2))
        prof = derivative_profile(f, np.array([0.6, 0.8]), 1, GRID)
        vals = prof.interpolator()(np.linspace(0, 1, 33))
        vals_neg = prof.interpolator()(-np.linspace(0, 1, 33))
        # parity holds at the level of the profile's discretization error
        np.testing.assert_allclose(vals, vals_neg, atol=1e-3)
        fine = derivative_profile(f, np.array([0.6, 0.8]), 1, GRID.refine())
        vals = fine.interpolator()(np.linspace(0, 1, 33))
        vals_neg = fine.interpolator()(-np.linspace(0, 1, 33))
        np.testing.assert_allclose(vals, vals_neg, atol=1e-5)

    def test_matches_spline_derivative_of_profile(self):
        # independent oracle: differentiate the filtered profile numerically
        from ridgelab.fourier_radon import backproject_filter, radon_transform
        f = make_gaussian(GaussianSpec(d=2, width=0.8))
        omega = np.array([0.8, -0.6])
        base = backproject_filter(radon_transform(f, omega, GRID), 2)
        oracle = base.interpolator().derivative(2)
        prof = derivative_profile(f, omega, 1, GRID)
        u = np.linspace(-0.9, 0.9, 41)
        np.testing.assert_allclose(prof.interpolator()(u), oracle(u),
                                   atol=1e-5)


def _two_gaussians(d):
    # off-centre bumps of different widths that nearly cancel: the Radon
    # rows' spectra differ from direction to direction, and so do their
    # cutoffs
    c = np.zeros(d)
    c[0] = 0.6
    return combine(make_gaussian(GaussianSpec(d=d, center=c, width=0.3)),
                   make_gaussian(GaussianSpec(d=d, center=-c, width=0.5)),
                   1.0, -0.8)


class TestDerivativeBlocks:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_one_direction_path(self, d, monkeypatch):
        grid = LineGrid(L=4.0, N=512)
        f = _two_gaussians(d)
        omegas = (np.array([[1.0], [-1.0]]) if d == 1
                  else sample_directions(d, 8, seed=7))
        # blocks of 3 directions: 8 is not a multiple, so the last is short
        monkeypatch.setattr(fourier_radon, "BLOCK_POINTS", 3 * grid.N)
        orders = (0, 1, 2, 3)
        batched = np.concatenate(
            [F for _, F in derivative_blocks(f, omegas, grid, orders)], axis=1)
        assert batched.shape == (len(orders), len(omegas), grid.N)
        rows = np.array([radon_transform(f, w, grid).values for w in omegas])
        if d > 1:
            assert len(np.unique(_effective_cutoff(rows, grid))) > 1
        for j, row in enumerate(rows):
            single = _apply_multiplier_linear(row, grid, d, orders)
            for i in range(len(orders)):
                scale = np.max(np.abs(single[i]))
                assert np.max(np.abs(batched[i, j] - single[i])) <= 1e-13 * scale

    def test_block_offsets(self, monkeypatch):
        grid = LineGrid(L=4.0, N=64)
        monkeypatch.setattr(fourier_radon, "BLOCK_POINTS", 2 * grid.N)
        f = make_gaussian(GaussianSpec(d=2))
        blocks = list(derivative_blocks(f, sphere_grid(2, 2).nodes, grid, (1,)))
        assert [lo for lo, _ in blocks] == [0, 2]
        assert [F.shape for _, F in blocks] == [(1, 2, 64)] * 2

    def test_taper_mass_warning_fires_once(self):
        # N = 16 puts Nyquist below the Gaussian's band: every direction's
        # taper removes mass, but the call warns once
        f = make_gaussian(GaussianSpec(d=2))
        coarse = LineGrid(L=4.0, N=16)
        sphere = sphere_grid(2, 4)
        for call in (lambda: variation_upper_bound(f, 1, sphere, coarse),
                     lambda: derivative_profile(f, np.array([0.6, 0.8]), 1, coarse),
                     lambda: reconstruct(f, np.zeros((3, 2)), sphere, coarse)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            taper_msgs = [str(w.message) for w in caught
                          if str(w.message).startswith("spectral taper removed")]
            assert len(taper_msgs) == 1
            assert taper_msgs[0].endswith(
                "of the derivative profile mass; increase the grid resolution")
            # the grid check runs once per call, not once per direction
            assert sum(str(w.message).startswith("grid Nyquist frequency")
                       for w in caught) == 1


class TestVariationUpperBound:
    def test_d1_total_variation_oracle(self):
        # d=1, k=0: integral of |F'| over [-1,1] = |f'| / 2 summed over
        # both directions = 2 (1 - e^{-1/2})
        f = make_gaussian(GaussianSpec(d=1))
        v = variation_upper_bound(f, 0, sphere_grid(1, 1), GRID)
        oracle, _ = integrate.quad(lambda b: abs(-b * np.exp(-b * b / 2)),
                                   -1, 1)
        np.testing.assert_allclose(v, oracle, rtol=1e-5)
        np.testing.assert_allclose(oracle, 2 * (1 - np.exp(-0.5)), rtol=1e-10)

    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        assert variation_upper_bound(f, 1, sphere_grid(2, 4), GRID) == 0.0

    def test_scaling_homogeneity(self):
        f = make_gaussian(GaussianSpec(d=2))
        g = make_gaussian(GaussianSpec(d=2, amplitude=-2.5))
        sphere = sphere_grid(2, 5)
        vf = variation_upper_bound(f, 1, sphere, GRID)
        vg = variation_upper_bound(g, 1, sphere, GRID)
        np.testing.assert_allclose(vg, 2.5 * vf, rtol=1e-9)


class TestPeanoTables:
    def test_profiles_are_knot_windows_of_the_derivative(self):
        grid = LineGrid(L=3.0, N=128)
        f = _two_gaussians(2)
        sphere = sphere_grid(2, 3)
        k = 1
        tables = peano_tables(f, k, sphere, grid)
        mask = grid.knot_mask()
        np.testing.assert_array_equal(tables.knots, grid.nodes[mask])
        assert tables.profiles.shape == (len(sphere), mask.sum())
        for row, w in zip(tables.profiles, sphere.nodes):
            np.testing.assert_array_equal(
                row, derivative_profile(f, w, k, grid).values[mask])
        # -1 and 1 are not nodes of this grid: the rule spans the knots
        np.testing.assert_allclose(tables.weights.sum(),
                                   tables.knots[-1] - tables.knots[0],
                                   rtol=1e-14)
        assert (tables.d, tables.k, tables.sphere) == (2, k, sphere)

    def test_arrays_are_read_only(self):
        f = make_gaussian(GaussianSpec(d=1))
        tables = peano_tables(f, 0, sphere_grid(1, 1), LineGrid(4.0, 64))
        for array in (tables.knots, tables.weights, tables.profiles):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_negative_order_rejected(self):
        f = make_gaussian(GaussianSpec(d=1))
        with pytest.raises(ValueError):
            peano_tables(f, -1, sphere_grid(1, 1), GRID)


class TestPolynomialPart:
    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=1, amplitude=0.0))
        p = peano_tables(f, 1, sphere_grid(1, 1), GRID).poly
        np.testing.assert_allclose(p(np.linspace(-1, 1, 9)[:, None]), 0.0,
                                   atol=1e-14)

    def test_d1_k1_taylor_oracle(self):
        # p(x) = sum_{w=+-1} f(-w)/2 + (w/2) f'(-w) (w x + 1)
        f = make_gaussian(GaussianSpec(d=1))
        p = peano_tables(f, 1, sphere_grid(1, 1), GRID).poly
        x = np.linspace(-1, 1, 21)
        fp = lambda t: -t * np.exp(-t * t / 2)
        oracle = sum(np.exp(-0.5) / 2 + (w / 2) * fp(-w) * (w * x + 1)
                     for w in (-1.0, 1.0))
        np.testing.assert_allclose(p(x[:, None]), oracle, atol=1e-6)

    def test_minus_one_off_grid(self):
        # on L = 3, N = 64 the knot -1 falls between nodes, so the values at
        # -1 come from splines built along the block's last axis
        grid = LineGrid(L=3.0, N=64)
        assert not np.any(grid.nodes == -1.0)
        f = _two_gaussians(2)
        sphere = sphere_grid(2, 3)
        k = 2
        at_minus_one = np.array([
            [CubicSpline(grid.nodes, derivative_profile(f, w, k, grid, m).values)(-1.0)
             for m in range(k + 1)] for w in sphere.nodes])
        expected = peano_polynomial(2, k, sphere, at_minus_one).coefficients
        got = peano_tables(f, k, sphere, grid).poly.coefficients
        assert got.keys() == expected.keys()
        scale = max(abs(c) for c in expected.values())
        for alpha, c in expected.items():
            assert abs(got[alpha] - c) <= 1e-13 * scale

    def test_d1_k1_taylor_oracle_off_grid(self):
        grid = LineGrid(L=5.0, N=256)
        assert not np.any(grid.nodes == -1.0)
        f = make_gaussian(GaussianSpec(d=1))
        p = peano_tables(f, 1, sphere_grid(1, 1), grid).poly
        x = np.linspace(-1, 1, 21)
        fp = lambda t: -t * np.exp(-t * t / 2)
        oracle = sum(np.exp(-0.5) / 2 + (w / 2) * fp(-w) * (w * x + 1)
                     for w in (-1.0, 1.0))
        np.testing.assert_allclose(p(x[:, None]), oracle, atol=1e-6)

    def test_degree_bound(self):
        f = make_gaussian(GaussianSpec(d=2))
        p = peano_tables(f, 2, sphere_grid(2, 5), GRID).poly
        assert p.degree <= 2

    def test_zero_polynomial(self):
        p = zero_polynomial(3)
        assert p(np.ones((4, 3))).tolist() == [0.0] * 4


class TestSobolevSeminorm:
    def test_d1_s1_matches_gradient_oracle(self):
        # two independent quadratures: Fourier side vs integral of |f'|^2
        f = make_gaussian(GaussianSpec(d=1))
        semi = sobolev_seminorm(f, 1)
        oracle, _ = integrate.quad(
            lambda x: (x * np.exp(-x * x / 2)) ** 2, -20, 20)
        np.testing.assert_allclose(semi, np.sqrt(oracle), rtol=1e-8)
        np.testing.assert_allclose(semi, np.sqrt(np.sqrt(np.pi) / 2),
                                   rtol=1e-8)

    def test_s0_is_l2_norm(self):
        f = make_gaussian(GaussianSpec(d=2, width=0.6, amplitude=1.3))
        oracle, _ = integrate.quad(
            lambda r: 2 * np.pi * r * (1.3 * np.exp(-r * r / 1.2)) ** 2,
            0, 30)
        np.testing.assert_allclose(sobolev_seminorm(f, 0), np.sqrt(oracle),
                                   rtol=1e-8)

    def test_homogeneity(self):
        f = make_gaussian(GaussianSpec(d=1))
        g = make_gaussian(GaussianSpec(d=1, amplitude=-3.0))
        np.testing.assert_allclose(sobolev_seminorm(g, 2),
                                   3 * sobolev_seminorm(f, 2), rtol=1e-10)

    def test_fractional_order_between_integers(self):
        f = make_gaussian(GaussianSpec(d=2))
        s1 = sobolev_seminorm(f, 1)
        s15 = sobolev_seminorm(f, 1.5)
        s2 = sobolev_seminorm(f, 2)
        assert s1 < s15 < s2


class TestTheoremOrder:
    def test_values(self):
        assert theorem_order(1, 0) == 1.0
        assert theorem_order(2, 1) == 2.5
        assert theorem_order(3, 2) == 4.0


class TestMultiIndices:
    def test_counts(self):
        # number of monomials of total degree <= m in d variables
        assert len(multi_indices(2, 2)) == 6
        assert len(multi_indices(3, 1)) == 4

    def test_degrees_bounded(self):
        assert all(sum(a) <= 3 for a in multi_indices(2, 3))
