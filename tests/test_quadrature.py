import math
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from ridgelab.quadrature import (BallSampler, LineGrid, _sobol,
                                 ball_points, ball_volume, component_seed,
                                 gauss_legendre, sample_directions,
                                 sphere_grid, surface_area)


class TestSphereGrid:
    def test_d1_weights_sum_to_two(self):
        for level in (1, 3, 7):
            grid = sphere_grid(1, level)
            np.testing.assert_allclose(grid.weights.sum(), 2.0)
            np.testing.assert_allclose(np.sort(grid.nodes.ravel()), [-1.0, 1.0])

    def test_d2_level3_node_count_and_mass(self):
        grid = sphere_grid(2, 3)
        assert len(grid) == 8
        np.testing.assert_allclose(grid.weights.sum(), 2 * np.pi)

    def test_d3_quadratic_moment(self):
        # brute-force spherical integral of (omega . e_3)^2 equals 4*pi/3
        grid = sphere_grid(3, 8)
        val = np.sum(grid.weights * grid.nodes[:, 2] ** 2)
        np.testing.assert_allclose(val, 4 * np.pi / 3, rtol=1e-10)

    def test_surface_areas(self):
        np.testing.assert_allclose(
            [surface_area(d) for d in (1, 2, 3)],
            [2.0, 2 * np.pi, 4 * np.pi])

    def test_nodes_are_unit_vectors(self):
        for d in (2, 3):
            grid = sphere_grid(d, 5)
            np.testing.assert_allclose(np.linalg.norm(grid.nodes, axis=1),
                                       1.0, atol=1e-12)

    def test_spherical_harmonics_integrate_to_zero(self):
        # odd monomials vanish by symmetry of the product rules
        grid = sphere_grid(3, 6)
        val = np.sum(grid.weights * grid.nodes[:, 0] * grid.nodes[:, 1])
        np.testing.assert_allclose(val, 0.0, atol=1e-12)


class TestGaussLegendre:
    def test_gauss_legendre_rule_is_built_once(self):
        u, w = gauss_legendre(48)
        assert gauss_legendre(48)[0] is u
        assert not u.flags.writeable and not w.flags.writeable
        assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])


class TestSampleDirections:
    def test_empty(self):
        assert sample_directions(2, 0, 7).shape == (0, 2)

    def test_unit_norm(self):
        dirs = sample_directions(3, 500, 11)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                                   atol=1e-12)

    def test_mean_first_component_small(self):
        dirs = sample_directions(2, 10 ** 5, 123)
        assert abs(dirs[:, 0].mean()) < 0.01

    def test_deterministic(self):
        np.testing.assert_array_equal(sample_directions(2, 16, 5),
                                      sample_directions(2, 16, 5))


class TestLineGrid:
    def test_nodes_and_spacing(self):
        grid = LineGrid(L=4.0, N=2048)
        assert grid.h == 8.0 / 2048
        assert grid.nodes[0] == -4.0
        assert len(grid.nodes) == 2048
        np.testing.assert_allclose(np.diff(grid.nodes), grid.h)

    def test_refine_halves_spacing_and_doubles_extent(self):
        grid = LineGrid(L=4.0, N=1024)
        fine = grid.refine()
        assert fine.L == 2 * grid.L
        assert fine.h == grid.h / 2

    def test_knot_window(self):
        grid = LineGrid(L=4.0, N=64)
        assert grid.knot_window == slice(24, 41)
        knots = grid.nodes[grid.knot_window]
        assert knots[0] == -1.0 and knots[-1] == 1.0
        np.testing.assert_array_equal(np.diff(knots), grid.h)

    @pytest.mark.parametrize("L", [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 4.0 / 3,
                                   5.0, 6.0, 8.0, 12.0, 16.0, 64.0])
    def test_knot_window_needs_power_of_two_half_width(self, L):
        # -1 and 1 are nodes exactly when L is a power of two >= 2 and
        # N >= 2L; the window is then every node in [-1, 1], and refine()
        # keeps it
        for N in 2 ** np.arange(1, 15):
            grid = LineGrid(L, int(N))
            power_of_two = L >= 2.0 and math.frexp(L)[0] == 0.5
            if not (power_of_two and N >= 2 * L):
                with pytest.raises(ValueError, match="not nodes"):
                    grid.knot_window
                continue
            inside = np.flatnonzero(np.abs(grid.nodes) <= 1.0)
            window = grid.knot_window
            assert (window.start, window.stop) == (inside[0], inside[-1] + 1)
            assert grid.nodes[window][0] == -1.0
            assert grid.nodes[window][-1] == 1.0
            fine = grid.refine()
            np.testing.assert_array_equal(fine.nodes[fine.knot_window][::2],
                                          grid.nodes[window])

    def test_validation(self):
        with pytest.raises(ValueError):
            LineGrid(L=0.5, N=64)
        with pytest.raises(ValueError):
            LineGrid(L=4.0, N=100)


class TestBallPoints:
    def test_single_point_inside(self):
        pts = ball_points(BallSampler(d=3, mode="pseudo-random", count=1,
                                      seed=4))
        assert pts.shape == (1, 3)
        assert np.linalg.norm(pts[0]) < 1.0

    def test_half_radius_fraction(self):
        pts = ball_points(BallSampler(d=2, mode="pseudo-random",
                                      count=10 ** 5, seed=21))
        frac = np.mean(np.linalg.norm(pts, axis=1) < 0.5)
        assert abs(frac - 0.25) < 0.01

    def test_lattice_points_fill_ball(self):
        pts = ball_points(BallSampler(d=2, mode="lattice", count=4096,
                                      seed=3))
        r = np.linalg.norm(pts, axis=1)
        assert r.max() < 1.0
        # low-discrepancy cover: quarter-radius mass close to area ratio
        assert abs(np.mean(r < 0.5) - 0.25) < 0.02

    def test_deterministic(self):
        spec = BallSampler(d=3, mode="pseudo-random", count=50, seed=8)
        np.testing.assert_array_equal(ball_points(spec), ball_points(spec))

    def test_second_call_shares_read_only_points(self):
        first = ball_points(BallSampler(d=2, mode="lattice", count=256,
                                        seed=9))
        second = ball_points(BallSampler(d=2, mode="lattice", count=256,
                                         seed=9))
        np.testing.assert_array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    def test_callers_leave_points_unchanged(self):
        # the library's consumers of ball_points: lp_error on a target, on
        # grouped and dense networks and on a smooth approximant, and
        # reconstruct; a write into the shared points would raise
        import warnings
        from ridgelab.fourier_radon import reconstruct
        from ridgelab.metrics import lp_error
        from ridgelab.mollify import smooth_approximant
        from ridgelab.network import from_quadrature, from_sampling
        from ridgelab.ridge_density import peano_tables
        from ridgelab.targets import GaussianSpec, make_gaussian
        sampler = BallSampler(d=2, mode="lattice", count=128, seed=10)
        pts = ball_points(sampler)
        before = pts.copy()
        f = make_gaussian(GaussianSpec(d=2, width=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tables = peano_tables(f, 1, sphere_grid(2, 3), LineGrid(4.0, 256))
            reconstruct(f, pts, sphere_grid(2, 3), LineGrid(4.0, 256))
        for g in (from_quadrature(tables), from_sampling(tables, 16, 1),
                  lambda x: smooth_approximant(f, 1, 0.5, x)):
            for p in (2, np.inf):
                assert np.isfinite(lp_error(f, g, p, sampler))
        np.testing.assert_array_equal(ball_points(sampler), before)

    def test_ball_volume(self):
        np.testing.assert_allclose([ball_volume(d) for d in (1, 2, 3)],
                                   [2.0, np.pi, 4 * np.pi / 3])


class TestSobol:
    """The numpy Sobol points against scipy's engine, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 23, 42])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chunked_draws_equal_scipy(self, d, seed):
        engine = qmc.Sobol(d, scramble=True, seed=seed)
        # uneven chunks, past 2^16 points
        bounds = (0, 1, 100, 4096, 70000)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="The balance properties")
            expected = np.concatenate([engine.random(hi - lo) for lo, hi
                                       in zip(bounds, bounds[1:])])
        got = np.concatenate([_sobol(d, seed, lo, hi) for lo, hi
                              in zip(bounds, bounds[1:])])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("count", [1, 1000, 2 ** 14])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_points_equal_scipy_filtering(self, d, count):
        # the loop ball_points ran on scipy's engine
        engine = qmc.Sobol(d, scramble=True, seed=23)
        expected = np.empty((0, d))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="The balance properties")
            while len(expected) < count:
                batch = 2.0 * engine.random(
                    max(2 * (count - len(expected)), 64)) - 1.0
                batch = batch[np.linalg.norm(batch, axis=1) < 1.0]
                expected = np.concatenate([expected, batch])
        got = ball_points(BallSampler(d=d, mode="lattice", count=count,
                                      seed=23))
        assert np.array_equal(got, expected[:count])

    def test_lattice_limited_to_three_dimensions(self):
        with pytest.raises(ValueError):
            BallSampler(d=4, mode="lattice")
        BallSampler(d=4, mode="pseudo-random")

    def test_index_range_limited_to_the_bits(self):
        with pytest.raises(ValueError):
            _sobol(1, 0, 2 ** 30, 2 ** 30 + 1)


class TestComponentSeed:
    def test_deterministic_and_label_sensitive(self):
        a = component_seed(42, "alpha")
        assert a == component_seed(42, "alpha")
        assert a != component_seed(42, "beta")
        assert a != component_seed(43, "alpha")

    def test_range(self):
        assert 0 <= component_seed(2 ** 63, "x") < 2 ** 64
