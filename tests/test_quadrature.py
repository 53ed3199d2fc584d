import numpy as np
import pytest

from ridgelab.quadrature import (BallSampler, LineGrid, ball_points,
                                 ball_volume, component_seed,
                                 sample_directions, sphere_grid, surface_area)


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
        val = grid.integrate(grid.nodes[:, 2] ** 2)
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
        val = grid.integrate(grid.nodes[:, 0] * grid.nodes[:, 1])
        np.testing.assert_allclose(val, 0.0, atol=1e-12)


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

    def test_knot_mask(self):
        grid = LineGrid(L=4.0, N=64)
        knots = grid.nodes[grid.knot_mask()]
        assert knots.min() >= -1.0 and knots.max() <= 1.0
        assert knots[0] == -1.0 and knots[-1] == 1.0

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


class TestComponentSeed:
    def test_deterministic_and_label_sensitive(self):
        a = component_seed(42, "alpha")
        assert a == component_seed(42, "alpha")
        assert a != component_seed(42, "beta")
        assert a != component_seed(43, "alpha")

    def test_range(self):
        assert 0 <= component_seed(2 ** 63, "x") < 2 ** 64
