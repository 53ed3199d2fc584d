import dataclasses

import numpy as np
import pytest

from ridgelab import fourier_radon
from ridgelab.fourier_radon import (backproject_filter, multiplier,
                                    radon_direct, radon_slice,
                                    radon_transform, reconstruct,
                                    RidgeProfile, taper_window)
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
        prof = radon_transform(f, omega, GRID)
        oracle = np.array([gaussian_radon_oracle(spec, omega, b)
                           for b in prof.grid.nodes])
        # tails near |b| = L carry periodic wrap-around at the 1e-3 level;
        # the interior matches the closed form far more tightly
        inner = np.abs(prof.grid.nodes) <= 2.0
        np.testing.assert_allclose(prof.values[inner], oracle[inner],
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(prof.values, oracle, atol=2e-3)
        np.testing.assert_allclose(prof.interpolator()(0.0),
                                   np.sqrt(2 * np.pi), rtol=1e-8)

    def test_matches_oracle_d3(self):
        spec = GaussianSpec(d=3)
        f = make_gaussian(spec)
        omega = np.array([0.0, 0.0, 1.0])
        prof = radon_transform(f, omega, GRID)
        np.testing.assert_allclose(prof.interpolator()(1.0),
                                   2 * np.pi * np.exp(-0.5), rtol=1e-8)

    def test_shifted_peak(self):
        spec = GaussianSpec(d=2, center=np.array([1.0, 0.0]))
        f = make_gaussian(spec)
        prof = radon_transform(f, np.array([1.0, 0.0]), GRID)
        peak = prof.grid.nodes[np.argmax(prof.values)]
        assert abs(peak - 1.0) <= prof.grid.h


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
        prof = radon_transform(f, np.array([1.0]), GRID)
        filt = backproject_filter(prof, 1)
        inner = np.abs(prof.grid.nodes) <= 2.0
        np.testing.assert_allclose(filt.values[inner],
                                   prof.values[inner] / 2, atol=1e-9)

    def test_zero_profile(self):
        grid = LineGrid(L=2.0, N=128)
        prof = RidgeProfile(omega=np.array([1.0, 0.0]), grid=grid,
                            values=np.zeros(128), kind="radon")
        np.testing.assert_array_equal(backproject_filter(prof, 2).values, 0.0)

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


class TestReconstruct:
    def test_d1_profile_identity(self):
        # F_omega(u) = f(omega * u) / 2 on [-1, 1]
        f = make_gaussian(GaussianSpec(d=1, center=np.array([0.2])))
        sphere = sphere_grid(1, 1)
        for omega in sphere.nodes:
            prof = radon_transform(f, omega, GRID)
            filt = backproject_filter(prof, 1)
            u = np.linspace(-1, 1, 101)
            np.testing.assert_allclose(filt.interpolator()(u),
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


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    for n in range(1, 10 ** 5 + 1):
        assert fourier_radon._next_fast_len(n) == next_fast_len(n, True), n


class TestReconstructSplines:
    """A radial target has one back-projected profile, so reconstruct
    builds one spline; off-centre targets build one per direction."""

    @staticmethod
    def _count_builds(monkeypatch):
        # reconstruct imports CubicSpline when it is called, so the
        # counter replaces it in scipy.interpolate
        import scipy.interpolate
        builds = []
        spline = scipy.interpolate.CubicSpline

        def counting(*args, **kwargs):
            builds.append(1)
            return spline(*args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "CubicSpline", counting)
        return builds

    def test_one_spline_for_a_radial_target(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        pts = np.random.default_rng(7).uniform(-0.6, 0.6, size=(30, 2))
        # 1024 directions: two blocks of derivative_blocks on this grid
        reconstruct(make_gaussian(GaussianSpec(d=2)), pts, sphere_grid(2, 10),
                    GRID)
        assert len(builds) == 1

    def test_one_spline_per_direction_off_centre(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        sphere = sphere_grid(2, 6)
        f = make_gaussian(GaussianSpec(d=2, center=np.array([0.3, 0.0])))
        reconstruct(f, np.zeros(2), sphere, GRID)
        assert len(builds) == len(sphere.nodes)

    @pytest.mark.parametrize("d", [2, 3])
    def test_radial_matches_per_direction_route(self, d):
        f = make_gaussian(GaussianSpec(d=d, width=0.6))
        assert f.radial is not None
        pts = np.random.default_rng(d).uniform(-0.5, 0.5, size=(40, d))
        sphere = sphere_grid(d, 3 if d == 3 else 6)
        radial = reconstruct(f, pts, sphere, GRID)
        per_direction = reconstruct(dataclasses.replace(f, radial=None), pts,
                                    sphere, GRID)
        np.testing.assert_allclose(radial, per_direction, rtol=1e-12, atol=0)
