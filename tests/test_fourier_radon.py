import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from ridgelab import fourier_radon, quadrature
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_rule_built_once_per_resolution(self, monkeypatch, d):
        # every call after the first reads the cached rule: numpy's
        # leggauss runs once over eight calls
        calls = []

        def counting(n):
            calls.append(n)
            return leggauss(n)

        quadrature.gauss_legendre.cache_clear()
        monkeypatch.setattr(quadrature, "leggauss", counting)
        f = make_gaussian(GaussianSpec(d=d))
        omegas = sample_directions(d, 4, 5)
        first = [radon_direct(f, omega, 0.3, resolution=37)
                 for omega in omegas]
        again = [radon_direct(f, omega, 0.3, resolution=37)
                 for omega in omegas]
        assert calls == [37]
        assert first == again

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
        [(_, F, _)] = derivative_blocks(f, np.array([[1.0]]), GRID, (0,))
        np.testing.assert_allclose(F[0, 0], values[GRID.knot_window] / 2,
                                   atol=1e-9)

    def test_zero_profile(self):
        grid = LineGrid(L=2.0, N=128)
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        [(_, F, E)] = derivative_blocks(f, np.array([[1.0, 0.0]]), grid, (0,),
                                        (1,))
        np.testing.assert_array_equal(F, 0.0)
        np.testing.assert_array_equal(E, 0.0)

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

    @pytest.mark.parametrize("N", [16, 64, 4096])
    @pytest.mark.parametrize("at_nyquist", [False, True])
    @pytest.mark.parametrize("m", range(5))
    def test_kernel_against_quad(self, N, at_nyquist, m):
        # the samples of order m against QUADPACK's cosine- and sine-
        # weighted rules at the lags where the recurrence starts, inside
        # the series branch, at the crossover, at u = beta (where the
        # lam - B integral is in the series branch) and at the ends of the
        # lags that the window reads, i0 - N + 1 to i1; at N = 4096 below
        # the Nyquist frequency most of them are interpolated (R = 8)
        grid = LineGrid(L=4.0, N=N)
        window = fourier_radon._window(grid)
        first, last = window.start - N + 1, window.stop - 1
        h = grid.h
        cutoff = grid.nyquist if at_nyquist else min(grid.nyquist,
                                                     8.0 * np.pi / grid.L)
        beta = np.pi / (cutoff - fourier_radon.TAPER_START * cutoff)
        series = int(1.0 / (h * cutoff))
        crossover = int(2.0 / (h * cutoff))
        lags = {0, 1, 2, first, last, series, crossover, crossover + 1,
                int(round(beta / h)), -1, -int(round(beta / h))}
        lags = sorted(l for l in lags if first <= l <= last)
        samples = fourier_radon._kernel_samples(grid, 2, cutoff, 4)[m]
        scale = np.max(np.abs(samples))
        for l in lags:
            exact = _kernel_by_quad(m, l * h, cutoff)
            assert abs(samples[l % (2 * N)] - exact) <= 1e-14 * scale

    @pytest.mark.parametrize("N", [16, 1024, 8192])
    def test_kernel_orders_from_one_build(self, N):
        # one build gives every order up to its top, each the same bits
        # as in a build with a higher top, whether its lags are all closed
        # form (the Nyquist cutoff; 3 pi at N = 16) or interpolated (3 pi:
        # R = 2 at N = 1024, 16 at N = 8192)
        grid = LineGrid(L=4.0, N=N)
        for cutoff in (grid.nyquist, 3.0 * np.pi):
            full = fourier_radon._kernel_samples(grid, 2, cutoff, 4)
            assert full.shape == (5, 2 * N)
            assert not full.flags.writeable
            for top in range(4):
                part = fourier_radon._kernel_samples(grid, 2, cutoff, top)
                np.testing.assert_array_equal(part, full[:top + 1])

    @pytest.mark.parametrize("grid", [LineGrid(4.0, 4096),
                                      LineGrid(8.0, 16384)],
                             ids=["4-4096", "8-16384"])
    @pytest.mark.parametrize("m", range(5))
    def test_interpolated_kernel_against_quad(self, grid, m):
        # the grids of peano-d2k2's two stages at cutoff 3 pi, where the
        # lags off multiples of R (8 and 16) come from the 12-point
        # stencil: 1, R / 2 and R - 1 lags past a coarse node near 0, in
        # the middle and at the end, the first interpolated lag past the
        # series crossover, and the last lags on both sides (i1 is a
        # multiple of R on these knot grids, i1 - 1 is not)
        cutoff = 3.0 * np.pi
        R = _coarsening(grid, cutoff)
        assert R == {4096: 8, 16384: 16}[grid.N]
        window = fourier_radon._window(grid)
        first, last = window.start - grid.N + 1, window.stop - 1
        crossover = int(2.0 / (grid.h * cutoff)) + 1
        if crossover % R == 0:
            crossover += 1
        lags = {crossover, last, last - 1, first, -1, -R // 2}
        for node in (0, R * (last // R // 2), R * (last // R - 1)):
            lags |= {node + 1, node + R // 2, node + R - 1}
        samples = fourier_radon._kernel_samples(grid, 2, cutoff, 4)[m]
        scale = np.max(np.abs(samples))
        for l in sorted(lags):
            assert first <= l <= last
            exact = _kernel_by_quad(m, l * grid.h, cutoff)
            assert abs(samples[l % (2 * grid.N)] - exact) <= 1e-14 * scale

    @pytest.mark.parametrize("grid", [LineGrid(4.0, 256), LineGrid(4.0, 4096),
                                      LineGrid(8.0, 16384)],
                             ids=["R1-4-256", "R8-4-4096", "R16-8-16384"])
    def test_kernel_keeps_closed_form_bits(self, grid):
        # at cutoff 3 pi LineGrid(4, 256) interpolates nothing (3 pi 2 h
        # > 0.15), and every lag is the closed form's sample; on the
        # others the lags at multiples of R are.  The closed form's bits
        # depend on the lag alone, not on the other lags of a call
        cutoff = 3.0 * np.pi
        R = _coarsening(grid, cutoff)
        N, window = grid.N, fourier_radon._window(grid)
        first, last = window.start - N + 1, window.stop - 1
        closed = np.empty((5, last + 1))
        fourier_radon._closed_form(np.arange(last + 1), grid.h, 2, cutoff,
                                   closed)
        closed[1::2, 0] = 0.0
        for l in (1, R + 1, last):
            alone = np.empty((5, 1))
            fourier_radon._closed_form(np.array([l]), grid.h, 2, cutoff,
                                       alone)
            np.testing.assert_array_equal(alone[:, 0], closed[:, l])
        samples = fourier_radon._kernel_samples(grid, 2, cutoff, 4)
        lags = np.arange(0, last + 1, R)
        np.testing.assert_array_equal(samples[:, lags], closed[:, lags])
        back = lags[(lags > 0) & (-lags >= first)]
        sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0])[:, None]
        np.testing.assert_array_equal(samples[:, -back % (2 * N)],
                                      sign * closed[:, back])


def _coarsening(grid, cutoff):
    """R, the largest power of two with cutoff R h <= 0.15 (1 if none)."""
    R = 1
    while cutoff * 2 * R * grid.h <= 0.15:
        R *= 2
    return R


def _kernel_by_quad(m, u, cutoff):
    """k_m(u) = Re[i^m int_0^c t^(m+1) w(t) e^{i t u} dt] / (2 pi)^2, the
    d = 2 kernel of order m, by scipy's adaptive and QAWO rules on the
    flat part and the taper of w."""
    t0 = fourier_radon.TAPER_START * cutoff
    pieces = ((0.0, t0, lambda t: t ** (m + 1)),
              (t0, cutoff, lambda t: t ** (m + 1)
               * taper_window(np.array([t]), cutoff)[0]))
    # tighter requests only make QUADPACK report roundoff: its error
    # estimates are pessimistic, and these rules agree with the closed
    # form to 3e-15 of max |k| on the lags of test_kernel_against_quad
    opts = dict(epsabs=1e-15 * cutoff ** (m + 2), epsrel=1e-11, limit=400)
    cos = sin = 0.0
    for a, b, g in pieces:
        if u == 0.0:
            cos += integrate.quad(g, a, b, **opts)[0]
        else:
            cos += integrate.quad(g, a, b, weight="cos", wvar=u, **opts)[0]
            sin += integrate.quad(g, a, b, weight="sin", wvar=u, **opts)[0]
    # Re[i^m (cos + i sin)]
    return (cos, -sin, -cos, sin)[m % 4] / (2.0 * np.pi) ** 2


class TestReconstruct:
    def test_d1_profile_identity(self):
        # F_omega(u) = f(omega * u) / 2 on [-1, 1]
        f = make_gaussian(GaussianSpec(d=1, center=np.array([0.2])))
        sphere = sphere_grid(1, 1)
        u = np.linspace(-1, 1, 101)
        [(_, F, _)] = derivative_blocks(f, sphere.nodes, GRID, (0, 1))
        start = GRID.knot_window.start
        for omega, row, slope in zip(sphere.nodes, F[0], F[1]):
            np.testing.assert_allclose(hermite(row, slope, GRID, u, start),
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

    def test_no_kernel_period_bias(self):
        # a kernel read off a period P carries the images of its order-0
        # tail -1/(2 pi u)^2, a near-constant about 1/P^2: on the centred
        # Gaussian that made the error -2.0e-4 at L = 4 on average and
        # 1/L^2 in L.  With the continuous kernel what is left at L = 4 is
        # the grid window (8.6e-6), and doubling L removes it
        f = make_gaussian(GaussianSpec(d=2))
        pts = np.random.default_rng(1).uniform(-0.6, 0.6, size=(100, 2))
        sphere = sphere_grid(2, 8)
        err = {L: reconstruct(f, pts, sphere, LineGrid(L, int(128 * L))) - f(pts)
               for L in (4.0, 8.0)}
        assert np.max(np.abs(err[4.0])) <= 2e-5
        assert abs(np.mean(err[4.0])) <= 1e-5
        assert np.max(np.abs(err[8.0])) <= 1e-3 * np.max(np.abs(err[4.0]))


@pytest.mark.parametrize("grid", [LineGrid(4.0, 8), LineGrid(4.0, 64),
                                  LineGrid(4.0, 1024), LineGrid(3.0, 1024)],
                         ids=["8", "64", "1024", "L3-1024"])
def test_even_d_filter_is_the_linear_convolution(grid):
    # the window's nodes i0..i1 read the kernel on the lags i0 - N + 1 to
    # i1, fewer than 2N, so the 2N-point FFT product has no wrap-around: on
    # the window it equals the direct convolution with the closed-form
    # samples, also where -1 and 1 are not nodes (L = 3)
    N = grid.N
    window = fourier_radon._window(grid)
    assert grid.nodes[window.start] <= -1.0 < grid.nodes[window.start + 1]
    assert grid.nodes[window.stop - 2] < 1.0 <= grid.nodes[window.stop - 1]
    lags = np.arange(window.start - N + 1, window.stop)
    row = np.random.default_rng(N).standard_normal(N)
    cutoff = fourier_radon._effective_cutoff(np.fft.fft(row), grid)
    for order in (0, 1, 2):
        samples = fourier_radon._kernel_samples(grid, 2, float(cutoff),
                                                order)[order]
        # the circle holds zeros off those lags
        off = np.ones(2 * N, bool)
        off[lags % (2 * N)] = False
        np.testing.assert_array_equal(samples[off], 0.0)
        direct = np.convolve(row, samples[lags % (2 * N)])[N - 1:N - 1 + len(
            grid.nodes[window])] * grid.h
        [[got]], _ = fourier_radon._apply_multiplier_linear(row[None], grid,
                                                           2, (order,))
        np.testing.assert_allclose(got, direct, rtol=0,
                                   atol=1e-13 * np.max(np.abs(direct)))


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

    @pytest.mark.parametrize("grid", [LineGrid(4.0, 64), LineGrid(3.0, 1024)])
    def test_window_read_from_its_first_node(self, grid):
        # the window's samples read from its first node give, bit for bit,
        # the read of the whole row on [-1, 1]
        window = fourier_radon._window(grid)
        rng = np.random.default_rng(grid.N)
        F, dF = rng.standard_normal((2, 3, grid.N))
        u = np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 200),
                            grid.nodes[window][1:-1]])
        np.testing.assert_array_equal(
            hermite(F[:, window], dF[:, window], grid, u, window.start),
            hermite(F, dF, grid, u))

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
