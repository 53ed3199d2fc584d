import dataclasses
import inspect
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special
from scipy.interpolate import CubicSpline

from ridgelab import fourier_radon
from ridgelab.fourier_radon import (_apply_multiplier_linear,
                                    _effective_cutoff, _spectrum_to_profile,
                                    filtered_rows, hermite, radon_slice,
                                    radon_transform, reconstruct)
from ridgelab.network import from_sampling
from ridgelab.quadrature import LineGrid, sample_directions, sphere_grid
from ridgelab.ridge_density import (PolynomialPart, affine_powers,
                                    monomials, multi_indices,
                                    peano_polynomial, peano_tables,
                                    sobolev_seminorm, sub_rule,
                                    theorem_order)
from ridgelab.targets import (GaussianSpec, combine, gaussian_radon_oracle,
                              make_cusp_radial, make_gaussian)

GRID = LineGrid(L=4.0, N=2048)
# the first node of GRID's window, -1
START = GRID.knot_window.start


@pytest.fixture(autouse=True)
def _quiet_support_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="profile support")
        yield


def _profiles(f, omegas, grid, orders):
    """F^{(m)} along every direction of omegas on the window, for every m
    in orders, shape (len(orders), J, W): each direction's row of
    filtered_rows (a copy)."""
    rows, F, _ = filtered_rows(f, omegas, grid, orders)
    return F[:, rows]


def _profile(f, omega, grid, orders):
    """F^{(m)} along one direction omega on the window, for every m in
    orders."""
    return _profiles(f, np.asarray(omega, float)[None, :], grid,
                     orders)[:, 0]


class TestDerivativeProfile:
    def test_d1_first_derivative_identity(self):
        # F_omega(u) = f(omega u)/2, so F' = omega f'(omega u)/2
        f = make_gaussian(GaussianSpec(d=1))
        for w in (-1.0, 1.0):
            F1, F2 = _profile(f, [w], GRID, (1, 2))
            u = np.linspace(-1, 1, 101)
            exact = w * (-u * w) * np.exp(-(u * w) ** 2 / 2) / 2
            np.testing.assert_allclose(hermite(F1, F2, GRID, u, START),
                                       exact, atol=1e-6)

    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        np.testing.assert_allclose(_profile(f, [1.0, 0.0], GRID, (2,)), 0.0,
                                   atol=1e-14)

    def test_even_parity_for_odd_k(self):
        # for a centered target F_omega is even, so F^{(k+1)} with k odd too
        f = make_gaussian(GaussianSpec(d=2))
        u = np.linspace(0, 1, 33)
        for grid, tol in ((GRID, 1e-3), (GRID.refine(), 1e-5)):
            # parity holds at the level of the profile's discretization error
            F2, F3 = _profile(f, [0.6, 0.8], grid, (2, 3))
            start = grid.knot_window.start
            np.testing.assert_allclose(hermite(F2, F3, grid, u, start),
                                       hermite(F2, F3, grid, -u, start),
                                       atol=tol)

    def test_matches_spline_derivative_of_profile(self):
        # independent oracle: differentiate the filtered profile numerically
        f = make_gaussian(GaussianSpec(d=2, width=0.8))
        omega = [0.8, -0.6]
        F0, F2, F3 = _profile(f, omega, GRID, (0, 2, 3))
        oracle = CubicSpline(GRID.nodes[GRID.knot_window], F0).derivative(2)
        u = np.linspace(-0.9, 0.9, 41)
        np.testing.assert_allclose(hermite(F2, F3, GRID, u, START),
                                   oracle(u), atol=1e-5)


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
        orders, ends = (0, 1, 2, 3), (0, 2)
        read, batched, at_start = filtered_rows(f, omegas, grid, orders, ends)
        np.testing.assert_array_equal(read, np.arange(len(omegas)))
        assert batched.shape == (len(orders), len(omegas), 129)
        assert at_start.shape == (len(ends), len(omegas))
        rows = np.array([radon_transform(f, w, grid)[0] for w in omegas])
        if d > 1:
            cutoffs = _effective_cutoff(np.fft.fft(rows, axis=-1), grid)
            assert len(np.unique(cutoffs)) > 1
        for j, row in enumerate(rows):
            single, first = _apply_multiplier_linear(row[None], grid, d,
                                                     orders, ends)
            for i in range(len(orders)):
                scale = np.max(np.abs(single[i]))
                assert np.max(np.abs(batched[i, j] - single[i, 0])) \
                    <= 1e-13 * scale
            for i, m in enumerate(ends):
                scale = np.max(np.abs(single[orders.index(m)]))
                assert abs(at_start[i, j] - first[i, 0]) <= 1e-13 * scale

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_direction_per_block_keeps_the_bits(self, d, monkeypatch):
        # the blocks stay inside the one plain call: an off-centre target
        # filtered one direction per block gives the rows, the end values
        # and the reconstruction of one block for all, bit for bit
        assert not inspect.isgeneratorfunction(filtered_rows)
        c = np.zeros(d)
        c[0] = 0.3
        f = make_gaussian(GaussianSpec(d=d, center=c))
        grid = LineGrid(4.0, 256)
        sphere = sphere_grid(d, 3)
        assert len(sphere) <= fourier_radon.BLOCK_POINTS // grid.N
        x = np.random.default_rng(d).uniform(-0.5, 0.5, (20, d))
        results = []
        for block_points in (fourier_radon.BLOCK_POINTS, grid.N):
            monkeypatch.setattr(fourier_radon, "BLOCK_POINTS", block_points)
            rows, F, E = filtered_rows(f, sphere.nodes, grid, (0, 1, 2),
                                       (0, 3))
            results.append((rows, F, E, reconstruct(f, x, sphere, grid)))
        for default, one_per_block in zip(*results):
            np.testing.assert_array_equal(one_per_block, default)

    def test_block_offsets(self, monkeypatch):
        # blocks of 2 directions: the slice reads directions 0-1, then 2-3,
        # and each block's F and E land at its offset, with the bits of
        # that block filtered alone
        grid = LineGrid(L=4.0, N=64)
        monkeypatch.setattr(fourier_radon, "BLOCK_POINTS", 2 * grid.N)
        sliced, original = [], fourier_radon.radon_slice

        def radon_slice(f, omega, grid):
            sliced.append(np.array(omega))
            return original(f, omega, grid)

        monkeypatch.setattr(fourier_radon, "radon_slice", radon_slice)
        f = _two_gaussians(2)
        omegas = sphere_grid(2, 2).nodes
        rows, F, E = filtered_rows(f, omegas, grid, (1,), (0, 2))
        np.testing.assert_array_equal(rows, np.arange(4))
        assert F.shape == (1, 4, 17) and E.shape == (2, 4)
        blocks = list(sliced)
        np.testing.assert_array_equal(blocks, [omegas[0:2], omegas[2:4]])
        for lo, block in zip((0, 2), blocks):
            _, alone, at_start = filtered_rows(f, block, grid, (1,), (0, 2))
            np.testing.assert_array_equal(F[:, lo:lo + 2], alone)
            np.testing.assert_array_equal(E[:, lo:lo + 2], at_start)

    @pytest.mark.parametrize("grid", [LineGrid(4.0, 64), LineGrid(8.0, 4096),
                                      LineGrid(3.0, 1024)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_end_values_are_the_kernel_sums(self, grid, d):
        # F^(m) at the window's first node i0 (-1 on a knot grid), requested
        # alone, is h sum_j k_m((i0 - j) h) row[j] over the closed-form kernel
        # samples at even d, and equals the first window sample of the same
        # order requested on the window (bit for bit at odd d, whose circular
        # filter is sliced).  Both routes round in proportion to the terms'
        # magnitude h sum_j |k_m((i0 - j) h) row[j]|, which at order 4 is
        # about 2000 times the largest sample of F^(4) (LineGrid(4, 64) reads
        # 1.8e-13 of that sample, 9e-17 of the magnitude)
        f = _two_gaussians(d)
        omegas = sample_directions(d, 5, seed=d)
        orders = range(5)
        _, F, E = filtered_rows(f, omegas, grid, orders, orders)
        if d % 2:
            np.testing.assert_array_equal(E, F[:, :, 0])
            return
        rows = _spectrum_to_profile(
            radon_slice(f, omegas, grid), grid).real
        cutoffs = _effective_cutoff(np.fft.fft(rows), grid)
        i0 = fourier_radon._window(grid).start
        for m in orders:
            for value, first, row, cutoff in zip(E[m], F[m, :, 0], rows,
                                                 cutoffs):
                kernel = fourier_radon._kernel_samples(grid, d, cutoff, 4)[m]
                ends = kernel[(i0 - np.arange(grid.N)) % (2 * grid.N)]
                magnitude = grid.h * math.fsum(np.abs(ends * row))
                direct = grid.h * math.fsum(ends * row)
                assert abs(value - direct) <= 1e-15 * magnitude
                assert abs(value - first) <= 1e-15 * magnitude

    def test_taper_mass_warning_fires_once(self):
        # N = 16 puts Nyquist below the Gaussian's band: every direction's
        # taper removes mass, but the call warns once
        f = make_gaussian(GaussianSpec(d=2))
        coarse = LineGrid(L=4.0, N=16)
        sphere = sphere_grid(2, 4)
        for call in (lambda: peano_tables(f, 1, sphere, coarse),
                     lambda: _profile(f, [0.6, 0.8], coarse, (2,)),
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


def _per_direction(f):
    """f with the radial route switched off: one Fourier slice per direction."""
    return dataclasses.replace(f, radial=False)


def _assert_rows_close(got, expected, rtol):
    for g, e in zip(got, expected):
        assert np.max(np.abs(g - e)) <= rtol * np.max(np.abs(e))


def _dawson_profile(b, s2, a):
    """Back-projected profile F of the centred d = 2 Gaussian
    a exp(-|x|^2 / (2 s2)), in closed form.

    The multiplier M_2(t) = |t| / (4 pi) acts as 1/(4 pi) times the
    Hilbert transform H of the derivative.  R = C exp(-u^2) with
    u = b / sqrt(2 s2) and C = a sqrt(2 pi s2), and
    H[exp(-u^2)] = 2 D(u) / sqrt(pi) with Dawson's function D, so
    F = C (1 - 2 u D(u)) / (2 pi^{3/2} sqrt(2 s2)).
    """
    scale = np.sqrt(2.0 * s2)
    u = b / scale
    c = a * np.sqrt(2.0 * np.pi * s2)
    return c * (1.0 - 2.0 * u * special.dawsn(u)) / (2.0 * np.pi ** 1.5 * scale)


class TestRadialRoute:
    """A target radial about the origin has one Radon row for every
    direction: filtered_rows filters it once, along e1, and every
    direction reads row 0."""

    @pytest.mark.parametrize("s2,a", [(1.0, 1.0), (0.5, 2.0)])
    def test_d2_dawson_oracle(self, s2, a):
        f = make_gaussian(GaussianSpec(d=2, width=s2, amplitude=a))
        omega = [0.6, 0.8]
        errors = []
        for grid in (LineGrid(4.0, 4096), LineGrid(8.0, 16384)):
            [F] = _profile(f, omega, grid, (0,))
            [direct] = _profile(_per_direction(f), omega, grid, (0,))
            assert np.max(np.abs(F - direct)) <= 1e-12 * np.max(np.abs(direct))
            exact = _dawson_profile(grid.nodes[grid.knot_window], s2, a)
            errors.append(np.max(np.abs(F - exact)) / np.max(np.abs(exact)))
        # grid-limited, not exact: 2.3e-4 -> 5.0e-5 (s2 = a = 1) and
        # 1.0e-4 -> 2.5e-5 (s2 = 0.5, a = 2) measured
        assert errors[0] <= 3e-4
        assert errors[1] <= errors[0] / 3.0

    @pytest.mark.parametrize("s2,a", [(1.0, 1.0), (0.5, 2.0)])
    def test_d3_second_derivative_oracle(self, s2, a):
        # for odd d the filter is circular and exact: F = -R'' / (8 pi^2)
        spec = GaussianSpec(d=3, width=s2, amplitude=a)
        f = make_gaussian(spec)
        grid = LineGrid(8.0, 1024)
        omegas = sample_directions(3, 3, seed=5)
        [F] = _profiles(f, omegas, grid, (0,))
        _assert_rows_close(F, _profiles(_per_direction(f), omegas, grid,
                                        (0,))[0], 1e-12)
        b = grid.nodes[grid.knot_window]
        radon = gaussian_radon_oracle(spec, omegas[0], b)
        exact = -radon * (b ** 2 / s2 ** 2 - 1.0 / s2) / (8.0 * np.pi ** 2)
        _assert_rows_close(F, np.broadcast_to(exact, (3, len(b))), 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 3), k=st.integers(0, 2),
           width=st.floats(0.2, 2.0),
           amplitude=st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)),
           second=st.one_of(st.none(), st.tuples(st.floats(0.2, 2.0),
                                                 st.floats(-2.0, 2.0))))
    def test_matches_per_direction_route(self, d, k, width, amplitude, second):
        f = make_gaussian(GaussianSpec(d=d, width=width, amplitude=amplitude))
        if second is not None:
            g = make_gaussian(GaussianSpec(d=d, width=second[0]))
            f = combine(f, g, 1.0, second[1])
        assert f.radial
        grid = LineGrid(4.0, 512)
        omegas = (np.array([[1.0], [-1.0]]) if d == 1
                  else sample_directions(d, 5, seed=11))
        orders = range(k + 2)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="profile support")
            radial = _profiles(f, omegas, grid, orders)
            direct = _profiles(_per_direction(f), omegas, grid, orders)
        for got, rows in zip(radial, direct):
            # the per-direction rows differ from each other by rounding
            # alone (sum((t omega_i)^2) is not t^2); for a combine at order
            # 3 that spread reaches 4e-12 of the row, since the larger
            # part's rounding is amplified by t^3 M_d(t) where the narrower
            # part dominates
            scale = np.max(np.abs(rows))
            spread = np.max(np.abs(rows - rows[0]))
            assert np.max(np.abs(got - rows)) <= max(1e-12 * scale, 3 * spread)

    @pytest.mark.parametrize("d", [2, 3])
    def test_cusp_matches_per_direction_route(self, d):
        # the per-direction target is a fresh one, with its own quadratures
        f = make_cusp_radial(2.5, d)
        direct = _per_direction(make_cusp_radial(2.5, d))
        grid = LineGrid(4.0, 256)
        omegas = sample_directions(d, 4, seed=3)
        orders = (0, 1, 2)
        with warnings.catch_warnings():
            # the cusp's spectrum is not band-limited; both routes warn
            warnings.filterwarnings("ignore", message="spectral taper")
            _assert_rows_close(_profiles(f, omegas, grid, orders),
                               _profiles(direct, omegas, grid, orders), 1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_slice_along_e1(self, d, monkeypatch):
        # one call of f.fourier per filtered_rows call, on the N
        # frequencies along e1, whatever the number of blocks; the rows
        # equal bit for bit those filtered from the Gaussian's closed-form
        # radial profile norm exp(-s2 rho^2 / 2) at rho = |t|
        s2, a = 0.7, -1.3
        f = make_gaussian(GaussianSpec(d=d, width=s2, amplitude=a))
        grid = LineGrid(4.0, 256)
        monkeypatch.setattr(fourier_radon, "BLOCK_POINTS", 2 * grid.N)
        calls = []

        def fourier(xi):
            calls.append(np.array(xi))
            return f.fourier(xi)

        counted = dataclasses.replace(f, fourier=fourier)
        omegas = (np.array([[1.0], [-1.0]]) if d == 1
                  else sample_directions(d, 7, seed=2))
        orders = (0, 1, 2)
        got = _profiles(counted, omegas, grid, orders)
        [xi] = calls
        t = grid.frequencies
        assert xi.shape == (1, grid.N, d)
        np.testing.assert_array_equal(xi[0, :, 0], t)
        np.testing.assert_array_equal(xi[0, :, 1:], 0.0)
        norm = a * (2.0 * np.pi * s2) ** (d / 2.0)
        spectrum = norm * np.exp(-s2 * np.abs(t) ** 2 / 2.0)
        rows = _spectrum_to_profile(spectrum[None, :], grid).real
        F, _ = _apply_multiplier_linear(rows, grid, d, orders)
        np.testing.assert_array_equal(got, np.broadcast_to(F, got.shape))
        # the cusp reads its quadrature cache at sqrt(t^2), which is |t|
        np.testing.assert_array_equal(np.sqrt(t ** 2), np.abs(t))
        # the Peano tables of every direction come from the same one slice
        calls.clear()
        sphere = sphere_grid(d, 1 if d == 1 else 3)
        tables = peano_tables(counted, 1, sphere, grid)
        assert len(calls) == 1 and calls[0].shape == (1, grid.N, d)
        np.testing.assert_array_equal(tables.rows, np.zeros(len(sphere)))
        assert tables.profiles.shape == (1, len(tables.knots))
        np.testing.assert_array_equal(tables.profiles,
                                      peano_tables(f, 1, sphere, grid).profiles)

    def test_rows_index_the_filtered_directions(self, monkeypatch):
        # a radial target slices and filters e1 alone, in one block, and
        # every direction reads row 0; the same target with the radial
        # route off filters every direction, in blocks of 3, and reads its
        # own row.
        # The Peano tables hold the R filtered rows, and every array of
        # them is read-only
        grid = LineGrid(4.0, 64)
        monkeypatch.setattr(fourier_radon, "BLOCK_POINTS", 3 * grid.N)
        sliced, original = [], fourier_radon.radon_slice

        def radon_slice(f, omega, grid):
            sliced.append(np.array(omega))
            return original(f, omega, grid)

        monkeypatch.setattr(fourier_radon, "radon_slice", radon_slice)
        f = make_gaussian(GaussianSpec(d=2))
        sphere = sphere_grid(2, 3)
        J = len(sphere)
        for g, R, expected in ((f, 1, np.zeros(J)),
                               (_per_direction(f), J, np.arange(J))):
            sliced.clear()
            rows, F, E = filtered_rows(g, sphere.nodes, grid, (0, 2))
            np.testing.assert_array_equal(rows, expected)
            assert rows.dtype == np.intp
            assert F.shape == (2, R, 17) and E.shape == (0, R)
            assert [len(omega) for omega in sliced] == (
                [1] if R == 1 else [3, 3, 2])
            np.testing.assert_array_equal(
                np.concatenate(sliced),
                np.eye(2)[:1] if R == 1 else sphere.nodes)
            tables = peano_tables(g, 1, sphere, grid)
            np.testing.assert_array_equal(tables.rows, expected)
            M = len(tables.knots)
            assert tables.profiles.shape == tables.cumulative.shape == (R, M)
            assert tables.mass.shape == (J,)
            for array in (tables.knots, tables.weights, tables.rows,
                          tables.profiles, tables.mass, tables.cumulative):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0

    @pytest.mark.parametrize("radial", [True, False])
    def test_non_unit_direction_raises(self, radial):
        f = make_gaussian(GaussianSpec(d=2))
        f = f if radial else _per_direction(f)
        omegas = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0]])
        with pytest.raises(ValueError, match="unit vector"):
            filtered_rows(f, omegas, LineGrid(4.0, 64), (0,))

    @pytest.mark.parametrize("d", [2, 3])
    def test_off_centre_tables_keep_per_direction_path(self, d):
        # the off-centre targets are not radial, and their tables equal
        # those of one Fourier slice per block of directions bit for bit
        c = np.zeros(d)
        c[0] = 0.3
        shifted = make_gaussian(GaussianSpec(d=d, center=c, width=0.6))
        grid = LineGrid(4.0, 256)
        sphere = sphere_grid(d, 3)
        k = 1
        for f in (shifted, combine(make_gaussian(GaussianSpec(d=d)), shifted,
                                   1.0, -0.5)):
            assert not f.radial
            spectra = radon_slice(f, sphere.nodes, grid)
            rows = _spectrum_to_profile(spectra, grid).real
            [F], E = _apply_multiplier_linear(rows, grid, d, (k + 1,),
                                              (*range(k + 1), k + 2))
            tables = peano_tables(f, k, sphere, grid)
            np.testing.assert_array_equal(tables.profiles, F)
            assert tables.poly == peano_polynomial(d, k, sphere,
                                                   E[:k + 1].T)[0]

    @pytest.mark.parametrize("d,level", [(1, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_tables_hold_one_row(self, d, level, k):
        f = make_gaussian(GaussianSpec(d=d, width=0.7, amplitude=-1.3))
        grid = LineGrid(4.0, 256)
        sphere = sphere_grid(d, level)
        tables = peano_tables(f, k, sphere, grid)
        J, M = len(sphere), len(tables.knots)
        np.testing.assert_array_equal(tables.rows, np.zeros(J))
        assert tables.profiles.shape == (1, M)
        # the same Gaussian with every direction's slice read and filtered
        # on its own, and the tables built one row per direction
        spectrum = radon_slice(f, np.eye(d)[0], grid)
        sliced = dataclasses.replace(
            f, radial=False,
            fourier=lambda xi: np.broadcast_to(spectrum, np.shape(xi)[:-1]))
        per_direction = peano_tables(sliced, k, sphere, grid)
        np.testing.assert_array_equal(per_direction.rows, np.arange(J))
        copied = _tables_row_by_row(f, k, sphere, grid)
        assert per_direction.profiles.shape == (J, M)
        np.testing.assert_array_equal(tables.profiles[tables.rows],
                                      per_direction.profiles)
        np.testing.assert_array_equal(tables.profiles[tables.rows],
                                      copied["profiles"])
        assert tables.poly == per_direction.poly == copied["poly"]
        # the mass of direction j is w_j int |F^{(k+1)}| over the knots
        fsum = np.array([wj * math.fsum(tables.weights * np.abs(row))
                         for wj, row in zip(sphere.weights,
                                            tables.profiles[tables.rows])])
        for mass in (tables.mass, per_direction.mass, copied["mass"]):
            assert np.all(np.abs(mass - fsum) <= 2 * np.spacing(fsum))

    def test_from_sampling_copies_no_table(self):
        # J = 512 directions, M = 2049 knots (peano-d2k2's stage 1): drawing
        # atoms from the one-row cumulative through rows allocates far less
        # than one (J, M) array
        f = make_gaussian(GaussianSpec(d=2))
        tables = peano_tables(f, 2, sphere_grid(2, 9), LineGrid(4.0, 8192))
        J, M = 512, 2049
        np.testing.assert_array_equal(tables.rows, np.zeros(J))
        assert tables.profiles.shape == (1, M)
        tracemalloc.start()
        try:
            net = from_sampling(tables, 1000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < J * M * tables.profiles.itemsize
        assert tables.cumulative.shape == (1, M)
        assert len(net) == 1000


def _tables_row_by_row(f, k, sphere, grid):
    """profiles, mass and poly of peano_tables as built with one row
    per direction, each direction's F copied into its own row."""
    weights = peano_tables(f, k, sphere, grid).weights
    rows, (profiles,), at_minus_one = filtered_rows(
        f, sphere.nodes, grid, (k + 1,), range(k + 1))
    profiles, at_minus_one = profiles[rows], at_minus_one[:, rows].T
    mass = sphere.weights * (np.abs(profiles) @ weights)
    return dict(profiles=profiles, mass=mass,
                poly=peano_polynomial(f.d, k, sphere, at_minus_one)[0])


class TestVariationUpperBound:
    def test_d1_total_variation_oracle(self):
        # d=1, k=0: integral of |F'| over [-1,1] = |f'| / 2 summed over
        # both directions = 2 (1 - e^{-1/2})
        f = make_gaussian(GaussianSpec(d=1))
        v = peano_tables(f, 0, sphere_grid(1, 1), GRID).variation
        oracle, _ = integrate.quad(lambda b: abs(-b * np.exp(-b * b / 2)),
                                   -1, 1)
        np.testing.assert_allclose(v, oracle, rtol=1e-5)
        np.testing.assert_allclose(oracle, 2 * (1 - np.exp(-0.5)), rtol=1e-10)

    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=2, amplitude=0.0))
        assert peano_tables(f, 1, sphere_grid(2, 4), GRID).variation == 0.0

    def test_scaling_homogeneity(self):
        f = make_gaussian(GaussianSpec(d=2))
        g = make_gaussian(GaussianSpec(d=2, amplitude=-2.5))
        sphere = sphere_grid(2, 5)
        vf = peano_tables(f, 1, sphere, GRID).variation
        vg = peano_tables(g, 1, sphere, GRID).variation
        np.testing.assert_allclose(vg, 2.5 * vf, rtol=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_mass_is_the_weighted_trapezoid_integral(self, k):
        # one direction at a time, with math.fsum: the mass of direction j
        # is w_j int |F^{(k+1)}| over the knots, and V their sum over k!
        tables = peano_tables(_two_gaussians(2), k, sphere_grid(2, 3),
                              LineGrid(L=4.0, N=128))
        mass = [wj * math.fsum(tables.weights * np.abs(row))
                for wj, row in zip(tables.sphere.weights, tables.profiles)]
        np.testing.assert_allclose(tables.mass, mass, rtol=1e-14, atol=0)
        assert abs(tables.variation - math.fsum(mass) / math.factorial(k)) \
            <= 1e-14 * tables.variation
        assert isinstance(tables.variation, float)


class TestPeanoTables:
    def test_profiles_are_knot_windows_of_the_derivative(self):
        grid = LineGrid(L=4.0, N=128)
        f = _two_gaussians(2)
        sphere = sphere_grid(2, 3)
        k = 1
        tables = peano_tables(f, k, sphere, grid)
        np.testing.assert_array_equal(tables.knots,
                                      grid.nodes[grid.knot_window])
        assert tables.profiles.shape == (len(sphere), 33)
        for row, w in zip(tables.profiles, sphere.nodes):
            np.testing.assert_array_equal(row,
                                          _profile(f, w, grid, (k + 1,))[0])
        # the trapezoid rule on the knots -1 to 1: h inside, h/2 at the
        # ends, summing to 2 exactly
        np.testing.assert_array_equal(tables.weights[1:-1], grid.h)
        assert tables.weights[0] == tables.weights[-1] == grid.h / 2
        assert tables.weights.sum() == 2.0
        assert (tables.d, tables.k, tables.sphere, tables.grid) == (
            2, k, sphere, grid)

    @pytest.mark.parametrize("grid", [LineGrid(3.0, 1024), LineGrid(5.0, 256),
                                      LineGrid(8.0, 8)])
    def test_grid_without_nodes_at_the_ends_raises(self, grid):
        # the knots must start at -1 and end at 1: a knot rule between
        # nodes would carry an O(h) bias
        f = make_gaussian(GaussianSpec(d=2))
        with pytest.raises(ValueError, match="not nodes"):
            peano_tables(f, 1, sphere_grid(2, 3), grid)

    @pytest.mark.parametrize("grid", [LineGrid(2.0, 64), LineGrid(4.0, 256),
                                      LineGrid(16.0, 1024)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_values_at_minus_one_are_the_first_knot_samples(self, grid, k):
        # -1 is the window's first node: the values there, requested
        # alone, are its samples to rounding; the polynomial part and the
        # end term are those of the values of orders 0..k and k + 2 and of
        # the first knot's sample of F^(k+1)
        f = _two_gaussians(2)
        sphere = sphere_grid(2, 3)
        _, F, E = filtered_rows(f, sphere.nodes, grid, range(k + 3),
                                range(k + 3))
        first = F[:, :, 0]
        for m in range(k + 3):
            assert np.max(np.abs(E[m] - first[m])) \
                <= 1e-13 * np.max(np.abs(F[m]))
        end = np.zeros((len(sphere), k + 1))
        end[:, k] = grid.h ** 2 / 12.0 * E[k + 2]
        if k >= 1:
            end[:, k - 1] = -grid.h ** 2 / 12.0 * first[k + 1]
        tables = peano_tables(f, k, sphere, grid)
        assert (tables.poly, tables.end_term) == peano_polynomial(
            2, k, sphere, E[:k + 1].T, end)

    def test_arrays_are_read_only(self):
        f = make_gaussian(GaussianSpec(d=1))
        tables = peano_tables(f, 0, sphere_grid(1, 1), LineGrid(4.0, 64))
        for array in (tables.knots, tables.weights, tables.rows,
                      tables.profiles, tables.mass, tables.cumulative):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_negative_order_rejected(self):
        f = make_gaussian(GaussianSpec(d=1))
        with pytest.raises(ValueError):
            peano_tables(f, -1, sphere_grid(1, 1), GRID)


def _sub_rule_target(d, centred):
    c = np.zeros(d)
    if not centred:
        c[0] = 0.3
    return make_gaussian(GaussianSpec(d=d, center=c, width=0.7))


class TestSubRule:
    # the quadrature width sweep's layouts: (sphere level, L = 4 line grid)
    FINE = {1: (1, 256), 2: (3, 256), 3: (3, 256)}
    COARSE = {1: [(1, 16), (1, 64)], 2: [(1, 16), (2, 32), (2, 128)],
              3: [(1, 16), (2, 64)]}

    @pytest.mark.parametrize("d,centred", [(2, True), (2, False), (1, True),
                                           (3, True), (3, False)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_the_coarse_layout(self, d, centred, k):
        # a radial target's one row is read from the finest sphere level,
        # any other target's rows from a table on the coarse level itself
        f = _sub_rule_target(d, centred)
        top, N_fine = self.FINE[d]
        fines = {}
        for level, N in self.COARSE[d]:
            sphere, grid = sphere_grid(d, level), LineGrid(4.0, N)
            source = top if centred else level
            if source not in fines:
                fines[source] = peano_tables(f, k, sphere_grid(d, source),
                                             LineGrid(4.0, N_fine))
            fine = fines[source]
            sub = sub_rule(fine, sphere, grid)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message="grid Nyquist")
                warnings.filterwarnings("ignore", message="spectral taper")
                coarse = peano_tables(f, k, sphere, grid)
            for name in ("knots", "weights", "rows"):
                np.testing.assert_array_equal(getattr(sub, name),
                                              getattr(coarse, name))
            for name in ("nodes", "weights"):
                np.testing.assert_array_equal(getattr(sub.sphere, name),
                                              getattr(coarse.sphere, name))
            assert (sub.d, sub.k, sub.grid) == (d, k, grid)
            assert sub.profiles.shape == coarse.profiles.shape
            # the values are the fine filter's: every r-th knot of each row
            r = fine.grid.N // N
            np.testing.assert_array_equal(sub.profiles,
                                          fine.profiles[:, ::r])
            np.testing.assert_array_equal(sub.at_minus_one,
                                          fine.at_minus_one)
            # the mass is the coarse trapezoid integral of the rows
            fsum = np.array([wj * math.fsum(sub.weights * np.abs(row))
                             for wj, row in zip(sphere.weights,
                                                sub.profiles[sub.rows])])
            np.testing.assert_allclose(sub.mass, fsum, rtol=1e-14, atol=0)
            for array in (sub.knots, sub.weights, sub.rows, sub.profiles,
                          sub.at_minus_one, sub.mass):
                assert not array.flags.writeable

    @pytest.mark.parametrize("d,centred", [(2, True), (2, False), (1, True),
                                           (3, True), (3, False)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_knot_stride_scales_only_the_end_term(self, d, centred, k):
        # on the tables' own directions the polynomial part does not
        # depend on h, and the end term is h^2 times one polynomial: at
        # r = 4, 16 times the fine one, bit for bit (a power of two)
        f = _sub_rule_target(d, centred)
        fine = peano_tables(f, k, sphere_grid(d, 2), LineGrid(4.0, 256))
        sub = sub_rule(fine, fine.sphere, LineGrid(4.0, 64))
        assert sub.poly == fine.poly
        assert sub.end_term.coefficients == {
            alpha: 16.0 * c for alpha, c in fine.end_term.coefficients.items()}

    @pytest.mark.parametrize("d,centred", [(2, True), (2, False), (1, True),
                                           (3, True), (3, False)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_stride_one_returns_the_tables(self, d, centred, k):
        fine = peano_tables(_sub_rule_target(d, centred), k,
                            sphere_grid(d, 3), LineGrid(4.0, 128))
        sub = sub_rule(fine, fine.sphere, fine.grid)
        for field in dataclasses.fields(fine):
            got, expected = getattr(sub, field.name), getattr(fine, field.name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
            else:
                assert got == expected, field.name

    def test_other_spheres_raise_unless_radial(self):
        # a table of one profile row per direction serves only its own
        # sphere grid, even where the directions nest (the d = 2 circle
        # rule of a lower level); a radial target's one row serves any
        for d in (2, 3):
            fine = peano_tables(_sub_rule_target(d, False), 1,
                                sphere_grid(d, 3), LineGrid(4.0, 256))
            for level in (1, 2):
                with pytest.raises(ValueError, match="its own sphere grid"):
                    sub_rule(fine, sphere_grid(d, level), LineGrid(4.0, 64))
            radial = peano_tables(_sub_rule_target(d, True), 1,
                                  sphere_grid(d, 3), LineGrid(4.0, 256))
            sub = sub_rule(radial, sphere_grid(d, 1), LineGrid(4.0, 64))
            np.testing.assert_array_equal(sub.rows,
                                          np.zeros(len(sphere_grid(d, 1))))

    @pytest.mark.parametrize("grid", [LineGrid(2.0, 64), LineGrid(4.0, 512)])
    def test_knots_that_do_not_nest_raise(self, grid):
        fine = peano_tables(_sub_rule_target(2, True), 1, sphere_grid(2, 3),
                            LineGrid(4.0, 256))
        with pytest.raises(ValueError, match="every r-th knot"):
            sub_rule(fine, fine.sphere, grid)

    @pytest.mark.parametrize("d,centred,built", [
        (2, True, [3]), (2, False, [1, 2, 3]), (3, True, [3]),
        (3, False, [1, 2, 3]), (1, False, [1])])
    def test_sweep_filters_once_per_sphere_level(self, d, centred, built,
                                                 monkeypatch):
        # widths 16, 64 and 256 take sphere levels 1, 2 and 3 (1 at d = 1)
        # and N = 16, 32 and 64: every table is filtered on the widest
        # layout's grid, one table for a radial target and one per level
        # for an off-centre one
        from ridgelab import cli
        config = cli.ExperimentConfig(
            kind="rate-sweep", d=d, constructor="quadrature",
            center=None if centred else (0.3,) + (0.0,) * (d - 1),
            widths=(16, 64, 256))
        f = cli._make_target(config)
        calls = []

        def counted(f, k, sphere, grid):
            calls.append((len(sphere), grid))
            return peano_tables(f, k, sphere, grid)

        monkeypatch.setattr(cli, "peano_tables", counted)
        sweep = cli._sweep_tables(config, f)
        assert list(sweep) == list(config.widths)
        sub_rules = [sweep[n] for n in config.widths]
        layouts = [cli._quadrature_layout(n, d) for n in config.widths]
        widest = layouts[-1][1]
        assert calls == [(len(sphere_grid(d, level)), widest)
                         for level in built]
        for (level, grid), sub in zip(layouts, sub_rules):
            assert sub.grid == grid
            np.testing.assert_array_equal(sub.sphere.nodes,
                                          sphere_grid(d, level).nodes)
        # the widest width's tables are those of its own layout, bit for bit
        own = peano_tables(f, 1, sphere_grid(d, layouts[-1][0]), widest)
        for name in ("profiles", "mass", "at_minus_one"):
            np.testing.assert_array_equal(getattr(sub_rules[-1], name),
                                          getattr(own, name))
        assert (sub_rules[-1].poly, sub_rules[-1].end_term) == (
            own.poly, own.end_term)


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

    def test_degree_bound(self):
        f = make_gaussian(GaussianSpec(d=2))
        p = peano_tables(f, 2, sphere_grid(2, 5), GRID).poly
        assert p.degree <= 2

    def test_zero_polynomial(self):
        p = PolynomialPart(d=3, coefficients={})
        assert p(np.ones((4, 3))).tolist() == [0.0] * 4

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", [1, 333])
    def test_terms_keep_their_bits(self, d, degree, count):
        # each term c * x_i^e_i * x_j^e_j ... as the np.full(P, c) term
        # times the strided columns, in the same order, summed in the
        # coefficients' order; a lone point too, as an array and as (d,)
        rng = np.random.default_rng(100 * d + 10 * degree + count)
        basis = multi_indices(d, degree)
        coefficients = dict(zip(basis, rng.normal(size=len(basis))))
        if len(basis) > 1:
            coefficients[basis[1]] = 0.0
        p = PolynomialPart(d=d, coefficients=coefficients)
        pts = rng.uniform(-1.0, 1.0, (count, d))
        expected = np.zeros(count)
        for alpha, c in coefficients.items():
            if c == 0.0:
                continue
            term = np.full(count, c)
            for i, e in enumerate(alpha):
                if e:
                    term *= pts[:, i] ** e
            expected += term
        np.testing.assert_array_equal(p(pts), expected)
        assert p(pts[0]) == expected[0]


def _exact_polynomial(d, k, sphere, at_minus_one):
    """The coefficients of peano_polynomial in exact rational arithmetic
    on the same float inputs."""
    coeffs = {a: Fraction(0) for a in multi_indices(d, k)}
    for wj, omega, values in zip(sphere.weights, sphere.nodes, at_minus_one):
        omega = [Fraction(float(o)) for o in omega]
        for m in range(k + 1):
            fm = Fraction(float(wj)) * Fraction(float(values[m])) / math.factorial(m)
            for alpha in multi_indices(d, m):
                mult = math.factorial(m) // (
                    math.prod(map(math.factorial, alpha))
                    * math.factorial(m - sum(alpha)))
                coeffs[alpha] += fm * mult * math.prod(
                    o ** e for o, e in zip(omega, alpha))
    return coeffs


class TestPolynomialExpansion:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_affine_powers_against_direct_powers(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        n = 7
        omegas = rng.uniform(-1.0, 1.0, (n, d))
        offsets = rng.uniform(-1.0, 1.0, n)
        basis = multi_indices(d, 3)
        powers = monomials(omegas, basis)
        A = affine_powers(powers, offsets, m, basis)
        assert A.shape == (len(basis), n)
        assert not A[[sum(alpha) > m for alpha in basis]].any()
        x = rng.uniform(-1.0, 1.0, (50, d))
        at_x = np.array([np.prod(x ** np.array(alpha), axis=1)
                         for alpha in basis])
        direct = (x @ omegas.T + offsets) ** m
        np.testing.assert_allclose(at_x.T @ A, direct, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(affine_powers(powers, 1.0, m, basis),
                                      affine_powers(powers, np.ones(n), m,
                                                    basis))

    @pytest.mark.parametrize("center,grid", [
        (None, LineGrid(8.0, 16384)), ((0.3, 0.0), LineGrid(4.0, 1024))])
    def test_peano_polynomial_against_exact_rationals(self, center, grid):
        # d = 2, k = 2 on the level-9 sphere; the centred case is stage 1 of
        # the peano-d2k2 acceptance run.  Errors over the coefficient scale
        # against fixed bounds in ulps of that scale (2^-52): 4e-15, 18 ulps,
        # centred (measured 1.2e-15); 2^-51, 2 ulps, off-centre (measured
        # 9.8e-17, and 2.25e-16 under a variant of the closed-form kernel)
        d, k = 2, 2
        f = make_gaussian(GaussianSpec(
            d=d, center=None if center is None else np.array(center)))
        sphere = sphere_grid(d, 9)
        rows, _, E = filtered_rows(f, sphere.nodes, grid, (), range(k + 1))
        at_minus_one = E.T[rows]
        exact = _exact_polynomial(d, k, sphere, at_minus_one)
        scale = max(abs(c) for c in exact.values())

        def error(coeffs):
            assert coeffs.keys() == exact.keys()
            return max(abs(Fraction(c) - exact[a])
                       for a, c in coeffs.items()) / scale

        bound = 4e-15 if center is None else 2.0 ** -51
        assert error(peano_polynomial(d, k, sphere, at_minus_one)[0]
                     .coefficients) <= bound

    def test_peano_polynomial_of_several_tables(self):
        # one call with several tables gives, bit for bit, the part of a
        # call with each table alone
        rng = np.random.default_rng(11)
        sphere = sphere_grid(3, 2)
        tables = [rng.normal(size=(len(sphere), 3)) for _ in range(3)]
        parts = peano_polynomial(3, 2, sphere, *tables)
        assert len(parts) == len(tables)
        for table, part in zip(tables, parts):
            (alone,) = peano_polynomial(3, 2, sphere, table)
            assert part.coefficients == alone.coefficients
        assert peano_polynomial(3, 2, sphere) == ()


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
