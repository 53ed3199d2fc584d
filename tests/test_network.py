import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ridgelab import network
from ridgelab.network import (KnotTable, ShallowNetwork, activation,
                              from_quadrature, from_sampling, poly_to_ridge)
from ridgelab.quadrature import BallSampler, LineGrid, ball_points, sphere_grid
from ridgelab.ridge_density import PolynomialPart, peano_tables
from ridgelab.targets import GaussianSpec, make_gaussian

GRID = LineGrid(L=4.0, N=2048)


@pytest.fixture(autouse=True)
def _quiet_support_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="profile support")
        yield


class TestActivation:
    def test_truncated_powers(self):
        np.testing.assert_allclose(activation(2, 0.5), 0.25)
        for k in range(4):
            assert activation(k, -1.0) == 0.0
        assert activation(0, 0.0) == 0.0
        assert activation(0, 0.7) == 1.0

    def test_array_input_left_unchanged(self):
        t = np.array([-1.5, -0.0, 0.0, 0.25, 2.0])
        before = t.copy()
        for k in range(4):
            expected = (t > 0).astype(float) if k == 0 else np.where(t > 0, t, 0.0) ** k
            np.testing.assert_array_equal(activation(k, t), expected)
        np.testing.assert_array_equal(t, before)

    def test_absolute_value_identity(self):
        t = -0.3
        np.testing.assert_allclose(activation(1, t) + activation(1, -t), 0.3)


class TestShallowNetwork:
    def test_empty_network_is_zero(self):
        net = ShallowNetwork(d=2, k=1, a=np.zeros(0),
                             omega=np.zeros((0, 2)), b=np.zeros(0),
                             poly=PolynomialPart(d=2, coefficients={}))
        np.testing.assert_array_equal(net(np.random.rand(5, 2)), 0.0)

    def test_single_neuron(self):
        net = ShallowNetwork(d=2, k=2, a=np.array([1.0]),
                             omega=np.array([[1.0, 0.0]]),
                             b=np.array([0.0]),
                             poly=PolynomialPart(d=2, coefficients={}))
        np.testing.assert_allclose(net(np.array([0.5, 0.0])), 0.25)

    def test_two_neuron_absolute_value(self):
        net = ShallowNetwork(d=2, k=1, a=np.array([1.0, 1.0]),
                             omega=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             b=np.array([0.0, 0.0]),
                             poly=PolynomialPart(d=2, coefficients={}))
        np.testing.assert_allclose(net(np.array([-0.3, 0.0])), 0.3)

    def test_l1_mass(self):
        net = ShallowNetwork(d=1, k=0, a=np.array([1.5, -2.0]),
                             omega=np.array([[1.0], [-1.0]]),
                             b=np.zeros(2),
                             poly=PolynomialPart(d=1, coefficients={}))
        np.testing.assert_allclose(net.l1_mass, 3.5)

    @pytest.mark.parametrize("path", ["dense", "grouped"])
    def test_rejects_points_of_other_shapes(self, path):
        # a 0-d point, points of another dimension and stacks of point
        # sets name the accepted shapes on both evaluate paths
        if path == "dense":
            net = ShallowNetwork(d=2, k=1, a=np.ones(3),
                                 omega=np.tile([1.0, 0.0], (3, 1)),
                                 b=np.zeros(3))
        else:
            f = make_gaussian(GaussianSpec(d=2))
            net = from_quadrature(peano_tables(f, 1, sphere_grid(2, 3),
                                               LineGrid(4.0, 256)))
            assert net.table is not None
        for x in (np.float64(0.5), 0.5, np.zeros(3), np.zeros(1),
                  np.zeros((5, 3)), np.zeros((5, 1)), np.zeros((2, 4, 2))):
            with pytest.raises(ValueError, match=r"shape \(d,\) or \(P, d\)"):
                net(x)
        assert net(np.zeros((0, 2))).shape == (0,)


def _fsum_values(net, pts):
    """sum_i a_i sigma_k(omega_i.x - b_i) per point, summed with math.fsum."""
    out = []
    for x in pts:
        z = net.omega @ x - net.b
        s = (z > 0).astype(float) if net.k == 0 else np.where(z > 0, z, 0.0) ** net.k
        out.append(math.fsum(net.a * s))
    return np.array(out)


def _neurons_only(net):
    """net without its polynomial part; a KnotTable is kept."""
    neurons = copy.copy(net)
    neurons.poly = None
    return neurons


def _table_network(directions, grid, weights, k):
    """The neurons weights[j, m] sigma_k(directions[j].x - knots[m]) on the
    knots of the line grid's knot window as a network with its own
    KnotTable, one weight row per direction, the directions in
    lexicographic order (as from_quadrature orders them)."""
    rank = np.lexsort(directions.T[::-1])
    table = KnotTable(directions[rank], np.arange(len(rank)), grid,
                      weights[rank])
    return ShallowNetwork(d=directions.shape[1], k=k, table=table)


@pytest.fixture
def grouped_only(monkeypatch):
    """Make the dense path raise, so evaluate must take the grouped one."""
    def refuse(net, pts):
        raise AssertionError("dense path taken")
    monkeypatch.setattr(network, "_evaluate_dense", refuse)


@pytest.fixture
def dense_only(monkeypatch):
    """Make the grouped path raise, so evaluate must take the dense one."""
    def refuse(k, table, pts):
        raise AssertionError("grouped path taken")
    monkeypatch.setattr(network, "_evaluate_grouped", refuse)


class TestGroupedEvaluation:
    """evaluate on networks with a KnotTable, of any number of knots per
    direction, reads it as one degree-k spline per direction, from
    per-direction prefix sums; a network built from arrays is summed
    neuron by neuron."""

    SPHERES = {1: sphere_grid(1, 1), 2: sphere_grid(2, 3), 3: sphere_grid(3, 2)}

    def _tables(self, d, k):
        f = make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.1), width=0.6))
        return peano_tables(f, k, self.SPHERES[d], LineGrid(4.0, 256))

    def _points(self, d):
        return ball_points(BallSampler(d=d, mode="pseudo-random", count=64,
                                       seed=5))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_quadrature_against_fsum(self, grouped_only, d, k):
        net = _neurons_only(from_quadrature(self._tables(d, k)))
        pts = self._points(d)
        tol = 1e-14 * (1.0 + net.l1_mass)
        np.testing.assert_allclose(net(pts), _fsum_values(net, pts),
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_sampling_against_fsum(self, dense_only, d, k):
        # about 2048 / J draws per direction, in unequal numbers, and no
        # KnotTable
        net = _neurons_only(from_sampling(self._tables(d, k), 2048, 17))
        pts = self._points(d)
        tol = 1e-14 * (1.0 + net.l1_mass)
        np.testing.assert_allclose(net(pts), _fsum_values(net, pts),
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_points_on_knots(self, grouped_only, k):
        # unit weights on knots along e1 and e2; every point coordinate is
        # a knot, so omega.x equals a knot exactly and sigma_k(0) = 0
        # decides the value (for k = 0 it must not count that knot)
        net = _table_network(np.eye(2), LineGrid(2.0, 128), np.ones((2, 65)),
                             k)
        knots = net.table.knots
        np.testing.assert_array_equal(knots, np.linspace(-1.0, 1.0, 65))
        coordinates = knots[::5]
        pts = np.array([(x, y) for x in coordinates for y in coordinates])
        values = net(pts)
        if k == 0:
            below = [np.sum(knots < x) + np.sum(knots < y) for x, y in pts]
            np.testing.assert_array_equal(values, below)
        np.testing.assert_allclose(values, _fsum_values(net, pts),
                                   rtol=0, atol=1e-14 * (1.0 + net.l1_mass))

    NON_FINITE = np.array([[np.nan, 0.1], [np.inf, 0.0], [-np.inf, 0.2],
                           [0.1, np.inf], [np.nan, np.nan], [np.inf, -np.inf]])

    @pytest.mark.parametrize("k", [1, 2])
    def test_non_finite_points_give_nan(self, grouped_only, k):
        # omega.x is NaN or +-inf along every direction; the count of
        # knots below it stays in range, and the value is NaN (inf * 0 and
        # inf - inf on the way)
        net = _neurons_only(from_quadrature(self._tables(2, k)))
        pts = np.vstack([self.NON_FINITE, self._points(2)[:3]])
        with np.errstate(invalid="ignore"):
            values = net(pts)
        assert np.isnan(values[:len(self.NON_FINITE)]).all()
        np.testing.assert_array_equal(values[len(self.NON_FINITE):],
                                      net(self._points(2)[:3]))

    def test_non_finite_points_at_k0(self):
        # sigma_0 is 1 at +inf and 0 at -inf and NaN: the grouped path
        # counts every knot below +inf and none below -inf or NaN, as the
        # dense path's step does
        net = from_quadrature(self._tables(2, 0))
        with np.errstate(invalid="ignore"):
            grouped = network._evaluate_grouped(0, net.table, self.NON_FINITE)
            dense = network._evaluate_dense(net, self.NON_FINITE)
        assert np.isfinite(grouped).all()
        np.testing.assert_allclose(grouped, dense, rtol=0,
                                   atol=1e-14 * (1.0 + net.l1_mass))

    def test_empty_network(self):
        poly = PolynomialPart(d=2, coefficients={(0, 0): 1.5})
        net = ShallowNetwork(d=2, k=2, poly=poly)
        np.testing.assert_array_equal(net(self._points(2)), 1.5)
        assert net(np.array([0.2, 0.1])) == 1.5

    def test_polynomial_lift_stays_dense(self, dense_only):
        p = PolynomialPart(d=2, coefficients={(0, 0): 0.5, (1, 1): -2.0,
                                              (2, 0): 1.0})
        pts = self._points(2)
        np.testing.assert_allclose(poly_to_ridge(p, 2)(pts), p(pts),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d,level", [(1, 1), (2, 8), (3, 6)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_value_does_not_depend_on_the_block(self, d, level, k):
        # enough directions that the points span several blocks of 2^14
        # (point, direction) entries.  One call gives the bits of calls on
        # chunks of 2, 7 and 37 points and on single points: a lone point
        # is projected as two, since numpy would take its product omega.x
        # through gemv, which can round the last bit of u otherwise
        f = make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.1), width=0.6))
        net = from_quadrature(peano_tables(f, k, sphere_grid(d, level),
                                           LineGrid(4.0, 256)))
        table = net.table
        pts = ball_points(BallSampler(d=d, mode="pseudo-random", count=404,
                                      seed=5))
        assert d == 1 or len(pts) > 2 * (2 ** 14 // len(table.directions))
        whole = network._evaluate_grouped(k, table, pts)
        for size in (2, 7, 37):
            parts = [network._evaluate_grouped(k, table, pts[lo:lo + size])
                     for lo in range(0, len(pts), size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)
        neurons = _neurons_only(net)
        np.testing.assert_array_equal([neurons(x) for x in pts], whole)

    def test_agrees_with_dense_path(self):
        net = from_quadrature(self._tables(3, 2))
        pts = self._points(3)
        np.testing.assert_allclose(
            network._evaluate_grouped(net.k, net.table, pts),
            network._evaluate_dense(net, pts), rtol=0,
            atol=1e-14 * (1.0 + net.l1_mass))


class TestCountBelow:
    """_count_below reads each count off the knot window's spacing and
    steps it by one knot to np.searchsorted(knots, u, "left")."""

    @staticmethod
    def _probes(row, seed):
        # every knot, one ulp either side, +-1, beyond both ends and
        # random values, as a (P, J) block like evaluate's
        rng = np.random.default_rng(seed)
        u = np.concatenate([row, np.nextafter(row, -np.inf),
                            np.nextafter(row, np.inf),
                            [-1.0, 1.0, -1.5, 1.5, -np.inf, np.inf,
                             row[0] - 1e3, row[-1] + 1e3],
                            rng.uniform(-1.2, 1.2, 200)])
        return np.resize(rng.permutation(u), (-(-len(u) // 4), 4))

    # every grid whose knot window exists, up to L = 16 and N = 2^15
    @pytest.mark.parametrize("N,L", [(2 ** e, L) for L in (2.0, 4.0, 8.0, 16.0)
                                     for e in range(2, 16) if 2 ** e >= 2 * L])
    def test_line_grid_rows(self, L, N):
        grid = LineGrid(L, N)
        row = grid.nodes[grid.knot_window]
        u = self._probes(row, N)
        np.testing.assert_array_equal(network._count_below(grid, u),
                                      np.searchsorted(row, u, "left"))

    def test_nan_counts_zero(self):
        u = np.array([[np.nan, 0.5, np.nan], [-np.nan, np.inf, -np.inf]])
        np.testing.assert_array_equal(
            network._count_below(LineGrid(2.0, 128), u),
            [[0, 48, 0], [0, 65, 0]])


class TestKnotTableNetworks:
    """from_quadrature keeps its (direction x knot) table: one weight row
    per distinct sphere weight for a radial target, one per direction
    otherwise; evaluate reads it at any number of points and builds no
    flat array."""

    SPHERES = TestGroupedEvaluation.SPHERES
    _points = TestGroupedEvaluation._points

    def _tables(self, d, k, centred):
        center = np.zeros(d) if centred else np.full(d, 0.1)
        f = make_gaussian(GaussianSpec(d=d, center=center, width=0.6))
        return peano_tables(f, k, self.SPHERES[d], LineGrid(4.0, 256))

    @staticmethod
    def _flat(tables):
        """The network as flat arrays: directions in sphere order, each
        with its knots ascending."""
        J, M = len(tables.sphere), len(tables.knots)
        a = (tables.sphere.weights[:, None] * tables.weights
             * tables.profiles[tables.rows] / math.factorial(tables.k))
        return ShallowNetwork(d=tables.d, k=tables.k, a=a.ravel(),
                              omega=np.repeat(tables.sphere.nodes, M, axis=0),
                              b=np.tile(tables.knots, J),
                              poly=tables.poly + tables.end_term)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("centred", [True, False])
    def test_table_against_flat_and_fsum(self, grouped_only, d, k, centred):
        tables = self._tables(d, k, centred)
        net = from_quadrature(tables)
        J, M = len(tables.sphere), len(tables.knots)
        # the symmetric Gauss-Legendre weights of the d = 3 grid (level 2)
        # are equal bit for bit: 2 distinct sphere weights
        R = {1: 1, 2: 1, 3: 2}[d] if centred else J
        assert net.table.weights.shape == (R, M)
        assert net.table.grid is tables.grid
        np.testing.assert_array_equal(net.table.knots, tables.knots)
        assert len(net) == J * M
        pts = self._points(d)
        values = net(pts)
        assert not {"a", "omega", "b"} & set(vars(net))
        # the same neurons with one table row per direction
        flat = self._flat(tables)
        rows = _table_network(tables.sphere.nodes, tables.grid,
                              flat.a.reshape(J, M), k)
        np.testing.assert_array_equal(values, rows(pts) + net.poly(pts))
        np.testing.assert_allclose(
            values, _fsum_values(rows, pts) + net.poly(pts), rtol=0,
            atol=1e-14 * (1.0 + rows.l1_mass))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("centred", [True, False])
    def test_flat_arrays_as_built_flat(self, d, centred):
        # a, omega and b list the table's directions, in lexicographic
        # order, each with its knots ascending
        tables = self._tables(d, 1, centred)
        net, flat = from_quadrature(tables), self._flat(tables)
        J, M = len(tables.sphere), len(tables.knots)
        rank = np.lexsort(tables.sphere.nodes.T[::-1])
        np.testing.assert_array_equal(net.table.directions,
                                      tables.sphere.nodes[rank])
        for name in ("a", "omega", "b"):
            by_direction = getattr(flat, name).reshape(J, M, -1)
            np.testing.assert_array_equal(
                getattr(net, name),
                by_direction[rank].reshape(getattr(flat, name).shape))

    @pytest.mark.parametrize("centred", [True, False])
    def test_few_points_read_the_table(self, grouped_only, centred):
        tables = self._tables(2, 2, centred)
        net, flat = from_quadrature(tables), self._flat(tables)
        pts = self._points(2)[:10]
        expected = _fsum_values(flat, pts) + net.poly(pts)
        tol = 1e-14 * (1.0 + flat.l1_mass)
        assert abs(net(pts[0]) - expected[0]) <= tol
        for count in range(1, 10):
            np.testing.assert_allclose(net(pts[:count]), expected[:count],
                                       rtol=0, atol=tol)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("knots", [5, 9, 17])
    def test_few_knots_read_the_table(self, grouped_only, d, k, knots):
        # the schedule sweep's small layouts: L = 4 grids of N = 16, 32 and
        # 64 points put 5, 9 and 17 knots in [-1, 1]
        f = make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.1),
                                       width=0.6))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="grid Nyquist")
            warnings.filterwarnings("ignore", message="spectral taper")
            tables = peano_tables(f, k, self.SPHERES[d],
                                  LineGrid(4.0, 4 * (knots - 1)))
        assert len(tables.knots) == knots
        net = from_quadrature(tables)
        pts = self._points(d)
        np.testing.assert_allclose(
            net(pts), _fsum_values(net, pts) + net.poly(pts), rtol=0,
            atol=1e-14 * (1.0 + net.l1_mass))

    def test_table_takes_only_knot_windows(self):
        # the knots are a line grid's nodes from -1 to 1, one weight per
        # knot in every row
        directions, rows = np.eye(2), np.arange(2)
        with pytest.raises(ValueError, match="not nodes"):
            KnotTable(directions, rows, LineGrid(3.0, 64), np.ones((2, 21)))
        with pytest.raises(ValueError, match="one entry per knot"):
            KnotTable(directions, rows, LineGrid(4.0, 64), np.ones((2, 16)))
        table = KnotTable(directions, rows, LineGrid(4.0, 64), np.ones((2, 17)))
        assert table.knots[0] == -1.0 and table.knots[-1] == 1.0

    def test_radial_network_memory(self):
        # peano-d2k2's stage-1 shape: building the network and evaluating
        # it at 200 points allocates less than one (J, M) float64 array
        f = make_gaussian(GaussianSpec(d=2))
        tables = peano_tables(f, 2, sphere_grid(2, 9), LineGrid(4.0, 8192))
        pts = ball_points(BallSampler(d=2, mode="pseudo-random", count=200,
                                      seed=3))
        J, M = len(tables.sphere), len(tables.knots)
        assert (J, M) == (512, 2049)
        tracemalloc.start()
        try:
            from_quadrature(tables)(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < J * M * 8


def _random_layer(d, points, neurons, seed):
    """Points in the unit cube, unit directions and knots in [-1, 1]."""
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=(neurons, d))
    omega /= np.linalg.norm(omega, axis=1)[:, None]
    return (rng.uniform(-1.0, 1.0, (points, d)), omega,
            rng.uniform(-1.0, 1.0, neurons), rng.normal(size=neurons))


class TestDenseEvaluation:
    """The dense path forms omega.x - b as one product of the rows
    [omega, b] with the lifted points [x, -1]^T, in (neurons x points)
    blocks of about 2^16 entries written into one buffer."""

    @staticmethod
    def _lifted(x, omega, b):
        return (np.hstack([omega, b[:, None]])
                @ np.vstack([x.T, -np.ones((1, len(x)))]))

    @settings(max_examples=60, deadline=None)
    @given(points=st.integers(1, 80), neurons=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lifted_product_bitwise_at_d2(self, points, neurons, seed):
        # BLAS adds the bias term last, fma(-1, b, acc) or acc + (-1 * b),
        # both exactly acc - b; every pinned report body is d = 2
        x, omega, b, _ = _random_layer(2, points, neurons, seed)
        np.testing.assert_array_equal(self._lifted(x, omega, b),
                                      omega @ x.T - b[:, None])

    @pytest.mark.parametrize("d", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(points=st.integers(1, 80), neurons=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lifted_product_within_rounding(self, d, points, neurons, seed):
        # at d = 3 OpenBLAS places the bias elsewhere in the sum for one
        # point or one neuron (a matrix-vector product) and for some edge
        # rows of a product, so there the two can differ in the last bit
        # (d = 1 has shown no such shape): bound them by two sums of d + 1
        # terms, 2 gamma_(d+1) sum |terms|
        x, omega, b, _ = _random_layer(d, points, neurons, seed)
        eps = np.finfo(float).eps
        gamma = (d + 1) * eps / (1 - (d + 1) * eps)
        bound = 2 * gamma * (np.abs(omega) @ np.abs(x).T + np.abs(b)[:, None])
        assert np.all(np.abs(self._lifted(x, omega, b)
                             - (omega @ x.T - b[:, None])) <= bound)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("points,neurons", [(500, 300), (7, 2 ** 16 + 3)])
    def test_dense_matches_two_step_blocks(self, k, points, neurons):
        # blocks of 2^16 // n points: 218, 218 and 218 at n = 300 (the last
        # filled up with copies of the last point), one point each above
        # 2^16 neurons; per block the reference forms the product, then
        # subtracts the bias, then sums over the neurons
        x, omega, b, a = _random_layer(2, points, neurons, k)
        block = max(1, 2 ** 16 // neurons)
        padded = np.vstack([x, np.repeat(x[-1:], -points % block, axis=0)])
        expected = np.empty(len(padded))
        for lo in range(0, len(padded), block):
            z = omega @ padded[lo:lo + block].T
            z -= b[:, None]
            expected[lo:lo + block] = a @ activation(k, z)
        expected = expected[:points]
        net = ShallowNetwork(d=2, k=k, a=a, omega=omega, b=b)
        np.testing.assert_array_equal(network._evaluate_dense(net, x),
                                      expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 7, 2048])
    def test_value_does_not_depend_on_the_block(self, d, k, n):
        # sampled networks; at 2048 neurons the points span blocks of 32.
        # One call gives the bits of calls on chunks of 2, 7 and 37 points
        # and on single points: every block has the same width
        f = make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.1), width=0.6))
        tables = peano_tables(f, k, sphere_grid(d, 3), LineGrid(4.0, 256))
        net = _neurons_only(from_sampling(tables, n, 17))
        pts = ball_points(BallSampler(d=d, mode="pseudo-random", count=404,
                                      seed=5))
        whole = network._evaluate_dense(net, pts)
        for size in (2, 7, 37):
            parts = [network._evaluate_dense(net, pts[lo:lo + size])
                     for lo in range(0, len(pts), size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)
        np.testing.assert_array_equal([net(x) for x in pts], whole)

    def test_one_block_buffer(self):
        # a sweep's widest sampled network on its lattice: the lifted
        # points, the output and one (n x 64) block buffer, and no array
        # per block (the 256 blocks would hold 512 KiB each)
        points, neurons = 16384, 1024
        x, omega, b, a = _random_layer(2, points, neurons, 0)
        net = ShallowNetwork(d=2, k=1, a=a, omega=omega, b=b)
        tracemalloc.start()
        try:
            network._evaluate_dense(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lifted, out, buffer = 3 * points * 8, points * 8, 2 ** 16 * 8
        assert peak <= lifted + out + buffer + 64 * 1024


class TestFromQuadrature:
    def test_zero_target(self):
        f = make_gaussian(GaussianSpec(d=1, amplitude=0.0))
        net = from_quadrature(peano_tables(f, 1, sphere_grid(1, 1), GRID))
        np.testing.assert_allclose(net.a, 0.0, atol=1e-14)
        np.testing.assert_allclose(net(np.zeros((3, 1))), 0.0, atol=1e-14)

    def test_reconstructs_gaussian_d1_k1(self):
        f = make_gaussian(GaussianSpec(d=1))
        net = from_quadrature(peano_tables(f, 1, sphere_grid(1, 1), GRID))
        pts = ball_points(BallSampler(d=1, mode="pseudo-random", count=200,
                                      seed=2))
        np.testing.assert_allclose(net(pts), f(pts), atol=1e-3)

    def test_trapezoid_order_in_knot_spacing(self):
        f = make_gaussian(GaussianSpec(d=1))
        pts = np.linspace(-0.8, 0.8, 33)[:, None]
        errs = []
        grid = LineGrid(L=4.0, N=256)
        for _ in range(3):
            net = from_quadrature(peano_tables(f, 1, sphere_grid(1, 1), grid))
            errs.append(np.max(np.abs(net(pts) - f(pts))))
            grid = LineGrid(L=grid.L, N=4 * grid.N)
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:])) / 2
        assert all(s >= 2.0 - 0.2 for s in slopes)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_end_term_removes_mean_error(self, n):
        # the knot rule alone misses (h^2/12) g'(-1): on the rate sweep's
        # layouts its networks' error had a positive mean growing as h^2
        # (3.9e-3 at n = 256, h = 1/8, and 2.5e-4 at n = 1024, h = 1/32)
        from ridgelab.cli import _quadrature_layout
        level, grid = _quadrature_layout(n, 2)
        f = make_gaussian(GaussianSpec(d=2))
        tables = peano_tables(f, 1, sphere_grid(2, level), grid)
        pts = ball_points(BallSampler(d=2, mode="lattice", count=4096,
                                      seed=3))
        err = from_quadrature(tables)(pts) - f(pts)
        without = err - tables.end_term(pts)
        assert abs(np.mean(err)) <= 0.1 * abs(np.mean(without))


def _offset_tables(k):
    # two off-centre Gaussians: densities of both signs, unequal directions
    from ridgelab.targets import combine
    f = combine(make_gaussian(GaussianSpec(d=2, center=np.array([0.3, -0.2]),
                                           width=0.5)),
                make_gaussian(GaussianSpec(d=2)), 1.0, -0.7)
    return peano_tables(f, k, sphere_grid(2, 4), LineGrid(4.0, 256))


class TestConstructorsAgainstLoops:
    """The vectorized constructors against one-neuron-at-a-time loops doing
    the same arithmetic: the results must be equal bit for bit."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_quadrature(self, k):
        # the directions in the table's lexicographic order
        tables = _offset_tables(k)
        sphere = tables.sphere
        rank = np.lexsort(sphere.nodes.T[::-1])
        a, w, b = [], [], []
        for wj, omega, row in zip(sphere.weights[rank], sphere.nodes[rank],
                                  tables.profiles[tables.rows[rank]]):
            a.append(wj * tables.weights * row / math.factorial(k))
            w.append(np.tile(omega, (len(tables.knots), 1)))
            b.append(tables.knots)
        net = from_quadrature(tables)
        np.testing.assert_array_equal(net.a, np.concatenate(a))
        np.testing.assert_array_equal(net.omega, np.vstack(w))
        np.testing.assert_array_equal(net.b, np.concatenate(b))
        assert net.poly == tables.poly + tables.end_term

    @staticmethod
    def _sampling_loop(tables, n, js, us):
        # draw i takes the first knot m of direction js[i] whose cumulative
        # atom mass, over the row's total, exceeds us[i]
        sphere, knots, profiles = tables.sphere, tables.knots, tables.profiles
        weighted = sphere.weights * (np.abs(profiles) @ tables.weights)
        V = weighted.sum() / math.factorial(tables.k)
        a, w, b = np.empty(n), np.empty((n, tables.d)), np.empty(n)
        for i, (j, u) in enumerate(zip(js, us)):
            row = profiles[tables.rows[j]]
            cumulative = np.cumsum(tables.weights * np.abs(row))
            cumulative /= cumulative[-1]
            m = np.searchsorted(cumulative, u, side="right")
            b[i] = knots[m]
            a[i] = (V if row[m] >= 0 else -V) / n
            w[i] = sphere.nodes[j]
        return a, w, b

    @pytest.mark.parametrize("k,n,seed", [(0, 1, 7), (1, 300, 3), (2, 64, 11)])
    def test_sampling(self, k, n, seed):
        tables = _offset_tables(k)
        sphere, profiles = tables.sphere, tables.profiles
        weighted = sphere.weights * (np.abs(profiles) @ tables.weights)
        rng = np.random.default_rng(seed)
        js = rng.choice(len(sphere), size=n, p=weighted / weighted.sum())
        us = rng.uniform(size=n)
        a, w, b = self._sampling_loop(tables, n, js, us)
        net = from_sampling(tables, n, seed)
        np.testing.assert_array_equal(net.a, a)
        np.testing.assert_array_equal(net.omega, w)
        np.testing.assert_array_equal(net.b, b)
        assert net.poly == tables.poly + tables.end_term

    @pytest.mark.parametrize("d,k,level", [(1, 0, 1), (2, 1, 3), (3, 2, 2)])
    def test_no_atom_without_mass(self, d, k, level):
        # profiles vanish on a stretch of knots, and on the first knots of
        # every other direction, so the cumulative rows repeat values
        # there; the draws hit u = 0, u just below 1 and every node of the
        # cumulative rows below 1 (the flat ones included)
        f = make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.2), width=0.5))
        tables = peano_tables(f, k, sphere_grid(d, level), LineGrid(2.0, 256))
        profiles = np.array(tables.profiles)
        profiles[:, 60:90] = 0.0
        profiles[::2, :20] = 0.0
        tables = _with_profiles(tables, profiles)
        J, M = profiles.shape
        nodes = tables.cumulative.imag
        node_js, node_ms = np.nonzero(nodes < 1.0)
        js = np.concatenate([np.arange(J), np.arange(J), node_js])
        us = np.concatenate([np.zeros(J), np.full(J, np.nextafter(1.0, 0.0)),
                             nodes[node_js, node_ms]])
        n = len(js)
        a, w, b = self._sampling_loop(tables, n, js, us)
        net = from_sampling(tables, n, _FixedDraws(js, us))
        np.testing.assert_array_equal(net.a, a)
        np.testing.assert_array_equal(net.omega, w)
        np.testing.assert_array_equal(net.b, b)
        m = np.searchsorted(tables.knots, net.b)
        np.testing.assert_array_equal(tables.knots[m], net.b)
        assert np.all(profiles[js, m] != 0.0)
        # u = 0 takes the first atom with mass, u below 1 the last, and u
        # on a node the atom after it
        first = np.argmax(profiles != 0.0, axis=1)
        last = M - 1 - np.argmax(profiles[:, ::-1] != 0.0, axis=1)
        np.testing.assert_array_equal(m[:J], first)
        np.testing.assert_array_equal(m[J:2 * J], last)
        assert np.all(m[2 * J:] > node_ms)


def _with_profiles(tables, profiles):
    """tables with other profiles, and the mass and variation that
    peano_tables computes from them."""
    mass = tables.sphere.weights * (np.abs(profiles) @ tables.weights)
    return dataclasses.replace(
        tables, profiles=profiles, mass=mass,
        variation=float(mass.sum() / math.factorial(tables.k)))


class _FixedDraws(np.random.Generator):
    """A generator whose direction and uniform draws are given arrays;
    np.random.default_rng passes a Generator through unchanged."""

    def __init__(self, js, us):
        super().__init__(np.random.PCG64(0))
        self.js, self.us = js, us

    def choice(self, *args, **kwargs):
        return self.js

    def uniform(self, *args, **kwargs):
        return self.us


class TestFromSampling:
    def test_l1_mass_equals_variation_bound(self):
        f = make_gaussian(GaussianSpec(d=2))
        sphere = sphere_grid(2, 6)
        tables = peano_tables(f, 1, sphere, GRID)
        net = from_sampling(tables, 64, 99)
        np.testing.assert_allclose(net.l1_mass, tables.variation, rtol=1e-12)

    def test_single_sample(self):
        f = make_gaussian(GaussianSpec(d=1))
        sphere = sphere_grid(1, 1)
        tables = peano_tables(f, 0, sphere, GRID)
        net = from_sampling(tables, 1, 7)
        assert len(net.a) == 1
        assert abs(net.a[0]) == tables.variation

    def test_unbiased_against_quadrature(self):
        # the mean of the sampled networks is from_quadrature's network,
        # end term included
        f = make_gaussian(GaussianSpec(d=2))
        sphere = sphere_grid(2, 6)
        x = np.array([0.3, -0.4])
        tables = peano_tables(f, 1, sphere, GRID)
        reference = float(from_quadrature(tables)(x))
        vals = np.array([float(from_sampling(tables, 256, seed)(x))
                         for seed in range(100)])
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - reference) <= 3 * stderr

    @pytest.mark.parametrize("d,center", [(1, 0.0), (1, 0.3), (2, 0.0),
                                          (2, 0.3)])
    def test_atom_frequencies(self, d, center):
        # 2^20 draws of the atoms of a small table (2 or 8 directions, 17
        # knots), with one profile row for all directions or one per
        # direction, against their probabilities w_j weights_m |F_jm| /
        # (k! V) by a chi-squared test
        c = np.zeros(d)
        c[0] = center
        f = make_gaussian(GaussianSpec(d=d, center=c, width=0.5))
        tables = peano_tables(f, 1, sphere_grid(d, 3), LineGrid(2.0, 32))
        sphere, J, M = tables.sphere, len(tables.sphere), len(tables.knots)
        assert tables.profiles.shape == (1 if center == 0 else J, M)
        draws = 2 ** 20
        net = from_sampling(tables, draws, 2024)
        # the direction of each draw, found by a projection that tells the
        # J directions apart
        key = sphere.nodes @ np.sqrt(np.arange(1.0, d + 1))
        order = np.argsort(key)
        j = order[np.searchsorted(key[order],
                                  net.omega @ np.sqrt(np.arange(1.0, d + 1)))]
        np.testing.assert_array_equal(sphere.nodes[j], net.omega)
        observed = np.bincount(j * M + np.searchsorted(tables.knots, net.b),
                               minlength=J * M)
        mass = (sphere.weights[:, None] * tables.weights
                * np.abs(tables.profiles[tables.rows])).ravel()
        expected = draws * mass / mass.sum()
        assert expected.min() >= 5
        statistic = np.sum((observed - expected) ** 2 / expected)
        assert stats.chi2.sf(statistic, J * M - 1) > 1e-3

    def test_invalid_width(self):
        f = make_gaussian(GaussianSpec(d=1))
        with pytest.raises(ValueError):
            from_sampling(peano_tables(f, 0, sphere_grid(1, 1), GRID), 0, 1)


class TestPolyToRidge:
    def test_monomial_lift_identity(self):
        np.testing.assert_allclose(activation(2, -0.5) + activation(2, 0.5),
                                   0.25)

    def test_constant_via_step_pair(self):
        p = PolynomialPart(d=1, coefficients={(0,): 3.5})
        net = poly_to_ridge(p, 0)
        x = np.linspace(-1, 1, 33)[:, None]
        np.testing.assert_allclose(net(x), 3.5, atol=1e-12)

    def test_random_polynomials_exact(self):
        rng = np.random.default_rng(31)
        pts = ball_points(BallSampler(d=2, mode="pseudo-random", count=1000,
                                      seed=6))
        for k in (1, 2, 3):
            coeffs = {alpha: rng.standard_normal()
                      for alpha in _indices(2, k)}
            p = PolynomialPart(d=2, coefficients=coeffs)
            net = poly_to_ridge(p, k)
            assert np.max(np.abs(net(pts) - p(pts))) <= 1e-10


def _indices(d, max_degree):
    from ridgelab.ridge_density import multi_indices
    return multi_indices(d, max_degree)
