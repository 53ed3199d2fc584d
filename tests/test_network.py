import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _table_network(directions, knots, weights, k):
    """The neurons weights[j, m] sigma_k(directions[j].x - knots[m]) as a
    network with its own KnotTable, one weight row per direction on the
    one sorted knot row, the directions in lexicographic order (as
    from_quadrature orders them)."""
    rank = np.lexsort(directions.T[::-1])
    table = KnotTable(directions[rank], np.arange(len(rank)), knots,
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
        knots = np.linspace(-1.0, 1.0, 65)
        net = _table_network(np.eye(2), knots, np.ones((2, len(knots))), k)
        grid = knots[::5]
        pts = np.array([(x, y) for x in grid for y in grid])
        values = net(pts)
        if k == 0:
            below = [np.sum(knots < x) + np.sum(knots < y) for x, y in pts]
            np.testing.assert_array_equal(values, below)
        np.testing.assert_allclose(values, _fsum_values(net, pts),
                                   rtol=0, atol=1e-14 * (1.0 + net.l1_mass))

    @pytest.mark.parametrize("layout", ["duplicate_knots"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_table_layouts_against_fsum(self, grouped_only, layout, k):
        # 5 directions on one row of 67 knots from 9 values in
        # [-0.5, 0.5], so the row repeats most of them, is far from evenly
        # spaced, and the unit ball has points beyond its first and last
        # knot
        rng = np.random.default_rng(29)
        angles = np.array([0.3, 1.9, 2.5, 4.0, 5.6])
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
        count = 67
        knots = np.sort(rng.choice(np.linspace(-0.5, 0.5, 9), count))
        net = _table_network(directions, knots,
                             rng.normal(size=(5, count)), k)
        pts = self._points(2)
        u = pts @ net.omega.T
        assert (u > net.b.max()).any() and (u < net.b.min()).any()
        np.testing.assert_allclose(net(pts), _fsum_values(net, pts), rtol=0,
                                   atol=1e-14 * (1.0 + net.l1_mass))

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

    def test_agrees_with_dense_path(self):
        net = from_quadrature(self._tables(3, 2))
        pts = self._points(3)
        np.testing.assert_allclose(
            network._evaluate_grouped(net.k, net.table, pts),
            network._evaluate_dense(net, pts), rtol=0,
            atol=1e-14 * (1.0 + net.l1_mass))


class TestCountBelow:
    """_count_below reads each count off the knot row's end points and
    spacing and steps it to np.searchsorted(row, u, "left"), or bisects a
    row far from evenly spaced."""

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

    @pytest.mark.parametrize("L", [2.0, 3.0, 4.0, 5.0, 8.0])
    @pytest.mark.parametrize("N", [8, 64, 1024, 8192])
    def test_line_grid_rows(self, L, N):
        grid = LineGrid(L, N)
        row = grid.nodes[grid.knot_mask()]
        u = self._probes(row, N)
        np.testing.assert_array_equal(network._count_below(row, u),
                                      np.searchsorted(row, u, "left"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uneven_row_with_repeated_knots(self, seed):
        # the duplicate_knots layout's row: 67 knots from 9 values, so the
        # first read is far off and the count falls back to a bisection
        rng = np.random.default_rng(seed)
        row = np.sort(rng.choice(np.linspace(-0.5, 0.5, 9), 67))
        u = self._probes(row, seed)
        np.testing.assert_array_equal(network._count_below(row, u),
                                      np.searchsorted(row, u, "left"))

    @pytest.mark.parametrize("row", [[0.3], [0.2, 0.2, 0.2], [-1.0, 1.0]])
    def test_short_and_flat_rows(self, row):
        row = np.array(row)
        u = self._probes(row, 5)
        np.testing.assert_array_equal(network._count_below(row, u),
                                      np.searchsorted(row, u, "left"))

    @pytest.mark.parametrize("power,half", [(1, 48), (3, 58)])
    def test_nan_counts_zero(self, power, half):
        # on an evenly spaced row, and on a cubed one that the count
        # bisects
        row = np.linspace(-1.0, 1.0, 65) ** power
        u = np.array([[np.nan, 0.5, np.nan], [-np.nan, np.inf, -np.inf]])
        np.testing.assert_array_equal(network._count_below(row, u),
                                      [[0, half, 0], [0, 65, 0]])


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
        assert net.table.knots is tables.knots
        assert len(net) == J * M
        pts = self._points(d)
        values = net(pts)
        assert not {"a", "omega", "b"} & set(vars(net))
        # the same neurons with one table row per direction
        flat = self._flat(tables)
        rows = _table_network(tables.sphere.nodes, tables.knots,
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
    """The dense path forms omega.x - b as one product of the lifted points
    [x, -1] with [omega, b], in blocks of about 2^16 entries."""

    @staticmethod
    def _lifted(x, omega, b):
        return (np.hstack([x, -np.ones((len(x), 1))])
                @ np.hstack([omega, b[:, None]]).T)

    @settings(max_examples=60, deadline=None)
    @given(points=st.integers(1, 80), neurons=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lifted_product_bitwise_at_d2(self, points, neurons, seed):
        # BLAS adds the bias term last, fma(-1, b, acc) or acc + (-1 * b),
        # both exactly acc - b; every pinned report body is d = 2
        x, omega, b, _ = _random_layer(2, points, neurons, seed)
        np.testing.assert_array_equal(self._lifted(x, omega, b),
                                      x @ omega.T - b)

    @pytest.mark.parametrize("d", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(points=st.integers(1, 80), neurons=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lifted_product_within_rounding(self, d, points, neurons, seed):
        # OpenBLAS's AVX-512 kernels place the bias elsewhere in the sum for
        # one point or one neuron (a matrix-vector product) and for the
        # edge columns of some d = 3 products, so there the two can differ
        # in the last bit: bound them by two sums of d + 1 terms,
        # 2 gamma_(d+1) sum |terms|
        x, omega, b, _ = _random_layer(d, points, neurons, seed)
        eps = np.finfo(float).eps
        gamma = (d + 1) * eps / (1 - (d + 1) * eps)
        bound = 2 * gamma * (np.abs(x) @ np.abs(omega).T + np.abs(b))
        assert np.all(np.abs(self._lifted(x, omega, b) - (x @ omega.T - b))
                      <= bound)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("points,neurons", [(500, 300), (7, 2 ** 16 + 3)])
    def test_dense_matches_two_step_blocks(self, k, points, neurons):
        # blocks of 2^16 // n rows: 218, 218 and 64 at n = 300, one row
        # each above 2^16 neurons; per block the reference forms the
        # product, then subtracts the bias
        x, omega, b, a = _random_layer(2, points, neurons, k)
        block = max(1, 2 ** 16 // neurons)
        expected = np.empty(points)
        for lo in range(0, points, block):
            z = x[lo:lo + block] @ omega.T
            z -= b
            expected[lo:lo + block] = activation(k, z) @ a
        net = ShallowNetwork(d=2, k=k, a=a, omega=omega, b=b)
        np.testing.assert_array_equal(network._evaluate_dense(net, x),
                                      expected)


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
    return peano_tables(f, k, sphere_grid(2, 4), LineGrid(3.0, 256))


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
        sphere, knots, profiles = tables.sphere, tables.knots, tables.profiles
        weighted = sphere.weights * (np.abs(profiles) @ tables.weights)
        V = weighted.sum() / math.factorial(tables.k)
        a, w, b = np.empty(n), np.empty((n, tables.d)), np.empty(n)
        for i, (j, u) in enumerate(zip(js, us)):
            absv = np.abs(profiles[tables.rows[j]])
            cell = 0.5 * (absv[1:] + absv[:-1]) * np.diff(knots)
            cdf = np.concatenate([[0.0], np.cumsum(cell)])
            b[i] = float(np.interp(u, cdf / cdf[-1], knots))
            sign = (1.0 if np.interp(b[i], knots, profiles[tables.rows[j]])
                    >= 0 else -1.0)
            a[i] = sign * V / n
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
        assert net.poly is tables.poly

    def test_interp_branches(self):
        # from_sampling's reads against np.interp row by row, in both roles
        # (per-row xp with shared fp, shared xp with per-row fp), at points
        # below the first node, on repeated nodes, on a node whose cell has
        # an infinite slope (a subnormal width), inside cells, on the last
        # node and past it
        table = np.array([[0.0, 0.0, 0.25, 0.25, 0.5, 1.0],
                          [0.0, 5e-324, 0.3, 0.6, 0.6, 1.0]])
        knots = np.linspace(-1.0, 1.0, 6)
        x = np.array([-0.5, 0.0, 5e-324, 0.1, 0.25, 0.3, 0.6, 0.7, 1.0, 1.5])
        t = np.concatenate([knots, [-1.5, -0.7, 0.1, 0.95, 1.5]])
        for row in range(len(table)):
            rows = np.full(len(x), row)
            count = network._searchsorted_rows(table, rows, x)
            np.testing.assert_array_equal(
                count, np.searchsorted(table[row], x, side="right"))
            np.testing.assert_array_equal(
                network._interp(x, count, table, rows, knots[None], 0),
                np.interp(x, table[row], knots))
            np.testing.assert_array_equal(
                network._interp(t, np.searchsorted(knots, t, side="right"),
                                knots[None], 0, table, np.full(len(t), row)),
                np.interp(t, knots, table[row]))

    @pytest.mark.parametrize("d,k,level", [(1, 0, 1), (2, 1, 3), (3, 2, 2)])
    def test_sampling_special_branches(self, d, k, level):
        # profiles vanish on a stretch of knots, and on the first knots of
        # every other direction, so each CDF row is flat there and repeats
        # a value; the draws hit u = 0, CDF nodes (flat ones included, so
        # b lands on a knot and on a zero of the profile) and the last node
        f = make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.2), width=0.5))
        tables = peano_tables(f, k, sphere_grid(d, level), LineGrid(3.0, 256))
        profiles = np.array(tables.profiles)
        profiles[:, 60:90] = 0.0
        profiles[::2, :20] = 0.0
        tables = _with_profiles(tables, profiles)
        J, M = profiles.shape
        rng = np.random.default_rng(d)
        js = np.concatenate([np.arange(J), np.arange(J), np.arange(J),
                             rng.integers(0, J, 40)])
        nodes = rng.integers(0, M, 40)
        us = np.concatenate([np.zeros(J), tables.cdf[np.arange(J), 75],
                             tables.cdf[np.arange(J), -1],
                             tables.cdf[js[-40:], nodes]])
        us[-10:] = rng.uniform(size=10)
        n = len(js)
        a, w, b = self._sampling_loop(tables, n, js, us)
        net = from_sampling(tables, n, _FixedDraws(js, us))
        assert np.isin(b, tables.knots).sum() >= 3 * J
        np.testing.assert_array_equal(net.a, a)
        np.testing.assert_array_equal(net.omega, w)
        np.testing.assert_array_equal(net.b, b)


def _with_profiles(tables, profiles):
    """tables with other profiles, and the cdf, mass and variation that
    peano_tables computes from them."""
    absv = np.abs(profiles)
    cdf = np.zeros_like(absv)
    np.cumsum(0.5 * (absv[:, 1:] + absv[:, :-1]) * np.diff(tables.knots),
              axis=1, out=cdf[:, 1:])
    np.divide(cdf, cdf[:, -1:], out=cdf, where=cdf[:, -1:] > 0)
    mass = tables.sphere.weights * (absv @ tables.weights)
    return dataclasses.replace(
        tables, profiles=profiles, cdf=cdf, mass=mass,
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
        f = make_gaussian(GaussianSpec(d=2))
        sphere = sphere_grid(2, 6)
        x = np.array([0.3, -0.4])
        tables = peano_tables(f, 1, sphere, GRID)
        reference = float(from_quadrature(tables)(x))
        vals = np.array([float(from_sampling(tables, 256, seed)(x))
                         for seed in range(100)])
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - reference) <= 3 * stderr

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
