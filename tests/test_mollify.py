import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from ridgelab import mollify
from ridgelab.mollify import (TILE_PAIRS, _ball_quadrature,
                              binomial_weights, epsilon_schedule,
                              smooth_approximant)
from ridgelab.targets import (GaussianSpec, combine, make_cusp_radial,
                              make_gaussian)


class TestFiniteDifference:
    """binomial_weights: the signed weights of the s-fold difference from
    which the binomial approximant is built."""

    def test_s1_is_plain_difference(self):
        f = make_gaussian(GaussianSpec(d=2))
        x = np.array([0.3, 0.1])
        y = np.array([0.05, -0.02])
        assert binomial_weights(1) == [(1, 1)]
        np.testing.assert_allclose(_difference(f, y, 1, x), f(x) - f(x - y))

    def test_annihilates_affine(self):
        # the order-2 approximant reproduces affine targets
        affine = lambda x: 2.0 + 3.0 * np.atleast_2d(x)[:, 0]
        x = np.array([[0.4]])
        val = _difference(affine, np.array([0.1]), 2, x)
        np.testing.assert_allclose(val, 0.0, atol=1e-12)

    def test_quadratic_second_difference(self):
        quad = lambda x: np.atleast_2d(x)[:, 0] ** 2
        val = _difference(quad, np.array([0.1]), 2, np.array([[0.7]]))
        np.testing.assert_allclose(val, 2 * 0.1 ** 2, atol=1e-14)

    def test_binomial_weights_sum_to_one(self):
        # sum_t C(s,t) (-1)^(t-1) = 1, so constants are preserved
        for s in range(1, 6):
            total = sum(c for _, c in binomial_weights(s))
            np.testing.assert_allclose(total, 1.0)


def _difference(f, y, s, x):
    """The s-fold difference Delta_y^s f(x) = f(x) - sum_t c_t f(x - t y)
    over the weights (t, c_t) of binomial_weights(s)."""
    return f(x) - sum(c * f(x - t * y) for t, c in binomial_weights(s))


class TestMollifier:
    """phi_eps as smooth_approximant reads it: the bump _bump_raw, and the
    ball rule whose weights are divided by their own sum."""

    def test_compact_support(self):
        # phi_eps(x) = eps^{-d} phi(x / eps) vanishes from |x| = eps out,
        # and the order-1 approximant calls f only inside the eps-ball
        eps = 0.5
        r2 = np.sum((np.array([[0.5, 0.0], [0.6, 0.1], [0.2, 0.1]])
                     / eps) ** 2, axis=-1)
        bump = mollify._bump_raw(r2)
        assert bump[0] == 0.0 and bump[1] == 0.0 and bump[2] > 0.0
        x = np.array([0.3, -0.2])
        called = []

        def f(pts):
            called.append(np.array(pts))
            return np.ones(len(pts))

        smooth_approximant(f, 1, eps, x)
        distance = np.linalg.norm(np.concatenate(called) - x, axis=-1)
        assert distance.max() < eps

    def test_unit_mass_1d(self):
        # the order-1 approximant is f * phi_eps, phi_eps of unit mass:
        # its normalization and the convolution by adaptive quadrature
        f = make_gaussian(GaussianSpec(d=1))
        bump = lambda r2: mollify._bump_raw(np.array([r2]))[0]
        mass, _ = integrate.quad(lambda y: bump(y * y), -1, 1, limit=200)
        for eps in (1.0, 0.25):
            conv, _ = integrate.quad(
                lambda y: f(np.array([[0.3 - y]]))[0] * bump((y / eps) ** 2),
                -eps, eps, limit=200)
            value = smooth_approximant(f, 1, eps, np.array([[0.3]]))[0]
            np.testing.assert_allclose(value, conv / (eps * mass), rtol=0,
                                       atol=1e-11)

    def test_unit_mass_2d(self):
        # as in d = 1, in polar coordinates; the 48-node tensor rule reads
        # the convolution at eps = 1 within 1.2e-8 (within 5e-11 at 96
        # nodes, so the gap is the rule's and not the normalization's)
        f = make_gaussian(GaussianSpec(d=2))
        x = np.array([0.3, -0.1])
        bump = lambda r2: mollify._bump_raw(np.array([r2]))[0]
        mass, _ = integrate.quad(lambda r: 2 * np.pi * r * bump(r * r), 0, 1,
                                 limit=200)

        def integrand(r, theta):
            y = r * np.array([np.cos(theta), np.sin(theta)])
            return r * f((x - y)[None])[0] * bump(r * r)

        conv, _ = integrate.dblquad(integrand, 0, 2 * np.pi, 0, 1,
                                    epsabs=1e-13, epsrel=1e-13)
        np.testing.assert_allclose(smooth_approximant(f, 1, 1.0, x),
                                   conv / mass, rtol=0, atol=2e-8)

    def test_even_symmetry(self):
        # phi is radial, so the approximant of an even target is even
        f = make_gaussian(GaussianSpec(d=3))
        x = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(smooth_approximant(f.evaluate, 1, 0.7, x),
                                   smooth_approximant(f.evaluate, 1, 0.7, -x))

    def test_validation(self):
        f = make_gaussian(GaussianSpec(d=2))
        for eps in (0.0, 1.5):
            with pytest.raises(ValueError, match="eps"):
                smooth_approximant(f, 1, eps, np.zeros(2))


class TestSmoothApproximant:
    def test_constant_is_reproduced(self):
        from ridgelab.targets import TargetFunction
        const = TargetFunction(d=2, evaluate=lambda x: np.ones(np.shape(x)[:-1]),
                               fourier=None, support_radius=np.inf)
        x = np.array([[0.1, 0.2], [0.0, 0.0]])
        for s in (1, 2):
            np.testing.assert_allclose(
                smooth_approximant(const, s, 0.25, x), 1.0, atol=1e-10)

    def test_linear_is_reproduced_s1(self):
        from ridgelab.targets import TargetFunction
        lin = TargetFunction(d=1, evaluate=lambda x: np.asarray(x)[..., 0],
                             fourier=None, support_radius=np.inf)
        x = np.array([[0.3], [-0.6]])
        np.testing.assert_allclose(smooth_approximant(lin, 1, 0.25, x),
                                   x[:, 0], atol=1e-10)

    def test_tiny_eps_has_no_mass_floor(self, tmp_path):
        # a table of mass 1 - 5.35e-5 read 8.2355e-05 here at every eps;
        # errors at the rounding floor fail the run, with the report kept
        from ridgelab.cli import ExperimentConfig, NumericalCheckError, run
        config = ExperimentConfig(kind="mollify-sweep", d=3, s=7,
                                  epsilons=(1e-9, 1e-8, 1e-7), seed=42)
        with pytest.raises(NumericalCheckError) as caught:
            run(config, out_dir=str(tmp_path))
        errors = [row[-1] for row in caught.value.report.rows]
        assert len(errors) == 3
        assert max(errors) < 1e-12

    def test_converges_as_eps_shrinks(self):
        f = make_gaussian(GaussianSpec(d=1))
        x = np.array([[0.2]])
        errs = [abs(smooth_approximant(f, 1, eps, x)[0] - f(x)[0])
                for eps in (0.5, 0.25, 0.125)]
        assert errs[2] < errs[0]
        assert errs[2] < 1e-2


class TestEpsilonSchedule:
    def test_values(self):
        np.testing.assert_allclose(epsilon_schedule(16, 2), 0.25)
        np.testing.assert_allclose(epsilon_schedule(1, 2), 1.0)
        np.testing.assert_allclose(epsilon_schedule(1000, 3), 0.1)

    def test_clamped_to_unit_interval(self):
        assert 0 < epsilon_schedule(1, 1) <= 1.0


def _nodes(d, eps):
    """The nodes and weights of smooth_approximant's rule on the eps-ball."""
    return _ball_quadrature(d, eps, mollify.NODES_PER_AXIS[d])


def _untiled_approximant(f, s, eps, x):
    """smooth_approximant without tiles: one (points, nodes, d) array of
    translates per t, each point's weighted values summed along its row.
    The reference for the tiled loop."""
    d = np.shape(x)[-1]
    x = np.asarray(x, float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    ynodes, yw = _nodes(d, eps)
    out = np.zeros(len(pts))
    for t, coef in binomial_weights(s):
        out += coef * np.add.reduce(f(pts[:, None] - t * ynodes) * yw, axis=1)
    return float(out[0]) if single else out


def _targets(d):
    gauss = make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.1),
                                       width=0.3, amplitude=1.7))
    narrow = make_gaussian(GaussianSpec(d=d, width=0.05))
    return {"gaussian": gauss, "cusp": make_cusp_radial(2.5, d),
            "combine": combine(gauss, narrow, 1.0, -0.5)}


def _points(d, count):
    return np.random.default_rng(10 * d + count).uniform(-0.7, 0.7,
                                                         (count, d))


def _fsum_terms(f, s, eps, x):
    """The terms coef * w_j * f(x - t y_j) of x's value, f by evaluate."""
    ynodes, yw = _nodes(len(x), eps)
    return [coef * w * v for t, coef in binomial_weights(s)
            for w, v in zip(yw, f.evaluate(x - t * ynodes))]


def _assert_near_fsum(f, s, eps, pts, values):
    # an independent oracle: each point's value is within 4 ulp of
    # sum |coef w_j f(x_p - t y_j)| of the terms' exactly rounded sum
    for x, value in zip(pts, values):
        terms = _fsum_terms(f, s, eps, x)
        size = math.fsum(abs(term) for term in terms)
        assert abs(value - math.fsum(terms)) <= 4 * np.spacing(size)


class TestTiledApproximant:
    """The tiled loop gives the untiled loop's values bit for bit.

    A target's evaluate, a plain callable, takes the tile loop; a target
    with factors would take the separable sum (TestSeparableApproximant).
    """

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("target", ["gaussian", "cusp", "combine"])
    def test_bit_identical(self, d, s, target):
        f = _targets(d)[target].evaluate
        # two full tiles and a part one
        nodes = len(_nodes(d, 0.5)[0])
        pts = _points(d, 2 * (TILE_PAIRS // nodes) + 5)
        for eps in (0.5, 0.03125):
            assert np.array_equal(smooth_approximant(f, s, eps, pts),
                                  _untiled_approximant(f, s, eps, pts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_point(self, d):
        f = _targets(d)["gaussian"].evaluate
        x = _points(d, 1)[0]
        for s in (1, 2, 3):
            value = smooth_approximant(f, s, 0.25, x)
            assert isinstance(value, float)
            assert value == _untiled_approximant(f, s, 0.25, x)

    def test_many_points(self):
        f = _targets(2)["gaussian"].evaluate
        pts = _points(2, 1000)
        assert np.array_equal(smooth_approximant(f, 2, 0.125, pts),
                              _untiled_approximant(f, 2, 0.125, pts))

    def test_more_nodes_than_tile_pairs(self, monkeypatch):
        # 32 nodes per axis put 7416 in the d = 3 ball, more than a tile
        # holds, so every tile is one point by the whole node set
        monkeypatch.setitem(mollify.NODES_PER_AXIS, 3, 32)
        monkeypatch.setattr(mollify, "TILE_PAIRS", 4096)
        f = _targets(3)["combine"].evaluate
        pts = _points(3, 40)
        assert len(_nodes(3, 0.5)[0]) == 7416
        assert np.array_equal(smooth_approximant(f, 2, 0.5, pts),
                              _untiled_approximant(f, 2, 0.5, pts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_values_for_every_tile_size(self, monkeypatch, d):
        f = _targets(d)["combine"].evaluate
        nodes = len(_nodes(d, 0.25)[0])
        pts = _points(d, 300)
        values = []
        for pairs in (1, nodes - 1, nodes, 2 ** 12, 2 ** 15, 2 ** 20):
            monkeypatch.setattr(mollify, "TILE_PAIRS", pairs)
            values.append(smooth_approximant(f, 2, 0.25, pts))
        for other in values[1:]:
            assert np.array_equal(other, values[0])

    @staticmethod
    def _peak_bytes(f):
        pts = _points(2, 4096)
        smooth_approximant(f, 1, 0.25, pts[:8])
        tracemalloc.start()
        try:
            smooth_approximant(f, 1, 0.25, pts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_memory_is_a_few_tiles(self):
        # 4096 points by the 1200 nodes of the d = 2 ball: a (points x
        # nodes) array of values would take 39 MB, and a (points x 48 x
        # 48) array of the separable sum's products 75 MB
        assert self._peak_bytes(_targets(2)["gaussian"]) < 4 * 2 ** 20

    def test_tile_loop_working_memory_is_a_few_tiles(self):
        assert self._peak_bytes(_targets(2)["gaussian"].evaluate) < 4 * 2 ** 20

    def test_no_points(self):
        f = _targets(2)["cusp"]
        assert smooth_approximant(f, 1, 0.5, np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_calls_stay_within_tile_budget(self, d):
        f = _targets(d)["cusp"]
        pairs = []

        def recording(x):
            assert x.ndim == 3 and x.shape[-1] == d
            pairs.append(x.shape[0] * x.shape[1])
            return f(x)

        count, s = 1000, 2
        nodes = len(_nodes(d, 0.25)[0])
        smooth_approximant(recording, s, 0.25, _points(d, count))
        assert max(pairs) <= TILE_PAIRS
        # every (point, node) pair once per translate
        assert sum(pairs) == s * count * nodes

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("target", ["gaussian", "cusp", "combine"])
    def test_against_fsum(self, d, s, target):
        f = _targets(d)[target]
        pts = _points(d, 5)
        _assert_near_fsum(f, s, 0.25, pts,
                          smooth_approximant(f.evaluate, s, 0.25, pts))

    def test_rejects_points_of_another_dimension(self):
        # a d = 2 target is not mollified over the ball of R^3, by either
        # path: the separable sum checks f.d, evaluate the points
        gauss = _targets(2)["gaussian"]
        for f in (gauss, gauss.evaluate):
            with pytest.raises(ValueError,
                               match="points must have 2 coordinates"):
                smooth_approximant(f, 1, 0.5, _points(3, 4))

    def test_rejects_order_below_one(self):
        f = _targets(2)["gaussian"]
        for s in (0, -1):
            with pytest.raises(ValueError, match="s must be >= 1"):
                smooth_approximant(f, s, 0.5, _points(2, 3))

    @pytest.mark.parametrize("path", ["separable", "tiled"])
    def test_rejects_points_of_other_shapes(self, path):
        # a 0-d point and stacks of point sets name the accepted shapes,
        # by either path, instead of failing inside numpy
        f = _targets(2)["gaussian"]
        f = f if path == "separable" else f.evaluate
        for x in (np.float64(0.3), np.zeros((2, 3, 2)), np.zeros((1, 4, 3, 2)),
                  np.zeros((5, 0))):
            with pytest.raises(ValueError, match=r"shape \(d,\) or \(P, d\)"):
                smooth_approximant(f, 1, 0.5, x)


def _gaussians(d):
    """Three Gaussians: off-centre, narrow and centred, wide and negative."""
    return [make_gaussian(GaussianSpec(d=d, center=np.full(d, 0.1),
                                       width=0.3, amplitude=1.7)),
            make_gaussian(GaussianSpec(d=d, width=0.05)),
            make_gaussian(GaussianSpec(d=d, center=np.linspace(-0.3, 0.2, d),
                                       width=1.0, amplitude=-0.8))]


def _no_evaluate(f):
    """f whose evaluate fails: only its factors can be read."""
    def evaluate(x):
        raise AssertionError("evaluate called")
    return dataclasses.replace(f, evaluate=evaluate)


def _table(d, eps):
    """smooth_approximant's (u, table) for d and eps, at the node count it
    reads from NODES_PER_AXIS."""
    return mollify._ball_table(d, eps, mollify.NODES_PER_AXIS.get(d, 16))


def _orthant(table):
    """table[:k, ..., :k], k = ceil(n / 2): the part _separable_sum reads."""
    return table[(slice((len(table) + 1) // 2),) * table.ndim]


def _fold(fz):
    """h[a] = g[a] + g[n - 1 - a] for a < n // 2, and the middle entry
    alone for odd n, along axis 1 of fz (the node axis)."""
    n = fz.shape[1]
    pairs = [fz[:, a] + fz[:, n - 1 - a] for a in range(n // 2)]
    return np.ascontiguousarray(np.stack(pairs + [fz[:, n // 2]] * (n % 2),
                                         axis=1))


def _full_table_sum(factors, s, pts, u, table):
    """The separable sum over the whole orthant, all points in one tile:
    each factor folded, then an einsum per table axis that reads every row
    and column of the orthant, the point axis last and contiguous.  The
    reference for the bits of _separable_sum, which reads the orthant's
    rows in bands.  At least two points: numpy sums along a lone point's
    row in another order."""
    assert len(pts) >= 2
    d = table.ndim
    axes = "abcdefghijklmno"[:d]
    coords = np.ascontiguousarray(pts.T)
    out = np.zeros(len(pts))
    for t, coef in binomial_weights(s):
        z = coords[:, None, :] - (t * u)[:, None]
        sums = np.zeros(len(pts))
        for c, g in factors:
            h = _fold(g(z))
            v = np.einsum("%s,%sp->%sp" % (axes, axes[-1], axes[:-1]),
                          _orthant(table), h[-1]) if d > 1 else None
            for i in range(d - 2, 0, -1):
                v = np.einsum("%sp,%sp->%sp" % (axes[:i + 1], axes[i],
                                                axes[:i]), v, h[i])
            v = _orthant(table)[:, None] if v is None else v
            sums += np.add.reduce(h[0] * c * v, axis=0)
        out += coef * sums
    return out


def _whole_table_sum(factors, s, pts, u, table):
    """The separable sum over the whole table, unfolded: an einsum per
    table axis that reads all n^d entries, each point's row summed alone."""
    d, n = table.ndim, len(u)
    axes = "abcdefghijklmno"[:d]
    out = np.zeros(len(pts))
    for t, coef in binomial_weights(s):
        z = pts.T[:, :, None] - t * u
        sums = np.zeros(len(pts))
        for c, g in factors:
            fz = g(z)
            v, spec = table, axes
            for i in range(d - 1, 0, -1):
                v = np.einsum("%s,p%s->p%s" % (spec, axes[i], axes[:i]), v,
                              fz[i])
                spec = "p" + axes[:i]
            sums += np.add.reduce(fz[0] * c * v, axis=1)
        out += coef * sums
    return out


def _constant(d, value):
    """A target that is value everywhere, with one constant factor."""
    from ridgelab.targets import TargetFunction
    return TargetFunction(
        d=d, evaluate=lambda x: np.full(np.shape(x)[:-1], value),
        fourier=None, support_radius=np.inf,
        factors=((value, lambda z: np.ones(np.shape(z))),))


class TestBallTable:
    """The table has mass one; the separable sum reads its orthant, in
    bands, and what it leaves out must be the mirror image or exact zeros."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.0625, 1e-3])
    @pytest.mark.parametrize("odd", [False, True])
    def test_mirror_symmetric_and_zero_outside_the_bands(self, monkeypatch,
                                                         d, eps, odd):
        if odd:
            # the middle row of an odd count is its own mirror
            n = mollify.NODES_PER_AXIS.get(d, 16)
            monkeypatch.setitem(mollify.NODES_PER_AXIS, d, n - 1)
        u, table = _table(d, eps)
        n = len(u)
        assert n % 2 == odd
        for axis in range(d):
            assert np.array_equal(table, np.flip(table, axis))
        orthant = _orthant(table)
        half = len(orthant)
        read = np.zeros(orthant.shape, bool)
        bands = mollify._bands(orthant)
        assert [r0 for r0, _, _, _ in bands] == list(range(0, half,
                                                           mollify.BAND))
        for r0, r1, lo, hi in bands:
            assert r1 == min(r0 + mollify.BAND, half)
            block = orthant[r0:r1]
            if d > 1 and np.any(block):
                # the least range: an entry at lo and one at hi - 1 (the
                # table is symmetric in its axes, so axis 1 shows both)
                assert np.any(block[:, lo]) and np.any(block[:, hi - 1])
            read[(slice(r0, r1),) + (slice(lo, hi),) * (d - 1)] = True
        assert np.all(orthant[~read] == 0.0)
        # entries read per point and translate: 384 of the d = 2 orthant's
        # 576 (768 of the whole table's 2,304 before the fold), and 712 of
        # the d = 3 orthant's 1,000 (4,000 before)
        if d == 2:
            assert read.sum() == 384
        if d == 3:
            assert read.sum() == 712

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.0625, 1e-3])
    def test_unit_mass(self, d, eps):
        table = _table(d, eps)[1]
        assert abs(math.fsum(table.ravel()) - 1.0) <= 1e-15
        assert np.all(table >= 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_constant_is_reproduced_by_both_paths(self, d, s):
        f = _constant(d, 1.0)
        pts = _points(d, 20)
        for eps in (1.0, 0.25, 1e-3):
            separable = smooth_approximant(f, s, eps, pts)
            tiled = smooth_approximant(f.evaluate, s, eps, pts)
            np.testing.assert_allclose(separable, 1.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(tiled, 1.0, rtol=0, atol=1e-15)


class TestSeparableBits:
    """_separable_sum gives the bits of the folded contraction of the whole
    orthant, for every tile size and under any BLAS thread count."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("odd", [False, True])
    def test_equals_the_whole_orthant_contraction(self, monkeypatch, d, s,
                                                  odd):
        n = mollify.NODES_PER_AXIS[d]
        if odd:
            monkeypatch.setitem(mollify.NODES_PER_AXIS, d, n - 1)
        pts = _points(d, 40)
        for eps in (0.25, 1e-3):
            u, table = _table(d, eps)
            for f in _gaussians(d) + [_targets(d)["combine"]]:
                expect = _full_table_sum(f.factors, s, pts, u, table)
                for pairs in (1, n - 1, n, n * n - 1, n * n, 2 ** 12, 2 ** 15,
                              2 ** 22):
                    monkeypatch.setattr(mollify, "TILE_PAIRS", pairs)
                    assert np.array_equal(
                        mollify._separable_sum(f.factors, s, pts, u, table),
                        expect)

    @pytest.mark.parametrize("d", [2, 3])
    def test_groups_of_zero_rows_are_read_as_zeros(self, d):
        # phi underflows in whole groups of rows only for far more nodes
        # than NODES_PER_AXIS gives; zeroing the first and last BAND rows
        # keeps the table symmetric and leaves one group with no band
        u, table = _table(d, 0.5)
        table = table.copy()
        table[:mollify.BAND] = table[-mollify.BAND:] = 0.0
        assert mollify._bands(_orthant(table))[0][2:] == (0, 0)
        f = _targets(d)["combine"]
        pts = _points(d, 30)
        assert np.array_equal(mollify._separable_sum(f.factors, 2, pts, u,
                                                     table),
                              _full_table_sum(f.factors, 2, pts, u, table))


    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("odd", [False, True])
    def test_agrees_with_the_unfolded_whole_table(self, monkeypatch, d, s,
                                                  odd):
        # the fold reorders the sum only: within 1e-15 of the sum of the
        # absolute terms of the contraction of all n^d entries
        n = mollify.NODES_PER_AXIS[d]
        if odd:
            monkeypatch.setitem(mollify.NODES_PER_AXIS, d, n - 1)
        pts = _points(d, 12)
        for eps in (0.5, 0.0625):
            u, table = _table(d, eps)
            for f in _gaussians(d):
                folded = mollify._separable_sum(f.factors, s, pts, u, table)
                whole = _whole_table_sum(f.factors, s, pts, u, table)
                for x, a, b in zip(pts, folded, whole):
                    size = math.fsum(abs(term) for term
                                     in _fsum_terms(f, s, eps, x))
                    assert abs(a - b) <= 1e-15 * size


class TestSeparableApproximant:
    """Targets with factors are summed from their per-axis factors."""

    @pytest.mark.parametrize("target", ["gaussian", "combine"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluate_is_not_called(self, d, target):
        f = _targets(d)[target]
        pts = _points(d, 7)
        assert np.array_equal(
            smooth_approximant(_no_evaluate(f), 2, 0.25, pts),
            smooth_approximant(f, 2, 0.25, pts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_against_fsum(self, d, s):
        pts = _points(d, 5)
        for f in _gaussians(d):
            for eps in (0.5, 0.25, 0.0625):
                _assert_near_fsum(f, s, eps, pts,
                                  smooth_approximant(f, s, eps, pts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_combine_against_fsum(self, d, s):
        f = _targets(d)["combine"]
        assert len(f.factors) == 2
        pts = _points(d, 5)
        _assert_near_fsum(f, s, 0.25, pts, smooth_approximant(f, s, 0.25, pts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_the_tile_loop(self, d):
        # the same Gaussian by both paths, within the oracle's bound
        pts = _points(d, 5)
        for f in _gaussians(d):
            for s in (1, 2):
                separable = smooth_approximant(f, s, 0.25, pts)
                tiled = smooth_approximant(f.evaluate, s, 0.25, pts)
                for x, a, b in zip(pts, separable, tiled):
                    size = math.fsum(abs(term) for term
                                     in _fsum_terms(f, s, 0.25, x))
                    assert abs(a - b) <= 4 * np.spacing(size)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_values_for_every_tile_size(self, monkeypatch, d):
        f = _targets(d)["combine"]
        n = mollify.NODES_PER_AXIS[d]
        pts = _points(d, 300)
        values = []
        # one point per tile, tiles of a few points, and one tile
        for pairs in (1, n - 1, n, n * n - 1, n * n, 2 ** 12, 2 ** 15,
                      2 ** 22):
            monkeypatch.setattr(mollify, "TILE_PAIRS", pairs)
            values.append(smooth_approximant(f, 2, 0.25, pts))
        for other in values[1:]:
            assert np.array_equal(other, values[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_point(self, d):
        f = _targets(d)["combine"]
        pts = _points(d, 4)
        batch = smooth_approximant(f, 2, 0.25, pts)
        for x, expect in zip(pts, batch):
            value = smooth_approximant(f, 2, 0.25, x)
            assert isinstance(value, float)
            assert value == expect

    def test_no_points(self):
        f = _targets(2)["gaussian"]
        assert smooth_approximant(f, 1, 0.5, np.empty((0, 2))).shape == (0,)

    def test_cusp_parts_take_the_tile_loop(self):
        # a combine with a part that has no factors has none either
        f = combine(_targets(2)["gaussian"], _targets(2)["cusp"])
        assert f.factors is None
        pts = _points(2, 30)
        assert np.array_equal(smooth_approximant(f, 2, 0.25, pts),
                              smooth_approximant(f.evaluate, 2, 0.25, pts))


class TestTranslateLayout:
    """f receives the translates x_p - t y_j tile by tile: for each t, the
    tiles stacked are pts[:, None, :] - t * ynodes, each tile whole rows."""

    @staticmethod
    def _check_tiles(d, s, eps, pts):
        """Run smooth_approximant with an f that checks each tile against
        its rows of the translates; returns the tile heights."""
        ynodes = _nodes(d, eps)[0]
        at = {"t": 1, "p": 0}
        heights = []

        def recording(x):
            assert x.ndim == 3 and x.shape[-1] == d
            rows = x.shape[0]
            t, p = at["t"], at["p"]
            expect = pts[p:p + rows, None, :] - t * ynodes
            assert x.shape == expect.shape and np.array_equal(x, expect)
            heights.append(rows)
            at["p"] += rows
            if at["p"] == len(pts):
                at.update(p=0, t=t + 1)
            return np.zeros(x.shape[:2])

        smooth_approximant(recording, s, eps, pts)
        assert (at["t"], at["p"]) == (s + 1, 0)
        return heights

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tiles_are_the_translates(self, d):
        # three tiles per translate, the last one part full
        nodes = len(_nodes(d, 0.25)[0])
        rows = TILE_PAIRS // nodes
        pts = _points(d, 2 * rows + 5)
        assert self._check_tiles(d, 2, 0.25, pts) == [rows, rows, 5] * 2

    def test_one_point_tiles_beyond_tile_pairs(self, monkeypatch):
        # the 7416 nodes of the d = 3 ball at 32 per axis fill more than a
        # tile: a point's row is never split, so each tile is one point
        monkeypatch.setitem(mollify.NODES_PER_AXIS, 3, 32)
        monkeypatch.setattr(mollify, "TILE_PAIRS", 4096)
        heights = self._check_tiles(3, 2, 0.5, _points(3, 30))
        assert heights == [1] * 60

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_contiguous_copy_gives_the_same_values(self, d):
        f = _targets(d)["gaussian"].evaluate
        pts = _points(d, 600)
        for s in (1, 2):
            assert np.array_equal(
                smooth_approximant(lambda x: f(np.ascontiguousarray(x)),
                                   s, 0.25, pts),
                smooth_approximant(f, s, 0.25, pts))


class TestGaussianEvaluate:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_closed_form_bit_for_bit(self, d):
        spec = GaussianSpec(d=d, center=np.linspace(-0.2, 0.3, d),
                            width=0.37, amplitude=-1.3)
        f = make_gaussian(spec)
        c, s2, a = spec.center, spec.width, spec.amplitude
        for x in (_points(d, 50), _points(d, 12).reshape(3, 4, d)):
            expect = a * np.exp(-np.sum((x - c) ** 2, -1) / (2.0 * s2))
            assert np.array_equal(f(x), expect)
        x = _points(d, 1)[0]
        value = f(x)
        expect = a * np.exp(-np.sum((x - c) ** 2, -1) / (2.0 * s2))
        assert type(value) is type(expect) is np.float64
        assert value == expect
