import math

import numpy as np
import pytest
from scipy import integrate, special

from ridgelab import mollify
from ridgelab.mollify import (TILE_PAIRS, MollifierSpec, _ball_quadrature,
                              binomial_weights, epsilon_schedule,
                              finite_difference, mollifier_value,
                              smooth_approximant)
from ridgelab.targets import (GaussianSpec, combine, make_cusp_radial,
                              make_gaussian)


class TestMollifier:
    def test_compact_support(self):
        spec = MollifierSpec(d=2, eps=0.5, s=1)
        assert mollifier_value(spec, np.array([0.5, 0.0])) == 0.0
        assert mollifier_value(spec, np.array([0.6, 0.1])) == 0.0
        assert mollifier_value(spec, np.array([0.2, 0.1])) > 0.0

    def test_unit_mass_1d(self):
        for eps in (1.0, 0.25):
            spec = MollifierSpec(d=1, eps=eps, s=1)
            mass, _ = integrate.quad(
                lambda x: mollifier_value(spec, np.array([x])), -eps, eps,
                limit=200)
            np.testing.assert_allclose(mass, 1.0, atol=1e-8)

    def test_unit_mass_2d(self):
        spec = MollifierSpec(d=2, eps=1.0, s=1)
        mass, _ = integrate.quad(
            lambda r: 2 * np.pi * r * mollifier_value(spec,
                                                      np.array([r, 0.0])),
            0, 1, limit=200)
        np.testing.assert_allclose(mass, 1.0, atol=1e-8)

    def test_bump_norm_closed_forms(self):
        # Z_1 = e^{-1/2} (K_1(1/2) - K_0(1/2)) and Z_2 = pi E_2(1)
        z1 = math.exp(-0.5) * (special.k1(0.5) - special.k0(0.5))
        z2 = math.pi * special.expn(2, 1.0)
        np.testing.assert_allclose(mollify._bump_norm(1), z1, rtol=1e-15)
        np.testing.assert_allclose(mollify._bump_norm(2), z2, rtol=1e-15)

    def test_bump_norm_refined_rule_agrees(self, monkeypatch):
        # no closed form at d = 3; the rule with twice the nodes agrees to
        # the rounding of numpy's Gauss-Legendre weights (3.3e-15 here)
        z3 = mollify._bump_norm(3)
        monkeypatch.setattr(mollify, "BUMP_NORM_NODES",
                            2 * mollify.BUMP_NORM_NODES)
        np.testing.assert_allclose(mollify._bump_norm.__wrapped__(3), z3,
                                   rtol=5e-15)

    def test_even_symmetry(self):
        spec = MollifierSpec(d=3, eps=0.7, s=1)
        x = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(mollifier_value(spec, x),
                                   mollifier_value(spec, -x))

    def test_validation(self):
        with pytest.raises(ValueError):
            MollifierSpec(d=2, eps=0.0, s=1)
        with pytest.raises(ValueError):
            MollifierSpec(d=2, eps=1.5, s=1)


class TestFiniteDifference:
    def test_s1_is_plain_difference(self):
        f = make_gaussian(GaussianSpec(d=2))
        x = np.array([0.3, 0.1])
        y = np.array([0.05, -0.02])
        np.testing.assert_allclose(finite_difference(f, y, 1, x),
                                   f(x) - f(x - y))

    def test_annihilates_affine(self):
        affine = lambda x: 2.0 + 3.0 * np.atleast_2d(x)[:, 0]
        x = np.array([[0.4]])
        val = finite_difference(affine, np.array([0.1]), 2, x)
        np.testing.assert_allclose(val, 0.0, atol=1e-12)

    def test_quadratic_second_difference(self):
        quad = lambda x: np.atleast_2d(x)[:, 0] ** 2
        val = finite_difference(quad, np.array([0.1]), 2, np.array([[0.7]]))
        np.testing.assert_allclose(val, 2 * 0.1 ** 2, atol=1e-14)

    def test_binomial_weights_sum_to_one(self):
        # sum_t C(s,t) (-1)^(t-1) = 1, so constants are preserved
        for s in range(1, 6):
            total = sum(c for _, c in binomial_weights(s))
            np.testing.assert_allclose(total, 1.0)


class TestSmoothApproximant:
    def test_constant_is_reproduced(self):
        from ridgelab.targets import TargetFunction
        const = TargetFunction(d=2, evaluate=lambda x: np.ones(np.shape(x)[:-1]),
                               fourier=None, support_radius=np.inf,
                               smoothness_class="smooth")
        x = np.array([[0.1, 0.2], [0.0, 0.0]])
        for s in (1, 2):
            np.testing.assert_allclose(
                smooth_approximant(const, s, 0.25, x), 1.0, atol=1e-10)

    def test_linear_is_reproduced_s1(self):
        from ridgelab.targets import TargetFunction
        lin = TargetFunction(d=1, evaluate=lambda x: np.asarray(x)[..., 0],
                             fourier=None, support_radius=np.inf,
                             smoothness_class="smooth")
        x = np.array([[0.3], [-0.6]])
        np.testing.assert_allclose(smooth_approximant(lin, 1, 0.25, x),
                                   x[:, 0], atol=1e-10)

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


DEFAULT_NODES = {1: 64, 2: 48, 3: 20}


def _untiled_approximant(f, s, eps, x, nodes_per_axis=None):
    """smooth_approximant as it was before tiling: one (points, nodes, d)
    array per node chunk.  The reference for the tiled loop."""
    d = np.shape(x)[-1]
    if nodes_per_axis is None:
        nodes_per_axis = DEFAULT_NODES[d]
    x = np.asarray(x, float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    ynodes, yw = _ball_quadrature(d, eps, nodes_per_axis)
    out = np.zeros(len(pts))
    chunk = max(1, int(5e6 / max(len(pts), 1)))
    for t, coef in binomial_weights(s):
        acc = np.zeros(len(pts))
        for lo in range(0, len(ynodes), chunk):
            yq = ynodes[lo:lo + chunk]
            shifted = pts[:, None, :] - t * yq[None, :, :]
            acc += f(shifted) @ yw[lo:lo + chunk]
        out += coef * acc
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


class TestTiledApproximant:
    """The tiled loop gives the untiled loop's values bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("target", ["gaussian", "cusp", "combine"])
    def test_bit_identical(self, d, s, target):
        f = _targets(d)[target]
        # two full tiles and a part one
        nodes = len(_ball_quadrature(d, 0.5, DEFAULT_NODES[d])[0])
        pts = _points(d, 2 * (TILE_PAIRS // nodes) + 5)
        for eps in (0.5, 0.03125):
            assert np.array_equal(smooth_approximant(f, s, eps, pts),
                                  _untiled_approximant(f, s, eps, pts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_point(self, d):
        f = _targets(d)["gaussian"]
        x = _points(d, 1)[0]
        for s in (1, 2, 3):
            value = smooth_approximant(f, s, 0.25, x)
            assert isinstance(value, float)
            assert value == _untiled_approximant(f, s, 0.25, x)

    def test_many_points(self):
        f = _targets(2)["gaussian"]
        pts = _points(2, 1000)
        assert np.array_equal(smooth_approximant(f, 2, 0.125, pts),
                              _untiled_approximant(f, 2, 0.125, pts))

    def test_several_node_chunks(self):
        # 700 points allow 7142 nodes per chunk; 32 nodes per axis put
        # 7416 in the d = 3 ball, so the chunks are two
        f = _targets(3)["combine"]
        pts = _points(3, 700)
        assert np.array_equal(
            smooth_approximant(f, 1, 0.5, pts, nodes_per_axis=32),
            _untiled_approximant(f, 1, 0.5, pts, nodes_per_axis=32))

    def test_no_points(self):
        f = _targets(2)["gaussian"]
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
        nodes = len(_ball_quadrature(d, 0.25, DEFAULT_NODES[d])[0])
        smooth_approximant(recording, s, 0.25, _points(d, count))
        assert max(pairs) <= TILE_PAIRS
        # every (point, node) pair once per translate
        assert sum(pairs) == s * count * nodes

    def test_rejects_order_below_one(self):
        f = _targets(2)["gaussian"]
        for s in (0, -1):
            with pytest.raises(ValueError, match="s must be >= 1"):
                smooth_approximant(f, s, 0.5, _points(2, 3))


class TestTranslateLayout:
    """f receives the translates x_p - t y_j tile by tile: for each t and
    node chunk, the tiles stacked are pts[:, None, :] - t * ynodes[chunk]."""

    @staticmethod
    def _check_tiles(d, s, eps, pts, nodes_per_axis=None):
        """Run smooth_approximant with an f that checks each tile against
        its rows of the chunk's translates; returns the number of chunks."""
        ynodes = _ball_quadrature(d, eps, nodes_per_axis or DEFAULT_NODES[d])[0]
        at = {"t": 1, "lo": 0, "p": 0, "chunks": 0}

        def recording(x):
            assert x.ndim == 3 and x.shape[-1] == d
            rows, width = x.shape[:2]
            t, lo, p = at["t"], at["lo"], at["p"]
            expect = pts[p:p + rows, None, :] - t * ynodes[lo:lo + width]
            assert x.shape == expect.shape and np.array_equal(x, expect)
            at["p"] += rows
            if at["p"] == len(pts):
                at.update(p=0, lo=lo + width, chunks=at["chunks"] + 1)
                if at["lo"] == len(ynodes):
                    at.update(lo=0, t=t + 1)
            return np.zeros((rows, width))

        smooth_approximant(recording, s, eps, pts, nodes_per_axis)
        assert (at["t"], at["lo"], at["p"]) == (s + 1, 0, 0)
        return at["chunks"]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tiles_are_the_translates(self, d):
        # three tiles per chunk, one chunk per translate
        nodes = len(_ball_quadrature(d, 0.25, DEFAULT_NODES[d])[0])
        pts = _points(d, 2 * (TILE_PAIRS // nodes) + 5)
        assert self._check_tiles(d, 2, 0.25, pts) == 2

    def test_tiles_over_two_node_chunks(self):
        # as in test_several_node_chunks: two chunks per translate
        assert self._check_tiles(3, 2, 0.5, _points(3, 700), 32) == 4

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_contiguous_copy_gives_the_same_values(self, d):
        f = _targets(d)["gaussian"]
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
