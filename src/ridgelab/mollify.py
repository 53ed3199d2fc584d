"""Smoothing machinery: mollifier, binomial approximant, difference
operator, and the epsilon(n) coupling schedule.

The mollifier is the standard bump phi(x) = Z_d^{-1} exp(-1/(1-|x|^2)) on
|x| < 1, normalized to unit mass, rescaled as phi_eps(x) = eps^{-d}
phi(x/eps).  The order-s approximant is the binomial combination

    f_eps(x) = sum_{t=1}^{s} C(s,t) (-1)^{t-1} int phi_eps(y) f(x - t y) dy,

whose error against f is controlled by the s-fold difference of f.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .quadrature import surface_area

MIN_NODES_PER_AXIS = 8

# (point, node) pairs per call of f in smooth_approximant (a tile is at
# least one point by one node chunk).  Measured with the axis-major
# translate buffer as the time of the seven calls of the epsilon schedule
# at 4096 points (d = 2, Gaussian target, 1200 nodes per translate; best of
# 3, one BLAS thread, 2-core Xeon with 2 MiB L2 per core, numpy 2.4; ranges
# over 3 interleaved sessions): 2^12 pairs 0.58-0.65 s, 2^13 0.44-0.53 s,
# 2^14 0.41 s, 2^15 0.37-0.44 s, 2^16 0.39-0.46 s, 2^17 0.46-0.49 s, 2^18
# 0.50-0.56 s.  2^14 led one session, 2^15 another, and they tied in the
# third, so no size led in every session.
# Smaller tiles pay more calls, larger ones leave the cache.
TILE_PAIRS = 2 ** 15


@dataclass(frozen=True)
class MollifierSpec:
    d: int
    eps: float = 1.0
    s: int = 1

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError("eps must lie in (0, 1]")
        if self.s < 1:
            raise ValueError("order s must be >= 1")


def _bump_raw(r2):
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


@lru_cache(maxsize=None)
def _bump_norm(d):
    """Z_d so that the unit-scale bump integrates to one."""
    val, _ = quad(lambda r: r ** (d - 1) * math.exp(-1.0 / (1.0 - r * r)),
                  0.0, 1.0, limit=200)
    return surface_area(d) * val


def mollifier_value(spec, x):
    """phi_eps(x) = eps^{-d} phi(x / eps); radial, supported in |x| < eps."""
    x = np.asarray(x, float)
    r2 = np.sum((x / spec.eps) ** 2, axis=-1)
    scalar = r2.ndim == 0
    r2 = np.atleast_1d(r2)
    vals = _bump_raw(r2) / (_bump_norm(spec.d) * spec.eps ** spec.d)
    return float(vals[0]) if scalar else vals


def binomial_weights(s):
    """Signed weights C(s,t)(-1)^{t-1} for t = 1..s; they sum to one exactly."""
    return [(t, math.comb(s, t) * (-1) ** (t - 1)) for t in range(1, s + 1)]


def finite_difference(f, y, s, x):
    """s-fold difference Delta_y^s f(x) = sum_t C(s,t)(-1)^t f(x - t y)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    out = None
    for t in range(s + 1):
        term = math.comb(s, t) * (-1) ** t * np.asarray(f(x - t * y), float)
        out = term if out is None else out + term
    return out


def _ball_quadrature(d, eps, nodes_per_axis):
    """Tensor Gauss-Legendre nodes/weights on [-eps, eps]^d weighted by
    phi_eps (zero weight outside the eps-ball)."""
    u, w = leggauss(nodes_per_axis)
    u = u * eps
    w = w * eps
    grids = np.meshgrid(*([u] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wts = np.ones(len(pts))
    for axis in range(d):
        wts *= np.tile(np.repeat(w, nodes_per_axis ** (d - 1 - axis)),
                       nodes_per_axis ** axis)
    phi = mollifier_value(MollifierSpec(d=d, eps=eps), pts)
    keep = phi > 0.0
    return pts[keep], wts[keep] * phi[keep]


def smooth_approximant(f, s, eps, x, nodes_per_axis=None):
    """Evaluate the order-s binomial approximant f_eps at x (point or batch).

    Each convolution is computed by tensor Gauss-Legendre quadrature over
    the eps-ball; nodes_per_axis controls the resolution.  f is called on
    tiles of at most TILE_PAIRS (point, node) pairs: a (rows, nodes, d)
    view, x[p, j] = x_p - t y_j, of one reused axis-major buffer.  The view
    is not C-contiguous, and f must not keep it.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if s < 1:
        raise ValueError("s must be >= 1")
    d = np.shape(x)[-1]
    if nodes_per_axis is None:
        nodes_per_axis = {1: 64, 2: 48, 3: 20}.get(d, 16)
    if nodes_per_axis < MIN_NODES_PER_AXIS:
        warnings.warn("quadrature resolution per eps-ball is below the floor "
                      "of %d nodes per axis" % MIN_NODES_PER_AXIS)
    x = np.asarray(x, float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    ynodes, yw = _ball_quadrature(d, eps, nodes_per_axis)
    out = np.zeros(len(pts))
    chunk = max(1, int(5e6 / max(len(pts), 1)))
    width = min(chunk, len(ynodes))
    values = np.empty(len(pts) * width)
    buf = np.empty(max(TILE_PAIRS, width) * d)
    ycols = np.ascontiguousarray(ynodes.T)
    for t, coef in binomial_weights(s):
        acc = np.zeros(len(pts))
        for lo in range(0, len(ynodes), chunk):
            # f fills the chunk's values tile by tile; the chunk is then
            # reduced by one matrix-vector product over all points, because
            # BLAS rounds a row's sum differently with the number of rows
            # and the thread split, and per-tile products would not
            # reproduce the untiled sums
            ty = t * ycols[:, lo:lo + chunk]
            nodes = ty.shape[1]
            fv = values[:len(pts) * nodes].reshape(len(pts), nodes)
            rows = max(1, TILE_PAIRS // nodes)
            for p in range(0, len(pts), rows):
                tile = pts[p:p + rows]
                # axis-major, so that each axis is one contiguous subtract
                # rather than a broadcast with an inner loop of d elements
                shifted = buf[:tile.size * nodes].reshape(d, len(tile), nodes)
                for i in range(d):
                    np.subtract(tile[:, i, None], ty[i], out=shifted[i])
                fv[p:p + rows] = f(np.moveaxis(shifted, 0, -1))
            acc += fv @ yw[lo:lo + chunk]
        out += coef * acc
    return float(out[0]) if single else out


def epsilon_schedule(n, d):
    """Coupling scale eps = n^{-1/d}, clamped to (0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(1.0, float(n) ** (-1.0 / d))
