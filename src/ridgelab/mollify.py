"""Smoothing machinery: mollifier, binomial approximant, difference
operator, and the epsilon(n) coupling schedule.

The mollifier is the standard bump phi(x) = Z_d^{-1} exp(-1/(1-|x|^2)) on
|x| < 1, normalized to unit mass, rescaled as phi_eps(x) = eps^{-d}
phi(x/eps).  The order-s approximant is the binomial combination

    f_eps(x) = sum_{t=1}^{s} C(s,t) (-1)^{t-1} int phi_eps(y) f(x - t y) dy,

whose error against f is controlled by the s-fold difference of f.

smooth_approximant integrates over the eps-ball by a tensor Gauss-Legendre
rule, its weight table built on each call from a rule built once per node
count.  Targets with factors (Gaussians and combines of Gaussians, see
TargetFunction) are summed axis by axis from their per-axis factors,
reading only the leading half of the mirror-symmetric table and, in it,
only the blocks that hold nonzero weights; every other target, such as
the cusp, and any plain callable f is called on tiles of translates, one
value per ball node.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import gauss_legendre, surface_area

# Gauss-Legendre nodes per axis of smooth_approximant's tensor rule on the
# eps-ball, by dimension (16 beyond d = 3).
NODES_PER_AXIS = {1: 64, 2: 48, 3: 20}

# Gauss-Legendre nodes on [0, 1] for the bump's normalization Z_d: the
# integrand is C-infinity, and 256 nodes put Z_1, Z_2 and Z_3 within 3e-16
# (relative) of a 40-digit quadrature.
BUMP_NORM_NODES = 256

# (point, node) pairs per call of f in smooth_approximant's tile loop (a
# tile is at least one point by the whole node set), and entries per
# factor or partial sum in its separable sum.  Measured as the time of the
# seven calls of the epsilon schedule at 4096 points (d = 2, Gaussian
# target, 1200 nodes per translate; best of 3, one BLAS thread, 2-core Xeon
# with 2 MiB L2 per core, numpy 2.4; ranges over 3 interleaved sessions),
# through the tile loop: 2^12 pairs 0.33-0.47 s, 2^13 0.27-0.36 s, 2^14
# 0.22-0.30 s, 2^15 0.25-0.31 s, 2^16 0.30-0.37 s, 2^17 0.35-0.43 s.  2^14
# led two sessions and tied 2^13 in the third.  Through the banded
# separable sum (best of 3; ranges over 3 sessions): 0.09-0.13 s at 2^10,
# 0.05-0.07 s at 2^12, 0.04-0.06 s at 2^13 and 2^14, 0.04-0.07 s at 2^15,
# 0.06-0.09 s at 2^17 and 2^18; at d = 3 (512 points, s = 2, eps = 0.5,
# 0.25, 0.125) 21-33 ms at 2^12, 10-22 ms at 2^14 and 2^15 and 9-17 ms
# from 2^16 to 2^18.  Smaller tiles pay more calls, larger ones leave the
# cache.
TILE_PAIRS = 2 ** 14

# Rows of the ball table per einsum call of the separable sum, and the
# multiple of entries to which each call's column band is rounded.  numpy's
# einsum sums a pair of contiguous rows into one accumulator of two-double
# vectors (its 128-bit baseline build), four vectors per step: a band that
# starts and ends on a multiple of 8 entries keeps every entry in the lane
# and the step it had in the whole row, and every step it drops adds only
# zero products, so the values keep their bits.
BAND = 8


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
    """Z_d so that the unit-scale bump integrates to one: the area of
    S^{d-1} times the integral of r^{d-1} exp(-1/(1-r^2)) over [0, 1]."""
    u, w = gauss_legendre(BUMP_NORM_NODES)
    r = 0.5 * (u + 1.0)
    return surface_area(d) * math.fsum(
        0.5 * w * r ** (d - 1) * np.exp(-1.0 / (1.0 - r * r)))


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


def _ball_table(d, eps, nodes_per_axis):
    """(u, table): the Gauss-Legendre nodes u on [-eps, eps] and the
    (nodes_per_axis,) * d tensor of weights w_a w_b ... phi_eps(u_a, u_b,
    ...), zero outside the eps-ball.  phi is radial and the rule symmetric,
    so the table is mirror-symmetric along every axis, bit for bit."""
    u, w = gauss_legendre(nodes_per_axis)
    u = u * eps
    w = w * eps
    grids = np.meshgrid(*([u] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wts = np.ones(len(pts))
    for axis in range(d):
        wts *= np.tile(np.repeat(w, nodes_per_axis ** (d - 1 - axis)),
                       nodes_per_axis ** axis)
    table = wts * mollifier_value(MollifierSpec(d=d, eps=eps), pts)
    return u, table.reshape((nodes_per_axis,) * d)


def _ball_quadrature(d, eps, nodes_per_axis):
    """The nonzero entries of _ball_table in C order: nodes (m, d) and
    weights (m,)."""
    u, table = _ball_table(d, eps, nodes_per_axis)
    keep = np.nonzero(table)
    return np.column_stack([u[i] for i in keep]), table[keep]


def _bands(table):
    """The blocks of the table that _separable_sum reads: (r0, r1, lo, hi)
    for each group of BAND rows r0 <= a < r1 of the leading half,
    a < ceil(n / 2), such that every nonzero entry of table[r0:r1] has its
    other indices in [lo, hi).  lo and hi are multiples of BAND, or hi is
    n; a group with no nonzero entry (or a table with one axis) has
    lo = hi = 0.  Read from the built table: phi can underflow to zero
    inside the ball's rim."""
    n = len(table)
    half = (n + 1) // 2
    bands = []
    for r0 in range(0, half, BAND):
        r1 = min(r0 + BAND, half)
        cols = np.array(np.nonzero(table[r0:r1])[1:])
        lo = hi = 0
        if cols.size:
            lo = BAND * (int(cols.min()) // BAND)
            hi = min(n, BAND * math.ceil((cols.max() + 1) / BAND))
        bands.append((r0, r1, lo, hi))
    return bands


def smooth_approximant(f, s, eps, x):
    """Evaluate the order-s binomial approximant f_eps at x (point or batch).

    Each convolution is computed by tensor Gauss-Legendre quadrature over
    the eps-ball, NODES_PER_AXIS nodes per axis.  A target with factors
    (a Gaussian, or a combine of Gaussians) is summed axis by axis from
    its per-axis factors (_separable_sum); any other target or plain
    callable f is called on tiles of translates (_tiled_sum).  A point's
    value does not depend on the tile size (TILE_PAIRS).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if s < 1:
        raise ValueError("s must be >= 1")
    x = np.asarray(x, float)
    if x.ndim not in (1, 2) or x.shape[-1] < 1:
        raise ValueError("x must have shape (d,) or (P, d) with d >= 1, "
                         "got shape %s" % (x.shape,))
    d = x.shape[-1]
    single = x.ndim == 1
    pts = x[None, :] if single else x
    n = NODES_PER_AXIS.get(d, 16)
    factors = getattr(f, "factors", None)
    if factors is None:
        out = _tiled_sum(f, s, pts, *_ball_quadrature(d, eps, n))
    elif f.d != d:
        raise ValueError("points must have %d coordinates, got shape %s"
                         % (f.d, x.shape))
    else:
        out = _separable_sum(factors, s, pts, *_ball_table(d, eps, n))
    return float(out[0]) if single else out


def _tiled_sum(f, s, pts, ynodes, yw):
    """sum_t coef_t sum_j yw_j f(x_p - t y_j) for every row x_p of pts.

    f is called on tiles of whole rows, at most TILE_PAIRS (point, node)
    pairs or else one point: a (rows, nodes, d) view, x[p, j] = x_p - t
    y_j, of one reused axis-major buffer.  The view is not C-contiguous,
    and f must not keep it.  Each tile's values are weighted and summed
    row by row at once.
    """
    d = pts.shape[1]
    nodes = len(ynodes)
    rows = max(1, TILE_PAIRS // nodes)
    height = min(rows, len(pts))
    # numpy runs a broadcast over a (rows, nodes) tile through its chunked
    # buffers at up to twice the cost of a pass over contiguous tiles, so
    # the node coordinates and weights are tiled out once and each tile's
    # points are copied in; the translates are axis-major
    shifted = np.empty((d, height, nodes))
    weighted = np.empty((height, nodes))
    wrows = np.tile(yw, (height, 1))
    out = np.zeros(len(pts))
    acc = np.empty(len(pts))
    for t, coef in binomial_weights(s):
        trows = np.tile(t * ynodes.T[:, None, :], (1, height, 1))
        for p in range(0, len(pts), rows):
            tile = pts[p:p + rows]
            xs = shifted[:, :len(tile)]
            np.copyto(xs, tile.T[:, :, None])
            np.subtract(xs, trows[:, :len(tile)], out=xs)
            # reduced while in cache: numpy's pairwise sum along a row gives
            # the same bits for any tile height and BLAS thread count
            fw = np.multiply(f(xs.transpose(1, 2, 0)), wrows[:len(tile)],
                             out=weighted[:len(tile)])
            np.add.reduce(fw, axis=1, out=acc[p:p + rows])
        out += coef * acc
    return out


def _separable_sum(factors, s, pts, u, table):
    """The sum of _tiled_sum for f = sum of c prod_i g(z)[i] (factors).

    Over the tensor rule the sum factorizes.  For each term the table is
    contracted against the per-axis factors g(x_p,i - t u_a), one axis at
    a time from the last: d n exponentials per point and translate instead
    of one call of f per ball node.  Axes d-1..1 are contracted by numpy
    einsum loops (no BLAS); axis 0 by a product with the factor scaled by
    c and numpy's pairwise sum along each row, which keeps a value within
    a few ulp of the exact sum.

    The table is mirror-symmetric along every axis, so the partial sum over
    axes 1..d-1 is mirror-symmetric along axis 0: only its leading
    ceil(n/2) rows are contracted, and the last product reads them twice.
    Those rows are contracted BAND at a time over their band of nonzero
    entries (_bands), which drops only whole zero steps of einsum's sum, so
    every value has the bits of the contraction of the whole table.  Each
    point's row is summed alone, into C-ordered buffers, so the values
    depend on neither the tile height nor the BLAS thread count.  Tiles
    hold whole points, at most TILE_PAIRS entries per axis factor and per
    whole partial sum, or else one point.
    """
    d, n = table.ndim, len(u)
    half = (n + 1) // 2
    rows = max(1, TILE_PAIRS // n ** max(1, d - 1))
    height = min(rows, len(pts))
    axes = "abcdefghijklmno"[:d]
    # steps[i - 1] contracts axis i of the partial sum over axes i..d-1
    # into partial[i - 1]; the table itself has no point axis
    steps = ["p%s,p%s->p%s" % (axes[:i + 1], axes[i], axes[:i])
             for i in range(1, d)]
    steps[-1:] = [step[1:] for step in steps[-1:]]
    partial = [np.empty((height, half) + (n,) * (i - 1)) for i in range(1, d)]
    bands = _bands(table)
    shifted = np.empty((d, height, n))
    last = np.empty((height, n))
    out = np.zeros(len(pts))
    acc = np.empty(len(pts))
    for t, coef in binomial_weights(s):
        for p in range(0, len(pts), rows):
            tile = pts[p:p + rows]
            m = len(tile)
            z = shifted[:, :m]
            # the translates x_p - (t y_j) of _tiled_sum, axis by axis
            np.subtract(tile.T[:, :, None], t * u, out=z)
            sums = acc[p:p + m]
            sums[:] = 0.0
            for c, g in factors:
                fz = g(z)
                for r0, r1, lo, hi in bands:
                    block = (slice(r0, r1),) + (slice(lo, hi),) * (d - 1)
                    v = table[block]
                    for i in range(d - 1, 0, -1):
                        v = np.einsum(steps[i - 1], v, fz[i][:, lo:hi],
                                      out=partial[i - 1][(slice(m),)
                                                         + block[:i]])
                v = partial[0][:m] if partial else table[:half]
                # the coefficient scales the factor, not the sum
                w = np.multiply(fz[0], c, out=last[:m])
                w[:, :half] *= v
                w[:, half:] *= v[..., :n - half][..., ::-1]
                sums += np.add.reduce(w, axis=1)
        out += coef * acc
    return out


def epsilon_schedule(n, d):
    """Coupling scale eps = n^{-1/d}, clamped to (0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(1.0, float(n) ** (-1.0 / d))
