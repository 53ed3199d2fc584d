"""Smoothing machinery: mollifier, binomial approximant, and the epsilon(n)
coupling schedule.

The mollifier is the standard bump phi(x) = Z_d^{-1} exp(-1/(1-|x|^2)) on
|x| < 1, normalized to unit mass, rescaled as phi_eps(x) = eps^{-d}
phi(x/eps).  The order-s approximant is the binomial combination

    f_eps(x) = sum_{t=1}^{s} C(s,t) (-1)^{t-1} int phi_eps(y) f(x - t y) dy,

whose error against f is controlled by the s-fold difference of f.

smooth_approximant integrates over the eps-ball by a tensor Gauss-Legendre
rule, its weight table built on each call from a rule built once per node
count and divided by its own sum, so that the discrete mollifier has mass
one and reproduces constants without Z_d.  Targets with factors
(Gaussians and combines of Gaussians, see TargetFunction) are summed axis
by axis from their per-axis factors, each folded onto the
mirror-symmetric table's orthant, reading in it only the blocks that hold
nonzero weights; every other target, such as the cusp, and any plain
callable f is called on tiles of translates, one value per ball node.
"""

import math

import numpy as np

from .quadrature import gauss_legendre

# Gauss-Legendre nodes per axis of smooth_approximant's tensor rule on the
# eps-ball, by dimension (16 beyond d = 3).
NODES_PER_AXIS = {1: 64, 2: 48, 3: 20}

# (point, node) pairs per call of f in smooth_approximant's tile loop (a
# tile is at least one point by the whole node set), and entries per
# factor or partial sum in its separable sum.  Measured as the time of the
# seven calls of the epsilon schedule at 4096 points (d = 2, Gaussian
# target, 1200 nodes per translate; best of 3, one BLAS thread, 2-core Xeon
# with 2 MiB L2 per core, numpy 2.4; ranges over 3 interleaved sessions),
# through the tile loop: 2^12 pairs 0.33-0.47 s, 2^13 0.27-0.36 s, 2^14
# 0.22-0.30 s, 2^15 0.25-0.31 s, 2^16 0.30-0.37 s, 2^17 0.35-0.43 s.  2^14
# led two sessions and tied 2^13 in the third.  Through the separable sum
# over the orthant (best of 5, 3 sessions): 30-45 ms at 2^12, 23-32 ms at
# 2^13, 21-30 ms at 2^14, 19-27 ms at 2^15, 20-27 ms at 2^16 and 41-56 ms
# at 2^17; at d = 3 (512 points, s = 2, eps = 0.5, 0.25, 0.125) 8-10 ms at
# 2^12, 3.3-4.8 ms at 2^14 and 2.2-4.3 ms from 2^15 to 2^17.  Smaller tiles
# pay more calls, larger ones leave the cache.
TILE_PAIRS = 2 ** 14

# Rows of the ball table's orthant per einsum call of the separable sum.
# The same seven calls took 25-27 ms in groups of 2 rows, 22-29 ms of 4,
# 20-23 ms of 8, 21-31 ms of 12 and 22-36 ms of 24 (d = 3: 3.3-4.7 ms at
# 8): fewer rows read fewer zero entries and pay more calls.
BAND = 8


def _bump_raw(r2):
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def binomial_weights(s):
    """Signed weights C(s,t)(-1)^{t-1} for t = 1..s; they sum to one exactly."""
    return [(t, math.comb(s, t) * (-1) ** (t - 1)) for t in range(1, s + 1)]


def _ball_table(d, eps, nodes_per_axis):
    """(u, table): the Gauss-Legendre nodes u on [-eps, eps] and the
    (nodes_per_axis,) * d tensor of weights w_a w_b ... phi(u_a, u_b, ...)
    of the unit-scale rule, zero outside the ball, divided by their own sum.

    The table has mass one by construction, so no run needs the bump's
    norm Z_d, and it does not depend on eps: the rule scales with the ball,
    and the division cancels eps^d.  phi is radial and the rule symmetric,
    so the table is mirror-symmetric along every axis, bit for bit."""
    u, w = gauss_legendre(nodes_per_axis)
    grids = np.meshgrid(*([u] * d), indexing="ij", sparse=True)
    table = _bump_raw(sum(g * g for g in grids))
    for g in np.meshgrid(*([w] * d), indexing="ij", sparse=True):
        table *= g
    table /= table.sum()
    return u * eps, table


def _ball_quadrature(d, eps, nodes_per_axis):
    """The nonzero entries of _ball_table in C order: nodes (m, d) and
    weights (m,)."""
    u, table = _ball_table(d, eps, nodes_per_axis)
    keep = np.nonzero(table)
    return np.column_stack([u[i] for i in keep]), table[keep]


def _bands(orthant):
    """The blocks of the orthant table[:k, ..., :k], k = ceil(n / 2), that
    _separable_sum reads: (r0, r1, lo, hi) for each group of BAND rows
    r0 <= a < r1, with [lo, hi) the least range that holds the other
    indices of every nonzero entry of orthant[r0:r1].  A group with no
    nonzero entry (or a table with one axis) has lo = hi = 0.  Read from
    the built table: phi can underflow to zero inside the ball's rim."""
    bands = []
    for r0 in range(0, len(orthant), BAND):
        r1 = min(r0 + BAND, len(orthant))
        cols = np.array(np.nonzero(orthant[r0:r1])[1:])
        lo, hi = (int(cols.min()), int(cols.max()) + 1) if cols.size else (0, 0)
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

    Over the tensor rule the sum factorizes.  The table is mirror-symmetric
    along every axis, so each per-axis factor g(x_p,i - t u_a) is folded,
    h[a] = g[a] + g[n - 1 - a] for a < n // 2 and the middle node alone for
    odd n, and only the orthant table[:k, ..., :k], k = ceil(n / 2), is
    contracted against the folded factors, one axis at a time from the
    last: d n exponentials per point and translate instead of one call of f
    per ball node, and at most k^d table entries instead of n^d.  The
    orthant's rows are contracted BAND at a time over their band of
    nonzero entries (_bands), by numpy einsum loops (no BLAS); the folded
    factor of axis 0, scaled by c, then weights the partial sums.

    The point axis is last and contiguous in every buffer, so each sum over
    a table axis is a sequence of multiply-adds, one per entry in index
    order, over the tile's points at once: a dropped zero entry would have
    added zero, and a point's value has the same bits for every tile
    height and under any BLAS thread count.  numpy would sum along a lone
    point's row instead, in another order, so a tile of one point is
    summed as two: the point and a copy of it.  Tiles hold whole points, at
    most TILE_PAIRS entries per axis factor and per whole partial sum, or
    else two points.
    """
    d, n, P = table.ndim, len(u), len(pts)
    half, pairs = (n + 1) // 2, n // 2
    orthant = table[(slice(half),) * d]
    rows = max(2, TILE_PAIRS // max(n, half ** (d - 1)))
    height = min(rows, max(P, 2))
    axes = "abcdefghijklmno"[:d]
    # steps[i - 1] contracts axis i of the partial sum over axes i..d-1
    # into partial[i - 1]; the table itself has no point axis
    steps = ["%sp,%sp->%sp" % (axes[:i + 1], axes[i], axes[:i])
             for i in range(1, d)]
    steps[-1:] = [step.replace("p", "", 1) for step in steps[-1:]]
    partial = [np.empty((half,) * i + (height,)) for i in range(1, d)]
    bands = _bands(orthant)
    # the points axis-major, and after them a copy of the last point
    coords = np.empty((d, P + 1))
    coords[:, :P] = pts.T
    coords[:, P] = coords[:, P - 1] if P else 0.0
    # the translates x_p - t u_a of each node a of the orthant, then those
    # of its mirror node n - 1 - a: x_p + t u_a
    shifted = np.empty((d, 2, half, height))
    folded = np.empty((d, half, height))
    out = np.zeros(P)
    acc = np.empty(P + 1)
    for t, coef in binomial_weights(s):
        tu = (t * u[:half])[:, None]
        for p in range(0, P, rows):
            m = max(2, min(rows, P - p))
            x = coords[:, None, p:p + m]
            z = shifted[..., :m]
            np.subtract(x, tu, out=z[:, 0])
            np.add(x, tu, out=z[:, 1])
            h = folded[..., :m]
            sums = acc[p:p + m]
            sums[:] = 0.0
            for c, g in factors:
                fz = g(z)
                np.add(fz[:, 0, :pairs], fz[:, 1, :pairs], out=h[:, :pairs])
                h[:, pairs:] = fz[:, 0, pairs:]
                for r0, r1, lo, hi in bands:
                    block = (slice(r0, r1),) + (slice(lo, hi),) * (d - 1)
                    v = orthant[block]
                    for i in range(d - 1, 0, -1):
                        v = np.einsum(steps[i - 1], v, h[i, lo:hi],
                                      out=partial[i - 1][block[:i]
                                                         + (slice(m),)])
                v = partial[0][..., :m] if partial else orthant[:, None]
                # the coefficient scales the factor, not the sum
                w = h[0]
                w *= c
                w *= v
                sums += np.add.reduce(w, axis=0)
        out += coef * acc[:P]
    return out


def epsilon_schedule(n, d):
    """Coupling scale eps = n^{-1/d}, clamped to (0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(1.0, float(n) ** (-1.0 / d))
