"""Finite shallow ReLU^k networks and their constructions.

Neurons use the knot convention sigma_k(omega.x - b): the stored bias is the
knot in [-1, 1], a literal transcription of the Peano integral.
from_quadrature keeps every (direction, knot) atom of a PeanoTables as a
neuron; from_sampling draws n atoms i.i.d. by their ell_1 mass (Maurey's
empirical method), so its mean is from_quadrature's network.  Both attach
the polynomial part and the end term exactly.  A PointSet evaluates any
number of networks on one set of points, keeping the dense path's working
arrays between them.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import LineGrid, sample_directions
from .ridge_density import affine_powers, monomials, multi_indices


def activation(k, t):
    """Truncated power sigma_k: 0 for t <= 0, t^k for t > 0.

    sigma_0 is the Heaviside step with sigma_0(0) = 0, keeping
    sigma_k(0) = 0 for every k.
    """
    out = _truncated_power(k, np.array(t, float))
    return float(out) if out.ndim == 0 else out


def _truncated_power(k, t, zero=0.0):
    """sigma_k of the float array t, written over t and returned.

    zero is 0.0 or an array of zeros of t's shape; both give the same
    bits, signed zeros and NaN included, but an array takes numpy's
    two-array loops, which are faster (see PointSet.dense).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        np.greater(t, zero, out=t)
    else:
        np.maximum(t, zero, out=t)
        if k > 1:
            t **= k
    return t


class ShallowNetwork:
    """poly(x) + sum_i a_i sigma_k(omega_i . x - b_i), stored as arrays or
    as a KnotTable (from_quadrature) whose arrays are built on first
    access, M neurons per table direction in table order."""

    def __init__(self, d, k, a=None, omega=None, b=None, poly=None,
                 table=None):
        self.d = int(d)
        self.k = int(k)
        self.poly, self.table = poly, table
        if table is not None:
            return
        n = 0 if a is None else len(a)
        self.a = np.zeros(0) if a is None else np.asarray(a, float)
        self.omega = np.zeros((0, d)) if omega is None else np.asarray(omega, float)
        self.b = np.zeros(0) if b is None else np.asarray(b, float)
        if self.omega.shape != (n, self.d) or self.b.shape != (n,):
            raise ValueError("inconsistent neuron arrays")

    @cached_property
    def a(self):
        return self.table.weights[self.table.rows].ravel()

    @cached_property
    def omega(self):
        return np.repeat(self.table.directions, self.table.weights.shape[1],
                         axis=0)

    @cached_property
    def b(self):
        return np.tile(self.table.knots, len(self.table.rows))

    def __len__(self):
        if self.table is None:
            return len(self.a)
        return self.table.rows.size * self.table.weights.shape[1]

    @property
    def l1_mass(self):
        """Outer-weight ell_1 mass (neurons only, excluding the polynomial)."""
        return float(np.sum(np.abs(self.a)))

    def evaluate(self, x):
        """Network values at one point (d,) or at the rows of x (P, d).

        A network's KnotTable is read as one degree-k spline in omega.x
        per direction (_evaluate_grouped); a network of arrays is summed
        neuron by neuron (PointSet.dense).  To evaluate many networks on
        the same points, hold them in one PointSet.
        """
        x = np.asarray(x, float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError("points must have shape (d,) or (P, d) with "
                             "d = %d, got shape %s" % (self.d, x.shape))
        single = x.ndim == 1
        out = PointSet(x[None, :] if single else x).evaluate(self)
        return float(out[0]) if single else out

    __call__ = evaluate


@dataclass(frozen=True)
class KnotTable:
    """Neurons as a (direction x knot) table: every direction has the
    knots of the line grid's knot_window, -1 to 1 in steps of grid.h,
    direction j with the outer weights weights[rows[j]].  Directions that
    share a weight row share its prefix sums."""

    directions: np.ndarray  # (J, d), lexicographic in from_quadrature
    rows: np.ndarray  # (J,)
    grid: LineGrid
    weights: np.ndarray  # (R, M)

    def __post_init__(self):
        if self.weights.shape[1] != len(self.knots):
            raise ValueError("a weight row must have one entry per knot")

    @property
    def knots(self):
        return self.grid.nodes[self.grid.knot_window]


class PointSet:
    """Points (P, d) that any number of networks are evaluated on.

    evaluate(net) is net(pts), bit for bit.  The dense path's working
    arrays are kept between calls: the lifted points [x, -1]^T, padded
    once, and one block buffer and one block of zeros, all starting on a
    64-byte boundary and grown only when a network needs more room.  A
    sweep that holds one PointSet builds them once for all its networks.
    """

    def __init__(self, pts):
        self.pts = pts
        self._lifted = self._buffer = self._zeros = None

    def evaluate(self, net):
        """The values of net at the points, poly(x) plus the neurons."""
        out = np.zeros(len(self.pts))
        if net.poly is not None:
            out += net.poly(self.pts)
        if net.table is not None:
            out += _evaluate_grouped(net.k, net.table, self.pts)
        elif len(net):
            out += self.dense(net)
        return out

    def dense(self, net):
        """sum_i a_i sigma_k(omega_i.x - b_i) from (neurons x points) blocks.

        omega.x - b is one product of the rows [omega, b] with the lifted
        points [x, -1]^T, written into the block buffer, where sigma_k acts
        in place against the block of zeros.  OpenBLAS adds the bias term
        last at d = 2, so the values are those of the product and then the
        subtraction, bit for bit; at d = 3 one neuron and some edge rows add
        it elsewhere.  The products and the sums over the neurons (gemv)
        round a point by the shape of its block but not by its place in it,
        so every block is `block` points wide, the last one filled up with
        copies of the last point: a point's value does not depend on the
        points evaluated with it, nor on the networks evaluated before it.
        """
        n, P = len(net.a), len(self.pts)
        # blocks of about 2^16 entries (512 KiB) stay in the second-level
        # cache from the product to the sums.  At 16384 points, k = 1, d = 2
        # (one BLAS thread, 2-core Xeon, numpy 2.4) a call at 1024 neurons
        # took 12-15 ms, 18-21 ms in (points x neurons) blocks and 31 ms in
        # blocks of 2^20 entries (3.4-4.4, 4.9-6.7 and 7.9 ms at 256
        # neurons); 2^14, 2^15 and 2^17 entries were slower.
        block = max(1, 2 ** 16 // n)
        width = -(-P // block) * block
        lifted = self._lift(width)
        size = n * block
        if self._buffer is None or self._buffer.size < size:
            self._buffer = _aligned_empty((size,))
            # sigma_k's maximum against an array of zeros rather than the
            # scalar 0.0: numpy 2.4's scalar-operand loop took 21-22 us per
            # 65,536 mixed-sign doubles and the two-array loop 13-14 us
            # (AVX-512 Xeon), for the same bits; greater took 29 us either
            # way
            self._zeros = _aligned_empty((size,), np.zeros)
        buffer = self._buffer[:size].reshape(n, block)
        zeros = self._zeros[:size].reshape(n, block)
        weights = np.column_stack([net.omega, net.b])
        out = np.empty(width)
        for lo in range(0, P, block):
            z = np.matmul(weights, lifted[:, lo:lo + block], out=buffer)
            np.matmul(net.a, _truncated_power(net.k, z, zeros),
                      out=out[lo:lo + block])
        return out[:P]

    def _lift(self, width):
        """The lifted points [x, -1]^T with at least width columns, those
        past the last point its copies; rebuilt only to widen them."""
        if self._lifted is None or self._lifted.shape[1] < width:
            pts, P = self.pts, len(self.pts)
            lifted = _aligned_empty((pts.shape[1] + 1, width))
            lifted[:-1, :P] = pts.T
            lifted[:-1, P:] = pts[-1:].T
            lifted[-1] = -1.0
            self._lifted = lifted
        return self._lifted


def _aligned_empty(shape, allocate=np.empty):
    """allocate(shape), np.empty or np.zeros, with its data starting on a
    64-byte boundary.

    malloc aligns to 16 bytes only, so where a fresh array starts within a
    cache line depends on the heap's history.  With the product's buffer
    off a 64-byte boundary, PointSet.dense at 1024 neurons and 16384
    points took 15-16 ms instead of 11 ms (one BLAS thread, 2-core Xeon).
    np.zeros takes calloc's memory, which for a block of zeros that is
    only read can stay unmapped: the sampled sweep's peak RSS read 42.0
    MiB with it, as with no block at all, and 42.5 MiB with a filled one.
    """
    size = math.prod(shape)
    raw = allocate(size + 7)
    start = -raw.ctypes.data % 64 // raw.itemsize
    return raw[start:start + size].reshape(shape)


def _evaluate_grouped(k, table, pts):
    """sum_i a_i sigma_k(omega_i.x - b_i) over the neurons of a KnotTable,
    one direction at a time.

    Along direction j the neurons are the spline sum_m a_m sigma_k(u - b_m)
    in u = omega_j.x.  The knots strictly below u (sigma_k(0) = 0) are a
    prefix of the knots, counted by _count_below, and (u - b)^k
    expands to sum_{i<=k} C(k, i) u^(k-i) S_i with S_i the prefix sum of
    a_m (-b_m)^i along the direction's weight row, so rounding stays that
    of one direction's knots.  The directions are summed in table order.
    """
    directions, rows, knots = table.directions, table.rows, table.knots
    R, M = table.weights.shape
    # prefix[i, r, m]: (-1)^i C(k, i) times the sum of a b^i over the first
    # m knots of row r (the sign of (-b)^i goes into the coefficient)
    prefix = np.zeros((k + 1, R, M + 1))
    power = table.weights
    for i in range(k + 1):
        np.cumsum(power, axis=1, out=prefix[i, :, 1:])
        prefix[i] *= (-1) ** i * math.comb(k, i)
        if i < k:
            power = power * knots
    out = np.empty(len(pts))
    # blocks of about 2^14 (point, direction) entries keep u, the counts and
    # the sums in cache from the product to the row sums.  On peano-d2k2's
    # networks (200 points, 256 and 512 directions; one BLAS thread, 2-core
    # Xeon, numpy 2.4) its two calls took 1.7-2.1 + 3.3-4.0 ms in blocks of
    # 2^14 entries against 2.2-2.6 + 4.2-6.4 ms in blocks of 2^18.  A lone
    # point is projected as two, since numpy would take it through gemv,
    # which rounds u otherwise: no value depends on its block.
    block = max(2, 2 ** 14 // len(directions))
    for lo in range(0, len(pts), block):
        x = pts[lo:lo + block]
        u = (x if len(x) > 1 else x[[0, 0]]) @ directions.T
        at = _count_below(table.grid, u) + rows * (M + 1)
        acc = prefix[0].take(at)
        for i in range(1, k + 1):
            acc *= u
            acc += prefix[i].take(at)
        out[lo:lo + block] = acc.sum(axis=1)[:len(x)]
    return out


def _count_below(grid, u):
    """np.searchsorted(knots, u, "left") for the grid's knots, -1 to 1 in
    steps of h: the number of knots strictly below each entry of u.

    The count is read as floor((u + 1) / h) + 1, clipped to [0, M], then
    stepped by one knot, down where knots[count - 1] >= u and up where
    knots[count] < u.  The knots and 1 / h are exact, so only the rounding
    of u + 1 and a u on a knot put the read off, by one knot at most.
    NaN entries count 0, as in a bisection.
    """
    knots = grid.nodes[grid.knot_window]
    t = u + 1.0
    t *= 1.0 / grid.h
    np.floor(t, out=t)
    t += 1.0
    # fmax and fmin take 0 for NaN, where a clip would keep it
    np.fmin(np.fmax(t, 0.0, out=t), len(knots), out=t)
    count = t.astype(np.intp)
    # before[c] is the knot before count c, after[c] the knot at it,
    # and NaN, for which no comparison holds, past either end
    before = np.concatenate(([np.nan], knots, [np.nan]))
    after = before[1:]
    up = np.less(after.take(count), u)
    down = np.greater_equal(before.take(count), u)
    count += up.view(np.int8) - down.view(np.int8)
    return count


def from_quadrature(tables):
    """Discretize the Peano integral into one neuron per (direction, knot).

    The neuron weight is w_j * tw_m * F_{omega_j}^{(k+1)}(b_m) / k! with
    trapezoid weights tw_m on the knots b_m (see PeanoTables).  The network
    keeps them as its KnotTable, the directions in lexicographic order on
    the one knot row, with one weight row per distinct pair of profile row
    (tables.rows) and sphere weight: one per direction, or for a radial
    target one per distinct sphere weight.  The polynomial part is
    attached exactly, with the trapezoid rule's end term at b = -1
    (tables.end_term) added to it.
    """
    sphere, k = tables.sphere, tables.k
    # numpy sorts complex numbers by real, then imaginary part
    pairs, rows = np.unique(tables.rows + 1j * sphere.weights,
                            return_inverse=True)
    profiles = tables.profiles[pairs.real.astype(np.intp)]
    weights = (pairs.imag[:, None] * tables.weights * profiles
               / math.factorial(k))
    rank = np.lexsort(sphere.nodes.T[::-1])
    table = KnotTable(sphere.nodes[rank], rows[rank], tables.grid, weights)
    return ShallowNetwork(d=tables.d, k=k, poly=tables.poly + tables.end_term,
                          table=table)


def from_sampling(tables, n, seed):
    """Width-n network of n i.i.d. atoms of from_quadrature(tables).

    Atom (j, m), the neuron sigma_k(omega_j.x - knots_m), is drawn with
    probability w_j weights_m |profiles[rows[j], m]| / (k! V), V =
    tables.variation: j by tables.mass, then m by a uniform u read in
    tables.cumulative.  Its outer weight is sign(profiles[rows[j], m]) V / n,
    so the ell_1 mass is V, and with the polynomial part and the end term
    attached the mean of the networks is from_quadrature(tables).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    V = tables.variation
    if V <= 0:
        raise ValueError("variation upper bound is zero; nothing to sample")
    rng = np.random.default_rng(seed)
    js = rng.choice(len(tables.sphere), size=n,
                    p=tables.mass / tables.mass.sum())
    us = rng.uniform(size=n)
    # the flat index of each draw's atom in the (R, M) tables
    at = np.searchsorted(tables.cumulative.ravel(), tables.rows[js] + 1j * us,
                         side="right")
    return ShallowNetwork(d=tables.d, k=tables.k,
                          a=np.where(tables.profiles.take(at) >= 0, V, -V) / n,
                          omega=tables.sphere.nodes[js],
                          b=tables.knots.take(at % len(tables.knots)),
                          poly=tables.poly + tables.end_term)


def poly_to_ridge(p, k, d=None):
    """Exact ridge lift of a polynomial of degree <= k.

    Uses t^k = sigma_k(t) + (-1)^k sigma_k(-t) and the fact that k-th powers
    of affine functions span the degree-<=k polynomials.  For k = 0 the
    polynomial must be constant and the lift is an indicator pair that is
    exact on |omega.x| < 2 (covering the unit ball).
    """
    d = p.d if d is None else d
    if p.degree > k:
        raise ValueError("polynomial degree exceeds k")
    if k == 0:
        c = p.coefficients.get(tuple([0] * d), 0.0)
        e1 = np.zeros(d)
        e1[0] = 1.0
        return ShallowNetwork(d=d, k=0, a=np.array([c, c]),
                              omega=np.vstack([e1, -e1]),
                              b=np.array([-2.0, 2.0]))
    basis = multi_indices(d, k)
    n_aff = 2 * len(basis)
    dirs = sample_directions(d, n_aff, seed=12345)
    biases = np.linspace(-0.9, 0.9, n_aff)
    # A[alpha, i] = coefficient of x^alpha in (omega_i . x + b_i)^k
    A = affine_powers(monomials(dirs, basis), biases, k, basis)
    target = np.array([p.coefficients.get(alpha, 0.0) for alpha in basis])
    c, residual, _, _ = np.linalg.lstsq(A, target, rcond=None)
    if not np.allclose(A @ c, target, atol=1e-11):
        raise ArithmeticError("ridge lift system did not solve to tolerance")
    # each affine power contributes the pair sigma_k(l) + (-1)^k sigma_k(-l)
    a = np.concatenate([c, (-1.0) ** k * c])
    omega = np.vstack([dirs, -dirs])
    b = np.concatenate([-biases, biases])
    keep = a != 0.0
    return ShallowNetwork(d=d, k=k, a=a[keep], omega=omega[keep], b=b[keep])
