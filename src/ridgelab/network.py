"""Finite shallow ReLU^k networks and their constructions.

Neurons use the knot convention sigma_k(omega.x - b): the stored bias is the
knot in [-1, 1], a literal transcription of the Peano integral.  Networks
built from the Peano density carry the polynomial part exactly (either as a
PolynomialPart or its exact ridge lift).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import sample_directions
from .ridge_density import affine_powers, monomials, multi_indices


def activation(k, t):
    """Truncated power sigma_k: 0 for t <= 0, t^k for t > 0.

    sigma_0 is the Heaviside step with sigma_0(0) = 0, keeping
    sigma_k(0) = 0 for every k.
    """
    out = _truncated_power(k, np.array(t, float))
    return float(out) if out.ndim == 0 else out


def _truncated_power(k, t):
    """sigma_k of the float array t, written over t and returned."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        np.greater(t, 0.0, out=t)
    else:
        np.maximum(t, 0.0, out=t)
        if k > 1:
            t **= k
    return t


class ShallowNetwork:
    """poly(x) + sum_i a_i sigma_k(omega_i . x - b_i), stored as arrays or
    as a KnotTable (from_quadrature) whose arrays are built on first
    access, M neurons per table direction in table order.

    evaluate reads a network's KnotTable one direction at a time
    (_evaluate_grouped) and sums a network of arrays neuron by neuron
    (_evaluate_dense)."""

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
        return np.repeat(self.table.directions, len(self.table.knots), axis=0)

    @cached_property
    def b(self):
        return np.tile(self.table.knots, len(self.table.rows))

    def __len__(self):
        if self.table is None:
            return len(self.a)
        return self.table.rows.size * len(self.table.knots)

    @property
    def l1_mass(self):
        """Outer-weight ell_1 mass (neurons only, excluding the polynomial)."""
        return float(np.sum(np.abs(self.a)))

    def evaluate(self, x):
        """Network values at one point (d,) or at the rows of x (P, d).

        A network's KnotTable is read as one degree-k spline in omega.x
        per direction (_evaluate_grouped); a network of arrays is summed
        neuron by neuron (_evaluate_dense).
        """
        x = np.asarray(x, float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError("points must have shape (d,) or (P, d) with "
                             "d = %d, got shape %s" % (self.d, x.shape))
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(len(pts))
        if self.poly is not None:
            out += self.poly(pts)
        if self.table is not None:
            out += _evaluate_grouped(self.k, self.table, pts)
        elif len(self):
            out += _evaluate_dense(self, pts)
        return float(out[0]) if single else out

    __call__ = evaluate


@dataclass(frozen=True)
class KnotTable:
    """Neurons as a (direction x knot) table: every direction has the one
    sorted knot row knots, direction j with the outer weights
    weights[rows[j]].  Directions that share a weight row share its prefix
    sums."""

    directions: np.ndarray  # (J, d), lexicographic in from_quadrature
    rows: np.ndarray  # (J,)
    knots: np.ndarray  # (M,)
    weights: np.ndarray  # (R, M)


def _evaluate_dense(net, pts):
    """sum_i a_i sigma_k(omega_i.x - b_i) from (points x neurons) blocks.

    omega.x - b is one product of the lifted points [x, -1] with the rows
    [omega, b]: the bias is the product's last term, so there is no pass
    that subtracts it.  OpenBLAS adds that term last at d = 2, so the
    values are those of the product and then the subtraction, bit for bit;
    at d = 1 and 3 some shapes (one point, one neuron, the edge columns of
    some d = 3 products) add it elsewhere and can differ in the last bit.
    """
    lifted = np.empty((len(pts), net.d + 1))
    lifted[:, :-1] = pts
    lifted[:, -1] = -1.0
    # [omega, b] row by row, transposed: with a C-contiguous (d + 1, n)
    # array instead, OpenBLAS rounds d = 2 products differently from the
    # product and then the subtraction
    weights = np.column_stack([net.omega, net.b]).T
    out = np.empty(len(pts))
    # blocks of about 2^16 entries (512 KiB) stay in the second-level cache
    # from the product through sigma_k (in place) to the row sums.  At
    # 16384 points, k = 1, d = 2 (one BLAS thread, 2-core Xeon, numpy 2.4)
    # a call at 1024 neurons took 74 ms with blocks of 2^20 entries and a
    # separate bias pass, 38 ms with blocks of 2^16 and 28 ms with these
    # blocks and the lifted product (24, 8.0 and 6.8 ms at 256 neurons);
    # blocks of 2^15 entries were as fast, 2^14 and 2^17 slower.  The row
    # sums are a BLAS gemv, which rounds the rows of its groups of four
    # one way and the 1-3 rows after a block's last group another, so the
    # block size is part of the last bits of the values.
    block = max(1, 2 ** 16 // len(net.a))
    for lo in range(0, len(pts), block):
        z = lifted[lo:lo + block] @ weights
        out[lo:lo + block] = _truncated_power(net.k, z) @ net.a
    return out


def _evaluate_grouped(k, table, pts):
    """sum_i a_i sigma_k(omega_i.x - b_i) over the neurons of a KnotTable,
    one direction at a time.

    Along direction j the neurons are the spline sum_m a_m sigma_k(u - b_m)
    in u = omega_j.x.  The knots strictly below u (sigma_k(0) = 0) are a
    prefix of the sorted row, counted by _count_below, and (u - b)^k
    expands to sum_{i<=k} C(k, i) u^(k-i) S_i with S_i the prefix sum of
    a_m (-b_m)^i along the direction's weight row, so rounding stays that
    of one direction's knots.  The directions are summed in table order.
    """
    directions, rows, knots = table.directions, table.rows, table.knots
    R, M = table.weights.shape
    # prefix[i, r, m]: the sum of a b^i over the first m knots of row r (the
    # sign of (-b)^i goes into the coefficient, exactly)
    prefix = np.zeros((k + 1, R, M + 1))
    power = table.weights
    for i in range(k + 1):
        np.cumsum(power, axis=1, out=prefix[i, :, 1:])
        if i < k:
            power = power * knots
    out = np.empty(len(pts))
    block = max(1, 2 ** 18 // len(directions))
    for lo in range(0, len(pts), block):
        u = pts[lo:lo + block] @ directions.T
        at = _count_below(knots, u) + rows * (M + 1)
        acc = prefix[0].take(at)
        for i in range(1, k + 1):
            acc *= u
            acc += (-1) ** i * math.comb(k, i) * prefix[i].take(at)
        out[lo:lo + block] = acc.sum(axis=1)
    return out


def _count_below(row, u):
    """np.searchsorted(row, u, "left") for a sorted row: the number of
    knots strictly below each entry of u.

    The count is first read off the row's end points as if its knots were
    equally spaced, floor((u - row[0]) / h) + 1 clipped to [0, M], then
    stepped by one knot, down where row[count - 1] >= u and up where
    row[count] < u.  On a line grid's knots the first read is at most one
    knot off, so one step ends it.  A row further from evenly spaced, or
    of one distinct knot, is bisected by np.searchsorted after two passes.
    NaN entries count 0, as in a bisection.
    """
    M = len(row)
    span = row[-1] - row[0]
    if span > 0:
        t = u - row[0]
        t *= (M - 1) / span
        np.floor(t, out=t)
        t += 1.0
        # fmax and fmin take 0 for NaN, where a clip would keep it
        np.fmin(np.fmax(t, 0.0, out=t), M, out=t)
        count = t.astype(np.intp)
        # before[c] is the knot before count c, after[c] the knot at it,
        # and NaN, for which no comparison holds, past either end
        before = np.concatenate(([np.nan], row, [np.nan]))
        after = before[1:]
        for _ in range(2):
            up = np.less(after.take(count), u)
            down = np.greater_equal(before.take(count), u)
            step = up.view(np.int8) - down.view(np.int8)
            if not step.any():
                return count
            count += step
    count = np.searchsorted(row, u, "left")
    # NaN sorts past every knot
    count[np.isnan(u)] = 0
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
    table = KnotTable(sphere.nodes[rank], rows[rank], tables.knots, weights)
    return ShallowNetwork(d=tables.d, k=k, poly=tables.poly + tables.end_term,
                          table=table)


def from_sampling(tables, n, seed):
    """Width-n importance-sampled network from the Peano density.

    (omega_i, b_i) are drawn from |F_omega^{(k+1)}(b)| / (k! V) with V the
    variation upper bound tables.variation (directions by tables.mass, then
    the per-direction inverse CDF over the tabulated profiles); outer
    weights are sign(F^{(k+1)}(b_i)) * V / n, so the ell_1 mass equals V
    exactly.  The polynomial part is attached exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sphere, knots, cdf = tables.sphere, tables.knots, tables.cdf
    V = tables.variation
    if V <= 0:
        raise ValueError("variation upper bound is zero; nothing to sample")
    rng = np.random.default_rng(seed)
    js = rng.choice(len(sphere), size=n, p=tables.mass / tables.mass.sum())
    us = rng.uniform(size=n)
    # b = np.interp(u, cdf[r], knots), then the sign of
    # np.interp(b, knots, profiles[r]), r = rows[j], for all draws at once
    rows = tables.rows[js]
    b = _interp(us, _searchsorted_rows(cdf, rows, us), cdf, rows,
                knots[None], 0)
    positive = _interp(b, np.searchsorted(knots, b, side="right"),
                       knots[None], 0, tables.profiles, rows) >= 0
    return ShallowNetwork(d=tables.d, k=tables.k,
                          a=np.where(positive, V, -V) / n,
                          omega=sphere.nodes[js], b=b, poly=tables.poly)


def _searchsorted_rows(table, rows, x):
    """np.searchsorted(table[rows[i]], x[i], "right") for every i, by one
    bisection over all i: log2(M) reads of x.size entries, where gathering
    the rows table[rows] would read x.size * M."""
    M = table.shape[1]
    flat = table.ravel()
    start = rows * M
    # at: the flat index of entry count of the row, with the answer in
    # [count, count + size]; the rows being sorted, it is past the first
    # half when that half's last entry is <= x.  A product moves at: a
    # masked add would branch on a random mask, 8x slower.
    at = start.copy()
    size = M
    while size:
        half = (size + 1) // 2
        at += half * np.less_equal(flat.take(at + (half - 1)), x)
        size -= half
    return at - start


def _interp(x, count, xp, xp_rows, fp, fp_rows):
    """np.interp(x[i], xp[xp_rows[i]], fp[fp_rows[i]]) for every i, bit for
    bit, given count[i] = np.searchsorted(xp[xp_rows[i]], x[i], "right")."""
    last = xp.shape[1] - 1
    at = np.clip(count - 1, 0, last)
    after = np.minimum(at + 1, last)
    x0, y0 = xp[xp_rows, at], fp[fp_rows, at]
    # np.interp's slope formula, in the cell xp[at] <= x < xp[at + 1]; its
    # divisor is positive there, so on finite tables np.interp's retry on
    # a NaN never runs
    with np.errstate(all="ignore"):
        y = ((fp[fp_rows, after] - y0) / (xp[xp_rows, after] - x0) * (x - x0)
             + y0)
    # np.interp's node value at a node, fp[0] below xp[0] and fp[-1] from
    # xp[-1] on (these cells have no slope)
    return np.where((count == 0) | (count > last) | (x == x0), y0, y)


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
