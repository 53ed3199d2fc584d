"""Finite shallow ReLU^k networks and their constructions.

Neurons use the knot convention sigma_k(omega.x - b): the stored bias is the
knot in [-1, 1], a literal transcription of the Peano integral.  Networks
built from the Peano density carry the polynomial part exactly (either as a
PolynomialPart or its exact ridge lift).
"""

import io
import math

import numpy as np

from .quadrature import sample_directions
from .ridge_density import PolynomialPart, affine_powers, multi_indices

FORMAT_MAGIC = "RIDGENET v1"


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
    """poly(x) + sum_i a_i sigma_k(omega_i . x - b_i), stored as arrays."""

    def __init__(self, d, k, a=None, omega=None, b=None, poly=None):
        self.d = int(d)
        self.k = int(k)
        n = 0 if a is None else len(a)
        self.a = np.zeros(0) if a is None else np.asarray(a, float)
        self.omega = np.zeros((0, d)) if omega is None else np.asarray(omega, float)
        self.b = np.zeros(0) if b is None else np.asarray(b, float)
        if self.omega.shape != (n, self.d) or self.b.shape != (n,):
            raise ValueError("inconsistent neuron arrays")
        self.poly = poly

    def __len__(self):
        return len(self.a)

    @property
    def l1_mass(self):
        """Outer-weight ell_1 mass (neurons only, excluding the polynomial)."""
        return float(np.sum(np.abs(self.a)))

    def evaluate(self, x):
        """Network values at one point (d,) or at the rows of x (P, d).

        Networks with at least MIN_KNOTS_PER_DIRECTION neurons per distinct
        direction are evaluated one direction at a time as a degree-k
        spline in omega.x (_evaluate_grouped) at MIN_GROUPED_POINTS points
        or more; others, and fewer points, neuron by neuron.
        """
        x = np.asarray(x, float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(len(pts))
        if self.poly is not None:
            out += self.poly(pts)
        if len(self.a) and len(pts) < MIN_GROUPED_POINTS:
            out += _evaluate_dense(self, pts)
        elif len(self.a):
            ids, directions = _direction_ids(self.omega)
            if len(self.a) >= MIN_KNOTS_PER_DIRECTION * len(directions):
                out += _evaluate_grouped(self, pts, ids, directions)
            else:
                out += _evaluate_dense(self, pts)
        return float(out[0]) if single else out

    __call__ = evaluate


# Neurons per distinct direction from which evaluate groups by direction.
# Measured crossover, as dense time over grouped time on random networks
# with M knots on each of n/M directions (k = 1 and 2, n = 1024 to 262144,
# 2-core Xeon, numpy 2.4): at 4096 and 16384 points the ratio is 0.80-0.89
# at M = 16, 0.95-1.83 at M = 24 and 1.23-1.80 at M = 32; at 200 points,
# where sorting the knots weighs more, 0.46-1.02 at M = 32 and 0.75-1.77
# at M = 64.  Quadrature networks have hundreds of knots per direction,
# sampled ones (one draw per neuron) a few.  Those ratios were measured
# against the dense path before its lifted product and 2^16-entry blocks.
# Re-measured on both dense paths (best of 3-7 calls, one BLAS thread,
# k = 1 and 2, n = 1024 and 16384, and 262144 at 200 points), old -> new:
# at 4096 and 16384 points 0.76-1.21 -> 0.41-0.58 at M = 32 and
# 1.31-2.10 -> 0.73-1.00 at M = 64; at 200 points 0.67-1.04 -> 0.47-0.80
# at M = 32 and 1.06-1.45 -> 0.69-1.25 at M = 64.  The crossover is now
# near M = 64, but the value stays: moving it moves networks between the
# paths and so can change pinned report bodies.
MIN_KNOTS_PER_DIRECTION = 32

# Points from which evaluate may group: the grouped path redoes its O(n)
# set-up (direction ids, knot sort, prefix sums) on every call, the dense
# one costs O(n) per point.  Measured as dense / grouped ms per call on
# random d = 2 networks with M knots on each of J directions (best of 3-20
# calls, two sessions, one BLAS thread, 2-core Xeon, numpy 2.4):
# J = 512, M = 2049, k = 2 (n = 1,049,088, as peano-d2k2's stage 1)
# 6-7 / 91-98 at 1 point, 52-54 / 90-100 at 10, 90-116 / 100-106 at 20,
# 142-183 / 99-101 at 30; J = 256, M = 1025 8-11 / 18-23 at 10, 17-26 /
# 20 at 20, 27-34 / 22 at 30; J = 64, M = 512, k = 1 1.4-1.5 / 1.4-1.8
# at 20, 2.3 / 1.6-2.1 at 30.  The break-even is near 20 points at every
# size.  Re-measured with the lifted dense product (best of 5): J = 512,
# M = 2049 24 / 88 at 1 point, 100 / 91 at 10, 185 / 84 at 20; J = 256,
# M = 1025 17 / 17 at 10, 32 / 21 at 20; J = 64, M = 512, k = 1 1.0 / 1.8
# at 10, 2.4 / 2.0 at 20.  The break-even is now 10-15 points: on wide
# networks the dense path is slower than before at few points, as it
# copies [omega, b] into one (n, d + 1) array per call (the old path took
# 8 ms at 1 point on the largest network).  The value stays, as above.
MIN_GROUPED_POINTS = 20


def _direction_ids(omega):
    """(ids, directions): the distinct rows of omega in lexicographic order,
    and for each row of omega the index of its distinct row."""
    # the constructors emit each direction as one run of rows, so only the
    # first row of each run is sorted
    heads = np.flatnonzero(_row_changes(omega))
    rows = omega[heads]
    rank = np.lexsort(rows.T[::-1])
    rows = rows[rank]
    new = _row_changes(rows)
    run_ids = np.empty(len(heads), np.intp)
    run_ids[rank] = np.cumsum(new) - 1
    return np.repeat(run_ids, np.diff(np.append(heads, len(omega)))), rows[new]


def _row_changes(rows):
    """True for the first row and for every row that differs from the one
    before it."""
    changed = np.zeros(len(rows), bool)
    changed[0] = True
    for column in rows.T:
        changed[1:] |= column[1:] != column[:-1]
    return changed


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


def _evaluate_grouped(net, pts, ids, directions):
    """sum_i a_i sigma_k(omega_i.x - b_i), one direction at a time.

    Along direction j the neurons are the spline sum_m a_m sigma_k(u - b_m)
    in u = omega_j.x.  With the knots sorted, the knots strictly below u
    (sigma_k(0) = 0) are a prefix, and the binomial expansion of (u - b)^k
    gives sum_{i<=k} C(k, i) u^(k-i) S_i, where S_i is the prefix sum of
    a_m (-b_m)^i.  Prefix sums restart at every direction, so their
    rounding error stays that of one direction's knots.
    """
    k, J = net.k, len(directions)
    # number the directions by knot count, so that directions with equal
    # counts are adjacent once sorted and share one (count, size) cumsum
    sizes = np.bincount(ids, minlength=J)
    by_size = np.argsort(sizes, kind="stable")
    relabel = np.empty(J, np.intp)
    relabel[by_size] = np.arange(J)
    directions, sizes = directions[by_size], sizes[by_size]
    # complex keys sort by direction, then knot; the query j + 1j*u lands
    # right after the knots of direction j that lie strictly below u
    keys = relabel[ids] + 1j * net.b
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    b = net.b[order]
    # prefix[i, s + j + m], with s the first sorted position of direction
    # j: S_i over its first m knots
    prefix = np.zeros((k + 1, len(b) + J))
    power = net.a[order]
    del order
    size_of, count_of = np.unique(sizes, return_counts=True)
    for i in range(k + 1):
        lo = row = 0
        for size, count in zip(size_of, count_of):
            hi = lo + count * size
            view = prefix[i, lo + row:hi + row + count]
            np.cumsum(power[lo:hi].reshape(count, size), axis=1,
                      out=view.reshape(count, size + 1)[:, 1:])
            lo, row = hi, row + count
        power *= -b
    del power, b
    out = np.empty(len(pts))
    block = max(1, 2 ** 18 // J)
    for lo in range(0, len(pts), block):
        u = pts[lo:lo + block] @ directions.T
        at = np.searchsorted(keys, np.arange(J) + 1j * u)
        at += np.arange(J)
        acc = prefix[0][at]
        for i in range(1, k + 1):
            acc *= u
            acc += math.comb(k, i) * prefix[i][at]
        out[lo:lo + block] = acc.sum(axis=1)
    return out


def from_quadrature(tables):
    """Discretize the Peano integral into one neuron per (direction, knot).

    The neuron weight is w_j * tw_m * F_{omega_j}^{(k+1)}(b_m) / k! with
    trapezoid weights tw_m on the knots b_m (see PeanoTables).  The
    polynomial part is attached exactly.
    """
    sphere, knots, k = tables.sphere, tables.knots, tables.k
    a = (sphere.weights[:, None] * tables.weights * tables.profiles
         / math.factorial(k))
    return ShallowNetwork(d=tables.d, k=k, a=a.ravel(),
                          omega=np.repeat(sphere.nodes, len(knots), axis=0),
                          b=np.tile(knots, len(sphere)), poly=tables.poly)


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
    sphere, knots, profiles = tables.sphere, tables.knots, tables.profiles
    V = tables.variation
    if V <= 0:
        raise ValueError("variation upper bound is zero; nothing to sample")
    rng = np.random.default_rng(seed)
    js = rng.choice(len(sphere), size=n, p=tables.mass / tables.mass.sum())
    us = rng.uniform(size=n)
    # b = np.interp(u, cdf[j], knots), then the sign of
    # np.interp(b, knots, profiles[j]), for all draws at once
    b = _interp(us, _count_at_most(tables.cdf, js, us),
                tables.cdf, js, knots[None], 0)
    positive = _interp(b, np.searchsorted(knots, b, side="right"),
                       knots[None], 0, profiles, js) >= 0
    return ShallowNetwork(d=tables.d, k=tables.k,
                          a=np.where(positive, V, -V) / n,
                          omega=sphere.nodes[js], b=b, poly=tables.poly)


def _count_at_most(table, rows, x):
    """np.searchsorted(table[rows[i]], x[i], side="right") for every i, by
    one bisection over all i: log2(M) reads of n entries, where gathering
    the rows table[rows] would read n * M."""
    M = table.shape[1]
    count = np.zeros(len(x), np.intp)
    step = 1 << (M.bit_length() - 1)
    while step:
        # rows are nondecreasing: count + step entries are <= x exactly when
        # the last of them is
        probe = np.minimum(count + step, M)
        np.copyto(count, probe, where=table[rows, probe - 1] <= x)
        step >>= 1
    return count


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
    A = affine_powers(dirs, biases, k, basis)
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


def serialize(net):
    """Line-oriented text form (full-precision decimals, round-trip exact)."""
    buf = io.StringIO()
    buf.write("%s d=%d k=%d n=%d\n" % (FORMAT_MAGIC, net.d, net.k, len(net)))
    for a, w, b in zip(net.a, net.omega, net.b):
        buf.write(" ".join([repr(float(a))]
                           + [repr(float(x)) for x in w]
                           + [repr(float(b))]) + "\n")
    if net.poly is not None:
        buf.write("POLY\n")
        for alpha, c in sorted(net.poly.coefficients.items()):
            buf.write(" ".join(str(e) for e in alpha) + " " + repr(float(c)) + "\n")
    return buf.getvalue()


def deserialize(text):
    """Inverse of serialize; raises ValueError on malformed input."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(FORMAT_MAGIC):
        raise ValueError("not a %s file" % FORMAT_MAGIC)
    header = lines[0][len(FORMAT_MAGIC):].split()
    fields = dict(kv.partition("=")[::2] for kv in header)
    try:
        d, k, n = (int(fields[key]) for key in "dkn")
    except (KeyError, ValueError):
        raise ValueError("header needs integer fields d=, k= and n=: %r"
                         % lines[0]) from None
    if len(lines) <= n:
        raise ValueError("header declares %d neurons but %d lines follow it"
                         % (n, len(lines) - 1))
    a = np.empty(n)
    omega = np.empty((n, d))
    b = np.empty(n)
    i = 1
    for row in range(n):
        parts = lines[i].split()
        if len(parts) != d + 2:
            raise ValueError("malformed neuron record on line %d" % (i + 1))
        a[row] = float(parts[0])
        omega[row] = [float(x) for x in parts[1:1 + d]]
        b[row] = float(parts[-1])
        i += 1
    poly = None
    if i < len(lines) and lines[i].strip() == "POLY":
        coeffs = {}
        for line in lines[i + 1:]:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d + 1:
                raise ValueError("malformed POLY record")
            coeffs[tuple(int(e) for e in parts[:d])] = float(parts[-1])
        poly = PolynomialPart(d=d, coefficients=coeffs)
    return ShallowNetwork(d=d, k=k, a=a, omega=omega, b=b, poly=poly)


def save(net, path):
    with open(path, "w") as fh:
        fh.write(serialize(net))


def load(path):
    with open(path) as fh:
        return deserialize(fh.read())
