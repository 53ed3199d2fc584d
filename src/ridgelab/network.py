"""Finite shallow ReLU^k networks and their constructions.

Neurons use the knot convention sigma_k(omega.x - b): the stored bias is the
knot in [-1, 1], a literal transcription of the Peano integral.  Networks
built from the Peano density carry the polynomial part exactly (either as a
PolynomialPart or its exact ridge lift).
"""

import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quadrature import sample_directions
from .ridge_density import (PolynomialPart, _trapezoid_weights, derivative_blocks,
                            multi_indices, peano_polynomial, values_at_minus_one,
                            zero_polynomial)

FORMAT_MAGIC = "RIDGENET v1"


def activation(k, t):
    """Truncated power sigma_k: 0 for t <= 0, t^k for t > 0.

    sigma_0 is the Heaviside step with sigma_0(0) = 0, keeping
    sigma_k(0) = 0 for every k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    t = np.asarray(t, float)
    if k == 0:
        out = (t > 0).astype(float)
    else:
        out = np.maximum(t, 0.0)
        if k > 1:
            out **= k
    return float(out) if out.ndim == 0 else out


class Neuron(NamedTuple):
    a: float
    omega: tuple
    b: float
    k: int


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
    def neurons(self):
        return [Neuron(float(a), tuple(w), float(b), self.k)
                for a, w, b in zip(self.a, self.omega, self.b)]

    @property
    def l1_mass(self):
        """Outer-weight ell_1 mass (neurons only, excluding the polynomial)."""
        return float(np.sum(np.abs(self.a)))

    def evaluate(self, x):
        x = np.asarray(x, float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(len(pts))
        if self.poly is not None:
            out += self.poly(pts)
        n = len(self.a)
        if n:
            # chunk the (points x neurons) matrix to bound memory
            block = max(1, int(2e7 / n))
            for lo in range(0, len(pts), block):
                z = pts[lo:lo + block] @ self.omega.T
                z -= self.b
                out[lo:lo + block] += activation(self.k, z) @ self.a
        return float(out[0]) if single else out

    __call__ = evaluate


_density_cache = {}


def _density_tables(f, k, sphere, grid):
    """Tabulated Peano ingredients, cached per (target, k, grids).

    Returns (knots, trapezoid weights, per-direction F^{(k+1)} samples on
    the knots, polynomial part).  The cache makes repeated constructions
    over seeds/widths cheap.
    """
    key = (id(f), k, id(sphere), grid.L, grid.N)
    hit = _density_cache.get(key)
    if hit is not None and hit[0] is f and hit[1] is sphere:
        return hit[2]
    if k < 0:
        raise ValueError("k must be >= 0")
    mask = grid.knot_mask()
    knots = grid.nodes[mask]
    tw = _trapezoid_weights(knots)
    profiles = np.empty((len(sphere), len(knots)))
    at_minus_one = np.empty((len(sphere), k + 1))
    # one pass over the directions for F^{(0)}, ..., F^{(k+1)}
    for lo, F in derivative_blocks(f, sphere.nodes, grid, range(k + 2)):
        hi = lo + F.shape[1]
        profiles[lo:hi] = F[k + 1][:, mask]
        at_minus_one[lo:hi] = values_at_minus_one(F[:k + 1], grid).T
    poly = peano_polynomial(f.d, k, sphere, at_minus_one)
    _density_cache[key] = (f, sphere, (knots, tw, profiles, poly))
    if len(_density_cache) > 32:
        _density_cache.pop(next(iter(_density_cache)))
    return knots, tw, profiles, poly


def from_quadrature(f, k, sphere, grid):
    """Discretize the Peano integral into one neuron per (direction, knot).

    Knots are the line-grid nodes in [-1, 1] with trapezoid weights; the
    neuron weight is w_j * tw_m * F_{omega_j}^{(k+1)}(b_m) / k!.  The
    polynomial part is attached exactly.
    """
    knots, tw, profiles, poly = _density_tables(f, k, sphere, grid)
    a_all, w_all, b_all = [], [], []
    for j, (wj, omega) in enumerate(zip(sphere.weights, sphere.nodes)):
        a_all.append(wj * tw * profiles[j] / math.factorial(k))
        w_all.append(np.tile(omega, (len(knots), 1)))
        b_all.append(knots)
    return ShallowNetwork(d=f.d, k=k, a=np.concatenate(a_all),
                          omega=np.vstack(w_all), b=np.concatenate(b_all),
                          poly=poly)


def from_sampling(f, k, n, seed, sphere, grid):
    """Width-n importance-sampled network from the Peano density.

    (omega_i, b_i) are drawn from |F_omega^{(k+1)}(b)| / (k! V) with V the
    variation upper bound (per-direction inverse CDF over the tabulated
    profiles); outer weights are sign(F^{(k+1)}(b_i)) * V / n, so the ell_1
    mass equals V exactly.  The polynomial part is attached exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    knots, tw, profiles, poly = _density_tables(f, k, sphere, grid)
    masses = np.abs(profiles) @ tw
    weighted = sphere.weights * masses
    V = weighted.sum() / math.factorial(k)
    if V <= 0:
        raise ValueError("variation upper bound is zero; nothing to sample")
    rng = np.random.default_rng(seed)
    pj = weighted / weighted.sum()
    js = rng.choice(len(sphere), size=n, p=pj)
    us = rng.uniform(size=n)
    a = np.empty(n)
    b = np.empty(n)
    w = np.empty((n, f.d))
    # per-direction piecewise-linear inverse CDF of |F^{(k+1)}|
    cdfs = {}
    for j in np.unique(js):
        absv = np.abs(profiles[j])
        cell = 0.5 * (absv[1:] + absv[:-1]) * np.diff(knots)
        cdf = np.concatenate([[0.0], np.cumsum(cell)])
        cdfs[j] = cdf / cdf[-1]
    for i in range(n):
        j = js[i]
        bi = float(np.interp(us[i], cdfs[j], knots))
        sign = 1.0 if np.interp(bi, knots, profiles[j]) >= 0 else -1.0
        a[i] = sign * V / n
        b[i] = bi
        w[i] = sphere.nodes[j]
    return ShallowNetwork(d=f.d, k=k, a=a, omega=w, b=b, poly=poly)


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
    m = len(basis)
    n_aff = 2 * m
    dirs = sample_directions(d, n_aff, seed=12345)
    biases = np.linspace(-0.9, 0.9, n_aff)
    # A[alpha, i] = coefficient of x^alpha in (omega_i . x + b_i)^k
    A = np.zeros((m, n_aff))
    for i in range(n_aff):
        for ai, alpha in enumerate(basis):
            j = k - sum(alpha)
            mult = math.factorial(k) / (
                math.prod(math.factorial(e) for e in alpha) * math.factorial(j))
            A[ai, i] = mult * biases[i] ** j * math.prod(
                dirs[i, t] ** e for t, e in enumerate(alpha))
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
    fields = dict(kv.split("=") for kv in header)
    d, k, n = int(fields["d"]), int(fields["k"]), int(fields["n"])
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
