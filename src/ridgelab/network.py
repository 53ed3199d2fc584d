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
from .ridge_density import PolynomialPart, multi_indices

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
        x = np.asarray(x, float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(len(pts))
        if self.poly is not None:
            out += self.poly(pts)
        n = len(self.a)
        if n:
            # chunk the (points x neurons) matrix to bound memory: one
            # block is alive at a time, and sigma_k is applied in place
            block = max(1, int(2e7 / n))
            for lo in range(0, len(pts), block):
                z = pts[lo:lo + block] @ self.omega.T
                z -= self.b
                out[lo:lo + block] += _truncated_power(self.k, z) @ self.a
                del z
        return float(out[0]) if single else out

    __call__ = evaluate


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
    variation upper bound (per-direction inverse CDF over the tabulated
    profiles); outer weights are sign(F^{(k+1)}(b_i)) * V / n, so the ell_1
    mass equals V exactly.  The polynomial part is attached exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sphere, knots, profiles = tables.sphere, tables.knots, tables.profiles
    weighted = sphere.weights * (np.abs(profiles) @ tables.weights)
    V = weighted.sum() / math.factorial(tables.k)
    if V <= 0:
        raise ValueError("variation upper bound is zero; nothing to sample")
    rng = np.random.default_rng(seed)
    js = rng.choice(len(sphere), size=n, p=weighted / weighted.sum())
    us = rng.uniform(size=n)
    b = np.empty(n)
    positive = np.empty(n, bool)
    # per-direction piecewise-linear inverse CDF of |F^{(k+1)}|
    for j in np.unique(js):
        absv = np.abs(profiles[j])
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (absv[1:] + absv[:-1]) * np.diff(knots))])
        drawn = js == j
        b[drawn] = np.interp(us[drawn], cdf / cdf[-1], knots)
        positive[drawn] = np.interp(b[drawn], knots, profiles[j]) >= 0
    return ShallowNetwork(d=tables.d, k=tables.k,
                          a=np.where(positive, V, -V) / n,
                          omega=sphere.nodes[js], b=b, poly=tables.poly)


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
