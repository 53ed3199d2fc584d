"""Peano-kernel ingredients: ridge derivative densities, the polynomial
part, the variation-norm upper bound, and Fourier-side Sobolev seminorms.

On the unit ball a smooth target decomposes as

    f(x) = p(x) + (1/k!) int_{S^{d-1}} int_{-1}^{1}
                  F_omega^{(k+1)}(b) sigma_k(omega.x - b) db domega,

where F_omega is the back-projected profile, p has degree <= k, and the
double integral of |F^{(k+1)}| (divided by k!) upper-bounds the network
variation norm of the integral term.
"""

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np
from scipy.interpolate import CubicSpline

from .fourier_radon import RidgeProfile, derivative_blocks
from .quadrature import SphereGrid, sphere_grid


def theorem_order(d, k):
    """Smoothness order s = (d + 2k + 1) / 2 at which the embedding holds."""
    return (d + 2 * k + 1) / 2.0


def multi_indices(d, max_degree):
    """All exponent tuples alpha with |alpha| <= max_degree, in a fixed order."""
    out = []
    for alpha in iproduct(range(max_degree + 1), repeat=d):
        if sum(alpha) <= max_degree:
            out.append(alpha)
    out.sort(key=lambda a: (sum(a), a))
    return out


@dataclass(frozen=True)
class PolynomialPart:
    """Polynomial of degree <= k in the monomial basis."""

    d: int
    coefficients: dict  # exponent tuple -> float

    @property
    def degree(self):
        if not self.coefficients:
            return 0
        return max(sum(a) for a in self.coefficients)

    def __call__(self, x):
        x = np.asarray(x, float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(len(pts))
        for alpha, c in self.coefficients.items():
            if c == 0.0:
                continue
            term = np.full(len(pts), c)
            for i, e in enumerate(alpha):
                if e:
                    term *= pts[:, i] ** e
            out += term
        return float(out[0]) if single else out


def zero_polynomial(d):
    return PolynomialPart(d=d, coefficients={})


def derivative_profile(f, omega, k, grid, order=None):
    """Samples of F_omega^{(order)} with order = k+1 by default.

    One direction of derivative_blocks; warns as it does.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    order = k + 1 if order is None else order
    omega = np.asarray(omega, float)
    [(_, F)] = derivative_blocks(f, omega[None, :], grid, (order,))
    return RidgeProfile(omega=omega, grid=grid, values=F[0, 0],
                        kind="derivative(%d)" % order)


def values_at_minus_one(F, grid):
    """Grid samples along the last axis of F, evaluated at b = -1.

    When -1 is a grid node (as on every L = 4 grid with N >= 8) this is the
    sample there, which is exactly what the cubic spline through the
    samples returns; otherwise the spline is built along the last axis.
    """
    node = np.flatnonzero(grid.nodes == -1.0)
    if len(node):
        return F[..., node[0]]
    return CubicSpline(grid.nodes, F, axis=-1)(-1.0)


def _trapezoid_weights(b):
    """Composite trapezoid weights on a sorted node vector."""
    w = np.zeros(len(b))
    if len(b) < 2:
        return w
    gaps = np.diff(b)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


def variation_upper_bound(f, k, sphere, grid):
    """Upper bound on the variation norm of the integral term:

        (1/k!) sum_j w_j int_{-1}^{1} |F_{omega_j}^{(k+1)}(b)| db,

    with the b-integral by the trapezoid rule on the sub-grid in [-1, 1].
    """
    mask = grid.knot_mask()
    tw = _trapezoid_weights(grid.nodes[mask])
    total = 0.0
    for lo, F in derivative_blocks(f, sphere.nodes, grid, (k + 1,)):
        for wj, row in zip(sphere.weights[lo:], F[0][:, mask]):
            total += wj * float(np.dot(tw, np.abs(row)))
    return total / math.factorial(k)


def peano_polynomial(d, k, sphere, at_minus_one):
    """The polynomial part from tabulated F_{omega_j}^{(m)}(-1):

        p(x) = sum_j w_j sum_{m=0}^{k} F_{omega_j}^{(m)}(-1)/m! (omega_j.x + 1)^m,

    expanded into monomial coefficients; at_minus_one[j, m] holds
    F_{omega_j}^{(m)}(-1).
    """
    coeffs = {a: 0.0 for a in multi_indices(d, k)}
    for wj, omega, values in zip(sphere.weights, sphere.nodes, at_minus_one):
        for m in range(k + 1):
            fm = float(values[m]) / math.factorial(m)
            # expand (omega.x + 1)^m into monomials
            for alpha in multi_indices(d, m):
                j = m - sum(alpha)
                mult = math.factorial(m) / (
                    math.prod(math.factorial(e) for e in alpha) * math.factorial(j))
                w_pow = math.prod(omega[i] ** e for i, e in enumerate(alpha))
                coeffs[alpha] += wj * fm * mult * w_pow
    return PolynomialPart(d=d, coefficients=coeffs)


@dataclass(frozen=True)
class PeanoTables:
    """The discretized Peano decomposition of a target on a sphere grid:

        f ~ poly + (1/k!) sum_j w_j sum_m weights_m profiles[j, m]
                   sigma_k(omega_j.x - knots_m),

    with profiles[j, m] = F_{omega_j}^{(k+1)}(knots_m), the knots the line
    grid's nodes in [-1, 1] and weights their trapezoid weights.  cdf[j] is
    the normalised cumulative trapezoid integral of |profiles[j]| over the
    knots, the piecewise-linear CDF whose inverse from_sampling draws knots
    from (all zeros for a direction without mass).  Both network
    constructors read it; the arrays are read-only so that one table can
    feed any number of networks.
    """

    d: int
    k: int
    sphere: SphereGrid
    knots: np.ndarray  # (M,)
    weights: np.ndarray  # (M,)
    profiles: np.ndarray  # (J, M)
    cdf: np.ndarray  # (J, M)
    poly: PolynomialPart


def peano_tables(f, k, sphere, grid):
    """Tabulate F^{(k+1)} on the knots for every direction of the sphere
    grid, and the polynomial part from F^{(m)}(-1), m <= k, in one pass of
    derivative_blocks; warns as it does.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    mask = grid.knot_mask()
    knots = grid.nodes[mask]
    weights = _trapezoid_weights(knots)
    profiles = np.empty((len(sphere), len(knots)))
    at_minus_one = np.empty((len(sphere), k + 1))
    for lo, F in derivative_blocks(f, sphere.nodes, grid, range(k + 2)):
        hi = lo + F.shape[1]
        profiles[lo:hi] = F[k + 1][:, mask]
        at_minus_one[lo:hi] = values_at_minus_one(F[:k + 1], grid).T
    absv = np.abs(profiles)
    cdf = np.zeros_like(absv)
    np.cumsum(0.5 * (absv[:, 1:] + absv[:, :-1]) * np.diff(knots), axis=1,
              out=cdf[:, 1:])
    del absv
    np.divide(cdf, cdf[:, -1:], out=cdf, where=cdf[:, -1:] > 0)
    for array in (knots, weights, profiles, cdf):
        array.flags.writeable = False
    return PeanoTables(d=f.d, k=k, sphere=sphere, knots=knots,
                       weights=weights, profiles=profiles, cdf=cdf,
                       poly=peano_polynomial(f.d, k, sphere, at_minus_one))


def sobolev_seminorm(f, s, angular_level=6, radial_points=8193, r_max=None):
    """Fourier-side Sobolev seminorm of order s:

        ( (2 pi)^{-d} int |xi|^{2s} |f_hat(xi)|^2 dxi )^{1/2}.

    The angular integral uses a deterministic sphere grid (d <= 3) and the
    radial integral a composite Simpson rule on [0, R], with R grown until
    the integrand has decayed below 1e-14 of its peak.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    d = f.d
    grid = sphere_grid(d, angular_level)

    def shell(r):
        # int_{S^{d-1}} |f_hat(r omega)|^2 domega, vectorized over r
        r = np.asarray(r, float)
        xi = r[:, None, None] * grid.nodes[None, :, :]
        vals = np.abs(f.fourier(xi)) ** 2
        return vals @ grid.weights

    R = r_max if r_max is not None else 16.0
    while True:
        r = np.linspace(0.0, R, radial_points)
        integrand = r ** (2 * s + d - 1) * shell(r)
        peak = integrand.max()
        if peak == 0.0:
            return 0.0
        if integrand[-1] < 1e-14 * peak:
            break
        if r_max is not None or R > 1e4:
            raise ValueError("seminorm integrand has not decayed at the "
                             "radial cutoff; integral may diverge")
        R *= 2.0
    from scipy.integrate import simpson
    total = simpson(integrand, x=r)
    return math.sqrt(total) / (2.0 * np.pi) ** (d / 2.0)
