"""Peano-kernel ingredients: the tables of the ridge decomposition (ridge
derivative densities, the variation-norm bound and the polynomial part),
the monomial expansion of (omega.x + c)^m, and Fourier-side Sobolev
seminorms.

On the unit ball a smooth target decomposes as

    f(x) = p(x) + (1/k!) int_{S^{d-1}} int_{-1}^{1}
                  F_omega^{(k+1)}(b) sigma_k(omega.x - b) db domega,

where F_omega is the back-projected profile, p has degree <= k, and the
double integral of |F^{(k+1)}| (divided by k!) upper-bounds the network
variation norm of the integral term.  peano_tables tabulates all three
from one pass of derivative_blocks.
"""

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

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


def affine_powers(omegas, offsets, m, basis):
    """Monomial coefficients of (omega_i.x + c_i)^m, i < n, as the
    (len(basis), n) matrix

        m! / (alpha! (m - |alpha|)!) c_i^(m - |alpha|) omega_i^alpha,

    with 0 where |alpha| > m.  omegas is (n, d); offsets is a scalar or
    (n,); basis is a list of exponent tuples (as from multi_indices).
    """
    alpha = np.array(basis, dtype=int)
    rest = m - alpha.sum(axis=1)
    multinomial = np.array([
        math.factorial(m) // (math.prod(map(math.factorial, a))
                              * math.factorial(j)) if j >= 0 else 0
        for a, j in zip(basis, rest)], float)
    return (multinomial[:, None]
            * np.asarray(offsets, float) ** np.maximum(rest, 0)[:, None]
            * np.prod(np.asarray(omegas, float) ** alpha[:, None, :], axis=2))


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
    from scipy.interpolate import CubicSpline
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


def peano_polynomial(d, k, sphere, at_minus_one):
    """The polynomial part from tabulated F_{omega_j}^{(m)}(-1):

        p(x) = sum_j w_j sum_{m=0}^{k} F_{omega_j}^{(m)}(-1)/m! (omega_j.x + 1)^m,

    expanded into monomial coefficients, one matrix product per m;
    at_minus_one[j, m] holds F_{omega_j}^{(m)}(-1).
    """
    basis = multi_indices(d, k)
    coeffs = sum(affine_powers(sphere.nodes, 1.0, m, basis)
                 @ (sphere.weights * at_minus_one[:, m] / math.factorial(m))
                 for m in range(k + 1))
    return PolynomialPart(d=d, coefficients=dict(zip(basis, coeffs.tolist())))


@dataclass(frozen=True)
class PeanoTables:
    """The discretized Peano decomposition of a target on a sphere grid:

        f ~ poly + (1/k!) sum_j w_j sum_m weights_m profiles[j, m]
                   sigma_k(omega_j.x - knots_m),

    with profiles[j, m] = F_{omega_j}^{(k+1)}(knots_m), the knots the line
    grid's nodes in [-1, 1] and weights their trapezoid weights.  cdf[j] is
    the normalised cumulative trapezoid integral of |profiles[j]| over the
    knots, the piecewise-linear CDF whose inverse from_sampling draws knots
    from (all zeros for a direction without mass).  mass[j] is
    w_j sum_m weights_m |profiles[j, m]|, and variation = sum_j mass[j] / k!
    is the variation-norm upper bound of the integral term.  Both network
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
    mass: np.ndarray  # (J,)
    variation: float
    poly: PolynomialPart


def peano_tables(f, k, sphere, grid):
    """Tabulate F^{(k+1)} on the knots for every direction of the sphere
    grid, its mass and variation bound, and the polynomial part from
    F^{(m)}(-1), m <= k, in one pass of derivative_blocks; warns as it does.
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
    mass = sphere.weights * (absv @ weights)
    del absv
    np.divide(cdf, cdf[:, -1:], out=cdf, where=cdf[:, -1:] > 0)
    for array in (knots, weights, profiles, cdf, mass):
        array.flags.writeable = False
    return PeanoTables(d=f.d, k=k, sphere=sphere, knots=knots,
                       weights=weights, profiles=profiles, cdf=cdf, mass=mass,
                       variation=float(mass.sum() / math.factorial(k)),
                       poly=peano_polynomial(f.d, k, sphere, at_minus_one))


# sobolev_seminorm's quadratures: the level of the sphere grid, the
# Simpson points on [0, R], and the first cutoff R, which doubles while
# the integrand has not decayed.
SEMINORM_SPHERE_LEVEL = 6
SEMINORM_RADIAL_POINTS = 8193
SEMINORM_FIRST_CUTOFF = 16.0


def sobolev_seminorm(f, s):
    """Fourier-side Sobolev seminorm of order s:

        ( (2 pi)^{-d} int |xi|^{2s} |f_hat(xi)|^2 dxi )^{1/2}.

    The angular integral uses a deterministic sphere grid (d <= 3) and the
    radial integral a composite Simpson rule on [0, R], with R doubled from
    SEMINORM_FIRST_CUTOFF until the integrand has decayed below 1e-14 of
    its peak (ValueError past 1e4).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    d = f.d
    grid = sphere_grid(d, SEMINORM_SPHERE_LEVEL)

    def shell(r):
        # int_{S^{d-1}} |f_hat(r omega)|^2 domega, vectorized over r
        r = np.asarray(r, float)
        xi = r[:, None, None] * grid.nodes[None, :, :]
        vals = np.abs(f.fourier(xi)) ** 2
        return vals @ grid.weights

    R = SEMINORM_FIRST_CUTOFF
    while True:
        r = np.linspace(0.0, R, SEMINORM_RADIAL_POINTS)
        integrand = r ** (2 * s + d - 1) * shell(r)
        peak = integrand.max()
        if peak == 0.0:
            return 0.0
        if integrand[-1] < 1e-14 * peak:
            break
        if R > 1e4:
            raise ValueError("seminorm integrand has not decayed at the "
                             "radial cutoff; integral may diverge")
        R *= 2.0
    from scipy.integrate import simpson
    total = simpson(integrand, x=r)
    return math.sqrt(total) / (2.0 * np.pi) ** (d / 2.0)
