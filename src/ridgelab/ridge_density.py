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
from one call of filtered_rows; sub_rule reads the tables of a coarser
rule (every r-th knot) from them.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

import numpy as np

from .fourier_radon import filtered_rows
from .quadrature import LineGrid, SphereGrid, sphere_grid


def theorem_order(d, k):
    """Smoothness order s = (d + 2k + 1) / 2 at which the embedding holds."""
    return (d + 2 * k + 1) / 2.0


def multi_indices(d, max_degree):
    """All exponent tuples alpha with |alpha| <= max_degree, in a fixed order."""
    return sorted((a for a in iproduct(range(max_degree + 1), repeat=d)
                   if sum(a) <= max_degree), key=lambda a: (sum(a), a))


def monomials(omegas, basis):
    """omega_i^alpha for the rows omega_i of the (n, d) array omegas and
    the exponent tuples alpha of basis, as a (len(basis), n) matrix."""
    alpha = np.array(basis, dtype=int)
    return np.prod(np.asarray(omegas, float) ** alpha[:, None, :], axis=2)


def affine_powers(powers, offsets, m, basis):
    """Monomial coefficients of (omega_i.x + c_i)^m, i < n, as the
    (len(basis), n) matrix

        m! / (alpha! (m - |alpha|)!) c_i^(m - |alpha|) omega_i^alpha,

    with 0 where |alpha| > m.  powers is monomials(omegas, basis), which
    serves every m; offsets is a scalar or (n,); basis is a list of
    exponent tuples (as from multi_indices).
    """
    rest = m - np.array(basis, dtype=int).sum(axis=1)
    multinomial = np.array([
        math.factorial(m) // (math.prod(map(math.factorial, a))
                              * math.factorial(j)) if j >= 0 else 0
        for a, j in zip(basis, rest)], float)
    return (multinomial[:, None]
            * np.asarray(offsets, float) ** np.maximum(rest, 0)[:, None]
            * powers)


@dataclass(frozen=True)
class PolynomialPart:
    """Polynomial of degree <= k in the monomial basis."""

    d: int
    coefficients: dict  # exponent tuple -> float

    @property
    def degree(self):
        return max((sum(a) for a in self.coefficients), default=0)

    def __call__(self, x):
        x = np.asarray(x, float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(len(pts))
        for alpha, c in self.coefficients.items():
            if c == 0.0:
                continue
            # c * x_i^e_i * x_j^e_j ..., multiplied in that order; no
            # array of c is needed for the first product
            term = c
            for i, e in enumerate(alpha):
                if e:
                    term = term * pts[:, i] ** e
            out += term
        return float(out[0]) if single else out

    def __add__(self, other):
        coefficients = dict(self.coefficients)
        for alpha, c in other.coefficients.items():
            coefficients[alpha] = coefficients.get(alpha, 0.0) + c
        return PolynomialPart(d=self.d, coefficients=coefficients)


def peano_polynomial(d, k, sphere, *tables):
    """The polynomial part from tabulated F_{omega_j}^{(m)}(-1):

        p(x) = sum_j w_j sum_{m=0}^{k} F_{omega_j}^{(m)}(-1)/m! (omega_j.x + 1)^m,

    expanded into monomial coefficients, one matrix product per m, as one
    PolynomialPart per table; row j of a table holds
    F_{omega_j}^{(m)}(-1), m <= k, or any other coefficients of
    (omega_j.x + 1)^m / m! (peano_tables passes the end term's too).  The
    monomials omega_j^alpha are built once for all tables.
    """
    basis = multi_indices(d, k)
    powers = monomials(sphere.nodes, basis)
    expand = [affine_powers(powers, 1.0, m, basis) for m in range(k + 1)]
    return tuple(
        PolynomialPart(d=d, coefficients=dict(zip(basis, sum(
            A @ (sphere.weights * table[:, m] / math.factorial(m))
            for m, A in enumerate(expand)).tolist())))
        for table in tables)


@dataclass(frozen=True)
class PeanoTables:
    """The discretized Peano decomposition of a target on a sphere grid:

        f ~ poly + (1/k!) sum_j w_j sum_m weights_m profiles[rows[j], m]
                   sigma_k(omega_j.x - knots_m),

    with profiles[rows[j], m] = F_{omega_j}^{(k+1)}(knots_m), the knots the
    nodes of grid.knot_window (-1 to 1) and weights their trapezoid
    weights.  The R distinct profile rows are those of filtered_rows: one
    for a radial target (rows all 0), one per direction otherwise
    (rows = arange(J)); at_minus_one[m, r] is row r's F^{(m)}(-1),
    m <= k + 2.
    mass[j] is w_j sum_m weights_m |profiles[rows[j], m]|, and variation =
    sum_j mass[j] / k! is the variation-norm upper bound of the integral
    term, the ell_1 mass of its atoms (j, m), from_quadrature's neurons.
    end_term is the Euler-Maclaurin end term that the trapezoid rule over
    the knots misses at b = -1 (both constructors add it to poly).  Both
    network constructors read the tables; the arrays are read-only so that
    one table can feed any number of networks.
    """

    d: int
    k: int
    sphere: SphereGrid
    grid: LineGrid
    knots: np.ndarray  # (M,)
    weights: np.ndarray  # (M,)
    rows: np.ndarray  # (J,)
    profiles: np.ndarray  # (R, M)
    at_minus_one: np.ndarray  # (k + 3, R)
    mass: np.ndarray  # (J,)
    variation: float
    poly: PolynomialPart
    end_term: PolynomialPart

    @cached_property
    def cumulative(self):
        """(R, M) complex r + 1j c[r, m], c[r] the cumulative atom mass
        weights * |profiles[r]| over its total (0 in a row without mass),
        built once.  numpy orders complex numbers by real, then imaginary
        part, so np.searchsorted(cumulative.ravel(), r + 1j u, "right"),
        0 <= u < 1, finds the atom m of row r whose interval
        [c[r, m - 1], c[r, m]) holds u; an atom without mass has none."""
        c = np.cumsum(self.weights * np.abs(self.profiles), axis=1)
        np.divide(c, c[:, -1:], out=c, where=c[:, -1:] > 0)
        keys = np.arange(len(c))[:, None] + 1j * c
        keys.flags.writeable = False
        return keys


def peano_tables(f, k, sphere, grid):
    """Tabulate F^{(k+1)} on the knots for every direction of the sphere
    grid, its mass and variation bound, the polynomial part from
    F^{(m)}(-1), m <= k, and the end term from F^{(k+1)}(-1) and
    F^{(k+2)}(-1), in one call of filtered_rows; warns as it does.  The
    knots are the grid's nodes on [-1, 1], grid.knot_window (which raises
    ValueError, before any filtering, where -1 and 1 are not nodes): the
    window on which filtered_rows filters F^{(k+1)}, the other orders at -1
    alone.  The trapezoid weights are h, with h/2 at both ends.  The
    tables keep each profile row that filtered_rows returns, and its
    values F^{(m)}(-1), m <= k + 2, from which sub_rule rebuilds the
    polynomial part and the end term of a coarser rule.

    The end term: with g(b) = F^{(k+1)}(b) (u - b)_+^k / k! and u = omega.x,
    the trapezoid rule over the knots (spacing h) misses (h^2/12) g'(-1)
    of the integral over [-1, 1] (g'(1) = 0 for |u| < 1), that is

        (h^2/12) sum_j w_j [F^{(k+2)}(-1) (u + 1)^k / k!
                            - F^{(k+1)}(-1) (u + 1)^(k-1) / (k-1)!],

    the second term for k >= 1 only.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    # raises ValueError, before any filtering, where -1 and 1 are not nodes
    grid.knot_window
    ends = [*range(k + 1), k + 2]
    rows, (profiles,), E = filtered_rows(f, sphere.nodes, grid, (k + 1,),
                                         ends)
    # at_minus_one[m] holds F^{(m)}(-1), m <= k + 2
    at_minus_one = np.empty((k + 3, len(profiles)))
    at_minus_one[ends] = E
    at_minus_one[k + 1] = profiles[:, 0]
    return _assemble(f.d, k, sphere, grid, rows, profiles, at_minus_one)


def sub_rule(tables, sphere, grid):
    """The tables of the coarser rule on (sphere, grid) for the same
    integrand, read from tables without filtering again: a nested
    sub-rule.

    grid has the tables' half-width L and N = tables.grid.N / r points, so
    its knots are every r-th knot of the tables, bit for bit, and the
    profile columns are every r-th column; the trapezoid weights, mass,
    polynomial part and end term are rebuilt with the coarse h from the
    stored rows and values F^{(m)}(-1).  sphere is the tables' own, or any
    sphere grid for a table of one row (a radial target); other spheres
    raise ValueError.  The knots, weights, sphere and rows are those of
    peano_tables(f, k, sphere, grid) bit for bit; the profiles and end
    values are the finer grid's filter.  With sphere and grid the tables'
    own, the result equals tables bit for bit.
    """
    r, rest = divmod(tables.grid.N, grid.N)
    if grid.L != tables.grid.L or rest:
        raise ValueError(
            "the knots of LineGrid(L=%g, N=%d) are not every r-th knot of "
            "LineGrid(L=%g, N=%d)" % (grid.L, grid.N, tables.grid.L,
                                      tables.grid.N))
    if len(tables.profiles) == 1:
        rows = np.zeros(len(sphere), np.intp)
    elif (np.array_equal(sphere.nodes, tables.sphere.nodes)
          and np.array_equal(sphere.weights, tables.sphere.weights)):
        rows = tables.rows
    else:
        raise ValueError("a table of %d profile rows serves only its own "
                         "sphere grid" % len(tables.profiles))
    return _assemble(tables.d, tables.k, sphere, grid, rows,
                     tables.profiles[:, ::r], tables.at_minus_one)


def _assemble(d, k, sphere, grid, rows, profiles, at_minus_one):
    """PeanoTables from the profile rows on grid's knots and their values
    F^{(m)}(-1), m <= k + 2 (shape (k + 3, R)): the knots, trapezoid
    weights, mass, variation, polynomial part and end term."""
    knots = grid.nodes[grid.knot_window]
    weights = np.full(len(knots), grid.h)
    weights[[0, -1]] = grid.h / 2.0
    mass = sphere.weights * (np.abs(profiles) @ weights)[rows]
    for array in (knots, weights, rows, profiles, at_minus_one, mass):
        array.flags.writeable = False
    # the end term in peano_polynomial's form: coefficients of
    # (omega.x + 1)^m / m! at m = k and k - 1
    end = np.zeros((len(profiles), k + 1))
    end[:, k] = grid.h ** 2 / 12.0 * at_minus_one[k + 2]
    if k >= 1:
        end[:, k - 1] = -grid.h ** 2 / 12.0 * at_minus_one[k + 1]
    poly, end_term = peano_polynomial(d, k, sphere,
                                      at_minus_one[:k + 1, rows].T, end[rows])
    return PeanoTables(d=d, k=k, sphere=sphere, grid=grid, knots=knots,
                       weights=weights, rows=rows, profiles=profiles,
                       at_minus_one=at_minus_one, mass=mass,
                       variation=float(mass.sum() / math.factorial(k)),
                       poly=poly, end_term=end_term)


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
        # numpy's pairwise sum per shell, not a BLAS matrix-vector
        # product, so the bits do not depend on the thread count
        vals *= grid.weights
        return vals.sum(axis=-1)

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
    # composite Simpson on the uniform r (SEMINORM_RADIAL_POINTS is odd),
    # summed panel by panel as scipy's rule sums, which keeps the last bits
    h = r[1] - r[0]
    total = np.sum(h / 3.0 * (integrand[:-2:2] + 4.0 * integrand[1::2]
                              + integrand[2::2]))
    return math.sqrt(total) / (2.0 * np.pi) ** (d / 2.0)
