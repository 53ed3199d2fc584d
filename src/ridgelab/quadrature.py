"""Sphere quadrature grids, ball samplers, and symmetric line grids.

All integral computations in the library pull their nodes and weights from
here.  Sphere grids are deterministic for d <= 3; higher dimensions get
Monte Carlo directions only (``sample_directions``).
"""

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc


def surface_area(d):
    """Surface area of the unit sphere S^{d-1} (2 for d=1, 2*pi for d=2, ...)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d):
    """Volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def component_seed(master, label):
    """Derive a child seed from a 64-bit master seed and a fixed label.

    All randomness in an experiment flows from a single master seed; each
    component gets an independent stream keyed by its label.
    """
    key = int(master).to_bytes(8, "little", signed=False)
    digest = hashlib.blake2s(label.encode("utf-8"), key=key).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on S^{d-1} with positive weights summing to its area."""

    d: int
    nodes: np.ndarray  # (J, d) unit vectors
    weights: np.ndarray  # (J,) positive

    def __post_init__(self):
        norms = np.linalg.norm(self.nodes, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("sphere grid nodes must be unit vectors")
        if np.any(self.weights <= 0):
            raise ValueError("sphere grid weights must be positive")

    def __len__(self):
        return len(self.weights)

    def integrate(self, values):
        """Weighted sum of per-node values (fixed order, reproducible)."""
        return float(np.dot(self.weights, values))


def sphere_grid(d, level):
    """Deterministic quadrature grid on S^{d-1} for d in {1, 2, 3}.

    d=1 is the two-point counting measure, d=2 the uniform circle rule with
    2^level angles, d=3 a Gauss-Legendre (polar) x uniform (azimuth) product
    rule exact for polynomials of degree >= 2*level.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if d == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif d == 2:
        n = 2 ** level
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(n, 2.0 * np.pi / n)
    elif d == 3:
        n_pol = level + 1
        n_az = 2 * (level + 1)
        u, wu = leggauss(n_pol)  # u = cos(polar angle)
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        su = np.sqrt(1.0 - u ** 2)
        nodes = np.empty((n_pol * n_az, 3))
        weights = np.empty(n_pol * n_az)
        idx = 0
        for i in range(n_pol):
            for j in range(n_az):
                nodes[idx] = (su[i] * np.cos(phi[j]), su[i] * np.sin(phi[j]), u[i])
                weights[idx] = wu[i] * (2.0 * np.pi / n_az)
                idx += 1
    else:
        raise ValueError(
            "deterministic sphere grids are limited to d <= 3; "
            "use sample_directions for higher dimensions"
        )
    return SphereGrid(d=d, nodes=nodes, weights=weights)


def sample_directions(d, n, seed):
    """n i.i.d. uniform directions on S^{d-1} (normalized Gaussians)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty((n, d))
    filled = 0
    while filled < n:
        g = rng.standard_normal((n - filled, d))
        norms = np.linalg.norm(g, axis=1)
        ok = norms > 1e-12
        g = g[ok] / norms[ok, None]
        out[filled:filled + len(g)] = g
        filled += len(g)
    return out


@dataclass(frozen=True)
class LineGrid:
    """Symmetric uniform grid b_m = -L + m*h, m = 0..N-1, with h = 2L/N.

    N must be a power of two (spectral operations), and L >= 1 so the knot
    interval [-1, 1] is interior.  The default L=4 pads well beyond the knot
    interval: back-projected profiles have slowly decaying Hilbert tails and
    the padding controls spectral wrap-around.
    """

    L: float = 4.0
    N: int = 2048

    def __post_init__(self):
        if self.L < 1.0:
            raise ValueError("half-width L must be >= 1")
        if self.N < 2 or (self.N & (self.N - 1)) != 0:
            raise ValueError("N must be a power of two")

    @property
    def h(self):
        return 2.0 * self.L / self.N

    @property
    def nodes(self):
        return -self.L + self.h * np.arange(self.N)

    @property
    def frequencies(self):
        """Dual frequencies in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    @property
    def nyquist(self):
        return np.pi / self.h

    def refine(self):
        """One refinement step: halve the spacing and double the padding."""
        return LineGrid(L=2.0 * self.L, N=4 * self.N)

    def knot_mask(self):
        """Boolean mask of nodes inside [-1, 1]."""
        return np.abs(self.nodes) <= 1.0 + 1e-12


@dataclass(frozen=True)
class BallSampler:
    """Reproducible point sets in the open unit ball.

    mode "lattice" uses a scrambled Sobol sequence filtered to the ball,
    mode "pseudo-random" uses rejection sampling from the cube.  Identical
    seeds give identical point lists.
    """

    d: int
    mode: str = "lattice"
    count: int = 2 ** 16
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("lattice", "pseudo-random"):
            raise ValueError("mode must be 'lattice' or 'pseudo-random'")
        if self.d < 1 or self.count < 0:
            raise ValueError("invalid sampler parameters")


@functools.lru_cache(maxsize=8)
def ball_points(sampler):
    """Emit sampler.count points in the open unit ball of R^d.

    The points of a sampler are generated once and shared by every later
    call (a sweep measures all its networks on one point set), so the
    returned array is read-only.
    """
    d, m = sampler.d, sampler.count
    pts = np.empty((m, d))
    filled = 0
    if sampler.mode == "lattice":
        engine = qmc.Sobol(d=d, scramble=True, seed=sampler.seed)
        while filled < m:
            batch = 2.0 * engine.random(max(2 * (m - filled), 64)) - 1.0
            batch = batch[np.linalg.norm(batch, axis=1) < 1.0]
            take = min(len(batch), m - filled)
            pts[filled:filled + take] = batch[:take]
            filled += take
    else:
        rng = np.random.default_rng(sampler.seed)
        while filled < m:
            batch = rng.uniform(-1.0, 1.0, size=(max(2 * (m - filled), 64), d))
            batch = batch[np.linalg.norm(batch, axis=1) < 1.0]
            take = min(len(batch), m - filled)
            pts[filled:filled + take] = batch[:take]
            filled += take
    pts.flags.writeable = False
    return pts
