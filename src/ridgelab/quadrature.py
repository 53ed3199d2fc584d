"""Sphere quadrature grids, ball samplers, and symmetric line grids.

All integral computations in the library pull their nodes and weights from
here.  Sphere grids are deterministic for d <= 3; higher dimensions get
Monte Carlo directions only (``sample_directions``).  Lattice points in the
ball come from a scrambled Sobol sequence, also limited to d <= 3.
"""

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
# numpy loads np.random on first use; loading it with the library keeps
# that cost out of the first run that draws points
import numpy.random  # noqa: F401
from numpy.polynomial.legendre import leggauss

# Joe & Kuo's Sobol direction numbers (SIAM J. Sci. Comput. 30, 2008) for
# the first three dimensions: the primitive polynomials, with both end
# coefficients as bits, and the initial numbers m_1..m_s (the first
# dimension has m_j = 1 for every j).  Points carry SOBOL_BITS bits.
SOBOL_POLYNOMIALS = (1, 3, 7)
SOBOL_INITIAL = ((), (1,), (1, 3))
SOBOL_BITS = 30


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


@functools.lru_cache(maxsize=16)
def gauss_legendre(n):
    """numpy's n-node Gauss-Legendre rule on [-1, 1] as read-only (nodes,
    weights), built once per n.  numpy symmetrizes both, so u[n - 1 - i]
    == -u[i] and w[n - 1 - i] == w[i] exactly."""
    u, w = leggauss(n)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


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
        n_pol, n_az = level + 1, 2 * (level + 1)
        u, wu = gauss_legendre(n_pol)  # u = cos(polar angle)
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        su = np.sqrt(1.0 - u ** 2)
        nodes = np.column_stack([np.outer(su, np.cos(phi)).ravel(),
                                 np.outer(su, np.sin(phi)).ravel(),
                                 np.repeat(u, n_az)])
        weights = np.repeat(wu * (2.0 * np.pi / n_az), n_az)
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
    interval [-1, 1] is interior; the knots, the nodes of knot_window, also
    need -1 and 1 to be nodes.  The default L=4 pads well beyond the knot
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

    @property
    def knot_window(self):
        """The nodes on [-1, 1] as slice(m, N - m + 1): node m is -1 and
        node N - m is 1, with m = (L - 1) / h = (L - 1) N / (2L).

        Raises ValueError unless m is a whole number >= 1, which holds
        exactly when L is a power of two >= 2 and N >= 2L; refine() keeps
        it.  With L = num / den exactly, m = (num - den) N / (2 num).
        """
        num, den = float(self.L).as_integer_ratio()
        m, rest = divmod((num - den) * self.N, 2 * num)
        if rest or m < 1:
            raise ValueError(
                "-1 and 1 are not nodes of LineGrid(L=%g, N=%d): L must be "
                "a power of two >= 2 and N >= 2L" % (self.L, self.N))
        return slice(m, self.N - m + 1)


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
        if self.mode == "lattice" and self.d > len(SOBOL_POLYNOMIALS):
            raise ValueError("lattice points are limited to d <= %d"
                             % len(SOBOL_POLYNOMIALS))


def _direction_numbers(dim):
    """The SOBOL_BITS direction numbers v_j = m_j 2^(SOBOL_BITS - j) of one
    dimension, from the recurrence of Bratley & Fox (ACM TOMS 14, 1988)."""
    poly = SOBOL_POLYNOMIALS[dim]
    s = poly.bit_length() - 1
    m = list(SOBOL_INITIAL[dim]) if s else [1] * SOBOL_BITS
    for j in range(len(m), SOBOL_BITS):
        new = m[j - s]
        for k in range(s):
            if (poly >> (s - 1 - k)) & 1:
                new ^= m[j - k - 1] << (k + 1)
        m.append(new)
    return [mj << (SOBOL_BITS - 1 - j) for j, mj in enumerate(m)]


def _sobol(d, seed, start, stop):
    """Points start..stop-1 of the scrambled Sobol sequence in [0, 1)^d.

    The scrambling is Matousek's linear matrix scramble plus a digital
    shift (J. Complexity 14, 1998), drawn from np.random.default_rng(seed)
    as scipy.stats.qmc.Sobol(d, scramble=True, seed=seed) draws it, so the
    points equal that engine's, bit for bit.  Point i is the shift XOR the
    scrambled direction numbers of the bits of the Gray code i ^ (i >> 1).
    """
    if stop > 2 ** SOBOL_BITS:
        raise ValueError("at most 2^%d Sobol points" % SOBOL_BITS)
    rng = np.random.default_rng(seed)
    powers = np.int64(1) << np.arange(SOBOL_BITS, dtype=np.int64)
    shift = rng.integers(2, size=(d, SOBOL_BITS), dtype=np.uint32) @ powers
    lower = (np.tril(rng.integers(2, size=(d, SOBOL_BITS, SOBOL_BITS),
                                  dtype=np.uint32)).astype(np.int64)
             | np.eye(SOBOL_BITS, dtype=np.int64))
    # bit q of a scrambled number is the parity of the bits of v against
    # row SOBOL_BITS - 1 - q of the matrix, whose column c meets bit
    # SOBOL_BITS - 1 - c: both axes of the matrix are read in reverse
    flipped = lower[:, ::-1, ::-1]
    v = np.array([_direction_numbers(i) for i in range(d)], dtype=np.int64)
    v_bits = (v[..., None] >> np.arange(SOBOL_BITS)) & 1
    scrambled = (np.einsum("dqk,djk->djq", flipped, v_bits) % 2) @ powers
    i = np.arange(start, stop, dtype=np.int64)
    gray = i ^ (i >> 1)
    out = np.repeat(shift[None, :], len(i), axis=0)
    for lo in range(0, int(gray.max(initial=0)).bit_length(), 8):
        # the XOR of every subset of the numbers of bits lo..lo+7, indexed
        # by that byte of the Gray code
        table = np.zeros((1, d), dtype=np.int64)
        for b in range(lo, min(lo + 8, SOBOL_BITS)):
            table = np.concatenate([table, table ^ scrambled[:, b]])
        out ^= table[(gray >> lo) & (len(table) - 1)]
    return out * 2.0 ** -SOBOL_BITS


@functools.lru_cache(maxsize=8)
def ball_points(sampler):
    """Emit sampler.count points in the open unit ball of R^d, in order:
    the cube points inside it from batches of max(2 * missing, 64), the
    next Sobol points or rng.uniform draws by mode.  They are generated
    once and shared by later calls (tests, lp_error), so are read-only.
    """
    d, m = sampler.d, sampler.count
    pts = np.empty((m, d))
    filled = drawn = 0
    rng = np.random.default_rng(sampler.seed)
    while filled < m:
        size = max(2 * (m - filled), 64)
        if sampler.mode == "lattice":
            batch = 2.0 * _sobol(d, sampler.seed, drawn, drawn + size) - 1.0
        else:
            batch = rng.uniform(-1.0, 1.0, size=(size, d))
        drawn += size
        batch = batch[np.linalg.norm(batch, axis=1) < 1.0][:m - filled]
        pts[filled:filled + len(batch)] = batch
        filled += len(batch)
    pts.flags.writeable = False
    return pts
