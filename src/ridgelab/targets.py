"""Closed-form test functions with analytic Fourier data.

Fourier convention used throughout the library:

    F[f](xi) = integral of exp(-i xi . x) f(x) dx,
    f(x) = (2 pi)^{-d} integral of F[f](xi) exp(+i xi . x) dxi.

Every target carries a pointwise evaluator and a Fourier evaluator, both
accepting arrays of shape (..., d).
"""

import math
from dataclasses import dataclass

import numpy as np

# Tail level below which a value is treated as machine-negligible.
TRUNCATION_TOL = 1e-14


@dataclass(frozen=True)
class TargetFunction:
    """A test function f with analytic (or cached-quadrature) Fourier data.

    support_radius is the radius beyond which |f| < TRUNCATION_TOL; for
    Gaussian targets this is the effective decay radius, not a hard cutoff.
    bandwidth is a frequency beyond which the Fourier data is negligible
    (None when unknown); grid Nyquist checks use it as a heuristic.
    radial is True for targets radial about the origin: their Fourier data
    depends on |xi| alone, so the slice along e1 is every direction's.

    factors is None or a sum of separable terms, a tuple of (c, g) with

        f(x) = sum over terms of c * prod_i g(z)[i],  z[i] = x[..., i],

    where g takes axis-major points z of shape (d, ...) and returns the d
    per-axis factors in an array of the same shape.  The terms describe
    the same function as evaluate (up to rounding); smooth_approximant
    reads them instead of calling evaluate when they are given.
    """

    d: int
    evaluate: callable
    fourier: callable
    support_radius: float
    bandwidth: float = None
    radial: bool = False
    factors: tuple = None

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class GaussianSpec:
    """A*exp(-|x-c|^2 / (2 sigma^2)) in R^d."""

    d: int
    center: np.ndarray = None
    width: float = 1.0  # sigma^2
    amplitude: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width sigma^2 must be strictly positive")
        c = np.zeros(self.d) if self.center is None else np.asarray(self.center, float)
        if c.shape != (self.d,):
            raise ValueError("center must have length d")
        object.__setattr__(self, "center", c)

    @property
    def sigma(self):
        return math.sqrt(self.width)

    def decay_radius(self):
        """Radius beyond which |f| < TRUNCATION_TOL."""
        a = abs(self.amplitude)
        if a <= TRUNCATION_TOL:
            return 0.0
        return float(np.linalg.norm(self.center)) + self.sigma * math.sqrt(
            2.0 * math.log(a / TRUNCATION_TOL)
        )


def make_gaussian(spec):
    """Gaussian target with closed-form Fourier transform.

    F[f](xi) = A (2 pi sigma^2)^{d/2} exp(-sigma^2 |xi|^2 / 2) exp(-i xi.c).
    """
    d, c, s2, a = spec.d, spec.center, spec.width, spec.amplitude

    def evaluate(x):
        # in place, with one temporary; the d < 8 squares are added one by
        # one as np.sum adds them, and (-r2) / (2 s2) = r2 / (-2 s2) in IEEE
        # arithmetic, so the values equal
        # a * exp(-sum((x - c)**2, -1) / (2 s2)) bit for bit
        x = np.asarray(x, float)
        if x.shape[-1:] != (d,):
            raise ValueError("points must have %d coordinates, got shape %s"
                             % (d, x.shape))
        r2 = np.subtract(x[..., 0], c[0], out=np.empty(x.shape[:-1]))
        np.multiply(r2, r2, out=r2)
        sq = np.empty_like(r2)
        for i in range(1, d):
            np.subtract(x[..., i], c[i], out=sq)
            np.multiply(sq, sq, out=sq)
            r2 += sq
        np.divide(r2, -2.0 * s2, out=r2)
        np.exp(r2, out=r2)
        r2 *= a
        return r2[()]

    def factor(z):
        # exp(-(z[i] - c_i)^2 / (2 s2)) along each axis i: their product
        # times a is evaluate's value to within a few ulp
        q = np.subtract(z, c.reshape((d,) + (1,) * (np.ndim(z) - 1)))
        np.multiply(q, q, out=q)
        np.divide(q, -2.0 * s2, out=q)
        return np.exp(q, out=q)

    norm = a * (2.0 * np.pi * s2) ** (d / 2.0)

    def fourier(xi):
        xi = np.asarray(xi, float)
        q2 = np.sum(xi ** 2, axis=-1)
        phase = np.tensordot(xi, c, axes=([-1], [0]))
        return norm * np.exp(-s2 * q2 / 2.0) * np.exp(-1j * phase)

    # frequency where the Fourier data drops below TRUNCATION_TOL
    bandwidth = None
    if abs(norm) > TRUNCATION_TOL:
        bandwidth = math.sqrt(2.0 * math.log(abs(norm) / TRUNCATION_TOL) / s2)

    return TargetFunction(
        d=d,
        evaluate=evaluate,
        fourier=fourier,
        support_radius=spec.decay_radius(),
        bandwidth=bandwidth,
        radial=not np.any(c),
        factors=((a, factor),),
    )


def gaussian_radon_oracle(spec, omega, b):
    """Closed-form hyperplane integral of a Gaussian.

    R f(omega, b) = A (2 pi sigma^2)^{(d-1)/2} exp(-(b - omega.c)^2 / (2 sigma^2)).
    """
    omega = np.asarray(omega, float)
    if abs(np.linalg.norm(omega) - 1.0) > 1e-10:
        raise ValueError("omega must be a unit vector")
    mu = float(np.dot(omega, spec.center))
    b = np.asarray(b, float)
    pref = spec.amplitude * (2.0 * np.pi * spec.width) ** ((spec.d - 1) / 2.0)
    out = pref * np.exp(-((b - mu) ** 2) / (2.0 * spec.width))
    return out if out.ndim else float(out)


def _radial_fourier_quad(profile, d, rho):
    """Fourier transform of a radial function supported in [0, 1] at |xi| = rho.

    At d = 1 the cosine, and at d = 3 the sine, is QUADPACK's QAWO weight,
    which stays accurate at high rho where a plain adaptive rule loses the
    cancellation.
    """
    from scipy import integrate, special
    if d == 1:
        val, _ = integrate.quad(lambda r: 2.0 * profile(r), 0.0, 1.0,
                                weight="cos", wvar=rho, limit=200)
    elif d == 2:
        val, _ = integrate.quad(lambda r: 2.0 * np.pi * profile(r) * special.j0(r * rho) * r,
                                0.0, 1.0, limit=200)
    elif d == 3:
        if rho == 0.0:
            val, _ = integrate.quad(lambda r: 4.0 * np.pi * profile(r) * r ** 2,
                                    0.0, 1.0, limit=200)
        else:
            val, _ = integrate.quad(
                lambda r: 4.0 * np.pi * profile(r) * r / rho, 0.0, 1.0,
                weight="sin", wvar=rho, limit=200)
    else:
        raise ValueError("radial Fourier quadrature is limited to d <= 3")
    return val


def make_cusp_radial(gamma, d):
    """Finite-smoothness radial target f(x) = max(0, 1 - |x|)^gamma.

    Supported in the closed unit ball.  The Fourier transform is real and
    radial; values are obtained by cached radial quadrature (1e-6 accuracy,
    sufficient for rate studies).
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")

    def evaluate(x):
        x = np.asarray(x, float)
        r = np.sqrt(np.sum(x ** 2, axis=-1))
        return np.maximum(0.0, 1.0 - r) ** gamma

    cache = {}

    def profile(r):
        return max(0.0, 1.0 - r) ** gamma

    def fourier(xi):
        rho = np.sqrt(np.sum(np.asarray(xi, float) ** 2, axis=-1))
        vals = np.empty(rho.size)
        for i, r in enumerate(rho.ravel()):
            key = round(float(r), 12)
            if key not in cache:
                cache[key] = _radial_fourier_quad(profile, d, key)
            vals[i] = cache[key]
        return vals.reshape(rho.shape).astype(complex)[()]

    return TargetFunction(
        d=d,
        evaluate=evaluate,
        fourier=fourier,
        support_radius=1.0,
        bandwidth=None,
        radial=True,
    )


def combine(f, g, cf=1.0, cg=1.0):
    """Linear combination cf*f + cg*g of two targets on the same R^d;
    radial when both parts are, separable (the terms of both) when both
    parts are."""
    if f.d != g.d:
        raise ValueError("dimension mismatch")
    factors = None
    if f.factors is not None and g.factors is not None:
        factors = (tuple((cf * c, h) for c, h in f.factors)
                   + tuple((cg * c, h) for c, h in g.factors))
    return TargetFunction(
        d=f.d,
        evaluate=lambda x: cf * f.evaluate(x) + cg * g.evaluate(x),
        fourier=lambda xi: cf * f.fourier(xi) + cg * g.fourier(xi),
        support_radius=max(f.support_radius, g.support_radius),
        bandwidth=max(f.bandwidth or 0.0, g.bandwidth or 0.0) or None,
        radial=f.radial and g.radial,
        factors=factors,
    )
