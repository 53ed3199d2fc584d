"""Radon slices, Radon transforms, filtered back-projection, reconstruction.

derivative_blocks is the one spectral core: it filters a block of Radon
rows by the multipliers (i t)^m M_d(t) for any orders m, and both
reconstruct (m = 0) and the Peano tables of ridge_density (m <= k + 1)
read it.

The filtered back-projection operator acts on a profile g by the Fourier
multiplier

    M_d(t) = |t|^{d-1} / (2 (2 pi)^{d-1}),

so that  f(x) = integral over S^{d-1} of (M_d applied to R f(omega, .))
evaluated at omega.x.  The constant is fixed by the round-trip identity
under this library's Fourier convention (see targets module); in one
dimension M_1 = 1/2 and the back-projected profile is f(omega*u)/2.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy loads np.fft and np.ma on first use (np.unique reads
# np.ma.is_masked); loading them with the library keeps that cost out of
# the first run that filters a profile
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401
from numpy.polynomial.legendre import leggauss

from .quadrature import LineGrid

# Fraction of Nyquist above which the spectral taper rolls off.
TAPER_START = 0.8

# Share of a profile's spectral mass the taper may remove before
# derivative_blocks warns.
SPECTRAL_MASS_TOL = 1e-8

# Frequency points per block of directions in derivative_blocks; bounds the
# (directions x frequencies) working arrays.
BLOCK_POINTS = 2 ** 20

# Frequency samples per grid node in _kernel_spectrum's quadrature of the
# spatial kernel: the period it sums over is this many grid widths.
KERNEL_OVERSAMPLE = 16


@dataclass(frozen=True)
class RidgeProfile:
    """Samples of a one-dimensional profile along direction omega.

    kind is "radon", "backprojected", or "derivative(j)".
    """

    omega: np.ndarray
    grid: LineGrid
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if len(self.values) != self.grid.N:
            raise ValueError("values length must equal grid count")

    def interpolator(self):
        """Cubic spline through the samples (reconstruction should be
        grid-limited, not interpolation-limited)."""
        from scipy.interpolate import CubicSpline
        return CubicSpline(self.grid.nodes, self.values)


def multiplier(d, t):
    """Back-projection multiplier |t|^{d-1} / (2 (2 pi)^{d-1})."""
    return np.abs(t) ** (d - 1) / (2.0 * (2.0 * np.pi) ** (d - 1))


def taper_window(t, nyquist):
    """Smooth cos^2 roll-off above TAPER_START of the Nyquist frequency.

    Controls high-frequency amplification by the multiplier; the removed
    mass is negligible for targets whose bandwidth sits below the roll-off.
    """
    t = np.abs(t)
    t0 = TAPER_START * nyquist
    width = nyquist - t0
    w = np.ones_like(t)
    hi = t > t0
    w[hi] = np.cos(0.5 * np.pi * (t[hi] - t0) / width) ** 2
    w[t > nyquist] = 0.0
    return w


def taper(grid):
    """Taper window sampled on the grid's dual frequencies."""
    return taper_window(grid.frequencies, grid.nyquist)


def _next_fast_len(n):
    """Smallest 2^a 3^b 5^c >= n: the lengths pocketfft's real transforms
    factor fastest, as scipy.fft.next_fast_len(n, real=True) picks them."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest 2^a p35 >= n
            candidate = p35 << ((n - 1) // p35).bit_length()
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def _convolution_length(N):
    """FFT length of the full linear convolution of an N-sample row with
    the (2N-1)-sample kernel (the length scipy's fftconvolve picks)."""
    return _next_fast_len(3 * N - 2)


@lru_cache(maxsize=64)
def _kernel_spectrum(L, N, d, order, cutoff):
    """Real FFT, zero-padded to _convolution_length, of the band-limited
    spatial kernel of the multiplier (i t)^order * M_d(t).

    The kernel is sampled on lags m*h for m = -(N-1)..(N-1) by a fine
    frequency quadrature (spacing Nyquist-preserving, period large enough
    that the kernel's own 1/u^2 tails are negligible).  The spectrum is
    tapered to zero at ``cutoff``; keeping the cutoff near the input's own
    spectral content avoids amplifying rounding noise by the t^order
    growth.  Cached per grid geometry and cutoff.
    """
    h = 2.0 * L / N
    nf = KERNEL_OVERSAMPLE * N
    t = 2.0 * np.pi * np.fft.fftfreq(nf, d=h)
    spec = (1j * t) ** order * multiplier(d, t) * taper_window(t, cutoff)
    k_per = np.fft.ifft(spec).real / h
    samples = k_per[np.arange(-(N - 1), N) % nf]
    out = np.fft.rfft(samples, _convolution_length(N))
    out.setflags(write=False)
    return out


def _effective_cutoff(values, grid):
    """Smallest grid frequency whose taper keeps each row's significant band.

    values has shape (..., N); one cutoff is returned per row.  Frequencies
    where a row's spectrum is below 1e-13 of its peak carry only rounding
    noise, so the kernel need not (and should not) pass them.
    """
    spec = np.abs(np.fft.fft(values, axis=-1))
    peak = spec.max(axis=-1, keepdims=True)
    band = np.where(spec > 1e-13 * peak, np.abs(grid.frequencies), 0.0).max(axis=-1)
    dt = np.pi / grid.L
    cutoff = np.ceil(band / (TAPER_START * dt)) * dt
    cutoff = np.minimum(grid.nyquist, np.maximum(cutoff, 8.0 * dt))
    return np.where(peak[..., 0] == 0.0, grid.nyquist, cutoff)


def _apply_multiplier_linear(values, grid, d, orders=(0,)):
    """Apply the multipliers (i t)^m M_d(t), m in orders, row by row.

    values has shape (..., N); the result has shape (len(orders), ..., N).
    For even d the multiplier has a |t| kink at t = 0 whose filtered tails
    decay slowly; circular (FFT) filtering would fold them back into the
    window, so each row is convolved (zero-padded, linearly) with the
    band-limited kernel of its own cutoff.  For odd d the multiplier is a
    plain polynomial in t (no kink), and circular filtering is exact on the
    grid.  Each row's spectrum is computed once for all orders.
    """
    values = np.asarray(values, float)
    N = grid.N
    rows = values.reshape(-1, N)
    cutoffs = _effective_cutoff(rows, grid)
    out = np.empty((len(orders), len(rows), N))
    t = grid.frequencies
    nfft = _convolution_length(N)
    if d % 2 == 1:
        spec = np.fft.fft(rows, axis=-1)
    else:
        spec = np.fft.rfft(rows, nfft, axis=-1)
    for cutoff in np.unique(cutoffs):
        sel = cutoffs == cutoff
        part = spec[sel]
        for i, m in enumerate(orders):
            if d % 2 == 1:
                filt = (part * (1j * t) ** m * multiplier(d, t)
                        * taper_window(t, cutoff))
                out[i, sel] = np.fft.ifft(filt, axis=-1).real
            else:
                kernel = _kernel_spectrum(grid.L, N, d, m, float(cutoff))
                conv = np.fft.irfft(part * kernel, nfft, axis=-1)
                out[i, sel] = conv[:, N - 1:2 * N - 1] * grid.h
    return out.reshape((len(orders),) + values.shape)


def _check_unit(omega):
    omega = np.asarray(omega, float)
    if np.any(np.abs(np.linalg.norm(omega, axis=-1) - 1.0) > 1e-10):
        raise ValueError("omega must be a unit vector")
    return omega


def radon_slice(f, omega, grid):
    """Fourier-slice data: g_omega_hat(t_m) = f_hat(omega * t_m).

    omega is one direction, shape (d,), or a block of them, shape (B, d);
    the result has shape (N,) or (B, N), in the grid's FFT frequency order.
    """
    omega = _check_unit(omega)
    t = grid.frequencies
    return f.fourier(t[:, None] * omega[..., None, :])


def _spectrum_to_profile(spectrum, grid):
    """Invert spectra tabulated on grid.frequencies (last axis) to node samples."""
    phase = np.exp(-1j * grid.frequencies * grid.L)
    return np.fft.ifft(spectrum * phase) / grid.h


def _check_grid(f, grid):
    """Warn when the line grid is too coarse or too short for the target."""
    if f.bandwidth is not None and grid.nyquist < f.bandwidth:
        warnings.warn(
            "grid Nyquist frequency %.3g is below the target bandwidth %.3g; "
            "Radon samples may alias" % (grid.nyquist, f.bandwidth))
    # Periodization folds tails of R f back into the window; for targets
    # decaying fast beyond L the folded mass is negligible.
    if f.support_radius > 2.0 * grid.L:
        warnings.warn("profile support exceeds twice the grid half-width; "
                      "expect wrap-around error")


def radon_transform(f, omega, grid):
    """Samples of R f(omega, b) on the grid, via the Fourier slice theorem."""
    omega = _check_unit(omega)
    _check_grid(f, grid)
    vals = _spectrum_to_profile(radon_slice(f, omega, grid), grid)
    return RidgeProfile(omega=omega, grid=grid, values=vals.real, kind="radon")


def _taper_loss(spectra, grid, d, orders):
    """Largest share of a row's derivative spectral mass, over the rows of
    spectra (shape (B, N)) and the orders, that the taper removes."""
    t = grid.frequencies
    removed = 1.0 - taper(grid)
    amplitude = np.abs(spectra)
    worst = 0.0
    for m in orders:
        weight = np.abs(t) ** m * multiplier(d, t)
        total = amplitude @ weight
        lost = amplitude @ (weight * removed)
        nonzero = total > 0
        worst = max(worst, (lost[nonzero] / total[nonzero]).max(initial=0.0))
    return worst


def derivative_blocks(f, omegas, grid, orders):
    """Samples of F_omega^{(m)} for every m in orders, a block of directions
    at a time.

    Yields (lo, F) with F[i, j] the samples of F^{(orders[i])} along
    omegas[lo + j].  Each block evaluates the Fourier slice once; the Radon
    rows, their cutoffs and their spectra are shared by all orders.  For a
    radial target (f.radial set) every direction has the same Radon row,
    so one row f.radial(|t|) is filtered once and each F is a read-only
    view that broadcasts it to the block's directions.  The multiplier of
    order m is (i t)^m M_d(t) with the standard high-frequency taper.
    After the last block, warns once when the taper removed a
    non-negligible share of some profile's spectral mass.
    """
    _check_grid(f, grid)
    block = max(1, BLOCK_POINTS // grid.N)
    if f.radial is not None:
        _check_unit(omegas)
        spectrum = f.radial(np.abs(grid.frequencies))[None, :]
        worst = _taper_loss(spectrum, grid, f.d, orders)
        rows = _spectrum_to_profile(spectrum, grid).real
        F = _apply_multiplier_linear(rows, grid, f.d, orders)
        for lo in range(0, len(omegas), block):
            count = min(block, len(omegas) - lo)
            yield lo, np.broadcast_to(F, (len(orders), count, grid.N))
    else:
        worst = 0.0
        for lo in range(0, len(omegas), block):
            spectra = radon_slice(f, omegas[lo:lo + block], grid)
            worst = max(worst, _taper_loss(spectra, grid, f.d, orders))
            rows = _spectrum_to_profile(spectra, grid).real
            yield lo, _apply_multiplier_linear(rows, grid, f.d, orders)
    if worst > SPECTRAL_MASS_TOL:
        warnings.warn(
            "spectral taper removed %.3g of the derivative profile mass; "
            "increase the grid resolution" % worst)


def radon_direct(f, omega, b, resolution=200):
    """Hyperplane quadrature of f over {x : omega.x = b}, d in {2, 3}.

    Independent of the spectral route; serves as its oracle.
    """
    omega = _check_unit(omega)
    d = f.d
    if d not in (2, 3):
        raise ValueError("radon_direct supports d in {2, 3}")
    r2 = f.support_radius ** 2 - b * b
    if r2 <= 0:
        return 0.0
    r = np.sqrt(r2)
    u, w = leggauss(resolution)
    u = u * r
    w = w * r
    if d == 2:
        perp = np.array([-omega[1], omega[0]])
        pts = b * omega[None, :] + u[:, None] * perp[None, :]
        return float(np.dot(w, f.evaluate(pts)))
    # d == 3: orthonormal basis of the plane through b*omega
    ref = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(ref, omega)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, omega) * omega
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(omega, e1)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(w, w)
    pts = (b * omega[None, :]
           + uu.ravel()[:, None] * e1[None, :]
           + vv.ravel()[:, None] * e2[None, :])
    return float(np.dot(ww.ravel(), f.evaluate(pts)))


def backproject_filter(profile, d):
    """Apply the back-projection multiplier M_d to a radon profile, by
    zero-padded convolution with the band-limited kernel (accurate for
    compactly supported inputs)."""
    if profile.kind != "radon":
        raise ValueError("backproject_filter expects a radon-kind profile")
    vals = _apply_multiplier_linear(profile.values, profile.grid, d)[0]
    return RidgeProfile(omega=profile.omega, grid=profile.grid, values=vals,
                        kind="backprojected")


def reconstruct(f, x, sphere, grid):
    """Filtered back-projection estimate of f at x (single point or batch).

    Returns sum_j w_j F_{omega_j}(omega_j . x) with cubic interpolation of
    each back-projected profile F = F^{(0)} from derivative_blocks;
    directions are reduced in fixed order.  A radial target has one profile
    for every direction, so one spline serves them all.  Warns as
    derivative_blocks does.
    """
    from scipy.interpolate import CubicSpline
    x = np.asarray(x, float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = np.zeros(len(pts))
    shared = None
    for lo, F in derivative_blocks(f, sphere.nodes, grid, (0,)):
        if f.radial is not None and shared is None:
            shared = CubicSpline(grid.nodes, F[0, 0])
        for wj, omega, row in zip(sphere.weights[lo:], sphere.nodes[lo:], F[0]):
            spline = shared if shared is not None else CubicSpline(grid.nodes, row)
            out += wj * spline(pts @ omega)
    return float(out[0]) if single else out
