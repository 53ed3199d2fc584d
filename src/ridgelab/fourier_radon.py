"""Radon slices, Radon transforms, filtered back-projection, reconstruction.

derivative_blocks is the one spectral core: it filters a block of Radon
rows by the multipliers (i t)^m M_d(t) for any orders m, and both
reconstruct (m = 0, 1) and the Peano tables of ridge_density (m <= k + 2)
read it, for the directions that shared_rows picks (one for a radial
target).  hermite is the one read of a profile between grid nodes: the
cubic through the samples of F^(m) with the samples of F^(m+1) as slopes.

The filtered back-projection operator acts on a profile g by the Fourier
multiplier

    M_d(t) = |t|^{d-1} / (2 (2 pi)^{d-1}),

so that  f(x) = integral over S^{d-1} of (M_d applied to R f(omega, .))
evaluated at omega.x.  The constant is fixed by the round-trip identity
under this library's Fourier convention (see targets module); in one
dimension M_1 = 1/2 and the back-projected profile is f(omega*u)/2.
"""

import warnings
from functools import lru_cache

import numpy as np
# numpy loads np.fft on first use; loading it with the library keeps that
# cost out of the first run that filters a profile
import numpy.fft  # noqa: F401
from numpy.polynomial.legendre import leggauss

# Fraction of Nyquist above which the spectral taper rolls off.
TAPER_START = 0.8

# Share of a profile's spectral mass the taper may remove before
# derivative_blocks warns.
SPECTRAL_MASS_TOL = 1e-8

# Frequency points per block of directions in derivative_blocks; bounds the
# (directions x frequencies) working arrays.
BLOCK_POINTS = 2 ** 20


def hermite(F, dF, grid, u):
    """Cubic Hermite interpolant of samples F with slopes dF (both on the
    grid's nodes, along the last axis), evaluated at u.

    The cell of u is floor((u + L) / h), clipped to [0, N - 2], so there is
    no search and no linear solve; points beyond the grid read the cubic of
    the end cell.  The result has shape F.shape[:-1] + np.shape(u).  At a
    node (t = 0, or t = 1 in the last cell) every basis weight is exactly
    0 or 1, so the sample itself is returned, bit for bit.
    """
    s = (np.asarray(u, float) + grid.L) / grid.h
    i = np.clip(np.floor(s), 0, grid.N - 2).astype(int)
    t = s - i
    t2 = t * t
    t3 = t2 * t
    w1 = 3.0 * t2 - 2.0 * t3
    return ((1.0 - w1) * F[..., i] + w1 * F[..., i + 1]
            + grid.h * ((t3 - 2.0 * t2 + t) * dF[..., i]
                        + (t3 - t2) * dF[..., i + 1]))


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


@lru_cache(maxsize=64)
def _kernel_spectra(L, N, d, cutoff, top):
    """Real FFTs, zero-padded to 3N, of the band-limited spatial kernels of
    the multipliers (i t)^m M_d(t), m = 0..top, tapered to zero at
    ``cutoff``: row m of a read-only (top + 1, 3N/2 + 1) array.

    Kernel m is sampled in closed form on the lags u = l h, |l| < N
    (Ramachandran & Lakshminarayanan, PNAS 1971; Natterer, The Mathematics
    of Computerized Tomography, ch. V):

        k_m(u) = c^(n+1) Re[i^m J_n(u c)] / (2 pi)^d,   n = m + d - 1,

    with c the cutoff and J_n(lam) = int_0^1 s^n w(s) e^{i lam s} ds, w the
    taper in s = t / c: 1 on [0, tau], tau = TAPER_START, then
    1/2 + cos(B (s - tau)) / 2 with B = pi / (1 - tau).  k_m(-u) is
    (-1)^m k_m(u).  The cosine splits J_n into four integrals
    int_a^b s^n e^{i alpha s} ds, all read off e^{i lam tau} and e^{i lam}:
    alpha = lam on [0, tau] and on [tau, 1] (weights 1 and 1/2), and
    alpha = lam +- B on [tau, 1] (weights e^{-+i B tau} / 4).  Each has the
    primitive P_n = (s^n e^{i alpha s} - n P_{n-1}) / (i alpha), so one pass
    over n gives every order; where |alpha| < 2 that recurrence loses
    digits and the Taylor series of e^{i alpha s} (28 terms) takes over.
    These are the continuous kernel's samples: a quadrature of the
    spectrum on a finite period would add the periodic images of the
    order-0 kernel's -1/(2 pi u)^2 tail.  Keeping the cutoff near the
    input's own band keeps the t^m growth from amplifying rounding noise.
    Cached per grid geometry, cutoff and highest order.
    """
    h = 2.0 * L / N
    tau = TAPER_START
    B = np.pi / (1.0 - tau)
    top_n = top + d - 1
    shift = np.array([0.0, 0.0, B, -B])[:, None]
    weight = np.array([1.0, 0.5, 0.25 * np.exp(-1j * B * tau),
                       0.25 * np.exp(1j * B * tau)])
    lo = np.array([0.0, tau, tau, tau])[:, None]
    hi = np.array([tau, 1.0, 1.0, 1.0])[:, None]
    # e^{i alpha s} at the interval ends is e^{i lam s} times these
    at_tau, at_one = np.exp(1j * tau * shift), np.exp(1j * shift)
    # moments[r, j, n] = i^j times the integral over interval r of
    # s^(n+j) ds: the Taylor series' terms over alpha^j / j!
    power = np.arange(28)[:, None] + np.arange(1, top_n + 2)
    moments = (np.array([1.0, 1j, -1.0, -1j])[np.arange(28) % 4, None]
               * (hi[:, :, None] ** power - lo[:, :, None] ** power) / power)
    samples = np.empty((top + 1, 2 * N - 1))
    # blocks of 2048 lags: a warm build of 5 orders at N = 16384 took 11-12
    # ms with them, 15 ms with full-length (4, N) temporaries and 13-19 ms
    # with blocks of 1024 or 4096 (best of 7, one BLAS thread, 2-core Xeon)
    for start in range(0, N, 2048):
        lam = np.arange(start, min(start + 2048, N)) * (h * cutoff)
        e_tau = np.exp(1j * tau * lam)
        alpha = lam + shift
        at_lo = at_tau * e_tau
        at_lo[0] = 1.0
        at_hi = at_one * np.exp(1j * lam)
        at_hi[0] = e_tau
        series = np.abs(alpha) < 2.0
        rows, cols = np.nonzero(series)
        terms = np.ones((len(rows), 28))
        terms[:, 1:] = alpha[series][:, None] / np.arange(1, 28)
        np.cumprod(terms, axis=1, out=terms)
        near = np.empty((len(rows), top_n + 1), complex)
        for r in range(4):
            # einsum sums each entry over j alone, so that an order's bits
            # do not depend on how many orders the build holds (a BLAS
            # product blocks by the matrix shape)
            near[rows == r] = (
                np.einsum("sj,jn->sn", terms[rows == r], moments[r].real)
                + 1j * np.einsum("sj,jn->sn", terms[rows == r],
                                 moments[r].imag))
        inverse = -1j / np.where(series, 1.0, alpha)
        D = np.zeros(alpha.shape, complex)
        end = np.empty_like(D)
        for n in range(top_n + 1):
            D *= -n
            D += np.multiply(at_hi, hi ** n, out=end)
            D -= np.multiply(at_lo, lo ** n, out=end)
            D *= inverse
            D[rows, cols] = near[:, n]
            m = n - d + 1
            if m >= 0:
                # Re[i^m J_n] = Re[sum_r (i^m weight_r) D_r]
                turned = weight * 1j ** m
                samples[m, N - 1 + start:N - 1 + start + len(lam)] = (
                    (turned.real @ D.real - turned.imag @ D.imag)
                    * (cutoff ** (n + 1) / (2.0 * np.pi) ** d))
    samples[1::2, N - 1] = 0.0
    samples[:, :N - 1] = samples[:, :N - 1:-1]
    samples[1::2, :N - 1] *= -1.0
    out = np.fft.rfft(samples, 3 * N, axis=-1)
    out.setflags(write=False)
    return out


def _kernel_spectrum(L, N, d, order, cutoff):
    """The kernel spectrum of one order: row ``order`` of _kernel_spectra."""
    return _kernel_spectra(L, N, d, cutoff, order)[order]


def _effective_cutoff(spectra, grid):
    """Smallest grid frequency whose taper keeps each row's significant band.

    spectra are the rows' DFT bins from bin 0 on, shape (..., n): all N of
    them, or for real rows the first N/2 + 1; one cutoff is returned per
    row.  Frequencies where a row's spectrum is below 1e-13 of its peak
    carry only rounding noise, so the kernel need not (and should not) pass
    them.
    """
    spec = np.abs(spectra)
    peak = spec.max(axis=-1, keepdims=True)
    t = np.abs(grid.frequencies[:spec.shape[-1]])
    band = np.where(spec > 1e-13 * peak, t, 0.0).max(axis=-1)
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
    grid.  Each row is transformed once, for its cutoff and for all
    orders, and the kernels of all orders come from one build per cutoff.
    """
    values = np.asarray(values, float)
    N = grid.N
    rows = values.reshape(-1, N)
    out = np.empty((len(orders), len(rows), N))
    t = grid.frequencies
    if d % 2 == 0:
        # the full linear convolution with the (2N - 1)-sample kernel has
        # 3N - 2 samples; 3N is a fast FFT length on the power-of-two grids.
        # Bin 3q of the padded transform is bin q of the row's N-point DFT
        nfft = 3 * N
        spec = np.fft.rfft(rows, nfft, axis=-1)
        cutoffs = _effective_cutoff(spec[:, ::3], grid)
    else:
        spec = np.fft.fft(rows, axis=-1)
        cutoffs = _effective_cutoff(spec, grid)
    for cutoff in sorted(set(cutoffs.tolist())):
        sel = cutoffs == cutoff
        part = spec[sel]
        if d % 2 == 0:
            kernels = _kernel_spectra(grid.L, N, d, cutoff, max(orders))
        for i, m in enumerate(orders):
            if d % 2 == 1:
                filt = (part * (1j * t) ** m * multiplier(d, t)
                        * taper_window(t, cutoff))
                out[i, sel] = np.fft.ifft(filt, axis=-1).real
            else:
                conv = np.fft.irfft(part * kernels[m], nfft, axis=-1)
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
    """(values, slopes): samples of R f(omega, b) and of its b-derivative on
    the grid nodes, via the Fourier slice theorem (the derivative's
    spectrum is i t times the slice).  hermite(values, slopes, grid, u)
    reads the row between the nodes."""
    _check_grid(f, grid)
    spectrum = radon_slice(f, omega, grid)
    values, slopes = _spectrum_to_profile(
        np.stack([spectrum, 1j * grid.frequencies * spectrum]), grid).real
    return values, slopes


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


def shared_rows(f, omegas):
    """(directions to filter, rows): direction j of omegas has the Radon
    row of filtered direction rows[j].  A target radial about the origin
    (f.radial) has one Radon row, filtered along e1 (rows all 0); any other
    target filters every direction (rows = arange(J)).  rows is
    non-decreasing."""
    omegas = _check_unit(omegas)
    if f.radial:
        return np.eye(f.d)[:1], np.zeros(len(omegas), np.intp)
    return omegas, np.arange(len(omegas))


def derivative_blocks(f, omegas, grid, orders):
    """Samples of F_omega^{(m)} for every m in orders, a block of directions
    at a time.

    Yields (lo, F) with F[i, j] the samples of F^{(orders[i])} along
    omegas[lo + j].  Each block evaluates the Fourier slice once; the Radon
    rows, their cutoffs and their spectra are shared by all orders.  The
    multiplier of order m is (i t)^m M_d(t) with the standard
    high-frequency taper.  After the last block, warns once when the taper
    removed a non-negligible share of some profile's spectral mass.
    """
    _check_grid(f, grid)
    block = max(1, BLOCK_POINTS // grid.N)
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


def reconstruct(f, x, sphere, grid):
    """Filtered back-projection estimate of f at x (single point or batch).

    Returns sum_j w_j F_{omega_j}(omega_j . x), each back-projected profile
    F = F^{(0)} read by hermite from the orders (0, 1) of
    derivative_blocks, direction j from row rows[j] of shared_rows;
    directions are reduced in sphere order.  Warns as derivative_blocks
    does.
    """
    x = np.asarray(x, float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = np.zeros(len(pts))
    omegas, rows = shared_rows(f, sphere.nodes)
    for lo, F in derivative_blocks(f, omegas, grid, (0, 1)):
        # rows is non-decreasing, so block by block j runs in sphere order
        for j in np.flatnonzero((rows >= lo) & (rows < lo + F.shape[1])):
            row = rows[j] - lo
            out += sphere.weights[j] * hermite(F[0, row], F[1, row], grid,
                                               pts @ sphere.nodes[j])
    return float(out[0]) if single else out
