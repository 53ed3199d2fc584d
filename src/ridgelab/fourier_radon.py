"""Radon slices, Radon transforms, filtered back-projection, reconstruction.

derivative_blocks is the one spectral core: it filters a block of Radon
rows by the multipliers (i t)^m M_d(t) for any orders m on the nodes that
cover [-1, 1], and reconstruct (m = 0, 1) and the Peano tables of
ridge_density (m <= k + 2) read it, for the directions that shared_rows
picks (one for a radial target).  At even d it convolves each row with
the band-limited kernel of the multiplier, whose samples _kernel_samples
takes in closed form on a coarse table of lags and fills in between by a
12-point Lagrange stencil where the line grid oversamples the kernel's
band.  hermite is the one read of a profile between nodes: the cubic
through F^(m) with F^(m+1) as slopes.

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

from .quadrature import gauss_legendre

# Fraction of Nyquist above which the spectral taper rolls off.
TAPER_START = 0.8

# Share of a profile's spectral mass the taper may remove before
# derivative_blocks warns.
SPECTRAL_MASS_TOL = 1e-8

# Frequency points per block of directions in derivative_blocks; bounds the
# (directions x frequencies) working arrays.
BLOCK_POINTS = 2 ** 20


def hermite(F, dF, grid, u, start=0):
    """Cubic Hermite interpolant of samples F with slopes dF (both on the
    grid's nodes from node start on, along the last axis), evaluated at u.

    The cell of u is floor((u + L) / h) - start, clipped to the samples'
    cells, so there is no search and no linear solve; points beyond them
    read the cubic of the end cell.  The result has shape F.shape[:-1] +
    np.shape(u).  At a node (t = 0, or t = 1 in the last cell) every basis
    weight is exactly 0 or 1, so the sample itself is returned, bit for bit.
    """
    s = (np.asarray(u, float) + grid.L) / grid.h - start
    i = np.clip(np.floor(s), 0, F.shape[-1] - 2).astype(int)
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


def _window(grid):
    """The nodes whose cells (as hermite reads them) meet [-1, 1]:
    grid.knot_window where -1 and 1 are nodes, else the smallest cover."""
    first, last = (np.array([-1.0, 1.0]) + grid.L) / grid.h
    return slice(int(np.floor(first)), min(int(np.ceil(last)) + 1, grid.N))


# Largest c * Delta, c the cutoff and Delta = R h the step of the coarse
# closed-form table that _kernel_samples interpolates with its stencil.
COARSE_STEP = 0.15

# Nodes of the Lagrange stencil, relative to the coarse node below a lag.
STENCIL = np.arange(-5, 7)

# Lags per block of a kernel build; bounds its working arrays.  Blocks of
# 2048 lags were faster than 1024, 4096 or one block at N = 16384 (5
# orders, best of 7, one BLAS thread, 2-core Xeon).
KERNEL_BLOCK = 2048


@lru_cache(maxsize=64)
def _kernel_samples(grid, d, cutoff, top):
    """Row m of a read-only (top + 1, 2N) array: the band-limited spatial
    kernel k_m of the multiplier (i t)^m M_d(t), tapered to zero at
    ``cutoff``, on the lags l from i0 - N + 1 to i1 that the window (nodes
    i0 to i1) reads, at l mod 2N (zeros elsewhere: a row's 2N-point real
    FFT times a kernel's is their linear convolution on the window).  The
    lags 0 <= l <= i1 (N/2 + N/(2L) on a knot grid; i1 >= N - 1 - i0) are
    filled and mirrored by k_m(-u) = (-1)^m k_m(u).

    k_m is band-limited to the cutoff c, so a grid fine against it samples
    it far above its Nyquist rate pi / c.  With R the largest power of two
    with c R h <= COARSE_STEP, the closed form (_closed_form) is evaluated
    only on the coarse lags q R, 0 <= q <= i1 / R + 6, and reflected
    through u = 0 to q = -5..-1.  Every lag q R + r, 0 < r < R, is the
    12-point Lagrange interpolant on the coarse nodes q - 5 to q + 6 at
    offset r / R (weights from _stencil, one table per R, summed by
    einsum, not a BLAS product, so the bits do not depend on the thread
    count).  Lags at multiples of R keep the closed form's bits: the
    stencil's weights at offset 0 are one 1 and zeros.  Bernstein's
    inequality, |k^(12)| <= c^12 max|k| (Natterer, The Mathematics of
    Computerized Tomography, ch. V), with the Lagrange remainder bounds the
    error by (c Delta)^12 max|w| / 12! max|k|, w(x) the product of x - j
    over the stencil's nodes (max|w| = 2.6e4 on [0, 1]): 7e-15 of max|k|
    at c Delta = 0.15.  Where c 2 h > COARSE_STEP (R = 1) every lag is the
    closed form.  Both passes run in blocks of KERNEL_BLOCK lags.  Cached.
    """
    h, N, window = grid.h, grid.N, _window(grid)
    first, last = window.start, window.stop - 1
    R = 1
    while cutoff * 2 * R * h <= COARSE_STEP:
        R *= 2
    circle = np.zeros((top + 1, 2 * N))
    if R == 1:
        _closed_form(np.arange(last + 1), h, d, cutoff, circle)
        circle[1::2, 0] = 0.0
    else:
        # coarse node q at column q + a, from q = -a to last // R + b
        a, b = -STENCIL[0], STENCIL[-1]
        coarse = np.empty((top + 1, a + last // R + b + 1))
        _closed_form(np.arange(last // R + b + 1) * R, h, d, cutoff,
                     coarse[:, a:])
        coarse[1::2, a] = 0.0
        coarse[:, a - 1::-1] = coarse[:, a + 1:2 * a + 1]
        coarse[1::2, :a] *= -1.0
        weights = _stencil(R)
        # windows[m, q] holds order m's coarse nodes q - a to q + b
        windows = np.lib.stride_tricks.sliding_window_view(
            coarse, len(STENCIL), axis=-1)
        cells = max(1, KERNEL_BLOCK // R)
        for m in range(top + 1):
            for q in range(0, last // R + 1, cells):
                # one order at a time, so that its bits do not depend on
                # top; block[r, p] is lag (q + p) R + r
                block = np.einsum("jr,pj->rp", weights,
                                  windows[m, q:q + cells])
                stop = min(block.size, last + 1 - q * R)
                circle[m, q * R:q * R + stop] = block.T.ravel()[:stop]
    # lags first - N + 1 to -1 at N + first + 1 to 2N - 1
    circle[:, N + first + 1:] = circle[:, N - 1 - first:0:-1]
    circle[1::2, N + first + 1:] *= -1.0
    circle.setflags(write=False)
    return circle


@lru_cache(maxsize=16)
def _stencil(R):
    """(12, R) weights of the Lagrange interpolant on the nodes STENCIL at
    the offsets r / R, 0 <= r < R: column r holds, for each node j, the
    product over the other nodes i of (r / R - i) / (j - i).  Column 0 is
    exactly one 1 and zeros."""
    offsets = np.arange(R) / R
    apart = np.subtract.outer(STENCIL, STENCIL) + np.eye(len(STENCIL))
    factors = np.subtract.outer(offsets, STENCIL)[:, None, :] / apart
    factors[:, np.eye(len(STENCIL), dtype=bool)] = 1.0
    weights = np.ascontiguousarray(factors.prod(axis=-1).T)
    weights.setflags(write=False)
    return weights


def _closed_form(lags, h, d, cutoff, out):
    """out[m, i] = k_m(lags[i] h) for m < len(out), in blocks of
    KERNEL_BLOCK lags, in closed form (Ramachandran & Lakshminarayanan,
    PNAS 1971; Natterer, ch. V):

        k_m(u) = c^(n+1) Re[i^m J_n(u c)] / (2 pi)^d,   n = m + d - 1,

    with c the cutoff and J_n(lam) = int_0^1 s^n w(s) e^{i lam s} ds, w the
    taper in s = t / c: 1 on [0, tau], tau = TAPER_START, then
    1/2 + cos(B (s - tau)) / 2 with B = pi / (1 - tau).  The cosine splits
    J_n into four integrals int_a^b s^n e^{i alpha s} ds, all read off
    e^{i lam tau} and e^{i lam}: alpha = lam on [0, tau] and on [tau, 1]
    (weights 1 and 1/2), and alpha = lam +- B on [tau, 1] (weights
    e^{-+i B tau} / 4).  Each has the primitive
    P_n = (s^n e^{i alpha s} - n P_{n-1}) / (i alpha), so one pass over n
    gives every order; where |alpha| < 2 that recurrence loses digits and
    the Taylor series of e^{i alpha s} (28 terms) takes over.  These are
    the continuous kernel's samples, without the periodic images of the
    order-0 kernel's -1/(2 pi u)^2 tail that a quadrature of the spectrum
    on a finite period adds.  A cutoff near the input's own band keeps the
    t^m growth from amplifying rounding noise.  Each entry's bits depend
    on its lag alone, not on the other lags of the call.
    """
    top = len(out) - 1
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
    for start in range(0, len(lags), KERNEL_BLOCK):
        part = lags[start:start + KERNEL_BLOCK]
        lam = part * (h * cutoff)
        e_tau = np.exp(1j * tau * lam)
        alpha = lam + shift
        at_lo = at_tau * e_tau
        at_hi = at_one * np.exp(1j * lam)
        # the first interval starts at s = 0
        at_lo[0] = 1.0
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
                # Re[i^m J_n] = Re[sum_r (i^m weight_r) D_r], by einsum
                turned = weight * 1j ** m
                out[m, start:start + len(part)] = (
                    (np.einsum("r,rl->l", turned.real, D.real)
                     - np.einsum("r,rl->l", turned.imag, D.imag))
                    * (cutoff ** (n + 1) / (2.0 * np.pi) ** d))


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


def _apply_multiplier_linear(rows, grid, d, orders=(0,), ends=()):
    """Apply the multipliers (i t)^m M_d(t) to each of the (B, N) rows:
    (F, E), F[i] of order orders[i] on the W nodes of _window(grid), shape
    (len(orders), B, W), and E[i] of order ends[i] at the first of them,
    shape (len(ends), B).

    For even d the multiplier's |t| kink at t = 0 has slowly decaying
    filtered tails that circular filtering would fold back into the
    window, so each row is convolved linearly with the kernel of its
    cutoff: a 2N-point real FFT on the window, one sum per order at its
    first node.  For odd d (no kink) circular filtering is exact.  Each
    row is transformed once; one kernel build per cutoff serves all orders.
    """
    orders, ends = tuple(orders), tuple(ends)
    N, window, t = grid.N, _window(grid), grid.frequencies
    i0 = window.start
    F = np.empty((len(orders), len(rows), window.stop - window.start))
    E = np.empty((len(ends), len(rows)))
    even = d % 2 == 0
    # bin 2q of the 2N-point real FFT is bin q of the row's N-point DFT
    spec = np.fft.rfft(rows, 2 * N) if even else np.fft.fft(rows)
    cutoffs = _effective_cutoff(spec[:, ::2] if even else spec, grid)
    for cutoff in sorted(set(cutoffs.tolist())):
        sel = cutoffs == cutoff
        part, block = spec[sel], rows[sel]
        if even:
            kernels = _kernel_samples(grid, d, cutoff, max(orders + ends))
            filtered = lambda m: np.fft.irfft(part * np.fft.rfft(
                kernels[m]), 2 * N)[:, window] * grid.h
            # h sum_j k_m((i0 - j) h) row[j], a pairwise sum per row (a
            # BLAS product would round with the thread split)
            first = lambda m: np.sum(block * np.concatenate(
                (kernels[m, i0::-1], kernels[m, :N + i0:-1])), -1) * grid.h
        else:
            filtered = lambda m: np.fft.ifft(
                part * (1j * t) ** m * multiplier(d, t)
                * taper_window(t, cutoff)).real[:, window]
            first = lambda m: filtered(m)[:, 0]
        for i, m in enumerate(orders):
            F[i, sel] = filtered(m)
        for i, m in enumerate(ends):
            E[i, sel] = first(m)
    return F, E


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
    removed = 1.0 - taper_window(t, grid.nyquist)
    amplitude = np.abs(spectra)
    worst = 0.0
    for m in orders:
        weight = np.abs(t) ** m * multiplier(d, t)
        total = np.einsum("bn,n->b", amplitude, weight)
        lost = np.einsum("bn,n->b", amplitude, weight * removed)
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


def derivative_blocks(f, omegas, grid, orders, ends=()):
    """Samples of F_omega^{(m)} on the nodes that cover [-1, 1] (_window)
    for every m in orders, and at the first of them alone for every m in
    ends, a block of directions at a time: yields (lo, F, E), F[i, j] of
    order orders[i] and E[i, j] of order ends[i] along omegas[lo + j].
    Each block evaluates the Fourier slice once; the Radon rows, their
    cutoffs and their spectra are shared by all orders.  The multiplier of
    order m is (i t)^m M_d(t) with the standard high-frequency taper.
    After the last block, warns once when the taper removed a
    non-negligible share of some profile's spectral mass.
    """
    _check_grid(f, grid)
    block = max(1, BLOCK_POINTS // grid.N)
    worst = 0.0
    for lo in range(0, len(omegas), block):
        spectra = radon_slice(f, omegas[lo:lo + block], grid)
        worst = max(worst, _taper_loss(spectra, grid, f.d, (*orders, *ends)))
        rows = _spectrum_to_profile(spectra, grid).real
        yield (lo, *_apply_multiplier_linear(rows, grid, f.d, orders, ends))
    if worst > SPECTRAL_MASS_TOL:
        warnings.warn(
            "spectral taper removed %.3g of the derivative profile mass; "
            "increase the grid resolution" % worst)


def radon_direct(f, omega, b, resolution=200):
    """Hyperplane quadrature of f over {x : omega.x = b}, d in {2, 3}.

    Independent of the spectral route; serves as its oracle.  The weighted
    values are added by numpy's pairwise sum, not a BLAS dot product, so
    the value does not depend on the BLAS thread count.
    """
    omega = _check_unit(omega)
    d = f.d
    if d not in (2, 3):
        raise ValueError("radon_direct supports d in {2, 3}")
    r2 = f.support_radius ** 2 - b * b
    if r2 <= 0:
        return 0.0
    r = np.sqrt(r2)
    u, w = gauss_legendre(resolution)
    u = u * r
    w = w * r
    if d == 2:
        perp = np.array([-omega[1], omega[0]])
        pts = b * omega[None, :] + u[:, None] * perp[None, :]
        return float(np.sum(w * f.evaluate(pts)))
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
    return float(np.sum(ww.ravel() * f.evaluate(pts)))


def reconstruct(f, x, sphere, grid):
    """Filtered back-projection estimate of f at x (single point or batch).

    Returns sum_j w_j F_{omega_j}(omega_j . x), each back-projected profile
    F = F^{(0)} read by hermite from the window samples of orders (0, 1)
    of derivative_blocks (so x in the unit ball), direction j from row
    rows[j] of shared_rows; directions are reduced in sphere order.  Warns
    as derivative_blocks does.
    """
    single = np.ndim(x) == 1
    pts = np.atleast_2d(np.asarray(x, float))
    out = np.zeros(len(pts))
    omegas, rows = shared_rows(f, sphere.nodes)
    start = _window(grid).start
    for lo, F, _ in derivative_blocks(f, omegas, grid, (0, 1)):
        # rows is non-decreasing, so block by block j runs in sphere order
        for j in np.flatnonzero((rows >= lo) & (rows < lo + F.shape[1])):
            row = rows[j] - lo
            out += sphere.weights[j] * hermite(F[0, row], F[1, row], grid,
                                               pts @ sphere.nodes[j], start)
    return float(out[0]) if single else out
