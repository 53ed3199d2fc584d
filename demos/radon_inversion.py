"""Filtered back-projection round trip on a 2-D Gaussian.

Computes Radon profiles of a Gaussian bump spectrally, filters them with
the back-projection multiplier, and integrates over the direction grid to
recover the function.  Prints the reconstruction error on a set of ball
points, then repeats on refined grids to show the error dropping.
"""

import warnings

import numpy as np

from ridgelab import (BallSampler, GaussianSpec, LineGrid, ball_points,
                      gaussian_radon_oracle, hermite, make_gaussian,
                      radon_direct, radon_transform, reconstruct, sphere_grid)

warnings.filterwarnings("ignore", message="profile support")


def main():
    f = make_gaussian(GaussianSpec(d=2))
    grid = LineGrid(L=4.0, N=2048)
    omega = np.array([0.6, 0.8])

    print("A single Radon profile, three ways (omega = (0.6, 0.8), b = 0.5):")
    values, slopes = radon_transform(f, omega, grid)
    spectral = float(hermite(values, slopes, grid, 0.5))
    direct = radon_direct(f, omega, 0.5)
    closed = gaussian_radon_oracle(GaussianSpec(d=2), omega, 0.5)
    print("  spectral    %.12f" % spectral)
    print("  quadrature  %.12f" % direct)
    print("  closed form %.12f" % closed)

    pts = ball_points(BallSampler(d=2, mode="pseudo-random", count=100,
                                  seed=7))
    target = f(pts)
    print("\nInversion error over 100 ball points:")
    for level, g in [(8, grid), (9, grid.refine())]:
        recon = reconstruct(f, pts, sphere_grid(2, level), g)
        err = np.max(np.abs(recon - target))
        print("  sphere level %d, N = %5d, L = %.0f:  max err = %.2e"
              % (level, g.N, g.L, err))


if __name__ == "__main__":
    main()
