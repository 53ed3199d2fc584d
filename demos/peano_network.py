"""Build a shallow ReLU^k network that reproduces a Gaussian exactly-ish.

The Peano-kernel route: take (k+1)-th derivatives of the filtered Radon
profiles, discretize the resulting density into one sigma_k neuron per
(direction, knot), and attach the degree-k Taylor polynomial.  The network
then matches the target to quadrature accuracy.
"""

import warnings

import numpy as np

from ridgelab import (BallSampler, GaussianSpec, LineGrid, ball_points,
                      from_quadrature, from_sampling, make_gaussian,
                      peano_tables, sphere_grid)

warnings.filterwarnings("ignore", message="profile support")


def main():
    f = make_gaussian(GaussianSpec(d=2))
    sphere = sphere_grid(2, 6)
    grid = LineGrid(L=4.0, N=2048)
    pts = ball_points(BallSampler(d=2, mode="pseudo-random", count=200,
                                  seed=3))

    for k in (0, 1, 2):
        net = from_quadrature(peano_tables(f, k, sphere, grid))
        err = np.max(np.abs(net(pts) - f(pts)))
        print("k = %d: %6d neurons, sup error %.2e, ell_1 mass %.4f"
              % (k, len(net), err, net.l1_mass))

    tables = peano_tables(f, 1, sphere, grid)
    print("\nvariation upper bound (k = 1): %.6f" % tables.variation)
    print("importance-sampled networks carry exactly that ell_1 mass:")
    for n in (64, 256, 1024):
        net = from_sampling(tables, n, 12345)
        err = np.max(np.abs(net(pts) - f(pts)))
        print("  n = %5d: sup error %.3e, ell_1 mass %.6f"
              % (n, err, net.l1_mass))


if __name__ == "__main__":
    main()
