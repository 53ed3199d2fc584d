"""Shallow ReLU^k network construction via the Radon transform.

The library follows the constructive route from smooth functions to finite
shallow networks: Radon transforms and filtered back-projection, ridge
derivative densities, variation-norm bounds, network assembly by quadrature
or importance sampling, mollification, and convergence-rate measurement.
"""

__version__ = "0.1.0"

from .targets import (GaussianSpec, TargetFunction, combine,
                      gaussian_radon_oracle, make_gaussian, make_cusp_radial)
from .quadrature import SphereGrid, LineGrid, BallSampler, sphere_grid, sample_directions, ball_points
from .fourier_radon import hermite, radon_slice, radon_transform, radon_direct, reconstruct
from .ridge_density import (PeanoTables, PolynomialPart, peano_tables,
                            sobolev_seminorm, sub_rule)
from .network import (PointSet, ShallowNetwork, activation, from_quadrature,
                      from_sampling, poly_to_ridge)
from .mollify import smooth_approximant, epsilon_schedule
from .metrics import lp_error, lp_norm, rate_fit
from .quadrature import component_seed
from .ridge_density import theorem_order
