"""End-to-end acceptance checks, one test per advertised guarantee.

Each test is a single pass/fail line under ``pytest -v``.  The sweep
experiments run through the CLI driver exactly as a user would invoke them;
the determinism check re-runs them and compares CSV bodies byte for byte.
"""

import hashlib

import numpy as np
import pytest

from ridgelab.cli import ExperimentConfig, run
from ridgelab.fourier_radon import backproject_filter, radon_transform
from ridgelab.network import poly_to_ridge
from ridgelab.quadrature import BallSampler, LineGrid, ball_points
from ridgelab.ridge_density import PolynomialPart, multi_indices
from ridgelab.targets import GaussianSpec, make_gaussian

WIDTHS = (16, 32, 64, 128, 256, 512, 1024)
EPSILONS = (0.25, 0.125, 0.0625, 0.03125, 0.015625)

# sha256 of the seed-42 CSV bodies (every line but "# wallclock", each
# ending in a newline).  A refactor that changes a report fails here and
# must say why in CHANGES.md.  "sampling" is the value bench/baseline.json
# records; "schedule" and "peano-d2k2" differ from it in the last printed
# digit of a few rows, since direction-grouped evaluation sums the
# quadrature networks in another order (as close to a math.fsum reference
# as the neuron-by-neuron sum; see tests/test_network.py).  "mollify" (the
# d = 2, s = 2 sweep) covers the t = 2 translates of smooth_approximant,
# which "schedule" (s = 1) does not.  "inversion" (d = 2, level 8,
# N = 2048) pins the values of reconstruct.  "inversion" and "schedule"
# moved in the last printed digits of two and one rows (at most 5e-12
# relative) when radial targets began to filter one Radon row for all
# directions: the per-direction rows of the centred Gaussian differ from
# each other by about 1e-14, since sum((t omega_i)^2) is not t^2.  The
# closed-form oracles in tests/test_ridge_density.py::TestRadialRoute
# check the radial row.  "peano-d2k2" (both rows) and "sampling" (the
# n = 1024 row) moved in the last printed digits when the polynomial part
# became a sum of matrix products (affine_powers), which is closer to the
# exact rational sum of the same inputs than the term-by-term loop was
# (tests/test_ridge_density.py::TestPolynomialExpansion).  "variation"
# (d = 2, k = 1, width 1) pins the variation-bound kind.  "schedule" and
# "mollify" moved in the last printed digits (at most 1.1e-10 relative)
# when the bump's normalization Z_d became a Gauss-Legendre sum, closer to
# the closed forms (tests/test_mollify.py, test_bump_norm_closed_forms)
# than the adaptive quadrature was; f - f_eps is small, so Z_2's 5.5e-15
# change shows.
GOLDEN_BODIES = {
    "sampling": "3e108409aab90c759db59aacfea30647f3601bab44f47c96fe42a52bf37ab99f",
    "schedule": "cb43069d7b3336200f0f6ace8f549c047a37f35316000a922fdb9e825eb4aca9",
    "peano-d2k2": "fac81bc72b5be89dfb2b6defb3668c1545f818cdd6e7790db07ec11993c849dc",
    "mollify": "670329644c0c37278fb6eaefe93ca2a4f7c35e7e5b5fd4c333f3d9d0280eb0b9",
    "inversion": "86ed7527c267bebe83d1ab403f3bac0f172175bf6d8f3a6ee331aeab4e6695dd",
    "variation": "190f8c6191dab5b139c0acecbf231ec6f345d34b14ee645f636a17aa7d44ad03",
}


@pytest.fixture(autouse=True)
def _quiet_support_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="profile support")
        yield


def _csv_body(path):
    lines = path.read_text().splitlines()
    return "\n".join(l for l in lines if not l.startswith("# wallclock"))


def _body_sha256(body):
    return hashlib.sha256((body + "\n").encode()).hexdigest()


@pytest.fixture(scope="module")
def sweep_reports(tmp_path_factory):
    """Run the three sweep experiments twice each for the determinism check."""
    import warnings
    configs = {
        "sampling": ExperimentConfig(kind="rate-sweep", d=2, k=1, p=2.0,
                                     widths=WIDTHS, constructor="sampling",
                                     n_seeds=5, eval_count=16384, seed=42),
        "quadrature": ExperimentConfig(kind="rate-sweep", d=2, k=1, p=2.0,
                                       widths=WIDTHS,
                                       constructor="quadrature",
                                       eval_count=16384, seed=42),
        "schedule": ExperimentConfig(kind="rate-sweep", d=2, k=1, s=1,
                                     widths=WIDTHS, constructor="quadrature",
                                     schedule="epsilon", eval_count=4096,
                                     seed=42),
        "mollify": ExperimentConfig(kind="mollify-sweep", d=2, s=2,
                                    epsilons=EPSILONS, seed=42),
    }
    out = {}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="profile support")
        for name, config in configs.items():
            runs = []
            for rep in ("a", "b"):
                directory = tmp_path_factory.mktemp("%s_%s" % (name, rep))
                report = run(config, out_dir=str(directory))
                runs.append((report, _csv_body(directory / (config.kind
                                                            + ".csv"))))
            out[name] = runs
    return out


def test_criterion_01_fourier_slice_consistency(tmp_path):
    for d in (2, 3):
        config = ExperimentConfig(kind="radon-check", d=d, trials=50,
                                  tolerance=1e-6, seed=42)
        report = run(config, out_dir=str(tmp_path))
        assert report.slopes["max_rel_err"] <= 1e-6


def test_criterion_02_inversion_round_trip(tmp_path):
    config = ExperimentConfig(kind="inversion-check", d=2, sphere_level=8,
                              line_n=2048, line_l=4.0, points=100,
                              tolerance=1e-3, seed=42)
    report = run(config, out_dir=str(tmp_path))
    base, refined = (row[-1] for row in report.rows)
    assert base <= 1e-3
    assert refined < base
    body = _csv_body(tmp_path / "inversion-check.csv")
    assert _body_sha256(body) == GOLDEN_BODIES["inversion"]


def test_criterion_03_one_dimensional_profile_identity():
    f = make_gaussian(GaussianSpec(d=1, center=np.array([0.15]), width=0.9))
    grid = LineGrid(L=4.0, N=2048)
    u = np.linspace(-1.0, 1.0, 201)
    for w in (-1.0, 1.0):
        prof = backproject_filter(radon_transform(f, np.array([w]), grid), 1)
        exact = f((u * w)[:, None]) / 2.0
        assert np.max(np.abs(prof.interpolator()(u) - exact)) <= 1e-6


@pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2) for k in (0, 1, 2)])
def test_criterion_04_peano_reconstruction(tmp_path, d, k):
    config = ExperimentConfig(kind="peano-reconstruct", d=d, k=k,
                              sphere_level=8, line_n=4096, points=200,
                              tolerance=1e-3, seed=42)
    report = run(config, out_dir=str(tmp_path))
    base, refined = (row[-1] for row in report.rows)
    assert base <= 1e-3
    assert refined < base
    if (d, k) == (2, 2):
        body = _csv_body(tmp_path / "peano-reconstruct.csv")
        assert _body_sha256(body) == GOLDEN_BODIES["peano-d2k2"]


def test_criterion_05_polynomial_lift_exactness():
    rng = np.random.default_rng(27)
    pts = ball_points(BallSampler(d=2, mode="pseudo-random", count=1000,
                                  seed=14))
    for k in (0, 1, 2, 3):
        coeffs = {alpha: rng.standard_normal()
                  for alpha in multi_indices(2, k)}
        p = PolynomialPart(d=2, coefficients=coeffs)
        net = poly_to_ridge(p, k)
        assert np.max(np.abs(net(pts) - p(pts))) <= 1e-10


@pytest.mark.parametrize("d,k,width",
                         [(d, k, w) for d in (1, 2) for k in (0, 1)
                          for w in (0.5, 1.0)])
def test_criterion_06_variation_bound_stability(tmp_path, d, k, width):
    config = ExperimentConfig(kind="variation-bound", d=d, k=k, width=width,
                              sphere_level=8, seed=42)
    report = run(config, out_dir=str(tmp_path))
    assert np.isfinite(report.slopes["ratio"])
    assert report.slopes["ratio"] > 0
    assert report.slopes["ratio_drift"] < 0.05
    if (d, k, width) == (2, 1, 1.0):
        body = _csv_body(tmp_path / "variation-bound.csv")
        assert _body_sha256(body) == GOLDEN_BODIES["variation"]


def test_criterion_07_width_sweep_slopes(sweep_reports):
    sampling = sweep_reports["sampling"][0][0]
    quadrature = sweep_reports["quadrature"][0][0]
    assert sampling.slopes["slope"] <= -0.45
    assert quadrature.slopes["slope"] < -1.0


@pytest.mark.parametrize("d,s", [(d, s) for d in (1, 2) for s in (1, 2, 3)])
def test_criterion_08_mollification_rate(tmp_path, d, s):
    config = ExperimentConfig(kind="mollify-sweep", d=d, s=s,
                              epsilons=EPSILONS, seed=42)
    report = run(config, out_dir=str(tmp_path))
    assert report.slopes["slope"] >= s - 0.2


def test_criterion_09_schedule_coupling_monotone(sweep_reports):
    report = sweep_reports["schedule"][0][0]
    errors = [row[-1] for row in report.rows]
    for prev, curr in zip(errors, errors[1:]):
        assert curr <= 1.5 * prev


def test_criterion_10_deterministic_reports(sweep_reports):
    for name, runs in sweep_reports.items():
        (_, body_a), (_, body_b) = runs
        assert body_a == body_b, "%s report bodies differ" % name


def test_criterion_11_golden_bodies(sweep_reports):
    for name in ("sampling", "schedule", "mollify"):
        (_, body), _ = sweep_reports[name]
        assert _body_sha256(body) == GOLDEN_BODIES[name], \
            "%s report body changed" % name
