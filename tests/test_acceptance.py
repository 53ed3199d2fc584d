"""End-to-end acceptance checks, one test per advertised guarantee.

Each test is a single pass/fail line under ``pytest -v``.  The sweep
experiments run through the CLI driver exactly as a user would invoke them;
the determinism check re-runs them and compares CSV bodies byte for byte.
"""

import hashlib

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ridgelab import fourier_radon
from ridgelab.cli import ExperimentConfig, run
from ridgelab.fourier_radon import filtered_rows, hermite
from ridgelab.network import poly_to_ridge
from ridgelab.quadrature import BallSampler, LineGrid, ball_points
from ridgelab.ridge_density import PolynomialPart, multi_indices
from ridgelab.targets import GaussianSpec, make_gaussian

WIDTHS = (16, 32, 64, 128, 256, 512, 1024)
EPSILONS = (0.25, 0.125, 0.0625, 0.03125, 0.015625)

# sha256 of the seed-42 CSV bodies (every line but "# wallclock", each
# ending in a newline).  A refactor that changes a report fails here and
# must say why in CHANGES.md.  "schedule" and "peano-d2k2" once differed
# from bench/baseline.json in the last printed digit of a few rows, since
# direction-grouped evaluation sums the
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
# the closed forms (a test since deleted with Z_d, when the ball table
# began to divide by its own sum; see below) than the adaptive quadrature
# was; f - f_eps is small, so Z_2's 5.5e-15 change shows.  "mollify"
# moved in the last printed digit of the
# eps = 1/64 row (7.199142442486e-05 to 7.199142442487e-05) when
# smooth_approximant began to sum each point's row pairwise instead of by
# a BLAS matrix-vector product; a per-point math.fsum reference reads
# 7.199142442487224e-05.  "inversion", "peano-d2k2", "schedule" and
# "variation" moved in the last printed digits (at most 1e-10 relative)
# when the d = 2 back-projection kernel began to come from an inverse real
# FFT of the half spectrum: its samples are as close to a math.fsum of the
# band's cosine and sine terms as those of the complex inverse FFT were
# (a test since replaced by test_kernel_against_quad, below).
# "variation" also reads a radial target's mass from one row, which equals
# the per-direction math.fsum reference (the J-row product was 1 ulp off).
# "inversion", "peano-d2k2", "schedule", "variation" and "sampling" moved
# by design when the d = 2 kernels became the continuous kernel's
# closed-form samples (tests/test_fourier_radon.py,
# test_kernel_against_quad), without the periodic images of the order-0
# tail, and quadrature networks gained the trapezoid rule's end term at
# b = -1.  Against the closed-form Gaussian: "inversion" reads
# max_rel_err 1.485e-5 at stage 0 and 1.8e-13 at stage 1 (2.095e-4 and
# 5.02e-5 before); "peano-d2k2" sup_err 1.143e-5 and 2.8e-12 (2.095e-4 and
# 5.02e-5); "schedule" falls at every width, from 0.318, 0.121, ... 2.42e-4
# to 0.297, 0.0287, ... 2.00e-4 (geometric mean 0.01357 to 0.00638,
# slope -1.633 to -1.696); "sampling" moves in the 4th digit of its
# Monte-Carlo errors (geometric mean 0.10790 to 0.10785); "variation"
# reads order k + 1 only and moves in the 8th digit (ratio 0.66446763 to
# 0.66446761).  "mollify" and every d = 1 and d = 3 filter (circular) do
# not move.  "peano-offcentre-d2" and "peano-offcentre-d3" (k = 1,
# line_n = 1024, centres (0.3, 0) at level 6 and (0.2, 0, 0.1) at level 4)
# are the only pinned bodies of a non-radial target: their quadrature
# networks keep one weight row per direction on the grouped path.
# "peano-d2k2", "sampling", "schedule", "inversion", "variation" and
# "peano-offcentre-d2" moved by at most 1e-14 absolute when the even-d
# filter began to yield only the nodes on [-1, 1] (kernel lags to N - i0,
# a 2N-point FFT) and the values at -1 as direct sums over the kernel
# samples, with the kernel build's and the taper check's BLAS products
# replaced by einsum: against the closed-form Gaussian "peano-d2k2" reads
# sup_err 1.142532003606e-05 -> 1.142532004350e-05 and
# 2.774447338538e-12 -> 2.765232487434e-12, "peano-offcentre-d2"
# 1.626086406081e-05 -> 1.626086406381e-05 and 3.183000154561e-07 ->
# 3.183000161222e-07, "inversion" stage 1 1.830126860970e-13 ->
# 1.829016347098e-13.  "mollify" and "peano-offcentre-d3" (odd d, whose
# circular filter is only sliced) do not move.  "radon-check-d2" is the
# default seed-42 radon-check at d = 2 (test_golden_radon_check_body).
# "schedule" and "mollify" moved when the mollifier's ball table began to
# divide by its own sum, so that it has mass one, in place of the bump's
# norm Z_d (its mass minus one was +3.4e-8 at d = 2), and when the
# separable sum began to fold each per-axis factor, read the table's
# orthant only and sum over the table's axes with the point axis last
# (tests/test_mollify.py, TestSeparableBits): "schedule" errors 2.967920425826e-01 -> 2.967920892681e-01
# at n = 16 and 1.998853689374e-04 -> 1.999323521411e-04 at n = 1024,
# "mollify" 7.199142442487e-05 -> 7.194446225985e-05 at eps = 1/64 and
# 1.779818321192e-02 -> 1.779813559014e-02 at eps = 1/4.
# "radon-check-d2" moved, and "radon-check-d3" is pinned, since
# radon_direct adds its weighted values by numpy's pairwise sum, not a
# BLAS dot: the d = 3 body no longer depends on the BLAS thread count
# (max_rel_err 2.289002796853e-11 under one thread and
# 2.288974525256e-11 under two before, 2.288967457357e-11 under both
# now), and d = 2 reads 2.289241120709e-11 -> 2.289232262411e-11.
# "sampling" moved by design when from_sampling began to draw the atoms
# (direction, knot) of the quadrature table, with the end term attached,
# in place of a knot from a piecewise-linear inverse CDF: the errors at
# n = 16, 32, 64, 128, 256, 512, 1024 read
# 2.201831069897e-01 -> 2.202061016467e-01,
# 2.832658342562e-01 -> 2.834191719503e-01,
# 1.728759716050e-01 -> 1.729629664179e-01,
# 8.937060320113e-02 -> 8.948287540234e-02,
# 8.481090532730e-02 -> 8.471839979973e-02,
# 4.864842752633e-02 -> 4.863403514217e-02 and
# 4.268262164240e-02 -> 4.264551679736e-02 (at most 1.3e-3 relative), and
# the slope -0.4718481424117 -> -0.4721671285776.
# "inversion", "peano-d2k2", "variation" and "peano-offcentre-d2" moved,
# and only they, when the even-d kernel began to interpolate its lags off
# multiples of R from a coarse closed-form table with a 12-point stencil
# where the cutoff c and step h allow it (c R h <= 0.15, R > 1; within
# 7e-15 of max|k|, tests/test_fourier_radon.py,
# test_interpolated_kernel_against_quad): "inversion" max_rel_err
# 1.484889884265e-05 -> 1.484889884198e-05 and 1.829016347098e-13 ->
# 1.833458402586e-13, "peano-d2k2" sup_err 1.142532004350e-05 ->
# 1.142532003939e-05 and 2.765232487434e-12 -> 2.760125461521e-12,
# "variation" ratio_drift 3.214095829133e-04 -> 3.214095829093e-04 (the
# ratios read the same to 12 digits), "peano-offcentre-d2"
# 1.626086406381e-05 -> 1.626086406292e-05 and 3.183000161222e-07 ->
# 3.183000206741e-07.  "schedule" (N <= 256 at L = 4, where c 2 h >
# 0.15) keeps the closed form and its bits; "sampling"
# builds one interpolated kernel (LineGrid(4, 2048), R = 4) and reads the
# same to its 12 printed digits.
# "quadrature" (the d = 2, k = 1 width sweep) is pinned, and "schedule"
# moved, when the quadrature sweep began to read every width's tables as a
# nested sub-rule of one table on the widest layout's sphere level and
# line grid (ridge_density.sub_rule, tests/test_ridge_density.py,
# TestSubRule): every r-th knot of the radial target's one profile row on
# LineGrid(4, 256), in place of a table filtered on each width's own
# grid, whose N = 16 grids alias (Nyquist 6.28 below the bandwidth 8.26).  The n = 1024 row keeps its bits.  "quadrature" errors
# at n = 16, 32, 64, 128, 256, 512 read
# 2.867025241831e-01 -> 2.868055075700e-01,
# 2.406865793522e-02 -> 2.414997039853e-02,
# 1.871929142914e-02 -> 1.871785455482e-02,
# 1.832274848130e-02 -> 1.832246737233e-02,
# 7.279179922235e-04 -> 7.279627447577e-04 and
# 1.839339054210e-04 -> 1.839731153832e-04 (at most 3.38e-3 relative, at
# n = 32), slope -1.9908893908311 -> -1.9912633674432; "schedule"
# 2.967920892681e-01 -> 2.968949716987e-01,
# 2.872986747105e-02 -> 2.881103133706e-02,
# 2.109659100020e-02 -> 2.109508447882e-02,
# 1.954691472708e-02 -> 1.954662051259e-02,
# 1.304897274409e-03 -> 1.304944266014e-03 and
# 4.715415220792e-04 -> 4.715818088599e-04 (at most 2.83e-3 relative, at
# n = 32), slope -1.6957222186441 -> -1.6960521654292.
GOLDEN_BODIES = {
    "sampling": "8a11042b71da7a801e45ac8f14db44871c5ca6dfb79c0e342e6df11258a59585",
    "quadrature": "fe25335e98571c814f9cf51e23584a249fb79d4285b374630c34a5b7726a6d83",
    "schedule": "ba507bf58313930eae061f5a534e1a5a8f2d5338663165c61cdb4b5e2050faa9",
    "peano-d2k2": "2fca4b56973517443314a7dff6044ee28ddcc1bc42e9a6a4f07097a16f6d3d9e",
    "mollify": "fb39475beb0ba81bad35044820a91931ce54a9f782145e1ef282e927eb69124a",
    "inversion": "939e9ce97c8da182a1e0e3e64811de249af6ae5f6021b5ffb4adb63538db4bb3",
    "variation": "7071729d072ecfea7a76e466f5243d6676a99439c54bbeb2c8ac319410e46147",
    "peano-offcentre-d2": "13ed59360539740ce8041bee4fad3d6f199ddedfde0c51d5bfc1b2dfcb782173",
    "peano-offcentre-d3": "c9f866390190ac3a30e567fed59bf054a7ae61201f82e5ba7248c1b4572bda1c",
    "radon-check-d2": "10b904052e002d615b6288d2b4210743af7300fd1a75a91088b82fc8695da6dc",
    "radon-check-d3": "74f90dc081d8c28ed12e6d31dc12f0efc9acbdc4da7b0e871110f33b0be380f6",
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
    """Run the four sweep experiments twice each for the determinism check,
    as (report, body, messages of the warnings the run emitted)."""
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
    for name, config in configs.items():
        runs = []
        for rep in ("a", "b"):
            directory = tmp_path_factory.mktemp("%s_%s" % (name, rep))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.filterwarnings("ignore", message="profile support")
                report = run(config, out_dir=str(directory))
            runs.append((report,
                         _csv_body(directory / (config.kind + ".csv")),
                         [str(w.message) for w in caught]))
        out[name] = runs
    return out


def test_criterion_01_fourier_slice_consistency(tmp_path):
    for d in (2, 3):
        config = ExperimentConfig(kind="radon-check", d=d, trials=50,
                                  tolerance=1e-6, seed=42)
        report = run(config, out_dir=str(tmp_path))
        assert report.slopes["max_rel_err"] <= 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_golden_radon_check_body(tmp_path, d):
    # the default seed-42 radon-check: hyperplane sums over 200 and 40,000
    # nodes, added pairwise, so the body is the same under any BLAS
    # thread count
    run(ExperimentConfig(kind="radon-check", d=d, seed=42),
        out_dir=str(tmp_path))
    body = _csv_body(tmp_path / "radon-check.csv")
    assert _body_sha256(body) == GOLDEN_BODIES["radon-check-d%d" % d]


@pytest.mark.parametrize("d", [2, 3])
def test_radon_check_body_with_a_rule_per_trial(tmp_path, monkeypatch, d):
    # radon_direct reads its rule from quadrature.gauss_legendre; a rule
    # built on every trial gives the same body
    config = ExperimentConfig(kind="radon-check", d=d, trials=5, seed=42)
    run(config, out_dir=str(tmp_path / "cached"))
    monkeypatch.setattr(fourier_radon, "gauss_legendre", leggauss)
    run(config, out_dir=str(tmp_path / "fresh"))
    assert (_csv_body(tmp_path / "fresh" / "radon-check.csv")
            == _csv_body(tmp_path / "cached" / "radon-check.csv"))


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
    _, F, _ = filtered_rows(f, np.array([[-1.0], [1.0]]), grid, (0, 1))
    start = grid.knot_window.start
    for w, row, slope in zip((-1.0, 1.0), F[0], F[1]):
        exact = f((u * w)[:, None]) / 2.0
        assert np.max(np.abs(hermite(row, slope, grid, u, start) - exact)) \
            <= 1e-6


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
        (_, body_a, _), (_, body_b, _) = runs
        assert body_a == body_b, "%s report bodies differ" % name


def test_criterion_11_golden_bodies(sweep_reports):
    for name in ("sampling", "quadrature", "schedule", "mollify"):
        (_, body, _), _ = sweep_reports[name]
        assert _body_sha256(body) == GOLDEN_BODIES[name], \
            "%s report body changed" % name


@pytest.mark.parametrize("name", ["sampling", "quadrature", "schedule",
                                  "mollify"])
def test_sweeps_emit_no_warning(sweep_reports, name):
    # the fixture ignores only "profile support".  The quadrature width
    # sweeps read every width's tables from one table on the widest
    # layout's line grid, LineGrid(4, 256), whose Nyquist frequency is 12
    # times the Gaussian's bandwidth, so no width filters on an aliasing
    # grid and neither "grid Nyquist" nor "spectral taper" fires
    for _, _, messages in sweep_reports[name]:
        assert messages == []


@pytest.mark.parametrize("name,center,level", [
    ("peano-offcentre-d2", (0.3, 0.0), 6),
    ("peano-offcentre-d3", (0.2, 0.0, 0.1), 4)])
def test_golden_off_centre_peano_bodies(tmp_path, name, center, level):
    config = ExperimentConfig(kind="peano-reconstruct", d=len(center), k=1,
                              center=center, sphere_level=level, line_n=1024,
                              seed=42)
    run(config, out_dir=str(tmp_path))
    body = _csv_body(tmp_path / "peano-reconstruct.csv")
    assert _body_sha256(body) == GOLDEN_BODIES[name]
