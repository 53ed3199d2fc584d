"""Experiment runner: config parsing, seeded sweeps, CSV reports.

Configs are flat ``key = value`` text with ``#`` comments.  Each experiment
kind writes a CSV report whose body (everything except the trailing
wall-clock line) is byte-identical across runs with the same config and
seed.  See the README for the per-kind report schema.

Exit codes: 0 success; 2 config error, a non-finite center, width,
amplitude, gamma, line_l or tolerance, a Gaussian whose Fourier scale
overflows and a seed outside [0, 2^64) among them; 3 a failed numerical
check, where a NaN figure fails every check, a sampled rate-sweep fails on
a non-finite variation bound and variation-bound on a seminorm or stage-0
ratio that is 0 or not finite; 4 I/O error.
"""

import argparse
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .fourier_radon import hermite, radon_direct, radon_transform, reconstruct
from .metrics import lp_norm, rate_fit
from .mollify import epsilon_schedule, smooth_approximant
from .network import PointSet, from_quadrature, from_sampling
from .quadrature import (BallSampler, LineGrid, ball_points, component_seed,
                         sample_directions, sphere_grid)
from .ridge_density import (peano_tables, sobolev_seminorm, sub_rule,
                            theorem_order)
from .targets import GaussianSpec, make_cusp_radial, make_gaussian

KINDS = ("radon-check", "inversion-check", "variation-bound",
         "peano-reconstruct", "rate-sweep", "mollify-sweep")


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configurations."""


class NumericalCheckError(RuntimeError):
    """Raised when a check experiment exceeds its tolerance."""


def _fail(report, message):
    exc = NumericalCheckError(message)
    exc.report = report
    return exc


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    d: int
    k: int = 1
    s: int = None
    p: float = 2.0
    target: str = "gaussian"
    center: tuple[float, ...] = None
    width: float = 1.0
    amplitude: float = 1.0
    gamma: float = 2.5
    sphere_level: int = 8
    line_n: int = 2048
    line_l: float = 4.0
    widths: tuple[int, ...] = ()
    epsilons: tuple[float, ...] = ()
    constructor: str = "sampling"
    schedule: str = "none"
    seed: int = 42
    n_seeds: int = 1
    trials: int = 50
    points: int = 100
    eval_count: int = 16384
    tolerance: float = None
    out: str = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    columns: tuple
    rows: list
    slopes: dict = field(default_factory=dict)
    wallclock: float = 0.0

    def to_csv(self):
        lines = ["# ridgelab %s" % __version__,
                 "# kind = %s" % self.config.kind,
                 "# seed = %d" % self.config.seed,
                 ",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        for name in sorted(self.slopes):
            lines.append("# %s = %s" % (name, _fmt(self.slopes[name])))
        lines.append("# wallclock = %.3f s" % self.wallclock)
        return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12e" % float(v)


# ---------------------------------------------------------------------------
# config parsing

def _parser(annotation):
    """int, float or str, or a comma-separated tuple[int or float, ...]."""
    if annotation in (int, float, str):
        return annotation
    for item in (int, float):
        if annotation == tuple[item, ...]:
            return lambda val: tuple(item(t) for t in val.split(",")
                                     if t.strip())
    raise TypeError("no config parser for %r" % (annotation,))


_PARSERS = {f.name: _parser(f.type) for f in fields(ExperimentConfig)}


def parse_config(text):
    """Parse flat ``key = value`` config text into an ExperimentConfig.

    Each key is a field, parsed by its annotation; kind and d, which have
    no default, are required, and peano-reconstruct defaults to line_n =
    4096 and points = 200 (2048 and 100 in code).  Unknown keys, duplicate
    keys and syntax errors raise ConfigError with the offending line number.
    """
    seen, values = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (lineno, raw.strip()))
        key, _, val = map(str.strip, line.partition("="))
        if key not in _PARSERS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in seen:
            raise ConfigError("line %d: duplicate key %r (first set on line %d)"
                              % (lineno, key, seen[key]))
        seen[key] = lineno
        try:
            values[key] = _PARSERS[key](val)
        except ValueError:
            raise ConfigError("line %d: bad value %r for key %r"
                              % (lineno, val, key))
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ConfigError("missing required key %r" % f.name)
    if values["kind"] == "peano-reconstruct":
        values.setdefault("line_n", 4096)
        values.setdefault("points", 200)
    config = ExperimentConfig(**values)
    _validate(config)
    return config


# Why each of these kinds has no result for a zero target.
_NONZERO_TARGET = {
    "radon-check": "reports errors relative to the target's size",
    "inversion-check": "reports errors relative to the target's size",
    "variation-bound": "divides the variation by the target's seminorm",
    "rate-sweep": "fits a rate to errors that a zero target makes 0",
    "mollify-sweep": "fits a rate to errors that a zero target makes 0",
    "peano-reconstruct": "gates on refinement reducing errors that a zero "
                         "target makes 0",
}


def _validate(config):
    if config.kind not in KINDS:
        raise ConfigError("unknown experiment kind %r (expected one of %s)"
                          % (config.kind, ", ".join(KINDS)))
    for key in ("center", "width", "amplitude", "gamma", "line_l",
                "tolerance"):
        value = getattr(config, key)
        if value is not None and not np.isfinite(value).all():
            raise ConfigError("%s must be finite, got %s" % (key, value))
    if not 0 <= config.seed < 2 ** 64:
        raise ConfigError("seed must lie in [0, 2^64), got %d" % config.seed)
    if config.d < 1:
        raise ConfigError("d must be a positive integer, got %d" % config.d)
    if config.d > 3:
        raise ConfigError("d = %d is not supported (d <= 3)" % config.d)
    if config.k < 0:
        raise ConfigError("k must be >= 0, got %d" % config.k)
    if config.s is not None and config.s < 0:
        raise ConfigError("s must be >= 0, got %d" % config.s)
    if config.target not in ("gaussian", "cusp"):
        raise ConfigError("unknown target %r" % config.target)
    if config.target == "gaussian" and not config.width > 0:
        raise ConfigError("width must be > 0, got %g" % config.width)
    if config.target == "cusp" and not config.gamma > 0:
        raise ConfigError("gamma must be > 0, got %g" % config.gamma)
    if config.target == "cusp" and config.center is not None:
        raise ConfigError("the cusp target is centred at the origin and "
                          "takes no center")
    if config.sphere_level < 1:
        raise ConfigError("sphere_level must be >= 1, got %d"
                          % config.sphere_level)
    if config.line_n < 2 or config.line_n & (config.line_n - 1):
        raise ConfigError("line_n must be a power of two, got %d"
                          % config.line_n)
    if not config.line_l >= 1.0:
        raise ConfigError("line_l must be >= 1, got %g" % config.line_l)
    if config.kind in ("peano-reconstruct", "variation-bound") or (
            config.kind == "rate-sweep" and config.constructor == "sampling"):
        # refine() maps (L, N) to (2L, 4N), which keeps -1 and 1 as nodes
        try:
            LineGrid(L=config.line_l, N=config.line_n).knot_window
        except ValueError:
            raise ConfigError(
                "line_l = %g puts no node of the line grid (L = %g, N = %d) "
                "at -1 and 1, so the knots would miss the ends of [-1, 1]; "
                "take line_l a power of two >= 2 with line_n >= 2 * line_l"
                % (config.line_l, config.line_l, config.line_n)) from None
    for key in ("trials", "points", "eval_count", "n_seeds"):
        if getattr(config, key) < 1:
            raise ConfigError("%s must be >= 1, got %d"
                              % (key, getattr(config, key)))
    if config.kind in ("rate-sweep", "mollify-sweep") and \
            config.p not in (2.0, math.inf):
        raise ConfigError("p must be 2 or inf, got %g" % config.p)
    if config.kind == "rate-sweep":
        if len(config.widths) < 3:
            raise ConfigError("rate-sweep fits a rate and needs at least 3 "
                              "widths, got %d" % len(config.widths))
        if any(b <= a for a, b in zip(config.widths, config.widths[1:])):
            raise ConfigError("widths must be strictly increasing")
        if config.widths[0] < 1:
            raise ConfigError("widths must be >= 1, got %d" % config.widths[0])
        if config.constructor not in ("sampling", "quadrature"):
            raise ConfigError("constructor must be 'sampling' or 'quadrature'")
        if config.schedule not in ("none", "epsilon"):
            raise ConfigError("schedule must be 'none' or 'epsilon'")
        if config.schedule == "epsilon" and config.s == 0:
            raise ConfigError("schedule = epsilon mollifies with order s and "
                              "needs s >= 1 (or s unset, for s = 1)")
        if config.constructor == "quadrature":
            layouts = {}
            for n in config.widths:
                level, grid = _quadrature_layout(n, config.d)
                layouts.setdefault((level, grid.N), []).append(n)
            for (level, line_n), shared in layouts.items():
                if len(shared) > 1:
                    raise ConfigError(
                        "widths %s share one quadrature layout (sphere level "
                        "%d, line_n %d) and would build one network"
                        % (", ".join(map(str, shared)), level, line_n))
    if config.kind == "mollify-sweep":
        if len(set(config.epsilons)) < 3:
            raise ConfigError("mollify-sweep fits a rate and needs at least 3 "
                              "distinct epsilons, got %d"
                              % len(set(config.epsilons)))
        if not all(0.0 < eps <= 1.0 for eps in config.epsilons):
            raise ConfigError("epsilons must lie in (0, 1]")
        if config.s is None or config.s < 1:
            raise ConfigError("mollify-sweep requires s >= 1")
    if config.kind in _NONZERO_TARGET and config.target == "gaussian" \
            and config.amplitude == 0.0:
        raise ConfigError("%s %s and needs a nonzero target (amplitude = 0)"
                          % (config.kind, _NONZERO_TARGET[config.kind]))
    if config.target == "gaussian":
        # every kind reads the Fourier data, A (2 pi sigma^2)^(d/2) times
        # a factor of at most 1; an overflow there makes every figure NaN
        with np.errstate(over="ignore"):
            scale = config.amplitude * np.float64(
                2.0 * math.pi * config.width) ** (config.d / 2.0)
        if not np.isfinite(scale):
            raise ConfigError("the Gaussian's Fourier scale amplitude * "
                              "(2 pi width)^(d/2) = %g * (2 pi * %g)^(%d/2) "
                              "is not finite" % (config.amplitude,
                                                 config.width, config.d))
    if config.kind == "radon-check" and config.d == 1:
        raise ConfigError("radon-check needs d >= 2 (the d = 1 transform is "
                          "a point evaluation)")


def _make_target(config):
    if config.target == "gaussian":
        center = None if config.center is None else np.asarray(config.center)
        if center is not None and len(center) != config.d:
            raise ConfigError("center has %d entries but d = %d"
                              % (len(center), config.d))
        return make_gaussian(GaussianSpec(d=config.d, center=center,
                                          width=config.width,
                                          amplitude=config.amplitude))
    return make_cusp_radial(config.gamma, config.d)


# ---------------------------------------------------------------------------
# experiment drivers

def _run_radon_check(config, f):
    rng = np.random.default_rng(component_seed(config.seed, "radon-check"))
    dirs = sample_directions(config.d, config.trials,
                             component_seed(config.seed, "radon-dirs"))
    offsets = rng.uniform(-1.0, 1.0, size=config.trials)
    grid = LineGrid(L=config.line_l, N=config.line_n)
    rows = []
    for i, (omega, b) in enumerate(zip(dirs, offsets)):
        values, slopes = radon_transform(f, omega, grid)
        spectral = hermite(values, slopes, grid, b)
        direct = radon_direct(f, omega, b)
        scale = np.max(np.abs(values))
        rel = abs(spectral - direct) / scale
        rows.append((i, float(b), float(rel)))
    # np.max, unlike max, keeps a NaN
    worst = float(np.max([row[-1] for row in rows]))
    tol = 1e-6 if config.tolerance is None else config.tolerance
    report = ExperimentReport(config, ("trial", "b", "rel_err"), rows,
                              slopes={"max_rel_err": worst})
    if not worst <= tol:
        raise _fail(report, "radon-check: max relative error %.3e exceeds "
                    "%.1e" % (worst, tol))
    return report


def _refinement_stages(config, measure):
    """Rows (stage, *measure(sphere, grid)): stage 0 at the configured
    sphere level and line grid, stage 1 one sphere level up on the refined
    line grid."""
    grid = LineGrid(L=config.line_l, N=config.line_n)
    return [(0,) + measure(sphere_grid(config.d, config.sphere_level), grid),
            (1,) + measure(sphere_grid(config.d, config.sphere_level + 1),
                           grid.refine())]


def _check_refinement(report, what):
    """Fail when the stage-0 error (the rows' last column) is not within
    the tolerance, 1e-3 by default, or when refining did not lower it; a
    NaN error fails both."""
    config = report.config
    tol = 1e-3 if config.tolerance is None else config.tolerance
    base, refined = (row[-1] for row in report.rows)
    if not base <= tol:
        raise _fail(report, "%s: %s %.3e exceeds %.1e"
                    % (config.kind, what, base, tol))
    if not refined < base:
        raise _fail(report, "%s: refinement did not reduce the error "
                    "(%.3e -> %.3e)" % (config.kind, base, refined))


def _run_inversion_check(config, f):
    pts = ball_points(BallSampler(d=config.d, mode="pseudo-random",
                                  count=config.points,
                                  seed=component_seed(config.seed, "inv-pts")))
    exact = f(pts)
    scale = np.max(np.abs(exact))

    def measure(sphere, grid):
        recon = reconstruct(f, pts, sphere, grid)
        err = float(np.max(np.abs(recon - exact)) / scale)
        return len(sphere), grid.N, float(grid.L), err

    rows = _refinement_stages(config, measure)
    report = ExperimentReport(config,
                              ("stage", "directions", "line_n", "line_l",
                               "max_rel_err"), rows,
                              slopes={"max_rel_err": rows[0][-1]})
    _check_refinement(report, "error")
    return report


def _run_variation_bound(config, f):
    s = theorem_order(config.d, config.k) if config.s is None else config.s
    try:
        semi = sobolev_seminorm(f, s)
    except ValueError as exc:
        # s >= 0 here, so this is the integrand failing to decay before
        # the largest radial cutoff (the seminorm may be infinite)
        raise NumericalCheckError("variation-bound: %s" % exc) from exc
    # a seminorm of 0 (|f_hat|^2 underflows for a tiny amplitude) or inf
    # leaves no ratio to divide by
    if not 0.0 < semi < math.inf:
        raise NumericalCheckError("variation-bound: the order-%g seminorm "
                                  "is %g, so there is no ratio" % (s, semi))

    def measure(sphere, grid):
        v = peano_tables(f, config.k, sphere, grid).variation
        return float(v), float(semi), float(v / semi)

    rows = _refinement_stages(config, measure)
    ratios = [row[-1] for row in rows]
    report = ExperimentReport(config,
                              ("stage", "variation", "seminorm", "ratio"),
                              rows, slopes={"ratio": ratios[0]})
    if not 0.0 < ratios[0] < math.inf:
        raise _fail(report, "variation-bound: the stage-0 ratio is %g, so "
                    "its drift is undefined" % ratios[0])
    drift = abs(ratios[1] - ratios[0]) / ratios[0]
    report.slopes["ratio_drift"] = drift
    tol = 0.05 if config.tolerance is None else config.tolerance
    if not drift <= tol:
        raise _fail(report, "variation-bound: ratio drift %.3f exceeds %.2f"
                    % (drift, tol))
    return report


def _run_peano_reconstruct(config, f):
    pts = ball_points(BallSampler(d=config.d, mode="pseudo-random",
                                  count=config.points,
                                  seed=component_seed(config.seed, "peano-pts")))
    target = f(pts)

    def measure(sphere, grid):
        net = from_quadrature(peano_tables(f, config.k, sphere, grid))
        return len(net), float(np.max(np.abs(net(pts) - target)))

    rows = _refinement_stages(config, measure)
    report = ExperimentReport(config, ("stage", "neurons", "sup_err"), rows,
                              slopes={"sup_err": rows[0][-1]})
    _check_refinement(report, "sup error")
    return report


def _quadrature_layout(n, d):
    """Map a width budget n to (sphere level, line grid) with J*M <= n.

    Knot spacing dominates the quadrature error, so most of the budget goes
    to knots: J ~ n^{1/3} directions, M = n // J knots, with the line grid
    rounded down to a power of two at L = 4.  Every layout's knots are
    every r-th knot of a wider layout's, so _sweep_tables reads a whole
    sweep from tables on the widest layout's grid.
    """
    if d == 1:
        level = 1
        m = max(2, n // 2)
    else:
        level = max(1, int(round(math.log2(max(2.0, n ** (1.0 / 3.0))))))
        m = max(2, n // 2 ** level)
    # knots in [-1, 1] number N/4 + 1 on an L = 4 grid of N points
    line_n = 2 ** int(math.floor(math.log2(max(8, 4 * (m - 1)))))
    return level, LineGrid(L=4.0, N=line_n)


def _sweep_tables(config, f):
    """The PeanoTables of each width's _quadrature_layout, keyed by width,
    each a sub_rule of a table filtered on the layouts' largest line grid:
    one table on their largest sphere level for a radial target, whose one
    profile row serves every level, and one table per sphere level
    otherwise.  The widest width's tables are its own layout's, bit for
    bit."""
    layouts = {n: _quadrature_layout(n, config.d) for n in config.widths}
    grid = max((g for _, g in layouts.values()), key=lambda g: g.N)
    top = max(level for level, _ in layouts.values())
    built = {}
    out = {}
    for n, (level, qgrid) in layouts.items():
        source = top if f.radial else level
        if source not in built:
            built[source] = peano_tables(f, config.k,
                                         sphere_grid(config.d, source), grid)
        out[n] = sub_rule(built[source], sphere_grid(config.d, level), qgrid)
    return out


def _run_rate_sweep(config, f):
    """Rows (n, neurons[, epsilon], error) for each width n and the fitted
    slope.  The sampled constructor draws every width and seed from one
    table on the configured sphere level and line grid; the quadrature
    constructor builds width n's network on its _quadrature_layout, read as
    a nested sub-rule of one table (_sweep_tables).  Every error is
    measured on one PointSet of the sweep's lattice against the target's
    values there, read once; each equals lp_error's, bit for bit."""
    sampler = BallSampler(d=config.d, mode="lattice", count=config.eval_count,
                          seed=component_seed(config.seed, "rate-eval"))
    points = PointSet(ball_points(sampler))
    values = np.asarray(f(points.pts), float)

    def error(approximant_values):
        return lp_norm(values - approximant_values, config.p, config.d)

    rows = []
    # the mollifier's order for schedule = epsilon
    order = 1 if config.s is None else config.s
    if config.constructor == "sampling":
        # one table feeds every width and seed of the sweep
        tables = peano_tables(f, config.k,
                              sphere_grid(config.d, config.sphere_level),
                              LineGrid(L=config.line_l, N=config.line_n))
        if not math.isfinite(tables.variation):
            raise NumericalCheckError(
                "rate-sweep: the variation bound is %s, so no width can be "
                "sampled" % tables.variation)
    else:
        sweep_tables = _sweep_tables(config, f)
    for n in config.widths:
        if config.constructor == "sampling":
            errs = []
            for sd in range(config.n_seeds):
                net = from_sampling(tables, n,
                                    component_seed(config.seed,
                                                   "rate-%d-%d" % (n, sd)))
                errs.append(error(points.evaluate(net)))
            err = float(np.mean(errs))
            width = n
        else:
            net = from_quadrature(sweep_tables[n])
            err = error(points.evaluate(net))
            width = len(net)
        eps = epsilon_schedule(n, config.d)
        if config.schedule == "epsilon":
            err += error(smooth_approximant(f, order, eps, points.pts))
            rows.append((n, width, float(eps), err))
        else:
            rows.append((n, width, err))
    columns = (("n", "neurons", "epsilon", "error")
               if config.schedule == "epsilon" else ("n", "neurons", "error"))
    return _fit_slope(ExperimentReport(config, columns, rows))


def _run_mollify_sweep(config, f):
    """Rows (epsilon, error), epsilon ascending, and the fitted slope.  The
    target is read once on min(eval_count, 512) pseudo-random points, and
    each error is lp_error's there, bit for bit."""
    pts = ball_points(BallSampler(d=config.d, mode="pseudo-random",
                                  count=min(config.eval_count, 512),
                                  seed=component_seed(config.seed,
                                                      "mollify-eval")))
    values = np.asarray(f(pts), float)
    rows = []
    for eps in sorted(config.epsilons):
        f_eps = smooth_approximant(f, config.s, eps, pts)
        rows.append((float(eps), lp_norm(values - f_eps, config.p, config.d)))
    report = ExperimentReport(config, ("epsilon", "error"), rows)
    # errors this far below the target's size are rounding, not the rate
    # of f - f_eps, and a line through them reads a meaningless slope
    scale = float(np.max(np.abs(values)))
    if all(row[-1] < 1e-12 * scale for row in rows):
        raise _fail(report, "mollify-sweep: every error is below 1e-12 of "
                    "max|f| = %g on the sweep's points (the largest is %g), "
                    "at the rounding floor, so no rate can be fitted"
                    % (scale, max(row[-1] for row in rows)))
    return _fit_slope(report)


def _fit_slope(report):
    """Set the report's slope: the log-log rate of its error column (the
    last) against its first.  An error of 0 has no logarithm, nor has one
    that is not finite, so either fails the run, with the report written."""
    for row in report.rows:
        if row[-1] == 0.0 or not math.isfinite(row[-1]):
            raise _fail(report, "%s: the error at %s = %s is %g, so no rate "
                        "can be fitted" % (report.config.kind,
                                           report.columns[0], _fmt(row[0]),
                                           row[-1]))
    report.slopes["slope"] = rate_fit((row[0], row[-1])
                                      for row in report.rows)[0]
    return report


_DRIVERS = {"radon-check": _run_radon_check,
            "inversion-check": _run_inversion_check,
            "variation-bound": _run_variation_bound,
            "peano-reconstruct": _run_peano_reconstruct,
            "rate-sweep": _run_rate_sweep,
            "mollify-sweep": _run_mollify_sweep}


def run(config, out_dir=None):
    """Execute an experiment and write its CSV report.

    Returns the ExperimentReport.  Raises ConfigError for invalid configs
    and NumericalCheckError when a check experiment misses its tolerance
    (the report CSV is still written in that case).
    """
    _validate(config)
    f = _make_target(config)
    start = time.perf_counter()
    try:
        report = _DRIVERS[config.kind](config, f)
    except NumericalCheckError as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            report.wallclock = time.perf_counter() - start
            _write_report(report, out_dir)
        raise
    report.wallclock = time.perf_counter() - start
    _write_report(report, out_dir)
    return report


def _write_report(report, out_dir):
    name = report.config.out or (report.config.kind + ".csv")
    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        name = os.path.join(out_dir, os.path.basename(name))
    with open(name, "w") as fh:
        fh.write(report.to_csv())
    report.path = name


# ---------------------------------------------------------------------------
# command line

def _cmd_run(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return 4
    except UnicodeDecodeError as exc:
        print("config error: %s is not UTF-8: %s" % (args.config, exc),
              file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        report = run(config, out_dir=args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalCheckError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 4
    print("wrote %s (%.3f s)" % (report.path, report.wallclock))
    for name in sorted(report.slopes):
        print("  %s = %s" % (name, _fmt(report.slopes[name])))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ridgelab",
        description="Radon-based ridge approximation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None,
                       help="directory for the CSV report")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the master seed")

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print("ridgelab %s" % __version__)
        return 0
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
