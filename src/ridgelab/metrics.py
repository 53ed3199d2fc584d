"""L_p errors on the unit ball and log-log convergence slopes."""

import math

import numpy as np

from .quadrature import ball_points, ball_volume


def lp_error(f, g, p, sampler):
    """Sampled L_p(unit ball) distance between two callables.

    p=2 uses volume-weighted mean of squares over the sample points; p=inf
    is a max over a dense point set (the exact sup is unattainable).
    """
    pts = ball_points(sampler)
    diff = np.abs(np.asarray(f(pts), float) - np.asarray(g(pts), float))
    if p in (np.inf, math.inf, "inf"):
        return float(diff.max()) if len(diff) else 0.0
    if p == 2:
        return math.sqrt(ball_volume(sampler.d) * float(np.mean(diff ** 2)))
    raise ValueError("only p in {2, inf} is supported")


def rate_fit(points):
    """Least-squares line through (log abscissa, log error) of the
    (abscissa, error) pairs in points.

    Returns (slope, intercept, residual) with error ~ abscissa^slope;
    residual is the root-mean-square misfit of the log-log line.
    """
    points = tuple(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    a = np.array([p[0] for p in points], float)
    e = np.array([p[1] for p in points], float)
    if np.any(e <= 0):
        raise ValueError("rate fit requires strictly positive errors")
    la, le = np.log(a), np.log(e)
    slope, intercept = np.polyfit(la, le, 1)
    resid = float(np.sqrt(np.mean((le - (slope * la + intercept)) ** 2)))
    return float(slope), float(intercept), resid
