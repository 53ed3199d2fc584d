"""Outside-in spans around the calls into each ridgelab layer.

The wrappers are installed from the benchmark's own code, at the module
attributes that callers look up (``ridgelab.cli.from_quadrature``,
``ridgelab.network.derivative_profile``, ...), so nothing under ``src/``
changes.  Spans stay in memory and are written out when the run ends.  A
layer's self time is its spans' durations minus the part of each interval
that child spans cover, so the layers' self times add up to the root span.
"""

import dataclasses
import functools
import time
from collections import defaultdict

LAYERS = ("cli", "quadrature", "targets", "fourier_radon", "ridge_density",
          "network", "mollify", "metrics")

# Warnings are counted by the start of their message; anything else is "other".
WARNING_NAMES = (("profile support exceeds", "profile_support"),
                 ("spectral taper removed", "taper_mass"),
                 ("grid Nyquist frequency", "nyquist"),
                 ("quadrature resolution per eps-ball", "mollify_nodes"))


class Tracer:
    """Records spans as [name, start, end, parent index, amount]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, amount=None):
        """Return fn recording a span per call; amount(args, result) sizes it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[4] = amount(args, result)
            return result
        return traced

    def records(self):
        return [{"run_id": self.run_id, "name": name, "start": start,
                 "end": end, "parent": parent, "amount": amount}
                for name, start, end, parent, amount in self.spans]


def _points(x):
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    count = 1
    for n in shape[:-1]:
        count *= n
    return count


def install(tracer):
    """Wrap the entry points of every layer that the workloads reach."""
    from ridgelab import cli, fourier_radon, metrics, network, ridge_density

    def patch(owner, attr, name, amount=None):
        # A name a later refactor removes is skipped; its counts read 0.
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, tracer.wrap(name, fn, amount))

    make_gaussian = getattr(cli, "make_gaussian", None)
    points = lambda a, r: _points(a[0])

    def traced_gaussian(spec):
        f = make_gaussian(spec)
        return dataclasses.replace(
            f, evaluate=tracer.wrap("targets.evaluate", f.evaluate, points),
            fourier=tracer.wrap("targets.fourier", f.fourier, points))

    if make_gaussian is not None:
        cli.make_gaussian = traced_gaussian
    ball_size = lambda a, r: len(r)
    neurons = lambda a, r: len(r.a)
    patch(cli, "run", "cli.run")
    patch(cli, "_write_report", "cli.write")
    patch(cli, "ball_points", "quadrature.ball_points", ball_size)
    patch(cli, "sphere_grid", "quadrature.sphere_grid")
    patch(cli, "component_seed", "quadrature.component_seed")
    patch(cli, "from_quadrature", "network.build", neurons)
    patch(cli, "from_sampling", "network.build", neurons)
    patch(cli, "lp_error", "metrics.lp_error")
    patch(cli, "rate_fit", "metrics.rate_fit")
    patch(cli, "smooth_approximant", "mollify.smooth_approximant")
    patch(cli, "epsilon_schedule", "mollify.epsilon_schedule")
    patch(metrics, "ball_points", "quadrature.ball_points", ball_size)
    patch(network, "_density_tables", "network.density_tables")
    patch(network, "derivative_profile", "ridge_density.derivative_profile")
    patch(network, "polynomial_part", "ridge_density.polynomial_part")
    patch(ridge_density, "derivative_profile",
          "ridge_density.derivative_profile")
    patch(ridge_density, "radon_slice", "fourier_radon.radon_slice")
    patch(ridge_density, "radon_transform", "fourier_radon.radon_transform")
    patch(ridge_density, "_apply_multiplier_linear", "fourier_radon.filter",
          lambda a, r: len(a[0]))
    patch(fourier_radon, "radon_slice", "fourier_radon.radon_slice")
    patch(getattr(fourier_radon, "RidgeProfile", None), "interpolator",
          "fourier_radon.spline")
    # __call__ was bound to the original evaluate when the class was
    # created, so wrapping evaluate alone would miss net(x).
    evaluate = getattr(getattr(network, "ShallowNetwork", None), "evaluate",
                       None)
    neuron_points = lambda a, r: len(a[0]) * _points(a[1])
    for attr in ("evaluate", "__call__") if evaluate else ():
        setattr(network.ShallowNetwork, attr,
                tracer.wrap("network.evaluate", evaluate, neuron_points))


def self_times(spans):
    """Each span's duration minus the union of its children's intervals.

    spans are (name, start, end, parent index, ...) sequences.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def warning_name(message):
    for prefix, name in WARNING_NAMES:
        if message.startswith(prefix):
            return name
    return "other"


def per_layer_metrics(spans, warnings, traced_wall, untraced_wall):
    """Per-layer metrics as {name: (value, unit)} from one traced run.

    warnings maps each warning message to how often it fired.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    seconds = defaultdict(float)
    amount = defaultdict(int)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    # A density-table call computed something when a targets.fourier span
    # lies below it: any recomputation of the tables must call the target's
    # spectrum, whichever helpers it goes through.
    computed = set()
    for span in spans:
        if span[0] == "targets.fourier":
            parent = span[3]
            while parent >= 0 and parent not in computed:
                computed.add(parent)
                parent = spans[parent][3]
    reused_tables = 0
    for i, (name, start, end, _, n) in enumerate(spans):
        calls[name] += 1
        seconds[name] += end - start
        amount[name] += n
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        layer_calls[layer] += 1
        if name == "network.density_tables" and i not in computed:
            reused_tables += 1

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = (layer_self[layer], "s")
        m[layer + ".calls"] = (layer_calls[layer], "count")
    neuron_points = amount["network.evaluate"]
    eval_s = seconds["network.evaluate"]
    tables = calls["network.density_tables"]
    m.update({
        "targets.fourier.points": (amount["targets.fourier"], "count"),
        "targets.evaluate.points": (amount["targets.evaluate"], "count"),
        "fourier_radon.radon_slice.calls":
            (calls["fourier_radon.radon_slice"], "count"),
        "fourier_radon.filter.calls": (calls["fourier_radon.filter"], "count"),
        "fourier_radon.filter.samples":
            (amount["fourier_radon.filter"], "count"),
        "fourier_radon.spline.builds": (calls["fourier_radon.spline"], "count"),
        "ridge_density.derivative_profile.calls":
            (calls["ridge_density.derivative_profile"], "count"),
        "ridge_density.polynomial_part.s":
            (seconds["ridge_density.polynomial_part"], "s"),
        "network.density_tables.calls": (tables, "count"),
        "network.density_tables.reuse_ratio":
            (reused_tables / tables if tables else 0.0, "ratio"),
        "network.build.s": (seconds["network.build"], "s"),
        "network.neurons": (amount["network.build"], "count"),
        "network.evaluate.s": (eval_s, "s"),
        "network.evaluate.neuron_points": (neuron_points, "count"),
        "network.evaluate.rate":
            (neuron_points / eval_s if eval_s else 0.0, "1/s"),
        "network.evaluate.bytes_computed": (8 * neuron_points, "B"),
        "quadrature.ball_points.calls":
            (calls["quadrature.ball_points"], "count"),
        "quadrature.ball_points.points":
            (amount["quadrature.ball_points"], "count"),
        "metrics.lp_error.s": (seconds["metrics.lp_error"], "s"),
        "metrics.lp_error.calls": (calls["metrics.lp_error"], "count"),
        "mollify.smooth_approximant.s":
            (seconds["mollify.smooth_approximant"], "s"),
        "mollify.smooth_approximant.calls":
            (calls["mollify.smooth_approximant"], "count"),
        "cli.write.s": (seconds["cli.write"], "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.unaccounted_s": (traced_wall - sum(layer_self.values()), "s"),
    })
    counts = defaultdict(int)
    for message, n in warnings.items():
        counts[warning_name(message)] += n
    for _, name in WARNING_NAMES + (("", "other"),):
        m["warnings.%s.count" % name] = (counts[name], "count")
    return m
