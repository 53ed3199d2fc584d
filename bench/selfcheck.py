"""Self-check of the benchmark's own arithmetic and metric declarations.

    python3 bench/selfcheck.py

Checks the self-time arithmetic on synthetic traces, that the per-layer
self times account for the traced wall time, and that every metric the
benchmark prints is declared in BENCHMARK.json, with the same unit and a
name of letters, digits, ``_``, ``.`` and ``-``.  Exits 1 on the first
failed check.  Needs no ridgelab sources.
"""

import json
import math
import re
import sys
from pathlib import Path

import tracing
from run import END_TO_END
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# cli.run
# +- network.build                    (5 neurons)
# |  +- network.density_tables        computes, through a helper
# |  |  +- ridge_density.derivative_profile
# |  |  +- ridge_density.derivative_profile
# |  |     +- targets.fourier         (64 points)
# |  +- network.density_tables        reused: no targets.fourier below it
# |  |  +- ridge_density.polynomial_part
# |  +- network.density_tables        computes, calling the target directly
# |     +- targets.fourier            (36 points)
# +- network.evaluate                 (100 neuron-points)
# +- targets.evaluate                 (10 points)
NESTED = [
    ("cli.run", 0.0, 10.0, -1, 0),
    ("network.build", 1.0, 6.0, 0, 5),
    ("network.density_tables", 1.5, 5.0, 1, 0),
    ("ridge_density.derivative_profile", 2.0, 3.0, 2, 0),
    ("ridge_density.derivative_profile", 3.5, 4.5, 2, 0),
    ("targets.fourier", 3.6, 4.0, 4, 64),
    ("network.density_tables", 5.2, 5.4, 1, 0),
    ("ridge_density.polynomial_part", 5.25, 5.3, 6, 0),
    ("network.density_tables", 5.5, 5.9, 1, 0),
    ("targets.fourier", 5.6, 5.8, 8, 36),
    ("network.evaluate", 7.0, 9.0, 0, 100),
    ("targets.evaluate", 9.0, 9.5, 0, 10),
]
NESTED_SELF = [2.5, 0.9, 1.5, 1.0, 0.6, 0.4, 0.15, 0.05, 0.2, 0.2, 2.0,
               0.5]

# Children that overlap each other, lie inside each other or run past their
# parent count once, and only inside the parent.
OVERLAP = [("cli.run", 0.0, 4.0, -1, 0),
           ("network.evaluate", 1.0, 3.0, 0, 0),
           ("network.evaluate", 1.5, 2.5, 0, 0),
           ("network.evaluate", 3.5, 5.0, 0, 0)]
OVERLAP_SELF = [1.5, 2.0, 1.0, 1.5]


def check(condition, what):
    if not condition:
        print("selfcheck failed: %s" % what)
        sys.exit(1)


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def main():
    for spans, expected in ((NESTED, NESTED_SELF), (OVERLAP, OVERLAP_SELF)):
        got = tracing.self_times(spans)
        check(all(close(g, e) for g, e in zip(got, expected)),
              "self times %s, expected %s" % (got, expected))

    traced_wall = 10.25
    m = tracing.per_layer_metrics(NESTED, {"profile support exceeds x": 3,
                                           "something else": 1},
                                  traced_wall, 10.0)
    layers = sum(m[layer + ".self_s"][0] for layer in tracing.LAYERS)
    check(close(layers, 10.0), "layer self times sum to %r, not 10" % layers)
    expected = {"trace.unaccounted_s": 0.25, "trace.overhead_s": 0.25,
                "network.self_s": 4.75, "network.calls": 5,
                "targets.self_s": 1.1, "targets.fourier.points": 100,
                "network.density_tables.calls": 3,
                "network.density_tables.reuse_ratio": 1 / 3,
                "network.neurons": 5, "network.evaluate.neuron_points": 100,
                "network.evaluate.rate": 50.0,
                "network.evaluate.bytes_computed": 800,
                "targets.evaluate.points": 10,
                "ridge_density.derivative_profile.calls": 2,
                "warnings.profile_support.count": 3,
                "warnings.other.count": 1}
    for name, value in expected.items():
        check(close(m[name][0], value),
              "%s = %r, expected %r" % (name, m[name][0], value))

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    for section, printed in (("end_to_end", dict(END_TO_END)),
                             ("per_layer", {k: u for k, (_, u) in m.items()})):
        declared = {d["name"]: d["unit"] for d in spec[section]}
        check(declared == printed,
              "%s in BENCHMARK.json differs from the printed metrics: %s"
              % (section, sorted(set(declared.items()) ^ set(printed.items()))))
        for name, unit in declared.items():
            check(NAME.match(name), "bad metric name %r" % name)
            check(UNIT.match(unit), "bad unit %r" % unit)
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(WORKLOADS), "workloads %s differ from %s"
          % (names, list(WORKLOADS)))
    check(all(NAME.match(n) for n in names), "bad workload name")
    print("selfcheck ok")


if __name__ == "__main__":
    main()
