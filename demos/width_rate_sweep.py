"""Approximation error versus network width for both constructors.

Runs the rate-sweep experiment twice -- once with importance sampling
(Monte Carlo n^{-1/2} behavior) and once with the product-quadrature
constructor (much faster decay) -- and prints the fitted log-log slopes.
"""

import warnings

from ridgelab.cli import ExperimentConfig, run

warnings.filterwarnings("ignore", message="profile support")


def main():
    widths = (16, 32, 64, 128, 256, 512, 1024)
    for constructor in ("sampling", "quadrature"):
        config = ExperimentConfig(kind="rate-sweep", d=2, k=1, p=2.0,
                                  widths=widths, constructor=constructor,
                                  n_seeds=5 if constructor == "sampling" else 1,
                                  eval_count=16384, seed=42,
                                  out="rate-%s.csv" % constructor)
        report = run(config, out_dir="demo_output")
        print("%-10s slope %+.3f   (report: %s)"
              % (constructor, report.slopes["slope"], report.path))
        for row in report.rows:
            print("    n = %5d   error = %.3e" % (row[0], row[-1]))


if __name__ == "__main__":
    main()
