"""Smoothing error of the binomial mollification scheme.

For each order s, the approximant f_eps built from s-fold binomial
combinations of mollified translates should converge like eps^s for smooth
targets (the Gaussian saturates at eps^2 for s = 2 only through its own
scale).  Prints the fitted slope of ||f - f_eps||_{L_2} against eps.
"""

from ridgelab.cli import ExperimentConfig, run


def main():
    epsilons = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
    for d in (1, 2):
        for s in (1, 2, 3):
            config = ExperimentConfig(kind="mollify-sweep", d=d, s=s,
                                      epsilons=epsilons, seed=42,
                                      out="mollify-d%d-s%d.csv" % (d, s))
            report = run(config, out_dir="demo_output")
            print("d = %d, s = %d: slope %+.3f" % (d, s,
                                                   report.slopes["slope"]))


if __name__ == "__main__":
    main()
