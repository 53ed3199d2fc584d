"""One pinned ridgelab experiment in a fresh process, as one ``ridgelab run`` is.

    python3 bench/experiment.py --workload NAME --seed N --out DIR
                                [--setup-only] [--trace SPANS.json]

Imports ridgelab from the checkout's ``src``, parses the workload's config,
builds its target and notes the monotonic clock (the end of set-up).  With
``--setup-only`` it stops there.  Otherwise it times ``ridgelab.cli.run``
(computation plus the CSV write) and checks the workload's gate.  With
``--trace`` it records spans around every layer and every Python warning,
and writes both to SPANS.json when the run ends.  The last line of stdout
is one JSON object; CPU time and peak memory are taken by the parent.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from ridgelab import cli  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def body_sha256(path):
    """Hash of a CSV report without its trailing ``# wallclock`` line."""
    lines = Path(path).read_text().splitlines(keepends=True)
    body = "".join(l for l in lines if not l.startswith("# wallclock"))
    return hashlib.sha256(body.encode()).hexdigest()


def library_versions():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def timed_run(config, out_dir):
    """Run the experiment; returns (report, wall seconds, check message)."""
    start = time.perf_counter()
    try:
        report = cli.run(config, out_dir=out_dir)
        failure = None
    except cli.NumericalCheckError as exc:
        report, failure = exc.report, str(exc)
    return report, time.perf_counter() - start, failure


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config = cli.parse_config(workload.config_text(args.seed))
    cli._make_target(config)
    result = {"setup_end": time.monotonic()}
    if args.setup_only:
        result["versions"] = library_versions()
        print(json.dumps(result))
        return 0

    if args.trace:
        tracer = tracing.Tracer("%s-%d-%d" % (args.workload, args.seed,
                                              os.getpid()))
        tracing.install(tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report, wall, failure = timed_run(config, args.out)
        messages = Counter(str(w.message) for w in caught)
        with open(args.trace, "w") as fh:
            json.dump({"spans": tracer.records(), "warnings": messages}, fh)
    else:
        report, wall, failure = timed_run(config, args.out)

    if failure is None and workload.gate is not None:
        failure = workload.gate(report)
    result.update(wall_s=wall, failure=failure,
                  result_err=workload.result_err(report),
                  body_sha256=body_sha256(report.path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
