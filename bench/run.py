"""ridgelab benchmark: pinned experiments, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                         [--trace 0|1]

Run it from anywhere in a source checkout; ridgelab is imported from the
checkout's ``src``.  The workloads are defined, with why each was chosen,
in ``bench/workloads.py``.

Every experiment runs in a fresh process (``bench/experiment.py``), one at
a time: a closed loop with one client.  A run first starts one set-up-only
process that is not counted (it fills the page cache and compiles
bytecode, which users of a checkout pay once), then repeats the experiment
until ``--seconds`` would be exceeded (at least MIN_EXPERIMENTS times),
then starts more set-up-only processes until there are at least MIN_SETUPS
set-up samples.
All experiments of a run use the same seed and must write the same CSV
body.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run's experiments of

- ``wall_s``: the ``ridgelab.cli.run`` call, computation plus CSV write;
- ``setup_s``: process start until the config is parsed and the target built;
- ``cpu_s``: user plus system CPU of the experiment process;
- ``peak_rss_mb``: peak resident memory of the experiment process;
- ``result_err``: the workload's accuracy figure (see workloads.py).

The failure ratio is ``failed / attempted`` in the result line: a run fails
on a nonzero exit, a missed acceptance gate, or a CSV body that differs
from the run's first one.

With ``--trace 1`` the run starts with one experiment that records spans
around every layer (``bench/tracing.py``), fills the rest of ``--seconds``
with untraced ones (at least one), and reports the per-layer metrics;
``trace.overhead_s`` compares the traced wall time with the untraced median
of the same seed's ``--trace 0`` record in ``.bench_runs/`` if there is one,
else with that of the run's own untraced experiments.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything a run leaves behind
(CSV reports, child output, spans, a full result record with the
environment) goes to ``.bench_runs/`` in the checkout.  Exit status 2 means
the checkout has no ridgelab sources or no BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "ridgelab"
RUNS_DIR = ROOT / ".bench_runs"
BASELINE = BENCH_DIR / "baseline.json"

MIN_EXPERIMENTS = 2
MIN_SETUPS = 5
# Every child must end within this many seconds of the run's start, so the
# run as a whole stays under three minutes.
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"), ("result_err", "1"))


@dataclass
class Child:
    """One finished child process."""

    code: int
    record: dict
    elapsed: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


class Runner:
    """Starts children one at a time under a shared deadline."""

    def __init__(self, workload, seed, run_dir, env, deadline):
        self.base = [sys.executable, str(BENCH_DIR / "experiment.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.run_dir = run_dir
        self.env = env
        self.deadline = deadline
        self.count = 0

    def spawn(self, *extra):
        self.count += 1
        stem = self.run_dir / ("child-%03d" % self.count)
        argv = self.base + ["--out", str(self.run_dir / "csv")] + list(extra)
        start = time.monotonic()
        with open(stem.with_suffix(".out"), "w") as out, \
                open(stem.with_suffix(".err"), "w") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err)
        # Sleep until the child exits or the deadline passes; wait4 then
        # reaps it with its own CPU time and peak memory.
        exited = os.pidfd_open(proc.pid)
        try:
            timeout = max(0.0, self.deadline - time.monotonic())
            if not select.select([exited], [], [], timeout)[0]:
                proc.kill()
        except BaseException:
            # Interrupted: leave no child behind.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.monotonic() - start
        lines = stem.with_suffix(".out").read_text().splitlines()
        record = None
        if proc.returncode == 0 and lines:
            record = json.loads(lines[-1])
        return Child(code=proc.returncode, record=record, elapsed=elapsed,
                     setup_s=record["setup_end"] - start if record else None,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0,
                     stderr=stem.with_suffix(".err").read_text())


def quartiles(values):
    """(q1, median, q3); q1 = q3 = median for a single value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def child_env():
    """The caller's environment with one BLAS thread.

    On a shared 2-core machine two OpenBLAS threads made sampling-sweep
    slower (median 4.2 s against 3.5 s over five seeds) at twice the CPU
    time, and noisier.
    """
    return dict(os.environ, **{var: "1" for var in THREAD_VARS})


def environment(seed, env, versions):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return dict(nproc=len(os.sched_getaffinity(0)), cpu=cpu,
                python=platform.python_version(), **versions,
                blas_threads={v: env[v] for v in THREAD_VARS},
                commit=commit, src_sha256=source_hash(), seed=seed)


def source_hash():
    src = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        src.update(path.read_bytes())
    return src.hexdigest()


def untraced_reference(workload, seed, summary):
    """(median, n, source) of the untraced wall time for trace.overhead_s.

    A traced run has few untraced experiments of its own (one on
    peano-d2k2), so the trace0 record of the same workload, seed and
    sources is used when the checkout has one.
    """
    path = RUNS_DIR / ("%s-seed%d-trace0.json" % (workload, seed))
    if path.exists():
        record = json.loads(path.read_text())
        if record["env"]["src_sha256"] == source_hash():
            wall = record["summary"]["wall_s"]
            return wall["median"], wall["n"], path.name
    wall = summary["wall_s"]
    return wall["median"], wall["n"], "this run"


def failure_of(child, first_hash):
    if child.record is None:
        return "exit status %d: %s" % (child.code,
                                       child.stderr.strip()[-500:])
    if child.record["failure"]:
        return child.record["failure"]
    if child.record["body_sha256"] != first_hash:
        return "CSV body differs from the run's first experiment"
    return None


def baseline_hash(workload, seed):
    if not BASELINE.exists():
        return None
    data = json.loads(BASELINE.read_text())
    return data["workloads"][workload]["body_sha256"].get(str(seed))


def measure(workload, seed, seconds, trace):
    """Run one workload; returns the result dict, or None if nothing ran."""
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    run_dir = RUNS_DIR / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    runner = Runner(workload, seed, run_dir, env,
                    time.monotonic() + RUN_DEADLINE_S)

    warm = runner.spawn("--setup-only")
    if warm.record is None:
        print("error: set-up failed (exit status %d)\n%s"
              % (warm.code, warm.stderr), file=sys.stderr)
        return None
    children = []
    traced = None
    spans_path = run_dir / "spans.json"
    begin = time.monotonic()
    if trace:
        traced = runner.spawn("--trace", str(spans_path))
        children.append(traced)
    experiments = []
    least = 1 if trace else MIN_EXPERIMENTS
    while True:
        child = runner.spawn()
        experiments.append(child)
        used = time.monotonic() - begin
        if child.record is None or (len(experiments) >= least
                                    and used + child.elapsed > seconds):
            break
    children += experiments
    setups = [c.setup_s for c in children if c.record]
    while len(setups) < MIN_SETUPS:
        probe = runner.spawn("--setup-only")
        if probe.record is None:
            break
        setups.append(probe.setup_s)

    first_hash = next((c.record["body_sha256"] for c in children if c.record),
                      None)
    failures = [f for f in (failure_of(c, first_hash) for c in children) if f]
    for f in failures:
        print("failed: %s" % f, file=sys.stderr)
    # Experiments that missed a gate still ran to the end and are timed;
    # the result line reports them as failed.
    done = [c for c in experiments if c.record]
    if not done:
        return None

    samples = {"wall_s": [c.record["wall_s"] for c in done],
               "setup_s": setups,
               "cpu_s": [c.cpu_s for c in done],
               "peak_rss_mb": [c.rss_mb for c in done],
               "result_err": [c.record["result_err"] for c in done]}
    summary = {name: dict(zip(("q1", "median", "q3"), quartiles(samples[name])),
                          n=len(samples[name]), unit=unit)
               for name, unit in END_TO_END}
    if trace:
        if traced.record is None:
            return None
        data = json.loads(spans_path.read_text())
        spans = [(s["name"], s["start"], s["end"], s["parent"], s["amount"])
                 for s in data["spans"]]
        reference = untraced_reference(workload, seed, summary)
        layer = tracing.per_layer_metrics(spans, data["warnings"],
                                          traced.record["wall_s"],
                                          reference[0])
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in layer.items()}
    else:
        metrics = {name: {"value": s["median"], "unit": s["unit"]}
                   for name, s in summary.items()}
    return {"workload": workload, "seed": seed, "trace": trace,
            "env": environment(seed, env, warm.record["versions"]),
            "attempted": len(children), "failed": len(failures),
            "body_sha256": first_hash,
            "baseline_sha256": baseline_hash(workload, seed),
            "summary": summary, "samples": samples, "metrics": metrics,
            "warnings": data["warnings"] if trace else None,
            "untraced_reference": reference if trace else None}


def report(result):
    """Print the human-readable lines and then the JSON result line."""
    print("env %s" % json.dumps(result["env"]))
    print("workload %s seed %d: %d experiments, %d set-ups, closed loop, "
          "1 client" % (result["workload"], result["seed"],
                        result["attempted"],
                        result["summary"]["setup_s"]["n"]))
    for name, s in result["summary"].items():
        print("  %-12s median %.6g %s  q1 %.6g  q3 %.6g  n %d"
              % (name, s["median"], s["unit"], s["q1"], s["q3"], s["n"]))
    print("  %-12s %.6g (%d failed of %d)"
          % ("fail_ratio", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))
    print("body_sha256 %s" % result["body_sha256"])
    if result["baseline_sha256"] not in (None, result["body_sha256"]):
        print("body_changed: baseline %s" % result["baseline_sha256"])
    if result["trace"]:
        for name, m in result["metrics"].items():
            print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
        median, n, source = result["untraced_reference"]
        print("  trace.overhead_s is against an untraced median of %.6g s "
              "over %d experiment(s) from %s%s"
              % (median, n, source,
                 "; a single sample carries run-to-run noise" if n == 1
                 else ""))
        for message, n in sorted(result["warnings"].items()):
            print("  warning x%d: %s" % (n, message))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "__init__.py").is_file() or not spec_path.is_file():
        print("error: no ridgelab sources or BENCHMARK.json under %s" % ROOT,
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        if result is None:
            status = 1
            continue
        (RUNS_DIR / ("%s-seed%d-trace%d.json"
                     % (name, args.seed, args.trace))).write_text(
            json.dumps(result, indent=1))
        report(result)
    return status


if __name__ == "__main__":
    sys.exit(main())
