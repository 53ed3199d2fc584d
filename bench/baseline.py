"""Write bench/baseline.json from the result records in .bench_runs/.

    python3 bench/baseline.py

For each workload it stores the CSV body hash of every seed that was run,
the median and quartiles over those seeds of each end-to-end metric (the
per-run medians that the result line reports), and the counts of the
traced run at the acceptance seed 42.  Timings of the traced run are left
out: only counts repeat exactly.  bench/run.py prints ``body_changed`` when
a run's body hash differs from the stored one for its seed.
"""

import json

from run import BASELINE, END_TO_END, RUNS_DIR, quartiles
from workloads import WORKLOADS

ACCEPTANCE_SEED = 42
COUNT_UNITS = ("count", "ratio", "B")


def main():
    out = {"workloads": {}}
    for name in WORKLOADS:
        runs = [json.loads(p.read_text())
                for p in sorted(RUNS_DIR.glob("%s-seed*-trace0.json" % name))]
        traced = json.loads((RUNS_DIR / ("%s-seed%d-trace1.json"
                                         % (name, ACCEPTANCE_SEED))).read_text())
        end_to_end = {}
        for metric, unit in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            end_to_end[metric] = {"median": med, "q1": q1, "q3": q3,
                                  "n": len(values), "unit": unit}
        out["workloads"][name] = {
            "seeds": sorted(r["seed"] for r in runs),
            "body_sha256": {str(r["seed"]): r["body_sha256"]
                            for r in sorted(runs, key=lambda r: r["seed"])},
            "end_to_end": end_to_end,
            "per_layer_counts": {k: v["value"]
                                 for k, v in traced["metrics"].items()
                                 if v["unit"] in COUNT_UNITS},
        }
        out["env"] = traced["env"]
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote %s" % BASELINE)


if __name__ == "__main__":
    main()
