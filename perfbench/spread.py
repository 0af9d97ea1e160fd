"""Run the benchmark over several seeds and report, for each end-to-end
metric, the median and the quartile spread as a share of the median
against the bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10]
                                [--traced] [--out FILE] [--against FILE]

Runs are sequential.  ``--traced`` adds one traced run per workload at
the first seed; ``--out`` writes every value, the medians and the
per-layer metrics as JSON (the form of ``baseline.json``); ``--against``
compares each median with the one in an earlier such file and flags a
metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    outcome = json.loads(out[-1])
    outcome["meta"] = json.loads(out[-2].removeprefix("# meta "))
    return outcome


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    before = (json.loads(Path(args.against).read_text())["workloads"]
              if args.against else {})
    report = {"python": platform.python_version(),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, s, bench["run_seconds"], 0) for s in args.seeds]
        entry = {"seeds": args.seeds, "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "commit": runs[0]["meta"]["commit"], "metrics": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "values": values}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            line = (f"{workload:16} {name:16} median {median:12.4f} "
                    f"spread {spread:6.3f} bound {metric['bound']:.2f} {flag}")
            if workload in before:
                old = before[workload]["metrics"][name]["median"]
                change = median / old - 1
                worse = change < -metric["bound"] if metric["better"] == "higher" \
                    else change > metric["bound"]
                line += f"  vs earlier {change:+.3f}{' WORSE' if worse else ''}"
            print(line, flush=True)
        if sum(entry["failed"]):
            print(f"{workload}: {sum(entry['failed'])} failed operations",
                  flush=True)
        if args.traced:
            traced = run(workload, args.seeds[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
