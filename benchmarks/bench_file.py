"""Write BENCH_<pr>.json: the end-to-end benchmark metrics of this checkout.

Run from anywhere:  python benchmarks/bench_file.py --pr <n>

Each of ROUNDS rounds runs ``perfbench/run.py --seed 0 --trace 0`` once per
workload of BENCHMARK.json, for its ``run_seconds``, in the checkout that
holds this script.  The file records, per workload and end-to-end metric,
the value of every run with its median and quartiles, plus the runs that
failed, the CPU count, CPU model, Python and numpy versions, and the
commit (``-dirty`` when the checkout has uncommitted changes).  Comparing
two commits means running this script in a checkout of each (copy the
script into the older one if it lacks it) on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 10


def _run(workload: str, seconds: float) -> tuple[dict, dict] | None:
    """(information record, metrics record) of one benchmark run, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload}: run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    one = len(values) == 1
    q1, median, q3 = values * 3 if one else statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="the name part of BENCH_<pr>.json")
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    runs = {w["name"]: [] for w in bench["workloads"]}
    failed = dict.fromkeys(runs, 0)
    environment = None
    for r in range(ROUNDS):
        for workload in runs:
            out = _run(workload, seconds)
            if out is None or not out[1]["correct"]:
                failed[workload] += 1
                continue
            environment = environment or out[0]["environment"]
            runs[workload].append(out[1]["metrics"])
            print(f"round {r + 1}/{ROUNDS} {workload}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in out[1]["metrics"].items()))

    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True)
    report = {
        "pr": args.pr,
        "commit": commit.stdout.strip() or None,
        "protocol": {"rounds": ROUNDS, "seconds": seconds, "seed": 0, "trace": 0},
        "environment": {k: (environment or {}).get(k) for k in ("nproc", "cpu", "python", "numpy")},
        "workloads": {
            workload: {
                "failed_runs": failed[workload],
                **{
                    m["name"]: {"unit": m["unit"], **_summary([r[m["name"]]["value"] for r in done])}
                    for m in bench["end_to_end"]
                    if done
                },
            }
            for workload, done in runs.items()
        },
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
