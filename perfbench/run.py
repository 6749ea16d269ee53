"""cqi-sim benchmark: time to a verified solution, set-up time, peak
memory and success rate, on seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload detector-refine --seed 0 --seconds 36 --trace 0

Workloads (see perfbench/workloads.py and BENCHMARK.json):
  detector-refine  detector-compare config at refine 1
  two-point        two-point config at refine 0
  finite-suite     chain, zeno, time-reversed-zeno, epr, realism-scenario

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
  solve_s       median wall time of one pass, from handing the configs to
                cqi_sim.cli.run to checked outputs on disk, each pass
                first scaled to a reference machine speed (see the
                calibration note in perfbench/worker.py)
  setup_s       median over SETUP_REPEATS fresh processes of the time from
                process start to: package imported, configs generated and
                validated, warm-up done; scaled like solve_s
  peak_rss_mb   peak resident memory of the workload process through its
                set-up and first pass
  success_rate  operations that passed over operations attempted; an
                operation fails when it raises (exit codes 1-3 of the CLI)
                or an output misses its acceptance tolerance
With ``--trace 1`` passes alternate between untraced and traced by the
outside-in tracer (perfbench/tracer.py); the last line reports the
per-layer metrics (medians over traced passes; ``trace.overhead_s`` is
the traced minus the untraced median), and every span is written to
``.perfbench_out/<workload>/trace-seed<seed>.json``.

The line before the last is an information record: environment, sample
counts, per-pass wall times and calibration factors, set-up times.  The
benchmark reads and writes only inside the current directory, which must
hold the repository's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run must end within 180 s


def _bench_config() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class _Worker:
    """A worker process; killed if the run would overrun its deadline."""

    def __init__(self, cmd: list[str], env: dict, deadline: float):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        self._timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), self.proc.kill)
        self._timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def wait_ready(self) -> float:
        """Seconds from process start until the worker reports READY,
        scaled by the calibration factor it reports next."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                elapsed = time.perf_counter() - self.t0
                scale = self.proc.stdout.readline()
                if scale.startswith("SCALE "):
                    return elapsed * float(scale.split()[1])
                break
        raise RuntimeError("worker ended before its set-up finished")

    def finish(self) -> dict | None:
        """The worker's RESULT record, or None if it failed."""
        result = None
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        return result if self.proc.wait() == 0 else None


def _percentile_line(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "median_s": statistics.median(samples)}
    if len(samples) >= 20:
        q = math.floor(100 * (1 - 10 / len(samples)))
        out[f"p{q}_s"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.perf_counter()
    if not Path("src", "cqi_sim", "__init__.py").is_file():
        print("perfbench: run from the repository root (src/cqi_sim not found)", file=sys.stderr)
        return 2
    bench = _bench_config()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # One BLAS thread: wall time is the same as with two on this code (the
    # kernel's time is in numpy's elementwise exp, not the matrix-vector
    # product), and an idle spinning BLAS thread would compete with the
    # main thread for a core.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = start + DEADLINE_S

    setups: list[float] = []
    try:
        for _ in range(0 if args.trace else SETUP_REPEATS - 1):
            with _Worker(cmd + ["--setup-only"], env, deadline) as w:
                setups.append(w.wait_ready())
                w.finish()
        with _Worker(cmd, env, deadline) as w:
            setups.append(w.wait_ready())
            result = w.finish()
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        result = None
    if result is None:
        print("perfbench: the workload process failed", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    solve = [t * c for t, c in zip(result["samples"], result["scales"])]
    info = {
        "workload": args.workload,
        "environment": result["environment"],
        "solve_s": _percentile_line(solve),
        "wall_solve_s": _percentile_line(result["samples"]),
        "wall_samples_s": result["samples"],
        "calibration_scales": result["scales"],
        "setup_samples_s": setups,
    }
    if args.trace:
        info["counts_repeat"] = result["counts_repeat"]
        info["untraced_samples_s"] = result["untraced_samples_s"]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "success_rate": {"value": (attempted - failed) / attempted, "unit": "fraction"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
