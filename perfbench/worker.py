"""One workload in its own process; started by run.py, not by hand.

Protocol on stdout: ``READY`` once set-up (import, config generation
and validation, warm-up) is done, then, unless ``--setup-only``, one
``RESULT <json>`` line.  A pass hands the workload's configs to
``cqi_sim.cli.run`` one after the other and checks every output file;
passes repeat until the next one would end after ``--seconds``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cqi_sim import _kernels, cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _write_configs(workload: str, seed: int, work: Path) -> list[tuple[Path, dict, int]]:
    """Generate, write and validate the configs of one pass."""
    (work / "configs").mkdir(parents=True, exist_ok=True)
    ops = []
    for cfg, refine in workloads.generate(workload, seed):
        path = work / "configs" / f"{cfg['output']['path']}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        cli.load_config(path)  # raises ConfigError before any timing starts
        ops.append((path, cfg, refine))
    return ops


def _warm_up(workload: str, ops, out_dir: Path) -> None:
    """Let lazy set-up finish: BLAS threads, FFT plans, first-call paths."""
    REFERENCES[workload][0]()
    if workload == "finite-suite":
        _run_pass(ops, out_dir)  # one pass takes about 0.3 s
        return
    x = np.linspace(-1.0, 1.0, 64)
    _kernels.propagate(x, 1.0, x, np.zeros(x.size), np.ones(x.size, complex), 1.0, 1.0, 0.0)
    np.fft.ifft(np.fft.fft(np.ones(1024, complex)))


def _run_pass(ops, out_dir: Path) -> tuple[float, int]:
    """Run every op once; return (wall seconds to verified outputs, failures).

    A failed operation (raised, or its output failed a check) is counted
    and never retried.
    """
    for _, cfg, _ in ops:
        for suffix in (".csv", ".json"):
            (out_dir / f"{cfg['output']['path']}{suffix}").unlink(missing_ok=True)
    failed = 0
    t0 = time.perf_counter()
    for path, cfg, refine in ops:
        try:
            cli.run(path, refine=refine, out_dir=out_dir)
            workloads.check(cfg, refine, out_dir)
        except Exception:  # noqa: BLE001 - the benchmark must keep going and report it
            failed += 1
            print(f"operation {path.name} failed:", file=sys.stderr)
            traceback.print_exc()
    return time.perf_counter() - t0, failed


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "kernel_backend": _kernels.backend(),
        "blas_threads": blas,
        "seed": seed,
    }


# Calibration.  The host's speed drifts by +-20% over seconds to minutes
# (other tenants share it), and the drift, not the spread of passes
# within a run, set the spread of run medians: over ten 36 s runs it
# was 13-33% for finite-suite and 9-20% for the detector workloads.  So
# a fixed reference computation, owned by the benchmark, is timed after
# every pass (and once before the first), and each pass's wall time is
# scaled by the reference's tuned time over its mean time around the
# pass.  A reference tracks the drift only if it contends for the same
# resources as the workload, so each workload has its own: interpreter
# work with 2x2 linear algebra for finite-suite (its spread fell to
# 2-4%), and the dense kernel's complex exp and matrix-vector product
# over a 1M-element phase matrix for the detector workloads, which
# spend their time in that or in large-array sweeps.  A cache-sized
# reference did not track the detectors: it once widened the spread of
# detector-refine from 6% to 17%.  Set-up times are scaled the same way,
# by the reference timed right after set-up.
_rng = np.random.default_rng(12345)
_REF_MATS = [m + 1j * m.T for m in _rng.standard_normal((40, 2, 2))]
_REF_X = np.linspace(-20.0, 20.0, 2000)
_REF_Y = np.linspace(-1.0, 1.0, 500)
_REF_AMP = np.exp(1j * _rng.uniform(0.0, 6.0, _REF_Y.size))


def _small_reference() -> float:
    """Median time of three runs of interpreter and 2x2 linear algebra work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for m in _REF_MATS:
            q, _ = np.linalg.qr(m)
            a = np.kron(np.kron(q[:, 0], q[:, 1]), q[:, 0]).reshape(2, 2, 2).transpose(1, 0, 2)
            a = a.reshape(2, -1)
            np.linalg.eigvalsh(a @ a.conj().T)
            s = 0
            for i in range(200):
                s += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _kernel_reference() -> float:
    """Time of one dense free-kernel sum, 2000 outputs x 500 sources.

    Freeing its 24 MB of temporaries raises glibc's mmap threshold, after
    which two-point's first pass peaks at 230 MB rather than 212 MB; the
    offset is the same on every run.
    """
    t0 = time.perf_counter()
    dx = _REF_X[:, None] - _REF_Y[None, :]
    dx *= dx
    phase = dx * (0.5j / 1.7)
    np.exp(phase, out=phase)  # in place, so that the reference adds little to peak memory
    phase @ _REF_AMP
    return time.perf_counter() - t0


# workload -> (reference, its median time on the host it was tuned on)
REFERENCES = {
    "detector-refine": (_kernel_reference, 0.048),
    "two-point": (_kernel_reference, 0.048),
    "finite-suite": (_small_reference, 0.0049),
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _measure(ops, out_dir: Path, seconds: float, workload: str,
             samples: list[float], scales: list[float]) -> tuple[int, float]:
    """Run passes until the next one would end after ``seconds``.

    Appends each pass's wall time to ``samples`` and its calibration
    factor to ``scales``.  Returns the failures and the peak RSS once
    the first pass is done: later passes reuse a heap that glibc may
    have grown in different ways, which made the end-of-run peak read
    312 or 342 MB at random on detector-refine.
    """
    reference, ref_s = REFERENCES[workload]
    failed = 0
    start = time.perf_counter()
    ref_before = reference()
    while True:
        dt, f = _run_pass(ops, out_dir)
        ref_after = reference()
        failed += f
        samples.append(dt)
        scales.append(2.0 * ref_s / (ref_before + ref_after))
        ref_before = ref_after
        if len(samples) == 1:
            peak = _peak_rss_mb()
        if time.perf_counter() - start + statistics.median(samples) > seconds:
            return failed, peak


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = ROOT / ".perfbench_out" / args.workload
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = _write_configs(args.workload, args.seed, work)
    _warm_up(args.workload, ops, out_dir)
    print("READY", flush=True)
    # calibration factor for this process's set-up time
    reference, ref_s = REFERENCES[args.workload]
    print(f"SCALE {ref_s / reference()!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"environment": _environment(args.seed), "ops_per_pass": len(ops)}
    samples: list[float] = []
    scales: list[float] = []
    if not args.trace:
        failed, result["peak_rss_mb"] = _measure(ops, out_dir, args.seconds, args.workload,
                                                 samples, scales)
        result["attempted"] = len(ops) * len(samples)
    else:
        failed, plain, ends, tracer = 0, [], [], Tracer()
        start = time.perf_counter()
        while True:  # untraced and traced passes alternate, to state the overhead
            dt, f = _run_pass(ops, out_dir)
            plain.append(dt)
            tracer.install()
            try:
                dt, f2 = _run_pass(ops, out_dir)
            finally:
                tracer.uninstall()
            samples.append(dt)
            ends.append(len(tracer.spans))
            failed += f + f2
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(plain) + statistics.median(samples) > args.seconds:
                break
        scales = [1.0] * len(samples)
        bounds = list(zip([0] + ends[:-1], ends))
        per_pass = [tracer.summary(lo, hi, dt) for (lo, hi), dt in zip(bounds, samples)]
        counts = [k for k in per_pass[0] if not _is_time(k)]
        result["counts_repeat"] = all(p[k] == per_pass[0][k] for p in per_pass for k in counts)
        if not result["counts_repeat"]:
            print("warning: exact counts differ between passes", file=sys.stderr)
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(samples) - statistics.median(plain)
        result["metrics"] = metrics
        result["untraced_samples_s"] = plain
        result["attempted"] = len(ops) * (len(plain) + len(samples))
        tracer.dump(work / f"trace-seed{args.seed}.json", bounds,
                    {"workload": args.workload, **result})

    result["failed"] = failed
    result["samples"] = samples
    result["scales"] = scales
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name == "trace.self_share"


if __name__ == "__main__":
    sys.exit(main())
