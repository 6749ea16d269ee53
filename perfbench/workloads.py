"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a list of (config, refine) operations.  Seed 0 gives
exactly the committed ``configs/*.json``; any other seed perturbs them
within ranges where every acceptance tolerance still holds, so no
operation is expected to fail.  ``check`` reads an operation's outputs
back from disk and applies the acceptance tolerances to them.

Run ``python3 perfbench/workloads.py`` from the repository root to
confirm that seed 0 reproduces ``configs/``.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from pathlib import Path

_S = 0.7071067811865476

# The committed configs, kept here so that the benchmark generates every
# input itself; ``python3 perfbench/workloads.py`` checks the two agree.
BASE = {
    "chain": {
        "kind": "chain",
        "seed": 0,
        "params": {
            "initial": [0.6, 0.8],
            "overlaps": [[[_S, _S], [_S, -_S]]],
            "explore_general_interactions": True,
        },
        "output": {"path": "chain", "format": "csv"},
    },
    "detector-compare": {
        "kind": "detector-compare",
        "seed": 0,
        "params": {
            "packet_center": -5.0,
            "packet_width": 1.0,
            "packet_momentum": 0.0,
            "t0": 0.0,
            "region": [{"x": [-0.5, 0.5], "t": [3.0, 3.2]}],
            "coupling_alpha": 0.02,
            "potential_v": 1.0,
            "readout_time": 4.2,
            "band": [3.5, 3.9],
        },
        "grid": {"x_min": -20.0, "x_max": 20.0, "nx": 512},
        "output": {"path": "detector-compare", "format": "csv"},
    },
    "epr": {
        "kind": "epr",
        "seed": 0,
        "params": {"alpha": 0.6, "beta": 0.8, "n_random_unitaries": 500},
        "output": {"path": "epr", "format": "csv"},
    },
    "realism-scenario": {
        "kind": "realism-scenario",
        "seed": 0,
        "params": {"alpha": 0.6, "beta": 0.8},
        "output": {"path": "realism-scenario", "format": "json"},
    },
    "time-reversed-zeno": {
        "kind": "time-reversed-zeno",
        "seed": 0,
        "params": {"omega": 1.0, "n_thetas": 50, "theta_max": 0.7853981633974483},
        "output": {"path": "time-reversed-zeno", "format": "csv"},
    },
    "two-point": {
        "kind": "two-point",
        "seed": 0,
        "params": {"separation": 2.0, "t1": 3.0},
        "output": {"path": "two-point", "format": "csv"},
    },
    "zeno": {
        "kind": "zeno",
        "seed": 0,
        "params": {"omega": 1.0, "epsilon": 0.05, "halvings": 4, "n_ancillas": 6},
        "output": {"path": "zeno", "format": "csv"},
    },
}

FINITE = ("chain", "zeno", "time-reversed-zeno", "epr", "realism-scenario")

# Why each workload exists; BENCHMARK.json carries the same reasons.
WORKLOADS = {
    "detector-refine": "detector-compare at refine 1: few large kernel sums",
    "two-point": "two-point at refine 0: Born double-region loop, many small kernel sums",
    "finite-suite": "chain, zeno, time-reversed-zeno, epr, realism-scenario: no kernel",
}


def _unit_complex(rng: random.Random, d: int) -> list[complex]:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


def _haar(rng: random.Random, d: int) -> list[list[complex]]:
    """Haar-random unitary: Gram-Schmidt on a complex Ginibre matrix."""
    cols: list[list[complex]] = []
    while len(cols) < d:
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
        for c in cols:
            p = sum(ci.conjugate() * vi for ci, vi in zip(c, v))
            v = [vi - p * ci for vi, ci in zip(v, c)]
        # a second pass keeps the columns orthogonal to rounding
        for c in cols:
            p = sum(ci.conjugate() * vi for ci, vi in zip(c, v))
            v = [vi - p * ci for vi, ci in zip(v, c)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in v))
        cols.append([z / norm for z in v])
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _config(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(BASE[name])
    if seed == 0:
        return cfg
    rng = random.Random(f"{name}:{seed}")
    p = cfg["params"]
    if name in ("detector-compare", "two-point"):
        p["packet_center"] = -5.0 + rng.uniform(-0.25, 0.25)
    elif name == "chain":
        d, n = rng.randint(2, 4), rng.randint(2, 4)
        p["initial"] = [_pair(z) for z in _unit_complex(rng, d)]
        p["overlaps"] = [
            [[_pair(z) for z in row] for row in _haar(rng, d)] for _ in range(n - 1)
        ]
        cfg["seed"] = rng.randrange(2**31)
    elif name in ("epr", "realism-scenario"):
        alpha, beta = _unit_complex(rng, 2)
        p["alpha"], p["beta"] = _pair(alpha), _pair(beta)
        cfg["seed"] = rng.randrange(2**31)
    elif name == "zeno":
        p["epsilon"] = rng.uniform(0.01, 0.05)
    return cfg


def generate(workload: str, seed: int) -> list[tuple[dict, int]]:
    """The (config, refine) operations of one pass of ``workload``."""
    if workload == "detector-refine":
        return [(_config("detector-compare", seed), 1)]
    if workload == "two-point":
        return [(_config("two-point", seed), 0)]
    if workload == "finite-suite":
        return [(_config(name, seed), 0) for name in FINITE]
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# output checks, with the acceptance tolerances


class CheckFailed(Exception):
    pass


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check(cfg: dict, refine: int, out_dir: Path) -> None:
    """Raise CheckFailed unless the operation's outputs meet the tolerances."""
    stem = cfg["output"]["path"]
    report = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
    rows = _csv_rows(out_dir / f"{stem}.csv")
    res, diag = report["results"], report["diagnostics"]
    kind = cfg["kind"]
    if kind == "detector-compare":
        _need(len(rows) == refine + 1, f"{refine + 1} refine levels")
        for lv, row in zip(diag["levels"], rows):
            _need(lv["born_xcheck_rel"] <= 1e-3, f"born_xcheck_rel {lv['born_xcheck_rel']}")
            dev = float(row["cqi_born_absdev"])
            _need(dev <= 1e-3, f"cqi_born_absdev {dev}")
    elif kind == "two-point":
        _need(len(rows) == refine + 1, f"{refine + 1} refine levels")
        for row in rows:
            r = float(row["ratio_rr_born"])
            _need(1.99 <= r <= 2.01, f"ratio_rr_born {r}")
    elif kind == "zeno":
        for row in rows:
            # analytically 1/2; the acceptance test allows 1e-15 of rounding below it
            r = float(row["ratio"])
            _need(0.5 <= r + 1e-15 and r <= 0.5125, f"zeno ratio {r}")
    elif kind == "time-reversed-zeno":
        _need(res["max_shift_error"] <= 1e-10, f"max_shift_error {res['max_shift_error']}")
    elif kind == "epr":
        dist = res["max_no_communication_distance"]
        cond = res["conditional_entropy_bits"]
        _need(dist <= 1e-12, f"no-communication distance {dist}")
        _need(abs(cond) <= 1e-9, f"conditional entropy {cond}")
    elif kind == "chain":
        _need(diag["entropy_monotone"] is True, "entropy_monotone")
        _need(diag["system_matches_last_observer"] is True, "system_matches_last_observer")
    elif kind == "realism-scenario":
        t1, t2 = res["slices"][1], res["slices"][2]
        _need(t1["entropy_alice_bits"] <= 1e-9, "Alice pure before she interacts")
        _need(abs(t2["conditional_entropy_bits"]) <= 1e-9, "outcomes correlated at t2")
    else:
        raise CheckFailed(f"no check for kind {kind!r}")


if __name__ == "__main__":
    import sys

    bad = [
        name
        for name in BASE
        if json.loads(Path("configs", f"{name}.json").read_text(encoding="utf-8")) != _config(name, 0)
    ]
    print("seed 0 differs from configs/ for: " + ", ".join(bad) if bad else "seed 0 matches configs/")
    sys.exit(1 if bad else 0)
