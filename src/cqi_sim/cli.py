"""Config-driven experiment runner.

Usage:
    cqi-sim run <config.json> [--refine k] [--out dir]
    cqi-sim list-experiments
    cqi-sim validate <config.json>

Each run writes a CSV data file and a JSON report next to each other.
The CSV starts with a ``#``-prefixed header block (tool version,
resolved configuration, timestamp) followed by an RFC-4180 table; runs
with identical configuration and seed produce byte-identical payloads
apart from the timestamp line.  Exit codes: 0 success, 1 configuration
error, 2 numerical validation failure, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, chain, epr, hilbert, postulates, zeno
from .errors import ConfigError, InvariantViolation, NumericalValidationError
from .postulates import Rect
from .utils import haar_unitary

KINDS = {
    "chain": "sequential measurement chain: observer states, entropies, effective collapse",
    "detector-compare": "slab detector: born vs overlap-rule vs covariant probabilities",
    "two-point": "two-point region counterexample: interference bookkeeping",
    "zeno": "entangling-interaction slowdown of a precessing qubit",
    "time-reversed-zeno": "disentangling advance: shift of the evolution clock",
    "epr": "entangled pair with observers: correlations and no-communication check",
    "realism-scenario": "observer-observed sequence analyzed on three time slices",
}

_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
    ]
}

_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": sorted(KINDS)},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
        "grid": {
            "type": "object",
            "properties": {
                "x_min": {"type": "number"},
                "x_max": {"type": "number"},
                "nx": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
            "additionalProperties": False,
        },
    },
}

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

# scalar parameters that _detector_overrides reads for both detector kinds
_DETECTOR_FLOATS = (
    "packet_center",
    "packet_width",
    "packet_momentum",
    "t0",
    "coupling_alpha",
    "potential_v",
    "readout_time",
)
_DETECTOR = {**dict.fromkeys(_DETECTOR_FLOATS, {"type": "number"}), "band": _PAIR}

_REGION = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "required": ["x", "t"],
        "properties": {"x": _PAIR, "t": _PAIR},
        "additionalProperties": False,
    },
}

_PARAM_SCHEMAS = {
    "chain": {
        "type": "object",
        "required": ["initial"],
        "properties": {
            "initial": {"type": "array", "items": _COMPLEX, "minItems": 2},
            "overlaps": {"type": "array"},
            "explore_general_interactions": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "zeno": {
        "type": "object",
        "required": ["omega", "epsilon"],
        "properties": {
            "omega": {"type": "number", "exclusiveMinimum": 0},
            "epsilon": {"type": "number", "exclusiveMinimum": 0},
            "halvings": {"type": "integer", "minimum": 0},
            "n_ancillas": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "time-reversed-zeno": {
        "type": "object",
        "required": ["omega"],
        "properties": {
            "omega": {"type": "number", "exclusiveMinimum": 0},
            "thetas": {"type": "array", "items": {"type": "number"}},
            "n_thetas": {"type": "integer", "minimum": 1},
            "theta_max": {"type": "number"},
        },
        "additionalProperties": False,
    },
    "epr": {
        "type": "object",
        "required": ["alpha", "beta"],
        "properties": {
            "alpha": _COMPLEX,
            "beta": _COMPLEX,
            "n_random_unitaries": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "realism-scenario": {
        "type": "object",
        "required": ["alpha", "beta"],
        "properties": {"alpha": _COMPLEX, "beta": _COMPLEX},
        "additionalProperties": False,
    },
    "detector-compare": {
        "type": "object",
        "properties": {**_DETECTOR, "region": _REGION, "id": {"type": "string"}},
        "additionalProperties": False,
    },
    "two-point": {
        "type": "object",
        "properties": {
            **_DETECTOR,
            "separation": {"type": "number"},
            "eps_pt": {"type": "number", "exclusiveMinimum": 0},
            "t1": {"type": "number"},
        },
        "additionalProperties": False,
    },
}


def _validate(instance, schema: dict, prefix: str = "") -> None:
    """Validate against one of the schemas above; the ConfigError names the field.

    ``jsonschema.validate`` would also check the constant schema against
    its metaschema on every call (about 4 ms); the tests check it once.
    """
    err = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(instance)
    )
    if err is None:
        return
    path = [prefix] if prefix else []
    path += [str(p) for p in err.absolute_path]
    if err.validator == "additionalProperties":
        extra = sorted(set(err.instance) - set(err.schema.get("properties", {})))
        raise ConfigError(", ".join(".".join(path + [key]) for key in extra) + ": unknown field")
    raise ConfigError(f"{'.'.join(path) or '(top level)'}: {err.message}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    seed: int = 0
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _validate(data, _SCHEMA)
        _validate(data.get("params", {}), _PARAM_SCHEMAS[data["kind"]], "params")
        return cls(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            grid=dict(data.get("grid", {})),
            seed=int(data.get("seed", 0)),
            output=dict(data.get("output", {})),
        )

    def resolved(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "grid": self.grid,
            "seed": self.seed,
            "output": self.output,
        }


def _complex_of(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


# --------------------------------------------------------------------------
# experiment drivers; each returns (column names, rows, results, diagnostics)


def _run_chain(cfg: ExperimentConfig, refine: int):
    p = cfg.params
    spec = chain.spec_from_dict({"initial": p["initial"], "overlaps": p.get("overlaps", [])})
    result = chain.run_chain(spec)
    rows = []
    for n, (dist, s) in enumerate(zip(result.distributions, result.entropies)):
        for outcome, prob in zip(dist.labels, dist.probs):
            rows.append([n + 1, outcome, prob, s])
    s_q = chain.system_entropy(result)
    ents = list(result.entropies)
    if any(ents[i + 1] < ents[i] - 1e-9 for i in range(len(ents) - 1)):
        raise InvariantViolation("observer entropy sequence is not nondecreasing")
    diagnostics = {
        "system_entropy_bits": s_q,
        "entropy_monotone": True,
        "system_matches_last_observer": bool(abs(s_q - ents[-1]) <= 1e-9),
    }
    if spec.n_observers >= 2:
        diagnostics["second_observer_unmeasured_probs"] = list(
            map(float, chain.unmeasured_comparison(spec).probs)
        )
    if p.get("explore_general_interactions"):
        diagnostics["general_interaction_probe"] = chain.general_interaction_probe(cfg.seed)
    results = {"entropies_bits": ents, "system_entropy_bits": s_q}
    return ["observer", "outcome", "probability", "entropy_bits"], rows, results, diagnostics


def _detector_overrides(cfg: ExperimentConfig) -> dict:
    p = dict(cfg.params)
    over = {}
    for key in _DETECTOR_FLOATS:
        if key in p:
            over[key] = float(p[key])
    if "band" in p:
        over["band"] = tuple(float(v) for v in p["band"])
    if "region" in p:
        over["region"] = tuple(
            Rect(float(r["x"][0]), float(r["x"][1]), float(r["t"][0]), float(r["t"][1]))
            for r in p["region"]
        )
    for key in ("x_min", "x_max"):
        if key in cfg.grid:
            over[key] = float(cfg.grid[key])
    if "nx" in cfg.grid:
        over["nx"] = int(cfg.grid["nx"])
    return over


def _run_detector_compare(cfg: ExperimentConfig, refine: int):
    over = _detector_overrides(cfg)
    exp_id = cfg.params.get("id", cfg.output.get("path", cfg.kind))
    rows = []
    diagnostics = {"levels": []}
    for level in range(refine + 1):
        exp = postulates.benchmark_experiment(refine=level, **over)
        detail = postulates.born_probability_detail(exp)
        if detail.rel_diff > exp.xcheck_tol:
            raise NumericalValidationError(
                f"born cross-check failed at refine level {level}: {detail.rel_diff:.3g}"
            )
        cqi = postulates.cqi_probability_detail(exp)
        p_rr = postulates.rr_probability(exp)
        ratio = cqi.p_cqi / detail.p_slice
        rows.append(
            [exp_id, level, exp.nx, detail.p_slice, p_rr, cqi.p_cqi, ratio, abs(ratio - 1.0)]
        )
        diagnostics["levels"].append(
            {
                "refine": level,
                "born_xcheck_rel": detail.rel_diff,
                "born_double_region": detail.p_double_region,
                "schmidt_rank": cqi.schmidt_rank,
                "normalization_deficit": cqi.normalization_deficit,
                "physical_norm_route": cqi.p_physical_norm,
            }
        )
    last = rows[-1]
    results = {
        "p_born": last[3],
        "p_rr": last[4],
        "p_cqi": last[5],
        "cqi_born_ratio": last[6],
    }
    cols = [
        "experiment",
        "refine",
        "nx",
        "p_born",
        "p_rr",
        "p_cqi",
        "cqi_born_ratio",
        "cqi_born_absdev",
    ]
    return cols, rows, results, diagnostics


def _run_two_point(cfg: ExperimentConfig, refine: int):
    p = cfg.params
    kwargs = {}
    for key in ("separation", "eps_pt", "t1"):
        if key in p:
            kwargs[key] = float(p[key])
    over = _detector_overrides(cfg)
    over.pop("region", None)
    rows = []
    diagnostics = {"levels": []}
    for level in range(refine + 1):
        exp = postulates.two_point_experiment(refine=level, **kwargs, **over)
        rep = postulates.two_point_report(exp)
        rows.append(
            [
                level,
                rep.p_rr,
                rep.p_born,
                rep.p_cqi,
                rep.ratio_rr_born,
                rep.cross_rr_measured,
                rep.cross_rr_predicted,
                rep.cross_born,
                rep.cqi_born_ratio,
            ]
        )
        diagnostics["levels"].append({"refine": level, "cross_born": rep.cross_born})
    last = rows[-1]
    results = {
        "ratio_rr_born": last[4],
        "cross_rr_measured": last[5],
        "cross_rr_predicted": last[6],
        "cqi_born_ratio": last[8],
    }
    cols = [
        "refine",
        "p_rr",
        "p_born",
        "p_cqi",
        "ratio_rr_born",
        "cross_rr_measured",
        "cross_rr_predicted",
        "cross_born",
        "cqi_born_ratio",
    ]
    return cols, rows, results, diagnostics


def _run_zeno(cfg: ExperimentConfig, refine: int):
    p = cfg.params
    omega = float(p["omega"])
    eps0 = float(p["epsilon"])
    halvings = int(p.get("halvings", 4))
    rows = []
    for k in range(halvings + 1):
        eps = eps0 / 2**k
        z = zeno.ZenoConfig(omega=omega, epsilon=eps)
        p_plain, p_zeno = zeno.zeno_pair(z)
        rows.append([eps, p_plain, p_zeno, p_zeno / p_plain if p_plain else 0.0])
    cancel = zeno.zeno_cancellation(zeno.ZenoConfig(omega=omega, epsilon=eps0))
    diagnostics = {"cancellation_trace_distance": cancel}
    if "n_ancillas" in p:
        ns = range(int(p["n_ancillas"]) + 1)
        diagnostics["iterated"] = [
            {
                "n_ancillas": n,
                "p_transition": zeno.iterated_zeno(
                    zeno.ZenoConfig(omega=omega, epsilon=eps0, n_ancillas=n)
                ),
            }
            for n in ns
        ]
    results = {"ratio_at_epsilon": rows[0][3]}
    return ["epsilon", "p_without", "p_with", "ratio"], rows, results, diagnostics


def _run_time_reversed_zeno(cfg: ExperimentConfig, refine: int):
    p = cfg.params
    omega = float(p["omega"])
    if "thetas" in p:
        thetas = [float(v) for v in p["thetas"]]
    else:
        n = int(p.get("n_thetas", 50))
        tmax = float(p.get("theta_max", np.pi / 4))
        thetas = list(np.linspace(-tmax, tmax, n))
    rows = []
    for th in thetas:
        res = zeno.time_reversed_zeno(zeno.ZenoConfig(omega=omega, epsilon=1e-3, theta=th))
        rows.append([th, res.delta_t])
    worst = max([abs(dt - th / omega) for th, dt in rows], default=0.0)
    results = {"max_shift_error": worst}
    return ["theta", "delta_t"], rows, results, {"max_shift_error": worst}


def _run_epr(cfg: ExperimentConfig, refine: int):
    p = cfg.params
    alpha = _complex_of(p["alpha"])
    beta = _complex_of(p["beta"])
    config = epr.EprConfig(alpha, beta)
    rho_a, rho_b, rho_ab = epr.epr_reduced(config)
    s_a = hilbert.von_neumann_entropy(rho_a)
    s_b = hilbert.von_neumann_entropy(rho_b)
    s_ab = hilbert.von_neumann_entropy(rho_ab)
    cond = hilbert.conditional_entropy(rho_ab)
    mut = hilbert.mutual_information(rho_ab)
    n_rand = int(p.get("n_random_unitaries", 500))
    us = haar_unitary(np.random.default_rng(cfg.seed), 2, (n_rand,))
    worst = float(np.max(epr.no_communication_check(epr.EprConfig(alpha, beta, us)), initial=0.0))
    rows = [
        ["entropy_alice_bits", s_a],
        ["entropy_bob_bits", s_b],
        ["entropy_joint_bits", s_ab],
        ["conditional_entropy_bits", cond],
        ["mutual_information_bits", mut],
        ["max_no_communication_distance", worst],
    ]
    results = {name: val for name, val in rows}
    return ["quantity", "value"], rows, results, {"n_random_unitaries": n_rand}


def realism_scenario(alpha: complex, beta: complex) -> dict:
    """Observer-observed sequence from one global state, on three slices.

    Bob measures the system at t1 while Alice waits; Alice learns the
    outcome at t2.  On the t1 slice Alice's reduced state is still pure
    while Bob's is already the outcome mixture; on the t2 slice both are
    mixed but perfectly correlated (zero conditional entropy).
    """
    a, b = complex(alpha), complex(beta)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-10:
        raise NumericalValidationError("alpha, beta must satisfy |a|^2+|b|^2 = 1")
    ready = np.zeros(2, dtype=complex)
    ready[0] = 1.0
    q = np.array([a, b])

    # t0: nothing measured yet
    psi_t0 = hilbert.Ket(np.kron(np.kron(q, ready), ready), (2, 2, 2))  # (Q, B, A)
    # t1: Bob's copy interaction
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0, 0, 0] = a
    v[1, 1, 0] = b
    psi_t1 = hilbert.Ket(v.reshape(-1), (2, 2, 2))
    # t2: Alice correlates with Bob
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0, 0, 0] = a
    v[1, 1, 1] = b
    psi_t2 = hilbert.Ket(v.reshape(-1), (2, 2, 2))

    report = {"slices": []}
    for label, ket in (("t0", psi_t0), ("t1", psi_t1), ("t2", psi_t2)):
        rho_b = hilbert.reduced_state(ket, {1})
        rho_a = hilbert.reduced_state(ket, {2})
        rho_ab = hilbert.reduced_state(ket, {1, 2})
        report["slices"].append(
            {
                "slice": label,
                "entropy_alice_bits": hilbert.von_neumann_entropy(rho_a),
                "entropy_bob_bits": hilbert.von_neumann_entropy(rho_b),
                "conditional_entropy_bits": hilbert.conditional_entropy(rho_ab, 0),
            }
        )
    t1 = report["slices"][1]
    t2 = report["slices"][2]
    if t1["entropy_alice_bits"] > 1e-9:
        raise InvariantViolation("Alice's state is not pure before she interacts")
    if abs(t2["conditional_entropy_bits"]) > 1e-9:
        raise InvariantViolation("outcomes at t2 are not perfectly correlated")
    return report


def _run_realism(cfg: ExperimentConfig, refine: int):
    p = cfg.params
    report = realism_scenario(_complex_of(p["alpha"]), _complex_of(p["beta"]))
    cols = ["slice", "entropy_alice_bits", "entropy_bob_bits", "conditional_entropy_bits"]
    rows = [[s[c] for c in cols] for s in report["slices"]]
    results = {"slices": report["slices"]}
    return cols, rows, results, {}


_RUNNERS = {
    "chain": _run_chain,
    "detector-compare": _run_detector_compare,
    "two-point": _run_two_point,
    "zeno": _run_zeno,
    "time-reversed-zeno": _run_time_reversed_zeno,
    "epr": _run_epr,
    "realism-scenario": _run_realism,
}


# --------------------------------------------------------------------------
# output files


def _write_outputs(cfg, out_dir: Path, columns, rows, results, diagnostics) -> list[Path]:
    stem = cfg.output.get("path", cfg.kind)
    out_dir.mkdir(parents=True, exist_ok=True)
    timestamp = datetime.now(timezone.utc).isoformat()
    resolved = json.dumps(cfg.resolved(), sort_keys=True)

    csv_path = out_dir / f"{stem}.csv"
    buf = io.StringIO()
    buf.write(f"# tool: cqi-sim {__version__}\n")
    buf.write(f"# config: {resolved}\n")
    buf.write(f"# timestamp: {timestamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    csv_path.write_text(buf.getvalue(), encoding="utf-8")

    json_path = out_dir / f"{stem}.json"
    report = {
        "tool": "cqi-sim",
        "version": __version__,
        "timestamp": timestamp,
        "config": cfg.resolved(),
        "results": results,
        "diagnostics": diagnostics,
    }
    json_path.write_text(
        json.dumps(report, indent=2, sort_keys=True, default=float) + "\n",
        encoding="utf-8",
    )
    return [csv_path, json_path]


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return ExperimentConfig.from_dict(data)


def run(config_path: str | Path, refine: int = 0, out_dir: str | Path = ".") -> list[Path]:
    """Execute a config file; returns the written output paths."""
    cfg = load_config(config_path)
    if refine < 0:
        raise ConfigError(f"--refine {refine}: must be nonnegative")
    if refine and cfg.kind not in ("detector-compare", "two-point"):
        raise ConfigError(f"--refine {refine}: kind {cfg.kind!r} has no grid to refine")
    columns, rows, results, diagnostics = _RUNNERS[cfg.kind](cfg, refine)
    return _write_outputs(cfg, Path(out_dir), columns, rows, results, diagnostics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cqi-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--refine", type=int, default=0, metavar="k",
                       help="double grid resolution k times and append convergence rows")
    p_run.add_argument("--out", default=".", metavar="dir", help="output directory")
    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    sub.add_parser("list-experiments", help="print the known experiment kinds")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-experiments":
            for kind in sorted(KINDS):
                print(f"{kind}: {KINDS[kind]}")
            return 0
        if args.command == "validate":
            cfg = load_config(args.config)
            print(f"OK: {args.config} ({cfg.kind})")
            return 0
        paths = run(args.config, refine=args.refine, out_dir=args.out)
        for p in paths:
            print(p)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except NumericalValidationError as err:
        print(f"numerical validation failure: {err}", file=sys.stderr)
        return 2
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
