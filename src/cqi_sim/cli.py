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
import math
import sys
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__, chain, epr, hilbert, postulates, zeno
from .errors import ConfigError, InvariantViolation, NumericalValidationError
from .postulates import Rect
from .utils import complex_of, haar_unitary

_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
    ]
}

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _COMPLEX}}  # rows of entries
_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 0}
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


# --------------------------------------------------------------------------
# params specs: one frozen dataclass per kind declares its keys, their
# schemas and their defaults; a field without a default is required


def _param(schema: dict, default=MISSING):
    return field(default=default, metadata={"schema": schema})


def _schema(spec) -> dict:
    """Closed JSON schema of a spec's params; unknown keys are errors."""
    out = {"type": "object"}
    required = [f.name for f in fields(spec) if f.default is MISSING]
    if required:
        out["required"] = required
    out["properties"] = {f.name: f.metadata["schema"] for f in fields(spec)}
    out["additionalProperties"] = False
    return out


@dataclass(frozen=True, kw_only=True)
class ChainParams:
    initial: list = _param({"type": "array", "items": _COMPLEX, "minItems": 2})
    overlaps: list = _param({"type": "array", "items": _MATRIX}, ())
    explore_general_interactions: bool = _param({"type": "boolean"}, False)


@dataclass(frozen=True, kw_only=True)
class ZenoParams:
    omega: float = _param(_POSITIVE)
    epsilon: float = _param(_POSITIVE)
    halvings: int = _param({**_COUNT, "maximum": 1024}, 4)
    n_ancillas: int | None = _param({**_COUNT, "maximum": zeno.MAX_ANCILLAS}, None)


@dataclass(frozen=True, kw_only=True)
class TimeReversedZenoParams:
    omega: float = _param(_POSITIVE)
    thetas: list | None = _param({"type": "array", "items": _NUMBER}, None)
    n_thetas: int = _param({"type": "integer", "minimum": 1}, 50)
    theta_max: float = _param(_NUMBER, np.pi / 4)


@dataclass(frozen=True, kw_only=True)
class PairParams:
    """Amplitudes of the measured qubit, alpha|0> + beta|1>."""

    alpha: complex = _param(_COMPLEX)
    beta: complex = _param(_COMPLEX)


@dataclass(frozen=True, kw_only=True)
class EprParams(PairParams):
    n_random_unitaries: int = _param(_COUNT, 500)


@dataclass(frozen=True, kw_only=True)
class DetectorParams:
    """Overrides of the slab experiment's defaults; None keeps the default.  A
    subclass is a grid kind: it builds its experiment, measures one level as
    (Born detail, named values) and names the values that its outputs report."""

    packet_center: float | None = _param(_NUMBER, None)
    packet_width: float | None = _param(_POSITIVE, None)
    packet_momentum: float | None = _param(_NUMBER, None)
    t0: float | None = _param(_NUMBER, None)
    coupling_alpha: float | None = _param({"type": "number", "minimum": 0}, None)
    potential_v: float | None = _param(_NUMBER, None)
    readout_time: float | None = _param(_NUMBER, None)
    band: list | None = _param(_PAIR, None)
    columns: ClassVar[tuple[str, ...]]
    results: ClassVar[tuple[str, ...]]
    diagnostics: ClassVar[tuple[str, ...]]


@dataclass(frozen=True, kw_only=True)
class DetectorCompareParams(DetectorParams):
    region: list | None = _param(_REGION, None)
    id: str | None = _param({"type": "string"}, None)
    columns = ("experiment", "refine", "nx", "p_born", "p_rr", "p_cqi", "cqi_born_ratio",
               "cqi_born_absdev")
    results = ("p_born", "p_rr", "p_cqi", "cqi_born_ratio")
    diagnostics = ("schmidt_rank", "normalization_deficit")

    @staticmethod
    def build(**overrides) -> postulates.DetectorExperiment:
        return postulates.benchmark_experiment(**overrides)

    @staticmethod
    def measure(exp: postulates.DetectorExperiment) -> tuple[postulates.BornDetail, dict]:
        born = postulates.born_probability_detail(exp)
        cqi = postulates.cqi_probability_detail(exp)
        ratio = cqi.p_cqi / born.p_slice
        values = {"p_born": born.p_slice, "p_rr": postulates.rr_probability(exp),
                  "cqi_born_ratio": ratio, "cqi_born_absdev": abs(ratio - 1.0)}
        return born, {**vars(cqi), **values}


@dataclass(frozen=True, kw_only=True)
class TwoPointParams(DetectorParams):
    separation: float | None = _param(_NUMBER, None)
    eps_pt: float | None = _param(_POSITIVE, None)
    t1: float | None = _param(_NUMBER, None)
    columns = ("refine", "p_rr", "p_born", "p_cqi", "ratio_rr_born", "cross_rr_measured",
               "cross_rr_predicted", "cross_born", "cqi_born_ratio")
    results = ("ratio_rr_born", "cross_rr_measured", "cross_rr_predicted", "cqi_born_ratio")
    diagnostics = ("cross_born",)

    @staticmethod
    def build(**overrides) -> postulates.DetectorExperiment:
        return postulates.two_point_experiment(**overrides)

    @staticmethod
    def measure(exp: postulates.DetectorExperiment) -> tuple[postulates.BornDetail, dict]:
        rep = postulates.two_point_report(exp)
        return rep.born, vars(rep)


def _is(x, kind: str) -> bool:
    """JSON Schema's type test, but numbers must be finite: a bool is no
    number, 2.0 is an integer, NaN, ±Infinity and an int beyond the float
    range are neither."""
    if kind not in ("number", "integer"):
        return isinstance(x, {"object": dict, "array": list, "string": str, "boolean": bool}[kind])
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    if isinstance(x, int):
        return abs(x) <= sys.float_info.max
    return math.isfinite(x) and (kind == "number" or x.is_integer())


_BOUNDS = {  # keyword -> the test an instance of the keyword's type must pass
    "enum": lambda x, v: x in v,
    "minItems": lambda x, v: len(x) >= v,
    "maxItems": lambda x, v: len(x) <= v,
    "minimum": lambda x, v: x >= v,
    "maximum": lambda x, v: x <= v,
    "exclusiveMinimum": lambda x, v: x > v,
}
_Error = namedtuple("_Error", "path keyword message context mismatch")


def _errors(x, schema: dict, path: tuple = ()):
    """Yield an _Error per keyword of ``schema`` that ``x`` fails, in
    jsonschema's order.  ``context`` holds a failed oneOf's branch errors,
    additionalProperties' message is the sorted unknown keys, and
    ``mismatch`` is true unless ``x`` matches the failing schema's type."""
    kind = schema.get("type")
    if kind is not None and not _is(x, kind):
        what = f"a finite {kind}" if kind in ("number", "integer") else f"of type {kind!r}"
        yield _Error(path, "type", f"{x!r} is not {what}", [], True)
        return
    for key, value in schema.items():
        if key == "properties":
            for name, sub in value.items():
                if name in x:
                    yield from _errors(x[name], sub, path + (name,))
        elif key == "items":
            for i, item in enumerate(x):
                yield from _errors(item, value, path + (i,))
        elif key == "required":
            for name in value:
                if name not in x:
                    yield _Error(path, key, f"{name!r} is a required property", [], kind is None)
        elif key == "additionalProperties":
            if extra := set(x).difference(schema.get("properties", {})):
                yield _Error(path, key, sorted(extra), [], kind is None)
        elif key == "oneOf":
            branches = [list(_errors(x, sub, path)) for sub in value]
            if sum(not b for b in branches) != 1:
                context = sum(branches, []) if all(branches) else []
                msg = f"{x!r} is not valid under exactly one of {value}"
                yield _Error(path, key, msg, context, kind is None)
        elif key in _BOUNDS and not _BOUNDS[key](x, value):
            yield _Error(path, key, f"{x!r} fails {key} {value!r}", [], kind is None)


def _best_error(instance, schema: dict):
    """The _Error that ``jsonschema.exceptions.best_match`` names, or None."""

    def rank(e):  # best_match's relevance: shallow, later sibling, not oneOf, mismatch
        return -len(e.path), e.path, e.keyword != "oneOf", e.mismatch

    err = max(_errors(instance, schema), key=rank, default=None)
    while err is not None and err.context:  # into the most specific branch error, unless two tie
        best, *rest = sorted(err.context, key=rank)[:2]
        if rest and rank(best) == rank(rest[0]):
            break
        err = best
    return err


def _validate(instance, schema: dict, prefix: str = "") -> None:
    """Validate against one of this module's schemas; the ConfigError names the field.

    Covers the JSON Schema 2020-12 keywords these schemas use, each but enum
    (of strings) and oneOf beside the type it constrains: type, enum,
    required, properties, additionalProperties (false), items (one schema),
    minItems, maxItems, minimum, maximum, exclusiveMinimum, oneOf.  Stricter
    than JSON Schema in one rule: numbers must be finite, as RFC 8259 requires
    of JSON, and an integer must lie within the float range.
    """
    err = _best_error(instance, schema)
    if err is None:
        return
    names = [prefix] * bool(prefix) + [str(p) for p in err.path]
    if err.keyword == "additionalProperties":
        unknown = (".".join(names + [key]) for key in err.message)
        raise ConfigError(", ".join(unknown) + ": unknown field")
    raise ConfigError(f"{'.'.join(names) or '(top level)'}: {err.message}")


def _check_grid(kind: str, grid: dict) -> None:
    """A grid only for the grid kinds, with x_max above x_min (a side the
    config leaves out takes the experiment's default)."""
    if not issubclass(KINDS[kind].spec, DetectorParams):
        raise ConfigError(f"grid: kind {kind!r} has no grid")
    x_min = grid.get("x_min", postulates.DetectorExperiment.x_min)
    x_max = grid.get("x_max", postulates.DetectorExperiment.x_max)
    if x_max <= x_min:
        raise ConfigError(f"grid.x_max: {x_max} must exceed x_min {x_min}")


def _check_geometry(cfg: ExperimentConfig) -> postulates.DetectorExperiment:
    """The refine-0 detector experiment of ``cfg``, after its own checks, each
    ConfigError naming the field at fault: no empty or reversed rectangle side,
    no overlapping rectangles (every route would count the common part twice; a
    shared edge is fine), the region after t0 (two-point: t1) and before the
    readout and the band, a nonzero coupling and potential (else p_cqi / p_born
    is 0 / 0), and the region on the x grid.  The last keeps the region where the
    output's grid says; no route is known to need it: the Born routes read no grid,
    and the covariant route restates S(k) on the period nx dx (slabs at x in
    [19.5, 20.5] and [25, 26] give p_cqi within 2.7e-9 of dr / (1 + dr))."""
    two_point, params = cfg.kind == "two-point", cfg.params
    if "region" in params:
        boxes = [(*sorted(r["x"]), *sorted(r["t"])) for r in params["region"]]
        if pair := postulates.overlapping_pair(boxes):
            raise ConfigError("params.region.{1}: overlaps params.region.{0}".format(*pair))
        for i, r in enumerate(params["region"]):
            try:
                Rect(*r["x"], *r["t"])
            except NumericalValidationError as err:
                raise ConfigError(f"params.region.{i}.{err.field}: {err}") from None
    try:
        exp = cfg.spec.build(**_detector_overrides(cfg))
    except NumericalValidationError as err:
        if two_point and err.field == "region":  # the one check the square geometry can fail
            raise ConfigError(f"params.separation: {err}: 2 |separation| < eps_pt") from None
        name = "t1" if two_point and err.field == "t0" else err.field
        raise ConfigError(f"params.{name}: {err}") from None
    for name in ("coupling_alpha", "potential_v"):
        if getattr(exp, name) == 0:
            raise ConfigError(f"params.{name}: must be nonzero, else nothing can activate")
    placed_by = "region.{}.x" if "region" in params else "separation" if two_point else "region"
    for i, r in enumerate(exp.region):
        if r.x_lo < exp.x_min or r.x_hi > exp.x_max:
            x, grid = [r.x_lo, r.x_hi], [exp.x_min, exp.x_max]
            name = "params." + placed_by.format(i)
            raise ConfigError(f"{name}: region x {x} leaves the x grid {grid}")
    return exp


def _check_params(kind: str, params: dict) -> None:
    """What the params schemas leave out: every chain overlap a d x d matrix, d the number
    of initial amplitudes, and no n_thetas or theta_max beside the thetas they would set."""
    if kind == "chain":
        d = len(params["initial"])
        for n, u in enumerate(params.get("overlaps", [])):
            if (rows := [len(row) for row in u]) != [d] * d:
                msg = f"row lengths {rows}, expected {d} rows of {d}"
                raise ConfigError(f"params.overlaps.{n}: {msg}")
    if kind == "time-reversed-zeno" and "thetas" in params:
        if keys := [key for key in ("n_thetas", "theta_max") if key in params]:
            raise ConfigError(f"params.{keys[0]}: unused, as params.thetas lists the angles")


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
        if "grid" in data:
            _check_grid(data["kind"], data["grid"])
        _check_params(data["kind"], data.get("params", {}))
        cfg = cls(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            grid=dict(data.get("grid", {})),
            seed=int(data.get("seed", 0)),
            output=dict(data.get("output", {})),
        )
        cfg.experiment, cfg.model  # a grid kind's geometry, a finite kind's model: checked at load
        return cfg

    def resolved(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def spec(self):
        """The params as the kind's typed spec, defaults filled in; built once."""
        return KINDS[self.kind].spec(**self.params)

    @cached_property
    def experiment(self) -> postulates.DetectorExperiment | None:
        """A grid kind's refine-0 detector experiment, checked; None for the others."""
        return _check_geometry(self) if isinstance(self.spec, DetectorParams) else None

    @cached_property
    def model(self) -> chain.ChainSpec | epr.EprConfig | None:
        """Chain's ChainSpec or a pair kind's EprConfig, checked; None for the others."""
        p = self.spec
        if isinstance(p, ChainParams):
            return chain.spec_from_dict({"initial": p.initial, "overlaps": p.overlaps})
        if isinstance(p, PairParams):
            return epr.EprConfig(complex_of(p.alpha), complex_of(p.beta))
        return None


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


# --------------------------------------------------------------------------
# experiment drivers; each returns (column names, rows, results, diagnostics)


def _run_chain(cfg: ExperimentConfig, refine: int):
    p, spec = cfg.spec, cfg.model
    result = chain.run_chain(spec)
    rows = []
    for n, (dist, s) in enumerate(zip(result.distributions, result.entropies)):
        for outcome, prob in enumerate(dist.probs):
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
    if p.explore_general_interactions:
        diagnostics["general_interaction_probe"] = chain.general_interaction_probe(cfg.seed)
    results = {"entropies_bits": ents, "system_entropy_bits": s_q}
    return ["observer", "outcome", "probability", "entropy_bits"], rows, results, diagnostics


def _detector_overrides(cfg: ExperimentConfig) -> dict:
    """Experiment-builder keywords: every set field of the spec but ``id``, and the grid."""
    spec = cfg.spec
    over = {}
    for key in (f.name for f in fields(spec) if getattr(spec, f.name) is not None):
        v = getattr(spec, key)
        if key == "band":
            over[key] = tuple(float(b) for b in v)
        elif key == "region":
            over[key] = tuple(Rect(*(float(a) for a in r["x"] + r["t"])) for r in v)
        elif key != "id":
            over[key] = float(v)
    over.update((key, int(v) if key == "nx" else float(v)) for key, v in cfg.grid.items())
    return over


def _run_detector(cfg: ExperimentConfig, refine: int):
    """Either grid kind: one row, and one ``levels`` entry, per refine level of
    ``cfg.experiment``; the spec names the columns and the reported values."""
    spec = cfg.spec
    rows, levels = [], []
    exp_id = getattr(spec, "id", None)
    exp_id = cfg.output.get("path", cfg.kind) if exp_id is None else exp_id
    for level in range(refine + 1):
        exp = cfg.experiment.refined(level)
        born, values = spec.measure(exp)
        values = {"experiment": exp_id, "refine": level, "nx": exp.nx, **values}
        p_dr = born.p_double_region / (1.0 + born.p_double_region)  # p_cqi, by Parseval
        cqi_rel = values["p_cqi"] / p_dr - 1.0
        if abs(cqi_rel) > exp.xcheck_tol:
            raise NumericalValidationError(
                f"covariant cross-check failed at refine level {level}: p_cqi {values['p_cqi']:.6g}"
                f" and dr / (1 + dr) {p_dr:.6g} differ by {cqi_rel:.3g} (tolerance {exp.xcheck_tol})"
            )
        rows.append([values[key] for key in spec.columns])
        levels.append(
            {
                **{key: values[key] for key in ("refine", *spec.diagnostics)},
                "born_xcheck_rel": born.rel_diff,
                "cqi_xcheck_rel": cqi_rel,
                "perturbation_ratio": exp.validate_perturbative(),
                "born_double_region": born.p_double_region,
                "readout_edge_rel": born.readout_edge_rel,
                "readout_points": born.readout_points,
                "resolution": asdict(exp.resolution),
            }
        )
    results = {key: values[key] for key in spec.results}
    return list(spec.columns), rows, results, {"levels": levels}


def _run_zeno(cfg: ExperimentConfig, refine: int):
    p = cfg.spec
    omega = float(p.omega)
    eps0 = float(p.epsilon)
    eps = np.ldexp(eps0, -np.arange(int(p.halvings) + 1))  # eps0 / 2**k, exactly
    p_plain, p_zeno = zeno.zeno_pair(zeno.ZenoConfig(omega=omega, epsilon=eps))
    # below the smallest normal float the probabilities lose precision and the ratio drifts
    if (low := np.flatnonzero(np.minimum(p_plain, p_zeno) < np.finfo(float).tiny)).size:
        k = int(low[0])
        raise NumericalValidationError(
            f"zeno ladder underflows at halving k = {k} (epsilon = {eps[k]:.3g}): p_without "
            f"{p_plain[k]:.3g} or p_with {p_zeno[k]:.3g} is below the smallest normal float"
        )
    rows = np.stack([eps, p_plain, p_zeno, p_zeno / p_plain], axis=-1).tolist()
    cancel = zeno.zeno_cancellation(zeno.ZenoConfig(omega=omega, epsilon=eps0))
    diagnostics = {"cancellation_trace_distance": cancel}
    if p.n_ancillas is not None:
        top = int(p.n_ancillas)
        # n = 0 and 1 are the ladder's k = 0 row, bit for bit; n_ancillas 0 keeps only n = 0
        probs = [rows[0][1], rows[0][2]] + [
            zeno.iterated_zeno(zeno.ZenoConfig(omega, eps0, n_ancillas=n))
            for n in range(2, top + 1)
        ]
        diagnostics["iterated"] = [
            {"n_ancillas": n, "p_transition": q} for n, q in enumerate(probs[: top + 1])
        ]
    results = {"ratio_at_epsilon": rows[0][3]}
    return ["epsilon", "p_without", "p_with", "ratio"], rows, results, diagnostics


def _run_time_reversed_zeno(cfg: ExperimentConfig, refine: int):
    p = cfg.spec
    omega = float(p.omega)
    if p.thetas is not None:
        thetas = [float(v) for v in p.thetas]
    else:
        tmax = float(p.theta_max)
        thetas = list(np.linspace(-tmax, tmax, int(p.n_thetas)))
    res = zeno.time_reversed_zeno(
        zeno.ZenoConfig(omega=omega, epsilon=1e-3, theta=np.array(thetas))
    )
    rows = [[th, dt] for th, dt in zip(thetas, res.delta_t.tolist())]
    worst = max([abs(dt - th / omega) for th, dt in rows], default=0.0)
    results = {"max_shift_error": worst}
    return ["theta", "delta_t"], rows, results, {"max_shift_error": worst}


def _run_epr(cfg: ExperimentConfig, refine: int):
    config = cfg.model
    alpha, beta = config.alpha, config.beta
    rho_a, rho_b, rho_ab = epr.epr_reduced(config)
    n_rand = int(cfg.spec.n_random_unitaries)
    us = haar_unitary(np.random.default_rng(cfg.seed), 2, (n_rand,))
    worst = float(np.max(epr.no_communication_check(epr.EprConfig(alpha, beta, us)), initial=0.0))
    rows = [
        ["entropy_alice_bits", hilbert.von_neumann_entropy(rho_a)],
        ["entropy_bob_bits", hilbert.von_neumann_entropy(rho_b)],
        ["entropy_joint_bits", hilbert.von_neumann_entropy(rho_ab)],
        ["conditional_entropy_bits", hilbert.conditional_entropy(rho_ab)],
        ["mutual_information_bits", hilbert.mutual_information(rho_ab)],
        ["max_no_communication_distance", worst],
    ]
    results = {name: val for name, val in rows}
    return ["quantity", "value"], rows, results, {"n_random_unitaries": n_rand}


def _run_realism(cfg: ExperimentConfig, refine: int):
    report = epr.realism_scenario(cfg.model.alpha, cfg.model.beta)
    cols = ["slice", "entropy_alice_bits", "entropy_bob_bits", "conditional_entropy_bits"]
    rows = [[s[c] for c in cols] for s in report["slices"]]
    results = {"slices": report["slices"]}
    return cols, rows, results, {}


# a kind whose spec is a DetectorParams sits on an x grid, and only it takes "grid" and --refine
Kind = namedtuple("Kind", "description spec driver")
KINDS = {
    "chain": Kind("sequential measurement chain: observer states, entropies, effective collapse",
                  ChainParams, _run_chain),
    "detector-compare": Kind("slab detector: born vs overlap-rule vs covariant probabilities",
                             DetectorCompareParams, _run_detector),
    "two-point": Kind("two-point region counterexample: interference bookkeeping",
                      TwoPointParams, _run_detector),
    "zeno": Kind("entangling-interaction slowdown of a precessing qubit", ZenoParams, _run_zeno),
    "time-reversed-zeno": Kind("disentangling advance: shift of the evolution clock",
                               TimeReversedZenoParams, _run_time_reversed_zeno),
    "epr": Kind("entangled pair with observers: correlations and no-communication check",
                EprParams, _run_epr),
    "realism-scenario": Kind("observer-observed sequence analyzed on three time slices",
                             PairParams, _run_realism),
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
    "additionalProperties": False,
}
_PARAM_SCHEMAS = {kind: _schema(k.spec) for kind, k in KINDS.items()}


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
    if refine and cfg.experiment is None:
        raise ConfigError(f"--refine {refine}: kind {cfg.kind!r} has no grid to refine")
    columns, rows, results, diagnostics = KINDS[cfg.kind].driver(cfg, refine)
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
                print(f"{kind}: {KINDS[kind].description}")
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
