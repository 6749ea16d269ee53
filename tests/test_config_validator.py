"""The CLI's in-tree config validator against jsonschema, its oracle.

Both must accept or reject each config alike and name the same field
with the same keyword, over the committed configs, the benchmark's
generated configs and a corpus of mutated invalid configs.  Non-finite
numbers are the one intended disagreement: JSON (RFC 8259) has none, so
the CLI rejects the NaN and Infinity that Python's json reads, and an
integer beyond the float range, while JSON Schema accepts them as numbers.
"""

import copy
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

from cqi_sim import cli

from oracles import jsonschema_best_match

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_workloads() -> types.ModuleType:
    """The benchmark's config generator, executed from its source (no
    bytecode is written next to it)."""
    mod = types.ModuleType("perfbench_workloads")
    mod.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


def verdicts(cfg):
    """(oracle, in-tree) best errors for each schema ``from_dict`` checks:
    the top level, then, if that passes, the kind's params."""
    out = [(jsonschema_best_match(cfg, cli._SCHEMA), cli._best_error(cfg, cli._SCHEMA))]
    if out[0] == (None, None):
        params, schema = cfg.get("params", {}), cli._PARAM_SCHEMAS[cfg["kind"]]
        out.append((jsonschema_best_match(params, schema), cli._best_error(params, schema)))
    return [(want, got and (got.path, got.keyword)) for want, got in out]


def assert_agree(cfg):
    for want, got in verdicts(cfg):
        assert got == want, json.dumps(cfg)


BENCH = load_workloads()
BENCH_CONFIGS = [BENCH._config(name, seed) for name in sorted(BENCH.BASE) for seed in range(10)]


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_committed_configs_valid_for_both(path):
    cfg = json.loads(path.read_text(encoding="utf-8"))
    assert verdicts(cfg) == [(None, None), (None, None)]


def test_benchmark_configs_valid_for_both():
    assert len(BENCH_CONFIGS) == 70
    for cfg in BENCH_CONFIGS:
        assert verdicts(cfg) == [(None, None), (None, None)], json.dumps(cfg)


# --------------------------------------------------------------------------
# invalid configs

# configs whose errors compete, with the field best_match names; each rule
# of its ranking decides one of them
RANKED = [
    # among sibling paths the later index wins
    (
        {"kind": "detector-compare", "params": {"region": [{"x": [0, 1], "t": [3.0]}, {"x": [0], "t": [3, 4]}]}},
        "params.region.1.x",
    ),
    # a failed oneOf descends to its most specific branch error
    ({"kind": "epr", "params": {"alpha": [1, "x"], "beta": 0.8}}, "params.alpha.1"),
    ({"kind": "chain", "params": {"initial": [[1, 2, 3], 0.5]}}, "params.initial.0"),
    ({"kind": "chain", "params": {"initial": [1, 0], "overlaps": [[["x", 1], [1, 0]]]}},
     "params.overlaps.0.0.0"),
    ({"kind": "realism-scenario", "params": {"alpha": [0.6], "beta": 0.8}}, "params.alpha"),
    # at equal rank keyword order decides: required before additionalProperties
    ({"kind": "zeno", "params": {"epsilon": 0.05, "omgea": 1}}, "params"),
    # the shallowest path wins
    ({"kind": "detector-compare", "params": {"region": [{"x": [0], "t": [3, 4]}], "bnad": 1}}, "params.bnad"),
    ({"kind": "zeno", "sed": 1, "grid": {"nx": 1}, "params": {}}, "sed"),
]


@pytest.mark.parametrize("cfg, field", RANKED, ids=[field for _, field in RANKED])
def test_ranked_cases_name_the_best_match_field(cfg, field):
    assert_agree(cfg)
    with pytest.raises(cli.ConfigError) as err:
        cli.ExperimentConfig.from_dict(cfg)
    assert str(err.value).split(": ")[0] == field


def test_oneof_message_and_required_message():
    with pytest.raises(cli.ConfigError, match=r"^params: 'omega' is a required property$"):
        cli.ExperimentConfig.from_dict({"kind": "zeno", "params": {"epsilon": 0.05, "omgea": 1}})
    with pytest.raises(cli.ConfigError, match=r"^params\.alpha: 'x' is not valid under exactly one of"):
        cli.ExperimentConfig.from_dict({"kind": "epr", "params": {"alpha": "x", "beta": 0.8}})


# values that break a field's type or bound (21 and 1025 are one above the maxima
# of n_ancillas and halvings), or that are valid for another field
WRONG = ["x", True, None, {}, [], -1, 0, 2.0, 1.5, 21, 1025, [1], [1, 2, 3], [1, "x"], [True, 1],
         [{"x": [0, 1], "t": [0]}]]


def _nodes(obj, path=()):
    """(path, node) for every node of a JSON value, the root first."""
    yield path, obj
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


DELETE = object()


def _edits(cfg):
    """(path, value) of every one-step edit of ``cfg``: each node set to
    each WRONG value or deleted, and an unknown key added to each object."""
    for path, node in _nodes(cfg):
        if path:
            yield from ((path, value) for value in WRONG + [DELETE])
        if isinstance(node, dict):
            yield path + ("zzz",), 1


def _edited(cfg, path, value):
    out = copy.deepcopy(cfg)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def test_mutated_configs_agree():
    rng = random.Random(0)
    bases = [BENCH._config(name, seed) for name in sorted(BENCH.BASE) for seed in (0, 5)]
    singles = [_edited(cfg, *edit) for cfg in bases for edit in _edits(cfg)]
    # two edits at once, so that the rank between errors is exercised
    doubles = [_edited(cfg, *rng.choice(list(_edits(cfg)))) for cfg in rng.sample(singles, 1000)]
    invalid = 0
    for cfg in singles + doubles:
        found = verdicts(cfg)
        assert [got for _, got in found] == [want for want, _ in found], json.dumps(cfg)
        invalid += found[-1][0] is not None
    assert invalid > 3000  # most edits break the config


def test_only_supported_keywords():
    supported = {"type", "enum", "required", "properties", "additionalProperties", "items",
                 "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum", "oneOf"}
    typed = {"type", "enum", "oneOf"}

    def walk(schema):
        assert set(schema) <= supported, schema
        assert schema.keys() & typed, schema  # every other keyword sits beside a type
        assert schema.get("type", "array") in {"object", "array", "string", "boolean", "number", "integer"}
        assert schema.get("additionalProperties", False) is False
        assert all(isinstance(v, str) for v in schema.get("enum", []))  # so == is JSON equality
        for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]:
            walk(sub)
        if "items" in schema:
            walk(schema["items"])

    for schema in [cli._SCHEMA, *cli._PARAM_SCHEMAS.values()]:
        walk(schema)


def assert_agree_on(instance, schema):
    got = cli._best_error(instance, schema)
    assert (got and (got.path, got.keyword)) == jsonschema_best_match(instance, schema), instance


def test_type_rules_follow_json_schema():
    # a bool is no number, 2.0 is an integer, a big int is still a number
    schema = {"type": "object", "properties": {"n": {"type": "integer"}, "x": {"type": "number"}}}
    for n, x in [(2.0, 1), (True, 1.0), (2, False), (2.5, "1"), (10**30, 10**30), (-0.0, -0.0)]:
        assert_agree_on({"n": n, "x": x}, schema)


def test_rank_rules_beyond_the_config_schemas():
    # a oneOf loses to another keyword at its path; two valid branches fail a
    # oneOf; a oneOf inside a oneOf branch is descended into as well
    either = {"oneOf": [{"type": "number"}, {"type": "string"}], "enum": ["a"]}
    both = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    nested = {"oneOf": [{"type": "string"}, {"type": "array", "items": either}]}
    for instance, schema in [(True, either), ("b", either), (1, both), (1.5, both),
                             ([1, True], nested), ([[1, 2]], nested), (["a", 1], nested)]:
        assert_agree_on(instance, schema)


# --------------------------------------------------------------------------
# non-finite numbers: the one intended disagreement with the oracle

NON_FINITE_IDS = ["zeno-omega", "grid-x_max", "epr-alpha", "grid-x_max-int"]
NON_FINITE = [
    ('{"kind": "zeno", "params": {"omega": NaN, "epsilon": 0.05}, "output": {"path": "bad"}}',
     "params.omega: nan is not a finite number"),
    ('{"kind": "detector-compare", "grid": {"x_max": Infinity}, "output": {"path": "bad"}}',
     "grid.x_max: inf is not a finite number"),
    ('{"kind": "epr", "params": {"alpha": NaN, "beta": 0.8}, "output": {"path": "bad"}}',
     "params.alpha: nan is not valid under exactly one of"),
    ('{"kind": "detector-compare", "grid": {"x_max": 1' + "0" * 400 + '}, "output": {"path": "bad"}}',
     "grid.x_max: 1" + "0" * 400 + " is not a finite number"),
]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text, message", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_numbers_exit_1(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
    assert cli.main(args) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("text", [text for text, _ in NON_FINITE], ids=NON_FINITE_IDS)
def test_oracle_accepts_non_finite_numbers(text):
    # the documented disagreement: JSON Schema takes NaN and Infinity for numbers
    found = verdicts(json.loads(text))
    assert [want for want, _ in found] == [None] * len(found)
    assert found[-1][1] is not None


def test_non_finite_items_and_negative_infinity():
    for params in ({"omega": 1.0, "thetas": [0.1, float("-inf")]}, {"omega": 1.0, "theta_max": float("nan")}):
        with pytest.raises(cli.ConfigError, match="is not a finite number"):
            cli.ExperimentConfig.from_dict({"kind": "time-reversed-zeno", "params": params})


# --------------------------------------------------------------------------
# start-up


def test_cli_import_leaves_jsonschema_unloaded():
    code = (
        "import sys, cqi_sim.cli; "
        "print(sorted(m for m in ('jsonschema', 'referencing', 'rpds', 'attrs') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
    )
    assert proc.stdout.strip() == "[]"
